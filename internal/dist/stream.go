package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// streamProtocol is the Upgrade token of the router→shard stream; a
// frame-layout change is a new token, which an old shard answers without
// 101 and the client reports as such.
const streamProtocol = "wtpart-stream/1"

// The frame layouts (see the package comment's Transport section).
const (
	requestFrameHead  = 4 + 2 + 2 + 8 // length, ID length, span-context length, budget
	responseFrameHead = 4 + 2         // length, status
)

var (
	// errBadFrame reports bytes that are not a frame: a length shorter
	// than the fixed part it covers, or an end of input inside a frame.
	errBadFrame = errors.New("dist: malformed stream frame")
	// errFrameTooLarge reports a frame whose declared body exceeds the
	// reader's bound. The body is left unread, so the stream is over.
	errFrameTooLarge = errors.New("dist: stream frame over the size limit")
)

// requestFrame is one partial-evidence request as it crosses a stream.
// ID, Span and Body point into the buffer the frame was read into.
type requestFrame struct {
	// ID is the router's request ID; empty, the shard mints one.
	ID []byte
	// Span is the calling span's context ("trace/span"), or empty.
	Span []byte
	// Budget is what is left of the client's attempt timeout when the
	// frame is written (0: unbounded); the shard stops working on the
	// frame when it has run out, hang-up or no hang-up.
	Budget time.Duration
	// Body is the client's JSON request, verbatim.
	Body []byte
	// Oversize marks a frame whose body was over the reader's cap: it was
	// not read and Body is empty. The frame can still be answered (413);
	// the stream cannot go on after it.
	Oversize bool
}

// appendRequestFrame appends the frame to dst. An ID or span context too
// long for its u16 length is left out (the shard then mints its own ID,
// or roots a parentless trace) — neither may fail a request.
func appendRequestFrame(dst []byte, id, span string, budget time.Duration, body []byte) []byte {
	if len(id) > math.MaxUint16 {
		id = ""
	}
	if len(span) > math.MaxUint16 {
		span = ""
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(requestFrameHead-4+len(id)+len(span)+len(body)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(id)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(span)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(budget))
	dst = append(dst, id...)
	dst = append(dst, span...)
	return append(dst, body...)
}

// readRequestFrame reads one request frame from r into buf (grown when it
// is too small) and returns the frame and the buffer. A body over maxBody
// bytes (0: no bound) is errFrameTooLarge, decided from the fixed head
// before anything is allocated: the frame returned with it is marked
// Oversize and carries ID, Span and Budget — enough to answer it — and no
// Body. io.EOF means r ended between frames; an end inside one is
// errBadFrame.
func readRequestFrame(r io.Reader, buf []byte, maxBody int64) (requestFrame, []byte, error) {
	var head [requestFrameHead]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if errors.Is(err, io.EOF) { // ReadFull's io.EOF: not one byte of a frame
			return requestFrame{}, buf, io.EOF
		}
		return requestFrame{}, buf, midFrame(err)
	}
	length := int64(binary.BigEndian.Uint32(head[0:4]))
	length -= requestFrameHead - 4 // what follows the head: ID, span context, body
	idLen := int64(binary.BigEndian.Uint16(head[4:6]))
	spanLen := int64(binary.BigEndian.Uint16(head[6:8]))
	fr := requestFrame{Budget: time.Duration(binary.BigEndian.Uint64(head[8:16]))}
	if idLen+spanLen > length {
		return fr, buf, fmt.Errorf("%w: length does not cover the frame's own head", errBadFrame)
	}
	// The length prefix is hostile until it has been held against the
	// body cap: nothing is sized by it before.
	fr.Oversize = maxBody > 0 && length-idLen-spanLen > maxBody
	if fr.Oversize {
		length = idLen + spanLen
	}
	if int64(cap(buf)) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(r, buf); err != nil {
		return fr, buf, midFrame(err)
	}
	fr.ID, fr.Span, fr.Body = buf[:idLen], buf[idLen:idLen+spanLen], buf[idLen+spanLen:]
	if fr.Oversize {
		return fr, buf, fmt.Errorf("%w: request body over %d bytes", errFrameTooLarge, maxBody)
	}
	return fr, buf, nil
}

// beginResponseFrame appends a response frame's head to dst with the
// length still open; the payload is appended after it and
// endResponseFrame closes the frame that started at offset start.
func beginResponseFrame(dst []byte, status int) []byte {
	dst = append(dst, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint16(dst, uint16(status))
}

func endResponseFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// readResponseFrame reads one response frame from r into buf (grown when
// it is too small) and returns the status and the buffer, cut to the
// payload. A payload over maxPayload bytes is errFrameTooLarge before
// anything is allocated; any end of input is errBadFrame (a response is
// always owed).
func readResponseFrame(r io.Reader, buf []byte, maxPayload int64) (status int, _ []byte, err error) {
	var head [responseFrameHead]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, buf[:0], midFrame(err)
	}
	length := int64(binary.BigEndian.Uint32(head[0:4]))
	length -= responseFrameHead - 4 // what follows the head: the payload
	status = int(binary.BigEndian.Uint16(head[4:6]))
	if length < 0 {
		return 0, buf[:0], fmt.Errorf("%w: length does not cover the frame's own head", errBadFrame)
	}
	if length > maxPayload {
		return status, buf[:0], fmt.Errorf("%w: partial payload exceeds %d bytes", errFrameTooLarge, maxPayload)
	}
	if int64(cap(buf)) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(r, buf); err != nil {
		return status, buf[:0], midFrame(err)
	}
	return status, buf, nil
}

// midFrame is a read error met inside a frame: an end of input there is
// errBadFrame; anything else (a deadline, a reset) is kept as it is.
func midFrame(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: stream ended inside a frame", errBadFrame)
	}
	return err
}
