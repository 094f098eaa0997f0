// Testdata for the wirebounds analyzer's second boundary file name: a
// frame codec lives in stream.go, and its length prefix is as hostile as
// any count inside a payload.
package wirebounds

import "encoding/binary"

func readFrameUnchecked(head []byte) []byte {
	length := int64(binary.BigEndian.Uint32(head[0:4]))
	return make([]byte, length) // want `length decoded from the wire reaches a make without a dominating bounds check`
}

func readFrameBounded(head []byte, max int64) []byte {
	length := int64(binary.BigEndian.Uint32(head[0:4]))
	if length > max {
		return nil
	}
	return make([]byte, length)
}
