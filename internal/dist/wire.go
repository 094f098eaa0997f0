// Package dist implements distributed segment serving: shard servers
// that own contiguous slices of a snapshot's segment manifest and
// export partial search evidence, and a stateless scatter-gather router
// that merges those partials into result pages byte-identical to a
// single node serving the whole corpus.
//
// Topology:
//
//	                       one stream per    ┌────────────┐   snapshot segments [0,k)
//	client ──HTTP──► router ═in-flight leg═► │ tabshard 0 │   (tables 0..t₀)
//	              (tabserved  ║              └────────────┘
//	               -shards)   ║              ┌────────────┐   snapshot segments [k,n)
//	                          ╚════════════► │ tabshard 1 │   (tables t₀..t)
//	                                         └────────────┘
//
// Every process loads the same snapshot file; the shard placement is a
// deterministic function of the manifest (snapshot.AssignShards), so
// shards agree on who owns which global table numbers without any
// coordination. The router holds no corpus state at all: it forwards
// the client's request bytes to every shard, gathers partial evidence
// (internal/search's per-cluster hit lists in scan order), and folds it
// through the same corpus-order aggregation a single node uses —
// scores, totals, cursors, dominant surface forms and explanations come
// out bit-for-bit identical because every cluster's floating-point
// evidence is summed in exactly the single-node scan order.
//
// Failure semantics are structural, never silent: a shard that stays
// unreachable after bounded retries fails the whole request with a 502
// naming the shard (a partial cluster must not quietly return a subset
// of the corpus), client errors (4xx) from shards propagate as-is, and
// shards drain gracefully on shutdown.
//
// # Transport
//
// A partial-evidence request does not cross net/http. Client dials the
// shard's ordinary address, sends GET /v1/stream with "Upgrade:
// wtpart-stream/1", the shard answers 101 and takes the connection from
// its HTTP server (same listener, same Handler), and from then on the
// connection carries frames, one request and its answer at a time, all
// integers big-endian (stream.go):
//
//	request frame                       response frame
//	u32  length of what follows         u32  length of what follows
//	u16  request-ID length i            u16  status
//	u16  span-context length s          ...  payload: the bytes POST /v1/partial
//	u64  budget, ns (0: none)                answers with that status — a WTPART
//	i    request ID ("": shard mints)        payload (AppendPartial) or the
//	s    span context "trace/span"           structured JSON error body
//	...  the client's JSON body, verbatim
//
// POST /v1/partial stays on the shard as the other framing of the same
// function (ShardServer.partial), for curl and operators; both pass
// through one per-request envelope (server.HTTPBase.Handle), so a shard's
// metrics, traces and log lines for a routed query say route
// "POST /v1/partial" whichever carried it. There is one transport: a
// shard that answers the upgrade with anything but 101 is a definitive
// ShardError carrying that status, never a fallback to POST.
//
// Buffers. A client stream owns one buffer: the request frame is built in
// it and written with one Write, then the response payload is read into
// it; DecodePartial copies everything it keeps, so nothing of a Partial
// points into a parked stream. A shard stream owns two: its socket
// goroutine reads request frames into one and its worker encodes every
// answer into the other (AppendPartial straight into the frame). The
// frame handed to the worker points into the read buffer, which is not
// written again before the worker has marked the stream idle.
//
// Goroutines. The client writes and reads on the goroutine that called
// Partial — the connection's deadline is the attempt timeout, and
// context.AfterFunc pulls it into the past when the caller's context is
// cancelled; the router runs the last shard's leg on the handler's own
// goroutine. A shard stream is two goroutines: one stays on the socket
// while the other executes the frame, so a router that hangs up or times
// out (it closes the stream) cancels the scan at its next poll, and a
// second frame sent before the first is answered ends the stream.
//
// Retry. Transport and framing errors and 5xx answers are retried with
// doubling backoff; 4xx answers and a refused upgrade are not. An idle
// stream is parked per shard (at most maxIdleStreams) and reused, newest
// first. A parked stream may have outlived its shard process: when the
// first exchange over one fails, it is repeated once, immediately, on a
// fresh dial before the attempt counts as failed. A stream whose exchange
// failed midway is closed, never parked.
//
// Drain. http.Server.Shutdown neither waits for nor closes hijacked
// connections, so ShardServer.Serve drains its streams itself: idle ones
// are closed, one executing a frame answers it and is then closed, and
// after the drain timeout whatever is left is cancelled and cut; Serve
// returns with no stream goroutine left. Router.Serve closes the client's
// parked streams on its way out.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/search"
)

// partialMagic heads every partial-evidence payload.
var partialMagic = [6]byte{'W', 'T', 'P', 'A', 'R', 'T'}

// PartialVersion is the current partial-evidence wire version. Version
// 2 added the fixed-size execution-stats block after the shard header;
// version-1 payloads (no stats block) still decode, with zero-value
// Stats.
const PartialVersion = 2

// ErrBadPartial reports a partial-evidence payload that is not
// well-formed: wrong magic, unknown version, truncation, trailing
// garbage, ordering violations, or non-finite evidence.
var ErrBadPartial = errors.New("dist: malformed partial payload")

// Partial is one shard's response to a partial-evidence query: the
// replay groups plus the identity envelope the router verifies before
// merging (a shard answering for the wrong slice or a different corpus
// generation would silently corrupt the merge).
type Partial struct {
	// Generation is the corpus generation the shard serves.
	Generation uint64
	// Shard and Shards identify the responder's slice of the cluster.
	Shard, Shards int
	// Stats is the shard-local execution cost of producing Groups.
	// Zero-valued when the payload predates version 2.
	Stats search.ExecStats
	// Groups is the shard's partial evidence in replay order.
	Groups []search.PartialGroup
}

// partialStatsLen is the byte length of the version-2 execution-stats
// block: 3 u64 counters, 4 u32 small counts, 6 u64 stage nanos.
const partialStatsLen = 3*8 + 4*4 + 6*8

// EncodePartial serializes p at the current wire version into a buffer
// of its own: AppendPartial(nil, p).
func EncodePartial(p *Partial) []byte { return AppendPartial(nil, p) }

// AppendPartial appends p, serialized at the current wire version, to dst
// (grown once, to the payload's size) — a stream's worker encodes every
// partial into the one buffer it answers from. Layout (all integers
// big-endian):
//
//	magic "WTPART", version u8, generation u64, shard u32, shards u32,
//	stats block (v2+: candidate-pairs u64, pairs-matched u64,
//	rows-scanned u64, segments u32, tombstones u32, answers-before-topk
//	u32, parallelism u32, then validate/plan/scan/aggregate/select/
//	explain stage nanos as 6 × u64), groups u32, then per group: key
//	u32, clusters u32, then per cluster: entity i32 (-1 = text
//	cluster), norm string, canonical string, hits u32 × (table i32, row
//	i32, col i32, evidence f64 bits), variants u32 × (raw string, count
//	u32).
//
// Strings are u32 length + bytes. The evidence float crosses the wire
// as its exact bit pattern, because the merge's byte-identity contract
// is bit-exact arithmetic.
func AppendPartial(dst []byte, p *Partial) []byte {
	return appendPartial(dst, p, PartialVersion)
}

// appendPartial serializes p at an explicit wire version — version 1
// omits the stats block. Kept internal for compatibility tests; callers
// always encode at PartialVersion.
func appendPartial(buf []byte, p *Partial, version uint8) []byte {
	// Pre-size: header + a conservative walk of the payload.
	size := 6 + 1 + 8 + 4 + 4 + 4
	if version >= 2 {
		size += partialStatsLen
	}
	for gi := range p.Groups {
		size += 8
		for ci := range p.Groups[gi].Clusters {
			c := &p.Groups[gi].Clusters[ci]
			size += 4 + 4 + len(c.Norm) + 4 + len(c.Canonical)
			size += 4 + 20*len(c.Hits)
			size += 4
			for vi := range c.Variants {
				size += 8 + len(c.Variants[vi].Raw)
			}
		}
	}
	buf = slices.Grow(buf, size)
	buf = append(buf, partialMagic[:]...)
	buf = append(buf, version)
	buf = binary.BigEndian.AppendUint64(buf, p.Generation)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Shard))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Shards))
	if version >= 2 {
		st := &p.Stats
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.CandidatePairs))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.PairsMatched))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.RowsScanned))
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.SegmentsVisited))
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.TombstonesSkipped))
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.AnswersBeforeTopK))
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.Parallelism))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Validate))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Plan))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Scan))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Aggregate))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Select))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Explain))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Groups)))
	appendString := func(s string) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		buf = binary.BigEndian.AppendUint32(buf, g.Key)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.Clusters)))
		for ci := range g.Clusters {
			c := &g.Clusters[ci]
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(c.Entity)))
			appendString(c.Norm)
			appendString(c.Canonical)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Hits)))
			for _, h := range c.Hits {
				buf = binary.BigEndian.AppendUint32(buf, uint32(h.Table))
				buf = binary.BigEndian.AppendUint32(buf, uint32(h.Row))
				buf = binary.BigEndian.AppendUint32(buf, uint32(h.Col))
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(h.Evidence))
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Variants)))
			for vi := range c.Variants {
				appendString(c.Variants[vi].Raw)
				buf = binary.BigEndian.AppendUint32(buf, uint32(c.Variants[vi].Count))
			}
		}
	}
	return buf
}

// partialReader is a bounds-checked cursor over an encoded payload.
type partialReader struct {
	data []byte
	off  int
}

func (r *partialReader) remaining() int { return len(r.data) - r.off }

func (r *partialReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: truncated at byte %d (need %d more)", ErrBadPartial, r.off, n)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *partialReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *partialReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *partialReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count reads an element count and sanity-checks it against the bytes
// remaining (each element needs at least min bytes), so a corrupted
// count fails as truncation instead of allocating unbounded memory.
func (r *partialReader) count(min int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(min) > int64(r.remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrBadPartial, n, r.remaining())
	}
	return int(n), nil
}

// DecodePartial deserializes one payload, validating structure
// strictly: magic, version, bounds on every count, strictly ascending
// group keys (the replay order the merge depends on), finite evidence (a
// NaN would make the merged score NaN, which no rank order or cursor
// survives), and no trailing bytes. Version-1 payloads (pre-stats)
// decode with zero-value Stats; versions above PartialVersion fail with
// ErrBadPartial before any field is decoded.
func DecodePartial(data []byte) (*Partial, error) {
	r := &partialReader{data: data}
	head, err := r.take(len(partialMagic))
	if err != nil {
		return nil, err
	}
	if string(head) != string(partialMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPartial)
	}
	ver, err := r.take(1)
	if err != nil {
		return nil, err
	}
	if ver[0] < 1 || ver[0] > PartialVersion {
		return nil, fmt.Errorf("%w: version %d, reader supports 1..%d", ErrBadPartial, ver[0], PartialVersion)
	}
	p := &Partial{}
	if p.Generation, err = r.u64(); err != nil {
		return nil, err
	}
	shard, err := r.u32()
	if err != nil {
		return nil, err
	}
	shards, err := r.u32()
	if err != nil {
		return nil, err
	}
	p.Shard, p.Shards = int(shard), int(shards)
	if ver[0] >= 2 {
		b, err := r.take(partialStatsLen)
		if err != nil {
			return nil, err
		}
		st := &p.Stats
		st.CandidatePairs = int64(binary.BigEndian.Uint64(b[0:8]))
		st.PairsMatched = int64(binary.BigEndian.Uint64(b[8:16]))
		st.RowsScanned = int64(binary.BigEndian.Uint64(b[16:24]))
		st.SegmentsVisited = int(int32(binary.BigEndian.Uint32(b[24:28])))
		st.TombstonesSkipped = int(int32(binary.BigEndian.Uint32(b[28:32])))
		st.AnswersBeforeTopK = int(int32(binary.BigEndian.Uint32(b[32:36])))
		st.Parallelism = int(int32(binary.BigEndian.Uint32(b[36:40])))
		st.Stage.Validate = int64(binary.BigEndian.Uint64(b[40:48]))
		st.Stage.Plan = int64(binary.BigEndian.Uint64(b[48:56]))
		st.Stage.Scan = int64(binary.BigEndian.Uint64(b[56:64]))
		st.Stage.Aggregate = int64(binary.BigEndian.Uint64(b[64:72]))
		st.Stage.Select = int64(binary.BigEndian.Uint64(b[72:80]))
		st.Stage.Explain = int64(binary.BigEndian.Uint64(b[80:88]))
	}
	nGroups, err := r.count(8)
	if err != nil {
		return nil, err
	}
	if nGroups > 0 {
		p.Groups = make([]search.PartialGroup, 0, nGroups)
	}
	for gi := 0; gi < nGroups; gi++ {
		var g search.PartialGroup
		if g.Key, err = r.u32(); err != nil {
			return nil, err
		}
		if gi > 0 && g.Key <= p.Groups[gi-1].Key {
			return nil, fmt.Errorf("%w: group keys not strictly ascending (%d after %d)",
				ErrBadPartial, g.Key, p.Groups[gi-1].Key)
		}
		nClusters, err := r.count(20)
		if err != nil {
			return nil, err
		}
		if nClusters > 0 {
			g.Clusters = make([]search.ClusterPartial, 0, nClusters)
		}
		for ci := 0; ci < nClusters; ci++ {
			var c search.ClusterPartial
			ent, err := r.u32()
			if err != nil {
				return nil, err
			}
			c.Entity = catalog.EntityID(int32(ent))
			if c.Norm, err = r.str(); err != nil {
				return nil, err
			}
			if c.Canonical, err = r.str(); err != nil {
				return nil, err
			}
			nHits, err := r.count(20)
			if err != nil {
				return nil, err
			}
			if nHits > 0 {
				c.Hits = make([]search.PartialHit, nHits)
			}
			for hi := 0; hi < nHits; hi++ {
				b, err := r.take(20)
				if err != nil {
					return nil, err
				}
				ev := math.Float64frombits(binary.BigEndian.Uint64(b[12:20]))
				if math.IsNaN(ev) || math.IsInf(ev, 0) {
					return nil, fmt.Errorf("%w: non-finite evidence %v in group %d", ErrBadPartial, ev, g.Key)
				}
				c.Hits[hi] = search.PartialHit{
					Table:    int32(binary.BigEndian.Uint32(b[0:4])),
					Row:      int32(binary.BigEndian.Uint32(b[4:8])),
					Col:      int32(binary.BigEndian.Uint32(b[8:12])),
					Evidence: ev,
				}
			}
			nVars, err := r.count(8)
			if err != nil {
				return nil, err
			}
			if nVars > 0 {
				c.Variants = make([]search.Variant, nVars)
			}
			for vi := 0; vi < nVars; vi++ {
				raw, err := r.str()
				if err != nil {
					return nil, err
				}
				cnt, err := r.u32()
				if err != nil {
					return nil, err
				}
				c.Variants[vi] = search.Variant{Raw: raw, Count: int(cnt)}
			}
			g.Clusters = append(g.Clusters, c)
		}
		p.Groups = append(p.Groups, g)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPartial, r.remaining())
	}
	return p, nil
}
