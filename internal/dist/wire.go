// Package dist implements distributed segment serving: shard servers
// that own contiguous slices of a snapshot's segment manifest and
// export partial search evidence, and a stateless scatter-gather router
// that merges those partials into result pages byte-identical to a
// single node serving the whole corpus.
//
// Topology:
//
//	                       one stream per    ┌──────────────────────┐   snapshot segments [0,k)
//	client ──HTTP──► router ═in-flight leg═► │ tabserved -shard 0/2 │   (tables 0..t₀)
//	              (tabserved  ║              └──────────────────────┘
//	               -shards)   ║              ┌──────────────────────┐   snapshot segments [k,n)
//	                          ╚════════════► │ tabserved -shard 1/2 │   (tables t₀..t)
//	                                         └──────────────────────┘
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
//	i    request ID ("": shard mints)        payload (appendPartial) or the
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
// answer into the other (appendPartial straight into the frame). The
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
	"math"
	"slices"

	"repro/internal/byteread"
	"repro/internal/catalog"
	"repro/internal/search"
)

// partialMagic heads every partial-evidence payload.
var partialMagic = [6]byte{'W', 'T', 'P', 'A', 'R', 'T'}

// PartialVersion is the partial-evidence wire version, and the only one
// DecodePartial reads. Version 2 added the fixed-size execution-stats
// block after the shard header; a version-1 payload (no stats block)
// could only come from a shard that predates the router→shard stream,
// and no such shard can answer one.
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
	Stats search.ExecStats
	// Groups is the shard's partial evidence in replay order.
	Groups []search.PartialGroup
}

// partialStatsLen is the byte length of the execution-stats block: 3 u64 counters, 4 u32 small counts, 6 u64 stage nanos.
const partialStatsLen = 3*8 + 4*4 + 6*8

// EncodePartial serializes p at PartialVersion into a buffer
// of its own: appendPartial(nil, p).
func EncodePartial(p *Partial) []byte { return appendPartial(nil, p) }

// appendPartial appends p, serialized at PartialVersion, to dst
// (grown once, to the payload's size) — a stream's worker encodes every
// partial into the one buffer it answers from. Layout (all integers
// big-endian):
//
//	magic "WTPART", version u8, generation u64, shard u32, shards u32,
//	stats block (candidate-pairs u64, pairs-matched u64,
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
func appendPartial(dst []byte, p *Partial) []byte {
	// Pre-size: header + a conservative walk of the payload.
	size := 6 + 1 + 8 + 4 + 4 + partialStatsLen + 4
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
	buf := slices.Grow(dst, size)
	buf = append(buf, partialMagic[:]...)
	buf = append(buf, PartialVersion)
	buf = binary.BigEndian.AppendUint64(buf, p.Generation)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Shard))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Shards))
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

// DecodePartial deserializes one payload, validating structure
// strictly: magic, version, bounds on every count, strictly ascending
// group keys (the replay order the merge depends on), finite evidence (a
// NaN would make the merged score NaN, which no rank order or cursor
// survives), and no trailing bytes. Any version but PartialVersion fails
// with ErrBadPartial, naming the version, before any field is decoded.
func DecodePartial(data []byte) (*Partial, error) {
	r := byteread.New(data, ErrBadPartial)
	if string(r.Take(len(partialMagic))) != string(partialMagic[:]) {
		return nil, r.Failf("bad magic")
	}
	if ver := r.U8(); ver != PartialVersion {
		return nil, r.Failf("version %d, reader supports only %d", ver, PartialVersion)
	}
	p := &Partial{Generation: r.U64(), Shard: int(r.U32()), Shards: int(r.U32())}
	st := &p.Stats
	st.CandidatePairs = int64(r.U64())
	st.PairsMatched = int64(r.U64())
	st.RowsScanned = int64(r.U64())
	st.SegmentsVisited = int(int32(r.U32()))
	st.TombstonesSkipped = int(int32(r.U32()))
	st.AnswersBeforeTopK = int(int32(r.U32()))
	st.Parallelism = int(int32(r.U32()))
	st.Stage.Validate = int64(r.U64())
	st.Stage.Plan = int64(r.U64())
	st.Stage.Scan = int64(r.U64())
	st.Stage.Aggregate = int64(r.U64())
	st.Stage.Select = int64(r.U64())
	st.Stage.Explain = int64(r.U64())
	if nGroups := r.Count(uint64(r.U32()), 8); nGroups > 0 {
		p.Groups = make([]search.PartialGroup, nGroups)
	}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if g.Key = r.U32(); gi > 0 && g.Key <= p.Groups[gi-1].Key {
			return nil, r.Failf("group keys not strictly ascending (%d after %d)", g.Key, p.Groups[gi-1].Key)
		}
		if nClusters := r.Count(uint64(r.U32()), 20); nClusters > 0 {
			g.Clusters = make([]search.ClusterPartial, nClusters)
		}
		for ci := range g.Clusters {
			c := &g.Clusters[ci]
			c.Entity = catalog.EntityID(int32(r.U32()))
			c.Norm = string(r.Take(int(r.U32())))
			c.Canonical = string(r.Take(int(r.U32())))
			if nHits := r.Count(uint64(r.U32()), 20); nHits > 0 {
				c.Hits = make([]search.PartialHit, nHits)
			}
			for hi := range c.Hits {
				// One read a hit, not four: hits are most of a payload.
				b := r.Take(20)
				if b == nil {
					return nil, r.Err()
				}
				ev := math.Float64frombits(binary.BigEndian.Uint64(b[12:20]))
				if math.IsNaN(ev) || math.IsInf(ev, 0) {
					return nil, r.Failf("non-finite evidence %v in group %d", ev, g.Key)
				}
				c.Hits[hi] = search.PartialHit{
					Table:    int32(binary.BigEndian.Uint32(b[0:4])),
					Row:      int32(binary.BigEndian.Uint32(b[4:8])),
					Col:      int32(binary.BigEndian.Uint32(b[8:12])),
					Evidence: ev,
				}
			}
			if nVars := r.Count(uint64(r.U32()), 8); nVars > 0 {
				c.Variants = make([]search.Variant, nVars)
			}
			for vi := range c.Variants {
				v := &c.Variants[vi]
				v.Raw = string(r.Take(int(r.U32())))
				v.Count = int(r.U32())
			}
		}
	}
	if r.Remaining() != 0 {
		r.Failf("%d trailing bytes", r.Remaining())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return p, nil
}
