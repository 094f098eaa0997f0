package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/searchidx"
)

// saveChecked saves snap and checks the header says the current Version.
func saveChecked(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	if v := buf.Bytes()[len(magic)]; v != Version {
		t.Fatalf("Save wrote version %d, want %d", v, Version)
	}
	return buf.Bytes()
}

// blockSpan is one checksummed block of a snapshot file: the manifest,
// the catalog section or a segment's section.
type blockSpan struct {
	name   string
	lo, hi int
}

// blocksOf locates every block of a snapshot file from its manifest.
func blocksOf(t testing.TB, raw []byte) []blockSpan {
	t.Helper()
	manifestLen := int(binary.BigEndian.Uint64(raw[len(magic)+1:]))
	m, err := decodeManifest(raw[headerLen : headerLen+manifestLen])
	if err != nil {
		t.Fatal(err)
	}
	out := []blockSpan{{"manifest", headerLen, headerLen + manifestLen}}
	at := headerLen + manifestLen
	out = append(out, blockSpan{"catalog section", at, at + int(m.catalog.length)})
	at += int(m.catalog.length)
	for i, ref := range m.sections {
		out = append(out, blockSpan{"segment " + string(rune('0'+i)) + " section", at, at + int(ref.length)})
		at += int(ref.length)
	}
	if at != len(raw) {
		t.Fatalf("blocks end at byte %d of %d", at, len(raw))
	}
	return out
}

// TestFixturesRoundTripV3: what Load returns for each frozen file, saved
// again, is the frozen file byte for byte and loads back to the same
// dump; saving is deterministic; and Save → Load → Save is
// byte-identical.
func TestFixturesRoundTripV3(t *testing.T) {
	for _, name := range fixtures {
		old := loadFixture(t, name)
		want := dumpSnapshot(old)
		raw := saveChecked(t, old)
		if !bytes.Equal(raw, readFixture(t, name)) {
			t.Errorf("%s: Save no longer writes the frozen file's bytes", name)
		}
		if again := saveChecked(t, old); !bytes.Equal(raw, again) {
			t.Errorf("%s: two saves of one snapshot differ", name)
		}
		got, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if dump := dumpSnapshot(got); !bytes.Equal(dump, want) {
			t.Errorf("%s: the round trip dumps differently:\n%s", name, dump)
		}
		if resaved := saveChecked(t, got); !bytes.Equal(raw, resaved) {
			t.Errorf("%s: save -> load -> save is not byte-identical (%d vs %d bytes)", name, len(raw), len(resaved))
		}
	}
}

// TestEmptySnapshotRoundTrip: a catalog with no corpus is a valid file.
func TestEmptySnapshotRoundTrip(t *testing.T) {
	snap := &Snapshot{Catalog: testSnapshot(t).Catalog}
	got, err := Load(bytes.NewReader(saveChecked(t, snap)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 0 || len(got.Segments) != 0 || got.Generation != 0 || len(got.Catalog.Types) != len(snap.Catalog.Types) {
		t.Fatalf("empty snapshot loaded as %+v", got)
	}
}

// TestEveryBlockIsChecksummed: flipping one bit anywhere in a block —
// manifest, catalog section or any segment's section — is ErrChecksum
// naming that block, and so is cutting the file at any block boundary
// or inside any block.
func TestEveryBlockIsChecksummed(t *testing.T) {
	raw := saveChecked(t, loadFixture(t, "segmented.snap"))
	blocks := blocksOf(t, raw)
	if len(blocks) != 2+4 {
		t.Fatalf("%d blocks, want manifest + catalog + 4 segments", len(blocks))
	}
	for _, b := range blocks {
		for _, at := range []int{b.lo, (b.lo + b.hi) / 2, b.hi - 1} {
			damaged := append([]byte(nil), raw...)
			damaged[at] ^= 0x10
			_, err := Load(bytes.NewReader(damaged))
			if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), b.name) {
				t.Errorf("bit flipped at byte %d (%s): err = %v, want ErrChecksum naming the block", at, b.name, err)
			}
		}
		for _, cut := range []int{b.lo, (b.lo + b.hi) / 2} {
			_, err := Load(bytes.NewReader(raw[:cut]))
			if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), b.name) {
				t.Errorf("file cut at byte %d (%s): err = %v, want ErrChecksum naming the block", cut, b.name, err)
			}
		}
	}
}

// assemble frames blocks behind a manifest the way Save does, fixing up
// every length and checksum, so a test can hand-build a file whose
// checksums pass and whose content does not hold together.
func assemble(m *manifest, catalog []byte, sections ...[]byte) []byte {
	m.catalog = sectionRef{uint64(len(catalog)), crc32.ChecksumIEEE(catalog)}
	m.sections = nil
	for _, s := range sections {
		m.sections = append(m.sections, sectionRef{uint64(len(s)), crc32.ChecksumIEEE(s)})
	}
	out := append(frame(Version, appendManifest(nil, m)), catalog...)
	for _, s := range sections {
		out = append(out, s...)
	}
	return out
}

// TestChecksummedNonsenseIsCorrupt: blocks whose checksums pass but
// whose content does not decode or does not agree with the manifest are
// ErrCorrupt — and a section that declares more bytes than DEFLATE
// could have packed into it is refused before anything is allocated.
func TestChecksummedNonsenseIsCorrupt(t *testing.T) {
	snap := segmentedSnapshot(t)
	var z deflater
	catalog, err := z.appendSection(nil, []byte(`{"types":[],"entities":[],"relations":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := searchidx.AppendSegment(nil, snap.Segments[0].Tables, snap.Segments[0].Anns)
	if err != nil {
		t.Fatal(err)
	}
	good, err := z.appendSection(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	one := func(tables int, dead ...int) *manifest {
		return &manifest{generation: 3, segments: []SegmentInfo{{ID: 1, Tables: tables, Dead: dead}}}
	}
	if _, err := Load(bytes.NewReader(assemble(one(1), catalog, good))); err != nil {
		t.Fatalf("the well-formed assembly does not load: %v", err)
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	garbage, err := z.appendSection(nil, []byte("not a segment"))
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"table count disagrees":     assemble(one(2), catalog, good),
		"section is not a segment":  assemble(one(1), catalog, garbage),
		"section is not deflate":    assemble(one(1), catalog, []byte{5, 0xff, 0xff, 0xff}),
		"section overstates itself": assemble(one(1), catalog, append(huge, good[1:]...)),
		"section understates":       assemble(one(1), catalog, append([]byte{3}, good[binary.PutUvarint(make([]byte, 10), uint64(len(payload))):]...)),
		"catalog is not json":       assemble(one(1), garbage, good),
		"flat with two segments":    assemble(&manifest{flat: true, segments: []SegmentInfo{{Tables: 1}, {Tables: 1}}}, catalog, good, good),
	} {
		if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// A tombstone outside its segment cannot be written by appendManifest's
	// callers; patch one in and fix the manifest's checksum.
	raw := assemble(one(1, 0), catalog, good)
	manifestLen := int(binary.BigEndian.Uint64(raw[len(magic)+1:]))
	m := raw[headerLen : headerLen+manifestLen]
	m[bytes.Index(m, []byte{1, 1, 1, 0})+3] = 7 // ID 1, 1 table, 1 tombstone: table 0 -> 7
	binary.BigEndian.PutUint32(raw[len(magic)+9:], crc32.ChecksumIEEE(m))
	if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tombstone out of range: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeManifestTruncation: every strict prefix of a segmented
// corpus's manifest is ErrCorrupt, naming a byte offset within the
// prefix.
func TestDecodeManifestTruncation(t *testing.T) {
	raw := saveChecked(t, segmentedSnapshot(t))
	manifestLen := int(binary.BigEndian.Uint64(raw[len(magic)+1:]))
	m, err := decodeManifest(raw[headerLen : headerLen+manifestLen])
	if err != nil {
		t.Fatal(err)
	}
	data := appendManifest(nil, m)
	for n := 0; n < len(data); n++ {
		_, err := decodeManifest(data[:n])
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorrupt", n, err)
		}
		if at := faultAt(err); at < 0 || at > n {
			t.Fatalf("prefix of %d bytes: err = %q names no byte offset within the prefix", n, err)
		}
	}
}

var faultOffset = regexp.MustCompile(`byte (\d+)`)

// faultAt returns the byte offset a decode error names, or -1.
func faultAt(err error) int {
	m := faultOffset.FindStringSubmatch(err.Error())
	if m == nil {
		return -1
	}
	at, _ := strconv.Atoi(m[1])
	return at
}

// readLog is a seekable source that records which bytes were read.
type readLog struct {
	*bytes.Reader
	read []bool
}

func (l *readLog) Read(p []byte) (int, error) {
	at, _ := l.Reader.Seek(0, io.SeekCurrent)
	n, err := l.Reader.Read(p)
	for i := int(at); i < int(at)+n; i++ {
		l.read[i] = true
	}
	return n, err
}

// TestReaderTakesOnlyWhatItIsAskedFor: a reader that skips a segment
// never reads a byte of its section when the source can seek, a reader
// that stops early reads nothing past the last section it decoded, and a
// source that cannot seek yields the same segments by discarding.
func TestReaderTakesOnlyWhatItIsAskedFor(t *testing.T) {
	raw := saveChecked(t, loadFixture(t, "segmented.snap"))
	blocks := blocksOf(t, raw)[2:] // the four segment sections
	ctx := context.Background()
	src := &readLog{Reader: bytes.NewReader(raw), read: make([]bool, len(raw))}
	rd, err := NewReader(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if len(rd.Manifest) != 4 || rd.Generation != 7 || rd.Flat || rd.Manifest[0].Tables != 11 || len(rd.Manifest[0].Dead) != 2 {
		t.Fatalf("manifest = %+v (generation %d, flat %v)", rd.Manifest, rd.Generation, rd.Flat)
	}
	if err := rd.Skip(); err != nil {
		t.Fatal(err)
	}
	ixs, err := rd.Segments(1)
	if err != nil {
		t.Fatal(err)
	}
	if ix := ixs[0]; ix.Len() != 7 || ix.TableID(0) != "t9" {
		t.Fatalf("second segment decoded to %d tables starting at %q", ix.Len(), ix.TableID(0))
	}
	for i, b := range blocks {
		touched := false
		for _, r := range src.read[b.lo:b.hi] {
			touched = touched || r
		}
		if want := i == 1; touched != want {
			t.Errorf("%s: read = %v, want %v", b.name, touched, want)
		}
	}

	// The same two steps, then the rest, over a source that cannot seek.
	rd2, err := NewReader(ctx, io.MultiReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close()
	if err := rd2.Skip(); err != nil {
		t.Fatal(err)
	}
	ixs, err = rd2.Segments(3)
	if err != nil {
		t.Fatalf("segments after a discarding skip: %v", err)
	}
	for k, ix := range ixs {
		if want := rd2.Manifest[1+k].Tables; ix.Len() != want {
			t.Fatalf("segment %d: %d tables, manifest says %d", 1+k, ix.Len(), want)
		}
	}
	if _, err := rd2.Segments(1); err != io.EOF {
		t.Fatalf("Segments past the last segment: err = %v, want io.EOF", err)
	}
	if err := rd2.Skip(); err != io.EOF {
		t.Fatalf("Skip past the last segment: err = %v, want io.EOF", err)
	}
}

// TestFirstErrorInManifestOrder: a file whose segment 1 passes its
// checksum but does not decode, and whose segment 3 is cut short, fails
// with segment 1's ErrCorrupt — the error reading the sections one at a
// time meets — on any number of processors, every time.
func TestFirstErrorInManifestOrder(t *testing.T) {
	raw := readFixture(t, "segmented.snap")
	b := blocksOf(t, raw)
	m, err := decodeManifest(raw[b[0].lo:b[0].hi])
	if err != nil {
		t.Fatal(err)
	}
	payload, err := inflate(raw[b[3].lo:b[3].hi])
	if err != nil {
		t.Fatal(err)
	}
	var z deflater
	bad, err := z.appendSection(nil, append(payload, 0)) // decodes to its end, then fails
	if err != nil {
		t.Fatal(err)
	}
	file := assemble(m, raw[b[1].lo:b[1].hi], raw[b[2].lo:b[2].hi], bad, raw[b[4].lo:b[4].hi], raw[b[5].lo:b[5].hi])
	file = file[:len(file)-1]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	first := map[string]string{}
	check := func(procs int, path string, err error) {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "segment 1:") {
			t.Fatalf("GOMAXPROCS %d, %s: err = %v, want segment 1's ErrCorrupt", procs, path, err)
		}
		if want, ok := first[path]; !ok {
			first[path] = err.Error()
		} else if err.Error() != want {
			t.Fatalf("GOMAXPROCS %d, %s: err = %v, want %s", procs, path, err, want)
		}
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for range 20 {
			_, err := Load(bytes.NewReader(file))
			check(procs, "Load", err)
			rd, err := NewReader(context.Background(), bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			_, err = rd.Segments(len(rd.Manifest))
			rd.Close()
			check(procs, "Segments", err)
		}
	}
}

// TestSnapshotMetricsAndSpans: saving and loading are observable — the
// duration histograms count them, the gauges describe the last of each,
// and under a trace each is a span with one child per segment.
func TestSnapshotMetricsAndSpans(t *testing.T) {
	snap := loadFixture(t, "segmented.snap")
	tracer := obs.NewTracer(obs.NewRegistry(), 4)
	ctx, root := tracer.Start(context.Background(), "req-1", "test")
	metricsInit()
	saves, loads := saveSeconds.Count(), loadSeconds.Count()

	var buf bytes.Buffer
	if err := saveContext(ctx, &buf, snap); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	rd, err := NewReader(ctx, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Skip(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Segments(3); err != nil {
		t.Fatal(err)
	}
	rd.Close()
	rd.Close() // idempotent: counted once
	root.End()

	if saveSeconds.Count() != saves+1 || loadSeconds.Count() != loads+1 {
		t.Errorf("histogram counts moved by %d saves and %d loads, want 1 and 1", saveSeconds.Count()-saves, loadSeconds.Count()-loads)
	}
	if got := lastBytes.With("save").Value(); got != float64(size) {
		t.Errorf("snapshot_bytes{op=save} = %v, want %d", got, size)
	}
	skipped := blocksOf(t, saveChecked(t, snap))[2]
	if got := lastBytes.With("load").Value(); got != float64(size-(skipped.hi-skipped.lo)) {
		t.Errorf("snapshot_bytes{op=load} = %v, want the file's %d less the skipped section's %d", got, size, skipped.hi-skipped.lo)
	}
	if s, l := lastSegs.With("save").Value(), lastSegs.With("load").Value(); s != 4 || l != 3 {
		t.Errorf("snapshot_segments = %v saved, %v loaded, want 4 and 3", s, l)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	// Sections are begun in manifest order: in timeline order, which is
	// how a trace lists them, their IDs ascend.
	children := map[string]int{}
	for _, sp := range traces[0].Root.Children {
		prev := 0
		for _, c := range sp.Children {
			id, _ := strconv.Atoi(c.ID)
			if c.Name != "snapshot.section" || id <= prev {
				t.Errorf("%s has a child %+v after span %d", sp.Name, c, prev)
			}
			prev = id
		}
		children[sp.Name] = len(sp.Children)
	}
	if children["snapshot.save"] != 4 || children["snapshot.load"] != 3 || len(children) != 2 {
		t.Errorf("span children = %v, want snapshot.save with 4 and snapshot.load with 3", children)
	}
}
