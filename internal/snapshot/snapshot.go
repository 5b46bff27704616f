// Package snapshot persists a fully built gnet.Network — topology,
// libraries, the interned term dictionary and every peer's compressed
// posting index — to a versioned, fingerprinted flat file, and restores it
// in a fraction of the time a fresh catalog + network + index build takes.
//
// The motivation is paper-scale iteration: the ScaleFull population
// (37,572 peers, 8.1M objects, 118M postings) costs minutes of
// single-core construction that every experiment process pays again
// before its first flood. A snapshot pays that cost once; later runs
// deserialize the finished substrate and only rebuild what is cheap and
// derived (QRP hash products, membership filters, the global
// term-frequency table). A restored network floods, crawls and serves
// byte-identically to the one it was exported from.
//
// # File formats
//
// This build writes format version 2 — an aligned, per-section-hashed
// layout designed for zero-copy mmap loading (see v2.go for the layout and
// the streaming Writer the sharded builder uses). Version-1 files, the
// varint-framed format earlier builds wrote, are still read by Load via
// the original copying decoder:
//
//	"QCSNAP"  6-byte magic
//	u16le     format version (1)
//	u8        section count
//	sections  each: [u8 kind][u64le payload length][payload]
//	          kinds, in required order: meta, dict, topology,
//	          libraries, indexes
//	32 bytes  SHA-256 over everything above (magic through last section)
//
// Both formats refuse to return a network over damaged bytes: v1 hashes
// the whole file against its trailer, v2 verifies each section against its
// directory digest before decoding it. Every failure mode has a typed
// sentinel error: ErrFormat for foreign files, ErrVersion for snapshots
// written by an unreadable format revision, ErrTruncated for short files,
// ErrCorrupt for structural damage and ErrFingerprint for content damage
// (v2 hash mismatches match both ErrFingerprint and ErrCorrupt).
package snapshot

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"unsafe"

	"querycentric/internal/dict"
	"querycentric/internal/gnet"
	"querycentric/internal/vpost"
)

// Version is the snapshot format revision this build writes. Load also
// reads version-1 files; LoadMapped requires version 2.
const Version = 2

// magic identifies a snapshot file.
const magic = "QCSNAP"

// Typed failure modes; wrap details, so errors.Is works on all of them.
var (
	// ErrFormat: the file is not a QCSNAP snapshot at all.
	ErrFormat = errors.New("snapshot: not a QCSNAP file")
	// ErrVersion: the file is a snapshot from a different format revision.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated: the file ends before the format says it should.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrCorrupt: a section's payload violates the format's invariants.
	ErrCorrupt = errors.New("snapshot: corrupt section")
	// ErrFingerprint: the trailing SHA-256 does not match the content.
	ErrFingerprint = errors.New("snapshot: fingerprint mismatch")
)

// Section kinds, in their required file order.
const (
	secMeta = iota + 1
	secDict
	secTopology
	secLibraries
	secIndexes
	numSections = 5
)

// Save exports nw (building its indexes first if needed) and writes the
// snapshot to path, atomically: the bytes land in path+".tmp" and are
// renamed into place only after a successful sync-free close. Returns the
// file size in bytes.
func Save(path string, nw *gnet.Network, workers int) (int64, error) {
	// Build any still-lazy indexes over the caller's worker budget first;
	// ExportState's own build call then finds everything done.
	if err := nw.BuildIndexes(workers); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	st, err := nw.ExportState()
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := writeSnapshotV2(f, st)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// Load reads a snapshot and reconstructs the network, copying everything
// onto the heap. Both format versions are accepted: version-2 files are
// read whole and verified section by section, version-1 files go through
// the original streaming decoder and whole-file fingerprint. No network is
// returned over bytes that fail verification. Derived structures
// (membership filters, QRP products, global term frequencies) are rebuilt
// over up to `workers` goroutines.
func Load(path string, workers int) (*gnet.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	v, err := sniffVersion(f)
	if err != nil {
		return nil, err
	}
	var st *gnet.NetworkState
	switch v {
	case 1:
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		st, err = readSnapshotV1(bufio.NewReaderSize(f, 1<<20))
	case Version:
		var data []byte
		data, err = readFileBytes(f)
		if err == nil {
			st, err = parseV2(data)
		}
	default:
		err = fmt.Errorf("%w: file has version %d, this build reads 1 and %d", ErrVersion, v, Version)
	}
	if err != nil {
		return nil, err
	}
	nw, err := gnet.NewFromState(st, workers)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nw, nil
}

// LoadMapped reconstructs a network over a read-only memory mapping of a
// version-2 snapshot: file names, posting arenas, skip arrays and the
// dictionary arena stay views into the mapping (zero-copy; the kernel
// pages them in on demand), while mutable and derived structures are built
// fresh on the heap. The returned network owns the mapping — call its
// Close when done with it; until then the views must outlive any use.
// Version-1 files cannot be mapped (nothing in them is aligned) and return
// ErrVersion; callers that want transparent fallback use LoadPreferMapped.
func LoadMapped(path string, workers int) (*gnet.Network, error) {
	data, backing, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	st, err := parseV2(data)
	if err != nil {
		backing.Close()
		if errors.Is(err, ErrVersion) {
			return nil, fmt.Errorf("%w (LoadMapped reads only version %d; use Load)", err, Version)
		}
		return nil, err
	}
	st.Borrowed = true
	st.Backing = backing
	nw, err := gnet.NewFromState(st, workers)
	if err != nil {
		backing.Close()
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nw, nil
}

// LoadPreferMapped loads path via LoadMapped when the file's format
// supports it, falling back to the copying Load for version-1 files.
// mapped reports which path produced the network.
func LoadPreferMapped(path string, workers int) (nw *gnet.Network, mapped bool, err error) {
	nw, err = LoadMapped(path, workers)
	if err == nil {
		return nw, true, nil
	}
	if !errors.Is(err, ErrVersion) {
		return nil, false, err
	}
	nw, err = Load(path, workers)
	return nw, false, err
}

// sniffVersion reads the magic and version from the header shared by both
// formats (the first 9 bytes are layout-compatible).
func sniffVersion(f *os.File) (uint16, error) {
	var head [9]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	if string(head[:len(magic)]) != magic {
		return 0, fmt.Errorf("%w (bad magic %q)", ErrFormat, head[:len(magic)])
	}
	return binary.LittleEndian.Uint16(head[len(magic):]), nil
}

// writeSnapshotV1 encodes st in the legacy version-1 framing (retained so
// tests can produce v1 files and pin the compatibility path). Each section
// is encoded twice: once against a counting sink to learn its payload
// length, then for real — sections can be streamed with exact length
// prefixes and no whole-section buffering.
func writeSnapshotV1(f io.Writer, st *gnet.NetworkState) (int64, error) {
	h := sha256.New()
	bw := bufio.NewWriterSize(f, 1<<20)
	w := &writer{w: io.MultiWriter(bw, h)}
	w.bytes([]byte(magic))
	w.u16(1)
	w.u8(numSections)
	sections := []struct {
		kind byte
		enc  func(*writer, *gnet.NetworkState)
	}{
		{secMeta, encodeMeta},
		{secDict, encodeDict},
		{secTopology, encodeTopology},
		{secLibraries, encodeLibraries},
		{secIndexes, encodeIndexes},
	}
	for _, s := range sections {
		var count writer
		count.w = io.Discard
		s.enc(&count, st)
		w.u8(s.kind)
		w.u64(uint64(count.n))
		before := w.n
		s.enc(w, st)
		if w.err == nil && w.n-before != count.n {
			return 0, fmt.Errorf("snapshot: internal error: section %d measured %d bytes, wrote %d",
				s.kind, count.n, w.n-before)
		}
	}
	if w.err != nil {
		return 0, w.err
	}
	// The fingerprint trailer covers every byte written so far; it is not
	// hashed itself (it could not cover its own value).
	if _, err := bw.Write(h.Sum(nil)); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return w.n + sha256.Size, nil
}

// readSnapshotV1 decodes a version-1 snapshot into a NetworkState,
// verifying the trailing whole-file fingerprint before returning.
func readSnapshotV1(br *bufio.Reader) (*gnet.NetworkState, error) {
	h := sha256.New()
	head := make([]byte, len(magic)+2+1)
	if err := readFullHashed(br, h, head); err != nil {
		return nil, err
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w (bad magic %q)", ErrFormat, head[:len(magic)])
	}
	if v := binary.LittleEndian.Uint16(head[len(magic):]); v != 1 {
		return nil, fmt.Errorf("%w: file has version %d, this decoder reads 1", ErrVersion, v)
	}
	if n := head[len(magic)+2]; n != numSections {
		return nil, fmt.Errorf("%w: %d sections, want %d", ErrCorrupt, n, numSections)
	}
	st := &gnet.NetworkState{}
	nPeers := 0
	var hdr [9]byte
	for want := byte(secMeta); want <= secIndexes; want++ {
		if err := readFullHashed(br, h, hdr[:]); err != nil {
			return nil, err
		}
		if hdr[0] != want {
			return nil, fmt.Errorf("%w: section %d where %d expected", ErrCorrupt, hdr[0], want)
		}
		size := binary.LittleEndian.Uint64(hdr[1:])
		const maxSection = 1 << 40 // refuse absurd lengths before allocating
		if size > maxSection {
			return nil, fmt.Errorf("%w: section %d claims %d bytes", ErrCorrupt, want, size)
		}
		payload := make([]byte, size)
		if err := readFullHashed(br, h, payload); err != nil {
			return nil, err
		}
		r := &reader{b: payload, section: int(want)}
		switch want {
		case secMeta:
			nPeers = decodeMeta(r, st)
		case secDict:
			decodeDict(r, st)
		case secTopology:
			decodeTopology(r, st, nPeers)
		case secLibraries:
			decodeLibraries(r, st)
		case secIndexes:
			decodeIndexes(r, st)
		}
		if r.err != nil {
			return nil, r.err
		}
		if len(r.b) != 0 {
			return nil, fmt.Errorf("%w: section %d has %d trailing bytes", ErrCorrupt, want, len(r.b))
		}
	}
	var trailer [sha256.Size]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: missing fingerprint trailer (%v)", ErrTruncated, err)
	}
	if !bytes.Equal(trailer[:], h.Sum(nil)) {
		return nil, fmt.Errorf("%w: file carries %x, content hashes to %x",
			ErrFingerprint, trailer[:8], h.Sum(nil)[:8])
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: data after fingerprint trailer", ErrCorrupt)
	}
	return st, nil
}

// readFullHashed fills buf from r and folds it into the fingerprint.
func readFullHashed(r io.Reader, h hash.Hash, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	h.Write(buf)
	return nil
}

// ---------------------------------------------------------------------------
// Section encoders/decoders. Encoders write through *writer (error-latched,
// usable as a counting sink); decoders consume a *reader over the payload.

func encodeMeta(w *writer, st *gnet.NetworkState) {
	w.u64(st.Config.Seed)
	w.u64(math.Float64bits(st.Config.UltrapeerFrac))
	w.u64(uint64(st.Config.UltraDegree))
	w.u64(uint64(st.Config.FlatDegree))
	w.u64(math.Float64bits(st.Config.FirewalledFrac))
	w.u64(uint64(len(st.Peers)))
}

// decodeMeta returns the declared peer count; the PeerState slice is
// allocated in decodeTopology, where the payload length can vouch for it.
func decodeMeta(r *reader, st *gnet.NetworkState) int {
	st.Config.Seed = r.u64()
	st.Config.UltrapeerFrac = math.Float64frombits(r.u64())
	st.Config.UltraDegree = int(r.u64())
	st.Config.FlatDegree = int(r.u64())
	st.Config.FirewalledFrac = math.Float64frombits(r.u64())
	n := r.u64()
	const maxPeers = 1 << 28
	if r.err == nil && n > maxPeers {
		r.fail("peer count %d out of range", n)
		return 0
	}
	return int(n)
}

// encodeDict stores the term arena raw plus per-term lengths (offsets are
// the running sum, so deltas are the natural varint form).
func encodeDict(w *writer, st *gnet.NetworkState) {
	w.uvarint(uint64(len(st.DictOff) - 1))
	for i := 1; i < len(st.DictOff); i++ {
		w.uvarint(uint64(st.DictOff[i] - st.DictOff[i-1]))
	}
	w.uvarint(uint64(len(st.DictBytes)))
	w.bytes(st.DictBytes)
}

func decodeDict(r *reader, st *gnet.NetworkState) {
	n := r.uvarint()
	// Every term costs at least one length byte, so the remaining payload
	// bounds the count — a corrupt varint cannot force a huge allocation.
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("dictionary claims %d terms in a %d-byte remainder", n, len(r.b))
		return
	}
	off := make([]uint32, 1, n+1)
	var total uint64
	for i := uint64(0); i < n && r.err == nil; i++ {
		total += r.uvarint()
		if total > math.MaxUint32 {
			r.fail("dictionary arena overflows uint32 offsets")
			return
		}
		off = append(off, uint32(total))
	}
	arenaLen := r.uvarint()
	if r.err == nil && arenaLen != total {
		r.fail("dictionary arena is %d bytes but term lengths sum to %d", arenaLen, total)
		return
	}
	st.DictBytes = r.take(arenaLen)
	st.DictOff = off
}

func encodeTopology(w *writer, st *gnet.NetworkState) {
	fw := make([]byte, (len(st.Firewalled)+7)/8)
	for i, b := range st.Firewalled {
		if b {
			fw[i/8] |= 1 << (i % 8)
		}
	}
	w.bytes(fw)
	for i := range st.Peers {
		p := &st.Peers[i]
		var flags byte
		if p.Ultrapeer {
			flags |= 1
		}
		w.u8(flags)
		w.bytes(p.ServentID[:])
		w.uvarint(uint64(len(p.Neighbors)))
		for _, nb := range p.Neighbors {
			w.uvarint(uint64(nb))
		}
	}
}

func decodeTopology(r *reader, st *gnet.NetworkState, n int) {
	// Each peer costs ≥ 18 payload bytes (flags, GUID, degree varint)
	// beyond the bitset; verify before trusting the meta section's count
	// with an allocation.
	if minLen := uint64(n)*18 + uint64((n+7)/8); uint64(len(r.b)) < minLen {
		r.fail("%d peers need ≥ %d bytes, payload has %d", n, minLen, len(r.b))
		return
	}
	st.Peers = make([]gnet.PeerState, n)
	fw := r.take(uint64((n + 7) / 8))
	st.Firewalled = make([]bool, n)
	for i := range st.Firewalled {
		if r.err != nil {
			return
		}
		st.Firewalled[i] = fw[i/8]&(1<<(i%8)) != 0
	}
	for i := range st.Peers {
		p := &st.Peers[i]
		flags := r.u8()
		p.Ultrapeer = flags&1 != 0
		copy(p.ServentID[:], r.take(uint64(len(p.ServentID))))
		deg := r.uvarint()
		if r.err != nil {
			return
		}
		if deg > uint64(n) {
			r.fail("peer %d claims degree %d in a %d-peer network", i, deg, n)
			return
		}
		p.Neighbors = make([]int, deg)
		for j := range p.Neighbors {
			nb := r.uvarint()
			if nb >= uint64(n) {
				r.fail("peer %d links to nonexistent peer %d", i, nb)
				return
			}
			// Neighbor order is part of the state: floods forward in list
			// order, so reordering would change message interleaving.
			p.Neighbors[j] = int(nb)
		}
	}
}

func encodeLibraries(w *writer, st *gnet.NetworkState) {
	for i := range st.Peers {
		lib := st.Peers[i].Library
		w.uvarint(uint64(len(lib)))
		for _, f := range lib {
			w.uvarint(uint64(f.Index))
			w.uvarint(uint64(f.Size))
			w.uvarint(uint64(len(f.Name)))
			w.bytes(unsafeBytes(f.Name))
		}
	}
}

func decodeLibraries(r *reader, st *gnet.NetworkState) {
	for i := range st.Peers {
		nFiles := r.uvarint()
		if r.err != nil {
			return
		}
		if nFiles > uint64(len(r.b)) { // every file costs ≥ 1 payload byte
			r.fail("peer %d claims %d files in a %d-byte remainder", i, nFiles, len(r.b))
			return
		}
		lib := make([]gnet.File, nFiles)
		for j := range lib {
			lib[j].Index = r.u32varint()
			lib[j].Size = r.u32varint()
			nameLen := r.uvarint()
			// The name is a zero-copy view into the section payload: one
			// retained block for all of a snapshot's names, instead of
			// millions of small string allocations.
			lib[j].Name = unsafeString(r.take(nameLen))
		}
		st.Peers[i].Library = lib
	}
}

func encodeIndexes(w *writer, st *gnet.NetworkState) {
	for i := range st.Peers {
		ix := &st.Peers[i].Index
		w.uvarint(uint64(ix.NTerms))
		w.uvarint(uint64(ix.NPostings))
		prevF, prevO := uint64(0), uint64(0)
		for b := range ix.BlockFirst {
			w.uvarint(uint64(ix.BlockFirst[b]) - prevF)
			prevF = uint64(ix.BlockFirst[b])
			w.uvarint(uint64(ix.BlockOff[b]) - prevO)
			prevO = uint64(ix.BlockOff[b])
		}
		w.uvarint(uint64(len(ix.Arena)))
		w.bytes(ix.Arena)
	}
}

func decodeIndexes(r *reader, st *gnet.NetworkState) {
	for i := range st.Peers {
		ix := &st.Peers[i].Index
		nTerms := r.uvarint()
		nPostings := r.uvarint()
		if r.err != nil {
			return
		}
		const maxTermsPerPeer = 1 << 30
		if nTerms > maxTermsPerPeer || nPostings > math.MaxInt32 {
			r.fail("peer %d index claims %d terms / %d postings", i, nTerms, nPostings)
			return
		}
		ix.NTerms = int(nTerms)
		ix.NPostings = int(nPostings)
		nBlocks := (ix.NTerms + 15) / 16
		// Each block costs ≥ 2 payload bytes (two offset varints): bound
		// the skip-array allocations by what the payload can actually hold.
		if uint64(nBlocks)*2 > uint64(len(r.b)) {
			r.fail("peer %d claims %d blocks in a %d-byte remainder", i, nBlocks, len(r.b))
			return
		}
		if nBlocks > 0 {
			ix.BlockFirst = make([]dict.TermID, nBlocks)
			ix.BlockOff = make([]uint32, nBlocks)
		}
		prevF, prevO := uint64(0), uint64(0)
		for b := 0; b < nBlocks && r.err == nil; b++ {
			prevF += r.uvarint()
			prevO += r.uvarint()
			if prevF > math.MaxUint32 || prevO > math.MaxUint32 {
				r.fail("peer %d block %d offsets overflow", i, b)
				return
			}
			ix.BlockFirst[b] = dict.TermID(prevF)
			ix.BlockOff[b] = uint32(prevO)
		}
		arenaLen := r.uvarint()
		if r.err == nil && prevO >= arenaLen && nBlocks > 0 {
			r.fail("peer %d last block offset %d beyond %d-byte arena", i, prevO, arenaLen)
			return
		}
		// The arena is a view into the section payload: all of a
		// snapshot's posting arenas share one retained allocation.
		ix.Arena = r.take(arenaLen)
	}
}

// ---------------------------------------------------------------------------
// Low-level encode/decode plumbing.

// writer is an error-latched little-endian/varint encoder. With w.w set to
// io.Discard it doubles as the measuring pass that sizes section prefixes.
type writer struct {
	w   io.Writer
	n   int64
	err error
	buf [10]byte
}

func (w *writer) bytes(p []byte) {
	if w.err != nil {
		return
	}
	if w.w == io.Discard {
		w.n += int64(len(p))
		return
	}
	m, err := w.w.Write(p)
	w.n += int64(m)
	w.err = err
}

func (w *writer) u8(v byte) {
	w.buf[0] = v
	w.bytes(w.buf[:1])
}

func (w *writer) u16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.bytes(w.buf[:2])
}

func (w *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.bytes(w.buf[:8])
}

func (w *writer) uvarint(v uint64) {
	w.bytes(vpost.AppendUvarint(w.buf[:0], v))
}

// reader consumes one section payload, latching the first error.
type reader struct {
	b       []byte
	section int
	err     error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w %d: %s", ErrCorrupt, r.section, fmt.Sprintf(format, args...))
	}
}

// take consumes n payload bytes as a zero-copy view.
func (r *reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("needs %d bytes, %d left", n, len(r.b))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *reader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := vpost.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint (%d)", n)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) u32varint() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("varint %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

// unsafeBytes views a string's bytes without copying (write-side only; the
// writer never mutates what it is handed).
func unsafeBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// unsafeString views payload bytes as a string without copying. The
// payload block is never mutated after decode, so the strings are safe.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
