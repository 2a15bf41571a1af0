package evstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/wire"
)

// ScanStats counts what a scan read versus what pushdown skipped.
// Every field is a deterministic function of the store and query —
// never of timing — so per-shard stats summed over a parallel run
// equal the sequential scan's exactly.
type ScanStats struct {
	Partitions        int // partition files considered
	PartitionsPruned  int // skipped by name or footer summary, no block decoded
	Blocks            int // blocks in scanned partitions
	BlocksPruned      int // skipped by block summary
	BlocksDecoded     int
	BytesRead         int64 // stored (compressed) payload bytes read from disk
	BytesDecompressed int64 // uncompressed payload bytes decompressed and decoded
	// BlocksPrefetched counts blocks whose read+decompress ran on the
	// decode-ahead worker, overlapped with the previous block's decode
	// and classification; BlocksDecoded - BlocksPrefetched took the
	// synchronous path (single-matching-block partitions).
	BlocksPrefetched int
	// PerCodec splits the decoded-block I/O by block codec.
	PerCodec [NumCodecs]CodecScanStats
	Events   int // events yielded after the residual filter
}

// CodecScanStats is one codec's share of a scan's decoded blocks.
type CodecScanStats struct {
	Blocks            int
	BytesRead         int64
	BytesDecompressed int64
}

// Add accumulates another scan's stats — per-shard stats summed over a
// parallel run equal the sequential scan's.
func (s *ScanStats) Add(o ScanStats) {
	s.Partitions += o.Partitions
	s.PartitionsPruned += o.PartitionsPruned
	s.Blocks += o.Blocks
	s.BlocksPruned += o.BlocksPruned
	s.BlocksDecoded += o.BlocksDecoded
	s.BytesRead += o.BytesRead
	s.BytesDecompressed += o.BytesDecompressed
	s.BlocksPrefetched += o.BlocksPrefetched
	for c := range s.PerCodec {
		s.PerCodec[c].Blocks += o.PerCodec[c].Blocks
		s.PerCodec[c].BytesRead += o.PerCodec[c].BytesRead
		s.PerCodec[c].BytesDecompressed += o.PerCodec[c].BytesDecompressed
	}
	s.Events += o.Events
}

// countBlock records one decoded block.
func (s *ScanStats) countBlock(bm blockMeta, prefetched bool) {
	s.BlocksDecoded++
	s.BytesRead += int64(bm.clen)
	s.BytesDecompressed += int64(bm.ulen)
	if prefetched {
		s.BlocksPrefetched++
	}
	if bm.codec.valid() {
		pc := &s.PerCodec[bm.codec]
		pc.Blocks++
		pc.BytesRead += int64(bm.clen)
		pc.BytesDecompressed += int64(bm.ulen)
	}
}

// compiledQuery precomputes the pushdown predicates of a Query.
type compiledQuery struct {
	q                Query
	fromNano, toNano int64 // inclusive lower, exclusive upper
	collectors       map[string]bool
	sanitized        map[string]bool // sanitized collector names, for filename pruning
	peerAS           map[uint32]bool
	hasPrefix        bool
	loAddr, hiAddr   netip.Addr // address span of PrefixRange
	filterKey        string     // bloom probe, "" when unusable
}

func compileQuery(q Query) *compiledQuery {
	cq := &compiledQuery{q: q, fromNano: math.MinInt64, toNano: math.MaxInt64}
	if !q.Window.From.IsZero() {
		cq.fromNano = q.Window.From.UnixNano()
	}
	if !q.Window.To.IsZero() {
		cq.toNano = q.Window.To.UnixNano()
	}
	if len(q.Collectors) > 0 {
		cq.collectors = make(map[string]bool, len(q.Collectors))
		cq.sanitized = make(map[string]bool, len(q.Collectors))
		for _, c := range q.Collectors {
			cq.collectors[c] = true
			cq.sanitized[sanitizeCollector(c)] = true
		}
	}
	if len(q.PeerAS) > 0 {
		cq.peerAS = make(map[uint32]bool, len(q.PeerAS))
		for _, as := range q.PeerAS {
			cq.peerAS[as] = true
		}
	}
	if p := q.PrefixRange; p.IsValid() {
		cq.hasPrefix = true
		masked := p.Masked()
		cq.loAddr = masked.Addr()
		cq.hiAddr = lastAddr(masked)
		if fl := p.Bits() - p.Bits()%8; fl > 0 {
			cq.filterKey = prefixKey(p.Addr(), fl)
		}
	}
	return cq
}

// match is the per-event residual filter — Query.Match semantics over
// the precomputed nano bounds and collector/peer-AS sets, O(1) per
// event where the exported method scans the raw slices.
func (cq *compiledQuery) match(e classify.Event) bool {
	if n := e.Time.UnixNano(); n < cq.fromNano || n >= cq.toNano {
		return false
	}
	if cq.collectors != nil && !cq.collectors[e.Collector] {
		return false
	}
	if cq.peerAS != nil && !cq.peerAS[e.PeerAS] {
		return false
	}
	if cq.hasPrefix {
		if !e.Prefix.IsValid() ||
			e.Prefix.Bits() < cq.q.PrefixRange.Bits() ||
			!cq.q.PrefixRange.Contains(e.Prefix.Addr()) {
			return false
		}
	}
	return true
}

// lastAddr returns the highest address covered by a masked prefix.
func lastAddr(p netip.Prefix) netip.Addr {
	if p.Addr().Is4() {
		b := p.Addr().As4()
		for i := p.Bits(); i < 32; i++ {
			b[i/8] |= 1 << (7 - i%8)
		}
		return netip.AddrFrom4(b)
	}
	b := p.Addr().As16()
	for i := p.Bits(); i < 128; i++ {
		b[i/8] |= 1 << (7 - i%8)
	}
	return netip.AddrFrom16(b)
}

// matchSummary reports whether a block (or partition aggregate) summary
// may contain matching events. useFilter selects the bloom probe, which
// is only meaningful at block granularity.
func (cq *compiledQuery) matchSummary(s blockSummary, useFilter bool) bool {
	if s.count == 0 {
		return false
	}
	if s.tmax < cq.fromNano || s.tmin >= cq.toNano {
		return false
	}
	if cq.peerAS != nil {
		ok := false
		for _, as := range s.peerAS {
			if cq.peerAS[as] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if cq.hasPrefix {
		if !s.minAddr.IsValid() {
			return false // no valid prefixes in the block
		}
		if s.maxAddr.Compare(cq.loAddr) < 0 || s.minAddr.Compare(cq.hiAddr) > 0 {
			return false
		}
		if useFilter && cq.filterKey != "" && len(s.filter) > 0 &&
			!filterMaybeContains(s.filter, cq.filterKey) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Partition reading
// ---------------------------------------------------------------------------

// partition is one decoded partition index: header fields plus the
// footer's block directory. No block payload has been read.
type partition struct {
	path      string
	size      int64
	version   int // partition format version (1 = legacy deflate-only)
	collector string
	day       time.Time
	blocks    []blockMeta
	agg       blockSummary
}

// readPartition opens a partition file and parses its header and
// footer index.
func readPartition(path string) (*partition, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	p, err := parsePartition(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return p, f, nil
}

func parsePartition(f *os.File, path string) (*partition, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(partitionMagicV1))+8 {
		return nil, fmt.Errorf("evstore: %s: too short for a partition", path)
	}

	var head [4 + 1 + 255 + binary.MaxVarintLen64]byte
	hn, err := f.ReadAt(head[:min(int64(len(head)), size)], 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	hr := wire.NewReader(head[:hn])
	var version int
	var footerMagic string
	switch string(hr.Bytes(4)) {
	case partitionMagicV1:
		version, footerMagic = 1, footerMagicV1
	case partitionMagicV2:
		version, footerMagic = 2, footerMagicV2
	default:
		return nil, fmt.Errorf("evstore: %s: bad partition magic", path)
	}
	nameLen := hr.Bytes(1)
	var collector string
	if hr.Err() == nil {
		collector = string(hr.Bytes(int(nameLen[0])))
	}
	dayUnix := hr.Varint()
	if err := hr.Err(); err != nil {
		return nil, fmt.Errorf("evstore: %s: %w", path, err)
	}

	var trailer [8]byte
	if _, err := f.ReadAt(trailer[:], size-8); err != nil {
		return nil, err
	}
	if string(trailer[4:]) != footerMagic {
		return nil, fmt.Errorf("evstore: %s: bad footer magic", path)
	}
	flen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if flen < int64(len(footerMagic)) || flen > size-8 {
		return nil, fmt.Errorf("evstore: %s: bad footer length %d", path, flen)
	}
	footer := make([]byte, flen)
	if _, err := f.ReadAt(footer, size-8-flen); err != nil {
		return nil, err
	}
	fr := wire.NewReader(footer)
	if string(fr.Bytes(4)) != footerMagic {
		return nil, fmt.Errorf("evstore: %s: bad footer header", path)
	}
	nblocks := fr.Count(1)
	p := &partition{
		path:      path,
		size:      size,
		version:   version,
		collector: collector,
		day:       time.Unix(dayUnix, 0).UTC(),
		blocks:    make([]blockMeta, 0, nblocks),
	}
	for i := 0; i < nblocks; i++ {
		var b blockMeta
		b.offset = int64(fr.Uvarint())
		b.ulen = int(fr.Uvarint())
		b.clen = int(fr.Uvarint())
		if version >= 2 {
			cb := fr.Bytes(1)
			if fr.Err() == nil {
				b.codec = Codec(cb[0])
			}
		} else {
			b.codec = CodecDeflate
		}
		b.sum = readSummary(fr)
		if fr.Err() != nil {
			break
		}
		if b.offset < 0 || b.clen < 0 || b.offset+int64(b.clen) > size ||
			b.ulen < 0 || b.ulen > maxBlockEvents*64 {
			return nil, fmt.Errorf("evstore: %s: block %d out of bounds", path, i)
		}
		if !b.codec.valid() {
			return nil, fmt.Errorf("evstore: %s: block %d has unknown codec %d", path, i, b.codec)
		}
		p.blocks = append(p.blocks, b)
		p.agg.merge(b.sum)
	}
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("evstore: %s: %w", path, err)
	}
	return p, nil
}

// blockReader reads, decompresses, and decodes blocks, reusing its
// buffers, the per-codec decompressor state, the batch decode scratch
// (global dictionary + column arrays), and the residual selector
// across calls — one per scan worker, so steady-state block decoding
// allocates nothing. Partitions with more than one matching block
// stream through its decode-ahead prefetcher instead of the
// synchronous path (see prefetch.go).
type blockReader struct {
	cbuf, ubuf []byte
	dec        blockDecompressor
	scratch    *decodeScratch
	slr        *selector
	pf         prefetcher
}

// readBlockPayload reads and decompresses one block's payload into the
// reused buffer; the slice is valid until the next call. This is the
// synchronous path; the prefetcher runs the same read+decompress on
// its worker.
func (br *blockReader) readBlockPayload(f *os.File, b blockMeta) ([]byte, error) {
	if cap(br.ubuf) < b.ulen {
		br.ubuf = make([]byte, b.ulen)
	}
	ubuf := br.ubuf[:b.ulen]
	if b.codec == CodecRaw {
		// Raw blocks skip the staging buffer: read straight into place.
		if b.clen != b.ulen {
			return nil, fmt.Errorf("evstore: raw block length %d, footer says %d", b.clen, b.ulen)
		}
		if _, err := f.ReadAt(ubuf, b.offset); err != nil {
			return nil, err
		}
		return ubuf, nil
	}
	if cap(br.cbuf) < b.clen {
		br.cbuf = make([]byte, b.clen)
	}
	cbuf := br.cbuf[:b.clen]
	if _, err := f.ReadAt(cbuf, b.offset); err != nil {
		return nil, err
	}
	if err := br.dec.decompress(b.codec, ubuf, cbuf); err != nil {
		return nil, err
	}
	return ubuf, nil
}

// ---------------------------------------------------------------------------
// Store listing and scanning
// ---------------------------------------------------------------------------

// storeEntry is one partition file with its filename-derived sort and
// prune keys (zero values when the name is foreign).
type storeEntry struct {
	path      string
	collector string // sanitized, from the filename
	dayUnix   int64
	seq       int
	parsed    bool
}

// listPartitions enumerates a store's partition files sorted by
// (collector, day, seq) — the order that keeps each collector's
// timeline contiguous and per-session event order intact.
func listPartitions(dir string) ([]storeEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+Extension))
	if err != nil {
		return nil, err
	}
	entries := make([]storeEntry, 0, len(paths))
	for _, p := range paths {
		e := storeEntry{path: p}
		if collector, day, seq, ok := parsePartitionName(filepath.Base(p)); ok {
			e.collector, e.dayUnix, e.seq, e.parsed = collector, day.Unix(), seq, true
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.collector != b.collector {
			return a.collector < b.collector
		}
		if a.dayUnix != b.dayUnix {
			return a.dayUnix < b.dayUnix
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.path < b.path
	})
	return entries, nil
}

// ErrNoPartitions is the sentinel wrapped by the shared empty-store
// error of Scan, Stat, and ScanShards; match with errors.Is. The
// serving tier maps it to "store not ready yet" (HTTP 503 / empty
// shard) rather than a hard failure.
var ErrNoPartitions = errors.New("evstore: no partitions")

// noPartitionsError is the shared empty-store error of Scan, Stat, and
// ScanShards.
func noPartitionsError(dir string) error {
	return fmt.Errorf("%w in %s", ErrNoPartitions, dir)
}

// pruneByName applies the filename-level pushdown: collector and
// day-window checks that skip a partition without opening it.
func (cq *compiledQuery) pruneByName(e storeEntry) bool {
	if !e.parsed {
		return false
	}
	if cq.sanitized != nil && !cq.sanitized[e.collector] {
		return true
	}
	dayStartNano := e.dayUnix * int64(time.Second)
	dayEndNano := dayStartNano + int64(24*time.Hour)
	if dayEndNano <= cq.fromNano || dayStartNano >= cq.toNano {
		return true
	}
	return false
}

// Scan returns a source over the store's events matching q, in
// (collector, day, seq, ingest) order. Pushdown skips partitions and
// blocks whose summaries cannot match; a final Query.Match filter makes
// the result exact. Errors are reported via *errp (first error wins,
// may be nil to ignore) and end the stream, like pipeline sources. The
// source is replayable: each range re-reads the store.
func Scan(dir string, q Query, errp *error) stream.EventSource {
	return ScanWithStats(dir, q, errp, nil)
}

// ScanWithStats is Scan with pushdown accounting: if st is non-nil it
// is reset and filled while the returned source is consumed.
func ScanWithStats(dir string, q Query, errp *error, st *ScanStats) stream.EventSource {
	return ScanContext(context.Background(), dir, q, errp, st)
}

// ScanContext is ScanWithStats with cancellation: when ctx is
// cancelled the scan stops at the next block boundary and reports
// ctx's error via *errp — how the serving daemon aborts scans whose
// client has gone away.
func ScanContext(ctx context.Context, dir string, q Query, errp *error, st *ScanStats) stream.EventSource {
	return func(yield func(classify.Event) bool) {
		if st != nil {
			*st = ScanStats{}
		}
		fail := func(err error) {
			if errp != nil && *errp == nil {
				*errp = err
			}
		}
		entries, err := listPartitions(dir)
		if err != nil {
			fail(err)
			return
		}
		if len(entries) == 0 {
			fail(noPartitionsError(dir))
			return
		}
		cq := compileQuery(q)
		var br blockReader
		defer br.release()
		if _, err := scanEntriesBatch(ctx, entries, cq, &br, st, classify.ProjAll, rows(yield)); err != nil {
			fail(err)
		}
	}
}

// rows adapts a row consumer to the batch scan drivers: each selected
// event is materialized from the batch kernel in order. The events'
// slice fields alias the reader's scan-lifetime dictionary and stay
// valid after the scan.
func rows(yield func(classify.Event) bool) func(b *classify.Batch, sel []int32) bool {
	return func(b *classify.Batch, sel []int32) bool {
		for _, si := range sel {
			if !yield(b.Event(int(si))) {
				return false
			}
		}
		return true
	}
}

// ---------------------------------------------------------------------------
// Store inspection
// ---------------------------------------------------------------------------

// BlockInfo describes one block for inspection tools.
type BlockInfo struct {
	Offset           int64
	Compressed       int
	Uncompressed     int
	Codec            Codec
	Events           int
	TimeMin, TimeMax time.Time
	PeerAS           []uint32
	FilterBytes      int
}

// PartitionInfo describes one partition file.
type PartitionInfo struct {
	Path      string
	Collector string
	Day       time.Time
	Seq       int
	SizeBytes int64
	// Codec names the partition's block codec — "mixed" when blocks
	// differ (raw-fallback blocks inside an lz partition, say).
	Codec string
	// StoredBytes and RawBytes sum the blocks' compressed and
	// uncompressed payload sizes; their ratio is the partition's
	// effective compression.
	StoredBytes int64
	RawBytes    int64
	Events      int
	TimeMin     time.Time
	TimeMax     time.Time
	PeerAS      []uint32 // distinct, ascending
	Blocks      []BlockInfo
}

// StatPartition reads one partition's index without decoding blocks.
func StatPartition(path string) (PartitionInfo, error) {
	p, f, err := readPartition(path)
	if err != nil {
		return PartitionInfo{}, err
	}
	f.Close()
	_, _, seq, _ := parsePartitionName(filepath.Base(path))
	info := PartitionInfo{
		Path:      path,
		Collector: p.collector,
		Day:       p.day,
		Seq:       seq,
		SizeBytes: p.size,
		Events:    p.agg.count,
		PeerAS:    p.agg.peerAS,
	}
	if p.agg.count > 0 {
		info.TimeMin = time.Unix(0, p.agg.tmin).UTC()
		info.TimeMax = time.Unix(0, p.agg.tmax).UTC()
	}
	for i, b := range p.blocks {
		info.Blocks = append(info.Blocks, BlockInfo{
			Offset:       b.offset,
			Compressed:   b.clen,
			Uncompressed: b.ulen,
			Codec:        b.codec,
			Events:       b.sum.count,
			TimeMin:      time.Unix(0, b.sum.tmin).UTC(),
			TimeMax:      time.Unix(0, b.sum.tmax).UTC(),
			PeerAS:       b.sum.peerAS,
			FilterBytes:  len(b.sum.filter),
		})
		info.StoredBytes += int64(b.clen)
		info.RawBytes += int64(b.ulen)
		switch {
		case i == 0:
			info.Codec = b.codec.String()
		case info.Codec != b.codec.String():
			info.Codec = "mixed"
		}
	}
	return info, nil
}

// Stat reads every partition index in the store, sorted like Scan.
func Stat(dir string) ([]PartitionInfo, error) {
	entries, err := listPartitions(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, noPartitionsError(dir)
	}
	infos := make([]PartitionInfo, 0, len(entries))
	for _, e := range entries {
		info, err := StatPartition(e.path)
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// IsStoreDir reports whether dir contains at least one partition file.
func IsStoreDir(dir string) bool {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+Extension))
	return err == nil && len(paths) > 0
}

// PartitionSource streams one partition file's events matching q, for
// inspectors that take explicit file arguments (cmd/mrtdump).
func PartitionSource(path string, q Query, errp *error) stream.EventSource {
	return func(yield func(classify.Event) bool) {
		cq := compileQuery(q)
		var br blockReader
		defer br.release()
		if _, err := scanPartitionBatch(context.Background(), path, cq, &br, nil, classify.ProjAll, rows(yield)); err != nil {
			if errp != nil && *errp == nil {
				*errp = err
			}
		}
	}
}
