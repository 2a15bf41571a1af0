package evstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"sync"
	"unsafe"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/wire"
)

// This file is the vectorized scan path: decodeBatch parses a block's
// columnar payload straight into classify.Batch column arrays —
// interning dictionary entries into a scan-global classify.Dict so the
// same value decodes exactly once per scan, not once per block — a
// selector evaluates the query's residual time/collector/peer/prefix
// predicates over the columns into a selection vector of surviving row
// indexes, and batchRunner drives the classifier plus a mix of
// BatchAnalyzer and row-fallback analyzers over (batch, selection)
// pairs. Events are only materialized for row-fallback analyzers; the
// row Scan API itself now rides the same decoder and materializes from
// the batch, which is what removed the per-block dictionary
// allocations.

// decodeScratch owns the scan-lifetime decoding state one worker
// reuses across every block it touches: the global dictionary and its
// intern maps, the remap table from block-local to global ids, and the
// batch column arrays. Values already interned cost a map hit per
// block; steady-state decoding of blocks whose dictionary entries have
// all been seen allocates nothing.
type decodeScratch struct {
	dict *classify.Dict

	collIDs map[string]uint32
	asIDs   map[uint32]uint32
	addrIDs map[netip.Addr]uint32
	pfxIDs  map[netip.Prefix]uint32
	// Paths and community sets are interned by their encoded wire bytes
	// (the block dictionary's own key form), so a repeat entry is
	// recognized without decoding it. Equal ids imply equal values;
	// UNEQUAL ids do not imply unequal values (a non-minimal encoding of
	// the same value would intern separately), so ids may only
	// short-circuit equality — exactly how RunBatch uses them.
	// Map keys are views (unsafe.String) over copies carved from
	// keyArena: the payload buffer the lookup key points into is reused
	// per block, so an inserted key must be copied — but into the arena,
	// not a fresh string allocation per entry.
	pathIDs  map[string]uint32
	commIDs  map[string]uint32
	keyArena []byte

	// Decoded path segments, their ASN lists, and community sets are
	// carved out of chunked arenas instead of being allocated one tiny
	// slice at a time: the dictionary retains every decoded value for
	// the whole scan anyway, so per-value allocations only feed the
	// garbage collector's scan load. Carved sub-slices are full-capacity
	// (three-index) and never grow, and a chunk is abandoned — not
	// freed — when exhausted, so previously carved values stay stable.
	segArena  []bgp.ASPathSegment
	asnArena  []uint32
	commArena []bgp.Community

	remap []uint32
	batch classify.Batch
}

func newDecodeScratch() *decodeScratch {
	return &decodeScratch{
		// Collector, peer-address, and prefix entries are interned by
		// value below, so those tables never hold duplicates — the
		// UniqueKeys bijection the classifier's deferred stream
		// tracking relies on.
		dict:    &classify.Dict{UniqueKeys: true},
		collIDs: make(map[string]uint32),
		asIDs:   make(map[uint32]uint32, 64),
		addrIDs: make(map[netip.Addr]uint32, 64),
		pfxIDs:  make(map[netip.Prefix]uint32, 512),
		// Presized for a day-scale scan: path cardinality dominates and
		// incremental map growth would rehash the table ~13 times on the
		// way to several thousand entries.
		pathIDs: make(map[string]uint32, 1<<13),
		commIDs: make(map[string]uint32, 1<<10),
	}
}

// arenaChunk is the element count of a fresh arena chunk — large enough
// to amortize allocation across thousands of dictionary entries, small
// enough that an abandoned tail is cheap.
const arenaChunk = 1 << 14

func arenaSlice[T any](arena []T, n int) (s, next []T) {
	if cap(arena)-len(arena) < n {
		arena = make([]T, 0, max(arenaChunk, n))
	}
	l := len(arena)
	next = arena[: l+n : cap(arena)]
	return next[l : l+n : l+n], next
}

// internKey copies an encoded dictionary key into the key arena and
// returns a string view over the copy, suitable as a stable intern-map
// key. Encoded keys are never empty (they begin with a count byte).
func (ds *decodeScratch) internKey(key []byte) string {
	var kc []byte
	kc, ds.keyArena = arenaSlice(ds.keyArena, len(key))
	copy(kc, key)
	return unsafe.String(&kc[0], len(kc))
}

// decodePath decodes an AppendPath encoding that skipPath has already
// validated, carving the segment and ASN slices from the scratch arenas.
func (ds *decodeScratch) decodePath(key []byte) bgp.ASPath {
	r := wire.NewReader(key)
	nseg := r.Count(2)
	if nseg == 0 {
		return nil
	}
	var segs []bgp.ASPathSegment
	segs, ds.segArena = arenaSlice(ds.segArena, nseg)
	for i := range segs {
		typ := r.Uvarint()
		nasn := r.Count(1)
		var asns []uint32
		asns, ds.asnArena = arenaSlice(ds.asnArena, nasn)
		for j := range asns {
			asns[j] = r.Uint32()
		}
		segs[i] = bgp.ASPathSegment{Type: uint8(typ), ASNs: asns}
	}
	return bgp.ASPath(segs)
}

// decodeComms decodes an AppendComms encoding that skipComms has already
// validated, carving the set from the scratch arena.
func (ds *decodeScratch) decodeComms(key []byte) bgp.Communities {
	r := wire.NewReader(key)
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	var cs []bgp.Community
	cs, ds.commArena = arenaSlice(ds.commArena, n)
	prev := int64(0)
	for i := range cs {
		prev += r.Varint()
		cs[i] = bgp.Community(prev)
	}
	return bgp.Communities(cs)
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// skipPath advances past an AppendPath encoding with the same
// validation as Reader.Path, without building the path.
func skipPath(r *wire.Reader) {
	nseg := r.Count(2)
	if nseg == 0 || r.Err() != nil {
		return
	}
	for i := 0; i < nseg; i++ {
		r.Uvarint() // segment type
		nasn := r.Count(1)
		if r.Err() != nil {
			return
		}
		for j := 0; j < nasn; j++ {
			r.Uint32()
			if r.Err() != nil {
				return
			}
		}
	}
}

// skipComms advances past an AppendComms encoding with the same
// validation as Reader.Comms.
func skipComms(r *wire.Reader) {
	n := r.Count(1)
	if n == 0 || r.Err() != nil {
		return
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += r.Varint()
		if prev < 0 || prev > math.MaxUint32 {
			r.Fail("wire: community overflow")
			return
		}
	}
}

// readIDColumn reads one column's n per-event dictionary indexes,
// range-checking against the block-local dictionary size and remapping
// into dst's global ids. A nil dst validates without storing (the
// column is not projected). The loop decodes straight off the payload
// with a single-byte fast path — id columns are the bulk of a block's
// varints and dictionaries are rarely larger than 127 entries, so the
// generic sticky-error Reader machinery would dominate the decode.
func readIDColumn(r *wire.Reader, payload []byte, n, dictLen int, remap []uint32, dst []uint32) {
	if r.Err() != nil {
		return
	}
	pos, start := r.Pos(), r.Pos()
	dl := uint64(dictLen)
	for i := 0; i < n; i++ {
		var id uint64
		if pos < len(payload) && payload[pos] < 0x80 {
			id = uint64(payload[pos])
			pos++
		} else {
			v, sz := binary.Uvarint(payload[pos:])
			if sz <= 0 {
				r.Fail("wire: truncated varint")
				return
			}
			id = v
			pos += sz
		}
		if id >= dl {
			r.Fail("evstore: dictionary index %d out of range (dict size %d)", id, dictLen)
			return
		}
		if dst != nil {
			dst[i] = remap[id]
		}
	}
	r.Bytes(pos - start)
}

// decodeBatch parses a columnar payload into the scratch's batch,
// decoding only the projected columns (times, flags, and MED always).
// It accepts and rejects exactly the payloads decodeBlock does —
// unprojected columns are still parsed and validated at the wire
// level, just never interned or stored. The returned batch aliases the
// scratch and the payload; it is valid only until the next decode.
func (ds *decodeScratch) decodeBatch(payload []byte, proj classify.Projection) (*classify.Batch, error) {
	r := wire.NewReader(payload)
	rawN := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rawN > maxBlockEvents || rawN > uint64(r.Remaining()) {
		return nil, fmt.Errorf("evstore: implausible block event count %d", rawN)
	}
	n := int(rawN)
	b := &ds.batch
	b.N, b.Dict, b.Cols = n, ds.dict, proj

	// Times: zigzag deltas, decoded straight off the payload (the same
	// fast path as readIDColumn — one varint per event adds up).
	b.Times = growI64(b.Times, n)
	t := int64(0)
	pos := r.Pos()
	for i := 0; i < n; i++ {
		v, sz := binary.Uvarint(payload[pos:])
		if sz <= 0 {
			r.Fail("wire: truncated varint")
			return nil, r.Err()
		}
		pos += sz
		t += wire.Unzigzag(v)
		b.Times[i] = t
	}
	r.Bytes(pos - r.Pos())

	// Collectors: length-prefixed strings.
	nd := r.Count(1)
	remap := ds.remap[:0]
	if proj&classify.ProjCollector != 0 {
		for i := 0; i < nd; i++ {
			raw := r.Bytes(r.Count(1))
			if r.Err() != nil {
				break
			}
			gid, ok := ds.collIDs[string(raw)]
			if !ok {
				gid = uint32(len(ds.dict.Collectors))
				s := string(raw)
				ds.dict.Collectors = append(ds.dict.Collectors, s)
				ds.collIDs[s] = gid
			}
			remap = append(remap, gid)
		}
		b.Collector = growU32(b.Collector, n)
		readIDColumn(r, payload, n, nd, remap, b.Collector)
	} else {
		for i := 0; i < nd; i++ {
			r.Bytes(r.Count(1))
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Peer ASNs: uvarint values.
	nd = r.Count(1)
	remap = remap[:0]
	if proj&classify.ProjPeerAS != 0 {
		for i := 0; i < nd; i++ {
			as := r.Uint32()
			if r.Err() != nil {
				break
			}
			gid, ok := ds.asIDs[as]
			if !ok {
				gid = uint32(len(ds.dict.PeerASNs))
				ds.dict.PeerASNs = append(ds.dict.PeerASNs, as)
				ds.asIDs[as] = gid
			}
			remap = append(remap, gid)
		}
		b.PeerAS = growU32(b.PeerAS, n)
		readIDColumn(r, payload, n, nd, remap, b.PeerAS)
	} else {
		for i := 0; i < nd; i++ {
			r.Uint32()
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Peer addresses.
	nd = r.Count(1)
	remap = remap[:0]
	if proj&classify.ProjPeerAddr != 0 {
		for i := 0; i < nd; i++ {
			a := r.Addr()
			if r.Err() != nil {
				break
			}
			gid, ok := ds.addrIDs[a]
			if !ok {
				gid = uint32(len(ds.dict.PeerAddrs))
				ds.dict.PeerAddrs = append(ds.dict.PeerAddrs, a)
				ds.addrIDs[a] = gid
			}
			remap = append(remap, gid)
		}
		b.PeerAddr = growU32(b.PeerAddr, n)
		readIDColumn(r, payload, n, nd, remap, b.PeerAddr)
	} else {
		for i := 0; i < nd; i++ {
			r.Addr()
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Prefixes.
	nd = r.Count(1)
	remap = remap[:0]
	if proj&classify.ProjPrefix != 0 {
		for i := 0; i < nd; i++ {
			p := r.Prefix()
			if r.Err() != nil {
				break
			}
			gid, ok := ds.pfxIDs[p]
			if !ok {
				gid = uint32(len(ds.dict.Prefixes))
				ds.dict.Prefixes = append(ds.dict.Prefixes, p)
				ds.pfxIDs[p] = gid
			}
			remap = append(remap, gid)
		}
		b.Prefix = growU32(b.Prefix, n)
		readIDColumn(r, payload, n, nd, remap, b.Prefix)
	} else {
		for i := 0; i < nd; i++ {
			r.Prefix()
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// AS paths, interned by encoded bytes; a repeat entry never
	// re-decodes. The sub-reader decode on a miss cannot fail: skipPath
	// validated the exact same bytes.
	nd = r.Count(1)
	remap = remap[:0]
	if proj&classify.ProjPath != 0 {
		for i := 0; i < nd; i++ {
			start := r.Pos()
			skipPath(r)
			if r.Err() != nil {
				break
			}
			key := payload[start:r.Pos()]
			gid, ok := ds.pathIDs[string(key)]
			if !ok {
				gid = uint32(len(ds.dict.Paths))
				ds.dict.Paths = append(ds.dict.Paths, ds.decodePath(key))
				ds.pathIDs[ds.internKey(key)] = gid
			}
			remap = append(remap, gid)
		}
		b.Path = growU32(b.Path, n)
		readIDColumn(r, payload, n, nd, remap, b.Path)
	} else {
		for i := 0; i < nd; i++ {
			skipPath(r)
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Community sets, interned by encoded bytes. The dict holds the
	// decoded set as stored (possibly non-canonical); consumers that
	// compare sets canonicalize, matching row-path semantics.
	nd = r.Count(1)
	remap = remap[:0]
	if proj&classify.ProjComms != 0 {
		for i := 0; i < nd; i++ {
			start := r.Pos()
			skipComms(r)
			if r.Err() != nil {
				break
			}
			key := payload[start:r.Pos()]
			gid, ok := ds.commIDs[string(key)]
			if !ok {
				gid = uint32(len(ds.dict.CommSets))
				ds.dict.CommSets = append(ds.dict.CommSets, ds.decodeComms(key))
				ds.commIDs[ds.internKey(key)] = gid
			}
			remap = append(remap, gid)
		}
		b.Comms = growU32(b.Comms, n)
		readIDColumn(r, payload, n, nd, remap, b.Comms)
	} else {
		for i := 0; i < nd; i++ {
			skipComms(r)
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Keep the grown remap backing array for the next block — the
	// local slice may have outgrown (and replaced) ds.remap above.
	ds.remap = remap[:0]

	// Flag bitsets (aliasing the payload) and MED values.
	nb := (n + 7) / 8
	b.Withdraw = classify.Bitset(r.Bytes(nb))
	b.HasMED = classify.Bitset(r.Bytes(nb))
	if err := r.Err(); err != nil {
		return nil, err
	}
	b.MED = growU32(b.MED, n)
	for i := 0; i < n; i++ {
		b.MED[i] = 0
		if b.HasMED.Get(i) {
			med := r.Uvarint()
			if med > math.MaxUint32 {
				r.Fail("evstore: MED overflow")
			}
			b.MED[i] = uint32(med)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// residualProjection returns the columns the query's per-event
// residual predicate reads.
func (cq *compiledQuery) residualProjection() classify.Projection {
	var p classify.Projection
	if cq.collectors != nil {
		p |= classify.ProjCollector
	}
	if cq.peerAS != nil {
		p |= classify.ProjPeerAS
	}
	if cq.hasPrefix {
		p |= classify.ProjPrefix
	}
	return p
}

// selector evaluates a compiled query's residual predicate over batch
// columns into a selection vector. Collector/peer/prefix verdicts are
// cached per global dictionary id (0 unknown, 1 pass, 2 fail) — each
// distinct value is tested once per scan, and per event the residual
// is integer compares and table lookups.
type selector struct {
	cq      *compiledQuery
	trivial bool // no residual at all: selection is the identity
	collOK  []uint8
	asOK    []uint8
	pfxOK   []uint8
	ident   []int32
	sel     []int32
}

func newSelector(cq *compiledQuery) *selector {
	return &selector{
		cq: cq,
		trivial: cq.fromNano == math.MinInt64 && cq.toNano == math.MaxInt64 &&
			cq.collectors == nil && cq.peerAS == nil && !cq.hasPrefix,
	}
}

func growVerdicts(v []uint8, n int) []uint8 {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

// selection returns the ascending indexes of b's events matching the
// query — the exact rows cq.match would pass. The returned slice is
// scratch, valid until the next call.
func (s *selector) selection(b *classify.Batch) []int32 {
	n := b.N
	if s.trivial {
		for len(s.ident) < n {
			s.ident = append(s.ident, int32(len(s.ident)))
		}
		return s.ident[:n]
	}
	cq := s.cq
	sel := s.sel[:0]
	for i := 0; i < n; i++ {
		if t := b.Times[i]; t < cq.fromNano || t >= cq.toNano {
			continue
		}
		if cq.collectors != nil {
			id := b.Collector[i]
			s.collOK = growVerdicts(s.collOK, int(id)+1)
			v := s.collOK[id]
			if v == 0 {
				v = 2
				if cq.collectors[b.Dict.Collectors[id]] {
					v = 1
				}
				s.collOK[id] = v
			}
			if v != 1 {
				continue
			}
		}
		if cq.peerAS != nil {
			id := b.PeerAS[i]
			s.asOK = growVerdicts(s.asOK, int(id)+1)
			v := s.asOK[id]
			if v == 0 {
				v = 2
				if cq.peerAS[b.Dict.PeerASNs[id]] {
					v = 1
				}
				s.asOK[id] = v
			}
			if v != 1 {
				continue
			}
		}
		if cq.hasPrefix {
			id := b.Prefix[i]
			s.pfxOK = growVerdicts(s.pfxOK, int(id)+1)
			v := s.pfxOK[id]
			if v == 0 {
				v = 2
				p := b.Dict.Prefixes[id]
				if p.IsValid() && p.Bits() >= cq.q.PrefixRange.Bits() &&
					cq.q.PrefixRange.Contains(p.Addr()) {
					v = 1
				}
				s.pfxOK[id] = v
			}
			if v != 1 {
				continue
			}
		}
		sel = append(sel, int32(i))
	}
	s.sel = sel
	return sel
}

// batchRunner drives one classifier and an analyzer set over (batch,
// selection) pairs: every selected event feeds classifier state, a
// tally window gates which reach the analyzers (the warm-up
// convention), BatchAnalyzers get the columns, and the rest get
// materialized events — both in one pass.
type batchRunner struct {
	cl     *classify.Classifier
	batchA []classify.BatchAnalyzer
	rowA   []classify.Analyzer
	// proj is what the analyzer mix needs decoded: the classifier's
	// columns, each batch analyzer's projection, and everything if any
	// row-fallback analyzer must be handed materialized events.
	proj classify.Projection

	tallyFrom, tallyTo int64
	tallyAll           bool

	results  []classify.Result
	tallySel []int32
}

func newBatchRunner(cl *classify.Classifier, analyzers []classify.Analyzer, tally TimeRange) *batchRunner {
	run := &batchRunner{cl: cl, proj: classify.ClassifierProjection}
	for _, a := range analyzers {
		if ba, ok := a.(classify.BatchAnalyzer); ok {
			run.batchA = append(run.batchA, ba)
			run.proj |= ba.Project()
		} else {
			run.rowA = append(run.rowA, a)
		}
	}
	if len(run.rowA) > 0 {
		run.proj |= classify.ProjAll
	}
	run.tallyFrom, run.tallyTo = math.MinInt64, math.MaxInt64
	if !tally.From.IsZero() {
		run.tallyFrom = tally.From.UnixNano()
	}
	if !tally.To.IsZero() {
		run.tallyTo = tally.To.UnixNano()
	}
	run.tallyAll = run.tallyFrom == math.MinInt64 && run.tallyTo == math.MaxInt64
	return run
}

// observe classifies one batch's selected events and fans the tallied
// ones out to the analyzers.
func (run *batchRunner) observe(b *classify.Batch, sel []int32) {
	if len(run.results) < b.N {
		run.results = make([]classify.Result, b.N)
	}
	results := run.results
	run.cl.RunBatch(b, sel, results)
	tsel := sel
	if !run.tallyAll {
		tsel = run.tallySel[:0]
		for _, si := range sel {
			if t := b.Times[si]; t >= run.tallyFrom && t < run.tallyTo {
				tsel = append(tsel, si)
			}
		}
		run.tallySel = tsel
	}
	for _, a := range run.batchA {
		a.ObserveBatch(results, b, tsel)
	}
	if len(run.rowA) > 0 {
		for _, si := range tsel {
			e := b.Event(int(si))
			for _, a := range run.rowA {
				a.Observe(results[si], e)
			}
		}
	}
}

// scratchPool recycles decode scratch across scans. A scan that draws
// a warm scratch decodes in steady state from its first block: the
// global dictionary already holds the store's values, so dictionary
// entries cost an intern-map hit instead of a decode plus insert, and
// the column arrays and arenas are already sized. Interning is by
// value, so a shared dictionary growing monotonically across scans
// (and even across stores) never changes an issued gid's meaning.
// Callers must finish resolving analyzer id-state before release —
// see classify.BatchFlusher.
var scratchPool = sync.Pool{New: func() any { return newDecodeScratch() }}

// finish ends the batch stream: analyzers that deferred id-keyed
// state resolve it and drop their dictionary references, making the
// scan's decode scratch safe to recycle.
func (run *batchRunner) finish() {
	for _, a := range run.batchA {
		if f, ok := a.(classify.BatchFlusher); ok {
			f.FlushBatch()
		}
	}
}

// release returns the decode scratch to the pool. Only call once every
// consumer of this scan's batches has resolved its id-keyed state: a
// later scan may grow the shared dictionary concurrently. A scratch
// whose dictionary has grown pathologically large is dropped instead
// of pinned in the pool.
func (br *blockReader) release() {
	if br.scratch == nil {
		return
	}
	if len(br.scratch.dict.Paths) < 1<<19 {
		scratchPool.Put(br.scratch)
	}
	br.scratch = nil
}

// selection applies cq's residual over a decoded batch via the
// reader's cached selector (rebuilt when the query changes).
func (br *blockReader) selection(cq *compiledQuery, b *classify.Batch) []int32 {
	if br.slr == nil || br.slr.cq != cq {
		br.slr = newSelector(cq)
	}
	return br.slr.selection(b)
}

// scanPartitionBatch streams one partition's matching (batch,
// selection) pairs; more reports whether the consumer wants to
// continue. Cancellation is honoured at block boundaries: a cancelled
// ctx never interrupts the decode of a block already in flight. This
// IS the scan kernel; row consumers materialize from it via rows.
func scanPartitionBatch(ctx context.Context, path string, cq *compiledQuery, br *blockReader, st *ScanStats, proj classify.Projection, fn func(b *classify.Batch, sel []int32) bool) (more bool, err error) {
	p, f, err := readPartition(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	if cq.collectors != nil && !cq.collectors[p.collector] {
		if st != nil {
			st.PartitionsPruned++
		}
		return true, nil
	}
	if !cq.matchSummary(p.agg, false) {
		if st != nil {
			st.PartitionsPruned++
		}
		return true, nil
	}
	if st != nil {
		st.Blocks += len(p.blocks)
	}
	proj |= cq.residualProjection()

	// The block summaries are already in memory: select the matching
	// blocks up front, so the decode-ahead worker knows exactly what
	// to fetch.
	blocks := br.pf.blocks[:0]
	for _, bm := range p.blocks {
		if !cq.matchSummary(bm.sum, true) {
			if st != nil {
				st.BlocksPruned++
			}
			continue
		}
		blocks = append(blocks, bm)
	}
	br.pf.blocks = blocks
	if len(blocks) == 0 {
		return true, nil
	}
	if br.scratch == nil {
		br.scratch = scratchPool.Get().(*decodeScratch)
	}

	handle := func(payload []byte, bm blockMeta, prefetched bool) (bool, error) {
		b, err := br.scratch.decodeBatch(payload, proj)
		if err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if st != nil {
			st.countBlock(bm, prefetched)
		}
		sel := br.selection(cq, b)
		if len(sel) == 0 {
			return true, nil
		}
		if st != nil {
			st.Events += len(sel)
		}
		return fn(b, sel), nil
	}

	if len(blocks) > 1 {
		// Decode-ahead: read+decompress the next blocks on a worker
		// while this one is decoded and classified.
		return br.pf.run(ctx, f, blocks, handle)
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	payload, err := br.readBlockPayload(f, blocks[0])
	if err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return handle(payload, blocks[0], false)
}

// scanEntriesBatch is the one partition-list driver: name-level prune
// plus per-partition batch scan, for batch consumers and (via rows)
// row consumers alike.
func scanEntriesBatch(ctx context.Context, entries []storeEntry, cq *compiledQuery, br *blockReader, st *ScanStats, proj classify.Projection, fn func(b *classify.Batch, sel []int32) bool) (more bool, err error) {
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if st != nil {
			st.Partitions++
		}
		if cq.pruneByName(e) {
			if st != nil {
				st.PartitionsPruned++
			}
			continue
		}
		more, err := scanPartitionBatch(ctx, e.path, cq, br, st, proj, fn)
		if err != nil {
			return false, err
		}
		if !more {
			return false, nil
		}
	}
	return true, nil
}

// ScanAnalyze classifies and analyzes the store's events matching q in
// one sequential pass over the batch kernels — the vectorized
// equivalent of classify.RunAll over Scan(dir, q), bit-identical in
// results. Events matching q feed classifier state; only those inside
// tally (zero = everything) reach the analyzers, the same warm-up
// convention as ScanParallel. Analyzers implementing BatchAnalyzer
// consume columns directly; the rest receive materialized events.
//
// The scan stops at the tally window's upper bound: classification is
// causal (an event's result depends only on events at or before it),
// so events at or after tally.To cannot influence any tallied result.
// ScanStats therefore reflect the clamped scan, not all of q.
func ScanAnalyze(ctx context.Context, dir string, q Query, tally TimeRange, analyzers ...classify.Analyzer) (ScanStats, error) {
	if !tally.To.IsZero() && (q.Window.To.IsZero() || tally.To.Before(q.Window.To)) {
		q.Window.To = tally.To
	}
	var st ScanStats
	entries, err := listPartitions(dir)
	if err != nil {
		return st, err
	}
	if len(entries) == 0 {
		return st, noPartitionsError(dir)
	}
	cq := compileQuery(q)
	var br blockReader
	run := newBatchRunner(classify.New(), analyzers, tally)
	_, err = scanEntriesBatch(ctx, entries, cq, &br, &st, run.proj, func(b *classify.Batch, sel []int32) bool {
		run.observe(b, sel)
		return true
	})
	// The caller owns the analyzers beyond this scan: flush their
	// id-keyed state before recycling the scratch they'd resolve it
	// against.
	run.finish()
	br.release()
	return st, err
}
