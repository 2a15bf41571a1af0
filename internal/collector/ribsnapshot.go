package collector

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/stream"
)

// streamKey identifies one (peer, prefix) stream inside a collector.
type streamKey struct {
	peerAddr netip.Addr
	prefix   netip.Prefix
}

// ribState is the last-known route of one stream at snapshot time.
type ribState struct {
	peerAS uint32
	attrs  bgp.PathAttrs
}

// snapshotStates replays each session's pre-day events into
// per-collector stream states. Streams never span sessions, so the
// sessions replay one after another, each stopped at day.
func snapshotStates(day time.Time, sources []stream.EventSource) map[string]map[streamKey]*ribState {
	state := make(map[string]map[streamKey]*ribState)
	for _, src := range sources {
		for e := range src {
			if !e.Time.Before(day) {
				break // session sources are time-sorted
			}
			streams := state[e.Collector]
			if streams == nil {
				streams = make(map[streamKey]*ribState)
				state[e.Collector] = streams
			}
			key := streamKey{peerAddr: e.PeerAddr, prefix: e.Prefix}
			if e.Withdraw {
				delete(streams, key)
				continue
			}
			streams[key] = &ribState{
				peerAS: e.PeerAS,
				attrs: bgp.PathAttrs{
					Origin:      bgp.OriginIGP,
					ASPath:      e.ASPath,
					Communities: e.Communities,
					HasMED:      e.HasMED,
					MED:         e.MED,
				},
			}
		}
	}
	return state
}

// WriteRIBSnapshotDir writes one TABLE_DUMP_V2 snapshot per collector
// capturing each stream's state at the start of day, from per-session
// time-sorted sources (as returned by workload.DaySources) that are
// each read only up to day — the bview files RIS publishes alongside
// its update archives. Files are named <collector>.bview.mrt.
func WriteRIBSnapshotDir(day time.Time, sources []stream.EventSource, dir string) (map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	state := snapshotStates(day, sources)
	files := make(map[string]string, len(state))
	collectors := make([]string, 0, len(state))
	for name := range state {
		collectors = append(collectors, name)
	}
	sort.Strings(collectors)
	for _, name := range collectors {
		path := filepath.Join(dir, name+".bview.mrt")
		if err := writeSnapshot(path, day, state[name]); err != nil {
			return nil, fmt.Errorf("collector %s: %w", name, err)
		}
		files[name] = path
	}
	return files, nil
}

// writeSnapshot emits a PEER_INDEX_TABLE followed by one RIB record per
// prefix for one collector.
func writeSnapshot(path string, day time.Time, streams map[streamKey]*ribState) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := mrt.NewWriter(f)

	// Stable peer index: sorted by address.
	peerAddrs := make([]netip.Addr, 0, 16)
	seen := make(map[netip.Addr]bool)
	for key := range streams {
		if !seen[key.peerAddr] {
			seen[key.peerAddr] = true
			peerAddrs = append(peerAddrs, key.peerAddr)
		}
	}
	sort.Slice(peerAddrs, func(i, j int) bool { return peerAddrs[i].Compare(peerAddrs[j]) < 0 })
	index := make(map[netip.Addr]uint16, len(peerAddrs))
	table := &mrt.PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("198.51.100.1"),
		ViewName:       "bview",
	}
	for i, addr := range peerAddrs {
		index[addr] = uint16(i)
		var as uint32
		for key, st := range streams {
			if key.peerAddr == addr {
				as = st.peerAS
				break
			}
		}
		bgpID := netip.AddrFrom4([4]byte{10, 255, byte(i >> 8), byte(i)})
		table.Peers = append(table.Peers, mrt.Peer{BGPID: bgpID, Addr: addr, AS: as})
	}
	if err := w.Write(day, table); err != nil {
		return err
	}

	// Group streams by prefix, sorted for determinism.
	byPrefix := make(map[netip.Prefix][]streamKey)
	for key := range streams {
		byPrefix[key.prefix] = append(byPrefix[key.prefix], key)
	}
	prefixes := make([]netip.Prefix, 0, len(byPrefix))
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if c := prefixes[i].Addr().Compare(prefixes[j].Addr()); c != 0 {
			return c < 0
		}
		return prefixes[i].Bits() < prefixes[j].Bits()
	})
	for seq, p := range prefixes {
		keys := byPrefix[p]
		sort.Slice(keys, func(i, j int) bool { return keys[i].peerAddr.Compare(keys[j].peerAddr) < 0 })
		rec := &mrt.RIBUnicast{Sequence: uint32(seq), Prefix: p}
		for _, key := range keys {
			rec.Entries = append(rec.Entries, mrt.RIBEntry{
				PeerIndex:  index[key.peerAddr],
				Originated: day,
				Attrs:      streams[key].attrs,
			})
		}
		if err := w.Write(day, rec); err != nil {
			return err
		}
	}
	return w.Flush()
}
