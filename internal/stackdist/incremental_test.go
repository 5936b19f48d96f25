package stackdist

import (
	"fmt"
	"testing"

	"atum/internal/trace"
)

// incBlocks builds a block stream with heavy reuse plus a cold tail, so
// both re-references (live-mark moves) and first-ever references (mark
// inserts) cross compaction boundaries.
func incBlocks(n int) []uint64 {
	blocks := make([]uint64, 0, n)
	seed := uint64(0x853C49E6748FEA9B)
	for len(blocks) < n {
		seed = seed*6364136223846793005 + 1442695040888963407
		r := seed >> 33
		switch r % 8 {
		case 0, 1, 2, 3:
			blocks = append(blocks, r%64) // hot set
		case 4, 5:
			blocks = append(blocks, 1000+r%4096) // warm set
		default:
			blocks = append(blocks, 1<<20|r%(1<<18)) // mostly cold
		}
	}
	return blocks
}

// TestIncrementalMatchesAnalyze: the engine must produce a profile
// identical to the trace-length reference (referenceAnalyze) over the
// same block stream. Tiny capacities force a compaction every few
// references, so the equivalence covers the renumbering path, not just
// the append path.
func TestIncrementalMatchesAnalyze(t *testing.T) {
	blocks := incBlocks(30_000)
	want := referenceAnalyze(blocks)
	for _, capacity := range testCaps {
		sameProfile(t, fmt.Sprintf("capacity=%d", capacity), analyzeAt(blocks, capacity), want)
	}
}

// TestIncrementalChunkingInvariance: how the stream is sliced into
// chunks must not matter — only the concatenated order does.
func TestIncrementalChunkingInvariance(t *testing.T) {
	blocks := incBlocks(10_000)
	want := referenceAnalyze(blocks)
	for _, capacity := range testCaps {
		for _, chunk := range []int{1, 7, 1024} {
			inc := newIncremental(capacity)
			for off := 0; off < len(blocks); off += chunk {
				for _, b := range blocks[off:min(off+chunk, len(blocks))] {
					inc.Add(b)
				}
			}
			sameProfile(t, fmt.Sprintf("capacity=%d chunk=%d", capacity, chunk), inc.Profile(), want)
		}
	}
}

// TestStreamMatchesFromSource: the record-fed Stream at every test
// capacity, and FromSource, must equal the reference over the same
// records, for the option combinations the experiments use.
func TestStreamMatchesFromSource(t *testing.T) {
	recs := make([]trace.Record, 0, 20_000)
	seed := uint32(0xB5297A4D)
	pid := uint8(1)
	for len(recs) < cap(recs) {
		seed = seed*1664525 + 1013904223
		r := seed
		if r%128 == 0 {
			pid = uint8(1 + r%3)
			recs = append(recs, trace.Record{Kind: trace.KindCtxSwitch, PID: pid, Extra: uint16(pid)})
			continue
		}
		rec := trace.Record{PID: pid, Width: 4, User: r%4 != 0}
		switch r % 8 {
		case 0:
			rec.Kind = trace.KindPTERead
			rec.Addr = 0x8000_8000 | (r % 512 * 4)
			rec.User = false
		case 1, 2:
			rec.Kind = trace.KindIFetch
			rec.Addr = 0x0001_0000 | uint32(pid)<<12 | (r % 2048 * 4)
		case 3:
			rec.Kind = trace.KindDWrite
			rec.Addr = uint32(pid)<<16 | (r % 4096 * 4)
			rec.Phys = r%32 == 3
		default:
			rec.Kind = trace.KindDRead
			rec.Addr = uint32(pid)<<16 | (r % 4096 * 4)
		}
		recs = append(recs, rec)
	}
	for _, opts := range []Options{
		{BlockBytes: 16, PIDTag: true, IncludePTE: true},
		{BlockBytes: 64, PIDTag: false, IncludePTE: false},
		{BlockBytes: 16, PIDTag: true, UserOnly: true},
	} {
		want := referenceAnalyze(blocksOf(recs, opts))
		sameProfile(t, fmt.Sprintf("FromSource opts=%+v", opts), FromSource(trace.NewArena(recs), opts), want)
		for _, capacity := range testCaps {
			s := &Stream{inc: newIncremental(capacity), bm: newBlockMapper(opts)}
			for off := 0; off < len(recs); off += 777 {
				if err := s.Feed(recs[off:min(off+777, len(recs))]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			sameProfile(t, fmt.Sprintf("Stream capacity=%d opts=%+v", capacity, opts), got, want)
		}
	}
}

// TestStreamFeedAllocs: once every block of a chunk is live, feeding it
// again allocates nothing — the block table is probed in place and
// compaction reuses its arrays while the live count holds. A small
// capacity puts at least two compactions inside every measured Feed
// (1500 live blocks, headroom 64: one per 1564 of the 4096 references).
func TestStreamFeedAllocs(t *testing.T) {
	chunk := make([]trace.Record, 4096)
	for i := range chunk {
		chunk[i] = trace.Record{Kind: trace.KindDRead, PID: 1, Width: 4, User: true, Addr: uint32(i*7919%1500) * 16}
	}
	opts := Options{BlockBytes: 16, PIDTag: true}
	s := &Stream{inc: newIncremental(64), bm: newBlockMapper(opts)}
	// Warm past the first compaction, which sizes the arrays to the live
	// count, until every block is live and every depth bucket present.
	for i := 0; i < 3; i++ {
		s.Feed(chunk)
	}
	if n := testing.AllocsPerRun(20, func() { s.Feed(chunk) }); n != 0 {
		t.Errorf("warm Feed allocated %.1f times per chunk, want 0", n)
	}
}
