package stackdist

import (
	"reflect"
	"testing"

	"atum/internal/trace"
)

// referenceAnalyze is the independent oracle for the engine: the
// textbook time-stamp formulation with a Go map from block to its last
// reference time and a uint64 Fenwick tree as long as the stream, so it
// never compacts, renumbers or probes a hand-rolled table. Depth is two
// full prefix sums and each mark move two full update walks.
func referenceAnalyze(blocks []uint64) *Profile {
	p := &Profile{}
	last := make(map[uint64]int)
	tree := make([]uint64, len(blocks)+1)
	add := func(i int, d uint64) {
		for ; i < len(tree); i += i & -i {
			tree[i] += d
		}
	}
	sum := func(i int) uint64 {
		var s uint64
		for ; i > 0; i -= i & -i {
			s += tree[i]
		}
		return s
	}
	for t, b := range blocks {
		p.Total++
		t1 := t + 1
		if t0, seen := last[b]; seen {
			p.observe(int(sum(t1-1)-sum(t0)) + 1)
			add(t0, ^uint64(0)) // remove the old mark (add -1)
		} else {
			p.Cold++
		}
		last[b] = t1
		add(t1, 1)
	}
	return p
}

// analyze runs the engine at its default capacity over a block stream.
func analyze(blocks []uint64) *Profile { return analyzeAt(blocks, defaultIncCap) }

// analyzeAt runs the engine with the given initial tree capacity, which
// is also the headroom each compaction leaves: a tiny one compacts
// every few references.
func analyzeAt(blocks []uint64, capacity int) *Profile {
	inc := newIncremental(capacity)
	for _, b := range blocks {
		inc.Add(b)
	}
	return inc.Profile()
}

// blocksOf converts records to the block stream Stream would observe.
func blocksOf(recs []trace.Record, opts Options) []uint64 {
	m := newBlockMapper(opts)
	var out []uint64
	for _, r := range recs {
		if b, ok := m.block(r); ok {
			out = append(out, b)
		}
	}
	return out
}

// testCaps are the engine capacities the oracle tests run at: tiny ones
// compact every few references, the default rarely.
var testCaps = []int{2, 64, 1 << 12, defaultIncCap}

func sameProfile(t *testing.T, what string, got, want *Profile) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: profile differs from the reference (total=%d/%d cold=%d/%d maxdepth=%d/%d)",
			what, got.Total, want.Total, got.Cold, want.Cold, got.MaxDepth(), want.MaxDepth())
	}
}

// FuzzStackdist turns arbitrary bytes into a block stream with a hot
// set (including the zero block and the top of the uint64 range), a
// warm set and a tail of first-ever references, and requires the engine
// at tiny capacities — compacting every few references, its table
// growing mid-stream — to equal the reference.
func FuzzStackdist(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0})
	f.Add([]byte{0x80, 0xc0, 0xc1, 0x81, 0x0f, 0x08, 0x07, 0x0f})
	f.Add(make([]byte, 64))
	seed := make([]byte, 4096)
	for i := range seed {
		seed[i] = byte(i*131 + i>>3)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks := make([]uint64, len(data))
		for i, c := range data {
			switch {
			case c&0x80 == 0:
				blocks[i] = uint64(c&15) - 8 // hot: -8..7 wraps round zero
			case c&0x40 == 0:
				blocks[i] = 1<<20 + uint64(c&0x3f) // warm
			default:
				blocks[i] = 1<<40 + uint64(i) // cold tail, never re-referenced
			}
		}
		want := referenceAnalyze(blocks)
		for _, capacity := range []int{2, 3, 17} {
			if got := analyzeAt(blocks, capacity); !reflect.DeepEqual(got, want) {
				t.Fatalf("capacity=%d: engine %+v, reference %+v", capacity, got, want)
			}
		}
	})
}
