package stackdist

import "atum/internal/trace"

// defaultIncCap is the initial tree capacity and the headroom each
// compaction leaves above the live marks.
const defaultIncCap = 1 << 16

// Incremental is the stack-distance engine. Each distinct block has one
// live mark, at its latest reference time; a reference's stack distance
// is the count of live marks between its block's previous mark and now,
// which any order-preserving renumbering of the marks keeps. So when
// time outruns the tree, compact renumbers the live marks 1..m: memory
// is O(distinct blocks) however long the stream, and the profile equals
// a trace-length tree's (the tests' reference). Per reference it does
// one table probe, one range walk for the depth and one mark move; both
// walks stop where their two Fenwick paths meet, so re-referencing a
// recent block costs a few steps rather than 2·log n.
type Incremental struct {
	p    Profile
	tbl  timeTable
	fw   []int32 // Fenwick tree of live marks over times 1..len-1
	at   []int32 // time -> table slot of the block marked then
	t    int32   // last used time index
	room int     // headroom a compaction leaves above the live marks
}

// NewIncremental returns an empty incremental analysis.
func NewIncremental() *Incremental { return newIncremental(defaultIncCap) }

// newIncremental starts with the given capacity (at least 1), which is
// also the headroom: a tiny one compacts every few references.
func newIncremental(capacity int) *Incremental {
	inc := &Incremental{fw: make([]int32, capacity+1), at: make([]int32, capacity+1), room: capacity}
	inc.tbl.init(1024)
	return inc
}

// Add observes one block reference.
func (inc *Incremental) Add(block uint64) {
	if int(inc.t)+1 >= len(inc.fw) {
		inc.compact()
	}
	inc.t++
	t1 := inc.t
	inc.p.Total++
	s := inc.tbl.slot(block, inc.at)
	if t0 := inc.tbl.e[s].time; t0 != 0 {
		inc.p.observe(inc.between(t0, t1) + 1)
		inc.move(t0, t1)
	} else {
		inc.p.Cold++
		for i := t1; int(i) < len(inc.fw); i += i & -i {
			inc.fw[i]++
		}
	}
	inc.tbl.e[s].time = t1
	inc.at[t1] = s
}

// between counts the live marks strictly between times lo < hi, the
// prefix sum to hi-1 less the one to lo. hi's path descends to the first
// node at or below lo, which lies on lo's path; lo's descends to it and
// the rest of the two sums cancels.
func (inc *Incremental) between(lo, hi int32) int {
	var n int32
	for hi--; hi > lo; hi &= hi - 1 {
		n += inc.fw[hi]
	}
	for ; lo > hi; lo &= lo - 1 {
		n -= inc.fw[lo]
	}
	return int(n)
}

// move shifts a mark from time from to the later time to. from's update
// path climbs to the first node at or above to, which lies on to's path;
// to's climbs to it, and above it the -1 and +1 would cancel.
func (inc *Incremental) move(from, to int32) {
	for ; from < to; from += from & -from {
		inc.fw[from]--
	}
	for end := min(from, int32(len(inc.fw))); to < end; to += to & -to {
		inc.fw[to]++
	}
}

// compact renumbers the live marks 1..m in time order: a scan of the
// time->slot array keeps the times whose slot still names them, and the
// tree of m leading ones is rebuilt in linear time. The capacity keeps
// room for as many new marks as live ones, so compactions stay rare.
func (inc *Incremental) compact() {
	capacity := 2*inc.tbl.n + inc.room
	src, dst := inc.at, inc.at
	if capacity+1 > len(inc.fw) {
		inc.fw = make([]int32, capacity+1)
		dst = make([]int32, capacity+1)
	}
	var m int32
	for t := int32(1); t <= inc.t; t++ {
		if s := src[t]; inc.tbl.e[s].time == t {
			m++
			inc.tbl.e[s].time = m
			dst[m] = s
		}
	}
	inc.at, inc.t = dst, m
	for i := range inc.fw {
		lo := int32(i) & (int32(i) - 1) // node i covers times (lo, i]
		inc.fw[i] = max(min(int32(i), m)-lo, 0)
	}
}

// Profile returns the accumulated profile. The returned value is the
// analysis's own state: read it after the final Add.
func (inc *Incremental) Profile() *Profile { return &inc.p }

// timeTable maps each block ever referenced to its live mark's time in
// one flat array probed linearly from a Fibonacci hash, after
// cache.u64Set: lookup and update are one probe, with no map hashing.
// Time 0 marks an empty slot, so every block value is a valid key.
type timeTable struct {
	e     []entry
	shift uint // 64 - log2(len(e))
	n     int  // blocks stored
}

type entry struct {
	block uint64
	time  int32
}

func (tb *timeTable) init(size int) {
	tb.e, tb.shift, tb.n = make([]entry, size), 64, 0
	for ; size > 1; size >>= 1 {
		tb.shift--
	}
}

// slot returns block's slot, claiming an empty one (time 0) for a block
// not seen before. Growing moves slots, so it repoints at, the time ->
// slot array, for every live mark.
func (tb *timeTable) slot(block uint64, at []int32) int32 {
	mask := len(tb.e) - 1
	for i := int(block * 0x9E3779B97F4A7C15 >> tb.shift); ; i = (i + 1) & mask {
		if tb.e[i].time == 0 {
			if (tb.n+1)*4 > len(tb.e)*3 {
				tb.grow(at)
				return tb.slot(block, at)
			}
			tb.e[i].block = block
			tb.n++
			return int32(i)
		}
		if tb.e[i].block == block {
			return int32(i)
		}
	}
}

func (tb *timeTable) grow(at []int32) {
	old := tb.e
	tb.init(2 * len(old))
	for _, x := range old {
		if x.time != 0 {
			i := tb.slot(x.block, at)
			tb.e[i].time, at[x.time] = x.time, i
		}
	}
}

// Stream is an incrementally-fed stack-distance analysis over trace
// records, consumed by the capture→decode→sweep pipeline
// (internal/sweep) and, chunk by chunk, by FromSource.
type Stream struct {
	inc *Incremental
	bm  blockMapper
}

// NewStream returns a record-fed analysis with the given options.
func NewStream(opts Options) *Stream {
	return &Stream{inc: NewIncremental(), bm: newBlockMapper(opts)}
}

// Feed converts one chunk of records to block references and observes
// them. The chunk is only read; it may be reused after Feed returns.
func (s *Stream) Feed(chunk []trace.Record) error {
	for _, r := range chunk {
		if b, ok := s.bm.block(r); ok {
			s.inc.Add(b)
		}
	}
	return nil
}

// Result reports the profile accumulated so far.
func (s *Stream) Result() (*Profile, error) { return s.inc.Profile(), nil }
