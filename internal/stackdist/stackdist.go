// Package stackdist implements Mattson stack-distance analysis: a single
// pass over a reference stream that yields the miss rate of *every*
// fully-associative LRU cache size simultaneously. Trace processing was
// the whole purpose of collecting ATUM traces, and one-pass multi-
// configuration analysis was the era's standard technique for exactly
// the kind of size sweeps the paper's figures show.
//
// It uses the time-stamp reformulation (Bennett & Kruskal): the stack
// distance of a reference is the number of distinct blocks referenced
// since this block's previous reference, which a Fenwick tree of each
// block's latest reference time counts in O(log n). One compacting
// engine, Incremental, serves the record-fed Stream and the batch entry
// points alike, in memory O(distinct blocks) however long the trace.
package stackdist

import "atum/internal/trace"

// Profile is the stack-distance histogram of a reference stream.
type Profile struct {
	// Depths[d] counts references with stack distance d+1 (d=0 is a
	// re-reference to the most recently used block).
	Depths []uint64
	// Cold counts first-ever references (infinite distance).
	Cold uint64
	// Total is the number of references analysed.
	Total uint64
}

func (p *Profile) observe(depth int) {
	for len(p.Depths) < depth {
		p.Depths = append(p.Depths, 0)
	}
	p.Depths[depth-1]++
}

// Misses returns the miss count of a fully-associative LRU cache holding
// capacity blocks: cold misses plus every reference whose stack distance
// exceeds the capacity.
func (p *Profile) Misses(capacity int) uint64 {
	m := p.Cold
	for d := capacity; d < len(p.Depths); d++ {
		m += p.Depths[d]
	}
	return m
}

// MissRate returns Misses(capacity)/Total.
func (p *Profile) MissRate(capacity int) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Misses(capacity)) / float64(p.Total)
}

// MissCurve evaluates the full miss-rate curve at the given capacities
// (in blocks).
func (p *Profile) MissCurve(capacities []int) []float64 {
	out := make([]float64, len(capacities))
	for i, c := range capacities {
		out[i] = p.MissRate(c)
	}
	return out
}

// MaxDepth returns the largest observed stack distance.
func (p *Profile) MaxDepth() int { return len(p.Depths) }

// Options control trace-to-block-stream conversion.
type Options struct {
	BlockBytes uint32 // line size (power of two)
	PIDTag     bool   // separate per-process address spaces
	IncludePTE bool   // include translation-microcode references
	UserOnly   bool   // drop kernel references
}

// blockMapper is the record-to-block conversion Stream applies to each
// record.
type blockMapper struct {
	opts  Options
	shift uint
}

func newBlockMapper(opts Options) blockMapper {
	if opts.BlockBytes == 0 {
		opts.BlockBytes = 16
	}
	m := blockMapper{opts: opts}
	for opts.BlockBytes>>m.shift != 1 {
		m.shift++
	}
	return m
}

// block converts one record, reporting whether it contributes a
// reference at all.
func (m blockMapper) block(r trace.Record) (uint64, bool) {
	switch r.Kind {
	case trace.KindIFetch, trace.KindDRead, trace.KindDWrite:
	case trace.KindPTERead, trace.KindPTEWrite:
		if !m.opts.IncludePTE {
			return 0, false
		}
	default:
		return 0, false
	}
	if m.opts.UserOnly && !r.User {
		return 0, false
	}
	b := uint64(r.Addr) >> m.shift
	if m.opts.PIDTag && !r.Phys && r.Addr>>30 != 2 {
		b |= uint64(r.PID) << 40
	}
	return b, true
}

// FromTrace is FromSource over an in-memory record slice.
func FromTrace(recs []trace.Record, opts Options) *Profile {
	return FromSource(trace.Records(recs), opts)
}

// FromSource feeds every chunk of src to one Stream and returns its
// profile: the batch analysis is the streaming engine run to the end.
func FromSource(src trace.Source, opts Options) *Profile {
	s := NewStream(opts)
	_ = src.EachChunk(s.Feed) // Feed never fails; a source error ends the stream
	return s.inc.Profile()
}
