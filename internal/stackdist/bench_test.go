package stackdist

import (
	"math/rand"
	"testing"
)

// benchStream is uniform-random over a hot set and a large cold range:
// little locality, so the engine's walks run close to full height.
func benchStream(n int) []uint64 {
	r := rand.New(rand.NewSource(3))
	out := make([]uint64, n)
	for i := range out {
		if r.Intn(4) > 0 {
			out[i] = uint64(r.Intn(256)) // hot
		} else {
			out[i] = uint64(r.Intn(1 << 16))
		}
	}
	return out
}

// loopStream sweeps a working set of loops: each loop body of short
// runs over nearby blocks is repeated a few times before moving on, the
// shape of a real trace's instruction and stack references, so most
// re-references are recent and the walks stop early.
func loopStream(n int) []uint64 {
	r := rand.New(rand.NewSource(5))
	out := make([]uint64, 0, n)
	for len(out) < n {
		base := uint64(r.Intn(1 << 14))
		body := 8 + r.Intn(120)
		for rep := 0; rep < 1+r.Intn(16) && len(out) < n; rep++ {
			for i := 0; i < body && len(out) < n; i++ {
				out = append(out, base+uint64(i/4))
			}
		}
	}
	return out
}

// benchSink keeps the benchmarked results live.
var benchSink *Profile

// BenchmarkAnalyze measures the engine's one-pass profile build on a
// low-locality stream and on a looping working set.
func BenchmarkAnalyze(b *testing.B) {
	for _, lane := range []struct {
		name   string
		stream []uint64
	}{
		{"random", benchStream(200_000)},
		{"loop", loopStream(200_000)},
	} {
		b.Run(lane.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = analyze(lane.stream)
			}
			b.ReportMetric(float64(len(lane.stream))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
		})
	}
}

// BenchmarkMissCurve measures curve evaluation from a built profile.
func BenchmarkMissCurve(b *testing.B) {
	p := analyze(benchStream(200_000))
	caps := []int{16, 64, 256, 1024, 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MissCurve(caps)
	}
}
