package atum_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"atum/internal/atum"
	"atum/internal/obs"
	"atum/internal/trace"
)

// TestCaptureMetricsMirrorStatistics: the collector's obs counters must
// agree exactly with its exported statistics fields — total records,
// drops, fills — and the per-kind counters must sum to the total.
func TestCaptureMetricsMirrorStatistics(t *testing.T) {
	reg := obs.NewRegistry()
	sys := buildSystem(t, helloSrc)
	opts := atum.DefaultOptions()
	opts.BufBytes = 4096
	opts.Metrics = reg
	opts.OnFull = func(c *atum.Collector) {
		if _, err := c.Extract(); err != nil {
			t.Fatal(err)
		}
	}
	col, err := atum.Install(sys.M, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	col.Uninstall()

	if got := reg.Counter("atum_capture_records_total").Value(); got != col.Recorded {
		t.Errorf("records metric %d, collector %d", got, col.Recorded)
	}
	if got := reg.Counter("atum_capture_dropped_total").Value(); got != col.Dropped {
		t.Errorf("dropped metric %d, collector %d", got, col.Dropped)
	}
	if got := reg.Counter("atum_capture_fills_total").Value(); got != col.Samples {
		t.Errorf("fills metric %d, collector %d", got, col.Samples)
	}
	var perKind uint64
	for _, line := range strings.Split(reg.String(), "\n") {
		if strings.HasPrefix(line, "atum_capture_records_kind_total") {
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("unparseable line %q: %v", line, err)
			}
			perKind += v
		}
	}
	if perKind != col.Recorded {
		t.Errorf("per-kind counters sum to %d, collector recorded %d", perKind, col.Recorded)
	}
}

// TestMetricsOffMeasurementPath is the dilation contract from
// EXPERIMENTS: telemetry is Go-side bookkeeping and must never charge
// simulated cycles. Two identical runs — one instrumented into a fresh
// registry, one into another — must execute the same instruction
// stream, charge exactly CostPerRecord per record, and agree cycle for
// cycle with the collector's own dilation accounting.
func TestMetricsOffMeasurementPath(t *testing.T) {
	run := func(reg *obs.Registry) (cycles, instrs, recorded, dilation uint64) {
		sys := buildSystem(t, helloSrc)
		opts := atum.DefaultOptions()
		opts.Metrics = reg
		cap, err := atum.Run(sys.M, opts, func() error {
			_, err := sys.Run(50_000_000)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.M.Cycles, sys.M.Instrs, cap.Collector.Recorded, cap.Collector.DilationCycles
	}
	c1, i1, r1, d1 := run(obs.NewRegistry())
	c2, i2, r2, d2 := run(obs.NewRegistry())
	if c1 != c2 || i1 != i2 || r1 != r2 || d1 != d2 {
		t.Fatalf("telemetry perturbed the machine: run1 (c=%d i=%d r=%d d=%d) vs run2 (c=%d i=%d r=%d d=%d)",
			c1, i1, r1, d1, c2, i2, r2, d2)
	}
	if d1 != r1*56 {
		t.Errorf("dilation %d cycles != %d records x 56: something besides trace stores charged the clock", d1, r1)
	}
}

// TestCaptureMetricsAtBoundaries: the hot path counts records in a
// plain per-kind array that is published to the registry at the
// watermark, at buffer fill and at Uninstall. At each of those points
// atum_capture_records_total and the per-kind sum must equal Recorded —
// checked before the callback drains anything, so the publish under
// test is the interrupt's own, not the extraction's.
func TestCaptureMetricsAtBoundaries(t *testing.T) {
	reg := obs.NewRegistry()
	check := func(where string, c *atum.Collector) {
		t.Helper()
		if got := reg.Counter("atum_capture_records_total").Value(); got != c.Recorded {
			t.Errorf("%s: records metric %d, collector recorded %d", where, got, c.Recorded)
		}
		var perKind uint64
		for k := trace.Kind(0); k < trace.NumKinds; k++ {
			perKind += reg.Counter(fmt.Sprintf("atum_capture_records_kind_total{kind=%q}", k)).Value()
		}
		if perKind != c.Recorded {
			t.Errorf("%s: per-kind metrics sum to %d, collector recorded %d", where, perKind, c.Recorded)
		}
	}
	sys := buildSystem(t, helloSrc)
	opts := atum.DefaultOptions()
	opts.BufBytes = 4096
	opts.Metrics = reg
	opts.Watermark = 0.5
	var fires, fills int
	opts.OnWatermark = func(c *atum.Collector) {
		fires++
		check(fmt.Sprintf("watermark %d", fires), c)
		// Drain only every other crossing, so the buffer also fills.
		if fires%2 == 0 {
			c.ExtractSegment(nil)
		}
	}
	opts.OnFull = func(c *atum.Collector) {
		fills++
		check(fmt.Sprintf("fill %d", fills), c)
		c.ExtractSegment(nil)
	}
	col, err := atum.Install(sys.M, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	col.Uninstall()
	if fires < 2 || fills < 1 {
		t.Fatalf("%d watermark crossings and %d fills: the capture is too short to test", fires, fills)
	}
	check("after Uninstall", col)
}
