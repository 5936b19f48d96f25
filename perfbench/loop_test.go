package main

import (
	"testing"
	"time"
)

// sleeper is a bench whose ops each take a fixed time.
type sleeper time.Duration

func (s sleeper) op(*rec, int, int) (work, error) {
	time.Sleep(time.Duration(s))
	return work{instrs: 1, refs: 1}, nil
}

func (sleeper) close() error { return nil }

func TestRunLoopExtendsToMinOps(t *testing.T) {
	// 10 ms ops over 100 ms make about 10; the phase must go on to 15,
	// well inside its 150 ms hard stop.
	res := runLoop(sleeper(10*time.Millisecond), 1, 100*time.Millisecond, nil, 15)
	if len(res.wallMS) < 15 || res.failed != 0 {
		t.Errorf("%d ops (%d failed), want at least 15", len(res.wallMS), res.failed)
	}
	// An unreachable minimum stops at the hard stop, half the phase
	// again after the deadline.
	res = runLoop(sleeper(10*time.Millisecond), 2, 100*time.Millisecond, nil, 1_000_000)
	if res.elapsed > time.Second {
		t.Errorf("phase ran %v, want it cut near 150ms", res.elapsed)
	}
}

func TestFillAndPinOpsCoverRotations(t *testing.T) {
	for name, n := range map[string]int{"serve-mixed": len(serveRotation), "analyze-file": len(analyses)} {
		if fillOps < n || pinOps < n {
			t.Errorf("%s rotation has %d requests; fillOps %d and pinOps %d must cover it", name, n, fillOps, pinOps)
		}
	}
}
