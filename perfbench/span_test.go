package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: opSpan, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // only 90-100 lies inside the op
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},  // grandchild: charged to b, not the op
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// The op's children cover half of it; a second op is fully covered.
	spans = append(spans,
		span{ID: 6, Name: opSpan, Start: 200, End: 300},
		span{ID: 7, Parent: 6, Name: "a", Start: 200, End: 300})
	if got := coveredShare(spans); got != 0.5 {
		t.Errorf("covered share = %v, want 0.5", got)
	}
}

func TestSelfTableSharesOfOpTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: opSpan, Start: 0, End: 4e6},
		{ID: 2, Parent: 1, Name: "kernel.run", Start: 0, End: 3e6},
		{ID: 3, Name: opSpan, Start: 5e6, End: 9e6},
		{ID: 4, Parent: 3, Name: "kernel.run", Start: 5e6, End: 9e6},
	}
	rows := selfTable(spans)
	if len(rows) != 2 || rows[0].Name != "kernel.run" || rows[1].Name != opSpan {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Count != 2 || rows[0].SelfMS != 7 || math.Abs(rows[0].Share-7.0/8) > 1e-12 || rows[0].P50MS != 3.5 {
		t.Errorf("kernel.run row = %+v", rows[0])
	}
	if rows[1].SelfMS != 1 || math.Abs(rows[1].Share-1.0/8) > 1e-12 {
		t.Errorf("op row = %+v", rows[1])
	}
}

func TestRecNestsSpansAndSharesOpID(t *testing.T) {
	tr := newTracer()
	r := tr.newRec("op")
	endOp := r.begin(opSpan)
	r.do("outer", func() error {
		r.do("inner", func() error { return nil })
		return nil
	})
	endOp(0)
	r.count("micro.instructions", 7)
	r.flush()

	byName := map[string]span{}
	for _, s := range tr.snapshot() {
		byName[s.Name] = s
		if s.Op != r.op || s.Kind != "op" {
			t.Errorf("span %s: op %d kind %q, want op %d kind op", s.Name, s.Op, s.Kind, r.op)
		}
	}
	if byName[opSpan].Parent != 0 || byName["outer"].Parent != byName[opSpan].ID || byName["inner"].Parent != byName["outer"].ID {
		t.Errorf("parents wrong: %+v", byName)
	}
	if tr.countsCopy()["micro.instructions"] != 7 {
		t.Errorf("counts = %v", tr.countsCopy())
	}

	// Set-up recorders contribute spans but not counts.
	s := tr.newRec("setup")
	s.count("micro.instructions", 9)
	s.flush()
	if tr.countsCopy()["micro.instructions"] != 7 {
		t.Errorf("set-up count leaked: %v", tr.countsCopy())
	}

	var untraced *tracer
	if untraced.newRec("op") != nil {
		t.Error("nil tracer returned a recorder")
	}
}
