package atum

import (
	"bytes"
	"testing"

	"atum/internal/micro"
	"atum/internal/trace"
	"atum/internal/vax"
)

// toRecord is the field-by-field reference conversion the trace store
// once ran per record; the packing oracle checks the inline packing
// against it.
func toRecord(a micro.Access) trace.Record {
	var k trace.Kind
	switch a.Ev {
	case micro.EvIFetch:
		k = trace.KindIFetch
	case micro.EvDRead:
		k = trace.KindDRead
	case micro.EvDWrite:
		k = trace.KindDWrite
	case micro.EvPTERead:
		k = trace.KindPTERead
	case micro.EvPTEWrite:
		k = trace.KindPTEWrite
	case micro.EvCtxSwitch:
		k = trace.KindCtxSwitch
	case micro.EvException:
		k = trace.KindException
	}
	return trace.Record{
		Kind:  k,
		Addr:  a.VA,
		Width: a.Width,
		PID:   a.PID,
		User:  a.Mode == vax.ModeUser,
		Phys:  a.Phys,
		Extra: a.Extra,
	}
}

// TestRecordPackingOracle: the bytes the trace store writes into the
// reserved region equal trace.Record.Encode of the reference conversion,
// over every event, width, mode, address space and extreme field value.
func TestRecordPackingOracle(t *testing.T) {
	m, err := micro.New(micro.Config{MemSize: 256 << 10, ReservedSize: 64 << 10, Costs: micro.DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Install(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Uninstall()
	var want [trace.RecordBytes]byte
	n := 0
	for ev := micro.Event(0); ev < micro.NumEvents; ev++ {
		for _, width := range []uint8{0, 1, 2, 4} {
			for mode := uint8(vax.ModeKernel); mode <= vax.ModeUser; mode++ {
				for _, phys := range []bool{false, true} {
					for _, pid := range []uint8{0, 1, 0xFF} {
						for _, extra := range []uint16{0, 0x8001, 0xFFFF} {
							for _, va := range []uint32{0, 0x80000000, 0xFFFFFFFC, 0xFFFFFFFF} {
								a := micro.Access{Ev: ev, VA: va, Width: width, Mode: mode, PID: pid, Phys: phys, Extra: extra}
								at := c.ptr
								c.record(a)
								toRecord(a).Encode(want[:])
								if got := c.buf[at : at+trace.RecordBytes]; !bytes.Equal(got, want[:]) {
									t.Fatalf("%+v: stored % x, Encode gives % x", a, got, want)
								}
								if c.BufferedRecords() == c.Capacity() {
									c.ExtractSegment(nil)
								}
								n++
							}
						}
					}
				}
			}
		}
	}
	if c.Recorded != uint64(n) {
		t.Errorf("recorded %d of %d accesses", c.Recorded, n)
	}
}
