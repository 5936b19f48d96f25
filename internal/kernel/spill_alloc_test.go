package kernel

import (
	"io"
	"testing"

	"atum/internal/micro"
	"atum/internal/obs"
	"atum/internal/trace"
	"atum/internal/vax"
)

// spinSrc stores in a tight loop on a bare machine (mapping off, no
// kernel): every instruction is traced, and nothing on the machine side
// allocates, so any allocation while it runs belongs to the spill path.
const spinSrc = `
	.org	0x1000
start:	moval	buf, r2
loop:	movl	r3, (r2)
	addl2	#1, r3
	brb	loop
buf:	.long	0
`

// TestSpillSegmentAllocs: once warm, a spill with raw payload encoding —
// extract the segment into the service's reused slice, encode it into
// the writer's reused buffer, write it — allocates nothing per segment,
// in either record codec.
func TestSpillSegmentAllocs(t *testing.T) {
	for _, codec := range []uint16{trace.CodecRaw, trace.CodecDelta} {
		m, err := micro.New(micro.Config{MemSize: 256 << 10, ReservedSize: 16 << 10, Costs: micro.DefaultCosts()})
		if err != nil {
			t.Fatal(err)
		}
		prog := asm(t, spinSrc)
		if err := m.Mem.LoadBytes(prog.Origin, prog.Bytes); err != nil {
			t.Fatal(err)
		}
		m.CPU.R[vax.PC] = prog.Origin
		svc, err := startSpillOn(m, io.Discard, SpillConfig{
			SegmentBytes: 4 << 10,
			Codec:        codec,
			Encoding:     trace.SegEncRaw,
			Metrics:      obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		oneSegment := func() {
			for n := svc.Segments(); svc.Segments() == n; {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			oneSegment()
		}
		if allocs := testing.AllocsPerRun(20, oneSegment); allocs != 0 {
			t.Errorf("codec %d: %.1f allocs per spilled segment, want 0", codec, allocs)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := svc.SpilledRecords(), svc.Collector().Recorded; got != want {
			t.Errorf("codec %d: spilled %d of %d recorded", codec, got, want)
		}
	}
}
