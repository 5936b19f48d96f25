package micro

import (
	"strings"
	"testing"

	"atum/internal/mmu"
	"atum/internal/vax"
)

// TestContextSwitchRoundTrip exercises LDPCTX/SVPCTX/REI without the
// kernel package: two hand-built PCBs, a syscall handler that switches
// between them, mapping off (identity addressing).
func TestContextSwitchRoundTrip(t *testing.T) {
	src := `
	.org	0x1000
	; kernel-ish: start process A, on CHMK save it and start B.
boot:	mtpr	#pcba, #16
	ldpctx
	rei
h_chmk:	movl	(sp)+, r0	; discard code
	svpctx
	mtpr	#pcbb, #16
	ldpctx
	rei

proca:	movl	#0xaaaa, r6
	chmk	#1
	halt			; A never resumes in this test
procb:	movl	#0xbbbb, r7
	halt

	.align	4
pcba:	.space	23*4
pcbb:	.space	23*4
`
	prog, err := vax.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.LoadBytes(prog.Origin, prog.Bytes); err != nil {
		t.Fatal(err)
	}
	setupSCB(t, m, map[uint16]uint32{vax.VecCHMK: prog.MustSymbol("h_chmk")})

	// Build the PCBs: both run in kernel mode (mapping is off) with
	// their own stacks and entry points.
	fill := func(pcb, entry, ksp uint32, pid uint32) {
		base := pcb
		m.Mem.Store32(base+4*PCBKSP, ksp)
		m.Mem.Store32(base+4*PCBUSP, ksp-0x400)
		m.Mem.Store32(base+4*PCBPC, entry)
		m.Mem.Store32(base+4*PCBPSL, 0) // kernel, IPL 0
		m.Mem.Store32(base+4*PCBPID, pid)
	}
	fill(prog.MustSymbol("pcba"), prog.MustSymbol("proca"), 0xE000, 7)
	fill(prog.MustSymbol("pcbb"), prog.MustSymbol("procb"), 0xD000, 8)

	var switches []uint16
	m.AddHook(EvCtxSwitch, func(_ *Machine, a Access) { switches = append(switches, a.Extra) })

	m.CPU.R[vax.PC] = prog.MustSymbol("boot")
	m.CPU.R[vax.SP] = 0xF000
	run(t, m)

	if m.CPU.R[7] != 0xBBBB {
		t.Errorf("process B never ran: r7=%#x", m.CPU.R[7])
	}
	if len(switches) != 2 || switches[0] != 7 || switches[1] != 8 {
		t.Errorf("switch markers = %v, want [7 8]", switches)
	}
	if m.CurPID != 8 {
		t.Errorf("CurPID = %d, want 8", m.CurPID)
	}
	// SVPCTX stored A's state: r6 and the resume PC must be in pcba.
	r6, _ := m.Mem.Load32(prog.MustSymbol("pcba") + 4*(PCBR0+6))
	if r6 != 0xAAAA {
		t.Errorf("saved r6 = %#x, want 0xaaaa", r6)
	}
}

// TestPageFaultPath drives a real TNV through the MMU with a handler
// that records the faulting address (covering raiseFault/translate),
// booting with mapping already enabled the way the kernel builder does.
func TestPageFaultPath(t *testing.T) {
	prog, err := vax.Assemble(`
	.org	0x80001000
start:	movl	@#0x80010000, r0 ; unmapped system page -> TNV
	halt
h_tnv:	movl	(sp)+, r8	; info
	movl	(sp)+, r9	; faulting va
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Image at physical 0x1000 = S0 va 0x80001000 under the identity map.
	if err := m.Mem.LoadBytes(0x1000, prog.Bytes); err != nil {
		t.Fatal(err)
	}
	setupSCB(t, m, map[uint16]uint32{vax.VecTranslationNotValid: prog.MustSymbol("h_tnv")})

	// System page table: identity-map the first 128 S0 pages (code,
	// stack, SCB); pages 128..255 invalid; SLR covers the faulting page
	// so the walk reaches an invalid PTE rather than a length violation.
	const spt = 0x20000
	for n := uint32(0); n < 128; n++ {
		m.Mem.Store32(spt+4*n, mmu.MakePTE(n, mmu.ProtKW))
	}
	m.MMU.SBR = spt
	m.MMU.SLR = 256
	m.MMU.MapEn = true

	m.CPU.R[vax.PC] = prog.MustSymbol("start")
	m.CPU.R[vax.SP] = 0x80000000 + 0xF000
	m.CPU.KSP = m.CPU.R[vax.SP]

	run(t, m)
	if m.CPU.R[9] != 0x80010000 {
		t.Errorf("faulting va = %#x, want 0x80010000", m.CPU.R[9])
	}
	if m.MMU.Stats.Faults == 0 {
		t.Error("no MMU fault recorded")
	}
}

func TestRequestStopAndHalted(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	incl	r0
	brb	start
`)
	m.AddHook(EvIFetch, func(mm *Machine, _ Access) {
		if mm.Instrs > 10 {
			mm.RequestStop()
		}
	})
	reason, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopRequested {
		t.Errorf("reason = %v, want StopRequested", reason)
	}
	if m.Halted() {
		t.Error("machine halted unexpectedly")
	}
	if StopHalt.String() != "halt" || StopRequested.String() != "stop requested" {
		t.Error("StopReason strings")
	}
	for ev := Event(0); ev < NumEvents; ev++ {
		if ev.String() == "" || strings.HasPrefix(ev.String(), "Event(") {
			t.Errorf("event %d lacks a name", ev)
		}
	}
}

func TestMicrostoreReplace(t *testing.T) {
	m := load(t, `
	.org 0x1000
start:	nop
	halt
`)
	old := m.Microstore.Replace(vax.OpNOP, &Microroutine{
		Name: "nop-counted",
		Cost: 1,
		Exec: func(mm *Machine) { mm.CPU.R[11] = 0x1234 },
	})
	if old.Name != "nop" {
		t.Errorf("replaced entry = %q", old.Name)
	}
	run(t, m)
	if m.CPU.R[11] != 0x1234 {
		t.Error("replacement microroutine did not run")
	}
	m.Microstore.Replace(vax.OpNOP, old)
}

func TestDebugWrite(t *testing.T) {
	m := load(t, "\t.org 0x1000\nstart: halt\n")
	if err := m.DebugWrite(0x2000, 4, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	v, err := m.DebugRead(0x2000, 4)
	if err != nil || v != 0xCAFEBABE {
		t.Errorf("debug rw: %#x %v", v, err)
	}
}

func TestMFPRReadbacks(t *testing.T) {
	m := runSrc(t, `
	.org 0x1000
start:	mtpr	#31, #18	; raise IPL: block the software interrupt below
	mtpr	#0x3000, #8	; P0BR
	mfpr	#8, r0
	mtpr	#64, #9		; P0LR
	mfpr	#9, r1
	mtpr	#0x4000, #12	; SBR
	mfpr	#12, r2
	mtpr	#0x500, #17	; SCBB
	mfpr	#17, r3
	mtpr	#0x600, #16	; PCBB
	mfpr	#16, r4
	mtpr	#5, #20		; SIRR -> SISR bit 5 (pending, blocked)
	mfpr	#21, r5
	mtpr	#0, #21		; clear it again so nothing fires later
	mtpr	#1234, #26	; ICR
	mfpr	#26, r6
	mfpr	#56, r7		; MAPEN (off)
	mtpr	#10, #18	; IPL
	mfpr	#18, r8
	mtpr	#31, #18
	halt
`)
	want := map[int]uint32{0: 0x3000, 1: 64, 2: 0x4000, 3: 0x500, 4: 0x600,
		5: 1 << 5, 6: 1234, 7: 0, 8: 10}
	for r, v := range want {
		if m.CPU.R[r] != v {
			t.Errorf("r%d = %#x, want %#x", r, m.CPU.R[r], v)
		}
	}
}

func TestMachineCheckOnDoubleFault(t *testing.T) {
	// An SCB full of zeros: the first fault cannot dispatch -> machine
	// check, not an infinite loop.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Mem.Store8(0x1000, 0xFF) // reserved opcode
	m.SCBB = 0x400             // SCB entries are all zero
	m.CPU.R[vax.PC] = 0x1000
	m.CPU.R[vax.SP] = 0xF000
	_, err = m.Run(10)
	if err == nil {
		t.Fatal("expected machine check")
	}
	if !strings.Contains(err.Error(), "machine check") {
		t.Errorf("error = %v", err)
	}
	if !m.Halted() {
		t.Error("machine not halted after check")
	}
}

// TestIFetchOutOfRangeMachineCheck: an instruction-buffer refill from a
// physical address beyond RAM dispatches a machine check (and only after
// the EvIFetch micro-event fired for the aligned longword).
func TestIFetchOutOfRangeMachineCheck(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const handler = 0x2000
	m.SCBB = 0x400
	m.Mem.Store32(m.SCBB+vax.VecMachineCheck, handler)
	m.Mem.Store8(handler, 0x00) // halt
	bad := m.Mem.Size() + 8
	m.CPU.R[vax.PC] = bad + 2
	m.CPU.R[vax.SP] = 0xF000
	var got []Access
	for _, ev := range []Event{EvIFetch, EvException} {
		m.AddHook(ev, func(_ *Machine, a Access) { got = append(got, a) })
	}
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || got[0].Ev != EvIFetch || got[0].VA != bad ||
		got[1].Ev != EvException || got[1].Extra != vax.VecMachineCheck || got[1].VA != bad+2 {
		t.Fatalf("events %+v: want ifetch of %#x, then a machine check at %#x", got, bad, bad+2)
	}
	if m.CPU.R[vax.PC] != handler+1 || !m.Halted() {
		t.Errorf("PC %#x halted=%v: machine check did not reach its handler", m.CPU.R[vax.PC], m.Halted())
	}
}
