package mem

import "testing"

func mustNew(t *testing.T, size, reserved uint32) *Physical {
	t.Helper()
	p, err := NewPhysical(size, reserved)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConstruction(t *testing.T) {
	if _, err := NewPhysical(0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewPhysical(1000, 0); err == nil {
		t.Error("non-page-multiple size accepted")
	}
	if _, err := NewPhysical(1<<20, 100); err == nil {
		t.Error("non-page-multiple reserved accepted")
	}
	if _, err := NewPhysical(1<<20, 2<<20); err == nil {
		t.Error("reserved > size accepted")
	}
	p := mustNew(t, 1<<20, 64<<10)
	if p.Size() != 1<<20 {
		t.Error("size")
	}
	if p.ReservedBase() != 1<<20-64<<10 {
		t.Error("reserved base")
	}
	if p.ReservedSize() != 64<<10 {
		t.Error("reserved size")
	}
	if p.Frames() != (1<<20-64<<10)/PageSize {
		t.Error("frames")
	}
}

func TestLoadStoreWidths(t *testing.T) {
	p := mustNew(t, 1<<16, 0)
	if err := p.Store32(0x100, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Load32(0x100); v != 0xDEADBEEF {
		t.Errorf("load32 %#x", v)
	}
	if v, _ := p.Load16(0x100); v != 0xBEEF {
		t.Errorf("load16 %#x", v)
	}
	if v, _ := p.Load8(0x103); v != 0xDE {
		t.Errorf("load8 %#x", v)
	}
	if err := p.Store16(0x200, 0x1234); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Load16(0x200); v != 0x1234 {
		t.Error("store16")
	}
	if err := p.Store8(0x300, 0xAB); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Load8(0x300); v != 0xAB {
		t.Error("store8")
	}
}

func TestBounds(t *testing.T) {
	p := mustNew(t, 1<<16, 0)
	if _, err := p.Load8(1 << 16); err == nil {
		t.Error("load8 out of bounds accepted")
	}
	if _, err := p.Load32(1<<16 - 2); err == nil {
		t.Error("straddling load32 accepted")
	}
	if err := p.Store32(0xFFFFFFFE, 1); err == nil {
		t.Error("wrapping store accepted")
	}
	var be *BoundsError
	if _, err := p.Load32(1 << 20); err == nil {
		t.Error("no error")
	} else if be, _ = err.(*BoundsError); be == nil || be.PA != 1<<20 {
		t.Errorf("error detail: %v", err)
	}
	if be.Error() == "" {
		t.Error("empty error string")
	}
}

func TestConsole(t *testing.T) {
	p := mustNew(t, 1<<16, 0)
	if err := p.Store8(ConsoleTX, 'h'); err != nil {
		t.Fatal(err)
	}
	if err := p.Store32(ConsoleTX, 'i'); err != nil {
		t.Fatal(err)
	}
	if string(p.Console()) != "hi" {
		t.Errorf("console %q", p.Console())
	}
	p.ResetConsole()
	if len(p.Console()) != 0 {
		t.Error("reset failed")
	}
}

func TestLoadBytesAndView(t *testing.T) {
	p := mustNew(t, 1<<16, 0)
	if err := p.LoadBytes(0x400, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, err := p.Bytes(0x400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[2] != 3 {
		t.Error("view content")
	}
	if err := p.LoadBytes(1<<16-1, []byte{1, 2}); err == nil {
		t.Error("overflowing LoadBytes accepted")
	}
	if _, err := p.Bytes(1<<16-1, 2); err == nil {
		t.Error("overflowing Bytes accepted")
	}
}

// TestBytesViewIsLive: Bytes aliases RAM — the ATUM collector stores its
// records through such a view — so writes through it are seen by loads,
// stores are seen through it, and a view past the end of RAM (or one
// whose end wraps) is refused rather than clipped.
func TestBytesViewIsLive(t *testing.T) {
	p := mustNew(t, 1<<16, 4<<10)
	v, err := p.Bytes(p.ReservedBase(), p.ReservedSize())
	if err != nil {
		t.Fatal(err)
	}
	v[8], v[9], v[10], v[11] = 0xEF, 0xBE, 0xAD, 0xDE
	if got, _ := p.Load32(p.ReservedBase() + 8); got != 0xDEADBEEF {
		t.Errorf("Load32 after a write through the view = %#x", got)
	}
	if err := p.Store32(p.ReservedBase()+16, 0x01020304); err != nil {
		t.Fatal(err)
	}
	if v[16] != 4 || v[19] != 1 {
		t.Errorf("view misses a Store32: % x", v[16:20])
	}
	if cap(v) != len(v) {
		t.Errorf("view capacity %d exceeds its length %d: append would run into RAM past it", cap(v), len(v))
	}
	if _, err := p.Bytes(p.ReservedBase(), p.ReservedSize()+1); err == nil {
		t.Error("view past the end of RAM accepted")
	}
	if _, err := p.Bytes(0xFFFFFFF0, 0x20); err == nil {
		t.Error("wrapping view accepted")
	}
}
