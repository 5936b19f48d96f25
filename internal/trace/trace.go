// Package trace defines the ATUM trace record — the unit the microcode
// patches write into reserved physical memory — together with the packed
// in-memory encoding, an on-disk stream format with an optional
// delta-compressed codec, filters, and summary statistics.
package trace

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Kind classifies a trace record.
type Kind uint8

const (
	KindIFetch    Kind = iota // instruction-stream fetch (aligned longword)
	KindDRead                 // data read
	KindDWrite                // data write
	KindPTERead               // PTE read by translation microcode
	KindPTEWrite              // PTE modify-bit write
	KindCtxSwitch             // context switch; Extra = incoming PID
	KindException             // exception/interrupt; Extra = SCB vector
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case KindIFetch:
		return "ifetch"
	case KindDRead:
		return "dread"
	case KindDWrite:
		return "dwrite"
	case KindPTERead:
		return "pteread"
	case KindPTEWrite:
		return "ptewrite"
	case KindCtxSwitch:
		return "ctxswitch"
	case KindException:
		return "exception"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMemRef reports whether the record is an actual memory reference (as
// opposed to a marker record).
func (k Kind) IsMemRef() bool { return k <= KindPTEWrite }

// Record is one decoded trace entry.
type Record struct {
	Kind  Kind
	Addr  uint32 // virtual address (physical when Phys)
	Width uint8  // reference width in bytes (1, 2 or 4); 0 for marker records
	PID   uint8
	User  bool // access made in user mode
	Phys  bool // Addr is physical (system PTE and PCB references)
	Extra uint16
}

func (r Record) String() string {
	mode := "k"
	if r.User {
		mode = "u"
	}
	space := ""
	if r.Phys {
		space = " phys"
	}
	s := fmt.Sprintf("%-9s pid=%-2d %s %08x w%d%s", r.Kind, r.PID, mode, r.Addr, r.Width, space)
	if r.Kind == KindCtxSwitch || r.Kind == KindException {
		s += fmt.Sprintf(" extra=%#x", r.Extra)
	}
	return s
}

// RecordBytes is the packed record size in the reserved physical buffer.
const RecordBytes = 8

// Packed layout:
//
//	byte 0: kind(3) | widthLog2(2) | user(1) | phys(1) | reserved(1)
//	byte 1: PID
//	bytes 2-3: Extra, little endian
//	bytes 4-7: Addr, little endian
const (
	flagUser = 1 << 5
	flagPhys = 1 << 6
)

// Packed returns the record in its packed layout as one little-endian
// word: the microcode's trace store writes it with a single 8-byte store.
func (r Record) Packed() uint64 {
	return r.header() | uint64(r.PID)<<8 | uint64(r.Extra)<<16 | uint64(r.Addr)<<32
}

// header is byte 0 of the packed layout, which the delta codec's header
// byte shares: kind(3) | widthLog2(2) | user(1) | phys(1). It computes
// in a full word: byte-wide arithmetic here made the raw encoder
// measurably (about 2x) slower.
func (r Record) header() uint64 {
	var wl uint64
	switch r.Width {
	case 2:
		wl = 1
	case 4:
		wl = 2
	}
	h := uint64(r.Kind)&7 | wl<<3
	if r.User {
		h |= flagUser
	}
	if r.Phys {
		h |= flagPhys
	}
	return h
}

// Encode packs the record into b (at least RecordBytes long).
func (r Record) Encode(b []byte) { binary.LittleEndian.PutUint64(b, r.Packed()) }

// DecodeRecord unpacks one record from b. The packed width field cannot
// represent 0, so marker kinds — which carry no reference width — decode
// to Width 0 by fiat rather than a phantom 1-byte width.
func DecodeRecord(b []byte) Record {
	var r Record
	r.unpack(binary.LittleEndian.Uint64(b))
	return r
}

// unpack sets r from its packed word. Batch decoders call it on the
// destination slot itself: assembling a Record in a temporary and
// copying it out costs a store-forwarding stall per record.
func (r *Record) unpack(w uint64) {
	b0 := byte(w)
	r.Kind = Kind(b0 & 7)
	r.Width = 0
	if r.Kind.IsMemRef() {
		r.Width = 1 << (b0 >> 3 & 3)
	}
	r.User = b0&flagUser != 0
	r.Phys = b0&flagPhys != 0
	r.PID = byte(w >> 8)
	r.Extra = uint16(w >> 16)
	r.Addr = uint32(w >> 32)
}

// ParseBuffer decodes the packed records in a raw trace-buffer image
// (length must be a multiple of RecordBytes) and appends them to dst,
// so a caller that drains buffer after buffer can reuse one slice.
func ParseBuffer(dst []Record, buf []byte) ([]Record, error) {
	if len(buf)%RecordBytes != 0 {
		return dst, fmt.Errorf("trace: buffer length %d not a record multiple", len(buf))
	}
	n := len(dst)
	dst = slices.Grow(dst, len(buf)/RecordBytes)[:n+len(buf)/RecordBytes]
	decodeRawBatch(dst[n:], buf)
	return dst, nil
}

// FilterUser returns only user-mode references — what a user-level
// tracing tool would have seen. Marker records from user context are
// retained; kernel references, PTE references and kernel markers drop.
func FilterUser(recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.User && r.Kind != KindPTERead && r.Kind != KindPTEWrite {
			out = append(out, r)
		}
	}
	return out
}

// FilterPID returns only records attributed to one process.
func FilterPID(recs []Record, pid uint8) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.PID == pid {
			out = append(out, r)
		}
	}
	return out
}

// FilterMemRefs drops marker records, keeping actual references.
func FilterMemRefs(recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.Kind.IsMemRef() {
			out = append(out, r)
		}
	}
	return out
}
