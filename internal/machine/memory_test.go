package machine

import (
	"math/bits"
	"testing"
)

// refInBounds, refLoad and refStore are the flat reference model of
// guest memory: one []byte image, bounds checked with an explicit carry
// instead of the subtraction Memory uses.
func refInBounds(ref []byte, addr uint64, n int) bool {
	end, carry := bits.Add64(addr, uint64(n), 0)
	return carry == 0 && end <= uint64(len(ref))
}

func refLoad(ref []byte, addr uint64, n int) (uint64, bool) {
	if !refInBounds(ref, addr, n) {
		return 0, false
	}
	var v uint64
	for k := 0; k < n; k++ {
		v |= uint64(ref[addr+uint64(k)]) << (8 * k)
	}
	return v, true
}

func refStore(ref []byte, addr, v uint64, n int) bool {
	if !refInBounds(ref, addr, n) {
		return false
	}
	for k := 0; k < n; k++ {
		ref[addr+uint64(k)] = byte(v >> (8 * k))
	}
	return true
}

// fuzzMemSize is deliberately not a multiple of the page size, so the
// last page is partial.
const fuzzMemSize = 3*pageSize + 100

// fuzzAddr maps two fuzz bytes to an address, biased toward the edges
// the paged model must get right: page boundaries (straddling accesses),
// the end of memory, and addresses near 2^64 whose end wraps.
func fuzzAddr(a, b byte) uint64 {
	switch a % 4 {
	case 0:
		return uint64(a>>2%4)*pageSize - 8 + uint64(b%16)
	case 1:
		return fuzzMemSize - 12 + uint64(b%24)
	case 2:
		return ^uint64(0) - uint64(b%16)
	default:
		return (uint64(a>>2)<<8 | uint64(b)) % (fuzzMemSize + 16)
	}
}

// FuzzGuestMemory applies a sequence of 32- and 64-bit loads and stores
// and copy-on-write clones to paged memories and to flat reference
// images. Each op is five bytes: kind and side, two address bytes, and
// a value byte. The models must agree on every bounds result, every
// loaded value, and, at the end, every byte.
func FuzzGuestMemory(f *testing.F) {
	f.Add([]byte{
		2, 4, 5, 0xAB, 0, // store64 straddling the page 1 boundary
		0, 4, 5, 0, 0, // load it back
		1, 4, 6, 0, 0, // load32 inside it
	})
	f.Add([]byte{
		2, 2, 0, 1, 0, // store64 at 2^64-1
		3, 2, 3, 1, 0, // store32 at 2^64-4
		0, 2, 7, 0, 0, // load64 at 2^64-8
		2, 1, 4, 9, 0, // store64 straddling the end of memory
		0, 1, 4, 0, 0,
	})
	f.Add([]byte{
		2, 7, 200, 0x11, 0, // store on side 0
		4, 0, 0, 0, 0, // clone side 0 into side 1
		2 | 8, 7, 200, 0x22, 0, // store on side 1 over the shared page
		0, 7, 200, 0, 0, // side 0 still reads its own value
		0 | 8, 7, 200, 0, 0,
		3, 8, 5, 0x33, 0, // store on side 0 across a shared boundary
		4 | 8, 0, 0, 0, 0, // clone side 1 back into side 0
		0, 8, 5, 0, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mems := [2]*Memory{NewMemory(fuzzMemSize)}
		refs := [2][]byte{make([]byte, fuzzMemSize)}
		for ; len(ops) >= 5; ops = ops[5:] {
			side := int(ops[0]>>3) & 1
			if mems[side] == nil {
				side = 0
			}
			m, ref := mems[side], refs[side]
			addr := fuzzAddr(ops[1], ops[2])
			v := uint64(ops[3]) * 0x0102040810204081
			switch ops[0] & 7 {
			case 0:
				got, ok := m.Load64(addr)
				want, wantOK := refLoad(ref, addr, 8)
				if got != want || ok != wantOK {
					t.Fatalf("side %d Load64(%#x) = %#x, %v; flat %#x, %v", side, addr, got, ok, want, wantOK)
				}
			case 1:
				got, ok := m.Load32(addr)
				want, wantOK := refLoad(ref, addr, 4)
				if uint64(got) != want || ok != wantOK {
					t.Fatalf("side %d Load32(%#x) = %#x, %v; flat %#x, %v", side, addr, got, ok, want, wantOK)
				}
			case 2:
				if ok, want := m.Store64(addr, v), refStore(ref, addr, v, 8); ok != want {
					t.Fatalf("side %d Store64(%#x) = %v; flat %v", side, addr, ok, want)
				}
			case 3:
				if ok, want := m.Store32(addr, uint32(v)), refStore(ref, addr, v, 4); ok != want {
					t.Fatalf("side %d Store32(%#x) = %v; flat %v", side, addr, ok, want)
				}
			default:
				mems[1-side] = m.Clone()
				refs[1-side] = append([]byte(nil), ref...)
			}
		}
		for side, m := range mems {
			if m == nil {
				continue
			}
			ref := refs[side]
			for a := uint64(0); a < fuzzMemSize; a++ {
				if got := m.byteAt(a); got != ref[a] {
					t.Fatalf("side %d byte %#x = %#x, flat %#x", side, a, got, ref[a])
				}
			}
			m.EachPage(func(addr uint64, data []byte) {
				if string(data) != string(ref[addr:addr+uint64(len(data))]) {
					t.Fatalf("side %d page %#x differs from the flat image", side, addr)
				}
			})
		}
	})
}

// TestMemoryPagesOnFirstWrite pins the allocation contract: reads and
// clones allocate no page, and a write materializes only the pages it
// touches (two for a straddling store).
func TestMemoryPagesOnFirstWrite(t *testing.T) {
	m := NewMemory(16 << 20)
	count := func(m *Memory) (n int) {
		m.EachPage(func(uint64, []byte) { n++ })
		return n
	}
	if v, ok := m.Load64(12345); v != 0 || !ok {
		t.Fatalf("fresh memory reads %#x, %v", v, ok)
	}
	m.Store64(2*pageSize-4, ^uint64(0))
	if n := count(m); n != 2 {
		t.Fatalf("straddling store allocated %d pages, want 2", n)
	}
	dup := m.Clone()
	if n := count(dup); n != 2 {
		t.Fatalf("clone sees %d pages, want 2", n)
	}
	dup.Store32(2*pageSize, 7)
	if v, _ := m.Load32(2 * pageSize); v != 0xFFFFFFFF {
		t.Fatalf("write through the clone reached the parent: %#x", v)
	}
}
