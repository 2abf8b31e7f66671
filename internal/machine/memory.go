package machine

import (
	"encoding/binary"
	"fmt"
)

// pageShift sizes guest memory pages: 4 KiB, the unit of allocation and
// of copy-on-write sharing.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// Memory is a guest's little-endian data memory. Its logical size is
// fixed at creation and every bounds fault follows from it, but storage
// follows the work: a 4 KiB page is allocated on its first write, and a
// page never written reads as zeros. Clone shares every page
// copy-on-write. All threads of a process share one *Memory.
//
// Accesses are bounds-checked and report false instead of touching
// anything out of range; an in-bounds access that straddles a page
// boundary takes a byte-wise path with the same result as a flat image.
type Memory struct {
	size  uint64
	pages []*page
	// owned[i] is set when pages[i] belongs to this Memory alone and may
	// be written in place. A page shared with a fork relative (or not
	// yet allocated) is copied (or allocated) by the first store to it.
	owned []bool
}

// NewMemory returns size bytes of zeroed memory; it allocates no page.
func NewMemory(size int) *Memory {
	if size < 0 {
		panic(fmt.Sprintf("machine: negative memory size %d", size))
	}
	n := (size + pageMask) >> pageShift
	return &Memory{size: uint64(size), pages: make([]*page, n), owned: make([]bool, n)}
}

// Size is the logical size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Clone returns a copy-on-write duplicate (fork): both memories keep
// reading the same pages until one of them writes a page, which then
// gets its own copy.
func (m *Memory) Clone() *Memory {
	dup := &Memory{size: m.size, pages: append([]*page(nil), m.pages...), owned: make([]bool, len(m.pages))}
	clear(m.owned)
	return dup
}

// EachPage calls fn for every allocated page in ascending address
// order, with the page's base address and its bytes (clipped to the
// logical size). fn must not modify or retain data. Pages never written
// are skipped: they read as zeros.
func (m *Memory) EachPage(fn func(addr uint64, data []byte)) {
	for i, p := range m.pages {
		if p == nil {
			continue
		}
		base := uint64(i) << pageShift
		fn(base, p[:min(pageSize, m.size-base)])
	}
}

// inBounds reports whether [addr, addr+n) lies inside memory. The
// comparison is overflow-safe: addr+n can wrap for addresses near 2^64,
// so the check subtracts from the memory size instead of adding to the
// address.
func (m *Memory) inBounds(addr, n uint64) bool {
	return addr <= m.size && m.size-addr >= n
}

// writable returns page i for writing, first allocating it or copying
// it away from a fork relative.
func (m *Memory) writable(i uint64) *page {
	if !m.owned[i] {
		p := new(page)
		if shared := m.pages[i]; shared != nil {
			*p = *shared
		}
		m.pages[i] = p
		m.owned[i] = true
	}
	return m.pages[i]
}

// Load64 reads the little-endian word at addr.
func (m *Memory) Load64(addr uint64) (uint64, bool) {
	if off := addr & pageMask; off <= pageSize-8 && m.inBounds(addr, 8) {
		if p := m.pages[addr>>pageShift]; p != nil {
			return binary.LittleEndian.Uint64(p[off:]), true
		}
		return 0, true
	}
	return m.loadSlow(addr, 8)
}

// Store64 writes v as a little-endian word at addr.
func (m *Memory) Store64(addr, v uint64) bool {
	if off := addr & pageMask; off <= pageSize-8 && m.inBounds(addr, 8) {
		i := addr >> pageShift
		if m.owned[i] {
			binary.LittleEndian.PutUint64(m.pages[i][off:], v)
			return true
		}
	}
	return m.storeSlow(addr, v, 8)
}

// Load32 reads the little-endian doubleword at addr.
func (m *Memory) Load32(addr uint64) (uint32, bool) {
	if off := addr & pageMask; off <= pageSize-4 && m.inBounds(addr, 4) {
		if p := m.pages[addr>>pageShift]; p != nil {
			return binary.LittleEndian.Uint32(p[off:]), true
		}
		return 0, true
	}
	v, ok := m.loadSlow(addr, 4)
	return uint32(v), ok
}

// Store32 writes v as a little-endian doubleword at addr.
func (m *Memory) Store32(addr uint64, v uint32) bool {
	if off := addr & pageMask; off <= pageSize-4 && m.inBounds(addr, 4) {
		i := addr >> pageShift
		if m.owned[i] {
			binary.LittleEndian.PutUint32(m.pages[i][off:], v)
			return true
		}
	}
	return m.storeSlow(addr, uint64(v), 4)
}

// loadSlow finishes the loads the fast path leaves: out of bounds, or
// straddling a page boundary (read byte by byte).
func (m *Memory) loadSlow(addr uint64, n uint64) (uint64, bool) {
	if !m.inBounds(addr, n) {
		return 0, false
	}
	var v uint64
	for k := uint64(0); k < n; k++ {
		v |= uint64(m.byteAt(addr+k)) << (8 * k)
	}
	return v, true
}

// storeSlow finishes the stores the fast path leaves: out of bounds,
// straddling a page boundary, or to a page this memory does not own yet
// (never written, or shared with a fork relative).
func (m *Memory) storeSlow(addr, v uint64, n uint64) bool {
	if !m.inBounds(addr, n) {
		return false
	}
	for k := uint64(0); k < n; k++ {
		a := addr + k
		m.writable(a >> pageShift)[a&pageMask] = byte(v >> (8 * k))
	}
	return true
}

// byteAt reads one in-bounds byte.
func (m *Memory) byteAt(addr uint64) byte {
	if p := m.pages[addr>>pageShift]; p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// loadSegment copies the program's data segment into memory at addr,
// panicking when it does not fit: a program image larger than the
// memory it is loaded into is a bug in the caller, not guest behavior.
func (m *Memory) loadSegment(addr uint64, data []byte) {
	if !m.inBounds(addr, uint64(len(data))) {
		panic(fmt.Sprintf("machine: data segment (%d bytes at %#x) exceeds memory (%d bytes)",
			len(data), addr, m.size))
	}
	for len(data) > 0 {
		k := copy(m.writable(addr >> pageShift)[addr&pageMask:], data)
		addr += uint64(k)
		data = data[k:]
	}
}
