package machine

import "fmt"

// Guest memory is paged: a page is allocated on its first write, and an
// untouched page reads as zeros. A session's guest touches a few pages of
// its memory, so building a machine costs a page table, not a zeroed
// arena of the full size.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page = [pageSize]byte

// GuestMemory is the guest's physical memory.
type GuestMemory struct {
	size  int
	pages []*page // nil until the page's first write
}

// NewGuestMemory returns size bytes of zeroed guest memory. Pages are
// allocated as the guest writes them.
func NewGuestMemory(size int) *GuestMemory {
	return &GuestMemory{size: size, pages: make([]*page, (size+pageMask)>>pageShift)}
}

// Size returns the memory size in bytes.
func (g *GuestMemory) Size() int { return g.size }

func (g *GuestMemory) inRange(addr uint64, n int) bool {
	return addr <= uint64(g.size) && addr+uint64(n) <= uint64(g.size)
}

// Read copies guest memory at addr into buf. It never allocates: an
// untouched page reads as zeros.
func (g *GuestMemory) Read(addr uint64, buf []byte) error {
	if !g.inRange(addr, len(buf)) {
		return fmt.Errorf("machine: guest read [%#x,+%d) out of range", addr, len(buf))
	}
	for len(buf) > 0 {
		off := int(addr & pageMask)
		n := min(len(buf), pageSize-off)
		if p := g.pages[addr>>pageShift]; p != nil {
			copy(buf[:n], p[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// Write copies buf into guest memory at addr, allocating each page it
// touches for the first time.
func (g *GuestMemory) Write(addr uint64, buf []byte) error {
	if !g.inRange(addr, len(buf)) {
		return fmt.Errorf("machine: guest write [%#x,+%d) out of range", addr, len(buf))
	}
	for len(buf) > 0 {
		off := int(addr & pageMask)
		n := min(len(buf), pageSize-off)
		p := g.pages[addr>>pageShift]
		if p == nil {
			p = new(page)
			g.pages[addr>>pageShift] = p
		}
		copy(p[off:], buf[:n])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// snapshot copies the touched pages; untouched ones stay nil.
func (g *GuestMemory) snapshot() []*page {
	out := make([]*page, len(g.pages))
	for i, p := range g.pages {
		if p != nil {
			c := *p
			out[i] = &c
		}
	}
	return out
}

// restore puts back exactly the pages of a snapshot: a page the snapshot
// never touched reads as zeros again. The snapshot is left intact, so it
// can be restored more than once.
func (g *GuestMemory) restore(pages []*page) {
	for i, s := range pages {
		if s == nil {
			g.pages[i] = nil
			continue
		}
		if g.pages[i] == nil {
			g.pages[i] = new(page)
		}
		*g.pages[i] = *s
	}
}
