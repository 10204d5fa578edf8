package machine

import (
	"bytes"
	"testing"

	"sedspec/internal/simclock"
)

// touched counts the allocated pages of a guest memory.
func touched(g *GuestMemory) int {
	n := 0
	for _, p := range g.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// memAddr draws an address that favours page boundaries and both ends
// of memory, with the occasional wild or wrapping address.
func memAddr(r *simclock.Rand, size, n int) uint64 {
	switch r.Intn(6) {
	case 0: // around a page boundary
		pages := size/pageSize + 2
		return uint64(max(0, r.Intn(pages)*pageSize+r.Intn(17)-8))
	case 1: // ending at or just past the top of memory
		return uint64(max(0, size-n+r.Intn(5)-2))
	case 2: // at or just past the top of memory
		return uint64(size + r.Intn(3))
	case 3: // near the top of the address space
		return ^uint64(0) - uint64(r.Intn(3*pageSize))
	default:
		return uint64(r.Intn(size + 1))
	}
}

// TestGuestMemoryMatchesFlatModel drives paged guest memory and a flat
// []byte oracle with the same seeded reads, writes, snapshots and
// restores, and requires identical contents and identical out-of-range
// verdicts throughout.
func TestGuestMemoryMatchesFlatModel(t *testing.T) {
	sizes := []int{1, pageSize - 1, pageSize, 3*pageSize + 123, 8 * pageSize}
	for _, size := range sizes {
		for seed := uint64(1); seed <= 8; seed++ {
			r := simclock.NewRand(seed*1000 + uint64(size))
			m := New(WithMemory(size))
			g := m.Mem
			model := make([]byte, size)
			var snap *Snapshot
			var snapModel []byte
			inRange := func(addr uint64, n int) bool {
				return addr <= uint64(size) && addr+uint64(n) <= uint64(size)
			}
			for op := 0; op < 400; op++ {
				n := r.Intn(3*pageSize + 1)
				addr := memAddr(r, size, n)
				switch k := r.Intn(20); {
				case k < 9: // read
					buf := bytes.Repeat([]byte{0xA5}, n)
					err := g.Read(addr, buf)
					if ok := inRange(addr, n); ok != (err == nil) {
						t.Fatalf("size %d seed %d op %d: Read(%#x,+%d) err = %v, want in range %v", size, seed, op, addr, n, err, ok)
					}
					if err != nil {
						if !bytes.Equal(buf, bytes.Repeat([]byte{0xA5}, n)) {
							t.Fatalf("size %d seed %d op %d: failed Read wrote into buf", size, seed, op)
						}
						continue
					}
					if !bytes.Equal(buf, model[addr:addr+uint64(n)]) {
						t.Fatalf("size %d seed %d op %d: Read(%#x,+%d) differs from the model", size, seed, op, addr, n)
					}
				case k < 18: // write
					buf := make([]byte, n)
					for i := range buf {
						buf[i] = byte(r.Uint64())
					}
					err := g.Write(addr, buf)
					if ok := inRange(addr, n); ok != (err == nil) {
						t.Fatalf("size %d seed %d op %d: Write(%#x,+%d) err = %v, want in range %v", size, seed, op, addr, n, err, ok)
					}
					if err == nil {
						copy(model[addr:], buf)
					}
				case k == 18:
					snap, snapModel = m.Snapshot(), append([]byte(nil), model...)
				default:
					if snap == nil {
						continue
					}
					if err := m.Restore(snap); err != nil {
						t.Fatal(err)
					}
					copy(model, snapModel)
				}
			}
			all := make([]byte, size)
			if err := g.Read(0, all); err != nil || !bytes.Equal(all, model) {
				t.Fatalf("size %d seed %d: final contents differ from the model (err %v)", size, seed, err)
			}
		}
	}
}

// TestGuestMemorySnapshotPages pins what Snapshot and Restore do with
// pages: a snapshot is isolated from later writes and survives being
// restored, a page first written after it reads zero again after
// Restore, and only touched pages are ever allocated.
func TestGuestMemorySnapshotPages(t *testing.T) {
	m := New(WithMemory(16 * pageSize))
	if n := touched(m.Mem); n != 0 {
		t.Fatalf("new machine has %d pages allocated", n)
	}
	if err := m.Mem.Write(pageSize-2, []byte{1, 2, 3, 4}); err != nil { // straddles pages 0 and 1
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if n := len(snap.mem); n != 16 {
		t.Fatalf("snapshot page table has %d entries, want 16", n)
	}
	for i, p := range snap.mem {
		if (p != nil) != (i < 2) {
			t.Fatalf("snapshot page %d copied = %v, want only the touched pages 0 and 1", i, p != nil)
		}
	}

	if err := m.Mem.Write(pageSize-2, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	late := uint64(9*pageSize + 7)
	if err := m.Mem.Write(late, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4)
		if err := m.Mem.Read(pageSize-2, got); err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
			t.Fatalf("round %d: restored bytes = %v (err %v), want the snapshot's", round, got, err)
		}
		if err := m.Mem.Read(late, got[:1]); err != nil || got[0] != 0 {
			t.Fatalf("round %d: page first written after the snapshot reads %#x after Restore, want 0", round, got[0])
		}
		if n := touched(m.Mem); n != 2 {
			t.Fatalf("round %d: %d pages allocated after Restore, want 2", round, n)
		}
		// Writes after a restore must not reach the snapshot.
		if err := m.Mem.Write(pageSize-2, []byte{7, 7, 7, 7}); err != nil {
			t.Fatal(err)
		}
	}

	if err := m.Restore(New(WithMemory(8 * pageSize)).Snapshot()); err == nil {
		t.Error("Restore accepted a snapshot of a different memory size")
	}
}

// TestGuestMemoryReadAllocatesNothing pins that reads, the checker's DMA
// path on every I/O, allocate nothing: not on touched pages, not on
// untouched ones, not across a page boundary, and that reading an
// untouched page does not allocate it.
func TestGuestMemoryReadAllocatesNothing(t *testing.T) {
	g := NewGuestMemory(4 * pageSize)
	if err := g.Write(16, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for name, addr := range map[string]uint64{
		"touched":   0,
		"untouched": 2*pageSize + 8,
		"straddle":  pageSize - 32,
	} {
		if a := testing.AllocsPerRun(100, func() {
			if err := g.Read(addr, buf); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s Read allocates %v per call", name, a)
		}
	}
	if n := touched(g); n != 1 {
		t.Errorf("%d pages allocated after reads, want the 1 written", n)
	}
}
