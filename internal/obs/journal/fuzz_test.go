package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sedspec/internal/obs/stream"
)

// validPrefix walks a segment file's bytes the way recovery must: the
// frames that are whole, pass their CRC and decode, up to the first
// one that does not. It returns their payloads and the length of the
// file recovery leaves behind (a file without the magic is reset to an
// empty segment).
func validPrefix(data []byte) (payloads [][]byte, valid int64) {
	if !bytes.HasPrefix(data, []byte(segMagic)) {
		return nil, int64(len(segMagic))
	}
	off := len(segMagic)
	for len(data)-off >= frameHeader {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxFrame || uint64(len(data)-off-frameHeader) < uint64(n) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		var ev stream.Event
		if crc32.Checksum(payload, castagnoli) != sum || ev.UnmarshalBinary(payload) != nil {
			break
		}
		payloads = append(payloads, payload)
		off += frameHeader + int(n)
	}
	return payloads, int64(off)
}

// FuzzJournalRecover writes each input as the journal's only segment
// file and opens the journal over it. Open must not panic, must cut the
// file back to the end of its last valid frame, and every frame before
// that point (whole, CRC-clean and decodable) must come back through
// Query and re-marshal to the bytes it was stored as. The seeds are a
// segment written through Append, plus truncated and bit-flipped
// copies of it; crashers live under testdata/fuzz.
func FuzzJournalRecover(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		f.Fatal(err)
	}
	kinds := []stream.Kind{stream.KindAnomaly, stream.KindAudit, stream.KindSwap, stream.KindDetach, stream.KindSpec, stream.KindHealth}
	for i, kind := range kinds {
		ev := testEvent(uint64(i+1), kind, "prod", "fdc")
		if err := j.Append(&ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "journal-00000001.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	for _, n := range []int{0, 3, len(segMagic), len(segMagic) + 5, len(seg) / 2, len(seg) - 1} {
		f.Add(seg[:n])
	}
	for _, off := range []int{2, len(segMagic) + 1, len(segMagic) + 5, len(segMagic) + 11, len(seg) / 2, len(seg) - 2} {
		flipped := bytes.Clone(seg)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal-00000001.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, valid := validPrefix(data)
		j, err := Open(Options{Dir: dir, Fsync: PolicyNone})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer j.Close()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != valid {
			t.Fatalf("recovered segment is %d bytes, want %d (the last valid frame boundary)", info.Size(), valid)
		}
		var got [][]byte
		err = j.Query(stream.Query{}, func(ev *stream.Event) bool {
			b, err := ev.MarshalBinary()
			if err != nil {
				t.Errorf("re-marshal record %d: %v", len(got), err)
			}
			got = append(got, b)
			return true
		})
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("Query returned %d records, want the %d valid frames", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("record %d re-marshals to %x, was stored as %x", i, got[i], want[i])
			}
		}
	})
}
