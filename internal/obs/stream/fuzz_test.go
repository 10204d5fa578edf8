package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzEventCodec feeds arbitrary bytes to the event decoder. Decoding
// must never panic, and any input it accepts must re-marshal and decode
// again to a deep-equal event. The seeds are MarshalBinary output for
// every kind, plus truncated and bit-flipped copies of it; crashers live
// under testdata/fuzz.
func FuzzEventCodec(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	for k := Kind(0); k < NumKinds; k++ {
		ev := fixtureEvent(r, k)
		enc, err := ev.MarshalBinary()
		if err != nil {
			f.Fatalf("%s: marshal: %v", k, err)
		}
		f.Add(enc)
		for _, n := range []int{0, 1, 2, len(enc) / 2, len(enc) - 1} {
			f.Add(enc[:n])
		}
		for _, off := range []int{0, 1, 2, len(enc) / 2, len(enc) - 1} {
			flipped := bytes.Clone(enc)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var ev Event
		if err := ev.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := ev.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted event does not re-marshal: %v\nevent %+v", err, ev)
		}
		var back Event
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-marshaled event does not decode: %v\nbytes %x", err, enc)
		}
		if !reflect.DeepEqual(ev, back) {
			t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", back, ev)
		}
	})
}
