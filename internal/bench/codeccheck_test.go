package bench

import (
	"bytes"
	"testing"

	"sedspec/internal/core"
	"sedspec/internal/workload"
)

func TestBenchSpecBinaryRoundTrip(t *testing.T) {
	for _, tg := range workload.Targets(true) {
		t.Run(tg.Name, func(t *testing.T) {
			_, att := setup(tg)
			spec, err := learn(tg, att)
			if err != nil {
				t.Fatal(err)
			}
			data, err := spec.EncodeBinary()
			if err != nil {
				t.Fatal(err)
			}
			back, err := core.DecodeBinary(att.Dev().Program(), data)
			if err != nil {
				t.Fatal(err)
			}
			var j1, j2 bytes.Buffer
			if err := spec.Save(&j1); err != nil {
				t.Fatal(err)
			}
			if err := back.Save(&j2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
				t.Error("JSON rendering changed across the binary round trip")
			}
		})
	}
}
