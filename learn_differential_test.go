package sedspec_test

import (
	"bytes"
	"reflect"
	"testing"

	"sedspec"
	"sedspec/internal/analysis"
	"sedspec/internal/checker"
	"sedspec/internal/cvesim"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// learnCorpus is one training corpus learned on a fresh machine.
type learnCorpus struct {
	name  string
	build func() (machine.Device, []machine.AttachOption)
	train sedspec.TrainFunc
}

func (c learnCorpus) attach() *machine.Attached {
	m := machine.New(machine.WithMemory(1 << 20))
	dev, opts := c.build()
	return m.Attach(dev, opts...)
}

// TestOneRunLearnMatchesTwoPass pins the one-run learner to the paper's
// two-pass procedure (trace run, then an observation run watching only
// the selected parameters) on the light benign corpora, three full ones,
// every case study's training corpus and an enhancement corpus with real
// audited warnings: the spec bytes, the parameters, the observation log
// and the trace statistics must all be identical.
func TestOneRunLearnMatchesTwoPass(t *testing.T) {
	var corpora []learnCorpus
	for _, tg := range workload.Targets(true) {
		corpora = append(corpora, learnCorpus{"light/" + tg.Name, tg.Build, tg.Train})
	}
	for _, tg := range workload.Targets(false) {
		if tg.Name == "ehci" || tg.Name == "pcnet" || tg.Name == "sdhci" {
			corpora = append(corpora, learnCorpus{"full/" + tg.Name, tg.Build, tg.Train})
		}
	}
	for _, p := range cvesim.All() {
		corpora = append(corpora, learnCorpus{"cve/" + p.CVE, p.Build, p.Train})
	}
	corpora = append(corpora, enhanceCorpus(t))

	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			got, err := sedspec.LearnFull(c.attach(), c.train)
			if err != nil {
				t.Fatalf("LearnFull: %v", err)
			}
			want, err := sedspec.TwoPassLearn(c.attach(), c.train)
			if err != nil {
				t.Fatalf("two-pass learn: %v", err)
			}
			assertSameLearn(t, got, want)
		})
	}
}

// enhanceCorpus is sedspec.Enhance's composed corpus for the light sdhci
// target: the benign training followed by the audited warnings of a
// mixed session run in enhancement mode. It also checks that Enhance
// learns what LearnFull learns from the same composition.
func enhanceCorpus(t *testing.T) learnCorpus {
	t.Helper()
	tg := workload.TargetByName("sdhci", true)
	c := learnCorpus{"enhance/sdhci", tg.Build, tg.Train}
	parent, err := sedspec.Learn(c.attach(), tg.Train)
	if err != nil {
		t.Fatal(err)
	}
	att := c.attach()
	sh := sedspec.NewSharedChecker(parent, checker.WithMode(checker.ModeEnhancement))
	sedspec.ProtectShared(att, sh)
	w := tg.NewSession(sedspec.NewDriver(att), simclock.NewRand(1))
	if err := w.Prepare(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 30; n++ {
		op := w.Op
		if n%89 == 13 {
			op = w.Rare
		}
		if err := op(); err != nil {
			t.Fatalf("mixed op %d: %v", n, err)
		}
	}
	audit := sh.Audit()
	if len(audit) == 0 {
		t.Fatal("the mixed session raised no audited warning")
	}

	c.train = func(d *sedspec.Driver) error {
		if err := tg.Train(d); err != nil {
			return err
		}
		for _, a := range audit {
			var err error
			switch {
			case a.Write && a.Space == interp.SpacePIO:
				_, err = d.Out(a.Addr, a.Data)
			case a.Write:
				_, err = d.MMIOWrite(a.Addr, a.Data)
			case a.Space == interp.SpacePIO:
				_, _, err = d.In(a.Addr)
			default:
				_, _, err = d.MMIORead(a.Addr)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	enhanced, err := sedspec.Enhance(c.attach(), tg.Train, audit)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := sedspec.LearnFull(c.attach(), c.train)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSpec(t, enhanced), encodeSpec(t, composed.Spec)) {
		t.Fatal("Enhance and LearnFull over the same composed corpus learned different specs")
	}
	return c
}

func encodeSpec(t *testing.T, spec *sedspec.Spec) []byte {
	t.Helper()
	b, err := spec.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertSameLearn compares every artifact of two learns of one corpus.
func assertSameLearn(t *testing.T, got, want *sedspec.LearnResult) {
	t.Helper()
	if !bytes.Equal(encodeSpec(t, got.Spec), encodeSpec(t, want.Spec)) {
		t.Error("spec bytes differ")
	}
	if g, w := got.Params.WatchList(), want.Params.WatchList(); !reflect.DeepEqual(g, w) {
		t.Errorf("watch list = %v, want %v", g, w)
	}
	if !reflect.DeepEqual(got.Params.Params, want.Params.Params) {
		t.Errorf("params = %+v, want %+v", got.Params.Params, want.Params.Params)
	}
	if got.Trace != want.Trace {
		t.Errorf("trace stats = %+v, want %+v", got.Trace, want.Trace)
	}
	assertSameLog(t, got.Log, want.Log)
}

// assertSameLog deep-compares two observation logs, reporting the first
// differing round and event.
func assertSameLog(t *testing.T, got, want *analysis.Log) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.Device != want.Device || len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("log device/rounds = %q/%d, want %q/%d",
			got.Device, len(got.Rounds), want.Device, len(want.Rounds))
	}
	for i := range want.Rounds {
		g, w := got.Rounds[i], want.Rounds[i]
		if reflect.DeepEqual(g, w) {
			continue
		}
		if len(g.Events) != len(w.Events) || g.Faulted != w.Faulted || !reflect.DeepEqual(g.Req, w.Req) {
			t.Fatalf("round %d: got %d events (faulted %t, req %+v), want %d (faulted %t, req %+v)",
				i, len(g.Events), g.Faulted, g.Req, len(w.Events), w.Faulted, w.Req)
		}
		for j := range w.Events {
			if !reflect.DeepEqual(g.Events[j], w.Events[j]) {
				t.Fatalf("round %d event %d:\n got %+v\nwant %+v", i, j, g.Events[j], w.Events[j])
			}
		}
		t.Fatalf("round %d differs", i)
	}
	t.Fatal("logs differ")
}
