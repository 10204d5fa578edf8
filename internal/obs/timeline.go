package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// AnomalyContext is the forensic record attached to a blocking anomaly:
// the frozen tail of the session's flight recorder, oldest first, whose
// final event is the blocked I/O itself.
type AnomalyContext struct {
	Device  string
	Session int
	// Dropped is how many earlier events the ring had already
	// overwritten by freeze time.
	Dropped uint64
	Events  []Event
}

// Freeze copies the recorder's last k events (all of them if k <= 0)
// into an AnomalyContext. Called from the session goroutine on the
// blocking-anomaly path, after the blocked round's event was recorded.
func (r *Recorder) Freeze(k int) *AnomalyContext {
	if k <= 0 || k > r.ring.Len() {
		k = r.ring.Len()
	}
	return &AnomalyContext{
		Device:  r.row.device,
		Session: int(r.session),
		Dropped: r.ring.Total() - uint64(r.ring.Len()),
		Events:  r.ring.Last(k),
	}
}

// WriteTimeline renders the context as a human-readable timeline.
func (c *AnomalyContext) WriteTimeline(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "flight recorder: device %s session %d, %d events", c.Device, c.Session, len(c.Events))
	if c.Dropped > 0 {
		fmt.Fprintf(bw, " (%d older events overwritten)", c.Dropped)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "%8s %12s %8s %4s %4s %8s %10s %6s %6s %10s  %s\n",
		"seq", "tick", "round", "sess", "gen", "exit", "addr", "len", "steps", "block", "verdict")
	for i := range c.Events {
		ev := &c.Events[i]
		verdict := ev.Verdict.String()
		if ev.Verdict != VerdictOK {
			verdict = fmt.Sprintf("%s %s", ev.Verdict, StrategyName(ev.Strategy))
		}
		fmt.Fprintf(bw, "%8d %12d %8d %4d %4d %8s %#10x %6d %6d %4d/%-5d  %s\n",
			ev.Seq, ev.Tick, ev.Round, ev.Session, ev.SpecGen, ev.Kind, ev.Addr, ev.Len,
			ev.Steps, ev.Handler, ev.Block, verdict)
	}
	return bw.Flush()
}

// String renders the timeline for log lines.
func (c *AnomalyContext) String() string {
	var sb strings.Builder
	_ = c.WriteTimeline(&sb)
	return sb.String()
}
