// Specinspect: build the execution specification for any of the five
// devices and dump everything the construction produced — the selected
// device-state parameters (Table I view), construction statistics, the
// command access table, learned indirect-call targets, and the ES-CFG in
// Graphviz form — plus the size of the specification's JSON export.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"sedspec"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

func main() {
	device := flag.String("device", "sdhci", "fdc | ehci | pcnet | sdhci | scsi")
	dotPath := flag.String("dot", "", "write the ES-CFG to this Graphviz file")
	flag.Parse()

	target := workload.TargetByName(*device, false)
	if target == nil {
		log.Fatalf("unknown device %q", *device)
	}

	m := machine.New(machine.WithMemory(1 << 20))
	dev, opts := target.Build()
	att := m.Attach(dev, opts...)

	r, err := sedspec.LearnFull(att, target.Train)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(r.Spec.String())
	fmt.Print(r.Params.String())

	fmt.Printf("ITC-CFG: %d nodes, %d edges over %d traced runs (%.1f%% block coverage)\n",
		r.Graph.NumNodes(), r.Graph.NumEdges(), r.Graph.Runs(), 100*r.Graph.BlockCoverage())
	fmt.Printf("trace: %d packets (%d raw events; %d dropped by range filter, %d by ring filter)\n",
		r.Trace.Packets, r.Trace.Events, r.Trace.FilteredRange, r.Trace.FilteredKernel)
	fmt.Printf("device-state-change log: %d rounds\n", len(r.Log.Rounds))

	fmt.Printf("command access table: %d commands, %d globally accessible blocks\n",
		r.Spec.CmdTable.Commands(), len(r.Spec.CmdTable.Global))
	for field, targets := range r.Spec.IndirectTargets {
		prog := dev.Program()
		fmt.Printf("indirect targets of %q:", prog.Fields[field].Name)
		for t := range targets {
			fmt.Printf(" %s", prog.Handlers[t].Name)
		}
		fmt.Println()
	}

	// Export the specification as JSON to show its size.
	var buf bytes.Buffer
	if err := r.Spec.Save(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("JSON export: %d bytes\n", buf.Len())

	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(r.Spec.Dot()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ES-CFG written to %s\n", *dotPath)
	}
}
