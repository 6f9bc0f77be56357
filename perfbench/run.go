package main

import (
	"bytes"
	"fmt"
	"time"

	"mlcc/internal/exp"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/stats"
)

// outcome is what one run of an instance produced, plus its host-time cost.
type outcome struct {
	runS                         float64
	collectS, auditS, exportS    float64
	events                       uint64
	digest                       uint64
	registered                   int
	done, aborted, unfinished    int
	collected                    int // FCT samples (done + aborted)
	hostAborted                  int // sum of the hosts' abort counters
	auditProblems                []string
	flightEvents                 uint64
	seriesPoints                 int
	exportBytes                  int
	avgFCTus, p99FCTus           float64
	collectivesDone, collectives int
}

// run drives the built network to its deadline and collects the results the
// way mlcc.Run does: the FCT summary in flow-ID order, the audit verdict and,
// when telemetry is on, its export. runS spans all of it.
func (in *instance) run() *outcome {
	n := in.n
	o := &outcome{}
	t0 := time.Now()
	in.tel.StartSampling(in.deadline)
	n.Run(in.deadline)

	t1 := time.Now()
	if in.spec.audit {
		o.auditProblems = n.AuditProblems()
	}
	t2 := time.Now()

	col := stats.NewFCTCollector()
	var tenants *stats.TenantSet
	if in.runner != nil {
		tenants = stats.NewTenantSet()
	}
	d := exp.NewDigest()
	d.Add(n.Fired())
	d.Add(uint64(n.Now()))
	d.Add(uint64(n.Table.Len()))
	for id := 1; id <= n.Table.Len(); id++ {
		f := n.Table.Get(pkt.FlowID(id))
		d.Add(uint64(f.Info.ID))
		if f.Done {
			d.Add(1)
		} else {
			d.Add(0)
		}
		d.Add(uint64(f.FinishAt))
		d.Add(uint64(f.RxBytes))

		var s stats.FCTSample
		switch {
		case f.Done && f.Aborted:
			o.unfinished++ // impossible state: counted so the balance check fails
			continue
		case f.Done:
			o.done++
			s = stats.FCTSample{Size: f.Info.Size, FCT: f.FCT(), Cross: f.Info.CrossDC, Start: f.Start}
		case f.Aborted:
			o.aborted++
			s = stats.FCTSample{Size: f.Info.Size, Cross: f.Info.CrossDC, Start: f.Start, Aborted: true}
		default:
			o.unfinished++
			continue
		}
		col.Add(s)
		if tenants != nil {
			tenants.Add(in.runner.Tag(f.Info.ID), s)
		}
	}
	avg, _ := col.Avg(nil)
	p99, _ := col.Percentile(nil, 0.99)
	o.avgFCTus, o.p99FCTus = avg.Micros(), p99.Micros()
	o.collected = col.Len()
	for _, h := range n.Hosts {
		o.hostAborted += int(h.Aborted)
	}
	if in.runner != nil {
		for _, c := range in.runner.Statuses() {
			o.collectives++
			if c.Finished && !c.Failed && c.PhasesDone == c.Phases {
				o.collectivesDone++
			}
		}
	}
	t3 := time.Now()

	if tel := in.tel; tel != nil {
		o.flightEvents, o.seriesPoints = export(tel)
	}
	t4 := time.Now()

	o.runS = t4.Sub(t0).Seconds()
	o.auditS = t2.Sub(t1).Seconds()
	o.collectS = t3.Sub(t2).Seconds()
	o.exportS = t4.Sub(t3).Seconds()
	o.events = n.Fired()
	o.registered = n.Table.Len()
	o.digest = d.Sum()
	return o
}

// export serializes everything the telemetry layer collected — manifest with
// the final counter snapshot, sampled series as CSV, the merged flight
// recorder as a dump and as Chrome trace JSON — into memory, the same
// artifacts metrics.Telemetry.WriteDir puts on disk.
func export(tel *metrics.Telemetry) (flight uint64, points int) {
	var buf bytes.Buffer
	m := metrics.NewManifest("perfbench")
	m.AddCounters(tel.Reg)
	_ = m.WriteJSON(&buf)
	if tel.Tracer != nil {
		for _, name := range tel.Tracer.Names() {
			points += tel.Tracer.Get(name).Len()
		}
		_ = tel.Tracer.WriteCSV(&buf)
	}
	if events := tel.FlightEvents(); len(events) > 0 {
		_ = metrics.DumpEvents(&buf, events, tel.FlightRecorded(), tel.FR.Cap())
		_ = metrics.WriteTraceJSON(&buf, events, 0, tel.NodeNamer)
	}
	return tel.FlightRecorded(), points
}

// defaultSeed is the seed the pinned digests below were recorded at.
const defaultSeed = 1

// pinned holds each workload's determinism digest at the default seed, one
// per sub-seed (see subSeed). A change that moves one is a behaviour change.
var pinned = map[string][]uint64{
	"dumbbell-websearch-sharded": {
		0x921fd754515d4380, 0xf7e39deff742c5d4, 0xfed66cacdedac353,
		0x75495641ce15f8c1, 0xb2171301877cdefb,
	},
	"twodc-hadoop-dcqcn": {
		0xa1ba843a3fb705b9, 0xf070b92bbca5281a, 0xf7cf4675f1930934,
		0x2f2b55508db6ce6e, 0x7c89177c11245186, 0xf41e88c0283bf668,
		0xd130d868ccb6348b, 0x061a4626a7246980,
	},
	"twodc-collective-telemetry": {
		0x2e33d331fbef70ac, 0x3f66a748f5e2e803, 0x13a3ae30c064bee1,
		0xb5dee04840d7274c,
	},
}

// check is the correctness gate for one run. It returns every problem found:
// the audit books must close on an audited workload, every registered flow
// must be exactly one of done, aborted or unfinished (and agree with the
// collector and the hosts' own abort counters), every collective must finish
// all its phases, and the digest must equal want when want is non-zero: the
// pinned digest at the default seed, or a reference run's.
func check(in *instance, o *outcome, want uint64) []string {
	var probs []string
	if in.spec.audit && len(o.auditProblems) > 0 {
		probs = append(probs, fmt.Sprintf("audit books open: %v", o.auditProblems))
	}
	if o.done+o.aborted+o.unfinished != o.registered {
		probs = append(probs, fmt.Sprintf("flow balance: %d registered != %d done + %d aborted + %d unfinished",
			o.registered, o.done, o.aborted, o.unfinished))
	}
	if o.collected != o.done+o.aborted || o.hostAborted != o.aborted {
		probs = append(probs, fmt.Sprintf("flow outcomes disagree: collector %d, table %d done + %d aborted, hosts %d aborted",
			o.collected, o.done, o.aborted, o.hostAborted))
	}
	if in.runner == nil && o.registered != in.registered {
		probs = append(probs, fmt.Sprintf("open-loop run registered %d flows after setup's %d", o.registered, in.registered))
	}
	if o.collectivesDone != o.collectives {
		probs = append(probs, fmt.Sprintf("%d of %d collectives unfinished", o.collectives-o.collectivesDone, o.collectives))
	}
	if want != 0 && o.digest != want {
		probs = append(probs, fmt.Sprintf("digest %016x != pinned %016x", o.digest, want))
	}
	return probs
}

// failedFlows is the run's contribution to flows_failed: its unfinished and
// aborted flows, or every registered flow when the gate rejected the run.
func failedFlows(o *outcome, probs []string) int {
	if len(probs) > 0 {
		return o.registered
	}
	return o.unfinished + o.aborted
}

// subSeed derives the i-th input seed of a benchmark run from its --seed.
// Sub-seed 0 is the seed itself.
func subSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// pinnedDigest returns the recorded digest for workload name and sub-seed i
// at seed, or 0 when none is recorded (another seed, or a short variant).
func pinnedDigest(name string, seed int64, i int) uint64 {
	if seed != defaultSeed {
		return 0
	}
	if ds := pinned[name]; i < len(ds) {
		return ds[i]
	}
	return 0
}
