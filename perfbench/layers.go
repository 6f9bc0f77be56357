package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
)

// gcReading is a snapshot of the Go runtime's GC counters.
type gcReading struct {
	cycles        uint64
	gcCPU, allCPU float64
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcReading{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// tracePass makes one untraced and one traced run of the workload at the
// seed and reports the per-layer metrics. Host times come from the untraced
// run; self times, call counts and sampled peaks from the traced one, whose
// digest must equal the untraced digest. A sharded workload also gets one
// untraced single-engine run, so the measured shard speedup prints beside
// the event-count bound; its digest must match too.
func tracePass(s spec, o options, m machine, w io.Writer) (*result, error) {
	res := &result{Correct: true}
	gate := func(what string, in *instance, out *outcome, want uint64) {
		probs := check(in, out, want)
		fmt.Fprintf(w, "%s seed %d digest %016x flows %d events %d run_s %.6f fct_avg_us %.3f fct_p99_us %.3f problems %v\n",
			what, in.seed, out.digest, out.registered, out.events, out.runS, out.avgFCTus, out.p99FCTus, probs)
		res.Attempted += out.registered
		res.Failed += failedFlows(out, probs)
		if len(probs) > 0 {
			res.Correct = false
		}
	}
	runtime.GC()
	plain, err := s.setup(o.seed, nil)
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	base := plain.run()
	gc1 := readGC()
	gate("untraced", plain, base, pinnedDigest(s.name, o.seed, 0))
	setup := *plain
	setup.n, setup.tel, setup.runner = nil, nil, nil
	plain = nil

	runtime.GC()
	ts := newTraceSet()
	traced, err := s.setup(o.seed, ts.wrapAlg)
	if err != nil {
		return nil, err
	}
	ts.install(traced.n)
	smp := newSampler(traced.n)
	tout := traced.run()
	gate("traced", traced, tout, base.digest)

	var single *outcome
	if s.shards > 1 {
		one := s
		one.shards = 1
		runtime.GC()
		in, err := one.setup(o.seed, nil)
		if err != nil {
			return nil, err
		}
		single = in.run()
		gate("single-engine", in, single, base.digest)
	}

	n := traced.n
	tot := ts.total
	share := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	mt := map[string]metric{}
	put := func(name string, v float64, unit string) { mt[name] = metric{v, unit} }
	count := func(name string, v int64) { put(name, float64(v), "count") }
	selfNS := func(name string, o op) { put(name, float64(tot(o).selfNS), "ns") }

	// sim
	count("sim.events", int64(base.events))
	put("sim.ns_per_event", base.runS*1e9/float64(base.events), "ns")
	depths := append([]int(nil), smp.depths...)
	sort.Ints(depths)
	p50, dmax := 0, 0
	if len(depths) > 0 {
		p50, dmax = depths[len(depths)/2], depths[len(depths)-1]
	}
	count("sim.heap_depth_p50", int64(p50))
	count("sim.heap_depth_max", int64(dmax))
	put("sim.stale_share", share(smp.staleCanceled, smp.staleRaw), "share")
	var evAllocs, evRecycles uint64
	for _, e := range n.Engines {
		evAllocs += e.EventAllocs()
		evRecycles += e.EventRecycles()
	}
	count("sim.event_allocs", int64(evAllocs))
	count("sim.event_recycles", int64(evRecycles))

	// shard: zero on single-engine workloads.
	var dc [2]uint64
	var bound, speedup, imbalance float64
	if len(n.Engines) > 1 {
		var total, busiest uint64
		for k, e := range n.Engines {
			if k < len(dc) {
				dc[k] = e.Fired()
			}
			total += e.Fired()
			busiest = max(busiest, e.Fired())
		}
		bound = float64(total) / float64(busiest)
		imbalance = float64(smp.segMaxSum) * float64(len(n.Engines)) / float64(total)
		speedup = single.runS / base.runS
	}
	count("shard.events.dc0", int64(dc[0]))
	count("shard.events.dc1", int64(dc[1]))
	put("shard.bound_speedup", bound, "x")
	put("shard.speedup", speedup, "x")
	put("shard.segment_imbalance", imbalance, "x")

	// link: every frame delivered to an owner, every pull of a port source.
	recv := tot(opFabricReceive).calls + tot(opDCIReceive).calls + tot(opHostReceive).calls
	pulls := tot(opFabricDequeue).calls + tot(opPFQDequeue).calls + tot(opHostNext).calls
	hits := tot(opFabricDequeue).hits + tot(opPFQDequeue).hits + tot(opHostNext).hits
	count("link.deliveries", recv)
	count("link.pulls", pulls)
	put("link.pull_hit_share", share(hits, pulls), "share")

	// fabric
	var pauses, drops int64
	for _, sw := range n.Leaves {
		pauses, drops = pauses+sw.PFCPauses, drops+sw.Drops
	}
	for _, sw := range n.Spines {
		pauses, drops = pauses+sw.PFCPauses, drops+sw.Drops
	}
	for _, sw := range n.DCIs {
		pauses, drops = pauses+sw.PFCPauses, drops+sw.Drops
	}
	count("fabric.receive_calls", tot(opFabricReceive).calls)
	selfNS("fabric.receive_self_ns", opFabricReceive)
	selfNS("fabric.enqueue_self_ns", opFabricEnqueue)
	selfNS("fabric.dequeue_self_ns", opFabricDequeue)
	count("fabric.pfc_pauses", pauses)
	count("fabric.drops", drops)
	put("fabric.buffer_peak_bytes", float64(smp.bufferPeak), "bytes")

	// dci
	count("dci.receive_calls", tot(opDCIReceive).calls)
	selfNS("dci.receive_self_ns", opDCIReceive)
	selfNS("dci.ingress_hook_self_ns", opDCIIngress)
	count("dci.pfq_dequeue_calls", tot(opPFQDequeue).calls)
	selfNS("dci.pfq_dequeue_self_ns", opPFQDequeue)
	put("dci.pfq_hit_share", share(tot(opPFQDequeue).hits, tot(opPFQDequeue).calls), "share")
	count("dci.pfq_active_max", int64(smp.pfqActiveMax))
	put("dci.pfq_backlog_peak_bytes", float64(smp.pfqBacklog), "bytes")

	// host
	var retrans, started int64
	for _, h := range n.Hosts {
		retrans += h.Retransmits
	}
	for _, f := range n.Table.All() {
		if f.Started {
			started++
		}
	}
	count("host.receive_calls", tot(opHostReceive).calls)
	selfNS("host.receive_self_ns", opHostReceive)
	count("host.next_calls", tot(opHostNext).calls)
	selfNS("host.next_self_ns", opHostNext)
	put("host.next_hit_share", share(tot(opHostNext).hits, tot(opHostNext).calls), "share")
	count("host.retransmits", retrans)
	count("host.flows_started", started)

	// cc and core
	count("cc.on_ack_calls", tot(opCCOnAck).calls)
	selfNS("cc.on_ack_self_ns", opCCOnAck)
	count("cc.rate_calls", tot(opCCRate).calls)
	selfNS("cc.rate_self_ns", opCCRate)
	count("cc.on_switch_int_calls", tot(opCCOnSwitchINT).calls)
	selfNS("cc.on_switch_int_self_ns", opCCOnSwitchINT)
	selfNS("cc.receiver_on_data_self_ns", opCCReceiverOnData)
	count("cc.on_cnp_calls", tot(opCCOnCNP).calls)

	// pkt
	count("pkt.outstanding_peak", smp.outstanding)

	// set-up layers (untraced build)
	put("topo.build_s", setup.buildS, "s")
	put("workload.generate_s", setup.generateS, "s")
	put("scenario.bind_s", setup.bindS, "s")
	count("flows.registered", int64(setup.registered))

	// run tail (untraced run)
	put("stats.collect_s", base.collectS, "s")
	put("audit.close_s", base.auditS, "s")
	put("telemetry.export_s", base.exportS, "s")
	count("telemetry.flight_events", int64(base.flightEvents))
	count("telemetry.series_points", int64(base.seriesPoints))

	// Go runtime (untraced run; heap peak sampled in the traced run)
	put("runtime.gc_cycles", float64(gc1.cycles-gc0.cycles), "count")
	gcShare := 0.0
	if d := gc1.allCPU - gc0.allCPU; d > 0 {
		gcShare = (gc1.gcCPU - gc0.gcCPU) / d
	}
	put("runtime.gc_cpu_share", gcShare, "share")
	put("runtime.heap_peak_mb", float64(smp.heapPeak)/(1<<20), "MB")

	put("trace.overhead", tout.runS/base.runS, "x")
	res.Metrics = mt

	header := map[string]any{"machine": m, "workload": s.name, "seed": o.seed, "digest": fmt.Sprintf("%016x", base.digest)}
	if err := ts.writeSample(o.spans, header); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "span sample %s\n", o.spans)
	return res, nil
}
