package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"mlcc/internal/cc"
	"mlcc/internal/dci"
	"mlcc/internal/fabric"
	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
)

// op names one timed call into a layer's public surface.
type op uint8

const (
	opFabricReceive op = iota
	opFabricEnqueue
	opFabricDequeue
	opDCIReceive
	opDCIIngress
	opPFQEnqueue
	opPFQDequeue
	opHostReceive
	opHostNext
	opCCOnAck
	opCCOnCNP
	opCCOnSwitchINT
	opCCRate
	opCCReceiverOnData
	numOps
)

var opNames = [numOps]string{
	"fabric.receive", "fabric.enqueue", "fabric.dequeue",
	"dci.receive", "dci.ingress_hook", "dci.pfq_enqueue", "dci.pfq_dequeue",
	"host.receive", "host.next",
	"cc.on_ack", "cc.on_cnp", "cc.on_switch_int", "cc.rate", "cc.receiver_on_data",
}

// opStat aggregates one op's spans: calls, calls that produced something
// (a dequeue that returned a frame), and summed self time.
type opStat struct {
	calls, hits, selfNS int64
}

// span is one recorded call, kept in the bounded sample written at the end.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Op      string `json:"op"`
	Shard   int    `json:"shard"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"`
}

type frame struct {
	op     op
	start  int64
	child  int64 // time covered by finished child spans
	id     uint64
	parent uint64
}

// sampleCap bounds the spans each shard keeps for the written sample.
const sampleCap = 2048

// tracer times the layer calls made on one engine's goroutine. A span's self
// time is its duration minus the durations of the spans nested in it.
type tracer struct {
	shard int
	epoch time.Time
	stack []frame
	stats [numOps]opStat
	seq   uint64
	keep  []span
	rng   uint64
}

func (t *tracer) begin(o op) {
	t.seq++
	var parent uint64
	if k := len(t.stack); k > 0 {
		parent = t.stack[k-1].id
	}
	t.stack = append(t.stack, frame{op: o, start: int64(time.Since(t.epoch)), id: t.seq, parent: parent})
}

func (t *tracer) end(hit bool) {
	k := len(t.stack) - 1
	f := t.stack[k]
	t.stack = t.stack[:k]
	dur := int64(time.Since(t.epoch)) - f.start
	self := dur - f.child
	st := &t.stats[f.op]
	st.calls++
	st.selfNS += self
	if hit {
		st.hits++
	}
	if k > 0 {
		t.stack[k-1].child += dur
	}
	// Reservoir sampling (algorithm R) on a fixed xorshift stream keeps a
	// uniform bounded sample of every span.
	s := span{ID: f.id, Parent: f.parent, Op: opNames[f.op], Shard: t.shard, StartNS: f.start, DurNS: dur, SelfNS: self}
	if len(t.keep) < sampleCap {
		t.keep = append(t.keep, s)
		return
	}
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	if j := t.rng % t.seq; j < sampleCap {
		t.keep[j] = s
	}
}

// traceSet holds one tracer per engine, so each shard's goroutine owns its
// span stack and counters.
type traceSet struct {
	epoch time.Time
	byEng map[*sim.Engine]*tracer
	list  []*tracer
}

func newTraceSet() *traceSet {
	return &traceSet{epoch: time.Now(), byEng: make(map[*sim.Engine]*tracer)}
}

func (ts *traceSet) of(eng *sim.Engine) *tracer {
	t := ts.byEng[eng]
	if t == nil {
		t = &tracer{epoch: ts.epoch, rng: 0x9e3779b97f4a7c15 + uint64(len(ts.list))}
		ts.byEng[eng] = t
		ts.list = append(ts.list, t)
	}
	return t
}

func (ts *traceSet) total(o op) opStat {
	var s opStat
	for _, t := range ts.list {
		s.calls += t.stats[o].calls
		s.hits += t.stats[o].hits
		s.selfNS += t.stats[o].selfNS
	}
	return s
}

// wrapAlg decorates a congestion-control factory so every sender and
// receiver it builds is timed on its engine's tracer.
func (ts *traceSet) wrapAlg(inner topo.AlgFactory) topo.AlgFactory {
	return func(eng *sim.Engine) cc.Algorithm {
		a := inner(eng)
		t := ts.of(eng)
		newSender := a.NewSender
		a.NewSender = func(f cc.FlowInfo) cc.Sender { return &senderSpan{inner: newSender(f), t: t} }
		if newReceiver := a.NewReceiver; newReceiver != nil {
			a.NewReceiver = func(f cc.FlowInfo) cc.Receiver {
				r := newReceiver(f)
				if r == nil { // no receiver logic for this flow (MLCC: intra-DC)
					return nil
				}
				return &receiverSpan{inner: r, t: t}
			}
		}
		return a
	}
}

// install times the built network's layer boundaries through its exported
// extension points: every port's Owner (switch, DCI or host Receive), host
// port sources, switch egress disciplines and DCI ingress hooks.
func (ts *traceSet) install(n *topo.Network) {
	for k, e := range n.Engines {
		ts.of(e).shard = k
	}
	for _, h := range n.Hosts {
		p := h.Port()
		t := ts.of(p.Eng)
		p.Owner = &recvSpan{inner: p.Owner, t: t, op: opHostReceive}
		p.SetSource(&srcSpan{inner: h, t: t, op: opHostNext})
	}
	wrapSwitch := func(sw *fabric.Switch, recv op) {
		t := ts.of(sw.Eng)
		for i := 0; i < sw.NumPorts(); i++ {
			p := sw.Port(i)
			p.Owner = &recvSpan{inner: p.Owner, t: t, op: recv}
			d := sw.DisciplineAt(i)
			if _, ok := d.(*dci.PFQDisc); ok {
				sw.SetDiscipline(i, &discSpan{Discipline: d, t: t, enq: opPFQEnqueue, deq: opPFQDequeue})
			} else {
				sw.SetDiscipline(i, &discSpan{Discipline: d, t: t, enq: opFabricEnqueue, deq: opFabricDequeue})
			}
		}
	}
	for _, sw := range n.Leaves {
		wrapSwitch(sw, opFabricReceive)
	}
	for _, sw := range n.Spines {
		wrapSwitch(sw, opFabricReceive)
	}
	for _, sw := range n.DCIs {
		wrapSwitch(sw.Switch, opDCIReceive)
		// DCI switches install themselves as ingress hooks only when they run
		// MLCC's behaviours (dci.Switch.Finalize).
		if n.Alg.UseMLCCDCI {
			sw.SetHooks(&hookSpan{inner: sw, t: ts.of(sw.Eng)})
		}
	}
}

func (ts *traceSet) writeSample(path string, header map[string]any) error {
	var spans []span
	for _, t := range ts.list {
		spans = append(spans, t.keep...)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].Shard < spans[j].Shard
	})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"run": header, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type recvSpan struct {
	inner link.Endpoint
	t     *tracer
	op    op
}

func (r *recvSpan) Receive(p *pkt.Packet, on *link.Port) {
	r.t.begin(r.op)
	r.inner.Receive(p, on)
	r.t.end(true)
}

type srcSpan struct {
	inner link.Source
	t     *tracer
	op    op
}

func (s *srcSpan) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	s.t.begin(s.op)
	p := s.inner.Next(paused)
	s.t.end(p != nil)
	return p
}

type discSpan struct {
	fabric.Discipline
	t        *tracer
	enq, deq op
}

func (d *discSpan) Enqueue(p *pkt.Packet) {
	d.t.begin(d.enq)
	d.Discipline.Enqueue(p)
	d.t.end(true)
}

func (d *discSpan) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	d.t.begin(d.deq)
	p := d.Discipline.Next(paused)
	d.t.end(p != nil)
	return p
}

type hookSpan struct {
	inner fabric.Hooks
	t     *tracer
}

func (h *hookSpan) OnIngress(p *pkt.Packet, in, out int) bool {
	h.t.begin(opDCIIngress)
	took := h.inner.OnIngress(p, in, out)
	h.t.end(true)
	return took
}

type senderSpan struct {
	inner cc.Sender
	t     *tracer
}

func (s *senderSpan) OnAck(now sim.Time, ack *pkt.Packet) {
	s.t.begin(opCCOnAck)
	s.inner.OnAck(now, ack)
	s.t.end(true)
}

func (s *senderSpan) OnCNP(now sim.Time) {
	s.t.begin(opCCOnCNP)
	s.inner.OnCNP(now)
	s.t.end(true)
}

func (s *senderSpan) OnSwitchINT(now sim.Time, p *pkt.Packet) {
	s.t.begin(opCCOnSwitchINT)
	s.inner.OnSwitchINT(now, p)
	s.t.end(true)
}

func (s *senderSpan) Rate() sim.Rate {
	s.t.begin(opCCRate)
	r := s.inner.Rate()
	s.t.end(true)
	return r
}

// Close forwards the optional teardown the host type-asserts when a send
// finishes (DCQCN cancels its timers there); dropping it would leave the
// inner sender's timers firing and change the run.
func (s *senderSpan) Close() {
	if c, ok := s.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

type receiverSpan struct {
	inner cc.Receiver
	t     *tracer
}

func (r *receiverSpan) OnData(now sim.Time, data, ack *pkt.Packet) {
	r.t.begin(opCCReceiverOnData)
	r.inner.OnData(now, data, ack)
	r.t.end(true)
}

// sampleEvery is the traced run's quiescent sampling interval.
const sampleEvery = 100 * sim.Microsecond

// sampler reads engine, shard, DCI, switch-buffer, pool and Go-heap state at
// quiescent points. It schedules nothing, so the run's event sequence is
// unchanged (topo.Network.OnQuiescent).
type sampler struct {
	n *topo.Network

	depths        []int // per-engine heap sizes at samples with live events
	staleRaw      int64 // summed heap entries at those samples
	staleCanceled int64 // of which cancelled

	lastFired    []uint64
	segMaxSum    uint64 // sum over segments of the busiest shard's events
	pfqActiveMax int
	pfqBacklog   int64
	bufferPeak   int64
	outstanding  int64
	heapPeak     uint64

	rt []metrics.Sample
}

func newSampler(n *topo.Network) *sampler {
	s := &sampler{
		n:         n,
		lastFired: make([]uint64, len(n.Engines)),
		rt:        []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	n.OnQuiescent(sampleEvery, s.sample)
	return s
}

func (s *sampler) sample(sim.Time) {
	n := s.n
	var segMax uint64
	for k, e := range n.Engines {
		if live := e.Pending(); live > 0 {
			raw := e.PendingRaw()
			s.depths = append(s.depths, raw)
			s.staleRaw += int64(raw)
			s.staleCanceled += int64(raw - live)
		}
		f := e.Fired()
		if d := f - s.lastFired[k]; d > segMax {
			segMax = d
		}
		s.lastFired[k] = f
	}
	s.segMaxSum += segMax

	active, backlog := 0, int64(0)
	for _, d := range n.DCIs {
		active += d.ActivePFQs()
		backlog += d.PFQTotalBacklog()
	}
	s.pfqActiveMax = max(s.pfqActiveMax, active)
	s.pfqBacklog = max(s.pfqBacklog, backlog)
	for _, sws := range [][]*fabric.Switch{n.Leaves, n.Spines} {
		for _, sw := range sws {
			s.bufferPeak = max(s.bufferPeak, sw.BufferUsed())
		}
	}
	var out int64
	for _, p := range n.Pools {
		out += p.Outstanding()
	}
	s.outstanding = max(s.outstanding, out)
	metrics.Read(s.rt)
	if v := s.rt[0].Value; v.Kind() == metrics.KindUint64 {
		s.heapPeak = max(s.heapPeak, v.Uint64())
	}
}
