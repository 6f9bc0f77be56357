package main

import (
	"fmt"
	"time"

	"mlcc/internal/audit"
	"mlcc/internal/metrics"
	"mlcc/internal/scenario"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
	"mlcc/internal/trace"
	"mlcc/internal/workload"
)

// spec describes one benchmark workload: the topology shape, the traffic the
// simulator is fed, and which optional planes are on. It mirrors the inputs
// mlcc.Run derives from an mlcc.Config.
type spec struct {
	name     string
	alg      string
	dumbbell bool
	hosts    int // hosts per leaf (per rack on the dumbbell)
	shards   int
	audit    bool

	// inputs is how many distinct inputs, derived from the seed, one
	// end-to-end run cycles through: run time varies by 8-15% from one input
	// to the next, so each run averages over several. It is chosen so that
	// every input once plus one repeat fits in BENCHMARK.json's run_seconds
	// on a 2-vCPU box.
	inputs int

	// Open-loop Poisson traffic (ignored when plan is set).
	cdf          string
	intra, cross float64
	window       sim.Time

	// plan, when non-nil, builds a scenario plan for the seed; the open-loop
	// fields above are then unused.
	plan func(seed int64) *scenario.Plan

	// telemetry, when non-nil, is the telemetry configuration attached to
	// every build. Sampling records each DCI's PFQ backlog and active PFQ
	// count; sampling every registered instrument (SampleAll) would grow the
	// collective's run to gigabytes of series.
	telemetry *metrics.Options
}

// workloads are the benchmark's named inputs at full scale. BENCHMARK.json
// records why each was chosen and which layers it should and should not move.
var workloads = []spec{
	{
		name: "dumbbell-websearch-sharded", alg: topo.AlgMLCC,
		dumbbell: true, hosts: 32, shards: 2, audit: true, inputs: 5,
		cdf: "websearch", intra: 0.5, cross: 0.2, window: 5 * sim.Millisecond,
	},
	{
		name: "twodc-hadoop-dcqcn", alg: topo.AlgDCQCN,
		hosts: 8, shards: 1, inputs: 8,
		cdf: "hadoop", intra: 0.5, cross: 0.2, window: 5 * sim.Millisecond,
	},
	{
		name: "twodc-collective-telemetry", alg: topo.AlgMLCC,
		hosts: 8, shards: 1, inputs: 4,
		plan: func(seed int64) *scenario.Plan {
			return &scenario.Plan{
				Seed: seed,
				Name: "collective-telemetry",
				Collectives: []scenario.Collective{
					{Name: "ring", Workers: 16, Tensor: 1 << 20, Phases: 8, Gap: 5 * sim.Microsecond},
				},
				Tenants: []scenario.Tenant{
					{Name: "web", Workload: "websearch", IntraLoad: 0.3, CrossLoad: 0.1, Duration: 10 * sim.Millisecond},
				},
			}
		},
		telemetry: &metrics.Options{
			Metrics:            true,
			FlightRecorderSize: 64 << 10,
			SampleInterval:     100 * sim.Microsecond,
		},
	},
}

// short returns a scaled-down variant of s that runs in well under a second:
// the same algorithm, planes and traffic mix on a smaller topology with a
// shorter arrival window and two inputs. Tests use it; it has no pinned
// digest.
func (s spec) short() spec {
	s.name += "-short"
	s.inputs = 2
	s.window = 500 * sim.Microsecond
	if s.dumbbell {
		s.hosts = 4
	} else {
		s.hosts = 2
	}
	if s.plan != nil {
		full := s.plan
		s.plan = func(seed int64) *scenario.Plan {
			p := full(seed)
			p.Collectives[0].Workers = 4
			p.Collectives[0].Tensor = 64 << 10
			p.Collectives[0].Phases = 2
			p.Tenants[0].Duration = 500 * sim.Microsecond
			return p
		}
	}
	return s
}

func lookup(name string, short bool) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			if short {
				s = s.short()
			}
			return s, nil
		}
	}
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// instance is one built, flow-registered network ready to run.
type instance struct {
	spec     spec
	seed     int64
	n        *topo.Network
	tel      *metrics.Telemetry
	runner   *scenario.Runner
	deadline sim.Time

	// Setup phase timings and sizes.
	buildS, generateS, bindS float64
	registered               int
}

// setup builds the topology, generates or binds the traffic and registers
// every flow, exactly as mlcc.Run does for the equivalent Config. wrapAlg,
// when non-nil, decorates the congestion-control factory before the build.
func (s spec) setup(seed int64, wrapAlg func(topo.AlgFactory) topo.AlgFactory) (*instance, error) {
	in := &instance{spec: s, seed: seed}
	t0 := time.Now()
	p := topo.DefaultParams()
	p.HostsPerLeaf = s.hosts
	p.Seed = seed
	p.Shards = s.shards
	p = p.WithAlgorithm(s.alg)
	if wrapAlg != nil {
		p.Alg = wrapAlg(p.Alg)
	}
	if s.audit {
		p.Audit = audit.New()
	}
	if s.telemetry != nil {
		in.tel = metrics.New(*s.telemetry)
		p.Telemetry = in.tel
	}
	var plan *scenario.Plan
	if s.plan != nil {
		plan = s.plan(seed)
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		in.deadline = 20*plan.Horizon() + 100*sim.Millisecond +
			sim.Time(32*(plan.MaxPhases()+2))*p.LongHaulDelay
	} else {
		in.deadline = 20*s.window + 100*sim.Millisecond
	}
	if s.dumbbell {
		p.HostRate = 100 * sim.Gbps
		in.n = topo.Dumbbell(p)
	} else {
		in.n = topo.TwoDC(p)
	}
	in.buildS = time.Since(t0).Seconds()

	n := in.n
	if in.tel != nil {
		for i, d := range n.DCIs {
			in.tel.SampleGauge(fmt.Sprintf("bench.dci%d.pfq_backlog_bytes", i), trace.Gauge,
				func() float64 { return float64(d.PFQTotalBacklog()) })
			in.tel.SampleGauge(fmt.Sprintf("bench.dci%d.active_pfqs", i), trace.Gauge,
				func() float64 { return float64(d.ActivePFQs()) })
		}
	}
	if plan != nil {
		t1 := time.Now()
		r, err := scenario.Bind(plan, n)
		if err != nil {
			return nil, err
		}
		in.runner = r
		in.bindS = time.Since(t1).Seconds()
	} else {
		t1 := time.Now()
		cdf, err := workload.ByName(s.cdf)
		if err != nil {
			return nil, err
		}
		flows, err := workload.Generate(workload.Spec{
			CDF:       cdf,
			IntraLoad: s.intra,
			CrossLoad: s.cross,
			HostRate:  n.P.HostRate,
			IntraRate: n.PerHostBisection(),
			CrossRate: n.P.FabricRate,
			Hosts:     n.NumHosts(),
			Duration:  s.window,
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		if len(flows) == 0 {
			return nil, fmt.Errorf("%s: seed %d generated no flows", s.name, seed)
		}
		in.generateS = time.Since(t1).Seconds()
		for _, fs := range flows {
			n.AddFlow(fs.Src, fs.Dst, fs.Size, fs.Start)
		}
	}
	in.registered = n.Table.Len()
	return in, nil
}
