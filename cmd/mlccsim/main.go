// Command mlccsim runs one workload simulation on the two-datacenter
// topology and prints an FCT summary.
//
// Examples:
//
//	mlccsim -alg mlcc -workload websearch -intra 0.5 -cross 0.2
//	mlccsim -alg dcqcn -workload hadoop -intra 0.3 -cross 0.1 -duration 10ms
//	mlccsim -alg hpcc -fb-loss 0.3 -fb-corrupt 0.2 -audit
//	mlccsim -alg mlcc -scenario plan.json
//	mlccsim -alg mlcc -scenario-kind collective
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"mlcc"
	"mlcc/internal/prof"
)

func main() { os.Exit(run()) }

// run is the command body. It returns the exit status instead of calling
// os.Exit, so deferred cleanup, such as finishing the profiles, runs on every path.
func run() (code int) {
	var (
		alg      = flag.String("alg", "mlcc", "congestion control algorithm: "+strings.Join(mlcc.Algorithms(), ", "))
		wl       = flag.String("workload", "websearch", "traffic distribution: "+strings.Join(mlcc.Workloads(), ", "))
		intra    = flag.Float64("intra", 0.5, "intra-DC load (fraction of per-host bisection capacity)")
		cross    = flag.Float64("cross", 0.2, "cross-DC load (fraction of long-haul capacity)")
		duration = flag.Duration("duration", 5*time.Millisecond, "flow arrival window")
		hosts    = flag.Int("hosts-per-leaf", 8, "servers per rack (paper scale: 32)")
		longhaul = flag.Duration("longhaul", 3*time.Millisecond, "inter-DC propagation delay")
		dumbbell = flag.Bool("dumbbell", false, "use the testbed dumbbell topology")
		shards   = flag.Int("shards", 1, "per-DC simulation engines (2 = parallel shards; results are bit-identical)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		flowsIn  = flag.String("flows", "", "replay a flow trace file instead of generating traffic")
		flowsOut = flag.String("save-flows", "", "write the generated workload to a trace file")
		fctOut   = flag.String("fct", "", "write per-flow completion times to a CSV file")

		scenIn   = flag.String("scenario", "", "run the composed scenario from this JSON plan file instead of generating traffic")
		scenKind = flag.String("scenario-kind", "", "run a canonical acceptance scenario: "+strings.Join(mlcc.ScenarioKinds(), ", "))

		faultIn  = flag.String("fault-plan", "", "inject the scripted link/node faults from this JSON plan file")
		wanLoss  = flag.Float64("wan-loss", 0, "Bernoulli loss probability on the long-haul link for the whole run")
		useAudit = flag.Bool("audit", false, "enable the end-to-end conservation audit (exits non-zero on any violation)")

		useGuard    = flag.Bool("guard", false, "arm the runtime guard plane (PFC pause-storm watchdog, pause-cycle deadlock detector, global progress supervisor)")
		guardStallK = flag.Int("guard-stall-k", 0, "progress-supervisor stall threshold in max-RTTs (0 = guard default; implies -guard)")

		fbLoss    = flag.Float64("fb-loss", 0, "drop probability for feedback frames (ACK/CNP/Switch-INT) at every host's feedback ingress")
		fbCorrupt = flag.Float64("fb-corrupt", 0, "INT-stack corruption probability for feedback frames at every host")
		fbDelay   = flag.Duration("fb-delay", 0, "fixed extra delay on every feedback frame")
		fbJitter  = flag.Duration("fb-jitter", 0, "max uniform random extra feedback delay (bounded reordering)")
		watchdogK = flag.Int("watchdog-k", 0, "arm the feedback-silence watchdog at K round-trips (0 = off, or the default K when a -fb-* flag is given)")

		useMetrics = flag.Bool("metrics", false, "enable the telemetry metrics registry")
		flightN    = flag.Int("flight-recorder", 0, "keep the last N packet-lifecycle events in a flight recorder")
		telOut     = flag.String("telemetry-out", "", "write manifest.json/series.csv/flight.log to this directory (implies -metrics)")
		sampleIvl  = flag.Duration("sample", 0, "telemetry time-series sampling interval (default 100µs when -telemetry-out is set)")
		serveAddr  = flag.String("serve", "", "serve live observability HTTP (/metrics, /manifest, /flight, /trace, /debug/pprof) on this address during and after the run (implies -metrics); Ctrl-C to exit")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile to this file when the run ends")
	)
	flag.Parse()
	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlccsim:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	cfg := mlcc.Config{
		Algorithm:     *alg,
		Workload:      *wl,
		IntraLoad:     *intra,
		CrossLoad:     *cross,
		Duration:      mlcc.Time(duration.Nanoseconds()) * mlcc.Nanosecond,
		HostsPerLeaf:  *hosts,
		LongHaulDelay: mlcc.Time(longhaul.Nanoseconds()) * mlcc.Nanosecond,
		Dumbbell:      *dumbbell,
		Audit:         *useAudit,
		Seed:          *seed,
	}
	if *telOut != "" {
		*useMetrics = true
		if *sampleIvl == 0 {
			*sampleIvl = 100 * time.Microsecond
		}
	}
	if *serveAddr != "" {
		*useMetrics = true
	}
	if *useMetrics || *flightN > 0 {
		cfg.Telemetry = mlcc.NewTelemetry(mlcc.TelemetryOptions{
			Metrics:            *useMetrics,
			FlightRecorderSize: *flightN,
			SampleInterval:     mlcc.Time(sampleIvl.Nanoseconds()) * mlcc.Nanosecond,
			SampleAll:          true,
		})
	}
	if *scenIn != "" && *scenKind != "" {
		fmt.Fprintln(os.Stderr, "mlccsim: -scenario and -scenario-kind are mutually exclusive")
		return 2
	}
	if *scenIn != "" {
		f, err := os.Open(*scenIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
		cfg.Scenario, err = mlcc.ReadScenarioPlan(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
	}
	if *scenKind != "" {
		totalHosts := 2 * 4 * *hosts
		if *dumbbell {
			totalHosts = 2 * *hosts
		}
		plan, err := mlcc.CanonicalScenario(*scenKind, totalHosts, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 2
		}
		cfg.Scenario = plan
	}
	if cfg.Scenario != nil && !explicit["longhaul"] {
		// Let a plan profile reshape the haul: only an explicit -longhaul
		// overrides it (mlcc.Run treats a zero delay as "use the default").
		cfg.LongHaulDelay = 0
	}
	if *faultIn != "" {
		f, err := os.Open(*faultIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
		cfg.Fault, err = mlcc.ReadFaultPlan(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
	}
	if *wanLoss > 0 {
		if cfg.Fault == nil {
			cfg.Fault = &mlcc.FaultPlan{Seed: *seed}
		}
		cfg.Fault.Loss = append(cfg.Fault.Loss, mlcc.FaultLossRule{Link: "longhaul", Prob: *wanLoss})
	}
	if *fbLoss > 0 || *fbCorrupt > 0 || *fbDelay > 0 || *fbJitter > 0 {
		if cfg.Fault == nil {
			cfg.Fault = &mlcc.FaultPlan{Seed: *seed}
		}
		cfg.Fault.Feedback = append(cfg.Fault.Feedback, mlcc.FaultFeedbackRule{
			Host:    "*",
			Drop:    *fbLoss,
			Corrupt: *fbCorrupt,
			Delay:   mlcc.Time(fbDelay.Nanoseconds()) * mlcc.Nanosecond,
			Jitter:  mlcc.Time(fbJitter.Nanoseconds()) * mlcc.Nanosecond,
		})
		// Feedback under attack without a watchdog decays nothing; arm the
		// default unless the user chose a K (or explicitly left it off with
		// a JSON plan instead of flags).
		if *watchdogK == 0 {
			*watchdogK = mlcc.DefaultFBWatchdogK
		}
	}
	cfg.FBWatchdogK = *watchdogK
	if *useGuard || *guardStallK > 0 {
		cfg.Guard = &mlcc.GuardConfig{StallK: *guardStallK}
	}
	nShards, warns, err := validateShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlccsim:", err)
		return 2
	}
	for _, w := range warns {
		fmt.Fprintln(os.Stderr, "mlccsim:", w)
	}
	cfg.Shards = nShards
	if *flowsIn != "" {
		f, err := os.Open(*flowsIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
		totalHosts := 2 * 4 * *hosts // leaves per DC × hosts per leaf × 2 DCs
		if *dumbbell {
			totalHosts = 2 * *hosts
		}
		cfg.Flows, err = mlcc.ReadFlows(f, totalHosts)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
	}
	var obsSrv *mlcc.ObsServer
	if *serveAddr != "" {
		obsSrv = mlcc.NewObsServer()
		addr, err := obsSrv.Serve(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "mlccsim: observability server on http://%s\n", addr)
		cfg.Obs = obsSrv
	}
	t0 := time.Now()
	res, err := mlcc.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlccsim:", err)
		return 1
	}
	if *flowsOut != "" {
		f, err := os.Create(*flowsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
		if err := mlcc.WriteFlows(f, res.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
		f.Close()
	}
	if *fctOut != "" {
		f, err := os.Create(*fctOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
		if err := res.FCT.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
		f.Close()
	}
	if *telOut != "" {
		if err := cfg.Telemetry.WriteDir(*telOut); err != nil {
			fmt.Fprintln(os.Stderr, "mlccsim:", err)
			return 1
		}
	}
	fmt.Printf("algorithm      %s\n", *alg)
	if cfg.Scenario != nil {
		fmt.Printf("scenario       %s (%d components)\n", cfg.Scenario.Name, len(cfg.Scenario.Components()))
	} else {
		fmt.Printf("workload       %s (intra %.0f%%, cross %.0f%%)\n", *wl, *intra*100, *cross*100)
	}
	fmt.Printf("flows          %d (%d completed, %d unfinished)\n", res.Flows, res.Completed, res.Unfinished)
	if cfg.Fault != nil {
		fmt.Printf("aborted flows  %d\n", res.Aborted)
		fmt.Printf("fault drops    %d\n", res.FaultDrops)
	}
	if res.NodeCrashes+res.NodeRestarts+res.SwitchFails+res.SwitchRecovers > 0 {
		fmt.Printf("node faults    %d crashes, %d restarts, %d switch fails, %d recovers\n",
			res.NodeCrashes, res.NodeRestarts, res.SwitchFails, res.SwitchRecovers)
	}
	if res.FBDrops > 0 || res.FBCorrupts > 0 || res.InvalidINT > 0 {
		fmt.Printf("fb faults      %d dropped, %d corrupted, %d invalid INT discarded\n",
			res.FBDrops, res.FBCorrupts, res.InvalidINT)
	}
	if cfg.FBWatchdogK > 0 {
		fmt.Printf("watchdog       K=%d: %d decays, %d recovers\n",
			cfg.FBWatchdogK, res.WatchdogDecays, res.WatchdogRecovers)
	}
	fmt.Printf("avg FCT intra  %v\n", res.AvgFCTIntra)
	fmt.Printf("avg FCT cross  %v\n", res.AvgFCTCross)
	fmt.Printf("avg FCT        %v\n", res.AvgFCT)
	fmt.Printf("p99.9 intra    %v\n", res.P999Intra)
	fmt.Printf("p99.9 cross    %v\n", res.P999Cross)
	fmt.Printf("PFC pauses     %d\n", res.PFCPauses)
	fmt.Printf("drops          %d\n", res.Drops)
	for _, cs := range res.Collectives {
		state := "finished"
		if cs.Failed {
			state = "FAILED"
		} else if !cs.Finished {
			state = "unfinished"
		}
		fmt.Printf("collective %-10s %s, %d/%d phases, last barrier at %v\n",
			cs.Name, state, cs.PhasesDone, cs.Phases, cs.FinishedAt)
	}
	if res.Tenants != nil {
		for _, name := range res.Tenants.Names() {
			avg, _ := res.Tenants.AvgFCT(name)
			p99, _ := res.Tenants.Percentile(name, 0.99)
			fmt.Printf("tenant %-12s %d done, %d aborted, %d bytes, avg FCT %v, p99 %v\n",
				name, res.Tenants.Completed(name), res.Tenants.Aborted(name),
				res.Tenants.CompletedBytes(name), avg, p99)
		}
		fmt.Printf("fairness       %.3f (Jain, completed bytes)\n", res.Tenants.Fairness())
	}
	if cfg.Guard != nil {
		fmt.Printf("guard          %d storms, %d deadlocks, %d stalls\n",
			res.GuardStorms, res.GuardDeadlocks, res.GuardStalls)
	}
	if *useAudit {
		if len(res.AuditProblems) > 0 {
			fmt.Printf("audit          %d conservation problem(s)\n", len(res.AuditProblems))
		} else {
			fmt.Printf("%s\n", res.Audit)
		}
	}
	fmt.Printf("elapsed        %v\n", time.Since(t0).Round(time.Millisecond))

	// A run that finished but failed an invariant exits non-zero with one
	// diagnostic line, so scripted callers don't have to parse the summary.
	var failure string
	switch {
	case len(res.AuditProblems) > 0:
		failure = fmt.Sprintf("audit: %d conservation problem(s), first: %s",
			len(res.AuditProblems), res.AuditProblems[0])
	case res.Stalled:
		failure = "guard: run stalled: " + res.StallReason
	case res.Aborted > 0 && cfg.Fault == nil:
		failure = fmt.Sprintf("%d flow(s) aborted with no fault plan attached", res.Aborted)
	}
	if failure != "" {
		fmt.Fprintln(os.Stderr, "mlccsim:", failure)
	}
	if obsSrv != nil {
		fmt.Fprintf(os.Stderr, "mlccsim: serving final snapshot on http://%s; Ctrl-C to exit\n", obsSrv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		obsSrv.Close()
	}
	if failure != "" {
		return 1
	}
	return 0
}
