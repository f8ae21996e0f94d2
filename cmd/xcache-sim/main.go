// Command xcache-sim runs a single DSA simulation — one accelerator, one
// workload, one storage idiom — and prints its measurements. It is the
// quickest way to poke at a configuration.
//
// Usage:
//
//	xcache-sim -dsa widx -kind xcache -query TPC-H-19 -scale 50
//	xcache-sim -dsa gamma -kind addr -scale 30
//	xcache-sim -dsa graphpulse -kind baseline -scale 10
//
// Hardening (X-Cache runs only):
//
//	xcache-sim -dsa widx -check                  # watchdog + invariant checkers
//	xcache-sim -dsa widx -faults 1e-3 -seed 7    # drop 0.1% of DRAM fills, seeded
//	xcache-sim -dsa widx -check -watchdog 20000  # custom stall window
//
// A fault run is exactly reproducible from its seed; on a wedge or
// invariant violation the process emits a structured JSON failure record
// on stderr — kind, cycle, stuck queues, and the full stall report —
// and exits with a kind-specific code so sweep drivers can triage
// without parsing prose:
//
//	0  success
//	1  usage / configuration error (including a bad or unknown flag)
//	2  stall (watchdog: no forward progress)
//	3  invariant violation (including recovered queue overflow)
//	4  cycle budget exhausted
//	5  microcode trap (structural program fault; walker quiesced)
//	6  program rejected by the static verifier at load
//	7  coherence protocol violation (multi-level hierarchy runs)
//
// Hierarchy mode runs the coherent two-level system instead of a DSA:
//
//	xcache-sim -hier mx2                  # canned 2-port scenario over a shared L2
//	xcache-sim -hier mx2 -faults 0.3      # drop 30% of snoops (retry path)
//	xcache-sim -hier mx2 -faults 1        # exhaust retries: liveness trap, exit 7
//
// In -hier mode -faults is the snoop-drop probability; coherence
// invariants (single-writer, inclusion, no-stale-fill) are always on.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"xcache/internal/check"
	"xcache/internal/ctrl"
	"xcache/internal/dsa"
	"xcache/internal/dsa/btreeidx"
	"xcache/internal/dsa/dasx"
	"xcache/internal/dsa/graphpulse"
	"xcache/internal/dsa/spgemm"
	"xcache/internal/dsa/widx"
	"xcache/internal/hashidx"
	"xcache/internal/hier"
	"xcache/internal/program"
)

func main() {
	name := flag.String("dsa", "widx", "widx | dasx | sparch | gamma | graphpulse | btreeidx")
	kind := flag.String("kind", "xcache", "xcache | addr | baseline")
	query := flag.String("query", "TPC-H-19", "TPC-H query profile (widx/dasx)")
	scale := flag.Int("scale", 25, "workload scale divisor (1 = paper scale)")
	doCheck := flag.Bool("check", false, "enable the watchdog and invariant checkers (xcache runs)")
	faults := flag.Float64("faults", 0, "DRAM read-response drop probability (enables fault injection + -check)")
	seed := flag.Uint64("seed", 1, "fault-injection seed (same seed → identical run)")
	watchdog := flag.Int("watchdog", 50_000, "cycles without forward progress before declaring a stall")
	hierMode := flag.String("hier", "", "mx2 → run the coherent 2-port hierarchy scenario instead of a DSA")
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		exit(err)
	}

	if *faults < 0 || *faults > 1 {
		fmt.Fprintln(os.Stderr, "xcache-sim: -faults must be a probability in [0, 1]")
		os.Exit(1)
	}
	if *hierMode != "" {
		if err := runHier(*hierMode, *faults, *seed, *watchdog); err != nil {
			exit(err)
		}
		return
	}
	var cc *check.Config
	if *doCheck || *faults > 0 {
		cc = &check.Config{Watchdog: *watchdog, Invariants: true, Seed: *seed}
		if *faults > 0 {
			cc.Faults = check.FaultConfig{DropResp: *faults}
		}
	}
	if cc != nil && *kind != "xcache" {
		fmt.Fprintln(os.Stderr, "xcache-sim: -check/-faults apply to -kind xcache only")
		os.Exit(1)
	}

	r, err := run(*name, *kind, *query, *scale, cc)
	if err != nil {
		exit(err)
	}
	fmt.Println(r.String())
	fmt.Printf("  cycles           %d\n", r.Cycles)
	fmt.Printf("  DRAM accesses    %d (%d words read)\n", r.DRAMAccesses, r.DRAMReadWords)
	fmt.Printf("  hit rate         %.3f\n", r.HitRate)
	fmt.Printf("  load-to-use      %.1f cycles (hits: %.1f)\n", r.AvgLoadToUse, r.HitLoadToUse)
	fmt.Printf("  on-chip energy   %.0f pJ (data %.0f, tag %.0f, rtn %.0f, ctrl %.0f)\n",
		r.Energy.OnChip(), r.Energy.DataRAM, r.Energy.TagRAM, r.Energy.RoutineRAM, r.Energy.Controller())
	fmt.Printf("  validated        %v\n", r.Checked)
	if *faults > 0 {
		fmt.Printf("  faults           %d fills dropped, %d retries, %d parity scrubs (seed %d)\n",
			r.DroppedFills, r.FillRetries, r.ParityScrubs, *seed)
	}
}

// simFailure is the machine-readable failure record emitted on stderr.
type simFailure struct {
	Error       string             `json:"error"`
	Kind        string             `json:"kind"` // stall | invariant | overflow | budget | trap | verify | coherence | usage
	TrapKind    string             `json:"trap_kind,omitempty"`
	Cycle       int64              `json:"cycle,omitempty"`
	StallCycles int64              `json:"stall_cycles,omitempty"`
	StuckQueues []string           `json:"stuck_queues,omitempty"`
	Report      *check.StallReport `json:"report,omitempty"`
	// Coherence carries the typed protocol violation (rule, key, cycle)
	// when Kind is "coherence".
	Coherence *check.CoherenceViolation `json:"coherence,omitempty"`
}

// exit classifies err through the check taxonomy, emits the structured
// JSON record on stderr, and terminates with the kind's exit code.
func exit(err error) {
	f := simFailure{Error: err.Error(), Kind: "usage"}
	code := 1
	var cf *check.Failure
	var trap *ctrl.Trap
	var ve *program.VerifyError
	var cv *check.CoherenceViolation
	if errors.As(err, &cf) {
		f.Kind = cf.Kind.String()
		switch cf.Kind {
		case check.FailStall:
			code = 2
		case check.FailInvariant, check.FailOverflow:
			code = 3
		case check.FailBudget:
			code = 4
		case check.FailTrap:
			code = 5
		case check.FailCoherence:
			code = 7
		}
		if rep := cf.Report; rep != nil {
			f.Cycle = int64(rep.Cycle)
			f.StallCycles = int64(rep.StallCycles)
			f.StuckQueues = rep.StuckQueues()
			f.Report = rep
		}
	} else if errors.As(err, &cv) {
		// A violation latched by the hierarchy directly (liveness trap or
		// per-cycle invariant), outside a supervised check.Run.
		f.Kind = "coherence"
		code = 7
	} else if errors.As(err, &trap) {
		// A trap surfaced outside a supervised run (the DSA's post-run
		// Trap() check on an unsupervised kernel).
		f.Kind = "trap"
		code = 5
	} else if errors.As(err, &ve) {
		f.Kind = "verify"
		code = 6
	}
	if errors.As(err, &trap) {
		f.TrapKind = trap.Kind.String()
	}
	if errors.As(err, &cv) {
		f.Coherence = cv
		f.Cycle = int64(cv.Cycle)
	}
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	if encErr := enc.Encode(f); encErr != nil {
		fmt.Fprintln(os.Stderr, "xcache-sim:", err)
	}
	os.Exit(code)
}

// runHier runs the canned coherent-hierarchy scenario: two L1 X-Cache
// ports over a shared inclusive L2, driven through a deterministic mix of
// read sharing, ownership migration, and capacity pressure, under the
// full per-cycle coherence invariant checker. faultProb is the seeded
// snoop-drop probability: moderate drops recover through the retry path;
// total loss exhausts the retry budget and traps with exit code 7.
func runHier(mode string, faultProb float64, seed uint64, watchdog int) error {
	if mode != "mx2" {
		return fmt.Errorf("unknown -hier mode %q (supported: mx2)", mode)
	}
	// A 64-entry shared L2 under a 128-key footprint: the cold sweep
	// forces L2 capacity evictions, so inclusion back-invalidation runs
	// as part of the scenario, not just the litmus suite.
	s, err := hier.NewCohSystem(hier.CohConfig{
		Ports:   2,
		L1:      hier.L1Config{Sets: 16, Ways: 2, WordsPerSector: 1},
		L2Sets:  16,
		L2Ways:  4,
		NumKeys: 128,
		Faults:  hier.CohFaults{DropSnoop: faultProb, Seed: seed},
	})
	if err != nil {
		return err
	}
	for i := 0; i < s.Cfg.NumKeys; i++ {
		s.Seed(i, uint64(1000+i*3))
	}
	// 512 ops per port in three interleaved flavours: shared reads over a
	// hot region, merges migrating ownership between the ports, and a
	// cold sweep that pressures the L2 into back-invalidations.
	scripts := make([][]hier.ScriptOp, 2)
	for p := 0; p < 2; p++ {
		for i := 0; i < 512; i++ {
			switch i % 3 {
			case 0:
				scripts[p] = append(scripts[p], hier.Ld(uint64((i*7+p)%32)))
			case 1:
				scripts[p] = append(scripts[p], hier.Merge(uint64(i%16), 1))
			default:
				scripts[p] = append(scripts[p], hier.Ld(uint64(32+(i*13+p*61)%96)))
			}
		}
	}
	h := check.Attach(s.K, &check.Config{Watchdog: watchdog, Invariants: true})
	if _, err := hier.RunScripts(s, h, scripts, 2_000_000); err != nil {
		return err
	}
	fmt.Printf("hier mx2: 2 ports × 512 ops over a shared inclusive L2\n")
	fmt.Printf("  cycles           %d\n", s.K.Cycle())
	for p, l1 := range s.Ports {
		st := l1.Stats()
		hitPct := 0.0
		if st.Hits+st.Misses > 0 {
			hitPct = 100 * float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		fmt.Printf("  L1[%d]            %d loads, %d stores, %.1f%% hit, %d upgrades, %d snoops, %d evictions\n",
			p, st.Loads, st.Stores, hitPct, st.Upgrades, st.Snoops, st.Evictions)
	}
	ds := s.Dir.Stats()
	fmt.Printf("  directory        %d txns, %d grants, %d invals, %d downgrades\n",
		ds.Txns, ds.Grants, ds.Invals, ds.Downgrades)
	fmt.Printf("  inclusion        %d back-invals, %d writebacks, %d flushes\n",
		ds.BackInvals, ds.Writebacks, ds.Flushes)
	if faultProb > 0 {
		fmt.Printf("  faults           %d snoops dropped, %d retried (seed %d)\n",
			ds.SnoopDrops, ds.SnoopRetry, seed)
	}
	fmt.Printf("  invariants       single-writer, inclusion, no-stale-fill held for %d cycles\n", s.K.Cycle())
	return nil
}

func run(name, kind, query string, scale int, cc *check.Config) (dsa.Result, error) {
	var profile hashidx.Profile
	found := false
	for _, p := range hashidx.TPCH() {
		if p.Name == query {
			profile, found = p, true
		}
	}
	if !found {
		return dsa.Result{}, fmt.Errorf("unknown query %q", query)
	}
	hashWork := widx.DefaultWork(profile, scale)

	switch name {
	case "widx":
		switch kind {
		case "xcache":
			return widx.RunXCache(hashWork, widx.Options{Check: cc})
		case "addr":
			return widx.RunAddr(hashWork, widx.Options{})
		case "baseline":
			return widx.RunBaseline(hashWork, widx.Options{})
		}
	case "dasx":
		switch kind {
		case "xcache":
			return dasx.RunXCache(hashWork, dasx.Options{Check: cc})
		case "addr":
			return dasx.RunAddr(hashWork, dasx.Options{})
		case "baseline":
			return dasx.RunBaseline(hashWork, dasx.Options{})
		}
	case "sparch", "gamma":
		alg := spgemm.SpArch
		if name == "gamma" {
			alg = spgemm.Gamma
		}
		w := spgemm.P2PGnutella31(scale)
		switch kind {
		case "xcache":
			return spgemm.RunXCache(alg, w, spgemm.Options{Check: cc})
		case "addr":
			return spgemm.RunAddr(alg, w, spgemm.Options{})
		case "baseline":
			return spgemm.RunBaseline(alg, w, spgemm.Options{})
		}
	case "graphpulse":
		w := graphpulse.P2PGnutella08(scale)
		switch kind {
		case "xcache":
			return graphpulse.RunXCache(w, graphpulse.Options{Check: cc})
		case "addr":
			return graphpulse.RunAddr(w, graphpulse.Options{})
		case "baseline":
			return graphpulse.RunBaseline(w, graphpulse.Options{})
		}
	case "btreeidx":
		w := btreeidx.DefaultWork(scale)
		switch kind {
		case "xcache":
			return btreeidx.RunXCache(w, btreeidx.Options{Check: cc})
		case "addr", "baseline":
			// The pure address-cache build is the baseline for B+-tree
			// probing (the paper does not define a hardwired variant).
			return btreeidx.RunAddr(w, btreeidx.Options{})
		}
	default:
		return dsa.Result{}, fmt.Errorf("unknown DSA %q", name)
	}
	return dsa.Result{}, fmt.Errorf("unknown kind %q", kind)
}
