// Command xcache-serve runs the overload-safe multi-tenant X-Cache
// service (internal/serve): N controller shards over M DRAM channels
// behind a failover mux, fed by synthetic open-loop tenant streams, with
// SLO-governed admission control, backpressure, deadlines/retries, and
// per-shard circuit breakers. It prints the full stats report as JSON on
// stdout.
//
// Usage:
//
//	xcache-serve -shards 4 -tenants "8@0:rate=0.05;56@2:rate=0.01,skew=1.2"
//	xcache-serve -overload 2.0 -duration 200000       # the 2x overload experiment
//	xcache-serve -sweep 1,8,64,512                    # tenant-count sweep (JSON array)
//	xcache-serve -chaos -seed 42                      # deterministic chaos soak
//	xcache-serve -channels 4 -channel-policy affine   # multi-channel DRAM
//	xcache-serve -slo 4096                            # p99 budget for all tenants
//	xcache-serve -channels 2 -chaos-channel "1:outage:20000+8000"
//
// Like xcache-sim, failures are machine-readable: a JSON failure record
// on stderr plus a kind-specific exit code. Three extra codes classify
// *successful but degraded* runs, with fatal > degraded > breaker >
// overload:
//
//	0  clean: served within capacity
//	1  usage / configuration error (including a bad or unknown flag)
//	2  stall (watchdog: no forward progress)
//	3  invariant violation (including shared-state corruption and overflow)
//	4  cycle budget exhausted
//	7  overload: the run shed ≥ 20% of offered load (admission control dominated)
//	8  breaker: at least one shard's circuit breaker tripped during the run
//	9  degraded: a DRAM channel was still quarantined when the run ended
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xcache/internal/check"
	"xcache/internal/serve"
)

// Exit codes for degraded-but-successful runs.
const (
	exitClean    = 0
	exitUsage    = 1
	exitOverload = 7
	exitBreaker  = 8
	exitDegraded = 9
)

// overloadShedFrac is the shed fraction at or above which a successful
// run is classified overload-dominated (exit 7).
const overloadShedFrac = 0.20

func main() {
	shards := flag.Int("shards", 4, "controller shards")
	channels := flag.Int("channels", 1, "independent DRAM channels behind the mux")
	chanPolicy := flag.String("channel-policy", "interleave", "channel steering: interleave|affine")
	tenants := flag.String("tenants", "64:rate=0.01",
		"tenant mix: COUNT[@PRIO][:rate=F,skew=F,burst=LEN/DUTY,slo=CYCLES];... (prio 7 sheds last)")
	slo := flag.Int("slo", 0, "default p99 latency budget in cycles for groups without slo= (0 = ungoverned)")
	keys := flag.Int("keys", 1<<16, "shared key-space size")
	duration := flag.Int("duration", 50_000, "arrival window in cycles")
	seed := flag.Uint64("seed", 1, "run seed (same seed → byte-identical stats)")
	overload := flag.Float64("overload", 1.0, "offered-load multiplier (2.0 = 2x overload experiment)")
	sweep := flag.String("sweep", "", "comma-separated total tenant counts to sweep (e.g. 1,8,64,512)")
	deadline := flag.Int("deadline", 8192, "per-request deadline in cycles")
	timeout := flag.Int("timeout", 2048, "per-attempt timeout in cycles")
	retries := flag.Int("retries", 2, "retry budget per request")
	watchdog := flag.Int("watchdog", 50_000, "stall window in cycles")
	chaos := flag.Bool("chaos", false, "inject the full seeded fault cocktail")
	drop := flag.Float64("drop", 0, "DRAM response drop probability")
	delay := flag.Float64("delay", 0, "DRAM response delay probability")
	clog := flag.Float64("clog", 0, "queue clog probability per queue-cycle")
	flip := flag.Float64("flip", 0, "meta-tag bit-flip probability per cycle")
	chaosChannel := flag.String("chaos-channel", "",
		"channel fault episodes: CH:MODE:START+LEN[+EXTRA];... (mode outage|stall|burst)")
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(exitClean)
		}
		fail(err, "usage", exitUsage)
	}

	groups, err := serve.ParseTenantSpec(*tenants)
	if err != nil {
		fail(err, "usage", exitUsage)
	}
	if *slo > 0 {
		for i := range groups {
			if groups[i].SLO == 0 {
				groups[i].SLO = *slo
			}
		}
	}
	policy, err := serve.ParseChannelPolicy(*chanPolicy)
	if err != nil {
		fail(err, "usage", exitUsage)
	}
	faults := check.FaultConfig{DropResp: *drop, DelayResp: *delay, ClogQueue: *clog, FlipBit: *flip}
	if *chaos {
		faults = check.FaultConfig{DropResp: 0.01, DelayResp: 0.02, DelayMax: 128, ClogQueue: 0.002, FlipBit: 0.0005}
	}
	if *chaosChannel != "" {
		cf, err := check.ParseChannelFaults(*chaosChannel)
		if err != nil {
			fail(err, "usage", exitUsage)
		}
		faults.Channels = cf
	}
	base := serve.Config{
		Shards: *shards, Channels: *channels, ChannelPolicy: policy,
		Tenants: groups, Keys: *keys, Duration: *duration,
		Seed: *seed, Overload: *overload, Deadline: *deadline, Timeout: *timeout,
		Retries: *retries, Watchdog: *watchdog, Faults: faults,
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	if *sweep == "" {
		r := runOne(base)
		if err := enc.Encode(r); err != nil {
			fail(err, "usage", exitUsage)
		}
		summarize(r)
		os.Exit(classify(r))
	}

	var totals []int
	for _, tok := range strings.Split(*sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			fail(fmt.Errorf("bad -sweep entry %q", tok), "usage", exitUsage)
		}
		totals = append(totals, n)
	}
	code := exitClean
	var reports []*serve.Report
	for _, total := range totals {
		cfg := base
		cfg.Tenants = serve.ScaleTenants(groups, total)
		r := runOne(cfg)
		reports = append(reports, r)
		summarize(r)
		if c := classify(r); c > code {
			code = c
		}
	}
	if err := enc.Encode(reports); err != nil {
		fail(err, "usage", exitUsage)
	}
	os.Exit(code)
}

// runOne builds and runs one service configuration, terminating the
// process with a structured failure record if the run fails.
func runOne(cfg serve.Config) *serve.Report {
	s, err := serve.New(cfg)
	if err != nil {
		fail(err, "usage", exitUsage)
	}
	r, err := s.Run()
	if err != nil {
		f := serveFailure{Error: err.Error(), Kind: "usage"}
		code := exitUsage
		var cf *check.Failure
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
			}
			if rep := cf.Report; rep != nil {
				f.Cycle = int64(rep.Cycle)
				f.StallCycles = int64(rep.StallCycles)
				f.StuckQueues = rep.StuckQueues()
				f.Report = rep
			}
		}
		emit(f)
		os.Exit(code)
	}
	return r
}

// classify maps a successful report onto the degraded exit codes: a
// still-quarantined channel outranks breaker trips, which outrank
// overload shedding.
func classify(r *serve.Report) int {
	if r.Degraded != nil && r.Degraded.EndedDegraded {
		return exitDegraded
	}
	for _, sh := range r.Shards {
		if sh.BreakerTrips > 0 {
			return exitBreaker
		}
	}
	if r.Totals.ShedRate >= overloadShedFrac {
		return exitOverload
	}
	return exitClean
}

// summarize prints a one-line human summary per run on stderr (stdout
// stays pure JSON).
func summarize(r *serve.Report) {
	var trips uint64
	for _, sh := range r.Shards {
		trips += sh.BreakerTrips
	}
	fmt.Fprintf(os.Stderr,
		"xcache-serve: tenants=%d shards=%d channels=%d overload=%.2g: generated=%d completed=%d shed=%.1f%% failed=%d p50=%d p99=%d p999=%d trips=%d\n",
		r.Config.TenantCount, r.Config.Shards, r.Config.Channels, r.Config.Overload,
		r.Totals.Generated, r.Totals.Completed, 100*r.Totals.ShedRate,
		r.Totals.Failed, r.Latency.P50, r.Latency.P99, r.Latency.P999, trips)
	if r.SLO != nil {
		for _, a := range r.SLO.Attainment {
			fmt.Fprintf(os.Stderr, "xcache-serve:   slo prio %d: attainment %.1f%% (%d/%d)\n",
				a.Priority, 100*a.Attainment, a.Met, a.Measured)
		}
	}
	if r.Degraded != nil {
		fmt.Fprintf(os.Stderr, "xcache-serve:   degraded: %d quarantines, %d degraded cycles, %d resteered, ended_degraded=%v\n",
			r.Degraded.Quarantines, r.Degraded.DegradedCycles, r.Degraded.Resteered, r.Degraded.EndedDegraded)
	}
}

// serveFailure is the machine-readable failure record on stderr,
// structurally identical to xcache-sim's.
type serveFailure struct {
	Error       string             `json:"error"`
	Kind        string             `json:"kind"` // stall | invariant | overflow | budget | usage
	Cycle       int64              `json:"cycle,omitempty"`
	StallCycles int64              `json:"stall_cycles,omitempty"`
	StuckQueues []string           `json:"stuck_queues,omitempty"`
	Report      *check.StallReport `json:"report,omitempty"`
}

func emit(f serveFailure) {
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		fmt.Fprintln(os.Stderr, "xcache-serve:", f.Error)
	}
}

func fail(err error, kind string, code int) {
	emit(serveFailure{Error: err.Error(), Kind: kind})
	os.Exit(code)
}
