package serve

import (
	"encoding/json"
	"errors"
	"testing"

	"xcache/internal/check"
	"xcache/internal/dram"
	"xcache/internal/mem"
	"xcache/internal/sim"
)

// outageConfig is the graceful-degradation proof fixture: governed
// high-priority tenants at 1.5x overload over 2 channels, with one
// channel going hard-dark mid-run and returning before the arrival
// window closes.
const (
	outageStart = 20_000
	outageLen   = 8_000
)

func outageConfig(seed uint64) Config {
	return Config{
		Shards:   4,
		Channels: 2,
		Tenants: []TenantGroup{
			{Count: 16, Priority: 0, Rate: 0.02},
			{Count: 8, Priority: 7, Rate: 0.02, SLO: 6000},
		},
		Keys:     1 << 13,
		Duration: 60_000,
		Seed:     seed,
		Overload: 1.5,
		Faults: check.FaultConfig{
			Channels: []check.ChannelFault{
				{Channel: 1, Mode: check.ChanOutage, Start: outageStart, Cycles: outageLen},
			},
		},
	}
}

// TestChannelOutageRecovery is the deterministic graceful-degradation
// proof from the issue: under a seeded channel outage at 1.5x load,
// (a) no conservation-audit violation (a violation fails Run), (b) SLO
// attainment for the highest-priority tenants recovers to at least its
// pre-fault level within a bounded number of epochs after the channel
// returns, and (c) the report is byte-stable across same-seed reruns.
func TestChannelOutageRecovery(t *testing.T) {
	r := run(t, outageConfig(42))
	checkLedger(t, r)

	// The outage must actually have happened and been detected.
	if r.Faults == nil || r.Faults.ChanFaults == 0 {
		t.Fatal("outage episode never fired")
	}
	if r.Degraded == nil || r.Degraded.Quarantines == 0 {
		t.Fatal("outage never quarantined the channel")
	}
	if r.Degraded.Resteered == 0 {
		t.Error("no traffic re-steered around the dead channel")
	}
	if r.Degraded.EndedDegraded {
		t.Error("channel still quarantined at end of run — half-open probe never re-admitted it")
	}
	ch1 := r.DRAM.Channels[1]
	if ch1.OutageCycles == 0 {
		t.Error("channel 1 reports no outage cycles")
	}
	if ch1.State != "healthy" {
		t.Errorf("channel 1 ended %s, want healthy", ch1.State)
	}

	// (b) Highest-priority SLO attainment recovers. The series is one
	// sample per epoch; compare the pre-fault floor against the best
	// level reached in the bounded window after the channel returns.
	if r.SLO == nil {
		t.Fatal("no SLO report")
	}
	var series []float64
	for _, a := range r.SLO.Attainment {
		if a.Priority == 7 {
			series = series[:0]
			series = append(series, a.Series...)
		}
	}
	if len(series) == 0 {
		t.Fatal("no priority-7 attainment series")
	}
	epoch := r.Config.SLOEpoch
	preEnd := outageStart / epoch // epochs fully before the fault
	preMin := 1.0
	pre := 0
	for _, v := range series[:preEnd] {
		if v >= 0 {
			pre++
			if v < preMin {
				preMin = v
			}
		}
	}
	if pre == 0 {
		t.Fatal("no governed traffic before the fault")
	}
	// Bounded recovery: within recoveryEpochs epochs of the channel
	// returning, attainment must touch the pre-fault floor again.
	const recoveryEpochs = 16
	recStart := (outageStart + outageLen) / epoch
	recEnd := recStart + recoveryEpochs
	if recEnd > len(series) {
		recEnd = len(series)
	}
	recovered := false
	for _, v := range series[recStart:recEnd] {
		if v >= preMin {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Errorf("priority-7 attainment never recovered to pre-fault floor %.3f within %d epochs after the outage (post series %v)",
			preMin, recoveryEpochs, series[recStart:recEnd])
	}

	// (c) Byte-stable: a same-seed rerun is identical.
	b1, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b2, err := json.Marshal(run(t, outageConfig(42)))
	if err != nil {
		t.Fatalf("marshal rerun: %v", err)
	}
	if string(b1) != string(b2) {
		t.Error("same-seed outage reruns differ")
	}
}

// TestDegradedErrorType: the typed error carries the channel context,
// and its text is what the report's degraded.errors strings hold.
func TestDegradedErrorType(t *testing.T) {
	err := error(&DegradedError{Channel: 1, Cycle: 20512, Reason: "no progress for 512 cycles"})
	var de *DegradedError
	if !errors.As(err, &de) || de.Channel != 1 || de.Cycle != 20512 {
		t.Fatalf("errors.As lost fields: %+v", de)
	}
	want := "serve: degraded: channel 1 quarantined at cycle 20512 (no progress for 512 cycles)"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

// freezeAfter is a test disruptor: the channel goes hard-dark from a
// fixed cycle onward.
type freezeAfter sim.Cycle

func (f freezeAfter) ChannelState(c sim.Cycle) (bool, bool, int) {
	return c >= sim.Cycle(f), false, 0
}

// TestMuxFailover drives the mux directly: two channels, one frozen
// permanently mid-run. Requests natively owned by the dead channel must
// still complete (re-steered to the healthy one), the dead channel must
// be quarantined, and new traffic must flow entirely through the healthy
// channel.
func TestMuxFailover(t *testing.T) {
	k := sim.NewKernel()
	img := mem.NewImage()
	base := img.AllocWords(1 << 12)
	for i := 0; i < 1<<12; i++ {
		img.W64(base+uint64(i)*8, uint64(i))
	}
	cfg0, cfg1 := dram.DefaultConfig(), dram.DefaultConfig()
	cfg0.Name, cfg1.Name = "ch0", "ch1"
	d0 := dram.New(k, cfg0, img)
	d1 := dram.New(k, cfg1, img)
	d1.Disrupt = freezeAfter(100)

	reqs := []*sim.Queue[dram.Request]{sim.NewQueue[dram.Request](k, "t.req", 256)}
	resps := []*sim.Queue[dram.Response]{sim.NewQueue[dram.Response](k, "t.resp", 256)}
	m := newDRAMMux(k, []*dram.DRAM{d0, d1}, PolicyInterleave, reqs, resps)

	// Open-loop: issue one read per cycle, alternating rows so both
	// channels own traffic; run long enough for quarantine + steady
	// re-steered service.
	const n = 512
	issued, returned := 0, 0
	rows := cfg0.RowBytes
	ok := k.RunUntil(func() bool {
		if issued < n && reqs[0].CanPush() {
			reqs[0].MustPush(dram.Request{
				ID:    uint64(issued),
				Addr:  base + uint64(issued)%(2*rows/8)*8, // alternate channel rows
				Words: 1,
			})
			issued++
		}
		for {
			if _, o := resps[0].Pop(); !o {
				break
			}
			returned++
		}
		return returned == n
	}, 50_000)

	// Requests already inside the frozen channel when it died are lost
	// (no controller retry path in this harness), so demand completion of
	// everything issued after quarantine plus everything channel 0 owned.
	if m.chans[1].health != chanQuarantined && m.chans[1].health != chanProbing {
		t.Fatalf("dead channel health %v, want quarantined/probing", m.chans[1].health)
	}
	if m.resteered == 0 {
		t.Fatal("no requests re-steered off the dead channel")
	}
	lost := issued - returned
	stuck := d1.Pending() + d1.Req.Len()
	if !ok && lost > stuck {
		t.Fatalf("%d requests missing but only %d stuck in the dead channel", lost, stuck)
	}
	if !m.degraded() {
		t.Fatal("mux.degraded() false with a quarantined channel")
	}
}

// TestMultiChannelKnee pins the scale story: with 2 channels the
// shed-at-saturation knee sits at a strictly higher tenant count than
// with 1. The data bus is throttled so channel bandwidth is the binding
// resource (utilization hits ~1.0 at the knee), buckets are wide open,
// and retries are off with long deadlines so shedding is pure ingress
// queue-shed at the bandwidth equilibrium — not a retry storm.
func TestMultiChannelKnee(t *testing.T) {
	counts := []int{2, 4, 8, 16}
	const kneeShed = 0.10
	dc := dram.DefaultConfig()
	dc.TBusPerWord = 16
	knee := func(channels int) int {
		for i, n := range counts {
			r := run(t, Config{
				Shards:      4,
				Channels:    channels,
				DRAM:        dc,
				Tenants:     []TenantGroup{{Count: n, Rate: 0.025}},
				Keys:        1 << 16, // mostly-miss: every request reaches DRAM
				Duration:    12_000,
				MaxCycles:   96_000,
				Seed:        9,
				BucketRate:  1,
				BucketBurst: 64,
				Deadline:    30_000,
				Timeout:     15_000,
				Retries:     0,
				Watchdog:    60_000,
			})
			checkLedger(t, r)
			if r.Totals.ShedRate >= kneeShed {
				return i
			}
		}
		return len(counts)
	}
	k1, k2 := knee(1), knee(2)
	if k1 >= len(counts) {
		t.Fatalf("single channel never hit the %.0f%% shed knee — load too low to measure", 100*kneeShed)
	}
	if k2 <= k1 {
		t.Errorf("knee did not move: 1-channel knee at %d tenants, 2-channel at %d",
			counts[k1], counts[min(k2, len(counts)-1)])
	}
}
