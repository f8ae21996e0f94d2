// External tests: Run driven through the DSA runners, which import dsa.
package dsa_test

import (
	"errors"
	"strings"
	"testing"

	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/dsa/btreeidx"
	"xcache/internal/dsa/dasx"
	"xcache/internal/dsa/graphpulse"
	"xcache/internal/dsa/spgemm"
	"xcache/internal/dsa/widx"
	"xcache/internal/hashidx"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// TestUnsupervisedBudgetIsTyped: the address-cache and baseline runs have
// no harness attached, yet a blown cycle budget must still surface as a
// *check.Failure of kind budget, so the sweep runner and xcache-sim
// classify it as a budget failure rather than a malformed spec. Each
// error names its DSA and storage idiom.
func TestUnsupervisedBudgetIsTyped(t *testing.T) {
	hash := widx.DefaultWork(hashidx.TPCH()[0], 100)
	gpCfg := core.GraphPulseConfig()
	gpCfg.Sets, gpCfg.Sectors = 1024, 2048
	cases := []struct {
		prefix string
		run    func() (dsa.Result, error)
	}{
		{"widx addr:", func() (dsa.Result, error) { return widx.RunAddr(hash, widx.Options{MaxCycles: 500}) }},
		{"widx baseline:", func() (dsa.Result, error) { return widx.RunBaseline(hash, widx.Options{MaxCycles: 500}) }},
		{"dasx addr:", func() (dsa.Result, error) { return dasx.RunAddr(hash, dasx.Options{MaxCycles: 500}) }},
		{"dasx baseline:", func() (dsa.Result, error) { return dasx.RunBaseline(hash, dasx.Options{MaxCycles: 500}) }},
		{"SpArch addr:", func() (dsa.Result, error) {
			return spgemm.RunAddr(spgemm.SpArch, spgemm.P2PGnutella31(200), spgemm.Options{MaxCycles: 500})
		}},
		{"graphpulse addr:", func() (dsa.Result, error) {
			return graphpulse.RunAddr(graphpulse.P2PGnutella08(20), graphpulse.Options{Cfg: gpCfg, MaxCycles: 500})
		}},
		{"btree addr:", func() (dsa.Result, error) {
			return btreeidx.RunAddr(btreeidx.DefaultWork(200), btreeidx.Options{MaxCycles: 500})
		}},
	}
	for _, c := range cases {
		_, err := c.run()
		var f *check.Failure
		if !errors.As(err, &f) || f.Kind != check.FailBudget {
			t.Errorf("%s want a budget *check.Failure, got %v", c.prefix, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.prefix) {
			t.Errorf("error %q does not start with %q", err, c.prefix)
		}
	}
}

// TestRunTypedTrap: a trap the controller latched comes back as the
// *ctrl.Trap itself on an unsupervised run, and as a trap-kind
// *check.Failure that unwraps to it under the harness.
func TestRunTypedTrap(t *testing.T) {
	// A runaway loop passes the static verifier and traps at runtime.
	spec := program.Spec{
		Name: "runaway",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: "top: inc r5\njmp top\nhalt Valid"},
		},
	}
	for _, cfg := range []*check.Config{nil, check.Default()} {
		sys, err := core.NewSystem(core.WidxConfig().Scaled(32), dram.DefaultConfig(), spec)
		if err != nil {
			t.Fatal(err)
		}
		c := sys.Cache.Ctrl
		pushed := false
		sys.K.Add(sim.ComponentFunc(func(cy sim.Cycle) {
			if !pushed {
				pushed = c.ReqQ.Push(ctrl.MetaReq{ID: 1, Op: ctrl.MetaLoad, Key: metatag.Key{1, 0}, Issued: cy})
			}
		}))
		_, err = dsa.Run(sys.K, sys.Meter, cfg, func() bool { return c.Trap() != nil }, 100_000)
		var trap *ctrl.Trap
		if !errors.As(err, &trap) || trap.Kind != ctrl.TrapRunawayRoutine {
			t.Fatalf("supervised=%t: want a runaway *ctrl.Trap, got %v", cfg != nil, err)
		}
		var f *check.Failure
		if got := errors.As(err, &f); got != (cfg != nil) {
			t.Fatalf("supervised=%t: error is a *check.Failure: %t", cfg != nil, got)
		}
		if f != nil && f.Kind != check.FailTrap {
			t.Fatalf("supervised failure kind %s, want trap", f.Kind)
		}
	}
}
