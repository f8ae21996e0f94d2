// Fuzz harness for the verifier/trap contract. It lives in an external
// test package so it can import the real DSA walker programs as the seed
// corpus without an import cycle.
package ctrl_test

import (
	"testing"

	"xcache/internal/ctrl"
	"xcache/internal/dataram"
	"xcache/internal/dram"
	"xcache/internal/dsa/btreeidx"
	"xcache/internal/dsa/dasx"
	"xcache/internal/dsa/graphpulse"
	"xcache/internal/dsa/spgemm"
	"xcache/internal/dsa/widx"
	"xcache/internal/energy"
	"xcache/internal/isa"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// fuzzCfg is the small controller instance accepted programs execute
// against. The verifier runs with exactly these limits, so acceptance
// must imply the absence of every statically-guaranteed trap kind. The
// limits admit every real walker (registers past r7, 8-word fills,
// routines of up to 41 actions), so the seed corpus reaches execution.
func fuzzCfg() ctrl.Config {
	return ctrl.Config{NumActive: 2, NumExe: 1, NumXRegs: 16,
		MaxFillWords: 8, MaxRoutineSteps: 64}
}

func fuzzVerifyCfg() program.VerifyConfig {
	return program.VerifyConfig{NumXRegs: 16, MaxFillWords: 8,
		MaxRoutineSteps: 64, DataSectors: 8, EnvSlots: 16}
}

// seedBinaries marshals every real walker program, plus mutated variants
// that historically panicked, as the corpus. It fails if the verifier
// rejects a real walker: the fuzz targets would then replay no accepted
// program and pass without executing one.
func seedBinaries(f *testing.F) [][]byte {
	var bins [][]byte
	for _, s := range []program.Spec{
		widx.Spec(56), dasx.Spec(56), spgemm.Spec(), graphpulse.Spec(), btreeidx.Spec(),
	} {
		p, err := s.Compile()
		if err != nil {
			f.Fatal(err)
		}
		if err := program.Verify(p, fuzzVerifyCfg()); err != nil {
			f.Fatalf("fuzz limits reject a real walker: %v", err)
		}
		bin, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		bins = append(bins, bin)
		// The regression class: corrupt one immediate to a negative peek.
		for pc, in := range p.Code {
			if in.Op == isa.OpPeek && in.Imm >= 0 {
				p.Code[pc].Imm = -3
				if mut, err := p.MarshalBinary(); err == nil {
					bins = append(bins, mut)
				}
				p.Code[pc].Imm = in.Imm
				break
			}
		}
	}
	return bins
}

// FuzzVerify pins the three-layer contract:
//
//  1. UnmarshalBinary never panics on arbitrary bytes;
//  2. Verify never panics on any program that parses;
//  3. accepts-implies-no-structural-trap: executing an accepted program
//     against a controller with the same limits never raises a trap kind
//     the verifier claims to guarantee absent (illegal-op, reg-oob,
//     imm-range), and never panics.
//
// Runtime-only kinds (peek-oob on a short message, register-valued fill
// sizes and data-RAM addresses, runaway loops, missing transitions,
// duplicate allocm) are legal outcomes — the trap model's job.
func FuzzVerify(f *testing.F) {
	for _, bin := range seedBinaries(f) {
		f.Add(bin)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p program.Program
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		if err := program.Verify(&p, fuzzVerifyCfg()); err != nil {
			return
		}
		execAccepted(t, &p)
	})
}

// execAccepted runs a verifier-accepted program on a small live
// controller for a bounded number of cycles.
func execAccepted(t *testing.T, p *program.Program) {
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	tags := metatag.New(metatag.Config{Sets: 2, Ways: 2, KeyWords: 1}, meter)
	data := dataram.New(dataram.Config{Sectors: 8, WordsPerSector: 2}, meter)
	c, err := ctrl.New(k, fuzzCfg(), p, tags, data, d.Req, d.Resp, meter)
	if err != nil {
		t.Fatalf("ctrl.New rejected a program Verify accepted with the same limits: %v", err)
	}
	base := img.AllocWords(64)
	for i := 0; i < 16; i++ {
		c.SetEnv(i, base)
	}
	reqs := []ctrl.MetaReq{
		{ID: 1, Op: ctrl.MetaLoad, Key: metatag.Key{3, 0}},
		{ID: 2, Op: ctrl.MetaStore, Key: metatag.Key{5, 0}, Payload: 9},
		{ID: 3, Op: ctrl.MetaLoad, Key: metatag.Key{3, 0}},
	}
	sent := 0
	k.Add(sim.ComponentFunc(func(cy sim.Cycle) {
		for sent < len(reqs) {
			r := reqs[sent]
			r.Issued = cy
			if !c.ReqQ.Push(r) {
				return
			}
			sent++
		}
	}))
	k.Run(20_000)
	if tr := c.Trap(); tr != nil {
		switch tr.Kind {
		case ctrl.TrapIllegalOp, ctrl.TrapRegOOB, ctrl.TrapImmRange:
			t.Fatalf("statically-guaranteed trap escaped the verifier: %v", tr)
		}
	}
}
