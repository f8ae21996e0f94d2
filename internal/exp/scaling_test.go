package exp

import (
	"fmt"
	"testing"

	"xcache/internal/core"
	"xcache/internal/dsa"
	"xcache/internal/dsa/widx"
	"xcache/internal/exp/runner"
	"xcache/internal/hashidx"
)

// TestCacheDivPreservesRegime is the pure-function half of the scaling
// contract: the capacity divisor tracks the workload divisor so the
// working-set-to-capacity ratio stays inside a fixed band at every
// scale (the rounding floor makes small scales coarser).
func TestCacheDivPreservesRegime(t *testing.T) {
	for s := 6; s <= 1024; s++ {
		ratio := float64(s) / float64(runner.CacheDiv(s))
		if ratio < 3 || ratio > 4 {
			t.Fatalf("scale %d: workload/capacity divisor ratio %.2f outside [3,4]", s, ratio)
		}
		if d, d2 := runner.CacheDiv(s), runner.CacheDiv(2*s); d2 < d {
			t.Fatalf("CacheDiv not monotone: CacheDiv(%d)=%d > CacheDiv(%d)=%d", s, d, 2*s, d2)
		}
	}
	for s := 1; s < 3; s++ {
		if runner.CacheDiv(s) != 1 {
			t.Fatalf("CacheDiv(%d) = %d, want 1", s, runner.CacheDiv(s))
		}
	}
	for s := 8; s <= 1024; s++ {
		if runner.SpgemmDiv(s) < runner.SpgemmDiv(s/2) {
			t.Fatalf("SpgemmDiv not monotone at %d", s)
		}
	}
}

// TestScaledCapacityTracksWorkingSet checks the end-to-end regime: the
// Widx index size over the actual scaled cache capacity (sets × ways ×
// words, after Scaled's power-of-two rounding) stays within a bounded
// band across scales, so every scale exercises the same cache-pressure
// regime the paper's results depend on.
func TestScaledCapacityTracksWorkingSet(t *testing.T) {
	p := hashidx.TPCH()[0]
	minR, maxR := 0.0, 0.0
	for _, s := range []int{6, 12, 25, 50, 100, 200} {
		w := widx.DefaultWork(p, s)
		cfg := core.WidxConfig().Scaled(runner.CacheDiv(s))
		capacity := float64(cfg.Sets * cfg.Ways * cfg.WordsPerSector)
		r := float64(w.NumKeys) / capacity
		if minR == 0 || r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR/minR > 4 {
		t.Fatalf("working-set-to-capacity ratio drifts %.1fx across scales (band limit 4x)", maxR/minR)
	}
}

// kindOrder renders the relative ordering of the three idioms for one
// workload as a string like "xcache<addr<baseline".
func kindOrder(sw *Sweep, dsaName, workload string) (string, bool) {
	type kc struct {
		k dsa.Kind
		c uint64
	}
	var ks []kc
	for _, k := range sweepKinds {
		r, ok := sw.Get(dsaName, workload, k)
		if !ok {
			return "", false
		}
		ks = append(ks, kc{k, r.Cycles})
	}
	// Insertion sort by cycles; stable for the fixed kind order.
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j].c < ks[j-1].c; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	s := ""
	for i, e := range ks {
		if i > 0 {
			s += "<"
		}
		s += string(e.k)
	}
	return s, true
}

// TestScaleMetamorphic is the metamorphic half: doubling the scale
// divisor must not change the relative ordering of the three storage
// idioms on any workload (the Fig 14 ranking), nor flip any Fig 4
// meta-tag-vs-address-tag improvement below 1. The doubling is
// testScale/2 → testScale: past testScale the workloads hit their
// minimum-size floors (64-key indices) and leave the cache-pressure
// regime the invariant is about.
func TestScaleMetamorphic(t *testing.T) {
	swB := sweep(t) // testScale
	swA, err := RunSweep(testRunner, testScale/2)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range swA.Results {
		if r.Kind != dsa.KindXCache {
			continue
		}
		ordA, okA := kindOrder(swA, r.DSA, r.Workload)
		ordB, okB := kindOrder(swB, r.DSA, r.Workload)
		if !okA || !okB {
			t.Errorf("%s/%s missing kinds at one scale", r.DSA, r.Workload)
			continue
		}
		if ordA != ordB {
			t.Errorf("%s/%s: idiom ordering changed with scale: %s (scale %d) vs %s (scale %d)",
				r.DSA, r.Workload, ordA, testScale/2, ordB, testScale)
		}
	}

	for _, sw := range []*Sweep{swA, swB} {
		out := Fig4(sw)
		if g := out.Metrics["l2u_improvement_geomean"]; g <= 1.0 {
			t.Errorf("scale %d: Fig 4 meta-tag improvement geomean %.3f fell to/below 1", sw.Scale, g)
		}
		xs, as := sw.Pairs(dsa.KindAddr)
		for i := range xs {
			if xs[i].AvgLoadToUse == 0 || as[i].AvgLoadToUse == 0 {
				continue
			}
			if imp := as[i].AvgLoadToUse / xs[i].AvgLoadToUse; imp <= 1.0 {
				t.Errorf("scale %d: %s/%s meta-tag l2u improvement %.3f ≤ 1",
					sw.Scale, xs[i].DSA, xs[i].Workload, imp)
			}
		}
	}
}

// TestSpecKeysUnique pins the canonical-encoding contract the run cache
// relies on: distinct sweep and figure points never collide.
func TestSpecKeysUnique(t *testing.T) {
	var specs []runner.Spec
	specs = append(specs, SweepSpecs(25)...)
	specs = append(specs, SweepSpecs(100)...)
	for _, div := range []int{2, 8, 32, 128} {
		specs = append(specs, runner.Spec{
			DSA: runner.DSAWidx, Kind: dsa.KindXCache, Workload: "TPC-H-22",
			Scale: 25, DivMul: div,
		})
	}
	seenKey := map[string]string{}
	for _, s := range specs {
		k := s.Key()
		if prev, ok := seenKey[k]; ok {
			t.Fatalf("key collision: %q for %+v and %s", k, s, prev)
		}
		seenKey[k] = fmt.Sprintf("%+v", s)
	}
	// DivMul 0 and 1 are the same point and must share a cache slot.
	a := runner.Spec{DSA: runner.DSAWidx, Kind: dsa.KindXCache, Workload: "TPC-H-22", Scale: 25}
	b := a
	b.DivMul = 1
	if a.Key() != b.Key() {
		t.Error("DivMul 0 and 1 should be content-identical")
	}
}
