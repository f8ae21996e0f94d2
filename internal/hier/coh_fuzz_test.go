package hier

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"xcache/internal/check"
)

// fuzzKeys bounds the key space so the fuzzer concentrates on sharing
// and conflict patterns instead of disjoint working sets.
const fuzzKeys = 16

// fuzzOp is one decoded fuzz record.
type fuzzOp struct {
	port int
	op   CohOp
	key  uint64
	pay  uint64
}

// decodeCohOps maps raw fuzz bytes onto per-port scripts. Each key is
// bound to one commutative store class (even → Merge, odd → MergeMin), so
// the final state is independent of the interleaving the ports happen to
// produce — the property the twin-rig comparison relies on. Ordering
// among non-commutative plain stores is litmus territory, not fuzz.
func decodeCohOps(data []byte) (nports int, ops []fuzzOp) {
	if len(data) < 5 {
		return 0, nil
	}
	nports = 2 + int(data[0])%3
	rec := data[1:]
	for len(rec) >= 4 && len(ops) < 64 {
		key := uint64(rec[2]) % fuzzKeys
		op := OpLoad
		if rec[1]%2 == 1 {
			if key%2 == 0 {
				op = OpMerge
			} else {
				op = OpMergeMin
			}
		}
		ops = append(ops, fuzzOp{
			port: int(rec[0]) % nports,
			op:   op,
			key:  key,
			pay:  uint64(rec[3]),
		})
		rec = rec[4:]
	}
	return nports, ops
}

// fuzzSeed is the deterministic initial value of key i.
func fuzzSeed(i int) uint64 { return uint64(1000 + i*13) }

// fuzzModel computes the interleaving-independent final state.
func fuzzModel(ops []fuzzOp) [fuzzKeys]uint64 {
	var final [fuzzKeys]uint64
	for i := range final {
		final[i] = fuzzSeed(i)
	}
	for _, o := range ops {
		switch o.op {
		case OpMerge:
			final[o.key] += o.pay
		case OpMergeMin:
			if o.pay < final[o.key] {
				final[o.key] = o.pay
			}
		}
	}
	return final
}

// fuzzRig runs the ops on a hierarchy with nports ports (ops whose port
// exceeds nports wrap) and returns the final state, read back coherently
// through port 0.
func fuzzRig(nports int, ops []fuzzOp, faults CohFaults) ([fuzzKeys]uint64, *CohSystem, error) {
	var final [fuzzKeys]uint64
	s, err := NewCohSystem(CohConfig{
		Ports:   nports,
		L1:      L1Config{Sets: 2, Ways: 1, WordsPerSector: 1},
		L2Sets:  8,
		L2Ways:  2,
		NumKeys: fuzzKeys,
		Faults:  faults,
	})
	if err != nil {
		return final, nil, err
	}
	for i := 0; i < fuzzKeys; i++ {
		s.Seed(i, fuzzSeed(i))
	}
	scripts := make([][]ScriptOp, nports)
	for _, o := range ops {
		p := o.port % nports
		scripts[p] = append(scripts[p], ScriptOp{Op: o.op, Key: o.key, Payload: o.pay})
	}
	h := check.Attach(s.K, check.Default())
	if _, err := RunScripts(s, h, scripts, 500_000); err != nil {
		return final, s, err
	}
	// Read the final state back through port 0: these loads recall any
	// Modified line still parked in another port.
	var drain []ScriptOp
	for i := 0; i < fuzzKeys; i++ {
		drain = append(drain, Ld(uint64(i)))
	}
	res, err := RunScripts(s, h, [][]ScriptOp{drain}, 500_000)
	if err != nil {
		return final, s, err
	}
	copy(final[:], res[0])
	return final, s, nil
}

// FuzzCoherence drives random multi-port workloads through twin rigs —
// the coherent N-port hierarchy and a flat single-port hierarchy (trivially
// coherent: no sharing exists) — and requires both to agree with the
// functional model. A third run injects snoop drops: it must either
// recover through retries and still agree, or trap with a typed liveness
// violation — silent divergence is the one forbidden outcome.
func FuzzCoherence(f *testing.F) {
	for _, data := range cohFuzzSeeds {
		f.Add(data)
	}
	f.Fuzz(checkCohInput)
}

// cohFuzzSeeds are FuzzCoherence's seed inputs; testdata/fuzz holds the
// rest of its corpus.
var cohFuzzSeeds = [][]byte{
	{0, 0, 1, 0, 50, 1, 1, 0, 60, 2, 1, 1, 9, 0, 0, 1, 70},
	{1, 0, 1, 2, 5, 1, 1, 3, 7, 2, 1, 2, 3, 0, 1, 3, 11, 1, 0, 2, 0},
	{2, 3, 1, 15, 255, 2, 1, 15, 1, 1, 1, 14, 9, 0, 0, 15, 0, 4, 1, 14, 2},
}

// checkCohInput runs one fuzz input through the three rigs: coherent,
// flat, and coherent with seeded snoop drops.
func checkCohInput(t *testing.T, data []byte) {
	nports, ops := decodeCohOps(data)
	if len(ops) == 0 {
		t.Skip()
	}
	want := fuzzModel(ops)

	coh, _, err := fuzzRig(nports, ops, CohFaults{})
	if err != nil {
		t.Fatalf("coherent rig failed: %v", err)
	}
	flat, _, err := fuzzRig(1, ops, CohFaults{})
	if err != nil {
		t.Fatalf("flat oracle rig failed: %v", err)
	}
	for i := 0; i < fuzzKeys; i++ {
		if coh[i] != want[i] || flat[i] != want[i] {
			t.Fatalf("key %d: coherent=%d flat=%d model=%d (ports=%d ops=%v)",
				i, coh[i], flat[i], want[i], nports, ops)
		}
	}

	// Fault run: seeded snoop drops. Completion requires equality;
	// a latched liveness violation is the sanctioned trap path.
	seed := uint64(len(data))
	for _, b := range data {
		seed = seed*31 + uint64(b)
	}
	faulty, _, err := fuzzRig(nports, ops, CohFaults{DropSnoop: 0.3, Seed: seed})
	if err != nil {
		var cv *check.CoherenceViolation
		if errors.As(err, &cv) && cv.Rule == "liveness" {
			return // trapped, not diverged
		}
		t.Fatalf("faulty rig failed outside the liveness trap: %v", err)
	}
	for i := 0; i < fuzzKeys; i++ {
		if faulty[i] != want[i] {
			t.Fatalf("fault run silently diverged on key %d: got %d want %d", i, faulty[i], want[i])
		}
	}
}

// cohFuzzCorpus returns every committed FuzzCoherence input: the seeds,
// then the files under testdata/fuzz/FuzzCoherence, each a one-value
// []byte input in the "go test fuzz v1" format.
func cohFuzzCorpus(t *testing.T) [][]byte {
	t.Helper()
	inputs := append([][]byte(nil), cohFuzzSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCoherence", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed FuzzCoherence inputs (%v)", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n")
		body = strings.TrimSpace(body)
		if !ok || !strings.HasPrefix(body, "[]byte(") || !strings.HasSuffix(body, ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", path)
		}
		s, err := strconv.Unquote(body[len("[]byte(") : len(body)-1])
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inputs = append(inputs, []byte(s))
	}
	return inputs
}

// TestCohFuzzCorpusSmoke replays the committed corpus deterministically
// (the fuzz entries also run under `go test -run Fuzz`, but this pins an
// explicit high-contention case with a visible failure message).
func TestCohFuzzCorpusSmoke(t *testing.T) {
	data := []byte{2}
	for i := 0; i < 48; i++ {
		data = append(data, byte(i*5), byte(i), byte(i%6), byte(i*3+1))
	}
	nports, ops := decodeCohOps(data)
	want := fuzzModel(ops)
	got, s, err := fuzzRig(nports, ops, CohFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("final state diverged:\ngot  %v\nwant %v", got, want)
	}
	if s.Dir.Stats().Invals == 0 && s.Dir.Stats().Downgrades == 0 {
		t.Error("high-contention workload exercised no recalls")
	}
}
