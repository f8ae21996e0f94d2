package hier

import (
	"errors"
	"strings"
	"testing"

	"xcache/internal/energy"
	"xcache/internal/sim"
)

// TestL1ConfigValidate: every rejected geometry names the offending field
// in a typed *ConfigError; sane geometries (including ones relying on the
// defaulting pass) sail through.
func TestL1ConfigValidate(t *testing.T) {
	cases := []struct {
		name      string
		cfg       L1Config
		wantField string // "" → valid
	}{
		{"minimal", L1Config{Sets: 1, Ways: 1, WordsPerSector: 1}, ""},
		{"typical", L1Config{Sets: 8, Ways: 2, WordsPerSector: 4}, ""},
		{"explicit-everything", L1Config{Sets: 16, Ways: 4, WordsPerSector: 8, HitLatency: 3}, ""},
		{"zero-sets", L1Config{Sets: 0, Ways: 2, WordsPerSector: 1}, "Sets"},
		{"negative-sets", L1Config{Sets: -8, Ways: 2, WordsPerSector: 1}, "Sets"},
		{"non-pow2-sets", L1Config{Sets: 12, Ways: 2, WordsPerSector: 1}, "Sets"},
		{"zero-ways", L1Config{Sets: 8, Ways: 0, WordsPerSector: 1}, "Ways"},
		{"negative-ways", L1Config{Sets: 8, Ways: -1, WordsPerSector: 1}, "Ways"},
		{"zero-sector-words", L1Config{Sets: 8, Ways: 2, WordsPerSector: 0}, "WordsPerSector"},
		{"negative-latency", L1Config{Sets: 8, Ways: 2, WordsPerSector: 1, HitLatency: -2}, "HitLatency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T), want *ConfigError", err, err)
			}
			if ce.Field != tc.wantField {
				t.Fatalf("flagged field %q, want %q (err: %v)", ce.Field, tc.wantField, ce)
			}
			if !strings.Contains(ce.Error(), "L1Config."+tc.wantField) {
				t.Fatalf("message %q does not name the field", ce.Error())
			}
		})
	}
}

// TestL1ConfigValidateAtBuild: both constructors that size arrays from an
// L1Config reject a broken geometry before building anything.
func TestL1ConfigValidateAtBuild(t *testing.T) {
	bad := L1Config{Sets: 0, Ways: 2, WordsPerSector: 1}

	k := sim.NewKernel()
	if _, err := NewMetaL1(k, bad, nil, &energy.Counters{}); err == nil {
		t.Fatal("NewMetaL1 accepted a zero-set geometry")
	} else {
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Sets" {
			t.Fatalf("NewMetaL1 error %v, want *ConfigError on Sets", err)
		}
	}

	if _, err := NewCohSystem(CohConfig{L1: bad}); err == nil {
		t.Fatal("NewCohSystem accepted a zero-set L1 geometry")
	} else {
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Sets" {
			t.Fatalf("NewCohSystem error %v, want *ConfigError on Sets", err)
		}
	}
}
