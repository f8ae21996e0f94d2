package energy

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEnergyConversion(t *testing.T) {
	p := DefaultParams()
	c := Counters{
		RegBitsWritten: 64,
		AddOps:         10,
		MulOps:         1,
		BitOps:         100,
		ShiftOps:       2,
		TagBytes:       8,
		DataBytes:      64,
		RtnBytes:       40,
		QueueBytes:     16,
	}
	b := c.Energy(p)
	if !almost(b.DataRAM, 64.0/32.0*44.8) {
		t.Errorf("data: %v", b.DataRAM)
	}
	if !almost(b.TagRAM, 8*2.7) {
		t.Errorf("tag: %v", b.TagRAM)
	}
	if !almost(b.Logic, 10*0.21+12.6+100*0.018+2*0.41) {
		t.Errorf("logic: %v", b.Logic)
	}
	if !almost(b.Registers, 64*8.9e-3) {
		t.Errorf("reg: %v", b.Registers)
	}
	wantOnChip := b.DataRAM + b.TagRAM + b.RoutineRAM + b.Logic + b.Registers + b.Queues
	if !almost(b.OnChip(), wantOnChip) {
		t.Errorf("onchip: %v want %v", b.OnChip(), wantOnChip)
	}
	if !almost(b.Controller(), b.RoutineRAM+b.Logic+b.Registers+b.Queues) {
		t.Errorf("controller: %v", b.Controller())
	}
}

func TestTable4Constants(t *testing.T) {
	p := DefaultParams()
	// Pin the published Table 4 values so drift is caught.
	if p.RegPerBit != 8.9e-3 || p.Add != 0.21 || p.Mul != 12.6 ||
		p.Bitwise != 1.8e-2 || p.Shift != 0.41 ||
		p.TagPerByte != 2.7 || p.RAMPer32B != 44.8 {
		t.Fatalf("Table 4 constants changed: %+v", p)
	}
}

func TestZeroCountersZeroEnergy(t *testing.T) {
	var c Counters
	b := c.Energy(DefaultParams())
	if b.OnChip() != 0 || b.DRAM != 0 {
		t.Fatalf("zero counters produced energy: %+v", b)
	}
}
