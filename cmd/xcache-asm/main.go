// Command xcache-asm is the microcode tool of the X-Cache toolflow: it
// compiles walker specifications to routine tables + microcode,
// assembles/disassembles raw routines, and statically verifies programs
// against a controller configuration.
//
// Usage:
//
//	xcache-asm -spec widx                # dump a built-in walker's compiled image
//	xcache-asm -spec rowfetch -o rf.xbin # emit the loadable microcode binary
//	xcache-asm -in rf.xbin               # disassemble a microcode binary
//	xcache-asm -in rf.xbin -verify       # statically verify a binary
//	xcache-asm -spec widx -verify        # compile + verify a built-in spec
//	xcache-asm -file walker.xasm         # assemble one routine from a file
//	echo 'allocm
//	halt Valid' | xcache-asm             # assemble a routine from stdin
//
// On failure the process emits a structured JSON error record on stderr
// (mirroring xcache-sim's convention) and exits with a kind-specific
// code so toolflow drivers can triage without parsing prose:
//
//	0  success
//	1  usage / IO error (including a bad or unknown flag)
//	2  assembly error (bad mnemonic, operand, label, immediate range)
//	3  compile error (malformed spec, bad transition table)
//	4  malformed or unencodable microcode binary
//	6  program rejected by the static verifier (same code as xcache-sim)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"xcache/internal/dsa/btreeidx"
	"xcache/internal/dsa/dasx"
	"xcache/internal/dsa/graphpulse"
	"xcache/internal/dsa/spgemm"
	"xcache/internal/dsa/widx"
	"xcache/internal/isa"
	"xcache/internal/program"
)

func main() {
	spec := flag.String("spec", "", "built-in walker: widx | dasx | rowfetch | eventstore | btree")
	file := flag.String("file", "", "assemble a single routine from this file (default stdin)")
	shift := flag.Uint("shift", 56, "hash shift for widx/dasx specs (64 - log2 buckets)")
	out := flag.String("o", "", "write the compiled microcode binary to this file")
	in := flag.String("in", "", "load and dump a microcode binary")
	verify := flag.Bool("verify", false, "statically verify the program (with -spec or -in)")
	xregs := flag.Int("xregs", 0, "verifier: X-register file size (default 16)")
	fillWords := flag.Int("fillwords", 0, "verifier: max words per fill (default 8)")
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fail("usage", 1, err)
	}

	if *verify && *spec == "" && *in == "" {
		fail("usage", 1, errors.New("-verify needs -spec or -in"))
	}
	vcfg := program.DefaultVerifyConfig()
	if *xregs > 0 {
		vcfg.NumXRegs = *xregs
	}
	if *fillWords > 0 {
		vcfg.MaxFillWords = *fillWords
	}

	if *in != "" {
		loadBinary(*in, *verify, vcfg)
		return
	}
	if *spec != "" {
		dumpSpec(*spec, *shift, *out, *verify, vcfg)
		return
	}
	assembleRoutine(*file)
}

// asmFailure is the machine-readable error record emitted on stderr,
// mirroring xcache-sim's simFailure convention.
type asmFailure struct {
	Error string `json:"error"`
	Kind  string `json:"kind"` // usage | assemble | compile | binary | verify
	// Verifier rejections carry their location so drivers can point at
	// the offending routine without re-parsing the message.
	Program string `json:"program,omitempty"`
	State   string `json:"state,omitempty"`
	Event   string `json:"event,omitempty"`
	PC      int    `json:"pc,omitempty"`
}

// fail emits the structured record and terminates with the kind's code.
func fail(kind string, code int, err error) {
	f := asmFailure{Error: err.Error(), Kind: kind}
	var ve *program.VerifyError
	if errors.As(err, &ve) {
		f.Kind = "verify"
		code = 6
		f.Program, f.State, f.Event, f.PC = ve.Program, ve.State, ve.Event, ve.PC
	}
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	if encErr := enc.Encode(f); encErr != nil {
		fmt.Fprintln(os.Stderr, "xcache-asm:", err)
	}
	os.Exit(code)
}

func loadBinary(path string, verify bool, vcfg program.VerifyConfig) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("usage", 1, err)
	}
	var p program.Program
	if err := p.UnmarshalBinary(data); err != nil {
		fail("binary", 4, err)
	}
	if verify {
		if err := program.Verify(&p, vcfg); err != nil {
			fail("verify", 6, err)
		}
		fmt.Printf("verify OK: %s (%d words, %d states, %d events)\n",
			p.Name, len(p.Code), p.NumStates(), p.NumEvents())
		return
	}
	fmt.Print(p.Dump())
}

func dumpSpec(name string, shift uint, out string, verify bool, vcfg program.VerifyConfig) {
	var s program.Spec
	switch name {
	case "widx":
		s = widx.Spec(shift)
	case "dasx":
		s = dasx.Spec(shift)
	case "rowfetch", "sparch", "gamma":
		s = spgemm.Spec()
	case "eventstore", "graphpulse":
		s = graphpulse.Spec()
	case "btree", "btreeidx":
		s = btreeidx.Spec()
	default:
		fail("usage", 1, fmt.Errorf("unknown spec %q", name))
	}
	p, err := s.Compile()
	if err != nil {
		fail("compile", 3, err)
	}
	if verify {
		if err := program.Verify(p, vcfg); err != nil {
			fail("verify", 6, err)
		}
		fmt.Printf("verify OK: %s (%d words, %d states, %d events)\n",
			p.Name, len(p.Code), p.NumStates(), p.NumEvents())
		if out == "" {
			return
		}
	}
	if out != "" {
		data, err := p.MarshalBinary()
		if err != nil {
			fail("binary", 4, err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fail("usage", 1, err)
		}
		fmt.Printf("wrote %d-byte microcode binary to %s\n", len(data), out)
		return
	}
	fmt.Print(p.Dump())
	fmt.Println("\nencoded microcode:")
	for pc, in := range p.Code {
		word, err := in.Encode()
		if err != nil {
			fail("binary", 4, fmt.Errorf("code[%d]: %w", pc, err))
		}
		fmt.Printf("  %3d: %08x  %s\n", pc, word, in.String())
	}
}

func assembleRoutine(file string) {
	var src []byte
	var err error
	if file == "" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(file)
	}
	if err != nil {
		fail("usage", 1, err)
	}
	// Routines assembled standalone see the built-in states/statuses.
	syms := map[string]int64{
		"Valid": program.StateValid, "Default": program.StateInvalid,
		"OK": program.StatusOK, "NOTFOUND": program.StatusNotFound,
	}
	code, err := isa.Assemble(string(src), syms)
	if err != nil {
		fail("assemble", 2, err)
	}
	for pc, in := range code {
		word, err := in.Encode()
		if err != nil {
			fail("assemble", 2, fmt.Errorf("pc %d: %w", pc, err))
		}
		fmt.Printf("%3d: %08x  %s\n", pc, word, in.String())
	}
}
