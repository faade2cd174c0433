package workloads

import (
	"math"
	"slices"
	"testing"

	"reuseiq/internal/compiler"
	"reuseiq/internal/interp"
)

func TestAllKernelsValidate(t *testing.T) {
	ks := All()
	if len(ks) != 8 {
		t.Fatalf("got %d kernels", len(ks))
	}
	names := map[string]bool{}
	for _, k := range ks {
		if err := k.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
		if names[k.Name] {
			t.Errorf("duplicate kernel %s", k.Name)
		}
		names[k.Name] = true
		if k.Source == "" {
			t.Errorf("%s: missing provenance", k.Name)
		}
	}
	for _, want := range []string{"adi", "aps", "btrix", "eflux", "tomcat", "tsf", "vpenta", "wss"} {
		if !names[want] {
			t.Errorf("paper Table 2 kernel %s missing", want)
		}
	}
}

func TestByName(t *testing.T) {
	if k, ok := ByName("btrix"); !ok || k.Name != "btrix" {
		t.Error("ByName(btrix) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

// ByName builds only the kernel it names, and Names builds none.
func TestByNameBuildsOneKernel(t *testing.T) {
	build := testing.AllocsPerRun(20, func() { WSS() })
	byName := testing.AllocsPerRun(20, func() { ByName("wss") })
	if byName > build {
		t.Errorf("ByName(wss) costs %.0f allocations, building wss alone %.0f", byName, build)
	}
	if n := testing.AllocsPerRun(20, func() { Names() }); n > 1 {
		t.Errorf("Names costs %.0f allocations, want the one slice", n)
	}
	if n := testing.AllocsPerRun(20, func() { Source("wss") }); n != 0 {
		t.Errorf("Source costs %.0f allocations, want none", n)
	}
	var all []string
	for _, k := range All() {
		all = append(all, k.Name)
		if got := Source(k.Name); got != k.Source {
			t.Errorf("Source(%s) = %q, All() says %q", k.Name, got, k.Source)
		}
	}
	if got := Names(); !slices.Equal(got, all) {
		t.Errorf("Names() = %v, All() names %v", got, all)
	}
	if got := Source("nosuch"); got != "" {
		t.Errorf("Source(nosuch) = %q, want empty", got)
	}
}

// Generated code must agree with the IR evaluator bit for bit on every array.
func TestKernelsCompileCorrectly(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			env, err := compiler.Eval(k.Prog)
			if err != nil {
				t.Fatal(err)
			}
			mp, src, err := compiler.Compile(k.Prog)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := interp.New(mp)
			if err := m.Run(); err != nil {
				t.Fatalf("run: %v\n%s", err, src)
			}
			for _, a := range k.Prog.Arrays {
				base := mp.Symbols[a.Name]
				for i := 0; i < a.Len; i++ {
					want := env.Arrays[a.Name][i]
					got := m.State.Mem.ReadF64(base + uint32(8*i))
					if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s[%d] = %v, want %v", a.Name, i, got, want)
					}
				}
			}
		})
	}
}

// The paper's loop-shape characterization must hold: aps/tsf/wss have small
// bodies, the other five have large ones, and distribution shrinks the large
// ones below the 64-entry threshold.
func TestKernelShapes(t *testing.T) {
	small := map[string]bool{"aps": true, "tsf": true, "wss": true}
	for _, k := range All() {
		body := compiler.MaxLoopBody(k.Prog)
		if small[k.Name] {
			if body > 3 {
				t.Errorf("%s: body has %d assigns, expected a tight loop", k.Name, body)
			}
			continue
		}
		if k.Name == "eflux" {
			// Medium body with a procedure call: the call blocks
			// distribution (splitLoop keeps call-containing loops whole).
			d := compiler.Distribute(k.Prog)
			if compiler.CountLoops(d) != compiler.CountLoops(k.Prog) {
				t.Errorf("eflux: call-containing loop was distributed")
			}
			continue
		}
		if body < 7 {
			t.Errorf("%s: body has %d assigns, expected a large loop", k.Name, body)
		}
		d := compiler.Distribute(k.Prog)
		if db := compiler.MaxLoopBody(d); db >= body {
			t.Errorf("%s: distribution did not shrink the body (%d -> %d)", k.Name, body, db)
		}
		// Distribution preserves semantics.
		e1, err := compiler.Eval(k.Prog)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := compiler.Eval(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range k.Prog.Arrays {
			for i := range e1.Arrays[a.Name] {
				if e1.Arrays[a.Name][i] != e2.Arrays[a.Name][i] {
					t.Fatalf("%s: distribution changed %s[%d]", k.Name, a.Name, i)
				}
			}
		}
	}
}

// Kernels must produce finite values (no runaway recurrences that would make
// power/performance numbers meaningless).
func TestKernelsNumericallySane(t *testing.T) {
	for _, k := range All() {
		env, err := compiler.Eval(k.Prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range k.Prog.Arrays {
			for i, v := range env.Arrays[a.Name] {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
					t.Fatalf("%s: %s[%d] = %v", k.Name, a.Name, i, v)
				}
			}
		}
	}
}
