// Package reuseiq holds the repository-level benchmark harness: one
// testing.B benchmark per table and figure of the paper (run them with
// `go test -bench=. -benchmem`). Each benchmark regenerates its artifact
// through internal/experiments; results are cached inside a shared Suite, so
// within one `go test -bench` invocation every simulation runs exactly once.
// The rendered rows (the same series the paper reports) are attached to the
// benchmark via b.Log — use -v to display them, or run cmd/reusebench for
// the plain-text report.
package reuseiq

import (
	"fmt"
	"sync"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/compiler"
	"reuseiq/internal/experiments"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/power"
	"reuseiq/internal/workloads"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.NewSuite() })
	return suite
}

func BenchmarkTable1Config(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table1()
	}
	b.Log("\n" + out)
}

func BenchmarkTable2Benchmarks(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table2()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure5GatedRate(b *testing.B) {
	s := sharedSuite()
	var out string
	for i := 0; i < b.N; i++ {
		f, err := s.Figure5(experiments.DefaultSizes)
		if err != nil {
			b.Fatal(err)
		}
		out = f.String()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure6ComponentPower(b *testing.B) {
	s := sharedSuite()
	var out string
	for i := 0; i < b.N; i++ {
		f, err := s.Figure6(experiments.DefaultSizes)
		if err != nil {
			b.Fatal(err)
		}
		out = f.String()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure7OverallPower(b *testing.B) {
	s := sharedSuite()
	var out string
	for i := 0; i < b.N; i++ {
		f, err := s.Figure7(experiments.DefaultSizes)
		if err != nil {
			b.Fatal(err)
		}
		out = f.String()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure8Performance(b *testing.B) {
	s := sharedSuite()
	var out string
	for i := 0; i < b.N; i++ {
		f, err := s.Figure8(experiments.DefaultSizes)
		if err != nil {
			b.Fatal(err)
		}
		out = f.String()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure9LoopDistribution(b *testing.B) {
	s := sharedSuite()
	var out string
	for i := 0; i < b.N; i++ {
		f, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		out = f.String()
	}
	b.Log("\n" + out)
}

func BenchmarkAblationNBLT(b *testing.B) {
	s := sharedSuite()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := s.AblationNBLT()
		if err != nil {
			b.Fatal(err)
		}
		out = a.String()
	}
	b.Log("\n" + out)
}

func BenchmarkAblationBufferStrategy(b *testing.B) {
	s := sharedSuite()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := s.AblationStrategy()
		if err != nil {
			b.Fatal(err)
		}
		out = a.String()
	}
	b.Log("\n" + out)
}

// BenchmarkSimulatorSpeed measures raw simulation throughput (cycles/sec) on
// a tight loop with the reuse mechanism active.
func BenchmarkSimulatorSpeed(b *testing.B) {
	p := asm.MustAssemble(`
	li   $r2, 0
	li   $r3, 20000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m := pipeline.New(pipeline.DefaultConfig(), p)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		cycles += m.C.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkKernelStep measures the simulator on what the figures run: each
// compiled paper kernel, unchanged by loop distribution, through
// pipeline.New and Run with the reuse mechanism on, at IQ 32 (the smallest
// queue, where dispatch and decode weigh most), IQ 64 (32-entry LSQ) and
// IQ 256 (128-entry LSQ, where the load/store queue's scans weigh most).
// Compilation is outside the timed loop; ns/cycle is host time per
// simulated cycle.
func BenchmarkKernelStep(b *testing.B) {
	for _, k := range workloads.All() {
		p, _, err := compiler.Compile(k.Prog)
		if err != nil {
			b.Fatalf("compile %s: %v", k.Name, err)
		}
		for _, iq := range []int{32, 64, 128, 256} {
			b.Run(fmt.Sprintf("%s/iq%d", k.Name, iq), func(b *testing.B) {
				cfg := pipeline.DefaultConfig().WithIQSize(iq)
				var cycles uint64
				for i := 0; i < b.N; i++ {
					m := pipeline.New(cfg, p)
					if err := m.Run(); err != nil {
						b.Fatal(err)
					}
					cycles += m.C.Cycles
					m.Release()
				}
				b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
			})
		}
	}
}

// BenchmarkPowerAnalyze measures the power-model cost on a finished machine.
func BenchmarkPowerAnalyze(b *testing.B) {
	p := asm.MustAssemble(`
	li   $r3, 5000
loop:	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	m := pipeline.New(pipeline.DefaultConfig(), p)
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = power.Analyze(m)
	}
}
