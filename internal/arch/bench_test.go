package arch

import (
	"strings"
	"testing"

	"alveare/internal/anmlzoo"
	"alveare/internal/backend"
)

// Micro-benchmarks of the simulator's hot paths, for tracking the
// model's own (host) performance.

func benchCore(b *testing.B, re string) *Core {
	b.Helper()
	p, err := backend.Compile(re, backend.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCore(p, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkScanThroughput(b *testing.B) {
	c := benchCore(b, "needle")
	data := []byte(strings.Repeat("x", 256<<10))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Find(data); err != nil || ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkBacktrackingHeavy(b *testing.B) {
	c := benchCore(b, "(a|ab)*c")
	data := []byte(strings.Repeat("ab", 2000) + "c")
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Find(data); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkClassHeavy(b *testing.B) {
	c := benchCore(b, "[a-f]{4,12}[0-9]")
	data := []byte(strings.Repeat("abcdefgh ", 4000) + "abcdef7")
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Find(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindAllDense(b *testing.B) {
	c := benchCore(b, "ab")
	data := []byte(strings.Repeat("ab", 8000))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindAll(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtomataRules runs every rule of the seeded Protomata suite
// on its own core over the suite's seeded protein buffer — the
// workload on which no screening stage helps, so the exact engine's
// per-step cost is the whole cost. It reports host time per input byte
// (summed over the rule set) and per modelled instruction.
func BenchmarkProtomataRules(b *testing.B) {
	s, err := anmlzoo.ByName("Protomata", 0, 8<<10, 2024)
	if err != nil {
		b.Fatal(err)
	}
	cores := make([]*Core, len(s.Patterns))
	for i, re := range s.Patterns {
		cores[i] = benchCore(b, re)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cores {
			c.Reset()
			if _, err := c.FindAll(s.Dataset, 0); err != nil {
				b.Fatal(err)
			}
			instrs += c.Stats().Instructions
		}
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(b.N)/float64(len(s.Dataset)), "ns/byte")
	b.ReportMetric(ns/float64(instrs), "ns/instr")
}
