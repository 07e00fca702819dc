package arch

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"alveare/internal/backend"
)

func guardCompile(t *testing.T, re string) *Core {
	t.Helper()
	p, err := backend.Compile(re, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestForceRunawayAtTripsDeterministically(t *testing.T) {
	p, err := backend.Compile(`ab+c`, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ForceRunawayAt = 100
	c, err := NewCore(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("xxabbcxx", 50))
	_, ferr := c.FindAll(data, 0)
	if !errors.Is(ferr, ErrRunaway) {
		t.Fatalf("err = %v, want forced ErrRunaway", ferr)
	}
	var ee *ExecError
	if !errors.As(ferr, &ee) {
		t.Fatalf("err = %v (%T), want *ExecError", ferr, ferr)
	}
	if ee.Cycle < 100 {
		t.Fatalf("ExecError.Cycle = %d, want >= trip point 100", ee.Cycle)
	}
	if c.Stats().Runaways != 1 {
		t.Fatalf("Stats.Runaways = %d, want 1", c.Stats().Runaways)
	}
}

func TestInjectRunawayAtOnBuiltCore(t *testing.T) {
	c := guardCompile(t, `ab+c`)
	data := []byte(strings.Repeat("xxabbcxx", 50))
	if _, err := c.FindAll(data, 0); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	c.Reset()
	c.InjectRunawayAt(50)
	if _, err := c.FindAll(data, 0); !errors.Is(err, ErrRunaway) {
		t.Fatalf("err = %v, want injected ErrRunaway", err)
	}
}

func TestExecErrorCarriesAttemptOffset(t *testing.T) {
	p, err := backend.Compile(`(a|aa)+b`, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 2000
	c, err := NewCore(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The attempt at offset 0 sees 'x' and dies cheaply; the attempt at
	// offset 1 enters the ambiguous run and exhausts the budget.
	data := []byte("x" + strings.Repeat("a", 64))
	_, ferr := c.FindAll(data, 0)
	var ee *ExecError
	if !errors.As(ferr, &ee) {
		t.Fatalf("err = %v (%T), want *ExecError", ferr, ferr)
	}
	if ee.Offset != 1 {
		t.Fatalf("ExecError.Offset = %d, want 1 (the runaway attempt's start)", ee.Offset)
	}
}

func TestPreCancelledContext(t *testing.T) {
	c := guardCompile(t, `ab+c`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.FindAllCtx(ctx, []byte("xxabbcxx"), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDeadlineStopsLongExecution(t *testing.T) {
	p, err := backend.Compile(`(a|aa)+b`, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 1 << 40  // effectively unbounded: only ctx can stop this
	cfg.StackDepth = 1 << 30 // keep the speculation stack from tripping first
	c, err := NewCore(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, ferr := c.FindAllCtx(ctx, []byte(strings.Repeat("a", 4096)), 0)
	if !errors.Is(ferr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", ferr)
	}
	// The poll granularity is CancelCheckCycles simulated cycles, which
	// is microseconds of wall time — seconds of slack catches a real
	// responsiveness regression without flaking.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestBudgetReArmsPerBinding(t *testing.T) {
	p, err := backend.Compile(`(a|aa)+b`, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 2000
	c, err := NewCore(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("a", 64))
	if _, err := c.FindAll(data, 0); !errors.Is(err, ErrRunaway) {
		t.Fatalf("first run: err = %v, want ErrRunaway", err)
	}
	// A fresh public call gets a fresh budget even without Reset: the
	// containment policies resume scans on the same core.
	if _, _, err := c.Find([]byte("xxabbaab")); err != nil {
		t.Fatalf("re-armed call failed: %v", err)
	}
	if c.Stats().Runaways != 1 {
		t.Fatalf("Stats.Runaways = %d, want 1", c.Stats().Runaways)
	}
}
