package netchaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// writerBackend writes data to every accepted connection once the
// client has sent one byte (see dialAndAsk), and closes cleanly; any
// rougher ending the client observes was injected by the proxy.
// Waiting for the client keeps an injected fault from firing before
// the client's dial has completed: a reset that lands while Go's
// non-blocking connect is still pending fails the dial itself.
func writerBackend(t *testing.T, data []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
					return
				}
				c.Write(data)
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// echoBackend copies every byte back to the sender.
func echoBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	t.Cleanup(func() { c.Close() })
	return c
}

// dialAndAsk dials the proxy and sends the one byte a writerBackend
// waits for before it answers.
func dialAndAsk(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c := dialProxy(t, p)
	if _, err := c.Write([]byte{'?'}); err != nil {
		t.Fatal(err)
	}
	return c
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestForwardsFaithfully(t *testing.T) {
	p, err := New(echoBackend(t), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	msg := []byte("through the looking glass")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
}

// TestResetDeliversExactPrefix: a reset=N scenario delivers exactly N
// response bytes intact, then a hard error — never N-1, never N+1.
func TestResetDeliversExactPrefix(t *testing.T) {
	data := pattern(64)
	sc := NewScenario("reset")
	sc.ResetAfter = 10
	p, err := New(writerBackend(t, data), 2, []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dialAndAsk(t, p)
	got, rerr := io.ReadAll(c)
	if rerr == nil {
		t.Fatal("reset connection ended with clean EOF, want a read error")
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d bytes before the reset, want exactly 10", len(got))
	}
	if !bytes.Equal(got, data[:10]) {
		t.Fatal("bytes before the reset were not delivered intact")
	}
}

// TestTruncateEndsWithCleanEOF: trunc=N delivers exactly N bytes and
// then a clean close — a torn frame, not an error code.
func TestTruncateEndsWithCleanEOF(t *testing.T) {
	data := pattern(64)
	sc := NewScenario("trunc")
	sc.TruncateAfter = 7
	p, err := New(writerBackend(t, data), 3, []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dialAndAsk(t, p)
	got, rerr := io.ReadAll(c)
	if rerr != nil {
		t.Fatalf("truncation must end in clean EOF, got %v", rerr)
	}
	if !bytes.Equal(got, data[:7]) {
		t.Fatalf("delivered %d bytes %v, want the exact 7-byte prefix", len(got), got)
	}
}

// TestCorruptFlipsExactlyOneByte: corrupt=N XOR-flips the response
// byte at offset N and nothing else.
func TestCorruptFlipsExactlyOneByte(t *testing.T) {
	data := pattern(64)
	sc := NewScenario("corrupt")
	sc.CorruptAt = 5
	p, err := New(writerBackend(t, data), 4, []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dialAndAsk(t, p)
	got := make([]byte, len(data))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		want := data[i]
		if i == 5 {
			want ^= 0xFF
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

// TestBlackholeSwallowsForever: the connection accepts and the request
// is consumed, but nothing ever comes back; only the client's own
// deadline escapes.
func TestBlackholeSwallowsForever(t *testing.T) {
	sc := NewScenario("blackhole")
	sc.Blackhole = true
	p, err := New(echoBackend(t), 5, []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	if _, err := c.Write([]byte("anyone home?")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	_, rerr := c.Read(make([]byte, 1))
	ne, ok := rerr.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("blackhole read ended with %v, want a deadline timeout", rerr)
	}
}

// TestRefuseAbortsOnAccept: refuse aborts the connection on accept —
// depending on timing the client sees the reset at dial, at write, or
// at read, but it never gets a byte back.
func TestRefuseAbortsOnAccept(t *testing.T) {
	sc := NewScenario("refuse")
	sc.Refuse = true
	p, err := New(echoBackend(t), 6, []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, derr := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if derr != nil {
		return // reset during the handshake: refusal observed
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Second))
	c.Write([]byte("hello?"))
	got, rerr := io.ReadAll(c)
	if len(got) != 0 {
		t.Fatalf("refused connection delivered %d bytes", len(got))
	}
	_ = rerr // EOF or ECONNRESET, both fine: nothing was answered
}

// TestSetDownSeversAndRevives models whole-backend death and
// resurrection: live connections are severed, new ones refused, and
// after revival traffic flows again.
func TestSetDownSeversAndRevives(t *testing.T) {
	p, err := New(echoBackend(t), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c1 := dialProxy(t, p)
	if _, err := c1.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c1, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}

	p.SetDown(true)
	if _, rerr := io.ReadAll(c1); rerr == nil {
		t.Fatal("live connection survived SetDown(true)")
	}
	// A new connection is aborted on accept; the reset may reach the
	// dial itself (it can land before the non-blocking connect
	// completes) or be consumed by the write, so the invariant is that
	// no byte ever comes back. A refused or reset dial meets it.
	if c2, derr := net.DialTimeout("tcp", p.Addr(), 2*time.Second); derr != nil {
		if !errors.Is(derr, syscall.ECONNRESET) && !errors.Is(derr, syscall.ECONNREFUSED) {
			t.Fatalf("dial to downed backend: %v", derr)
		}
	} else {
		defer c2.Close()
		c2.SetDeadline(time.Now().Add(5 * time.Second))
		c2.Write([]byte("hi"))
		if got, _ := io.ReadAll(c2); len(got) != 0 {
			t.Fatalf("downed backend delivered %d bytes", len(got))
		}
	}

	p.SetDown(false)
	c3 := dialProxy(t, p)
	if _, err := c3.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c3, buf); err != nil {
		t.Fatalf("revived backend did not answer: %v", err)
	}
}

// TestScenarioTableRoundRobin: table entries are assigned by accept
// order, cycling.
func TestScenarioTableRoundRobin(t *testing.T) {
	data := pattern(8)
	reset := NewScenario("reset")
	reset.ResetAfter = 4
	p, err := New(writerBackend(t, data), 8, []Scenario{reset, NewScenario("clean")})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 4; i++ {
		c := dialAndAsk(t, p)
		got, rerr := io.ReadAll(c)
		if i%2 == 0 {
			if rerr == nil || len(got) != 4 {
				t.Fatalf("conn %d: %d bytes, err %v; want 4 bytes then reset", i, len(got), rerr)
			}
		} else {
			if rerr != nil || len(got) != 8 {
				t.Fatalf("conn %d: %d bytes, err %v; want clean 8 bytes", i, len(got), rerr)
			}
		}
		c.Close()
	}
	if got := p.Accepted(); got != 4 {
		t.Fatalf("accepted = %d, want 4", got)
	}
}

func TestLatencyDelaysResponse(t *testing.T) {
	sc := NewScenario("latency")
	sc.Latency = 50 * time.Millisecond
	p, err := New(echoBackend(t), 9, []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	start := time.Now()
	c.Write([]byte("x"))
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 45*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~50ms of injected latency", d)
	}
}

func TestParseScenarios(t *testing.T) {
	scs, err := ParseScenarios("latency=2ms,jitter=1ms;reset=4096;clean;blackhole;trunc=7,corrupt=0,bw=1024;refuse")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 6 {
		t.Fatalf("parsed %d scenarios, want 6", len(scs))
	}
	if scs[0].Latency != 2*time.Millisecond || scs[0].Jitter != time.Millisecond {
		t.Fatalf("scenario 0 = %+v", scs[0])
	}
	if scs[1].ResetAfter != 4096 {
		t.Fatalf("scenario 1 = %+v", scs[1])
	}
	if scs[2].String() != "clean" {
		t.Fatalf("scenario 2 renders %q", scs[2].String())
	}
	if !scs[3].Blackhole {
		t.Fatalf("scenario 3 = %+v", scs[3])
	}
	if scs[4].TruncateAfter != 7 || scs[4].CorruptAt != 0 || scs[4].BandwidthBPS != 1024 {
		t.Fatalf("scenario 4 = %+v", scs[4])
	}
	if !scs[5].Refuse {
		t.Fatalf("scenario 5 = %+v", scs[5])
	}

	// Every parsed scenario re-parses from its own rendering.
	for _, sc := range scs {
		again, err := ParseScenarios(sc.String())
		if err != nil {
			t.Fatalf("%q did not round-trip: %v", sc.String(), err)
		}
		if len(again) != 1 || again[0].String() != sc.String() {
			t.Fatalf("%q round-tripped to %q", sc.String(), again[0].String())
		}
	}

	for _, bad := range []string{"", "latency=pancake", "bogus", "reset=-1", "corrupt="} {
		if _, err := ParseScenarios(bad); err == nil {
			t.Errorf("ParseScenarios(%q) accepted, want error", bad)
		}
	}
}

// TestConnRandDeterministic: the per-connection RNG is a pure function
// of (seed, accept index) — same inputs, same stream; different
// indices, different streams.
func TestConnRandDeterministic(t *testing.T) {
	draw := func(seed, idx int64) [8]int64 {
		r := connRand(seed, idx)
		var out [8]int64
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	if draw(42, 3) != draw(42, 3) {
		t.Fatal("same (seed, idx) produced different streams")
	}
	if draw(42, 3) == draw(42, 4) {
		t.Fatal("neighbouring accept indices produced identical streams")
	}
	if draw(42, 3) == draw(43, 3) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestProxyCloseIdempotent(t *testing.T) {
	p, err := New(echoBackend(t), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	c.Write([]byte("x"))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
