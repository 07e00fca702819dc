// Package netchaos extends the faultinject philosophy — deterministic,
// seeded, composable failure injection — from io.Readers to the wire.
// A Proxy sits between a scan-service client and its backend as a TCP
// man-in-the-middle and applies a scripted Scenario to each accepted
// connection: added latency with seeded jitter, bandwidth caps,
// connection resets at configurable byte offsets, frame truncation
// (clean close mid-stream), single-byte corruption, blackholes (the
// connection accepts but nothing ever comes back) and outright
// connection refusal. Scenarios are assigned by accept order from a
// fixed table, and every random decision derives from (seed, accept
// index), so a failing chaos run replays from its printed seed.
//
// The proxy also models whole-backend failure: SetDown(true) refuses
// new connections and severs the live ones, SetDown(false) revives
// the backend — which is how the circuit-breaker recovery tests kill
// and resurrect a backend without restarting a server.
package netchaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Scenario scripts one connection's misbehaviour. The zero value
// forwards faithfully. Byte offsets count the server→client response
// stream, where a scan client actually hurts: a reset mid-response
// frame models a backend dying with an answer half-delivered.
type Scenario struct {
	// Name labels the scenario in String() and parse round-trips.
	Name string

	// Refuse closes the client connection immediately on accept,
	// modelling a dead listener behind a live address.
	Refuse bool

	// Blackhole accepts and swallows the client's bytes but never
	// forwards or answers, modelling a hung backend. Only a client
	// deadline gets out of it.
	Blackhole bool

	// Latency delays each forwarded response chunk; Jitter adds a
	// seeded uniform random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration

	// BandwidthBPS caps the response stream's throughput in bytes per
	// second (0 = unlimited).
	BandwidthBPS int

	// ResetAfter tears the connection down with a TCP RST after that
	// many response bytes (0 = never). The bytes before the reset are
	// delivered intact.
	ResetAfter int64

	// TruncateAfter closes the connection cleanly after that many
	// response bytes (0 = never) — the client sees a torn frame
	// (io.ErrUnexpectedEOF), not an error code.
	TruncateAfter int64

	// CorruptAt XOR-flips the response byte at this stream offset
	// (-1 = never; note 0 is a valid offset — the first byte of the
	// first frame's length field).
	CorruptAt int64
}

// NewScenario returns a Scenario that forwards faithfully and never
// corrupts (CorruptAt -1).
func NewScenario(name string) Scenario {
	return Scenario{Name: name, CorruptAt: -1}
}

// String renders the scenario in the ParseScenarios syntax.
func (s Scenario) String() string {
	var parts []string
	if s.Refuse {
		parts = append(parts, "refuse")
	}
	if s.Blackhole {
		parts = append(parts, "blackhole")
	}
	if s.Latency > 0 {
		parts = append(parts, "latency="+s.Latency.String())
	}
	if s.Jitter > 0 {
		parts = append(parts, "jitter="+s.Jitter.String())
	}
	if s.BandwidthBPS > 0 {
		parts = append(parts, "bw="+strconv.Itoa(s.BandwidthBPS))
	}
	if s.ResetAfter > 0 {
		parts = append(parts, "reset="+strconv.FormatInt(s.ResetAfter, 10))
	}
	if s.TruncateAfter > 0 {
		parts = append(parts, "trunc="+strconv.FormatInt(s.TruncateAfter, 10))
	}
	if s.CorruptAt >= 0 {
		parts = append(parts, "corrupt="+strconv.FormatInt(s.CorruptAt, 10))
	}
	if len(parts) == 0 {
		parts = []string{"clean"}
	}
	return strings.Join(parts, ",")
}

// ParseScenarios parses a scenario table from its flag spelling:
// scenarios separated by ';', fields by ',', each field one of
//
//	clean | refuse | blackhole | latency=DUR | jitter=DUR | bw=BPS |
//	reset=BYTES | trunc=BYTES | corrupt=OFFSET
//
// e.g. "latency=2ms,jitter=1ms;reset=4096;clean;blackhole". The
// proxy assigns table entries to connections round-robin by accept
// order.
func ParseScenarios(spec string) ([]Scenario, error) {
	var out []Scenario
	for _, chunk := range strings.Split(spec, ";") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		sc := NewScenario(chunk)
		for _, field := range strings.Split(chunk, ",") {
			field = strings.TrimSpace(field)
			key, val, hasVal := strings.Cut(field, "=")
			switch key {
			case "clean":
				// explicit no-op entry
			case "refuse":
				sc.Refuse = true
			case "blackhole":
				sc.Blackhole = true
			case "latency", "jitter":
				d, err := time.ParseDuration(val)
				if err != nil || !hasVal {
					return nil, fmt.Errorf("netchaos: bad %s %q", key, val)
				}
				if key == "latency" {
					sc.Latency = d
				} else {
					sc.Jitter = d
				}
			case "bw", "reset", "trunc", "corrupt":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || !hasVal || n < 0 {
					return nil, fmt.Errorf("netchaos: bad %s %q", key, val)
				}
				switch key {
				case "bw":
					sc.BandwidthBPS = int(n)
				case "reset":
					sc.ResetAfter = n
				case "trunc":
					sc.TruncateAfter = n
				case "corrupt":
					sc.CorruptAt = n
				}
			default:
				return nil, fmt.Errorf("netchaos: unknown scenario field %q", field)
			}
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, errors.New("netchaos: empty scenario spec")
	}
	return out, nil
}

// Proxy is one chaos man-in-the-middle in front of one backend.
type Proxy struct {
	backend   string
	seed      int64
	scenarios []Scenario

	ln       net.Listener
	accepted atomic.Int64

	mu   sync.Mutex
	down bool
	// conns holds every live connection; the value is true for the
	// client-facing side, false for the backend side.
	conns map[net.Conn]bool

	wg     sync.WaitGroup
	closed chan struct{}
}

// New starts a chaos proxy on an ephemeral loopback port in front of
// backend. Connection i (accept order, 0-based) runs
// scenarios[i % len(scenarios)] with randomness derived from
// (seed, i); an empty table forwards everything faithfully.
func New(backend string, seed int64, scenarios []Scenario) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		scenarios = []Scenario{NewScenario("clean")}
	}
	p := &Proxy{
		backend:   backend,
		seed:      seed,
		scenarios: scenarios,
		ln:        ln,
		conns:     map[net.Conn]bool{},
		closed:    make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — point the client here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Seed returns the seed, for failure reports ("replay with -seed N").
func (p *Proxy) Seed() int64 { return p.seed }

// Accepted returns how many connections the proxy has accepted.
func (p *Proxy) Accepted() int64 { return p.accepted.Load() }

// SetDown marks the backend dead (refuse new connections, sever live
// ones) or revives it.
func (p *Proxy) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	var clients, backends []net.Conn
	if down {
		for c, client := range p.conns {
			if client {
				clients = append(clients, c)
			} else {
				backends = append(backends, c)
			}
		}
	}
	p.mu.Unlock()
	// Client sides first: a backend conn aborted first ends the response
	// copy, which half-closes the client conn, and the client would read
	// a clean FIN before the reset.
	for _, c := range append(clients, backends...) {
		abortConn(c)
	}
}

// Close stops the proxy and severs every connection.
func (p *Proxy) Close() error {
	select {
	case <-p.closed:
		return nil
	default:
	}
	close(p.closed)
	err := p.ln.Close()
	p.mu.Lock()
	var sever []net.Conn
	for c := range p.conns {
		sever = append(sever, c)
	}
	p.mu.Unlock()
	for _, c := range sever {
		c.Close()
	}
	p.wg.Wait()
	return err
}

// track registers c (client-facing or backend side) for teardown;
// false if the proxy is closing.
func (p *Proxy) track(c net.Conn, client bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.closed:
		return false
	default:
	}
	p.conns[c] = client
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) isDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// connRand derives the per-connection RNG. SplitMix-style mixing
// keeps neighbouring accept indices uncorrelated.
func connRand(seed, idx int64) *rand.Rand {
	z := uint64(seed) + uint64(idx)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		idx := p.accepted.Add(1) - 1
		sc := p.scenarios[idx%int64(len(p.scenarios))]
		if p.isDown() || sc.Refuse {
			abortConn(c)
			continue
		}
		p.wg.Add(1)
		go p.handle(c, sc, connRand(p.seed, idx))
	}
}

// abortConn closes with a pending RST (SO_LINGER 0) so the peer sees
// a hard reset, not a graceful FIN — the difference between "backend
// died" and "backend finished".
func abortConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// handle proxies one connection under its scenario.
func (p *Proxy) handle(cc net.Conn, sc Scenario, rng *rand.Rand) {
	defer p.wg.Done()
	if !p.track(cc, true) {
		cc.Close()
		return
	}
	defer func() { p.untrack(cc); cc.Close() }()

	if sc.Blackhole {
		// Swallow the request stream; answer nothing. The client's
		// deadline is the only way out.
		io.Copy(io.Discard, cc)
		return
	}

	bc, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		abortConn(cc)
		return
	}
	if !p.track(bc, false) {
		bc.Close()
		return
	}
	defer func() { p.untrack(bc); bc.Close() }()

	done := make(chan struct{}, 2)
	// Request direction: forward faithfully.
	go func() {
		io.Copy(bc, cc)
		if tc, ok := bc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// Response direction: apply the scenario's shaping.
	go func() {
		p.shapedCopy(cc, bc, sc, rng)
		done <- struct{}{}
	}()
	<-done
	<-done
}

// shapedCopy forwards src→dst applying latency, jitter, bandwidth
// caps, corruption, truncation and resets at their configured
// response-stream offsets.
func (p *Proxy) shapedCopy(dst, src net.Conn, sc Scenario, rng *rand.Rand) {
	buf := make([]byte, 2048)
	var written int64
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			b := buf[:n]
			// Clip the chunk at the first configured boundary so the
			// byte count delivered before the fault is exact.
			action := byte(0)
			if sc.ResetAfter > 0 && written+int64(len(b)) >= sc.ResetAfter {
				b = b[:sc.ResetAfter-written]
				action = 'r'
			}
			if sc.TruncateAfter > 0 && written+int64(len(b)) >= sc.TruncateAfter {
				b = b[:sc.TruncateAfter-written]
				action = 't'
			}
			if sc.CorruptAt >= written && sc.CorruptAt < written+int64(len(b)) {
				b[sc.CorruptAt-written] ^= 0xFF
			}
			if sc.Latency > 0 || sc.Jitter > 0 {
				d := sc.Latency
				if sc.Jitter > 0 {
					d += time.Duration(rng.Int63n(int64(sc.Jitter)))
				}
				if !p.sleep(d) {
					return
				}
			}
			if sc.BandwidthBPS > 0 && len(b) > 0 {
				d := time.Duration(int64(len(b)) * int64(time.Second) / int64(sc.BandwidthBPS))
				if !p.sleep(d) {
					return
				}
			}
			if len(b) > 0 {
				if _, werr := dst.Write(b); werr != nil {
					return
				}
				written += int64(len(b))
			}
			switch action {
			case 'r':
				abortConn(dst)
				abortConn(src)
				return
			case 't':
				dst.Close()
				src.Close()
				return
			}
		}
		if rerr != nil {
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}

// sleep waits d unless the proxy closes first; false means closing.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.closed:
		return false
	}
}

// Fleet is a convenience for chaos tests: one proxy per backend
// address, all sharing a seed (offset per proxy index so their
// schedules differ deterministically).
type Fleet struct {
	Proxies []*Proxy
}

// NewFleet builds one proxy per backend with per-proxy derived seeds.
func NewFleet(backends []string, seed int64, scenarios []Scenario) (*Fleet, error) {
	f := &Fleet{}
	for i, b := range backends {
		pr, err := New(b, seed+int64(i)*7919, scenarios)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Proxies = append(f.Proxies, pr)
	}
	return f, nil
}

// Addrs returns the proxy addresses, in backend order.
func (f *Fleet) Addrs() []string {
	out := make([]string, len(f.Proxies))
	for i, pr := range f.Proxies {
		out[i] = pr.Addr()
	}
	return out
}

// Close closes every proxy.
func (f *Fleet) Close() error {
	var errs []error
	for _, pr := range f.Proxies {
		if pr != nil {
			errs = append(errs, pr.Close())
		}
	}
	return errors.Join(errs...)
}
