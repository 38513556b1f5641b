package faultinject

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/stats"
)

// Mode is a fault a Script can impose on its target.
type Mode uint32

// The fault modes.
const (
	// None passes traffic through untouched.
	None Mode = iota
	// Crash resets existing connections and cuts new ones at accept;
	// scripted dialers refuse outright.
	Crash
	// Stall blocks the target's reads until healed or closed.
	Stall
	// Partition black-holes writes: they report success and go nowhere.
	Partition
	// Slow delays every write by the script's configured latency.
	Slow
	// Corrupt flips one deterministically chosen byte in each written
	// frame body.
	Corrupt
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Partition:
		return "partition"
	case Slow:
		return "slow"
	case Corrupt:
		return "corrupt"
	default:
		return "unknown"
	}
}

// ErrInjected is returned by connections killed by an injected crash
// and by dialers refused by a crashed target.
var ErrInjected = errors.New("faultinject: injected fault")

// Script is one target's live fault state. The zero value is not
// usable; construct via NewScript or Fabric.Script. Safe for
// concurrent use; mode changes take effect immediately on every
// connection the script has wrapped.
type Script struct {
	name string
	mode atomic.Uint32
	slow atomic.Int64 // Slow-mode write delay, ns

	rmu sync.Mutex
	rng *stats.RNG // corrupt-byte positions

	mu      sync.Mutex
	conns   map[*faultConn]struct{}
	changed chan struct{} // closed and replaced on every Set
}

// NewScript returns a healthy (None) script for the named target. seed
// drives corrupt-byte positions deterministically.
func NewScript(name string, seed uint64) *Script {
	return &Script{
		name:    name,
		rng:     stats.NewRNG(seed),
		conns:   make(map[*faultConn]struct{}),
		changed: make(chan struct{}),
	}
}

// Mode returns the current fault mode.
func (s *Script) Mode() Mode { return Mode(s.mode.Load()) }

// Set switches the fault mode, waking any reads blocked by a previous
// Stall. Switching to Crash resets every tracked connection.
func (s *Script) Set(m Mode) {
	s.mode.Store(uint32(m))
	s.mu.Lock()
	close(s.changed)
	s.changed = make(chan struct{})
	var victims []*faultConn
	if m == Crash {
		for c := range s.conns {
			victims = append(victims, c)
		}
	}
	s.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// SetSlow switches to Slow mode with the given per-write delay.
func (s *Script) SetSlow(d time.Duration) {
	s.slow.Store(int64(d))
	s.Set(Slow)
}

// Heal restores pass-through behaviour.
func (s *Script) Heal() { s.Set(None) }

// changeCh returns the channel closed at the next Set, for reads
// blocked in Stall.
func (s *Script) changeCh() chan struct{} {
	s.mu.Lock()
	ch := s.changed
	s.mu.Unlock()
	return ch
}

// corruptAt picks the byte to flip in a body of n bytes.
func (s *Script) corruptAt(n int) int {
	s.rmu.Lock()
	i := s.rng.Intn(n)
	s.rmu.Unlock()
	return i
}

func (s *Script) track(c *faultConn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Script) untrack(c *faultConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// WrapConn wraps a single connection under the script's control.
func (s *Script) WrapConn(c net.Conn) net.Conn {
	fc := &faultConn{Conn: c, s: s, closed: make(chan struct{})}
	s.track(fc)
	return fc
}

// WrapListener wraps a listener so every accepted connection is under
// the script's control. While the script is in Crash mode, accepted
// connections are cut immediately — the port stays bound (the kernel
// completes the handshake) but the process behind it is gone.
func (s *Script) WrapListener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, s: s}
}

// Dialer wraps a dial function for the client side: Crash refuses
// before any network activity; other modes wrap the resulting
// connection.
func (s *Script) Dialer(dial func(addr string, timeout time.Duration) (net.Conn, error)) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		if s.Mode() == Crash {
			return nil, ErrInjected
		}
		c, err := dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		return s.WrapConn(c), nil
	}
}

// faultListener applies its script to every accepted connection.
type faultListener struct {
	net.Listener
	s *Script
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.s.Mode() == Crash {
			c.Close()
			continue
		}
		return l.s.WrapConn(c), nil
	}
}

// faultConn applies its script's current mode to each Read and Write.
type faultConn struct {
	net.Conn
	s         *Script
	closeOnce sync.Once
	closed    chan struct{}
}

func (c *faultConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		c.s.untrack(c)
		err = c.Conn.Close()
	})
	return err
}

func (c *faultConn) Read(p []byte) (int, error) {
	for {
		switch c.s.Mode() {
		case Stall:
			// Block until the mode changes or the conn dies. Inbound
			// bytes queue in the kernel meanwhile — exactly what a
			// process that stopped reading looks like.
			select {
			case <-c.s.changeCh():
				continue
			case <-c.closed:
				return 0, ErrInjected
			}
		case Crash:
			c.Close()
			return 0, ErrInjected
		default:
			return c.Conn.Read(p)
		}
	}
}

func (c *faultConn) Write(p []byte) (int, error) {
	switch c.s.Mode() {
	case Partition:
		return len(p), nil
	case Crash:
		c.Close()
		return 0, ErrInjected
	case Slow:
		d := time.Duration(c.s.slow.Load())
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-c.closed:
				t.Stop()
				return 0, ErrInjected
			}
		}
		return c.Conn.Write(p)
	case Corrupt:
		if len(p) == 0 {
			return c.Conn.Write(p)
		}
		buf := make([]byte, len(p))
		copy(buf, p)
		// Flip a byte past the 4-byte length prefix when the frame has
		// one, so the peer fails on decode rather than desyncing the
		// stream with a bogus frame length.
		lo := 0
		if len(buf) > 4 {
			lo = 4
		}
		buf[lo+c.s.corruptAt(len(buf)-lo)] ^= 0xFF
		return c.Conn.Write(buf)
	default:
		return c.Conn.Write(p)
	}
}

// Fabric names Scripts by target and hands out deterministic per-target
// seeds derived from the fabric seed, so a scripted failure scenario
// replays identically. Safe for concurrent use.
type Fabric struct {
	seed    uint64
	mu      sync.Mutex
	scripts map[string]*Script
}

// NewFabric returns an empty fabric with the given base seed.
func NewFabric(seed uint64) *Fabric {
	return &Fabric{seed: seed, scripts: make(map[string]*Script)}
}

// Script returns the script for the named target, creating it (healthy)
// on first use. The script's seed mixes the fabric seed with an FNV-1a
// hash of the name.
func (f *Fabric) Script(target string) *Script {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.scripts[target]; ok {
		return s
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(target); i++ {
		h ^= uint64(target[i])
		h *= 1099511628211
	}
	s := NewScript(target, f.seed^h)
	f.scripts[target] = s
	return s
}

// Targets returns the names of all scripts created so far.
func (f *Fabric) Targets() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.scripts))
	for n := range f.scripts {
		out = append(out, n)
	}
	return out
}
