package netsvc

import (
	"fmt"
	"net"
	"time"
)

// LoopbackSpec is what differs between the loopback deployments the
// experiments, tests and examples stand up inside one process.
type LoopbackSpec struct {
	// Components is the number of component servers.
	Components int
	// Handler returns server i's workload handler.
	Handler func(i int) Handler
	// Ingest, when non-nil, returns server i's append handler; nil
	// deploys read-only components.
	Ingest func(i int) IngestHandler
	Server ServerOptions
	Agg    AggregatorOptions
	// WrapListener, when non-nil, wraps server i's listener before it
	// serves (fault-injection fabrics).
	WrapListener func(i int, l net.Listener) net.Listener
	// Front builds the client-facing server over the ready aggregator,
	// with whatever frontend, cache and planes the deployment runs. Nil
	// stops at the aggregator: no front server, no client.
	Front func(*Aggregator) (*FrontServer, error)
}

// Loopback is one running loopback deployment: component servers on
// ephemeral 127.0.0.1 ports, the aggregator fanning out to them, and —
// when the spec has a Front — the front server and a connected client.
type Loopback struct {
	Servers []*Server
	Addrs   []string // Addrs[i] is Servers[i]'s listen address
	Agg     *Aggregator
	Front   *FrontServer
	Client  *Client
	closers []func() // run in reverse order by Close
}

// Close tears the deployment down in reverse start order: client, front
// server (and its auditor, if one was enabled), aggregator, components.
func (lb *Loopback) Close() {
	for i := len(lb.closers) - 1; i >= 0; i-- {
		lb.closers[i]()
	}
	lb.closers = nil
}

// StartLoopback listens, serves, waits until every component answers
// and dials the client. On error whatever had started is closed.
func StartLoopback(spec LoopbackSpec) (*Loopback, error) {
	lb := &Loopback{}
	ok := false
	defer func() {
		if !ok {
			lb.Close()
		}
	}()
	listen := func() (net.Listener, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("netsvc: loopback listen: %w", err)
		}
		return l, nil
	}
	for i := 0; i < spec.Components; i++ {
		l, err := listen()
		if err != nil {
			return nil, err
		}
		srv := NewServer(spec.Handler(i), spec.Server)
		if spec.Ingest != nil {
			srv.SetIngest(spec.Ingest(i))
		}
		lb.Servers = append(lb.Servers, srv)
		lb.Addrs = append(lb.Addrs, l.Addr().String())
		lb.closers = append(lb.closers, srv.Close)
		if spec.WrapListener != nil {
			l = spec.WrapListener(i, l)
		}
		go srv.Serve(l) //nolint:errcheck // ends with Close; a listener failure surfaces as WaitReady's error
	}
	agg, err := NewAggregator(lb.Addrs, spec.Agg)
	if err != nil {
		return nil, err
	}
	lb.Agg = agg
	lb.closers = append(lb.closers, agg.Close)
	if err := agg.WaitReady(5 * time.Second); err != nil {
		return nil, err
	}
	if spec.Front == nil {
		ok = true
		return lb, nil
	}
	front, err := spec.Front(agg)
	if front != nil { // even beside an error: its workers are already running
		lb.Front = front
		lb.closers = append(lb.closers, front.Auditor().Close, front.Close)
	}
	if err != nil {
		return nil, err
	}
	fl, err := listen()
	if err != nil {
		return nil, err
	}
	go front.Serve(fl) //nolint:errcheck // as above; DialClient fails if it is not serving
	cl, err := DialClient(fl.Addr().String(), ClientOptions{})
	if err != nil {
		return nil, err
	}
	lb.Client = cl
	lb.closers = append(lb.closers, cl.Close)
	ok = true
	return lb, nil
}
