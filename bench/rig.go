package main

import (
	"fmt"
	"net"
	"time"

	"accuracytrader/internal/netsvc"
)

// components is the fan-out width of every workload: one component
// server per data shard.
const components = 8

// rig is one loopback deployment inside this process: the component
// servers, the aggregator that fans out to them, the client-facing
// front server, and the load generator's client.
type rig struct {
	servers []*netsvc.Server
	agg     *netsvc.Aggregator
	front   *netsvc.FrontServer
	client  *netsvc.Client
	closers []func() // run in reverse order by Close
}

// Close tears the deployment down, client first.
func (r *rig) Close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// rigSpec is what differs between the workloads' deployments.
type rigSpec struct {
	handler    func(server int) netsvc.Handler
	ingest     netsvc.IngestHandler // nil: read-only components
	serverOpts netsvc.ServerOptions
	aggOpts    netsvc.AggregatorOptions
	// front builds the front server over the started aggregator, with
	// whatever frontend, cache and planes the workload deploys. It may
	// append to r.closers.
	front func(r *rig) (*netsvc.FrontServer, error)
}

// startRig listens, serves, waits until every component answers and
// dials the client. With a tracer, listeners, the aggregator's dialer
// and the handlers are instrumented; without one nothing is wrapped.
func startRig(spec rigSpec, tr *tracer) (*rig, error) {
	r := &rig{}
	ok := false
	defer func() {
		if !ok {
			r.Close()
		}
	}()
	listen := func(front bool) (net.Listener, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		return tr.wrapListener(l, front), nil
	}
	addrs := make([]string, components)
	for i := 0; i < components; i++ {
		l, err := listen(false)
		if err != nil {
			return nil, err
		}
		srv := netsvc.NewServer(tr.wrapHandler(i, spec.handler(i)), spec.serverOpts)
		if spec.ingest != nil {
			srv.SetIngest(spec.ingest)
		}
		go srv.Serve(l) //nolint:errcheck // ends with Close; a listener failure surfaces as WaitReady's error
		r.servers = append(r.servers, srv)
		r.closers = append(r.closers, srv.Close)
		addrs[i] = l.Addr().String()
	}
	aggOpts := spec.aggOpts
	aggOpts.Dial = tr.dialer()
	agg, err := netsvc.NewAggregator(addrs, aggOpts)
	if err != nil {
		return nil, err
	}
	r.agg = agg
	r.closers = append(r.closers, agg.Close)
	if err := agg.WaitReady(5 * time.Second); err != nil {
		return nil, err
	}
	front, err := spec.front(r)
	if err != nil {
		return nil, err
	}
	fl, err := listen(true)
	if err != nil {
		return nil, err
	}
	go front.Serve(fl) //nolint:errcheck // as above; DialClient fails if it is not serving
	r.front = front
	r.closers = append(r.closers, front.Close)
	cl, err := netsvc.DialClient(fl.Addr().String(), netsvc.ClientOptions{})
	if err != nil {
		return nil, err
	}
	r.client = cl
	r.closers = append(r.closers, cl.Close)
	ok = true
	return r, nil
}
