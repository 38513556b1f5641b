package netsvc

import (
	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/wire"
)

// NewFrontServer is NewFront for opts without planes, which the setters
// below then install. bench/ only; deleted by ROADMAP item 1.
func NewFrontServer(agg *Aggregator, front *frontend.Frontend, opts ServerOptions) *FrontServer {
	s, _ := NewFront(agg, front, opts) // only a plane is ever refused
	return s
}

// EnableCache installs a Cache. bench/ only; deleted by ROADMAP item 1.
func (s *FrontServer) EnableCache(c *rescache.Cache) error { return s.install(ServerOptions{Cache: c}) }

// EnableSLO installs an SLO tracker; the hook is ignored. bench/ only; deleted by ROADMAP item 1.
func (s *FrontServer) EnableSLO(t *obs.SLOTracker, _ func(*wire.Request) string) {
	s.install(ServerOptions{SLO: t})
}

// EnableAudit starts the auditor, which the server closes. bench/ only; deleted by ROADMAP item 1.
func (s *FrontServer) EnableAudit(cfg audit.Config) (*audit.Auditor, error) {
	err := s.install(ServerOptions{Audit: &cfg})
	return s.auditor, err
}

// EnableCost installs a cost table. bench/ only; deleted by ROADMAP item 1.
func (s *FrontServer) EnableCost(t *cost.Table) error { return s.install(ServerOptions{Costs: t}) }

// EnableIngest does nothing: every front server forwards appends. bench/ only; deleted by ROADMAP item 1.
func (s *FrontServer) EnableIngest(int) {}
