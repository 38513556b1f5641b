package faultinject

// HealAll heals every script in the fabric.
func (f *Fabric) HealAll() {
	f.mu.Lock()
	all := make([]*Script, 0, len(f.scripts))
	for _, s := range f.scripts {
		all = append(all, s)
	}
	f.mu.Unlock()
	for _, s := range all {
		s.Heal()
	}
}
