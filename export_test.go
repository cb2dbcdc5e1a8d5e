package seer

// NewSystemQuantum is NewSystem with the engine's speculation depth set to
// k instead of DefaultSpeculativeQuantum; k = 0 is the per-tick reference
// engine the quantum tests compare against.
func NewSystemQuantum(cfg Config, k int) (*System, error) { return newSystem(cfg, k) }

// ForceEagerWakes installs a no-op tick hook. With any tick hook the
// engine queues every acquirer a lock release finds parked instead of only
// the one that can win (machine.Ctx.WakeKey), so this is the eager
// reference the lazy herd must be invisible against.
func (s *System) ForceEagerWakes() { s.eng.SetTickHook(func(uint64) {}) }

// NewSystemUndelegated is NewSystem on an engine with delegation off
// (machine.Engine.SetDelegation): lock waits and attempt prologues run in
// the threads' coroutines. It is the reference the engine-side
// continuations must be invisible against.
func NewSystemUndelegated(cfg Config) (*System, error) {
	s, err := NewSystem(cfg)
	if err == nil {
		s.eng.SetDelegation(false)
	}
	return s, err
}
