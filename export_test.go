package seer

// NewSystemQuantum is NewSystem with the engine's speculation depth set to
// k instead of DefaultSpeculativeQuantum; k = 0 is the per-tick reference
// engine the quantum tests compare against.
func NewSystemQuantum(cfg Config, k int) (*System, error) { return newSystem(cfg, k) }

// NewSystemUndelegated is NewSystem on an unwired engine: delegation off
// (machine.Engine.SetDelegation) and no lock-word operations
// (machine.Engine.SetLockWordOps), so every lock acquire, wait and attempt
// prologue ticks in its thread's coroutine and every wake is eager. It is
// the reference the engine-side continuations and the lazy herd must be
// invisible against.
func NewSystemUndelegated(cfg Config) (*System, error) {
	s, err := NewSystem(cfg)
	if err == nil {
		s.eng.SetDelegation(false)
		s.eng.SetLockWordOps(nil, nil)
	}
	return s, err
}
