package seer

// NewSystemQuantum is NewSystem with the engine's speculation depth set to
// k instead of DefaultSpeculativeQuantum; k = 0 is the per-tick reference
// engine the quantum tests compare against.
func NewSystemQuantum(cfg Config, k int) (*System, error) { return newSystem(cfg, k) }

// NewSystemUndelegated is NewSystem with delegation off
// (machine.Engine.SetDelegation): every lock acquire, wait and attempt
// prologue runs the engine's protocol in its thread's coroutine, tick by
// tick, and every wake is eager. It is the reference the engine-side
// continuations and the lazy herd must be invisible against.
func NewSystemUndelegated(cfg Config) (*System, error) {
	s, err := NewSystem(cfg)
	if err == nil {
		s.eng.SetDelegation(false)
	}
	return s, err
}
