package seer

// NewSystemQuantum is NewSystem with the engine's speculation depth set to
// k instead of DefaultSpeculativeQuantum; k = 0 is the per-tick reference
// engine the quantum tests compare against.
func NewSystemQuantum(cfg Config, k int) (*System, error) { return newSystem(cfg, k) }
