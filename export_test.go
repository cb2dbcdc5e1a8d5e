package seer

import (
	"seer/internal/core"
	"seer/internal/policy"
)

// LockRange is the run of simulated words Run frees before the engine
// starts: [lo, hi).
func (s *System) LockRange() (lo, hi Addr) { return s.sgl.Addr(), s.sgl.Addr() + Addr(s.lockWords) }

// RuntimeLocks lists the runtime's lock words, each from its owner: the
// SGL, SCM's auxiliary lock, ATS's dispatch lock and Seer's transaction,
// core and object locks.
func (s *System) RuntimeLocks() []Addr {
	locks := []Addr{s.sgl.Addr()}
	switch p := s.pol.(type) {
	case *policy.SCM:
		locks = append(locks, p.Aux.Addr())
	case *policy.ATS:
		locks = append(locks, p.Sched.Addr())
	case *policy.Seer:
		for i := range p.Sched.NumTx() {
			locks = append(locks, p.Sched.TxLock(i).Addr())
			for st := 0; s.cfg.Seer.ObjLocks && st < core.ObjStripes; st++ {
				locks = append(locks, p.Sched.ObjLock(i, st).Addr())
			}
		}
		for c := range s.eng.Config().PhysCores() {
			locks = append(locks, p.Sched.CoreLock(c).Addr())
		}
	}
	return locks
}

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
