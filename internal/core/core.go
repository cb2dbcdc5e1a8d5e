// Package core implements Seer, the probabilistic transaction scheduler of
// the paper (Algorithms 1–5 and the data structures of Table 2).
//
// Seer compensates for the coarse abort feedback of best-effort HTM: it
// announces running transactions in a global activeTxs array, samples that
// array on every commit/abort into per-thread statistics matrices, and
// periodically turns the merged statistics into a fine-grained dynamic
// locking scheme. A pair of atomic blocks (x, y) is serialized when
//
//	P(x aborts ∩ x‖y) > Θ₁   and   P(x aborts | x‖y) > Θ₂-percentile of
//	                                a Gaussian fitted to row x
//
// in which case x and y acquire each other's transaction lock on their
// last hardware attempt. Core locks additionally serialize hyperthread
// siblings of a physical core when capacity aborts are observed. Θ₁ and
// Θ₂ self-tune via stochastic hill climbing on measured throughput.
package core

import (
	"math/bits"
	"slices"

	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
	"seer/internal/stats"
	"seer/internal/telemetry"
	"seer/internal/tmds"
	"seer/internal/topology"
	"seer/internal/tune"
)

// NoTx is the empty slot value in the active-transactions array.
const NoTx int32 = -1

// Options selects which of Seer's mechanisms are enabled. The full
// scheduler enables everything; the evaluation's ablation variants
// (Figures 4 and 5) switch mechanisms off cumulatively.
type Options struct {
	TxLocks    bool // acquire per-transaction locks on the last attempt
	CoreLocks  bool // acquire per-core locks on capacity aborts
	HTMLockAcq bool // batch multi-lock acquisition in a hardware transaction
	HillClimb  bool // self-tune Θ₁/Θ₂ (otherwise static thresholds)

	// ObjLocks enables the object-granular locking scheme sketched in
	// the paper's future work (§6): instead of one lock per atomic
	// block, each block owns ObjStripes locks and a transaction takes
	// the stripe selected by the object identifier it passed to
	// AtomicObj. Transactions of conflict-prone blocks that manipulate
	// different objects then proceed in parallel.
	ObjLocks bool

	// PreciseOracle feeds the inference with the TRUE conflictor of
	// every conflict abort (via the simulator-only htm.LastConflictor)
	// instead of blaming every concurrently active block. No real HTM
	// can provide this; the variant exists to measure how much of the
	// value of precise feedback Seer's probabilistic filtering recovers
	// (see seerbench -experiment ext).
	PreciseOracle bool

	// SampleShift enables the probabilistic-sampling extension of the
	// paper's future work (§6, citing Dice et al.'s scalable statistics
	// counters): commit/abort events update the statistics matrices
	// with probability 2^-SampleShift instead of always, cutting the
	// monitoring overhead proportionally. The estimators stay unbiased
	// because commits and aborts are sampled at the same rate. 0 keeps
	// the paper's always-on profiling.
	SampleShift uint

	// UpdateEvery is the number of executions between lock-scheme
	// recomputations (the paper recomputes opportunistically while
	// waiting on the fall-back lock; the period bounds staleness when
	// the fall-back is rarely used).
	UpdateEvery uint64
	// EpochExecs is the number of executions per hill-climbing epoch.
	EpochExecs uint64
}

// ObjStripes is the number of lock stripes per atomic block under
// Options.ObjLocks.
const ObjStripes = 8

// DefaultOptions enables the full Seer scheduler with the paper's
// parameters.
func DefaultOptions() Options {
	return Options{
		TxLocks:     true,
		CoreLocks:   true,
		HTMLockAcq:  true,
		HillClimb:   true,
		UpdateEvery: 768,
		EpochExecs:  3000,
	}
}

// ProfileOnly returns options where Seer monitors, infers and tunes but
// never acquires a lock — the overhead-measurement variant of Figure 4.
func ProfileOnly() Options {
	o := DefaultOptions()
	o.TxLocks = false
	o.CoreLocks = false
	o.HTMLockAcq = false
	return o
}

// ThreadState is the per-thread metadata of the paper's `thread` variable.
// The TM runtime owns one per worker and passes it to every Seer call.
type ThreadState struct {
	Ctx              *machine.Ctx
	Obs              *telemetry.Thread   // set by the runtime after NewThreadState; nil records nothing
	Ledger           *telemetry.Counters // set by the runtime beside Obs; multi-CAS outcomes and thread 0's scheme updates count there
	AcquiredTxLocks  bool
	AcquiredCoreLock bool

	// heldTxLocks snapshots the locks actually acquired, so release
	// stays correct even if the scheme is swapped mid-transaction. Its
	// capacity is reused across transactions.
	heldTxLocks []spinlock.Lock

	// obj is the object identifier of the in-flight transaction
	// (AtomicObj), selecting the lock stripe under ObjLocks.
	obj uint64

	mats *stats.Matrices // per-thread commit/abort statistics

	// seen deduplicates atomic blocks within one activeTxs scan. A slot
	// counts as marked when it holds the current epoch, so starting a new
	// scan is one counter increment instead of an O(numTx) clear.
	seen      []uint32
	seenEpoch uint32

	// rowScratch holds the thread's private copy of its scheme row during
	// lock acquisition: the scheme table is rebuilt in place by
	// UpdateScheme, which may run (on thread 0) while this thread is
	// suspended mid-acquisition.
	rowScratch []int
}

// Mats exposes the thread's statistics matrices (tests and inspection).
func (t *ThreadState) Mats() *stats.Matrices { return t.mats }

// HoldsTxLocks reports whether the thread actually holds any transaction
// locks (AcquiredTxLocks is also set when the scheme row was empty, to
// avoid re-running the acquisition on later attempts).
func (t *ThreadState) HoldsTxLocks() bool { return len(t.heldTxLocks) > 0 }

// Seer is the scheduler instance shared by all workers of a system. Its
// run-scoped state is run, which BeginRun replaces whole; every other
// field is configuration, a lock, reusable scratch or learned state that
// carries across Runs: the merged statistics, the scheme, Θ, the tuner
// and the update countdown (DESIGN §6f).
type Seer struct {
	numTx int
	mach  machine.Config
	mem   *mem.Memory
	htm   *htm.Unit
	opts  Options

	run       seerRun
	merged    *stats.Matrices   // global matrices, fed per-thread deltas on update
	scheme    [][]int           // locksToAcquire: row per tx, sorted lock ids
	txLocks   []spinlock.Lock   // one per atomic block
	objLocks  [][]spinlock.Lock // per block × stripe, when ObjLocks is on
	coreLocks []spinlock.Lock   // one per physical core
	tuner     *tune.HillClimber
	th        tune.Params

	// Reusable scratch for UpdateScheme, so the periodic recomputation is
	// allocation-free in steady state. schemeBits is a flat numTx×numTx
	// bitset (schemeWords words per row) of serialized pairs from which
	// the scheme rows are rebuilt in place.
	schemeBits    []uint64
	schemeWords   int
	updRow        []float64
	updCandidates []int
	updCondVals   []float64

	execsSinceUpdate uint64 // executions since the last scheme update
}

// seerRun is what one Run of the scheduler stamps: the announcements, the
// Run's thread states, the tuning epoch and the lock-acquisition
// histogram.
type seerRun struct {
	activeTxs []int32        // one single-writer slot per hardware thread
	live      topology.Set   // the threads whose activeTxs slot holds a transaction
	threads   []*ThreadState // the thread states registered in this Run
	epoch     tuneEpoch
	// lockAcqSizes[n] counts acquisitions of an n-lock tx-lock row (numTx+1
	// entries), for the evaluation's fraction of tx locks taken (§5.2).
	lockAcqSizes []uint64
}

// tuneEpoch is the hill-climbing epoch in progress: executions and commits
// since it began at startCycles.
type tuneEpoch struct{ execs, commits, startCycles uint64 }

// New creates a Seer instance for numTx atomic blocks on the given
// machine. Locks are allocated from the simulated memory.
func New(numTx int, mach machine.Config, m *mem.Memory, u *htm.Unit, opts Options, rng *machine.Rand) *Seer {
	s := &Seer{
		numTx:     numTx,
		mach:      mach,
		mem:       m,
		htm:       u,
		opts:      opts,
		run:       seerRun{activeTxs: make([]int32, mach.HWThreads()), lockAcqSizes: make([]uint64, numTx+1)},
		merged:    stats.NewMatrices(numTx),
		scheme:    make([][]int, numTx),
		txLocks:   make([]spinlock.Lock, numTx),
		coreLocks: make([]spinlock.Lock, mach.PhysCores()),
		th:        tune.DefaultInit(),

		schemeWords:   (numTx + 63) / 64,
		updRow:        make([]float64, numTx),
		updCandidates: make([]int, 0, numTx),
		updCondVals:   make([]float64, 0, numTx),
	}
	s.schemeBits = make([]uint64, numTx*s.schemeWords)
	for i := range s.txLocks {
		s.txLocks[i] = spinlock.New(m)
	}
	if opts.ObjLocks {
		s.objLocks = make([][]spinlock.Lock, numTx)
		for i := range s.objLocks {
			s.objLocks[i] = make([]spinlock.Lock, ObjStripes)
			for j := range s.objLocks[i] {
				s.objLocks[i][j] = spinlock.New(m)
			}
		}
	}
	for i := range s.coreLocks {
		s.coreLocks[i] = spinlock.New(m)
	}
	if opts.HillClimb {
		s.tuner = tune.New(s.th, tune.DefaultConfig(), rng)
		s.th = s.tuner.Params()
	}
	s.BeginRun()
	return s
}

// NumTx returns the number of atomic blocks.
func (s *Seer) NumTx() int { return s.numTx }

// SchemePairs returns the number of serialized (x, y) block pairs in the
// current locking scheme, counting each unordered pair once.
func (s *Seer) SchemePairs() int {
	pairs := 0
	for x, row := range s.scheme {
		for _, y := range row {
			if y >= x {
				pairs++
			}
		}
	}
	return pairs
}

// Thresholds returns the current (Θ₁, Θ₂).
func (s *Seer) Thresholds() tune.Params { return s.th }

// Scheme returns the current locksToAcquire table (rows of sorted lock
// ids). The returned slices must not be modified, and are rebuilt in
// place by the next scheme update.
func (s *Seer) Scheme() [][]int { return s.scheme }

// Merged returns the last merged global statistics (for inspection).
func (s *Seer) Merged() *stats.Matrices { return s.merged }

// SnapshotLearned fills dst with the scheduler's current learned
// statistics: the merged global matrices plus every thread's
// not-yet-drained delta, without disturbing either (UpdateScheme drains
// the deltas for real). Read-only introspection for the inference-quality
// scorer (telemetry.Options.Learned); dst must be sized for NumTx blocks.
func (s *Seer) SnapshotLearned(dst *stats.Matrices) {
	dst.Reset()
	dst.MergeFrom(s.merged)
	for _, t := range s.run.threads {
		dst.MergeFrom(t.mats)
	}
}

// Tuner returns the hill climber, or nil when self-tuning is disabled.
func (s *Seer) Tuner() *tune.HillClimber { return s.tuner }

// BeginRun starts a Run: the previous Run's thread states hand their
// undrained statistics to the merged matrices, and the run state restarts
// whole on its own storage, every slot empty and the epoch at cycle 0,
// where the engine restarts the clocks. Only the learned state named on
// Seer carries over (DESIGN §6f), so a Run that failed leaves no
// transaction announced.
func (s *Seer) BeginRun() {
	for _, t := range s.run.threads {
		s.merged.MergeFrom(t.mats)
	}
	for i := range s.run.activeTxs {
		s.run.activeTxs[i] = NoTx
	}
	clear(s.run.lockAcqSizes)
	s.run = seerRun{activeTxs: s.run.activeTxs, threads: s.run.threads[:0], lockAcqSizes: s.run.lockAcqSizes}
}

// LockAcqSizes returns this Run's lock-acquisition histogram: entry n
// counts the acquisitions of an n-lock tx-lock row.
func (s *Seer) LockAcqSizes() []uint64 { return s.run.lockAcqSizes }

// NewThreadState registers a worker thread with the scheduler.
func (s *Seer) NewThreadState(ctx *machine.Ctx) *ThreadState {
	t := &ThreadState{Ctx: ctx, mats: stats.NewMatrices(s.numTx), seen: make([]uint32, s.numTx)}
	s.run.threads = append(s.run.threads, t)
	return t
}

// --- Algorithm 1/2 fragments: announcement ---

// Start announces txID in the active-transactions list (one plain store;
// the slot is a single-writer multi-reader register) and resets the
// per-transaction lock flags. obj selects the lock stripe when the
// object-granular extension is enabled (pass 0 otherwise).
func (s *Seer) Start(t *ThreadState, txID int, obj uint64) {
	t.AcquiredTxLocks = false
	t.AcquiredCoreLock = false
	t.heldTxLocks = t.heldTxLocks[:0]
	t.obj = obj
	t.Ctx.Tick(t.Ctx.Cost().DirectStore)
	s.run.activeTxs[t.Ctx.ID()] = int32(txID)
	s.run.live.Add(t.Ctx.ID())
}

// lockFor returns the lock a transaction of block id with t's object
// identifier must take: the block's stripe under ObjLocks, the block
// lock otherwise.
func (s *Seer) lockFor(t *ThreadState, id int) spinlock.Lock {
	if s.opts.ObjLocks {
		stripe := int(tmds.Hash(t.obj) % ObjStripes)
		return s.objLocks[id][stripe]
	}
	return s.txLocks[id]
}

// Finish clears the thread's slot in the active-transactions list.
func (s *Seer) Finish(t *ThreadState) {
	t.Ctx.Tick(t.Ctx.Cost().DirectStore)
	s.run.activeTxs[t.Ctx.ID()] = NoTx
	s.run.live.Remove(t.Ctx.ID())
}

// --- Algorithm 3: statistics registration ---

// scanActive folds the active-transactions list into the per-thread
// matrices, as aborts when abort is set and commits otherwise. One
// scheduling point covers the whole scan: the list is read with plain
// loads, synchronization-free by design.
//
// Each atomic block is counted at most once per event, even when several
// threads are running it concurrently: the paper's Algorithm 5 interprets
// the ratios of these counters as probabilities (P ≤ 1), which only holds
// for 0/1-per-event indicator counts. Per-slot counting would push
// P(x aborts ∩ x‖y) above 1 for any block that often runs on several
// threads, putting it permanently out of reach of the Θ₁ threshold and
// its self-tuning range [0, 1].
//
// This runs on every commit and every abort, so it avoids both an
// O(numTx) clear of the dedup array (epoch stamps instead of booleans)
// and closure indirection for the matrix update (a direct branch on
// abort). The scan is charged StatsSlot per slot of the whole list, but
// walks only the live slots (s.live), in ascending thread order like a
// full scan: at 128 threads most slots are empty.
func (s *Seer) scanActive(t *ThreadState, txID int, abort bool) {
	// The execution counters below are shared (thread 0 reads them to
	// trigger scheme updates) and bumped before this event's scheduling
	// point — and the sampled-out path has no scheduling point at all. A
	// speculative quantum must therefore close before they are touched;
	// in practice the preceding commit/abort path always ends in an impure
	// tick, making this a no-op barrier.
	t.Ctx.EndQuantum()
	s.run.epoch.execs++
	s.execsSinceUpdate++
	if s.opts.SampleShift > 0 {
		mask := (uint64(1) << s.opts.SampleShift) - 1
		if t.Ctx.Rand().Uint64()&mask != 0 {
			// Unsampled event: skip the scan (and its cost) entirely.
			return
		}
	}
	t.Ctx.Tick(t.Ctx.Cost().StatsSlot * uint64(len(s.run.activeTxs)))
	self := t.Ctx.ID()
	t.mats.IncExec(txID)
	t.seenEpoch++
	if t.seenEpoch == 0 {
		// uint32 wraparound: one real clear every 2³²-1 scans keeps stale
		// stamps from a previous epoch cycle from masking slots.
		clear(t.seen)
		t.seenEpoch = 1
	}
	epoch := t.seenEpoch
	// Locals, so the stores to seen do not make the compiler reload the
	// slices on every member.
	active, seen, live := s.run.activeTxs, t.seen, s.run.live
	live.Remove(self)
	for wi, w := range live.W {
		for ; w != 0; w &= w - 1 {
			if a := active[wi<<6+bits.TrailingZeros64(w)]; seen[a] != epoch {
				seen[a] = epoch
				if abort {
					t.mats.AddAbort(txID, int(a))
				} else {
					t.mats.AddCommit(txID, int(a))
				}
			}
		}
	}
}

// RegisterAbort records an abort of txID against all currently active
// transactions — or, under the PreciseOracle variant, against the exact
// conflicting block only.
func (s *Seer) RegisterAbort(t *ThreadState, txID int) {
	if s.opts.PreciseOracle {
		t.Ctx.EndQuantum() // same barrier as scanActive
		s.run.epoch.execs++
		s.execsSinceUpdate++
		t.Ctx.Tick(t.Ctx.Cost().StatsSlot)
		t.mats.IncExec(txID)
		if c := s.htm.LastConflictor(t.Ctx.ID()); c >= 0 {
			if a := s.run.activeTxs[c]; a != NoTx {
				t.mats.AddAbort(txID, int(a))
			}
		}
		return
	}
	s.scanActive(t, txID, true)
}

// RegisterCommit records a commit of txID against all currently active
// transactions.
func (s *Seer) RegisterCommit(t *ThreadState, txID int) {
	s.scanActive(t, txID, false)
	s.run.epoch.commits++
}

// --- Algorithm 4: lock management ---

// AcquireLocks implements ACQUIRE-Seer-LOCKS: on a capacity abort the
// thread takes its physical core's lock; on the last remaining attempt it
// takes the transaction locks dictated by the current scheme.
func (s *Seer) AcquireLocks(t *ThreadState, txID int, status htm.Status, attemptsLeft int) {
	if s.opts.CoreLocks && status.Capacity() && !t.AcquiredCoreLock {
		core := s.mach.PhysCore(t.Ctx.ID())
		s.coreLocks[core].Acquire(t.Ctx, s.mem)
		t.AcquiredCoreLock = true
		t.Obs.LockAcquired(t.Ctx.Clock(), core, telemetry.LockCore)
	}
	if s.opts.TxLocks && attemptsLeft == 1 && !t.AcquiredTxLocks {
		s.acquireTxLocks(t, txID)
		t.AcquiredTxLocks = true
	}
}

// acquireTxLocks takes every lock in scheme[txID], in the row's sorted
// order (deadlock freedom). With two or more locks and the HTMLockAcq
// option, a hardware transaction batches the stores as a multi-CAS,
// falling back to sequential blocking acquisition on abort. The acquired
// set is recorded for release.
func (s *Seer) acquireTxLocks(t *ThreadState, txID int) {
	if len(s.scheme[txID]) == 0 {
		return
	}
	// Snapshot the row: the acquisition below yields (lock waits, the
	// multi-CAS transaction), during which thread 0 may rebuild the scheme
	// rows in place. The snapshot reuses the thread's scratch capacity.
	t.rowScratch = append(t.rowScratch[:0], s.scheme[txID]...)
	row := t.rowScratch
	s.run.lockAcqSizes[len(row)]++
	if s.opts.HTMLockAcq && len(row) >= 2 {
		cas := &t.Ledger.Paths[telemetry.PathMultiCAS]
		cas.Attempts++
		status := s.htm.Run(t.Ctx, func(tx *htm.Tx) {
			for _, id := range row {
				s.lockFor(t, id).AcquireTx(tx, t.Ctx)
			}
		})
		if status == 0 {
			for _, id := range row {
				t.heldTxLocks = append(t.heldTxLocks, s.lockFor(t, id))
				t.Obs.LockAcquired(t.Ctx.Clock(), id, telemetry.LockTx)
			}
			return
		}
		cas.Aborts[status.Cause()]++
	}
	for _, id := range row {
		lk := s.lockFor(t, id)
		lk.Acquire(t.Ctx, s.mem)
		t.heldTxLocks = append(t.heldTxLocks, lk)
		t.Obs.LockAcquired(t.Ctx.Clock(), id, telemetry.LockTx)
	}
}

// ReleaseLocks implements RELEASE-Seer-LOCKS.
func (s *Seer) ReleaseLocks(t *ThreadState) {
	if t.AcquiredTxLocks {
		if n := len(t.heldTxLocks); n > 0 {
			// One release event carrying the batch size (the individual
			// ids were recorded at acquisition).
			t.Obs.LocksReleased(t.Ctx.Clock(), n, telemetry.LockTx)
		}
		for _, lk := range t.heldTxLocks {
			lk.Release(t.Ctx, s.mem)
		}
		t.heldTxLocks = t.heldTxLocks[:0]
		t.AcquiredTxLocks = false
	}
	if t.AcquiredCoreLock {
		core := s.mach.PhysCore(t.Ctx.ID())
		s.coreLocks[core].Release(t.Ctx, s.mem)
		t.AcquiredCoreLock = false
		t.Obs.LocksReleased(t.Ctx.Clock(), core, telemetry.LockCore)
	}
}

// WaitLocks implements WAIT-Seer-LOCKS: lemming avoidance on the
// single-global lock (during which thread 0 opportunistically refreshes
// the lock scheme and the tuner), then cooperation with holders of the
// thread's transaction lock and core lock.
func (s *Seer) WaitLocks(t *ThreadState, txID int, sgl spinlock.Lock) {
	if sgl.LockedFast(s.mem) {
		if t.Ctx.ID() == 0 {
			s.refresh(t)
		}
		sgl.SpinWhileLocked(t.Ctx)
	}
	// Periodic refresh independent of fall-back activity: with Seer the
	// fall-back becomes rare (≈1% of commits), so waiting for it would
	// starve the inference.
	if t.Ctx.ID() == 0 && s.execsSinceUpdate >= s.opts.UpdateEvery {
		s.refresh(t)
	}
	// The cooperative waits below are advisory (HTM enforces
	// correctness), so they are bounded: unbounded spinning here can
	// deadlock with a sibling that holds the core lock while waiting for
	// a transaction lock we hold, and vice versa.
	const coopSpinBudget = 256
	if s.opts.TxLocks && !t.AcquiredTxLocks {
		if lk := s.lockFor(t, txID); lk.LockedFast(s.mem) {
			t.Obs.Wait(t.Ctx.Clock(), telemetry.LockTx)
			lk.SpinWhileLockedBounded(t.Ctx, coopSpinBudget)
		}
	}
	if s.opts.CoreLocks && !t.AcquiredCoreLock {
		if lk := s.coreLocks[s.mach.PhysCore(t.Ctx.ID())]; lk.LockedFast(s.mem) {
			t.Obs.Wait(t.Ctx.Clock(), telemetry.LockCore)
			lk.SpinWhileLockedBounded(t.Ctx, coopSpinBudget)
		}
	}
}

// --- Algorithm 5: devising the locking scheme ---

// UpdateScheme drains the per-thread statistics deltas into the global
// matrices and recomputes the locksToAcquire table using the current
// thresholds. The whole update is one scheduling point whose cost scales
// with the number of pairs. It reports whether every row kept its
// capacity (the steady-state, allocation-free case).
//
// The recomputation is allocation-free in steady state: the merged
// matrices, the pair bitset and the threshold scratch are reused across
// updates, and the scheme rows are rebuilt in place (growing a row only
// when it serializes more pairs than it ever has). Threads that read a
// row across a scheduling point snapshot it first (see acquireTxLocks).
func (s *Seer) UpdateScheme(ctx *machine.Ctx) (reused bool) {
	cost := ctx.Cost()
	ctx.Tick(cost.UpdateBase + cost.UpdatePair*uint64(s.numTx*s.numTx))
	s.execsSinceUpdate = 0

	// Per-thread matrices hold only the delta since the previous update:
	// draining them into the persistent global matrices yields the same
	// totals as re-merging full histories, in O(new events) instead of
	// O(all events).
	for _, t := range s.run.threads {
		s.merged.MergeFrom(t.mats)
		t.mats.Reset()
	}
	merged := s.merged

	nw := s.schemeWords
	clear(s.schemeBits)
	row := s.updRow
	candidates := s.updCandidates[:0]
	condVals := s.updCondVals[:0]
	for x := 0; x < s.numTx; x++ {
		merged.RowCondProbs(x, row)
		// First condition (Θ₁): keep only pairs whose abort∩concurrent
		// events are frequent enough to be worth serializing.
		candidates = candidates[:0]
		condVals = condVals[:0]
		for y := 0; y < s.numTx; y++ {
			if merged.ConjAbortProb(x, y) > s.th.Th1 {
				candidates = append(candidates, y)
				condVals = append(condVals, row[y])
			}
		}
		if len(candidates) == 0 {
			continue
		}
		// Second condition (Θ₂): among the candidates, keep those in the
		// upper tail of the conditional-probability distribution — the
		// paper's device for separating falsely suspected pairs (blamed
		// only because they happened to be running) from real
		// conflictors. The Gaussian is fitted over the candidate set:
		// fitting over all y, as a literal reading of the paper would,
		// lets never-concurrent pairs (P = 0) drag the cut far below
		// every saturated value. A single candidate is degenerate
		// (σ = 0) and is admitted directly — Θ₁ already vouched for it,
		// which is also the only sensible reading for programs with one
		// atomic block.
		cut := stats.GaussianCut(condVals, s.th.Th2)
		_, variance := stats.MeanVar(condVals)
		flat := variance < 1e-12 // indistinguishable candidates: admit all
		for i, y := range candidates {
			if len(candidates) > 1 && !flat && !(condVals[i] > cut) {
				continue
			}
			// x and y contend: they take each other's lock.
			s.schemeBits[x*nw+y/64] |= 1 << (y % 64)
			s.schemeBits[y*nw+x/64] |= 1 << (x % 64)
		}
	}
	s.updCandidates = candidates[:0]
	s.updCondVals = condVals[:0]

	// Rebuild the scheme rows from the bitset. Iterating set bits low to
	// high yields each row already sorted (deadlock freedom needs a global
	// acquisition order). Rows reuse their capacity; each row's swap is
	// atomic under the engine's serialization, and the update as a whole
	// is one scheduling point anyway.
	reused = true
	for x := 0; x < s.numTx; x++ {
		r := s.scheme[x][:0]
		oldCap := cap(r)
		for wi, w := range s.schemeBits[x*nw : (x+1)*nw] {
			for w != 0 {
				r = append(r, wi*64+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
		if cap(r) != oldCap {
			reused = false
		}
		s.scheme[x] = r
	}
	return reused
}

// refresh is thread 0's periodic duty: recompute the locking scheme,
// counting the update in the thread's ledger, then close a tuning epoch if
// one is due.
func (s *Seer) refresh(t *ThreadState) {
	t.Ledger.SchemeUpdates++
	if s.UpdateScheme(t.Ctx) {
		t.Ledger.SchemeReuse++
	}
	t.Obs.Scheme(t.Ctx.Clock(), s.SchemePairs())
	s.maybeTune(t)
}

// maybeTune closes a tuning epoch if enough samples accumulated, feeding
// the measured throughput (commits per cycle on the virtual clock) to the
// hill climber and adopting the proposed thresholds.
func (s *Seer) maybeTune(t *ThreadState) {
	if !s.opts.HillClimb || s.tuner == nil {
		return
	}
	if s.run.epoch.execs < s.opts.EpochExecs {
		return
	}
	now := t.Ctx.Clock()
	elapsed := now - s.run.epoch.startCycles
	if elapsed == 0 {
		return
	}
	s.tuner.Feedback(float64(s.run.epoch.commits) / float64(elapsed))
	s.th = s.tuner.Params()
	t.Obs.Tune(now, s.th.Th1, s.th.Th2)
	s.run.epoch = tuneEpoch{startCycles: now}
}

// ActiveTxs returns a snapshot of the active-transactions list (tests).
func (s *Seer) ActiveTxs() []int32 {
	return slices.Clone(s.run.activeTxs)
}

// TxLock returns the lock of atomic block id (tests and invariants).
func (s *Seer) TxLock(id int) spinlock.Lock { return s.txLocks[id] }

// CoreLock returns the lock of physical core c (tests and invariants).
func (s *Seer) CoreLock(c int) spinlock.Lock { return s.coreLocks[c] }

// ObjLock returns stripe st of block id's object-granular locks (tests
// and invariants; only valid when ObjLocks is enabled).
func (s *Seer) ObjLock(id, st int) spinlock.Lock { return s.objLocks[id][st] }
