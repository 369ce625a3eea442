"""Parallel fixed-point refinement for the SAT correspondence engine.

Within one refinement round the Q-constrained checks for different
equivalence classes are independent given the previous round's partition:
every query ranges over the same Q (built from the round-*start* classes),
so class A's verdicts never depend on how class B is being split this
round.  :class:`ParallelSatCorrespondence` exploits that with a
**work-stealing pool with batched dispatch**
(:class:`~repro.service.procs.StealPool`): the round's nontrivial classes
are packed into batches of bounded pair-check load, workers pull the next
batch the moment they go idle, and each batch amortizes one pipe
round-trip over many activation-literal queries on the worker's persistent
incremental encoding (encoded once per worker, at pool spawn — the PR 3
invariant, per worker).

Why the same fixed point falls out
----------------------------------

Van Eijk's iteration computes the *greatest* fixed point of the Eq. 3
refinement operator, and that fixed point is unique: any sequence of sound
splits — splits justified by a witness satisfying the round-start Q —
converges to the identical final partition regardless of order.  Workers
only split on SAT models of ``Q ∧ (leader ≠ member)``, the master's global
merge only splits on replays of those same models (replay semantics equals
encoding semantics, pinned by the cexsplit tests), and verified pairs are
UNSAT-proven equal in *every* Q-state — so no round-mate's witness can
contradict them.  Hence the parallel engine is verdict- **and**
partition-identical to the serial one *for any batch size and any stealing
order*; ``tests/core/test_parallel.py`` asserts exactly that on random
pairs, the Table-1 suite and the regression corpus.

Mechanics
---------

* Workers are **raw-fork** children (``service.procs.fork_worker`` under
  the pool), the same transport as the service's job workers, so a job
  worker can host the pool.  Messages are length-prefixed pickles over
  plain pipes.
* Each round the master **broadcasts** the full round-start partition (as
  signal indices — the ``_signals`` list is shared by fork) once; every
  worker retires the previous round's activation literal, allocates a
  fresh one, and adds Q clauses for *all* classes under it.  Batches then
  carry only class ids: the worker queries its batch's classes,
  mass-splits within the batch on its own counterexamples, and streams the
  result back, keeping the literal live for the next stolen batch.
* Counterexample models stream back as compact bit-patterns
  (``(state_bits, per-frame input_bits)``) *per batch*, and the master
  replays each batch's patterns **while other batches are still running**
  (the ``on_result`` drain hook — SAT/replay overlap, not a barrier),
  accumulating the check-frame words into one wide splitter.  The
  end-of-round global multi-class split is then a pure partition step over
  the accumulated words — identical to replaying all patterns at once,
  because value words are equal iff every batch sub-word is equal.
* Batching is deterministic: nontrivial classes sorted by size descending,
  greedily packed until the batch's load (members − 1, the pair-check
  lower bound) reaches ``refine_batch`` (0 = auto: total load over
  ``4 × workers``, so the pool has slack to steal).  Rounds with fewer
  than two nontrivial classes run serially on the master's own solver —
  the pool only pays off when there is real fan-out.
* A **worker crash** loses only its in-flight batch: the pool re-queues
  the batch, re-forks the worker from current master state, re-sends the
  round setup, and the engine emits a ``worker_respawn`` event (plus one
  solver construction/frame encoding, counted honestly).  Only respawn
  exhaustion or a handler error degrades the engine to serial rounds;
  budget/cancel aborts tear the pool down via SIGTERM.  Either way
  ``compute()`` leaves no orphans behind.
"""

import os
import time

from ..errors import ResourceBudgetExceeded
from ..sat.solver import Solver
from ..sat.tseitin import TseitinEncoder
from ..service.procs import StealPool, StealPoolError
from .cexsplit import partition_by_value, replay_packed
from .satbackend import CONST_NET, _SOLVER_COUNTERS, SatCorrespondence


def _make_batches(classes, nontrivial, n_workers, batch_cap):
    """Deterministic packing of class ids into bounded-load batches.

    Load is ``len(cls) - 1``, the minimum number of pair checks the class
    costs.  Classes are taken largest-first (ties by id) and packed
    greedily until the running load would exceed ``batch_cap``
    (``<= 0`` = auto: total load spread over ``4 × n_workers`` batches, so
    stealing has slack without making round-trips dominate).  A class
    never splits across batches — its mass-split locality is the point.
    """
    order = sorted(nontrivial, key=lambda cid: (-len(classes[cid]), cid))
    if batch_cap <= 0:
        total = sum(len(classes[cid]) - 1 for cid in nontrivial)
        batch_cap = max(1, -(-total // (4 * n_workers)))
    batches = []
    current, load = [], 0
    for cid in order:
        weight = len(classes[cid]) - 1
        if current and load + weight > batch_cap:
            batches.append(sorted(current))
            current, load = [], 0
        current.append(cid)
        load += weight
    if current:
        batches.append(sorted(current))
    return batches


class ParallelSatCorrespondence(SatCorrespondence):
    """Signal correspondence with work-stealing parallel refinement rounds.

    Drop-in for :class:`SatCorrespondence` (incremental mode only); the
    base case and any low-fan-out round still run on the master's own
    solver, so ``refine_workers=N`` costs ``1 + N`` solver constructions
    and frame encodings per ``compute()`` (plus one per respawned
    worker).  ``refine_batch`` caps the pair-check load per stolen batch
    (0 = auto).
    """

    #: Rounds with fewer nontrivial classes than this run serially.
    min_parallel_classes = 2

    #: Total worker respawns tolerated per pool before degrading to
    #: serial rounds.
    max_respawns = 4

    def __init__(self, product, refine_workers=2, refine_batch=0, **kwargs):
        refine_workers = int(refine_workers)
        if refine_workers < 1:
            raise ValueError("refine_workers must be >= 1")
        refine_batch = int(refine_batch or 0)
        if refine_batch < 0:
            raise ValueError("refine_batch must be >= 0")
        if not kwargs.pop("incremental", True):
            raise ValueError(
                "parallel refinement requires the incremental engine")
        super().__init__(product, incremental=True, **kwargs)
        self.refine_workers = refine_workers
        self.refine_batch = refine_batch
        self.stats["worker_respawns"] = 0
        self._pool = None
        self._pool_broken = not hasattr(os, "fork")
        self._net_index = {sig.net: i for i, sig in enumerate(self._signals)}
        self._round_stats = {"workers": 0}
        self._round_no = 0

    # -- lifecycle ---------------------------------------------------------

    def compute(self, max_iterations=None):
        try:
            return super().compute(max_iterations=max_iterations)
        finally:
            self.close()

    def close(self):
        """Tear the worker pool down; idempotent, leaves no orphans."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def _ensure_pool(self):
        if self._pool is not None or self._pool_broken:
            return
        try:
            self._pool = StealPool(
                self.refine_workers, _RefinementWorker, (self,),
                max_respawns=self.max_respawns,
                on_respawn=self._note_respawn,
            )
        except StealPoolError:
            self._pool_broken = True
            return
        # Each worker builds one solver + one unrolled encoding at spawn.
        self.stats["solver_constructions"] += len(self._pool)
        self.stats["frame_encodings"] += len(self._pool)

    def _teardown_pool(self, broken=False):
        self.close()
        if broken:
            self._pool_broken = True

    def _note_respawn(self, worker_index):
        """A pool worker died and was re-forked: count the rebuild."""
        self.stats["worker_respawns"] += 1
        self.stats["solver_constructions"] += 1
        self.stats["frame_encodings"] += 1
        self._emit("worker_respawn", worker=worker_index,
                   round=self._round_no)

    # -- the parallel round ------------------------------------------------

    def _round_extra(self):
        return dict(self._round_stats)

    def _refine_round_incremental(self, classes, deadline):
        nontrivial = [cid for cid, cls in enumerate(classes) if len(cls) > 1]
        if len(nontrivial) < self.min_parallel_classes or self._pool_broken:
            self._round_stats = {"workers": 0}
            return super()._refine_round_incremental(classes, deadline)
        self._ensure_pool()
        if self._pool is None:
            self._round_stats = {"workers": 0}
            return super()._refine_round_incremental(classes, deadline)
        round_start = time.monotonic()
        self._round_no += 1
        class_ids = [[self._net_index[sig.net] for sig in cls]
                     for cls in classes]
        batches = _make_batches(classes, nontrivial, len(self._pool),
                                self.refine_batch)
        csim = self._csim
        out_by_cid = {}
        worker_seconds = [0.0] * len(self._pool)
        # The round's accumulated splitter: pattern words from every
        # drained batch, concatenated by left-shift.  Equality of the
        # accumulated words is equality on every batch sub-word, so the
        # final split is identical to one global replay — but the replays
        # happen *here*, overlapped with still-running SAT batches.
        combined = [0] * len(csim.net_order)
        offsets = {"bits": 0}

        def merge(bid, value, worker_index):
            out_map, patterns, delta, elapsed = value
            out_by_cid.update(out_map)
            worker_seconds[worker_index] += elapsed
            for key, amount in delta.items():
                self.stats[key] += amount
            if patterns:
                words = replay_packed(csim, patterns)[-1]
                shift = offsets["bits"]
                for slot, word in enumerate(words):
                    if word:
                        combined[slot] |= word << shift
                offsets["bits"] += len(patterns)
            return False

        try:
            self._pool.broadcast((self._round_no, class_ids, deadline))
            self._pool.run_batches(
                batches, on_result=merge,
                poll=lambda: self._check_budget(deadline))
        except ResourceBudgetExceeded:
            raise
        except Exception:
            # Respawn exhaustion or a handler error: degrade to the serial
            # engine — identical fixed point, just no fan-out.  Partial
            # worker results are dropped (the serial redo recomputes the
            # whole round); their solver effort stays counted, it really
            # was spent.
            self._teardown_pool(broken=True)
            self._emit("refinement_pool_fallback", round=self._round_no)
            self._round_stats = {"workers": 0}
            return super()._refine_round_incremental(classes, deadline)

        # Deterministic merge: verified subclasses in class-id order, then
        # one global split by the accumulated pattern words.
        signals = self._signals
        new_classes = []
        for cid, cls in enumerate(classes):
            subclasses = out_by_cid.get(cid)
            if subclasses is None:
                new_classes.append(cls)
            else:
                for id_list in subclasses:
                    new_classes.append([signals[i] for i in id_list])
        if offsets["bits"]:
            new_classes = self._global_split(new_classes, combined,
                                             offsets["bits"])
        round_seconds = time.monotonic() - round_start
        busy = sum(worker_seconds)
        self._round_stats = {
            "workers": len(self._pool),
            "batches": len(batches),
            "worker_seconds": [round(s, 6) for s in worker_seconds],
            "round_seconds": round(round_seconds, 6),
            "speedup": (round(busy / round_seconds, 3)
                        if round_seconds > 0 else 0.0),
        }
        return new_classes, len(new_classes) > len(classes)

    def _global_split(self, classes, words, width):
        """Split every class by the accumulated check-frame pattern words.

        Each pattern satisfied its round's Q, so its replayed check-frame
        valuation is a sound Eq. 3 splitter for every class; ``words`` is
        the bit-concatenation of every drained batch's replay at
        ``width`` = total #patterns.
        """
        full = (1 << width) - 1
        csim = self._csim

        def value_of(sig):
            if sig.net == CONST_NET:
                word = full
            else:
                word = words[csim.index(sig.net)]
            return word ^ full if sig.complemented else word

        out = []
        for cls in classes:
            if len(cls) == 1:
                out.append(cls)
                continue
            groups = partition_by_value(cls, value_of)
            if len(groups) > 1:
                self.stats["cex_class_splits"] += 1
            out.extend(groups)
        return out


# -- worker side -----------------------------------------------------------


class _RefinementWorker:
    """Per-process incremental refinement state (lives only in children).

    Holds its own solver and one Tseitin encoding of the k+1 unrolled
    frames; ``engine`` is the forked copy of the master engine, supplying
    the shared ``_signals`` list, the compiled simulation kernel and the
    circuit.  The :class:`~repro.service.procs.StealPool` protocol drives
    it: ``setup`` opens a round (retire old activation literal, encode the
    new Q), ``batch`` answers one stolen batch of class ids against the
    open round.
    """

    def __init__(self, engine):
        self.engine = engine
        self.circuit = engine.circuit
        enc = TseitinEncoder()
        self.frames = engine._encode_unrolled(enc, engine.k + 1)
        self.true_var = enc.new_var()
        self.solver = Solver()
        self.solver.add_cnf(enc.cnf)
        self.solver.add_clause([self.true_var])
        self.signals = engine._signals
        self.csim = engine._csim
        self.net_index = engine._net_index
        self.act = None
        self.classes = None
        self.deadline = None

    def _lit(self, sig, frame_vars):
        var = self.true_var if sig.net == CONST_NET else frame_vars[sig.net]
        return -var if sig.complemented else var

    def setup(self, payload):
        """Open a refinement round: retire the previous Q, encode the new.

        Q covers the *full* round-start partition — a witness must satisfy
        the same correspondence condition the serial round assumes, or its
        splits would not be sound for other batches' classes.  The
        activation literal stays live across every batch of the round, so
        N stolen batches cost one Q encoding, not N.
        """
        _round_no, class_ids, deadline = payload
        solver = self.solver
        if self.act is not None:
            # Retiring by unit + simplify physically drops the old round's
            # guarded clauses, same as the serial engine.
            solver.add_clause([-self.act])
            solver.simplify()
        signals = self.signals
        self.classes = [[signals[i] for i in ids] for ids in class_ids]
        self.deadline = deadline
        act = self.act = solver.new_var()
        for frame_vars in self.frames[:-1]:
            for cls in self.classes:
                if len(cls) < 2:
                    continue
                rep = self._lit(cls[0], frame_vars)
                for member in cls[1:]:
                    m = self._lit(member, frame_vars)
                    # Guard literal last: the solver watches the first two
                    # literals, so assuming ``act`` does not walk the whole
                    # round's clause group on every single query.
                    solver.add_clause([-rep, m, -act])
                    solver.add_clause([rep, -m, -act])

    def _extract_pattern(self):
        """The current model as ``(state_bits, per-frame input_bits)``."""
        solver = self.solver
        state_bits = 0
        for r, net in enumerate(self.csim.registers):
            if solver.value(self.frames[0][net]):
                state_bits |= 1 << r
        frame_bits = []
        for frame_vars in self.frames:
            word = 0
            for j, net in enumerate(self.csim.inputs):
                if solver.value(frame_vars[net]):
                    word |= 1 << j
            frame_bits.append(word)
        return (state_bits, frame_bits)

    def batch(self, batch_cids):
        """Answer one stolen batch of class ids against the open round.

        Queries only the batch's classes; mass-splits within the batch on
        its own counterexamples (cross-batch splitting is the master's
        global merge).  Returns ``(out_map, patterns, delta, elapsed)``.
        """
        started = time.monotonic()
        before = self.solver.stats()
        solver = self.solver
        act = self.act
        check_frame = self.frames[-1]
        deadline = self.deadline
        classes = self.classes
        queries = 0
        cex_splits = 0
        patterns = []
        done = []
        items = [(cid, [classes[cid][0]], list(classes[cid][1:]))
                 for cid in batch_cids]
        while items:
            cid, verified, rest = items.pop()
            if not rest:
                done.append((cid, verified))
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceBudgetExceeded(
                    "SAT fixpoint time budget exhausted")
            member = rest.pop(0)
            la = self._lit(verified[0], check_frame)
            lb = self._lit(member, check_frame)
            distinguished = False
            for assumptions in ([act, la, -lb], [act, -la, lb]):
                queries += 1
                if solver.solve(assumptions=assumptions):
                    distinguished = True
                    break
            if not distinguished:
                verified.append(member)
                items.append((cid, verified, rest))
                continue
            pattern = self._extract_pattern()
            patterns.append(pattern)
            check_words = replay_packed(self.csim, [pattern])[-1]
            csim = self.csim

            def value_of(sig, _words=check_words):
                if sig.net == CONST_NET:
                    word = 1
                else:
                    word = _words[csim.index(sig.net)]
                return word ^ 1 if sig.complemented else word

            items.append((cid, verified, [member] + rest))
            split_items = []
            for icid, iverified, irest in items:
                groups = partition_by_value([iverified[0]] + irest, value_of)
                if len(groups) > 1:
                    cex_splits += 1
                split_items.append((icid, iverified, groups[0][1:]))
                for group in groups[1:]:
                    split_items.append((icid, [group[0]], group[1:]))
            items = split_items
        out = {}
        net_index = self.net_index
        for cid, verified in done:
            out.setdefault(cid, []).append(
                [net_index[sig.net] for sig in verified])
        after = self.solver.stats()
        delta = {key: after[key] - before[key] for key in _SOLVER_COUNTERS}
        delta["sat_queries"] = queries
        delta["cex_patterns"] = len(patterns)
        delta["cex_class_splits"] = cex_splits
        elapsed = time.monotonic() - started
        return (out, patterns, delta, elapsed)
