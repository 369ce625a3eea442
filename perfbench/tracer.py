"""Per-layer spans recorded from outside the program.

The benchmark does not edit ``src/``: it wraps the public functions of each
layer *where they are called*.  ``from x import f`` copies the binding into
the importing module, so each wrapper is installed on the attribute the
caller actually looks up (``repro.core.engine.compute_fixpoint``, not
``repro.core.correspondence.compute_fixpoint``).  Methods are wrapped on
their class, which covers every caller.

A :class:`Tracer` keeps, per span name, the call count, the inclusive time
and the self time (inclusive time minus the time of traced child spans).
It aggregates in memory; the benchmark reads the totals after each pass.
"""

import functools
import importlib
import time

#: (span name, module, attribute path) of every wrapped engine function.
ENGINE_SPANS = (
    ("sat.solve", "repro.sat.solver", "Solver.solve"),
    ("sat.encode", "repro.sat.tseitin", "TseitinEncoder.encode_frame"),
    ("bdd.vector_compose", "repro.bdd.manager", "BddManager.vector_compose"),
    ("bdd.build", "repro.core.timeframe", "build_bdds"),
    ("core.fixpoint", "repro.core.engine", "compute_fixpoint"),
    ("core.fixpoint", "repro.core.satbackend", "SatCorrespondence.compute"),
    ("core.timeframe", "repro.core.timeframe", "TimeFrame.__init__"),
    ("core.retime_aug", "repro.core.retiming_aug",
     "RetimingAugmenter.augment_round"),
    ("core.replay", "repro.core.satbackend", "replay_pattern"),
    ("core.replay", "repro.core.parallel", "replay_packed"),
    ("core.split", "repro.core.satbackend", "partition_by_value"),
    ("core.split", "repro.core.correspondence", "partition_by_value"),
    # sat_sweep imports build_product inside the function, so it reads the
    # binding of repro.netlist.product at call time.
    ("netlist.product", "repro.core.engine", "build_product"),
    ("netlist.product", "repro.netlist.product", "build_product"),
    ("netlist.sim", "repro.netlist.simulate", "SequentialSimulator.step"),
    ("netlist.sim", "repro.core.timeframe", "bit_parallel_eval"),
)

#: Pair synthesis, traced during set-up only (``SuiteRow.pair`` calls it).
SETUP_SPANS = (
    ("transform.synthesize", "repro.circuits.suite", "synthesize"),
)


class Tracer:
    """Span aggregates: calls, inclusive and self seconds per name."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self._stack = []
        self._installed = []

    def reset(self):
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()

    def snapshot(self):
        return {
            name: {"calls": self.calls[name], "total": self.total[name],
                   "self": self.self_time[name]}
            for name in self.calls
        }

    def wrap(self, name, fn):
        calls, total, self_time, stack = (
            self.calls, self.total, self.self_time, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + elapsed
                self_time[name] = (self_time.get(name, 0.0)
                                   + elapsed - children[0])

        return traced

    def install(self, spans):
        """Wrap every ``(name, module, attr)`` in ``spans``; undo with
        :meth:`uninstall`."""
        for name, module_name, path in spans:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
