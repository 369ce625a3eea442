"""The job streams of the three workloads, made from the workload seed.

Every job carries the verdict it must reach: ``True`` for an original /
synthesized pair (the synthesis pipeline preserves behaviour), ``False``
for a pair with an injected fault that random simulation already tells
apart.  The engines only ever see the generated circuit pairs.
"""

import random

from repro.circuits import TABLE1_ROWS
from repro.transform import inject_distinguishable_fault

#: Mixer rows no engine decides in seconds: the BDD engine aborts on s3384
#: after 645 s at its node limit, and sat_sweep had not finished s3384
#: after 500 s.  They wait for an engine that decides them.
EXCLUDED_ROWS = ("s3384", "s6669")

#: Fault seed of the daemon's refutation jobs.  It is fixed rather than
#: taken from the workload seed: whether van_eijk decides a row's fault in
#: milliseconds or gives up after ~4 s depends on the fault (the s838 fault
#: is inconclusive for fault seeds 0-4 and refuted in ms for 5-11), and a
#: seed lottery over that would make the daemon's cost bimodal across
#: seeds.  Seed 3 keeps the undecided s838 fault in every run.
FAULT_SEED = 3

#: Cache-hit repeats per daemon pass, about a quarter of the 48 originals.
#: The six multi-second jobs (five big proofs and the s838 fault) then make
#: up just over a tenth of the stream, so p90 falls on one of them; with 12
#: or more it would fall on the slowest 0.2-s row, whose single latency is
#: far noisier.
REPEATS = 11

#: The untimed warm-up job of every set-up.
WARM_UP_ROW = "s208"

#: Engine per workload; the daemon stream runs van_eijk only.
METHODS = {"table1_bdd": "van_eijk", "table1_sat": "sat_sweep",
           "daemon": "van_eijk"}


class Job:
    """One verification job of a stream.

    ``key`` names the problem (``proof:s838``, ``fault:s838``); a repeat
    shares its original's key, so both must report the same work counts.
    """

    __slots__ = ("key", "kind", "spec", "impl", "expected")

    def __init__(self, key, kind, spec, impl, expected):
        self.key = key
        self.kind = kind
        self.spec = spec
        self.impl = impl
        self.expected = expected

    def repeat(self):
        return Job(self.key, "repeat", self.spec, self.impl, self.expected)


def synthesize_pairs():
    """``{row name: (spec, impl)}`` for the 24 decided Table-1 rows."""
    return {row.name: row.pair() for row in TABLE1_ROWS
            if row.name not in EXCLUDED_ROWS}


def build_stream(workload, seed, pairs):
    """The ordered job list of one pass of ``workload``.

    The in-process workloads hold the 24 proofs.  The daemon stream adds
    one fault pair per row and then ``REPEATS`` repeats, each drawn with
    replacement from the jobs and placed after its original, so it hits
    the daemon's result cache.  The seed fixes
    the order and the repeat draws.
    """
    rng = random.Random(seed)
    jobs = [Job("proof:" + name, "proof", spec, impl, True)
            for name, (spec, impl) in pairs.items()]
    if workload == "daemon":
        for name, (spec, impl) in pairs.items():
            faulty, _ = inject_distinguishable_fault(impl, seed=FAULT_SEED)
            jobs.append(Job("fault:" + name, "fault", spec, faulty, False))
    rng.shuffle(jobs)
    if workload == "daemon":
        originals = list(jobs)
        for _ in range(REPEATS):
            original = rng.choice(originals)
            first = jobs.index(original)
            jobs.insert(rng.randint(first + 1, len(jobs)), original.repeat())
    return jobs
