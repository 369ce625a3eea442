"""Worker-side job execution.

:func:`run_job` dispatches a :class:`~repro.service.job.JobSpec` to the
right engine with progress/cancellation hooks injected;
:func:`worker_entry` is the entry of a forked job worker (see
:class:`~repro.service.scheduler.WorkerPool`) wrapping it with the
cross-process plumbing:

* engine progress callbacks become ``("event", dict)`` frames on the
  worker's own pipe, followed by exactly one result frame;
* ``SIGTERM`` is caught and translated into *cooperative* cancellation —
  the engine notices at its next iteration boundary and returns an
  inconclusive ("cancelled") result, so the worker exits cleanly with its
  BDD/SAT state unwound instead of dying mid-operation.  The pool
  escalates to ``SIGKILL`` only after a grace period.

Additional engines can be registered with :func:`register_method`; workers
are forked, so a registration made in the parent (e.g. by a test) is
visible to them.
"""

import os
import pickle
import signal
import threading
import time
import traceback

from ..netlist.product import build_product
from .events import JOB_PROGRESS, Event
from .job import JobResult, aborted_result
from .procs import write_framed

#: name -> runner(job, progress, cancel_check) for engines beyond the
#: built-ins (used by tests and downstream extensions).
_EXTRA_METHODS = {}


def register_method(name, runner):
    """Register ``runner(job, progress, cancel_check) -> SecResult``."""
    _EXTRA_METHODS[name] = runner


def unregister_method(name):
    _EXTRA_METHODS.pop(name, None)


def run_job(job, emit=None, cancel_check=None):
    """Execute one job in the current process; returns a ``SecResult``.

    ``emit(event)`` receives :class:`Event` objects for engine progress;
    ``cancel_check()`` is polled by the engines at iteration boundaries.
    """

    def progress(kind, **data):
        if emit is not None:
            data = dict(data)
            data["kind"] = kind
            emit(Event(JOB_PROGRESS, job=job.name, data=data))

    if cancel_check is not None and cancel_check():
        return aborted_result(job.method, "cancelled")
    if job.options.get("preprocess"):
        # Engine-agnostic FRAIG preprocessing: rewrite the job onto the
        # reduced pair (scheduler/daemon submission sites that want the
        # reduction inside the cache key call preprocess_jobspec before
        # the key is first computed; this path covers everything else —
        # fuzz lanes, portfolio lanes, direct run_job callers).
        from ..sweep import attach_preprocess_details, preprocess_jobspec

        job, info = preprocess_jobspec(job)
        result = run_job(job, emit=emit, cancel_check=cancel_check)
        return attach_preprocess_details(result, info)
    runner = _EXTRA_METHODS.get(job.method)
    if runner is not None:
        return runner(job, progress, cancel_check)
    options = dict(job.options)
    if job.method == "van_eijk":
        from ..core.engine import VanEijkVerifier

        verifier = VanEijkVerifier(progress=progress,
                                   cancel_check=cancel_check, **options)
        return verifier.verify(job.spec, job.impl,
                               match_inputs=job.match_inputs,
                               match_outputs=job.match_outputs)
    if job.method == "sat_sweep":
        from ..core.satbackend import check_equivalence_sat_sweep

        return check_equivalence_sat_sweep(
            job.spec, job.impl, match_inputs=job.match_inputs,
            match_outputs=job.match_outputs, progress=progress,
            cancel_check=cancel_check, **options)
    if job.method == "fraig_sweep":
        from ..sweep import check_equivalence_fraig_sweep

        return check_equivalence_fraig_sweep(
            job.spec, job.impl, match_inputs=job.match_inputs,
            match_outputs=job.match_outputs, progress=progress,
            cancel_check=cancel_check, **options)
    if job.method == "k_induction":
        from ..induction import check_equivalence_k_induction

        return check_equivalence_k_induction(
            job.spec, job.impl, match_inputs=job.match_inputs,
            match_outputs=job.match_outputs, progress=progress,
            cancel_check=cancel_check, **options)
    if job.method == "sweep_induct":
        from ..induction import check_equivalence_sweep_induction

        return check_equivalence_sweep_induction(
            job.spec, job.impl, match_inputs=job.match_inputs,
            match_outputs=job.match_outputs, progress=progress,
            cancel_check=cancel_check, **options)
    product = build_product(job.spec, job.impl,
                            match_inputs=job.match_inputs,
                            match_outputs=job.match_outputs)
    if job.method == "bmc":
        from ..core.bmc import bmc_refute

        return bmc_refute(product, progress=progress,
                          cancel_check=cancel_check, **options)
    if job.method == "traversal":
        from ..reach.traversal import check_equivalence_traversal

        return check_equivalence_traversal(
            product, progress=progress, cancel_check=cancel_check, **options)
    if job.method == "explicit":
        from ..reach.explicit import explicit_check_equivalence

        return explicit_check_equivalence(product, **options)
    raise ValueError("unknown job method {!r}".format(job.method))


def worker_entry(job, token, fd):
    """Forked-worker entry: run ``job`` and report on the pipe ``fd``.

    Writes one ``("event", Event-dict)`` frame per progress event, then
    exactly one ``("result", token, JobResult-dict)`` frame on success or
    ``("error", token, traceback-string)`` on an engine exception.  A
    crash (hard kill, segfault, ``os._exit``) ends the pipe without a
    result frame, or mid-frame; the pool reports it from the exit code.
    ``token`` is the caller's routing key (job token for the scheduler and
    the daemon, method name for the portfolio).

    The worker is the pipe's only writer and the pool its only reader
    (:func:`~repro.service.procs.fork_worker` closes the read end here), so
    once the pool's process dies every write fails with ``EPIPE`` rather
    than blocking on a full pipe nobody drains.
    """
    cancelled = threading.Event()

    def on_sigterm(signum, frame):
        cancelled.set()

    signal.signal(signal.SIGTERM, on_sigterm)

    # Orphan guard: if the parent dies without tearing us down (SIGKILL'd
    # scheduler/daemon — its atexit cleanup never runs), we are reparented
    # and ``getppid`` changes.  Treat that as a cancellation so the engine
    # unwinds at its next iteration boundary instead of running forever.
    parent_pid = os.getppid()

    def cancel_check():
        return cancelled.is_set() or os.getppid() != parent_pid

    def send(message):
        write_framed(fd, pickle.dumps(message, pickle.HIGHEST_PROTOCOL))

    def emit(event):
        try:
            send(("event", event.as_dict()))
        except Exception:
            pass  # never let telemetry take the engine down

    started = time.monotonic()
    try:
        result = run_job(job, emit=emit, cancel_check=cancel_check)
        message = ("result", token, JobResult(
            job.name, result,
            wall_seconds=time.monotonic() - started,
            method=job.method,
        ).as_dict())
    except Exception:
        message = ("error", token, traceback.format_exc())
    send(message)
