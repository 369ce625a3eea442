"""Worker-process plumbing: one raw-fork transport for every worker.

Every worker is a raw ``os.fork`` child started by :func:`fork_worker`,
speaking length-prefixed pickle frames (:func:`write_framed` /
:func:`read_framed`) over pipes that belong to that one worker.
:class:`ForkProcess` is the parent's handle on such a child, with the
``is_alive``/``terminate``/``join``/``kill`` surface
:func:`terminate_gracefully` relies on.  A worker may fork workers of its
own: a job worker running parallel refinement hosts a :class:`StealPool`.

Two pools build on it:

* :class:`~repro.service.scheduler.WorkerPool` forks one job worker per
  job (:func:`~repro.service.worker.worker_entry`); the daemon, the batch
  scheduler and the portfolio racer all run their jobs through it.
* :class:`StealPool` is a generic work-stealing pool of long-lived
  workers, used by the parallel refinement engine (batched Q-checks).
  The master holds the task deque; idle workers are handed the next
  batch as soon as their previous reply drains, so load balances
  dynamically instead of by up-front assignment.
"""

import errno
import os
import pickle
import select
import signal
import time
import traceback
from collections import deque

from ..errors import ResourceBudgetExceeded


class ForkProcess:
    """Process-like handle for a raw-``os.fork`` child.

    ``is_alive``/``join`` reap the child with ``waitpid(WNOHANG)``, so a
    ``ForkProcess`` that has been polled never leaves a zombie behind.
    """

    def __init__(self, pid):
        self.pid = pid
        self._exitcode = None

    @property
    def exitcode(self):
        self.is_alive()
        if self._exitcode is None:
            return None
        if os.WIFSIGNALED(self._exitcode):
            return -os.WTERMSIG(self._exitcode)
        return os.WEXITSTATUS(self._exitcode)

    def is_alive(self):
        if self._exitcode is not None:
            return False
        try:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:
            self._exitcode = 0  # reaped elsewhere; treat as finished
            return False
        if pid == 0:
            return True
        self._exitcode = status
        return False

    def _signal(self, signum):
        if self._exitcode is not None:
            return
        try:
            os.kill(self.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def terminate(self):
        self._signal(signal.SIGTERM)

    def kill(self):
        self._signal(signal.SIGKILL)

    def join(self, timeout=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(0.005)


def fork_worker(target, *args, close_fds=()):
    """Fork a child running ``target(*args)``; returns a :class:`ForkProcess`.

    The child first closes ``close_fds``: the parent-side pipe ends the
    parent holds for this worker and for its other workers.  A worker must
    not keep a reader on its own output pipe (or a writer on another's
    input): once the parent dies, the worker's writes then fail with
    ``EPIPE`` and its reads see EOF, instead of blocking forever.

    The child resets SIGTERM to the default handler and detaches any
    inherited asyncio signal-wakeup fd: an asyncio parent (the daemon) has
    one installed, and a child that kept it would write its own signals
    into the parent's event-loop self-pipe, so cancelling one job would
    run the daemon's SIGTERM handler.  The child leaves through
    ``os._exit`` so no parent atexit/finally machinery runs twice.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd in close_fds:
                try:
                    os.close(fd)
                except OSError:
                    pass
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            try:
                signal.set_wakeup_fd(-1)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
            target(*args)
            code = 0
        except BaseException:  # pragma: no cover - child dies with its error
            code = 1
        finally:
            os._exit(code)
    return ForkProcess(pid)


def write_framed(fd, payload):
    """Write a 4-byte-length-prefixed frame, looping over partial writes."""
    data = len(payload).to_bytes(4, "little") + payload
    view = memoryview(data)
    while view:
        try:
            n = os.write(fd, view)
        except OSError as exc:  # pragma: no cover - EINTR on old kernels
            if exc.errno == errno.EINTR:
                continue
            raise
        view = view[n:]


def read_framed(fd):
    """Read one length-prefixed frame; returns ``None`` on clean EOF."""
    header = _read_exact(fd, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "little")
    payload = _read_exact(fd, length)
    if payload is None:
        raise EOFError("framed message truncated")
    return payload


def _read_exact(fd, n):
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = os.read(fd, remaining)
        except OSError as exc:  # pragma: no cover - EINTR on old kernels
            if exc.errno == errno.EINTR:
                continue
            raise
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class StealPoolError(RuntimeError):
    """The pool is unusable: spawn failed, a handler raised, or the
    respawn limit was hit.  Callers degrade to their serial path."""


_NO_SETUP = object()


class _StealWorker:
    """Master-side handle on one pool worker (mutable across respawns)."""

    __slots__ = ("index", "proc", "req_w", "resp_r", "inflight")

    def __init__(self, index, proc, req_w, resp_r):
        self.index = index
        self.proc = proc
        self.req_w = req_w
        self.resp_r = resp_r
        self.inflight = None  # batch id currently on this worker's pipe


def _steal_child_main(handler_factory, factory_args, req_r, resp_w):
    """Child entry: build the handler once, then serve frames until EOF.

    Protocol (one pickle frame per message):

    * ``("setup", payload)`` — ``handler.setup(payload)``, no reply; an
      exception is remembered and surfaces as an error reply on the next
      batch (the master treats it as fatal).
    * ``("batch", bid, payload)`` — ``handler.batch(payload)``; replies
      ``("done", bid, result)``, ``("budget", bid, msg)`` on
      :class:`ResourceBudgetExceeded`, or ``("error", bid, traceback)``.
    * ``("stop",)`` — exit.
    """
    handler = handler_factory(*factory_args)
    setup_error = None
    while True:
        payload = read_framed(req_r)
        if payload is None:
            break
        message = pickle.loads(payload)
        kind = message[0]
        if kind == "stop":
            break
        if kind == "setup":
            setup_error = None
            try:
                handler.setup(message[1])
            except Exception:
                setup_error = traceback.format_exc()
            continue
        bid = message[1]
        if setup_error is not None:
            reply = ("error", bid, setup_error)
        else:
            try:
                reply = ("done", bid, handler.batch(message[2]))
            except ResourceBudgetExceeded as exc:
                reply = ("budget", bid, str(exc))
            except Exception:
                reply = ("error", bid, traceback.format_exc())
        write_framed(resp_w, pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))


class StealPool:
    """Work-stealing pool of raw-fork workers over framed-pickle pipes.

    ``handler_factory(*factory_args)`` runs **in each child** right after
    the fork and returns an object with ``setup(payload)`` and
    ``batch(payload) -> result`` methods; because children are forked, the
    factory and its arguments are shared by memory, never pickled — only
    setup/batch payloads and results cross the pipes.

    Dispatch is pull-based: :meth:`run_batches` keeps a deque of pending
    batch ids and hands the next one to whichever worker goes idle first,
    so a slow batch never strands work behind a fixed assignment.  A dead
    worker (EOF, broken pipe, unpicklable reply) loses only its in-flight
    batch: the batch is re-queued, the worker re-forked from current
    master state, and the stored setup payload re-sent — ``on_respawn``
    is called with the worker index so callers can count the rebuild.
    ``max_respawns`` bounds total respawns per pool (then
    :class:`StealPoolError`).
    """

    def __init__(self, n_workers, handler_factory, factory_args=(),
                 max_respawns=None, on_respawn=None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only repo
            raise StealPoolError("StealPool requires os.fork")
        self._factory = handler_factory
        self._factory_args = tuple(factory_args)
        self._setup = _NO_SETUP
        self._max_respawns = max_respawns
        self._on_respawn = on_respawn
        self.respawns = 0
        self._workers = []
        try:
            for index in range(n_workers):
                self._workers.append(self._spawn(index))
        except OSError as exc:
            self.close()
            raise StealPoolError(
                "spawning pool worker failed: {}".format(exc)) from exc

    def __len__(self):
        return len(self._workers)

    def _parent_fds(self):
        fds = []
        for worker in self._workers:
            for fd in (worker.req_w, worker.resp_r):
                if fd is not None:
                    fds.append(fd)
        return fds

    def _spawn(self, index):
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        proc = fork_worker(_steal_child_main, self._factory,
                           self._factory_args, req_r, resp_w,
                           close_fds=self._parent_fds() + [req_w, resp_r])
        os.close(req_r)
        os.close(resp_w)
        return _StealWorker(index, proc, req_w, resp_r)

    def _send(self, worker, message):
        """Frame ``message`` onto ``worker``'s pipe; False if it is dead."""
        try:
            write_framed(worker.req_w,
                         pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
            return True
        except OSError:
            return False

    def _respawn(self, worker):
        """Replace a dead worker in place; re-sends the stored setup."""
        for fd in (worker.req_w, worker.resp_r):
            try:
                os.close(fd)
            except OSError:
                pass
        # Stale fd numbers must not leak into the next _parent_fds() —
        # the kernel reuses them for the fresh pipes.
        worker.req_w = worker.resp_r = None
        worker.inflight = None
        terminate_gracefully([worker.proc], grace=0.5)
        if (self._max_respawns is not None
                and self.respawns >= self._max_respawns):
            raise StealPoolError("worker respawn limit exceeded")
        self.respawns += 1
        try:
            fresh = self._spawn(worker.index)
        except OSError as exc:
            raise StealPoolError(
                "respawning pool worker failed: {}".format(exc)) from exc
        worker.proc = fresh.proc
        worker.req_w = fresh.req_w
        worker.resp_r = fresh.resp_r
        if self._setup is not _NO_SETUP:
            if not self._send(worker, ("setup", self._setup)):
                raise StealPoolError("respawned worker died immediately")
        if self._on_respawn is not None:
            self._on_respawn(worker.index)

    def broadcast(self, payload):
        """Send a setup message to every worker (and future respawns)."""
        self._setup = payload
        for worker in self._workers:
            if not self._send(worker, ("setup", payload)):
                self._respawn(worker)

    def run_batches(self, batches, on_result=None, poll=None):
        """Drain ``batches`` through the pool; returns results in order.

        ``on_result(bid, result, worker_index)`` fires as each batch
        completes — this is the overlap hook: the master does its own work
        (e.g. counterexample replay) while other batches are still
        running.  A truthy return stops the run early (racing); remaining
        slots stay ``None`` and in-flight work is abandoned to
        :meth:`close`.  ``poll()`` is called every wait tick (budget and
        cancellation checks; it may raise).  Worker replies of kind
        ``budget`` raise :class:`ResourceBudgetExceeded`; ``error``
        replies raise :class:`StealPoolError`.
        """
        results = [None] * len(batches)
        pending = deque(range(len(batches)))
        remaining = len(batches)
        while remaining:
            if poll is not None:
                poll()
            for worker in self._workers:
                if worker.inflight is None and pending:
                    bid = pending.popleft()
                    if self._send(worker, ("batch", bid, batches[bid])):
                        worker.inflight = bid
                    else:
                        pending.appendleft(bid)
                        self._respawn(worker)
            busy = {worker.resp_r: worker for worker in self._workers
                    if worker.inflight is not None}
            if not busy:
                continue
            ready, _, _ = select.select(list(busy), [], [], 0.1)
            for fd in ready:
                worker = busy[fd]
                try:
                    payload = read_framed(fd)
                    if payload is None:
                        raise EOFError("steal-pool worker exited")
                    kind, bid, value = pickle.loads(payload)
                except Exception:
                    # Crash degradation: only this worker's in-flight
                    # batch is re-queued; everything already merged and
                    # everything on other workers is untouched.
                    pending.appendleft(worker.inflight)
                    self._respawn(worker)
                    continue
                worker.inflight = None
                if kind == "budget":
                    raise ResourceBudgetExceeded(value)
                if kind == "error":
                    raise StealPoolError(value)
                results[bid] = value
                remaining -= 1
                if on_result is not None and on_result(bid, value,
                                                       worker.index):
                    return results
        return results

    def close(self):
        """Tear the pool down; idempotent, leaves no orphans.

        Workers idle on their request pipe exit on the stop frame; workers
        stuck in a long batch are SIGTERMed (raw-fork children restore the
        default handler, so the signal lands) and SIGKILLed past the grace
        period by :func:`terminate_gracefully`.
        """
        workers, self._workers = self._workers, []
        stop = pickle.dumps(("stop",), pickle.HIGHEST_PROTOCOL)
        for worker in workers:
            if worker.req_w is not None:
                try:
                    write_framed(worker.req_w, stop)
                except OSError:
                    pass
        for worker in workers:
            for fd in (worker.req_w, worker.resp_r):
                if fd is not None:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
        if workers:
            terminate_gracefully([w.proc for w in workers], grace=1.0)


def terminate_gracefully(procs, grace=2.0):
    """Stop worker processes: SIGTERM, wait up to ``grace``, then SIGKILL.

    SIGTERM triggers the workers' cooperative-cancellation path (they
    finish the current engine iteration and exit cleanly); processes that
    do not exit within the grace period are killed.  Returns
    ``{proc: "terminated" | "killed" | "finished"}`` and guarantees every
    process is joined — no orphans survive this call.
    """
    outcome = {}
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            outcome[proc] = "terminated"
        else:
            outcome[proc] = "finished"
    deadline = time.monotonic() + grace
    for proc in procs:
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.kill()
            proc.join()
            outcome[proc] = "killed"
    return outcome
