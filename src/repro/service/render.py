"""Human-readable live view of the service event stream.

:class:`LiveRenderer` subscribes to an :class:`~repro.service.events.EventBus`
and prints one line per lifecycle event (plus iteration ticks in verbose
mode).  Output is append-only — no cursor tricks — so it reads equally well
on a terminal, piped through ``tee``, or in CI logs.
"""

import sys

from . import events as ev

_VERDICT_LABELS = {True: "proved", False: "REFUTED", None: "undecided"}


def _fmt_seconds(seconds):
    return "-" if seconds is None else "{:.2f}s".format(seconds)


class LiveRenderer:
    """Prints service events as they happen; also tallies a summary."""

    def __init__(self, stream=None, verbose=False):
        self.stream = stream or sys.stdout
        self.verbose = verbose
        self.total_jobs = 0
        self.done_jobs = 0

    # The renderer is itself a bus subscriber.
    def __call__(self, event):
        line = self._format(event)
        if line is not None:
            self.stream.write(line + "\n")
            self.stream.flush()

    def _progress_prefix(self):
        if self.total_jobs:
            return "[{:>3}/{}] ".format(self.done_jobs, self.total_jobs)
        return ""

    def _format(self, event):
        data = event.data
        kind = event.type
        if kind == ev.BATCH_STARTED:
            self.total_jobs = data.get("jobs", 0)
            self.done_jobs = 0
            return "batch: {} jobs on {} workers".format(
                data.get("jobs"), data.get("workers"))
        if kind == ev.BATCH_FINISHED:
            return ("batch: done in {} — {} proved, {} refuted, "
                    "{} undecided ({} cached)").format(
                _fmt_seconds(data.get("seconds")), data.get("proved"),
                data.get("refuted"), data.get("undecided"),
                data.get("cached"))
        if kind == ev.JOB_STARTED:
            return "{}{:<12} {:<10} started{}".format(
                self._progress_prefix(), event.job, data.get("method", ""),
                " (attempt {})".format(data["attempt"])
                if data.get("attempt", 1) > 1 else "")
        if kind == ev.JOB_CACHED:
            self.done_jobs += 1
            return "{}{:<12} {:<10} {} (cached)".format(
                self._progress_prefix(), event.job, data.get("method", ""),
                _VERDICT_LABELS.get(data.get("verdict"), "?"))
        if kind == ev.JOB_FINISHED:
            self.done_jobs += 1
            extra = ""
            if data.get("peak_nodes"):
                extra = " nodes={}".format(data["peak_nodes"])
            if data.get("error"):
                extra += " error={}".format(data["error"])
            return "{}{:<12} {:<10} {} in {}{}".format(
                self._progress_prefix(), event.job, data.get("method", ""),
                _VERDICT_LABELS.get(data.get("verdict"), "?"),
                _fmt_seconds(data.get("seconds")), extra)
        if kind == ev.JOB_RETRY:
            return "{}{:<12} retry (attempt {}): {}".format(
                self._progress_prefix(), event.job, data.get("attempt"),
                data.get("reason"))
        if kind == ev.JOB_FALLBACK:
            return "{}{:<12} falling back to {}".format(
                self._progress_prefix(), event.job, data.get("method"))
        if kind == ev.PORTFOLIO_STARTED:
            return "portfolio: racing {} on {}".format(
                "/".join(data.get("methods", [])), event.job)
        if kind == ev.ENGINE_WON:
            return "portfolio: {} won with {} in {}".format(
                data.get("method"),
                _VERDICT_LABELS.get(data.get("verdict"), "?"),
                _fmt_seconds(data.get("seconds")))
        if kind == ev.ENGINE_CANCELLED:
            return "portfolio: cancelled {}{}".format(
                data.get("method"),
                " (killed)" if data.get("escalated") else "")
        if kind == ev.SERVER_STARTED:
            nodes = data.get("nodes")
            capacity = ("{} workers".format(data.get("workers"))
                        if nodes is None else "{}/{} nodes alive".format(
                            nodes.get("alive"), nodes.get("total")))
            return "server: listening on {}:{} ({}, pid {})".format(
                data.get("host"), data.get("port"), capacity,
                data.get("pid"))
        if kind == ev.SERVER_STOPPED:
            return "server: stopped after {}".format(
                _fmt_seconds(data.get("uptime_seconds")))
        if kind == ev.JOB_SUBMITTED:
            return "{:<12} submitted as {} ({})".format(
                data.get("name", "?"), event.job, data.get("method", ""))
        if kind == ev.JOB_CANCELLED:
            self.done_jobs += 1
            return "{}{:<12} cancelled".format(
                self._progress_prefix(), data.get("name") or event.job)
        if kind == ev.JOB_REQUEUED:
            return "{:<12} re-queued (attempt {}): {}".format(
                data.get("name") or event.job, data.get("requeues"),
                data.get("reason"))
        if kind == ev.CLIENT_THROTTLED:
            return "server: throttled {} on {}{}".format(
                data.get("client"), data.get("path"),
                " ({})".format(data["reason"]) if data.get("reason") else "")
        if self.verbose and kind == ev.JOB_PROGRESS:
            payload = " ".join(
                "{}={}".format(k, v) for k, v in sorted(data.items())
                if k != "kind")
            return "{}{:<12} · {} {}".format(
                self._progress_prefix(), event.job, data.get("kind"), payload)
        if self.verbose and kind in (ev.ENGINE_STARTED, ev.ENGINE_FINISHED):
            return "portfolio: {} {} verdict={}".format(
                data.get("method"), kind.split("_", 1)[1],
                data.get("verdict"))
        return None
