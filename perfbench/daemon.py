"""One ``repro-sec serve`` daemon, driven only through its HTTP API.

The daemon runs in its own process group on an ephemeral port, with a
ready file and a store and result cache inside the benchmark's work
directory.  The rate limit is raised so the closed loop never meets a 429;
the client does not retry, so a refused submission is counted, not hidden.
Completion is read from the job's SSE stream: polling ``GET /v1/jobs/{id}``
every 0.2 s would swamp the ~30 ms per-job service overhead.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.client import ServerClient
from repro.service.cache import ResultCache

HERE = os.path.dirname(os.path.abspath(__file__))
READY_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0


class Daemon:
    """Boots, drives and stops one daemon; ``trace_dir`` traces its workers."""

    def __init__(self, workdir, src_dir, trace_dir=None):
        self.cache_dir = os.path.join(workdir, "cache")
        ready_file = os.path.join(workdir, "ready.json")
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--ready-file", ready_file,
                "--store-dir", os.path.join(workdir, "store"),
                "--cache-dir", self.cache_dir,
                "--rate", "100000", "--burst", "100000", "--quiet"]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli"] + args
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       trace_dir] + args
        env = dict(os.environ, PYTHONPATH=src_dir)
        os.makedirs(workdir, exist_ok=True)
        self._log = open(os.path.join(workdir, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=self._log, start_new_session=True)
        self.pgid = self.proc.pid
        deadline = time.monotonic() + READY_TIMEOUT
        while not os.path.exists(ready_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon did not become ready; see "
                                  + self._log.name)
            time.sleep(0.005)
        with open(ready_file) as fh:
            self.url = json.load(fh)["url"]
        self.client = ServerClient(self.url, timeout=JOB_TIMEOUT, retries=0)

    def clear_cache(self):
        ResultCache(self.cache_dir).clear()

    def stats(self):
        return self.client.stats()

    def run(self, payload):
        """Submit ``payload`` and follow its SSE stream to ``done``.

        Returns ``(latency, submit_seconds, record)``; ``record`` is the
        final job record, or ``None`` when the submission was refused.
        """
        start = time.perf_counter()
        job_id = self.client.submit_payload(payload)
        submitted = time.perf_counter()
        record = None
        for event in self.client.events(job_id, timeout=JOB_TIMEOUT):
            if event.get("type") == "done":
                record = event["record"]
        return time.perf_counter() - start, submitted - start, record

    def stop(self):
        """SIGTERM the daemon; False if any process of its group outlives
        it (the survivors are then killed)."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                clean = False
        deadline = time.monotonic() + 5.0
        while _group_alive(self.pgid):
            if time.monotonic() > deadline:
                clean = False
                os.killpg(self.pgid, signal.SIGKILL)
                break
            time.sleep(0.02)
        self.proc.wait()
        self._log.close()
        return clean


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True
