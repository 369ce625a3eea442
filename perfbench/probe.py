"""Core-speed probe: how fast the benchmark's CPU runs just now.

On a shared host one core's speed moves by up to half within seconds (the
other tenants of its physical core come and go), and the two cores of a
2-core guest move independently.  A benchmark that reports raw seconds
then measures the neighbours as much as the program.

So a run pins all its processes to one CPU, and the session times a fixed
pure-Python chunk (dict, int and call work, like the engines' inner loops)
before its set-up, after it, and after every job, while nothing else of
the run is busy.  A job's seconds times ``REFERENCE`` over the mean of the
probes either side of it gives its seconds at the reference speed.  The
probe never runs during a job and shares no code with the program, so a
slower program still reads slower by the same ratio; only the
neighbours' share is taken out.
"""

import time

#: Dict-and-int iterations of one probe, 10-20 ms on the reference host.
ITERATIONS = 50000
#: Median probe seconds between jobs on the reference host (2-core Xeon,
#: CPython 3.11), so converted times stay close to the seconds measured
#: there.
REFERENCE = 0.0143


def _mix(a, b):
    return (a * 31 + b) & 0xFFFF


def measure():
    """CPU seconds of one probe.

    CPU time, not wall time: should the program leave a thread or process
    busy between jobs, the probe waits for the CPU longer but its CPU time
    stays put, so that load counts against the program, not the host.
    """
    began = time.thread_time()
    table = {}
    acc = 1
    for i in range(ITERATIONS):
        key = (i * 7 + acc) & 127
        table[key] = table.get(key, 0) + 1
        acc = _mix(acc, table[key])
    return time.thread_time() - began


def factor(before, after):
    """Reference seconds per measured second between two probes."""
    return REFERENCE / ((before + after) / 2)
