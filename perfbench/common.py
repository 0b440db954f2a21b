"""Op timing, the end-to-end metrics and the result line.

Times are reported at *reference speed*: a measured wall time is divided
by the time, in ms, of a fixed pure-Python loop measured next to it (see
reference_ms), so they read as wall time on a machine where that loop takes
1 ms.  The benchmark machine's speed swings by up to a factor of two over
minutes as other tenants come and go; the loop swings with it, and a change
to the program moves the op times and not the loop.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

SETUP_REPEATS = 3  # set-up runs this often per run; setup_s reports the median
TAIL_BEYOND = 10  # op_tail_ms: the slowest value with this many samples above it
FAULT = "known fault"  # a check's verdict for an op that hit a known program fault
REF_ITERATIONS = 20_000  # the reference loop; about 1.6 ms on the reference machine
REF_EVERY_S = 0.05  # ops that start within this long of a reference reading share it
SHORT_S = 0.03  # ops faster than this (at reference speed) may run extra passes


def reference_ms() -> float:
    """The machine's speed now: the fastest of three runs of a fixed loop, in ms."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i % 7
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best * 1000.0


@dataclass
class Run:
    """What one workload run measured and found."""

    setup_s: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # outputs that the checks refused
    tracer: object = None  # records set-up and ops only, never the checks
    passes: int = 1  # times the whole op sequence runs; an op's latency is its fastest pass
    short_passes: int = 0  # passes for ops faster than SHORT_S, when more than ``passes``
    runs: int = 0  # op runs in all passes
    _ref_ms: float = 0.0
    _ref_at: float = float("-inf")

    def ref_ms(self) -> float:
        """A reference reading at most REF_EVERY_S old."""
        if time.perf_counter() - self._ref_at >= REF_EVERY_S:
            self._ref_ms = reference_ms()
            self._ref_at = time.perf_counter()
        return self._ref_ms

    def _traced(self, on: bool):
        if self.tracer is not None:
            self.tracer.enabled = on

    def check(self, what: str, problem):
        """Record a wrong output (``problem`` is None when the output is right)."""
        if problem is not None:
            self.errors.append(f"{what}: {problem}")

    def measure(self, ops):
        """Time a sequence of ops, given as ``(what, fn, check)``.

        The sequence runs ``passes`` times in order.  An op's latency, at
        reference speed, is its fastest pass: bursts from other tenants
        slow single runs by up to a half, and repeats spread over the run
        are far less alike in their slowest than in their fastest runs.
        Ops faster than SHORT_S, whose single runs vary most, run on for up
        to ``short_passes`` passes.  ``check`` sees the output of the first
        pass, untimed, and returns None, a problem, or FAULT.
        """
        best = [None] * len(ops)
        for rnd in range(max(self.passes, self.short_passes)):
            for i, (what, fn, check) in enumerate(ops):
                if rnd >= self.passes and best[i] >= SHORT_S:
                    continue
                ref = self.ref_ms()
                self.runs += 1
                self._traced(True)
                start = time.perf_counter()
                try:
                    out = fn()
                finally:
                    took = time.perf_counter() - start
                    self._traced(False)
                if took >= REF_EVERY_S:  # a long op: average the readings around it
                    ref = (ref + self.ref_ms()) / 2
                took /= ref
                best[i] = took if best[i] is None else min(best[i], took)
                if rnd == 0:
                    problem = check(out)
                    if problem is FAULT:
                        self.failed += 1
                    else:
                        self.check(what, problem)
        self.latencies = best
        self.attempted = len(ops)


def timed_setups(run: Run, build):
    """Run ``build`` SETUP_REPEATS times and add the median duration to
    ``run.setup_s``; return the last result.  Each repeat starts from
    nothing, so the median is the cost of one set-up, not of a cache."""
    durations = []
    out = None
    for _ in range(SETUP_REPEATS):
        out = None  # let the previous set-up be freed first
        ref = reference_ms()
        run._traced(True)
        start = time.perf_counter()
        out = build()
        took = time.perf_counter() - start
        run._traced(False)
        durations.append(took / ((ref + reference_ms()) / 2))
    run.setup_s += statistics.median(durations)
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(latencies):
    """(value, percentile): the slowest op with TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end(run: Run) -> dict:
    busy = sum(run.latencies)
    tail_s, _ = tail(run.latencies)
    return {
        "setup_s": {"value": run.setup_s, "unit": "s"},
        "ops_per_s": {"value": (run.attempted - run.failed) / busy, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(run.latencies) * 1000.0, "unit": "ms"},
        "op_tail_ms": {"value": tail_s * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
