"""Timing of one pass, corrected for the speed of a shared machine.

On a machine shared with other tenants the same Python code runs up to
about 1.8 times slower for stretches of many seconds.  A fixed
pure-Python calibration loop, run every CALIBRATE_EVERY_S between
operations, slows down with it.  Every timed interval is scaled by
CALIBRATION_REF_S over the mean calibration time at the two ends of its
segment, so times read as seconds at the speed the loop had on an idle
machine.  Calibration and correctness checks are not part of any timed
interval.
"""

from __future__ import annotations

import time

CALIBRATE_EVERY_S = 0.5
# calibration_loop() on an idle 2-vCPU VM with CPython 3.11.7.
CALIBRATION_REF_S = 0.0058


class CheckFailed(Exception):
    """An operation returned a result that fails its correctness gate."""


def calibration_loop():
    """Fixed dict, tuple and sort work, independent of the library."""
    table = {}
    for i in range(10_000):
        key = (i % 97, i % 89, "x")
        table[key] = table.get(key, 0) + 1
        tuple(sorted((i, i % 7, i % 5)))
    return len(table)


def calibrate():
    """Seconds per calibration loop: the fastest of three, to skip interrupts."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return min(times)


def speed_factor(before_s, after_s):
    return CALIBRATION_REF_S / ((before_s + after_s) / 2)


class Recorder:
    """One pass: scaled op latencies and pass time, states, failures."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.states = 0
        self.errors = []
        self.pass_s = 0.0
        self.unscaled_s = 0.0
        self.factors = []
        self._raw = []
        self._untimed = 0.0
        self._cal = calibrate()
        self._start = time.perf_counter()

    def op(self, run, check):
        """Time run(); check(result) returns the op's state count or raises."""
        if time.perf_counter() - self._start >= CALIBRATE_EVERY_S:
            self._close_segment()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            t1 = time.perf_counter()
            self._raw.append(t1 - t0)
            self._fail(exc)
        else:
            t1 = time.perf_counter()
            self._raw.append(t1 - t0)
            try:
                self.states += check(result)
            except Exception as exc:
                self._fail(exc)
        self._untimed += time.perf_counter() - t1

    def gate(self, ok, message):
        """A check on work shared by several ops (counts as one failure)."""
        t0 = time.perf_counter()
        if not ok:
            self._fail(CheckFailed(message))
        self._untimed += time.perf_counter() - t0

    def finish(self):
        self._close_segment()
        return self

    def _close_segment(self):
        timed = time.perf_counter() - self._start - self._untimed
        cal = calibrate()
        factor = speed_factor(self._cal, cal)
        self.factors.append(factor)
        self.pass_s += timed * factor
        self.unscaled_s += timed
        self.latencies.extend(x * factor for x in self._raw)
        self._raw = []
        self._untimed = 0.0
        self._cal = cal
        self._start = time.perf_counter()

    def _fail(self, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")
