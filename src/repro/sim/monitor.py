"""Measurement instruments for simulation runs.

The benchmark harness measures everything through four instruments:

- :class:`Counter` — monotone event counts with optional timestamping, used
  for throughput over a measurement window,
- :class:`Tally` — scalar samples (latencies, retry counts) with
  percentile/CDF readout,
- :class:`ThroughputMeter` — completions per microsecond over a window,
  reported directly in MOPS because project time units are microseconds,
- :class:`UtilizationMeter` — busy-time integration for CPU utilization
  figures (Fig. 15).
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

__all__ = ["Counter", "Tally", "ThroughputMeter", "UtilizationMeter"]


class Counter:
    """A monotone counter."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Tally:
    """Collects scalar samples and reports order statistics.

    Samples are kept in full (runs in this project are bounded to a few
    hundred thousand samples), so percentiles are exact.  They are stored
    unboxed, as float64 in an ``array("d")``: an integer sample (a fetch
    attempt count) reads back as a float, and recording anything that is
    not a number raises :class:`TypeError`.

    Empty-sample readout is *defined*: every scalar readout
    (:meth:`mean`, :meth:`minimum`, :meth:`maximum`, :meth:`percentile`)
    raises :class:`ValueError` on an empty tally by default, or returns
    the ``default`` argument when one is given — reporting code that must
    survive idle instruments (a client that never completed a call, a
    warmup-only run) passes ``default=float("nan")`` and renders the
    NaN, instead of crashing mid-report.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples = array("d")

    def record(self, sample: float) -> None:
        self._samples.append(sample)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence[float]:
        return self._samples

    def _empty(self, default: Optional[float]) -> float:
        if default is None:
            raise ValueError(f"tally {self.name!r} has no samples")
        return default

    def mean(self, default: Optional[float] = None) -> float:
        if not self._samples:
            return self._empty(default)
        return float(np.mean(self._samples))

    def minimum(self, default: Optional[float] = None) -> float:
        if not self._samples:
            return self._empty(default)
        return float(np.min(self._samples))

    def maximum(self, default: Optional[float] = None) -> float:
        if not self._samples:
            return self._empty(default)
        return float(np.max(self._samples))

    def percentile(self, p: float, default: Optional[float] = None) -> float:
        """Exact percentile, ``p`` in [0, 100]."""
        if not self._samples:
            return self._empty(default)
        return float(np.percentile(self._samples, p))

    def cdf(
        self, points: int = 100
    ) -> Tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Return ``(values, cumulative_probability)`` for CDF plots."""
        if not self._samples:
            raise ValueError(f"tally {self.name!r} has no samples")
        values = np.sort(np.asarray(self._samples, dtype=float))
        probs = np.arange(1, len(values) + 1) / len(values)
        if len(values) > points:
            idx = np.linspace(0, len(values) - 1, points).astype(int)
            values, probs = values[idx], probs[idx]
        return values, probs

    def histogram(self, bins: Sequence[float]) -> NDArray[np.intp]:
        counts, _ = np.histogram(self._samples, bins=np.asarray(bins, dtype=float))
        return counts


class ThroughputMeter:
    """Counts completions inside a measurement window and reports MOPS.

    ``record(now)`` marks one completion.  Completions before
    ``window_start`` (the warmup) or after ``window_end`` are ignored.
    """

    def __init__(
        self,
        window_start: float = 0.0,
        window_end: Optional[float] = None,
        name: str = "",
    ) -> None:
        self.name = name
        self.window_start = window_start
        self.window_end = window_end
        self.completions = 0
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None

    def record(self, now: float, amount: int = 1) -> None:
        if now < self.window_start:
            return
        if self.window_end is not None and now > self.window_end:
            return
        self.completions += amount
        if self.first_at is None:
            self.first_at = now
        self.last_at = now

    def mops(self, elapsed: Optional[float] = None) -> float:
        """Throughput in MOPS (ops per microsecond) over the window.

        ``elapsed`` overrides the window length, e.g. when a run was cut
        short by ``run(until=...)``.
        """
        if elapsed is None:
            if self.window_end is None:
                if self.last_at is None:
                    return 0.0
                elapsed = self.last_at - self.window_start
            else:
                elapsed = self.window_end - self.window_start
        if elapsed <= 0:
            return 0.0
        return self.completions / elapsed


class UtilizationMeter:
    """Integrates busy time for one simulated thread or core.

    Usage: call ``begin_busy(now)`` / ``end_busy(now)`` around work, then
    read :meth:`utilization` over the measurement window.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    def begin_busy(self, now: float) -> None:
        if self._busy_since is not None:
            raise ValueError(f"{self.name!r}: begin_busy while already busy")
        self._busy_since = now

    def end_busy(self, now: float) -> None:
        if self._busy_since is None:
            raise ValueError(f"{self.name!r}: end_busy while not busy")
        self.busy_time += now - self._busy_since
        self._busy_since = None

    def add_busy(self, duration: float) -> None:
        """Credit ``duration`` of busy time directly (for charged costs)."""
        if duration < 0:
            raise ValueError(f"negative busy duration: {duration}")
        self.busy_time += duration

    def utilization(self, elapsed: float) -> float:
        """Busy fraction over ``elapsed`` time units."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
