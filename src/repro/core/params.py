"""Parameter selection for R (retry bound) and F (fetch size) — §3.2.

The paper turns both challenges into one selection problem (Eq. 1):

    T = argmax_{R,F} f(R, F, P, S)

and solves it by enumeration after bounding the candidate ranges from
hardware curves:

- ``N`` (upper bound of R) comes from the throughput-vs-process-time
  curve (Fig. 9): past the process time where repeated remote fetching
  gains less than ~10% over server-reply, extra retries only burn client
  CPU.  The retry bound maps to that crossover's process time divided by
  one fetch round trip (their testbed: P ≈ 7 µs ⇒ N = 5).
- ``[L, H]`` (range of F) comes from the IOPS-vs-size curve (Fig. 5):
  below ``L`` IOPS is flat so a bigger fetch is free; above ``H`` the
  link is bandwidth-bound and larger fetches only waste bytes (their
  testbed: L = 256 B, H = 1024 B).

Eq. 2 then scores each candidate pair against sampled result sizes
``S_1..S_M``: a result covered by one fetch contributes the full IOPS
``I_{R,F}``, an uncovered one contributes half (two reads needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.fetch import reads_required
from repro.errors import ProtocolError

__all__ = [
    "ParameterChoice",
    "derive_retry_bound",
    "derive_size_bounds",
    "select_parameters",
    "fetch_size_grid",
]


@dataclass(frozen=True)
class ParameterChoice:
    """Output of the enumeration: the chosen (R, F) and its Eq. 2 score."""

    retry_bound: int
    fetch_size: int
    expected_mops: float
    scores: Dict[Tuple[int, int], float]


def derive_size_bounds(
    sizes: Sequence[int],
    iops: Sequence[float],
    flat_tolerance: float = 0.035,
    bandwidth_tolerance: float = 0.02,
) -> Tuple[int, int]:
    """Find [L, H] from a measured IOPS-vs-size curve (Fig. 5 analysis).

    ``L`` is the largest size whose IOPS is still within
    ``flat_tolerance`` of the small-payload peak (fetching less gains
    nothing).  ``H`` is the smallest size whose *byte* throughput reaches
    within ``bandwidth_tolerance`` of the link's asymptotic byte rate
    (fetching more is pure bandwidth waste).
    """
    if len(sizes) != len(iops) or len(sizes) < 3:
        raise ProtocolError("need matching size/IOPS arrays with >= 3 points")
    if list(sizes) != sorted(sizes):
        raise ProtocolError("sizes must be increasing")
    peak = max(iops)
    lower = sizes[0]
    for size, rate in zip(sizes, iops):
        if rate >= (1.0 - flat_tolerance) * peak:
            lower = size
        else:
            break
    byte_rates = [s * r for s, r in zip(sizes, iops)]
    asymptote = byte_rates[-1]
    upper = sizes[-1]
    for size, byte_rate in zip(sizes, byte_rates):
        if byte_rate >= (1.0 - bandwidth_tolerance) * asymptote:
            upper = size
            break
    if upper < lower:
        raise ProtocolError(
            f"degenerate bounds L={lower} > H={upper}; widen the size sweep"
        )
    return lower, upper


def derive_retry_bound(
    process_times_us: Sequence[float],
    fetch_mops: Sequence[float],
    reply_mops: Sequence[float],
    fetch_round_trip_us: float,
    gain_threshold: float = 0.10,
) -> Tuple[int, float]:
    """Find N (upper bound of R) from a Fig. 9-style curve.

    Returns ``(N, crossover_process_time)``: the first process time where
    repeated remote fetching improves on server-reply by less than
    ``gain_threshold``, and the number of fetch round trips that fit into
    that process time — past N retries, fetching buys < 10% throughput
    while holding the client CPU at 100%.
    """
    if not (len(process_times_us) == len(fetch_mops) == len(reply_mops)):
        raise ProtocolError("curve arrays must have matching lengths")
    if fetch_round_trip_us <= 0:
        raise ProtocolError("fetch round trip must be positive")
    crossover = process_times_us[-1]
    for process_time, fetch, reply in zip(process_times_us, fetch_mops, reply_mops):
        if reply <= 0:
            continue
        if (fetch - reply) / reply <= gain_threshold:
            crossover = process_time
            break
    retry_bound = max(1, round(crossover / fetch_round_trip_us))
    return retry_bound, crossover


def fetch_size_grid(lower: int, upper: int, step: int = 64) -> List[int]:
    """Candidate fetch sizes in [L, H], aligned to ``step`` bytes."""
    if lower > upper:
        raise ProtocolError(f"invalid range [{lower}, {upper}]")
    if step < 1:
        raise ProtocolError(f"step must be >= 1, got {step}")
    grid = list(range(lower, upper + 1, step))
    if grid[-1] != upper:
        grid.append(upper)
    return grid


def select_parameters(
    result_sizes: Sequence[int],
    iops_at: Callable[[int, int], float],
    retry_upper_bound: int,
    size_lower_bound: int,
    size_upper_bound: int,
    size_step: int = 64,
) -> ParameterChoice:
    """Enumerate (R, F) candidates and maximise Eq. 2.

    ``iops_at(R, F)`` is the measured RNIC fetch IOPS under the candidate
    parameters (``I_{R,F}``; in practice dominated by F).  For each sampled
    result size ``S_i`` a covered result scores the full IOPS and an
    uncovered one half of it.  Ties prefer the larger R (fewer premature
    mode switches) and then the smaller F (less bandwidth).
    """
    if not result_sizes:
        raise ProtocolError("no result sizes provided (run the sampler first)")
    if retry_upper_bound < 1:
        raise ProtocolError("retry upper bound must be >= 1")
    grid = fetch_size_grid(size_lower_bound, size_upper_bound, size_step)
    # Whether one fetch covers a result does not depend on R, so each F's
    # flags are computed once, and once per distinct size.  The sums below
    # still add term by term in sample order: float addition is not
    # associative, and ties between candidates depend on the exact bits
    # of their scores.
    distinct = set(result_sizes)
    covered: Dict[int, List[bool]] = {}
    for fetch in grid:
        one_read = {size: reads_required(size, fetch) == 1 for size in distinct}
        covered[fetch] = [one_read[size] for size in result_sizes]
    scores: Dict[Tuple[int, int], float] = {}
    best: Tuple[float, int, int] = (-1.0, 0, 0)
    for retry in range(1, retry_upper_bound + 1):
        for fetch in grid:
            rate = iops_at(retry, fetch)
            half = rate / 2.0
            total = 0.0
            for one_read in covered[fetch]:
                total += rate if one_read else half
            mean = total / len(result_sizes)
            scores[(retry, fetch)] = mean
            candidate = (mean, retry, -fetch)
            if candidate > best:
                best = candidate
    _, retry, negative_fetch = best
    return ParameterChoice(
        retry_bound=retry,
        fetch_size=-negative_fetch,
        expected_mops=scores[(retry, -negative_fetch)],
        scores=scores,
    )
