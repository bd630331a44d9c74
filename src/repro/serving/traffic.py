"""Open-loop load generation: arrival-time vectors for the fleet.

All generators return a sorted numpy array of absolute arrival times in
seconds.  Poisson is the paper's implicit model ("most applications keep
their input queues empty" -- arrivals are sparse and memoryless); traces
replay measured traffic; the diurnal generator stresses the fleet with
the load swings real datacenters see.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np


#: Candidates :func:`diurnal_arrivals` draws per block: bounds the arrays
#: a long trace holds at once.
_BLOCK = 4096


def _check_positive(**values: float) -> None:
    """Raise a ``ValueError`` naming the first argument that is not
    finite and positive; generators validate before drawing anything."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_count(n_requests: int) -> None:
    """Raise a ``ValueError`` naming ``n_requests`` unless it is a
    positive integer: a bool or a float, even an integral one, is
    refused; a numpy integer is accepted."""
    if isinstance(n_requests, bool) or not isinstance(n_requests, (int, np.integer)):
        raise ValueError(f"n_requests must be an integer, got {n_requests!r}")
    _check_positive(n_requests=n_requests)


def poisson_arrivals(rate: float, n_requests: int, seed: int = 0) -> np.ndarray:
    """Memoryless arrivals at ``rate`` requests/second."""
    _check_positive(rate=rate)
    _check_count(n_requests)
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n_requests))


def uniform_arrivals(rate: float, n_requests: int) -> np.ndarray:
    """Deterministic, evenly spaced arrivals (useful for closed-form tests)."""
    _check_positive(rate=rate)
    _check_count(n_requests)
    return (np.arange(n_requests) + 1.0) / rate


def diurnal_arrivals(
    mean_rate: float,
    swing: float,
    period_seconds: float,
    n_requests: int,
    seed: int = 0,
    phase: float = 0.0,
) -> np.ndarray:
    """A sinusoidally modulated Poisson process (day/night load swings).

    Instantaneous rate is ``mean_rate * (1 + swing * sin(2 pi (t / T +
    phase)))``, generated by thinning a Poisson process at the peak rate:
    each candidate draws one exponential gap at the peak rate, then one
    uniform that keeps it with probability ``rate(t) / peak``.  Both are
    scalar draws in that order, kept or not, so the trace depends on the
    seed alone.  They are drawn in blocks of at most ``_BLOCK``
    candidates; each block's running sum, sine and thinning test are
    array operations, and ``np.cumsum`` adds in order, so every time is
    the float a candidate-by-candidate loop reaches.  ``phase`` (a
    fraction of the period) shifts the cycle, which is how the
    multi-region topology in :mod:`repro.globe` staggers regional peaks
    for follow-the-sun load.
    """
    _check_positive(mean_rate=mean_rate, period_seconds=period_seconds)
    _check_count(n_requests)
    if not 0 <= swing < 1:
        raise ValueError(f"swing must be in [0, 1), got {swing}")
    peak = mean_rate * (1.0 + swing)
    scale = 1.0 / peak
    rng = np.random.default_rng(seed)
    exponential, uniform = rng.exponential, rng.random
    kept: list[np.ndarray] = []
    t = 0.0
    need = n_requests
    while need > 0:
        # About 1 + swing candidates per kept arrival.
        size = min(_BLOCK, need + math.ceil(need * swing))
        gaps: list[float] = []
        draws: list[float] = []
        gap, draw = gaps.append, draws.append
        for _ in range(size):
            gap(exponential(scale))
            draw(uniform())
        times = np.array(gaps)
        times[0] += t
        times = np.cumsum(times)
        rate = mean_rate * (
            1.0 + swing * np.sin(2.0 * np.pi * (times / period_seconds + phase))
        )
        block = times[np.array(draws) < rate / peak][:need]
        kept.append(block)
        need -= block.size
        t = times[-1]
    return np.concatenate(kept)


def make_traffic(
    kind: str,
    swing: float = 0.5,
    period_seconds: float | None = None,
) -> Callable[..., np.ndarray]:
    """A named arrival generator with the Poisson call signature.

    Returns a callable ``(rate, n_requests, seed=0) -> arrival times`` so
    load sweeps and the CLI can swap traffic shapes without changing the
    simulation plumbing.  For ``diurnal`` traffic, ``period_seconds=None``
    scales the period to the run (one full day/night cycle per trace:
    ``n_requests / rate`` seconds).
    """
    if kind == "poisson":
        return poisson_arrivals
    if kind == "uniform":
        return lambda rate, n_requests, seed=0: uniform_arrivals(rate, n_requests)
    if kind == "diurnal":

        def generate(rate: float, n_requests: int, seed: int = 0) -> np.ndarray:
            period = period_seconds
            if period is None:
                if rate <= 0:
                    raise ValueError(f"rate must be positive, got {rate}")
                period = n_requests / rate
            return diurnal_arrivals(
                rate, swing, period_seconds=period, n_requests=n_requests, seed=seed
            )

        return generate
    raise ValueError(
        f"unknown traffic kind {kind!r}; try one of ['diurnal', 'poisson', 'uniform']"
    )


def trace_arrivals(timestamps: Iterable[float]) -> np.ndarray:
    """Replay a measured trace of arrival times (seconds).

    Timestamps are shifted so the trace starts at t=0: wall-clock or
    epoch origins are meaningless to the simulation and would corrupt
    throughput/utilization, which are measured from time zero.
    """
    times = np.asarray(list(timestamps), dtype=float)
    if times.size == 0:
        raise ValueError("trace must contain at least one arrival")
    if np.any(np.diff(times) < 0):
        raise ValueError("trace timestamps must be non-decreasing")
    return times - times[0]


def load_trace(path: str) -> np.ndarray:
    """Read a trace file: one absolute arrival timestamp (seconds) per line.

    Blank lines and ``#`` comments are skipped.
    """
    times = []
    with open(path) as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                times.append(float(line))
    return trace_arrivals(times)
