"""Dynamic batching policies: how a replica turns a queue into batches.

The policy family formalizes the paper's central serving tension: larger
batches amortize weight traffic (throughput), but a request admitted to a
batch must wait for the batch to fill *and* for the batch to run, and the
99th-percentile deadline bounds that sum (Table 4's 7 ms limit caps the
TPU at batch ~200, 80% of peak).

A policy is a batch cap ``max_batch`` and a deadline ``wait_deadline``.
A replica with a free server launches ``min(len(queue), max_batch)``
requests when its queue holds ``max_batch``, when the head's deadline is
at or before now, or at the end of the trace:

* :class:`FixedBatcher` -- no deadline: only full batches, and the
  partial one the trace ends with.
* :class:`TimeoutBatcher` -- the head waits at most ``timeout_seconds``.
* :class:`SLOAdaptiveBatcher` -- the cap is the largest batch whose
  predicted response still fits the SLO, using the platform's batch
  latency curve; the head waits only as long as its slack allows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.platforms.base import BATCH_CANDIDATES
from repro.serving.engine import LatencyCurve


class Batcher:
    """A batch cap and a wait deadline (see the module docstring).

    ``max_batch`` is the policy's largest admissible batch; the fleet
    also uses it to express offered load as a fraction of capacity.
    """

    max_batch: int

    def wait_deadline(self, queue_len: int, oldest_arrival: float) -> float | None:
        """Absolute time at which waiting must end (None: no deadline)."""
        return None


class FixedBatcher(Batcher):
    """Launch full ``batch_size`` batches; only the trace's end launches a
    partial one."""

    def __init__(self, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.max_batch = batch_size


class TimeoutBatcher(Batcher):
    """Batch-with-timeout: full batch, or partial after ``timeout_seconds``."""

    def __init__(self, batch_size: int, timeout_seconds: float) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if not timeout_seconds >= 0:  # NaN fails this too
            raise ValueError(f"timeout must be non-negative, got {timeout_seconds}")
        self.max_batch = batch_size
        self.timeout_seconds = timeout_seconds

    def wait_deadline(self, queue_len: int, oldest_arrival: float) -> float | None:
        return oldest_arrival + self.timeout_seconds if queue_len else None


class SLOAdaptiveBatcher(Batcher):
    """Deadline-aware batching from a per-platform batch latency curve.

    The target batch is the largest candidate whose batch latency uses at
    most ``service_share`` of the SLO (the rest of the budget absorbs
    collection and queueing).  A partial batch is launched as soon as the
    oldest request could no longer make the deadline by waiting: at
    ``oldest + slo_margin * slo_seconds - latency(queue_len)`` (the
    margin keeps responses strictly inside the SLO).
    At low load every response therefore lands inside the SLO; at
    overload the queue itself blows the budget, which is the physics the
    paper's Table 4 rows at 100% max IPS exhibit.
    """

    def __init__(
        self,
        slo_seconds: float,
        curve: LatencyCurve,
        candidates: Sequence[int] = BATCH_CANDIDATES,
        service_share: float = 0.5,
        slo_margin: float = 0.95,
    ) -> None:
        if not 0 < slo_seconds < math.inf:
            raise ValueError(f"slo_seconds must be positive and finite, got {slo_seconds}")
        if not candidates:
            raise ValueError("candidates must name at least one batch size")
        if not 0 < service_share <= 1:
            raise ValueError(f"service_share must be in (0, 1], got {service_share}")
        if not 0 < slo_margin <= 1:
            raise ValueError(f"slo_margin must be in (0, 1], got {slo_margin}")
        self.slo_seconds = slo_seconds
        self.slo_margin = slo_margin
        self.curve = curve
        budget = slo_seconds * service_share
        # Batch latency is monotone in batch size on every platform, so
        # scan upward and stop at the first candidate over budget: on the
        # TPU each probe compiles and profiles a batch variant, and this
        # keeps heavyweight workloads (transformer prefill) from paying
        # for batch sizes the SLO could never admit.
        fitting: list[int] = []
        for b in sorted(candidates):
            if curve.latency(b) > budget:
                break
            fitting.append(b)
        # Even when nothing fits (the paper's CPU LSTM case), the service
        # still has to run: serve singletons and miss.
        self.max_batch = fitting[-1] if fitting else min(candidates)
        self._budgets: tuple[float, ...] | None = None

    def _budget(self, queue_len: int) -> float:
        # The margin keeps dispatches strictly inside the deadline, so
        # queueing jitter doesn't flip p99 across the SLO boundary.
        budget = self.slo_seconds * self.slo_margin
        return max(budget - self.curve.latency(max(queue_len, 1)), 0.0)

    def wait_budgets(self) -> tuple[float, ...]:
        """The wait budget at each queue length ``0 .. max_batch - 1``.

        Built on first use and kept: the curve is fixed for the
        batcher's lifetime, the event loop asks for these queue depths
        hundreds of thousands of times per sweep, and the fleet's batch
        scan reads the whole vector.
        """
        if self._budgets is None:
            self._budgets = tuple(self._budget(n) for n in range(self.max_batch))
        return self._budgets

    def _wait_budget(self, queue_len: int) -> float:
        if queue_len < self.max_batch:
            return (self._budgets or self.wait_budgets())[queue_len]
        return self._budget(queue_len)

    def wait_deadline(self, queue_len: int, oldest_arrival: float) -> float | None:
        if not queue_len:
            return None
        return oldest_arrival + self._wait_budget(queue_len)


#: The sizing arguments of :func:`make_batcher` each policy reads besides
#: the SLO: an adaptive batcher sizes its own batches, and only a timeout
#: batcher times out.
POLICY_FIELDS: dict[str, tuple[str, ...]] = {
    "fixed": ("batch_size",),
    "timeout": ("batch_size", "timeout_seconds"),
    "adaptive": (),
}


def make_batcher(
    policy: str,
    curve: LatencyCurve,
    slo_seconds: float,
    batch_size: int | None = None,
    timeout_seconds: float | None = None,
    candidates: Sequence[int] = BATCH_CANDIDATES,
) -> Batcher:
    """Batcher factory used by the CLI and the sweep harness."""
    if policy == "fixed":
        if batch_size is None:
            raise ValueError("fixed policy requires batch_size")
        return FixedBatcher(batch_size)
    if policy == "timeout":
        if batch_size is None:
            raise ValueError("timeout policy requires batch_size")
        timeout = slo_seconds / 2 if timeout_seconds is None else timeout_seconds
        return TimeoutBatcher(batch_size, timeout)
    if policy == "adaptive":
        return SLOAdaptiveBatcher(slo_seconds, curve, candidates=candidates)
    raise ValueError(f"unknown batching policy {policy!r}")
