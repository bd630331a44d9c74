"""Response-time analysis: the batching queue behind Table 4.

The simulators here are single-server wrappers over the fleet-scale
event engine in :mod:`repro.serving`; :mod:`repro.latency.queueing`
also holds the closed forms the globe's hybrid backend prices cells
with.  For multi-replica, policy-driven serving studies -- including
the most a fleet sustains under an SLO -- run a ``ServeScenario``
through ``repro.run``.
"""

from repro.latency.queueing import (
    BatchQueueStats,
    simulate_batch_queue,
    simulate_closed_loop,
)
from repro.latency.sweep import Table4Row, table4_rows

__all__ = [
    "BatchQueueStats",
    "Table4Row",
    "simulate_batch_queue",
    "simulate_closed_loop",
    "table4_rows",
]
