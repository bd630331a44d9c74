"""Response-time analysis: the batching queue behind Table 4.

:func:`~repro.latency.sweep.table4_point` drives one batching server to
capacity with the serving engine's closed-loop generator
(:func:`repro.serving.engine.run_closed_loop`); :mod:`repro.latency.queueing`
holds the closed forms the globe's hybrid backend prices cells with.
For multi-replica, policy-driven serving studies -- including the most
a fleet sustains under an SLO -- run a ``ServeScenario`` through
``repro.run``.
"""

from repro.latency.sweep import Table4Row, table4_point, table4_rows

__all__ = [
    "Table4Row",
    "table4_point",
    "table4_rows",
]
