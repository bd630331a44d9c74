"""A per-request reference simulation for the continuous batcher.

The production scheduler (:mod:`repro.serving.continuous`) runs its own
event heap with per-iteration bookkeeping over per-chip token-time logs;
this module replays the same scheduling *policy* -- FIFO admission with
a one-token-per-slot growth reserve, newest-first eviction to the head
of the queue, gang admission for the fixed baseline -- as a deliberately
plain per-request event walk: explicit request/chip dicts, a hand-rolled
next-event scan, no shared engine code.  The two implementations share only the
closed-form arithmetic in :class:`repro.platforms.kv.DecodeTiming`, so
agreement (``tests/test_llm.py`` pins
:data:`repro.serving.continuous.LLM_VALIDATION_RTOL`) checks the
scheduler's logic, exactly the way ``repro.globe`` validates its hybrid
backend against the exact event simulator.

Scope: the aggregated fleet (shared queue, inline prefill), both
schedulers.  The disaggregated pools reuse the identical decode engine
and add only prefill/transfer stages on top.
"""

from __future__ import annotations

import math

import numpy as np

from repro.serving.continuous import ContinuousConfig


def simulate_reference(
    cfg: ContinuousConfig,
    arrivals: np.ndarray,
    prompts: np.ndarray,
    decodes: np.ndarray,
) -> dict:
    """Replay one trace per-request; returns per-request outcome arrays."""
    if cfg.mode != "aggregated":
        raise ValueError("the reference simulation covers aggregated mode")
    timing = cfg.timing
    n = len(arrivals)
    reqs = [
        {
            "id": i,
            "arrival": float(arrivals[i]),
            "prompt": int(prompts[i]),
            "decode": int(decodes[i]),
            "emitted": 0,
            "kv": 0,
            "first": math.nan,
            "finish": math.nan,
            "last_token": math.nan,
            "gaps": [],
        }
        for i in range(n)
    ]
    queue: list[int] = []
    chips = [
        {"running": [], "kv": 0, "end": math.inf, "prefill_macs": 0}
        for _ in range(cfg.chips)
    ]
    evictions = 0
    tokens = 0
    done = 0
    next_arrival = 0
    now = 0.0

    def admit(chip: dict) -> None:
        if cfg.scheduler == "fixed" and chip["running"]:
            return  # the gang runs to completion before new admissions
        while queue and len(chip["running"]) < cfg.max_batch:
            req = reqs[queue[0]]
            need = req["prompt"] + req["emitted"]
            if chip["kv"] + need + len(chip["running"]) + 1 > cfg.kv_capacity:
                break
            queue.pop(0)
            req["kv"] = need
            chip["kv"] += need
            chip["prefill_macs"] += timing.prefill_macs(need)
            chip["running"].append(req["id"])

    def launch(chip: dict, at: float) -> None:
        nonlocal evictions
        while True:
            admit(chip)
            for i in chip["running"]:
                reqs[i]["kv"] += 1
            chip["kv"] += len(chip["running"])
            kicked = False
            while chip["kv"] > cfg.kv_capacity:
                victim = reqs[chip["running"].pop()]
                chip["kv"] -= victim["kv"]
                victim["kv"] = 0
                evictions += 1
                queue.insert(0, victim["id"])
                kicked = True
            if chip["running"]:
                chip["end"] = at + timing.iteration_seconds(
                    len(chip["running"]), chip["kv"], chip["prefill_macs"]
                )
                chip["prefill_macs"] = 0
                return
            chip["prefill_macs"] = 0
            if not (kicked and queue):
                chip["end"] = math.inf
                return
            # full eviction: retry admission on the emptied chip

    while done < n:
        chip_end = min(c["end"] for c in chips)
        if next_arrival < n and reqs[next_arrival]["arrival"] <= chip_end:
            now = reqs[next_arrival]["arrival"]
            queue.append(next_arrival)
            next_arrival += 1
            for chip in chips:
                if queue and chip["end"] == math.inf:
                    launch(chip, now)
            continue
        if chip_end == math.inf:
            raise RuntimeError(
                "reference simulation deadlocked: queued work no chip can admit"
            )
        now = chip_end
        chip = min(chips, key=lambda c: c["end"])
        finished = []
        for i in chip["running"]:
            req = reqs[i]
            req["emitted"] += 1
            tokens += 1
            if math.isnan(req["first"]):
                req["first"] = now
            else:
                req["gaps"].append(now - req["last_token"])
            req["last_token"] = now
            if req["emitted"] == req["decode"]:
                finished.append(i)
        for i in finished:
            req = reqs[i]
            req["finish"] = now
            chip["kv"] -= req["kv"]
            req["kv"] = 0
            chip["running"].remove(i)
            done += 1
        launch(chip, now)
        for other in chips:
            if queue and other["end"] == math.inf:
                launch(other, now)

    gaps = [g for req in reqs for g in req["gaps"]]
    return {
        "first_token": np.array([r["first"] for r in reqs]),
        "finish": np.array([r["finish"] for r in reqs]),
        "emitted": np.array([r["emitted"] for r in reqs]),
        "tokens": tokens,
        "evictions": evictions,
        "horizon": now,
        "tpot_intervals": np.array(sorted(gaps)) if gaps else np.empty(0),
    }
