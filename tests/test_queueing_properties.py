"""Property tests for the latency/queueing closed forms.

The globe's hybrid backend prices its cells with these four functions
(the datacenter and LLM-pool layers simulate their fleets instead), so
their analytic invariants are pinned here with hypothesis rather than
example-by-example: Erlang-C is a probability
and monotone in utilization, waits are non-negative and monotone in
load, deterministic service never waits longer than exponential
service at the same load, and the fluid backlog is a non-negative
recursion that drains at exactly ``capacity - rate``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.latency.queueing import (
    erlang_c,
    fluid_backlog,
    mdc_mean_wait,
    mmc_mean_wait,
)

servers_st = st.integers(min_value=1, max_value=64)
rho_st = st.floats(min_value=0.0, max_value=0.999,
                   allow_nan=False, allow_infinity=False)
service_st = st.floats(min_value=1e-6, max_value=10.0,
                       allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(servers=servers_st, rho=rho_st)
def test_erlang_c_is_a_probability(servers, rho):
    c = erlang_c(servers, rho)
    assert 0.0 <= c <= 1.0


@settings(max_examples=200, deadline=None)
@given(servers=servers_st, rho=rho_st, bump=st.floats(min_value=1e-4, max_value=0.5))
def test_erlang_c_monotone_in_utilization(servers, rho, bump):
    higher = min(0.999, rho + bump)
    assert erlang_c(servers, higher) >= erlang_c(servers, rho) - 1e-12


@settings(max_examples=100, deadline=None)
@given(servers=servers_st)
def test_erlang_c_saturates_when_unstable(servers):
    assert erlang_c(servers, 1.0) == 1.0
    assert erlang_c(servers, 1.7) == 1.0


@settings(max_examples=200, deadline=None)
@given(servers=servers_st, rho=rho_st, service=service_st)
def test_waits_non_negative_and_deterministic_halves(servers, rho, service):
    rate = rho * servers / service
    mmc = mmc_mean_wait(rate, servers, service)
    mdc = mdc_mean_wait(rate, servers, service)
    assert mmc >= 0.0
    assert mdc >= 0.0
    # Allen-Cunneen with cv^2 = 0: deterministic service waits at most
    # as long as exponential service at the same offered load.
    assert mdc <= mmc + 1e-12
    assert math.isfinite(mmc)


@settings(max_examples=200, deadline=None)
@given(servers=servers_st, rho=rho_st, service=service_st,
       bump=st.floats(min_value=1e-4, max_value=0.5))
def test_mean_wait_monotone_in_load(servers, rho, service, bump):
    low = rho * servers / service
    high = min(0.999, rho + bump) * servers / service
    assert mmc_mean_wait(high, servers, service) >= (
        mmc_mean_wait(low, servers, service) - 1e-9
    )


@settings(max_examples=100, deadline=None)
@given(servers=servers_st, service=service_st,
       over=st.floats(min_value=1.0, max_value=4.0))
def test_unstable_queue_waits_forever(servers, service, over):
    rate = over * servers / service
    assert mmc_mean_wait(rate, servers, service) == math.inf
    assert mdc_mean_wait(rate, servers, service) == math.inf


@settings(max_examples=200, deadline=None)
@given(
    rates=st.lists(
        st.floats(min_value=0.0, max_value=1e4,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=32,
    ),
    capacity=st.floats(min_value=1e-3, max_value=1e4,
                       allow_nan=False, allow_infinity=False),
    dt=st.floats(min_value=1e-3, max_value=60.0,
                 allow_nan=False, allow_infinity=False),
    initial=st.floats(min_value=0.0, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
)
def test_fluid_backlog_non_negative_and_conserving(rates, capacity, dt, initial):
    backlog = fluid_backlog(rates, capacity, dt, initial=initial)
    assert backlog.shape == (len(rates),)
    assert np.all(backlog >= 0.0)
    # Flow conservation bin by bin: the clamp at zero is the only
    # discontinuity, so each step either follows the recursion exactly
    # or drains to the floor.
    prev = initial
    for rate, got in zip(rates, backlog):
        expect = max(0.0, prev + (rate - capacity) * dt)
        assert got == expect or math.isclose(got, expect, rel_tol=1e-9, abs_tol=1e-9)
        prev = got


def test_fluid_backlog_drains_at_capacity_minus_rate():
    backlog = fluid_backlog([100.0, 0.0, 0.0, 0.0], 25.0, 1.0)
    assert backlog.tolist() == [75.0, 50.0, 25.0, 0.0]
