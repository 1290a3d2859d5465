"""optimize_lambda against a verbatim copy of its full 64-order pre-scan.

`reference_optimize_lambda` evaluates log S at every pre-scan order.
`converse.optimize_lambda` evaluates every _PRESCAN_STRIDE-th order first and
then only the orders that its ceiling does not rule out, so every report
must come out the same, bit for bit.
"""

import math

import numpy as np
import pytest

from conversekit import converse
from conversekit.converse import (
    _PRESCAN,
    _PRESCAN_STRIDE,
    ChannelFamily,
    _eps_from_log_terms,
    _floor_ceilings,
    _golden_max,
    _prescan_grid,
    optimize_lambda,
    strong_converse_bound,
)
from conversekit.suites import random_discrete_family
from conftest import pmf
from test_converse import QSTAR_HUGE_ORDER_FAMILIES
from test_kernel import _sparse_wide_conditionals, _wide_conditionals

RANGES = [(1e-6, 10.0), (1.0, 1.7e308), (1e-3, 1e3), (0.05, 8.0), (1e-8, 1e8), (1e-300, 1e-290)]


def reference_optimize_lambda(family, lam_lo=1e-6, lam_hi=10.0):
    if not (0.0 < lam_lo < lam_hi and math.isfinite(lam_hi)):
        raise ValueError(f"need finite 0 < lam_lo < lam_hi, got [{lam_lo!r}, {lam_hi!r}]")
    log_m = math.log(family.m_codewords)

    def raw_at(log_lam: float) -> float:
        lam = math.exp(log_lam)
        return _eps_from_log_terms(log_m, float(family._log_mean_terms(np.array([lam]))[0]), lam)

    grid, lams, lam_array = _prescan_grid(lam_lo, lam_hi)
    log_means = family._log_mean_terms(lam_array).tolist()
    values = [_eps_from_log_terms(log_m, s, lam) for s, lam in zip(log_means, lams)]
    best_idx = values.index(max(values))
    x_best, v_best = grid[best_idx], values[best_idx]
    bracket_lo = grid[max(best_idx - 1, 0)]
    bracket_hi = grid[min(best_idx + 1, _PRESCAN - 1)]
    edge_tol = math.sqrt(np.finfo(float).eps) * (bracket_hi - bracket_lo)
    inward = {0: edge_tol, _PRESCAN - 1: -edge_tol}.get(best_idx)
    if inward is None or raw_at(x_best + inward) > v_best:
        x_gold, v_gold = _golden_max(raw_at, bracket_lo, bracket_hi)
        if v_gold > v_best:
            x_best = x_gold
    lo, hi = grid[0], grid[-1]
    lam_best = {lo: lam_lo, hi: lam_hi}.get(x_best, math.exp(x_best))

    report = strong_converse_bound(family, lam_best)
    report.params["lambda_range"] = [lam_lo, lam_hi]
    report.params["lambda_at_boundary"] = bool(
        x_best <= lo + edge_tol or x_best >= hi - edge_tol
    )
    return report


def assert_same_reports(conds, ranges=RANGES):
    # repr keeps every bit of eps_raw, lambda_star, gamma_star and params
    for q_choice in converse.Q_CHOICES:
        fam = ChannelFamily(conds, q_choice)
        for lam_lo, lam_hi in ranges:
            fast = optimize_lambda(fam, lam_lo, lam_hi)
            slow = reference_optimize_lambda(fam, lam_lo, lam_hi)
            assert repr(fast) == repr(slow), (q_choice, lam_lo, lam_hi)


def test_random_families_keep_every_bit():
    rng = np.random.default_rng(27)
    for _ in range(40):
        assert_same_reports(random_discrete_family(rng).conditionals)


@pytest.mark.parametrize("make", [_wide_conditionals, _sparse_wide_conditionals])
def test_wide_families_keep_every_bit(make):
    assert_same_reports(make())


@pytest.mark.parametrize("conds", QSTAR_HUGE_ORDER_FAMILIES)
def test_huge_order_families_keep_every_bit(conds):
    assert_same_reports(conds)


@pytest.mark.parametrize("conds", [
    (pmf(0.2, 0.3, 0.5),),  # M = 1
    (pmf(0.2, 0.3, 0.5),) * 4,  # identical rows
    (pmf(1.0, 0.0, 0.0), pmf(0.0, 0.5, 0.5), pmf(0.0, 0.0, 1.0)),  # disjoint supports
    (pmf(5e-324, 1.0), pmf(0.5, 0.5)),  # subnormal mass
])
def test_special_families_keep_every_bit(conds):
    assert_same_reports(conds)


@pytest.mark.parametrize("make", [_wide_conditionals, _sparse_wide_conditionals])
def test_wide_prescan_evaluates_few_orders(monkeypatch, make):
    # a silent return to the full 64-order pre-scan fails here
    conds = make()
    grid_orders = set(_prescan_grid(1e-6, 10.0)[1])
    log_mean_terms = ChannelFamily._log_mean_terms
    for q_choice in converse.Q_CHOICES:
        seen = []

        def spy(self, lams):
            seen.extend(lam for lam in lams.tolist() if lam in grid_orders)
            return log_mean_terms(self, lams)

        with monkeypatch.context() as patched:
            patched.setattr(ChannelFamily, "_log_mean_terms", spy)
            optimize_lambda(ChannelFamily(conds, q_choice))
        assert len(set(seen)) == len(seen) <= 16, (q_choice, len(seen))


def _premise_families():
    rng = np.random.default_rng(28)
    fams = [random_discrete_family(rng).conditionals for _ in range(30)]
    return fams + [
        (pmf(5e-324, 1.0), pmf(0.5, 0.5)),
        (pmf(1e-300, 0.5, 0.5), pmf(0.2, 0.3, 0.5), pmf(0.5, 0.5, 1e-300)),
        *QSTAR_HUGE_ORDER_FAMILIES,
    ]


@pytest.mark.parametrize("q_choice", converse.Q_CHOICES)
def test_ceilings_lie_above_the_computed_floors(q_choice):
    # The premise of the skip: log S / lam never falls as lam grows, so the
    # ceiling from an order below bounds the floor at every order above it.
    # It is checked on the floor, the value the skip compares: log S / lam
    # itself carries the rounding of log S (about 1e-16) divided by lam, so
    # at lam ~ 1e-300 it is far from monotone, yet the ceiling multiplies it
    # by lam' / (1+lam') and keeps that rounding far below the margin.
    # Every order up to _PRESCAN_STRIDE grid steps below lam' is checked.
    for conds in _premise_families():
        fam = ChannelFamily(conds, q_choice)
        log_m = math.log(fam.m_codewords)
        for lam_lo, lam_hi in RANGES:
            _, lams, lam_array = _prescan_grid(lam_lo, lam_hi)
            log_means = fam._log_mean_terms(lam_array)
            floors = np.array([_eps_from_log_terms(log_m, s, lam)
                               for s, lam in zip(log_means.tolist(), lams)])
            for step in range(1, _PRESCAN_STRIDE + 1):
                ceilings = _floor_ceilings(log_m, log_means[:-step], lam_array[:-step],
                                           lam_array[step:])
                # the skip's own comparison: a -inf ceiling has an infinite margin
                late = floors[step:] - 1e-9 * (1.0 + np.abs(ceilings)) > ceilings
                assert not late.any(), (lam_lo, lam_hi, step, np.flatnonzero(late))
