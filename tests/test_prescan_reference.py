"""optimize_lambda against a verbatim copy of its full 64-order pre-scan.

`reference_optimize_lambda` evaluates log S at every pre-scan order.
`converse.optimize_lambda` evaluates every _PRESCAN_STRIDE-th order first and
then only the orders that its ceilings do not rule out, so every report
must come out the same, bit for bit.

Both searches call the same `ChannelFamily._log_mean_term`, one order per
call.  The bit-identity tests share its values between them through
`shared_log_means`, so the reference reuses the log S that the fast search
has just computed on the same family object; they check which orders each
search evaluates and what it does with them.
`test_special_families_keep_every_bit` shares nothing, so a log S that came
to depend on call history would still show there.
"""

import math

import numpy as np
import pytest

from conversekit import converse
from conversekit.converse import (
    _PRESCAN,
    _LOG_S_ROUNDING,
    _PRESCAN_STRIDE,
    ChannelFamily,
    _eps_from_log_terms,
    _floor_ceilings,
    _golden_max,
    _orders,
    _prescan_grid,
    _secant_ceilings,
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
        return _eps_from_log_terms(log_m, family._log_mean_term(lam), lam)

    grid, lams, lam_array = _prescan_grid(lam_lo, lam_hi)
    log_means = [family._log_mean_term(lam) for lam in lams]
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


@pytest.fixture
def shared_log_means(monkeypatch):
    """log S computed once per (family object, order) for the rest of the test.

    A spy installed later wraps this memo, so it still sees each search's
    own calls.
    """
    log_mean_term = ChannelFamily._log_mean_term
    memo = {}

    def shared(self, lam):
        key = (self, lam)
        if key not in memo:
            memo[key] = log_mean_term(self, lam)
        return memo[key]

    monkeypatch.setattr(ChannelFamily, "_log_mean_term", shared)


def assert_same_reports(conds, ranges=RANGES):
    # repr keeps every bit of eps_raw, lambda_star, gamma_star and params
    for q_choice in converse.Q_CHOICES:
        fam = ChannelFamily(conds, q_choice)
        for lam_lo, lam_hi in ranges:
            fast = optimize_lambda(fam, lam_lo, lam_hi)
            slow = reference_optimize_lambda(fam, lam_lo, lam_hi)
            assert repr(fast) == repr(slow), (q_choice, lam_lo, lam_hi)


def test_random_families_keep_every_bit(shared_log_means):
    rng = np.random.default_rng(27)
    for _ in range(40):
        assert_same_reports(random_discrete_family(rng).conditionals)


@pytest.mark.parametrize("make", [_wide_conditionals, _sparse_wide_conditionals])
def test_wide_families_keep_every_bit(shared_log_means, make):
    assert_same_reports(make())


@pytest.mark.parametrize("conds", QSTAR_HUGE_ORDER_FAMILIES)
def test_huge_order_families_keep_every_bit(shared_log_means, conds):
    assert_same_reports(conds)


@pytest.mark.parametrize("conds", [
    (pmf(0.2, 0.3, 0.5),),  # M = 1
    (pmf(0.2, 0.3, 0.5),) * 4,  # identical rows
    (pmf(1.0, 0.0, 0.0), pmf(0.0, 0.5, 0.5), pmf(0.0, 0.0, 1.0)),  # disjoint supports
    (pmf(5e-324, 1.0), pmf(0.5, 0.5)),  # subnormal mass
])
def test_special_families_keep_every_bit(conds):
    # no shared log S: each search computes its own
    assert_same_reports(conds)


@pytest.mark.parametrize("make", [_wide_conditionals, _sparse_wide_conditionals])
def test_wide_prescan_evaluates_few_orders(monkeypatch, make):
    # a silent return to the full 64-order pre-scan fails here
    conds = make()
    grid_orders = set(_prescan_grid(1e-6, 10.0)[1])
    log_mean_term = ChannelFamily._log_mean_term
    for q_choice in converse.Q_CHOICES:
        seen = []

        def spy(self, lam):
            if lam in grid_orders:
                seen.append(lam)
            return log_mean_term(self, lam)

        with monkeypatch.context() as patched:
            patched.setattr(ChannelFamily, "_log_mean_term", spy)
            optimize_lambda(ChannelFamily(conds, q_choice))
        assert len(set(seen)) == len(seen) <= 12, (q_choice, len(seen))


# Ranges so wide that lam' / lam is at least e^22 one grid step up: every
# margin then exceeds the floor's whole range, so the second pass keeps every
# order.  On the first, order 31 over order 0 passes the float range.
OVERFLOW_RANGES = [(5e-324, 1.7e308), (1e-300, 1.7e308)]


@pytest.mark.filterwarnings("error")
def test_ranges_whose_margin_overflows_keep_every_order_and_every_bit(shared_log_means,
                                                                       monkeypatch):
    for conds in (*_premise_families(), _wide_conditionals(), _sparse_wide_conditionals()):
        _assert_every_order_kept(monkeypatch, conds)


def _assert_every_order_kept(monkeypatch, conds):
    log_mean_term = ChannelFamily._log_mean_term
    for lam_lo, lam_hi in OVERFLOW_RANGES:
        _, lams, lam_array = _prescan_grid(lam_lo, lam_hi)
        with np.errstate(over="ignore"):
            assert (lam_array[31] / lam_array[0] == math.inf) == (lam_lo == 5e-324)
        grid = _prescan_grid(lam_lo, lam_hi)[0]
        first = [0, _PRESCAN_STRIDE, _PRESCAN - 1]
        rest = [lam for i, lam in enumerate(lams) if i not in first]
        for q_choice in converse.Q_CHOICES:
            fam = ChannelFamily(conds, q_choice)
            log_m = math.log(fam.m_codewords)
            floors = [_eps_from_log_terms(log_m, fam._log_mean_term(lams[i]), lams[i])
                      for i in first]
            end = first[floors.index(max(floors))]
            # the edge probe follows when the best of them is an end
            probe = [_probe_order(grid, end)] if end != _PRESCAN_STRIDE else []
            orders = [lams[i] for i in first] + probe + rest
            seen = []

            def spy(self, lam):
                seen.append(lam)
                return log_mean_term(self, lam)

            with monkeypatch.context() as patched:
                patched.setattr(ChannelFamily, "_log_mean_term", spy)
                fast = optimize_lambda(fam, lam_lo, lam_hi)
            # orders 0, 32 and 63, the probe when the best of them is an
            # end, then every other order of the grid in turn
            assert seen[:len(orders)] == orders, (q_choice, lam_lo)
            slow = reference_optimize_lambda(fam, lam_lo, lam_hi)
            assert repr(fast) == repr(slow), (q_choice, lam_lo, lam_hi)


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
    # by lam' / (1+lam') and keeps that rounding far below the margin.  An
    # absolute rounding delta in log S at lam moves the ceiling at lam' by at
    # most (lam' / lam) delta |1 - ceiling|, so the margin carries lam' / lam.
    # Every order up to _PRESCAN_STRIDE grid steps below lam' is checked.
    for conds in _premise_families():
        fam = ChannelFamily(conds, q_choice)
        log_m = math.log(fam.m_codewords)
        for lam_lo, lam_hi in RANGES:
            _, lams, lam_array = _prescan_grid(lam_lo, lam_hi)
            log_means = np.array([fam._log_mean_term(lam) for lam in lams])
            floors = np.array([_eps_from_log_terms(log_m, s, lam)
                               for s, lam in zip(log_means.tolist(), lams)])
            for step in range(1, _PRESCAN_STRIDE + 1):
                ceilings = _floor_ceilings(log_m, log_means[:-step], lam_array[:-step],
                                           _orders(lam_array[step:]))
                # the skip's own margin: infinite for a -inf ceiling, or
                # where lam' / lam passes the float range
                with np.errstate(over="ignore"):
                    margin = (1e-9 * (1.0 + np.abs(ceilings))
                              * (lam_array[step:] / lam_array[:-step]))
                late = floors[step:] - margin > ceilings
                assert not late.any(), (lam_lo, lam_hi, step, np.flatnonzero(late))


def _probe_order(grid, end):
    """The order one edge_tol inward of pre-scan order `end`, an end of the grid."""
    resolution = math.sqrt(np.finfo(float).eps)
    if end == 0:
        return math.exp(grid[0] + resolution * (grid[1] - grid[0]))
    return math.exp(grid[-1] - resolution * (grid[-1] - grid[-2]))


def test_wide_qstar_search_costs_the_first_pass_and_the_probe(monkeypatch):
    # The floor peaks at lam_hi; the secant through order 63 and the probe
    # rules out every other order, and the final edge test reuses the probe.
    grid, lams, _ = _prescan_grid(1e-6, 10.0)
    fam = ChannelFamily(_wide_conditionals(), "qstar")
    log_mean_term = ChannelFamily._log_mean_term
    seen = []

    def spy(self, lam):
        seen.append(lam)
        return log_mean_term(self, lam)

    monkeypatch.setattr(ChannelFamily, "_log_mean_term", spy)
    rep = optimize_lambda(fam)
    assert seen == [lams[0], lams[_PRESCAN_STRIDE], lams[-1], _probe_order(grid, _PRESCAN - 1)]
    assert rep.lambda_star == 10.0


def _convexity_families():
    rng = np.random.default_rng(34)
    fams = [random_discrete_family(rng).conditionals for _ in range(40)]
    return fams + [_wide_conditionals(), _sparse_wide_conditionals(), *QSTAR_HUGE_ORDER_FAMILIES]


@pytest.mark.parametrize("q_choice", converse.Q_CHOICES)
def test_log_s_is_convex_in_lam_up_to_its_rounding(q_choice):
    # The premise of the secant ceiling.  Each computed log S is taken to lie
    # within u = _LOG_S_ROUNDING (1 + lam + |log S|) of a convex function, so
    # a chord slope over a step d is off by at most (u_left + u_right) / d,
    # and a slope falls from one step to the next by no more than the sum of
    # those two bounds.  At small lam the steps are small and u is not, so
    # there the chords are rounding-dominated; the tolerance scales with it.
    lams = np.geomspace(1e-8, 1.7e308, 500)
    for conds in _convexity_families():
        fam = ChannelFamily(conds, q_choice)
        log_s = np.array([fam._log_mean_term(lam) for lam in lams.tolist()])
        finite = np.isfinite(log_s)  # uniform and mixture pass the float range
        lam, s = lams[finite], log_s[finite]
        assert lam.size > 250
        u = _LOG_S_ROUNDING * (1.0 + lam) + _LOG_S_ROUNDING * np.abs(s)  # no overflow
        step = np.diff(lam)
        slopes = np.diff(s) / step
        slack = (u[:-1] + u[1:]) / step
        late = slopes[:-1] - slopes[1:] > slack[:-1] + slack[1:]
        assert not late.any(), np.flatnonzero(late)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q_choice", converse.Q_CHOICES)
def test_secant_ceilings_lie_above_the_computed_floors(q_choice):
    # The counterpart of test_ceilings_lie_above_the_computed_floors for the
    # secant through an end of the grid and its edge probe, on ranges up to
    # 1.7e308 and families with subnormal entries: where the cap is a
    # number, no computed floor at another order lies above it, with no
    # margin at all.
    tighter = 0
    for conds in _premise_families():
        fam = ChannelFamily(conds, q_choice)
        log_m = math.log(fam.m_codewords)
        for lam_lo, lam_hi in (*RANGES, *OVERFLOW_RANGES):
            grid, lams, lam_array = _prescan_grid(lam_lo, lam_hi)
            log_means = [fam._log_mean_term(lam) for lam in lams]
            floors = np.array([_eps_from_log_terms(log_m, s, lam)
                               for s, lam in zip(log_means, lams)])
            # the search's ceilings from the first-pass order below
            below = np.arange(_PRESCAN) // _PRESCAN_STRIDE * _PRESCAN_STRIDE
            chord_ceilings = _floor_ceilings(log_m, np.array(log_means)[below],
                                             lam_array[below], _orders(lam_array))
            for end in (0, _PRESCAN - 1):
                lam_p = _probe_order(grid, end)
                if lam_p == lams[end]:  # a range a few ulps wide: no secant
                    continue
                caps = _secant_ceilings(log_m, lams[end], log_means[end], lam_p,
                                        fam._log_mean_term(lam_p), _orders(lam_array))
                caps[end] = math.nan
                usable = caps > -math.inf
                late = usable & (floors > caps)
                assert not late.any(), (lam_lo, lam_hi, end, np.flatnonzero(late))
                tighter += int(np.count_nonzero(usable & (caps < chord_ceilings)))
    # the secant is the lower ceiling at about 3000 of these orders
    assert tighter > 1000
