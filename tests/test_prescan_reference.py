"""optimize_lambda against a verbatim copy of its full 64-order pre-scan.

`reference_optimize_lambda` evaluates log S at every pre-scan order.
`converse.optimize_lambda` evaluates every _PRESCAN_STRIDE-th order first and
then only the orders that its secant ceilings do not rule out, so every
report must come out the same, bit for bit.

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
    _golden_max,
    _prescan_grid,
    _secant_ceilings,
    optimize_lambda,
    strong_converse_bound,
)
from conversekit.divergence import PMF_SUM_TOL
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

    grid, lams, _ = _prescan_grid(lam_lo, lam_hi)
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
    # a silent return to the full 64-order pre-scan fails here, and so, on
    # [1, 1e8], does a return to the chord through the origin: the secants
    # through the first-pass orders leave q* about 23 evaluations there,
    # where the chord left it 49 (golden section and probe included)
    conds = make()
    grid_orders = set(_prescan_grid(1e-6, 10.0)[1])
    log_mean_term = ChannelFamily._log_mean_term
    for q_choice in converse.Q_CHOICES:
        seen = []

        def spy(self, lam):
            seen.append(lam)
            return log_mean_term(self, lam)

        with monkeypatch.context() as patched:
            patched.setattr(ChannelFamily, "_log_mean_term", spy)
            optimize_lambda(ChannelFamily(conds, q_choice))
            on_grid = [lam for lam in seen if lam in grid_orders]
            assert len(set(on_grid)) == len(on_grid) <= 12, (q_choice, len(on_grid))
            if q_choice == "qstar":
                seen.clear()
                optimize_lambda(ChannelFamily(conds, q_choice), 1.0, 1e8)
                assert len(set(seen)) == len(seen) <= 30, len(seen)


# Ranges so wide that one grid step multiplies lam by at least e^22; on the
# first, order 31 over order 0 passes the float range.
OVERFLOW_RANGES = [(5e-324, 1.7e308), (1e-300, 1.7e308)]


@pytest.mark.filterwarnings("error")
def test_overflow_ranges_evaluate_each_order_once_and_keep_every_bit(shared_log_means,
                                                                     monkeypatch):
    for conds in (*_premise_families(), _wide_conditionals(), _sparse_wide_conditionals()):
        _assert_each_order_once(monkeypatch, conds)


def _assert_each_order_once(monkeypatch, conds):
    log_mean_term = ChannelFamily._log_mean_term
    for lam_lo, lam_hi in OVERFLOW_RANGES:
        grid, lams, _ = _prescan_grid(lam_lo, lam_hi)
        first = [0, _PRESCAN_STRIDE, _PRESCAN - 1]
        for q_choice in converse.Q_CHOICES:
            fam = ChannelFamily(conds, q_choice)
            log_m = math.log(fam.m_codewords)
            floors = [_eps_from_log_terms(log_m, fam._log_mean_term(lams[i]), lams[i])
                      for i in first]
            end = first[floors.index(max(floors))]
            # the edge probe follows when the best of them is an end, unless
            # it rounds to that end (lam_lo = 5e-324)
            probe = [_probe_order(grid, end)] if end != _PRESCAN_STRIDE else []
            orders = [lams[i] for i in first] + [lam for lam in probe if lam != lams[end]]
            seen = []

            def spy(self, lam):
                seen.append(lam)
                return log_mean_term(self, lam)

            with monkeypatch.context() as patched:
                patched.setattr(ChannelFamily, "_log_mean_term", spy)
                fast = optimize_lambda(fam, lam_lo, lam_hi)
            # orders 0, 32 and 63, the probe when the best of them is an
            # end, then no order a second time
            assert seen[:len(orders)] == orders, (q_choice, lam_lo)
            assert len(set(seen)) == len(seen), (q_choice, lam_lo)
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


# Rows whose mass defects lie near -PMF_SUM_TOL and +PMF_SUM_TOL, where
# log S at order 0 is farthest from 0.
DEFECT_FAMILIES = [
    (pmf(0.5 - 4.9e-13, 0.5 - 4.9e-13), pmf(0.5, 0.5)),
    (pmf(0.5 - 4.9e-13, 0.5 - 4.9e-13), pmf(0.2, 0.8)),
    (pmf(0.3 + 3e-13, 0.7 + 6.9e-13), pmf(0.6 + 4.9e-13, 0.4 + 4.9e-13)),
    (pmf(0.3 + 3e-13, 0.7 + 6.9e-13), pmf(0.2, 0.8)),
    (pmf(1e-300, 0.5 - 4.9e-13, 0.5 - 4.9e-13), pmf(0.2, 0.3 + 4.9e-13, 0.5 + 4.9e-13)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q_choice", converse.Q_CHOICES)
def test_secant_ceilings_lie_above_the_computed_floors(q_choice):
    # The premise of the skip: log S is convex in lam, and log S at 0 is at
    # most PMF_SUM_TOL, so the secants through the orders the search knows
    # lie below log S at every other order.  Known orders are random subsets
    # of the grid, with and without an edge probe, on ranges up to 1.7e308,
    # on families with subnormal entries and with mass defects near
    # +-PMF_SUM_TOL.  Where a ceiling is a number, no computed floor lies
    # above it, with no margin at all.
    rng = np.random.default_rng(37)
    binding = 0
    for conds in (*_premise_families(), *DEFECT_FAMILIES):
        fam = ChannelFamily(conds, q_choice)
        log_m = math.log(fam.m_codewords)
        for lam_lo, lam_hi in (*RANGES, *OVERFLOW_RANGES):
            grid, lams, terms = _prescan_grid(lam_lo, lam_hi)
            log_means = [fam._log_mean_term(lam) for lam in lams]
            floors = np.array([_eps_from_log_terms(log_m, s, lam)
                               for s, lam in zip(log_means, lams)])
            probes = [(lam, fam._log_mean_term(lam))
                      for lam in (_probe_order(grid, 0), _probe_order(grid, _PRESCAN - 1))]
            for trial in range(6):
                picked = {0, _PRESCAN_STRIDE, _PRESCAN - 1} if trial == 0 else set(
                    rng.choice(_PRESCAN, size=rng.integers(1, _PRESCAN), replace=False).tolist())
                known = [(0.0, PMF_SUM_TOL)] + [(lams[i], log_means[i]) for i in picked]
                for probe in ([], probes[:1], probes[1:], probes):
                    caps = _secant_ceilings(log_m, sorted(known + probe), terms)
                    finite = np.isfinite(caps)
                    late = finite & (floors > caps)
                    assert not late.any(), (lam_lo, lam_hi, trial, np.flatnonzero(late))
                    binding += int(np.count_nonzero(caps < floors.max()))
    # ceilings that would rule out no order check nothing: these rule out
    # an order against the grid's best floor about 270000 times
    assert binding > 100_000, binding
