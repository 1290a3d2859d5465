"""The strong-converse machinery, its variational form, and the Fano baselines."""

import decimal
import math

import numpy as np
import pytest

from conversekit import converse, divergence
from conversekit.cli import canonical_json
from conversekit.converse import (
    BoundReport,
    ChannelFamily,
    avg_kl_to_mixture,
    fano_bound,
    generalized_fano_log_m_bound,
    optimize_lambda,
    strong_converse_bound,
    strong_converse_eps_from_log_terms,
    variational_bound,
)
from conversekit.divergence import DiscretePmf, GaussianShiftPair, iid_product_pmf
from conversekit.oracle import exact_bayes_error
from conversekit.suites import random_discrete_family
from conftest import log_or_neg_inf, pmf


# --- family plumbing ---


def test_family_validation():
    with pytest.raises(ValueError):
        ChannelFamily(())
    with pytest.raises(ValueError):
        ChannelFamily((pmf(0.5, 0.5), pmf(0.2, 0.3, 0.5)))
    with pytest.raises(ValueError):
        ChannelFamily((pmf(0.5, 0.5),), q_choice="qq")
    # only the three tags name a reference, even a pmf on the family alphabet
    with pytest.raises(ValueError, match="q_choice must be one of"):
        ChannelFamily((pmf(0.5, 0.5),), q_choice=pmf(0.3, 0.7))
    with pytest.raises(ValueError):
        ChannelFamily((GaussianShiftPair(1.0, 1.0),))
    with pytest.raises(ValueError):
        ChannelFamily((pmf(0.5, 0.5), GaussianShiftPair(1.0, 1.0)))


def test_family_reference_choices():
    conds = (pmf(0.9, 0.1), pmf(0.2, 0.8))
    uniform = ChannelFamily(conds, q_choice="uniform").reference_pmf()
    assert np.allclose(uniform.probs, [0.5, 0.5])
    mixture = ChannelFamily(conds, q_choice="mixture").reference_pmf()
    assert np.allclose(mixture.probs, [0.55, 0.45])
    qstar = ChannelFamily(conds, q_choice="qstar")
    assert strong_converse_bound(qstar, 1.0).params["q_choice"] == "qstar"
    # q* moves with the order, so it has no order-free reference
    with pytest.raises(ValueError, match="needs the divergence order"):
        qstar.reference_pmf()


# conditionals that differ only by a subnormal mass: their mixture rounds to
# 0 on outcome 0, where the first one has mass
SUBNORMAL_MIXTURE_FAMILY = (pmf(5e-324, 1.0), pmf(0.0, 1.0))


def test_mixture_that_rounds_to_zero_on_the_support_raises():
    # neither NaN nor a finite divergence against Q = 0 (a warning fails the test)
    fam = ChannelFamily(SUBNORMAL_MIXTURE_FAMILY, "mixture")
    calls = (
        lambda: fam.divergences(1.0),
        lambda: fam.reference_pmf(),
        lambda: strong_converse_bound(fam, 1.0),
        lambda: optimize_lambda(fam),
        lambda: variational_bound(fam, 1.0, 1.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="mixture rounds to 0"):
            call()


@pytest.mark.parametrize("q_choice", ["uniform", "qstar"])
def test_other_references_on_a_subnormal_mixture_family_are_sound(q_choice):
    fam = ChannelFamily(SUBNORMAL_MIXTURE_FAMILY, q_choice)
    exact = exact_bayes_error(SUBNORMAL_MIXTURE_FAMILY)
    for lam in (0.1, 1.0, 100.0, 1e300):
        assert strong_converse_bound(fam, lam).eps_raw <= exact
    assert optimize_lambda(fam).eps_raw <= exact


# --- raw strong-converse floor ---


def test_eps_all_equal_reference_is_zero():
    # four identical conditionals equal to Q: S = 1, floor = 1 - 2/sqrt(4) = 0
    p = pmf(0.25, 0.75)
    fam = ChannelFamily((p, p, p, p), q_choice="mixture")
    rep = strong_converse_bound(fam, 1.0)
    assert rep.eps_raw == pytest.approx(0.0, abs=1e-15)
    assert rep.eps_lower == 0.0


def test_eps_large_m_zero_divergence_profile():
    # 10^6 codewords with zero divergences (log S = 0): 1 - 2/1000
    raw = strong_converse_eps_from_log_terms(math.log(1e6), 0.0, 1.0)
    assert raw == pytest.approx(0.998, abs=1e-15)


def test_eps_log_terms_overflow_degrades():
    assert strong_converse_eps_from_log_terms(1.0, math.inf, 1.0) == -math.inf
    assert strong_converse_eps_from_log_terms(1.0, 5000.0, 1.0) == -math.inf


def test_eps_monotone_in_m():
    lam = 0.8
    log_mean = math.log(np.mean(np.exp(lam * np.array([0.3, 0.7, 1.1]))))
    vals = [
        strong_converse_eps_from_log_terms(math.log(m), log_mean, lam)
        for m in (2.0, 4.0, 16.0, 1e4, 1e8)
    ]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_strong_converse_sound_on_random_families(rng):
    for _ in range(25):
        fam = random_discrete_family(rng, q_choice="mixture")
        exact = exact_bayes_error(fam.conditionals)
        for lam in (0.1, 0.5, 1.0, 2.0, 5.0):
            rep = strong_converse_bound(fam, lam)
            assert rep.eps_lower <= exact + 1e-9


def test_single_codeword_flag():
    fam = ChannelFamily((pmf(0.5, 0.5),), q_choice="uniform")
    rep = strong_converse_bound(fam, 1.0)
    assert rep.params["degenerate_single_codeword"] is True
    assert rep.eps_lower == 0.0


# --- lambda optimization ---


def test_optimize_lambda_beats_dense_grid(rng):
    for _ in range(10):
        fam = random_discrete_family(rng, q_choice="mixture")
        grid = np.geomspace(1e-6, 10.0, 10_000)
        best_grid = max(
            strong_converse_bound(fam, float(lam)).eps_raw for lam in grid
        )
        rep = optimize_lambda(fam)
        assert rep.eps_raw >= best_grid - 1e-6
        assert rep.params["lambda_range"] == [1e-6, 10.0]


def test_optimize_lambda_boundary_flag():
    # all divergences zero: the floor 1 - (1+lam) / (lam M)^(lam/(1+lam))
    # rises with lam, so the optimum is the edge lam_hi
    p = pmf(0.5, 0.5)
    fam = ChannelFamily((p, p, p), q_choice="mixture")
    rep = optimize_lambda(fam)
    assert rep.params["lambda_at_boundary"]


def test_optimize_lambda_boundary_flag_past_golden_section_stall():
    # the floor peaks at lam_lo on this family.  The probe one edge_tol
    # inward is not higher, so golden section does not run and lam_lo is
    # reported exactly; golden section would stop up to edge_tol short of
    # lam_lo, which the flag counts as the end of the range
    fam = random_discrete_family(np.random.default_rng(0), q_choice="uniform")
    rep = optimize_lambda(fam)
    assert rep.lambda_star == 1e-6
    assert rep.params["lambda_at_boundary"]


def test_optimize_lambda_domain():
    p = pmf(0.5, 0.5)
    with pytest.raises(ValueError):
        optimize_lambda(ChannelFamily((p, p)), lam_lo=0.0)
    with pytest.raises(ValueError):
        optimize_lambda(ChannelFamily((p, p)), lam_lo=2.0, lam_hi=1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam_hi": math.inf},
        {"lam_lo": math.nan},
        {"lam_hi": math.nan},
        {"lam_lo": -math.inf},
    ],
)
def test_optimize_lambda_rejects_bad_arguments(kwargs):
    p = pmf(0.5, 0.5)
    with pytest.raises(ValueError):
        optimize_lambda(ChannelFamily((p, p)), **kwargs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam_lo", [1e-300, 1e-6, 0.3, 1e8, 1e300])
def test_optimize_lambda_ends_on_ranges_a_few_ulps_wide(monkeypatch, lam_lo):
    # No bracket shrinks below an ulp, so a golden section that waited for
    # its bracket to pass a width would never end on these ranges; a search
    # that does end evaluates at most 64 + 1 + 40 orders.  A spy stops a
    # hang after 200.
    log_mean_term = ChannelFamily._log_mean_term
    calls = []

    def capped(self, lam):
        calls.append(lam)
        if len(calls) > 200:
            raise AssertionError(f"order search did not end on [{lam_lo!r}, {lam_hi!r}]")
        return log_mean_term(self, lam)

    monkeypatch.setattr(ChannelFamily, "_log_mean_term", capped)
    conds = random_discrete_family(np.random.default_rng(0)).conditionals
    for lam_hi in (math.nextafter(lam_lo, math.inf), lam_lo + 3 * math.ulp(lam_lo),
                   lam_lo * (1.0 + 1e3 * np.finfo(float).eps)):
        for q_choice in converse.Q_CHOICES:
            calls.clear()
            rep = optimize_lambda(ChannelFamily(conds, q_choice), lam_lo, lam_hi)
            assert lam_lo <= rep.lambda_star <= lam_hi, (q_choice, lam_hi)


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_optimize_lambda_edge_optimum_costs_prescan_and_one_probe(monkeypatch):
    # the all-equal family of test_optimize_lambda_boundary_flag: with every
    # divergence 0 the floor 1 - (1+lam) / (lam M)^(lam/(1+lam)) rises with
    # lam, so it peaks at lam_hi
    p = pmf(0.5, 0.5)
    fam = ChannelFamily((p, p, p), q_choice="mixture")
    evals = _count_calls(monkeypatch, ChannelFamily, "_log_mean_term")
    golden = _count_calls(monkeypatch, converse, "_golden_max")
    rep = optimize_lambda(fam)
    # the first pre-scan pass (orders 0, 32 and 63) rules out every other
    # order, and one probe inward of lam_hi settles it
    assert len(evals) == 3 + 1
    assert not golden
    assert rep.lambda_star == 10.0
    assert rep.params["lambda_at_boundary"]


def test_optimize_lambda_interior_optimum_runs_golden_section(monkeypatch):
    # draw 46 of default_rng(11) peaks about 2.9 pre-scan steps below lam_hi
    rng = np.random.default_rng(11)
    fam = [random_discrete_family(rng, q_choice="mixture") for _ in range(47)][-1]
    evals = _count_calls(monkeypatch, ChannelFamily, "_log_mean_term")
    golden_evals = []  # per _golden_max call, the orders it evaluates
    golden_max = converse._golden_max

    def golden(*args):
        start = len(evals)
        found = golden_max(*args)
        golden_evals.append(len(evals) - start)
        return found

    monkeypatch.setattr(converse, "_golden_max", golden)
    rep = optimize_lambda(fam)
    grid = np.linspace(math.log(1e-6), math.log(10.0), 64)
    # one golden section: its two first points, then the 38 steps that
    # shrink the bracket by 0.618^38 ~ 1.1e-8 <= sqrt(eps)
    assert golden_evals == [2 + 38]
    assert grid[1] < math.log(rep.lambda_star) < grid[-2]
    assert not rep.params["lambda_at_boundary"]


def _always_golden_reference(family, lam_lo=1e-6, lam_hi=10.0, prescan=64, iters=60):
    """The order search before edge optima were settled by a probe.

    Returns (eps_raw, lambda_star, lambda_at_boundary): the pre-scan, then
    golden section on the bracket around its maximum whatever its position.
    """
    log_m = math.log(family.m_codewords)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def raw(lams):
        return [strong_converse_eps_from_log_terms(log_m, family._log_mean_term(lam), lam)
                for lam in lams]

    def g(x):
        return raw([math.exp(x)])[0]

    lo, hi = math.log(lam_lo), math.log(lam_hi)
    grid = np.linspace(lo, hi, prescan)
    values = raw([math.exp(x) for x in grid])
    best = int(np.argmax(values))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, prescan - 1)]
    bracket = b - a
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
    gold = (c, gc) if gc >= gd else (d, gd)
    candidates = [(grid[0], values[0]), (grid[-1], values[-1]), (grid[best], values[best]), gold]
    x_best = max(candidates, key=lambda t: t[1])[0]
    edge_tol = math.sqrt(np.finfo(float).eps) * bracket
    lam_best = {lo: lam_lo, hi: lam_hi}.get(x_best, math.exp(x_best))
    at_boundary = x_best <= lo + edge_tol or x_best >= hi - edge_tol
    return strong_converse_bound(family, lam_best).eps_raw, lam_best, at_boundary


def test_optimize_lambda_matches_always_golden_reference():
    # the probe's candidate set is a subset of the reference's, so the floor
    # can only fall, and only by rounding; lambda* moves within edge_tol
    rng = np.random.default_rng(11)
    step = (math.log(10.0) - math.log(1e-6)) / 63
    edge_tol = math.sqrt(np.finfo(float).eps) * step
    for _ in range(60):
        conds = random_discrete_family(rng).conditionals
        for q in ("uniform", "mixture", "qstar"):
            fam = ChannelFamily(conds, q_choice=q)
            old_raw, old_lam, old_flag = _always_golden_reference(fam)
            rep = optimize_lambda(fam)
            assert old_raw - 4.5e-16 <= rep.eps_raw <= old_raw
            assert abs(math.log(rep.lambda_star / old_lam)) <= edge_tol
            assert rep.params["lambda_at_boundary"] == old_flag


# --- variational form ---


def test_variational_gamma_star_matches_closed_form(rng):
    for _ in range(30):
        fam = random_discrete_family(rng, q_choice="uniform")
        lam = float(rng.uniform(0.1, 3.0))
        rep = strong_converse_bound(fam, lam)
        at_star = variational_bound(fam, lam, rep.gamma_star)
        assert at_star == pytest.approx(rep.eps_raw, abs=1e-12)
        # gamma* is the argmax: neighbours on both sides do worse
        for bump in (0.9, 1.1):
            assert variational_bound(fam, lam, rep.gamma_star * bump) <= at_star + 1e-12


def test_variational_any_gamma_is_dominated(rng):
    for _ in range(20):
        fam = random_discrete_family(rng, q_choice="mixture")
        lam = float(rng.uniform(0.1, 3.0))
        closed = strong_converse_bound(fam, lam).eps_raw
        for gamma in (0.25, 1.0, float(fam.m_codewords), 50.0):
            assert variational_bound(fam, lam, gamma) <= closed + 1e-12


def test_variational_rejects_bad_gamma():
    p = pmf(0.5, 0.5)
    fam = ChannelFamily((p, p))
    with pytest.raises(ValueError):
        variational_bound(fam, 1.0, 0.0)
    with pytest.raises(ValueError):
        variational_bound(fam, 1.0, math.inf)


# --- exp overflow ---


def test_overflowing_variational_bound_is_minus_inf():
    fam = ChannelFamily(OVERFLOWING_ORDER_FAMILY, "uniform")
    # log S is about 1000 * 1.078 at lam = 1000, and 2 * 690.8 is -lam log gamma
    # at lam = 2 and gamma = 1e-300: both exponents pass exp's range
    assert variational_bound(fam, 1000.0, 1.0) == -math.inf
    assert variational_bound(fam, 2.0, 1e-300) == -math.inf


def test_variational_bound_where_s_and_gamma_power_both_overflow_is_minus_inf():
    # log S and lam log gamma are both +inf: their difference would be NaN
    fam = ChannelFamily((pmf(.98, .01, .01), pmf(.01, .98, .01), pmf(.01, .01, .98)), "uniform")
    assert variational_bound(fam, 1.7e308, 3.0) == -math.inf
    assert variational_bound(fam, 1.7e308, 2.0) == -math.inf


def test_variational_bound_term_that_underflows_drops_out():
    # every divergence is 0, so log S = 0 and S gamma^-lam = exp(-lam log gamma)
    # underflows to 0 even where lam log gamma overflows to inf
    p = pmf(0.5, 0.5)
    fam = ChannelFamily((p, p), q_choice="mixture")
    assert variational_bound(fam, 1e300, 1e10) == 1.0 - 1e10 / 2
    assert variational_bound(fam, 1.7e308, 1e10) == 1.0 - 1e10 / 2


# q* at orders near the float maximum: (1+lam) log p overflows to -inf.  In
# the first family both products of outcome 0 overflow at lam = 1.7e308; in
# the second only one does.
QSTAR_HUGE_ORDER_FAMILIES = [
    (pmf(0.2, 0.8), pmf(0.3, 0.7)),
    (pmf(0.5, 0.5), pmf(0.3, 0.7)),
]


@pytest.mark.parametrize("conds", QSTAR_HUGE_ORDER_FAMILIES)
def test_qstar_floor_at_huge_order_is_finite_and_sound(conds):
    # a RuntimeWarning fails the test
    fam = ChannelFamily(conds, "qstar")
    rep = strong_converse_bound(fam, 1.7e308)
    assert math.isfinite(rep.eps_raw)
    assert rep.eps_raw <= exact_bayes_error(conds)
    assert variational_bound(fam, 1.7e308, 2.0) == 0.0
    # q* tends to max_i p_i / sum_y max_i p_i as lam grows
    top = np.max([c.probs for c in conds], axis=0)
    assert np.allclose(fam.reference_pmf(1.7e308).probs, top / top.sum(), rtol=1e-15, atol=0.0)


OVERFLOWING_ORDER_FAMILY = (pmf(0.98, 0.01, 0.01), pmf(0.01, 0.98, 0.01), pmf(0.01, 0.01, 0.98))


@pytest.mark.parametrize("q_choice", converse.Q_CHOICES)
def test_floor_where_lam_d_overflows_is_minus_inf(q_choice):
    # lam D_i = 1.7e308 * 1.078 passes the float maximum: the floor is the
    # vacuous -inf, with no NaN and no warning (a warning fails the test),
    # and gamma* = exp(log S / (1+lam)) is inf, which the JSON writes as null
    fam = ChannelFamily(OVERFLOWING_ORDER_FAMILY, q_choice)
    rep = strong_converse_bound(fam, 1.7e308)
    assert rep.eps_raw == -math.inf
    assert rep.eps_lower == 0.0
    assert rep.gamma_star == math.inf
    assert '"gamma_star": null' in canonical_json(rep.to_json_dict())
    assert variational_bound(fam, 1.7e308, 2.0) == -math.inf
    assert fam._log_mean_term(1.7e308) == math.inf


@pytest.mark.parametrize("q_choice", converse.Q_CHOICES)
def test_divergences_past_the_float_range_at_a_subnormal_order_are_inf(q_choice):
    # at lam = 5e-324 the first row's mass defect of 1e-13 is all of lam D,
    # and D = lam D / lam passes the float range: +inf, with no warning
    fam = ChannelFamily((pmf(0.5, 0.5 + 1e-13), pmf(0.5, 0.5)), q_choice)
    rep = strong_converse_bound(fam, 5e-324)
    assert rep.params["divergences"][0] == math.inf
    assert fam.divergences(5e-324).tolist() == rep.params["divergences"]


def test_kernel_where_lam_r_overflows_is_plus_inf():
    conds = OVERFLOWING_ORDER_FAMILY
    fam = ChannelFamily(conds, "uniform")
    # at 1e300 every row takes the redo, and at 1.7e308 lam r itself overflows
    assert np.all(np.isfinite(fam._scaled_divergences(1.0)))
    assert np.all(np.isfinite(fam._scaled_divergences(1e300)))
    assert np.all(fam._scaled_divergences(1.7e308) == math.inf)


def test_log_mean_over_an_infinite_and_a_huge_finite_term_is_inf():
    # at lam = 1.7e308, lam D = [inf, 6.9e307]: lam r itself overflows in the
    # first row.  The log-mean-exp must not exp the finite term (a
    # RuntimeWarning fails the test), and the floor is the vacuous -inf.
    fam = ChannelFamily((pmf(1.0, 0.0, 0.0), pmf(0.5, 0.5, 0.0)), "uniform")
    scaled = fam._scaled_divergences(1.7e308)
    assert scaled[0] == math.inf and 709.0 < scaled[1] < math.inf
    rep = strong_converse_bound(fam, 1.7e308)
    assert rep.eps_raw == -math.inf and rep.eps_lower == 0.0
    assert variational_bound(fam, 1.7e308, 2.0) == -math.inf
    assert fam._log_mean_term(1.7e308) == math.inf
    best = optimize_lambda(fam, 1.0, 1.7e308)
    assert 0.0 <= best.eps_lower <= exact_bayes_error(fam.conditionals)


def _dense_log_qstar_weights(log_probs, lams):
    """The shifted weights from log p as it is, -inf at zeros: no fill, no mask."""
    power = 1.0 + lams[:, None]
    top = log_probs.max(axis=0)
    with np.errstate(over="ignore"):
        terms = power[..., None] * (log_probs - top)
        log_sum = np.log(np.exp(terms).sum(axis=1))
    return top + (log_sum - math.log(log_probs.shape[0])) / power


def _joint_probs(fam):
    """The family's conditionals as one (M, K) matrix, restricted to its joint support."""
    return np.stack([c.probs for c in fam.conditionals])[:, fam._arrays.joint]


def _weights(arrays, lams):
    """The q* weights at each order of lams, one order at a time, shape (L, K)."""
    return np.array([converse._log_qstar_weights(arrays, 1.0 + lam) for lam in lams.tolist()])


@pytest.mark.parametrize("conds", QSTAR_HUGE_ORDER_FAMILIES)
def test_qstar_weights_are_finite_at_huge_orders(conds):
    # at 1.7e308, (1+lam) log p passes the float range in every cell of the
    # first family's first column; shifted by the column max, no weight is
    # NaN (a RuntimeWarning fails the test)
    fam = ChannelFamily(conds, "qstar")
    arrays = fam._arrays
    lams = np.array([0.5, 1e300, 1.7e308])
    got = _weights(arrays, lams)
    log_probs = log_or_neg_inf(_joint_probs(fam))
    assert np.array_equal(got, _dense_log_qstar_weights(log_probs, lams))
    assert np.isfinite(got).all()


def _sparse_qstar_families():
    """random_discrete_family draws with zeros, and one M = 16, K = 4^6 product family."""
    rng = np.random.default_rng(18)
    fams = []
    while len(fams) < 12:
        fam = random_discrete_family(rng, q_choice="qstar")
        if (_joint_probs(fam) == 0.0).any():
            fams.append(fam)
    letters = rng.dirichlet(np.ones(4), size=16)
    letters[rng.random(letters.shape) < 0.25] = 0.0
    letters[letters.sum(axis=1) == 0.0, 0] = 1.0
    conds = tuple(iid_product_pmf(DiscretePmf(p / p.sum()), 6) for p in letters)
    return fams + [ChannelFamily(conds, "qstar")]


def test_qstar_weights_on_sparse_families_match_the_dense_reference():
    # the weights sum only the p > 0 cells, by column; every weight keeps
    # the bits of the dense shifted formula (a RuntimeWarning fails the test)
    lams = np.array([1e-6, 0.3, 2.0, 10.0, 1e300, 1.7e308])
    for fam in _sparse_qstar_families():
        arrays = fam._arrays
        dense = _dense_log_qstar_weights(log_or_neg_inf(_joint_probs(fam)), lams)
        assert np.array_equal(_weights(arrays, lams), dense)
        for lam, log_w in zip(lams.tolist(), dense):
            log_q, log_c = converse._log_qstar(arrays, lam)
            assert log_c == divergence._logsumexp(log_w.copy())
            assert np.array_equal(log_q, log_w - log_c)


def _decimal_log_qstar_weights(probs, power):
    """log w(y) at 60 significant digits from the exact float probabilities."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.Emin, ctx.Emax = -10**9, 10**9  # exp((1+lam)(log p - top)) for lam up to 1.7e308
        exact_power = decimal.Decimal(power)
        log_m = decimal.Decimal(probs.shape[0]).ln()
        out = []
        for col in probs.T:
            logs = [decimal.Decimal(p).ln() for p in col.tolist() if p > 0.0]
            top = max(logs)
            total = sum((exact_power * (x - top)).exp() for x in logs)
            out.append(top + (total.ln() - log_m) / exact_power)
        return out


def test_qstar_weights_match_a_60_digit_reference():
    # Over 150 draws of default_rng(11) at these orders the worst error
    # measured 1.32 eps max(1, |log w|) (1.8e-15 absolute); the bound is 2 eps.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    for _ in range(12):
        fam = random_discrete_family(rng, q_choice="qstar")
        arrays = fam._arrays
        for lam in (1e-6, 0.3, 2.0, 10.0, 1e4, 1e300, 1.7e308):
            got = converse._log_qstar_weights(arrays, 1.0 + lam)
            want = _decimal_log_qstar_weights(_joint_probs(fam), 1.0 + lam)
            for g, w in zip(got.tolist(), want):
                assert float(abs(decimal.Decimal(g) - w)) <= 2.0 * eps * max(1.0, abs(float(w)))


def test_qstar_arrays_are_read_only_and_unchanged_by_use():
    fam = _sparse_qstar_families()[-1]
    arrays = fam._arrays
    kept = {name: getattr(arrays, name).copy() for name in ("colmax", "shifted")}
    assert not any(getattr(arrays, name).flags.writeable for name in kept)
    optimize_lambda(fam)
    optimize_lambda(fam, 1.0, 1.7e308)
    for lam in (0.3, 1.7e308):
        strong_converse_bound(fam, lam)
        fam.reference_pmf(lam)
    assert fam._arrays is arrays
    for name, before in kept.items():
        assert np.array_equal(getattr(arrays, name), before)


# --- reference optimization ---


def test_optimal_q_identical_conditionals():
    p = pmf(0.3, 0.7)
    fam = ChannelFamily((p, p, p), "qstar")
    assert np.allclose(fam.reference_pmf(1.0).probs, p.probs)
    assert fam._qstar(1.0)[1] == pytest.approx(1.0, rel=1e-14)


def test_optimal_q_orthogonal_pair():
    fam = ChannelFamily((pmf(1.0, 0.0), pmf(0.0, 1.0)), "qstar")
    assert np.allclose(fam.reference_pmf(1.0).probs, [0.5, 0.5])
    assert fam._qstar(1.0)[1] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_optimal_q_beats_other_references(rng):
    for _ in range(75):
        fam = random_discrete_family(rng, q_choice="qstar")
        lam = float(rng.uniform(0.1, 3.0))
        star = strong_converse_bound(fam, lam).eps_raw
        for other in ("uniform", "mixture"):
            alt = ChannelFamily(fam.conditionals, q_choice=other)
            assert star >= strong_converse_bound(alt, lam).eps_raw - 1e-9


# --- Fano baselines ---


def test_fano_frozen_value():
    rep = fano_bound(16, math.log(2.0))
    assert rep.eps_lower == pytest.approx(0.5, abs=1e-15)
    assert rep.method == "fano"
    assert fano_bound(16.0, math.log(2.0)).params["m_codewords"] == 16


def test_fano_validation():
    with pytest.raises(ValueError):
        fano_bound(1, 0.5)
    with pytest.raises(ValueError):
        fano_bound(4, -0.1)
    with pytest.raises(ValueError):
        fano_bound(4, math.inf)


@pytest.mark.parametrize("bad", [2.5, math.inf, math.nan])
def test_fano_codeword_counts_must_be_positive_integers(bad):
    # a fractional count must not be truncated (2.9 codewords run as 2)
    with pytest.raises(ValueError, match="m_codewords"):
        fano_bound(bad, 0.0)


def test_fano_sound_on_random_families(rng):
    for _ in range(50):
        fam = random_discrete_family(rng, q_choice="mixture")
        if fam.m_codewords < 2:
            continue
        rep = fano_bound(fam.m_codewords, avg_kl_to_mixture(fam.conditionals))
        assert rep.eps_lower <= exact_bayes_error(fam.conditionals) + 1e-9


def test_avg_kl_to_mixture_manual():
    conds = [pmf(1.0, 0.0), pmf(0.0, 1.0)]
    # each conditional is at KL log 2 from the (0.5, 0.5) mixture
    assert avg_kl_to_mixture(conds) == pytest.approx(math.log(2.0), rel=1e-14)


def test_generalized_fano_zero_information():
    # I = 0, eps = 0, lam = 1: cap is 2 log 2, i.e. M <= 4
    cap = generalized_fano_log_m_bound(1.0, 2.0, 0.0, 0.0)
    assert cap == pytest.approx(2.0 * math.log(2.0), rel=1e-14)


def test_generalized_fano_cap_where_kappa_overflows():
    # kappa(100, 1e10) is inf: a true but vacuous cap for I > 0, and for
    # I = 0 the information term is 0, not inf * 0
    assert generalized_fano_log_m_bound(100.0, 1e10, 0.5, 0.1) == math.inf
    cap = generalized_fano_log_m_bound(100.0, 1e10, 0.0, 0.1)
    assert cap == 1.01 * math.log(101.0 / 0.9) - math.log(100.0)


def test_generalized_fano_validation():
    with pytest.raises(ValueError):
        generalized_fano_log_m_bound(1.0, 2.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        generalized_fano_log_m_bound(1.0, 2.0, 0.0, 1.0)
    # a sign check alone lets NaN through, to a NaN cap
    with pytest.raises(ValueError, match="mutual_info"):
        generalized_fano_log_m_bound(1.0, 2.0, math.nan, 0.3)


# --- report serialization ---


def test_bound_report_json_shape():
    rep = strong_converse_bound(
        ChannelFamily((pmf(0.9, 0.1), pmf(0.1, 0.9)), q_choice="mixture"), 1.0
    )
    blob = rep.to_json_dict()
    assert sorted(blob) == [
        "eps_lower",
        "eps_raw",
        "lambda_star",
        "method",
        "params",
        "risk_lower",
    ]
    assert blob["method"] == "strong_converse"
    assert blob["params"]["gamma_star"] == rep.gamma_star


def test_bound_report_rejects_unclamped():
    with pytest.raises(ValueError):
        BoundReport(method="fano", eps_lower=1.2, eps_raw=1.2)
