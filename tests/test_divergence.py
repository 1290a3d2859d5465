"""Closed-form divergences, their identities, and the comparison inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conversekit.converse import generalized_fano_log_m_bound
from conversekit.divergence import (
    PMF_SUM_TOL,
    AbsoluteContinuityError,
    BernoulliPair,
    DiscretePmf,
    GaussianShiftPair,
    hellinger_kl_coefficient,
    iid_product_pmf,
    kl_discrete,
    mixture_pmf,
    renyi_bernoulli,
    renyi_discrete,
    renyi_gaussian_shift,
    renyi_product_iid,
)
from conversekit.suites import random_discrete_family
from conftest import decimal_log_renyi_sum, pmf, random_pmf, small_families
from test_converse import SUBNORMAL_MIXTURE_FAMILY
from test_kernel import EXTREME_PAIRS, _sparse_wide_conditionals, _wide_conditionals


# --- pmf plumbing ---


def test_pmf_rejects_bad_input():
    with pytest.raises(ValueError):
        DiscretePmf(np.array([]))
    with pytest.raises(ValueError):
        pmf(0.5, -0.1, 0.6)
    with pytest.raises(ValueError):
        pmf(0.5, 0.4)  # sums to 0.9
    with pytest.raises(ValueError):
        pmf(0.5, math.nan)


def test_pmf_sum_tolerance():
    DiscretePmf(np.array([0.5, 0.5 + 0.5 * PMF_SUM_TOL]))
    with pytest.raises(ValueError):
        DiscretePmf(np.array([0.5, 0.5 + 10 * PMF_SUM_TOL]))


def test_pmf_is_frozen():
    p = pmf(0.3, 0.7)
    assert p.support_size == 2
    with pytest.raises(ValueError):
        p.probs[0] = 1.0


# --- Renyi divergence, discrete ---


def test_renyi_point_mass_vs_uniform():
    # sum p^2/q = 1/0.5 = 2 at lam = 1
    assert renyi_discrete(pmf(1.0, 0.0), pmf(0.5, 0.5), 1.0) == pytest.approx(
        math.log(2.0), abs=1e-15
    )


def test_renyi_biased_coin_vs_uniform():
    # sum p^2/q = (0.81 + 0.01)/0.5 = 1.64
    val = renyi_discrete(pmf(0.9, 0.1), pmf(0.5, 0.5), 1.0)
    assert val == pytest.approx(math.log(1.64), abs=1e-15)


def test_renyi_zero_iff_equal(rng):
    for _ in range(50):
        p = random_pmf(rng, int(rng.integers(2, 8)))
        assert renyi_discrete(p, p, float(rng.uniform(0.1, 3.0))) == pytest.approx(
            0.0, abs=1e-10
        )
        q = random_pmf(rng, p.support_size)
        if np.max(np.abs(p.probs - q.probs)) > 1e-3:
            assert renyi_discrete(p, q, 1.0) > 1e-10


def test_renyi_domination_failure_raises():
    with pytest.raises(AbsoluteContinuityError):
        renyi_discrete(pmf(0.5, 0.5), pmf(1.0, 0.0), 1.0)


def test_renyi_order_offset_must_be_positive():
    p, q = pmf(0.9, 0.1), pmf(0.5, 0.5)
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="order offset lam"):
            renyi_discrete(p, q, bad)


def test_renyi_zero_in_p_is_fine():
    # outcome with p_i = 0 contributes nothing even though q_i > 0
    val = renyi_discrete(pmf(1.0, 0.0), pmf(0.4, 0.6), 2.0)
    assert val == pytest.approx(math.log(1.0 / 0.4**2) / 2.0, rel=1e-14)


def test_renyi_overflow_stays_finite():
    # sum p^3 q^-2 = 0.125 * 1e600 overflows a double; the divergence does not
    p, q = pmf(0.5, 0.5), pmf(1e-300, 1.0 - 1e-300)
    val = renyi_discrete(p, q, 2.0)
    exact = decimal_log_renyi_sum(p.probs, q.probs, 2.0) / 2.0
    assert val == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert val == pytest.approx(689.7, abs=0.05)


def test_renyi_nondecreasing_in_order(rng):
    grid = np.linspace(0.1, 2.0, 12)
    for _ in range(100):
        size = int(rng.integers(2, 8))
        p = random_pmf(rng, size)
        q = random_pmf(rng, size)
        vals = [renyi_discrete(p, q, lam) for lam in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_renyi_kl_limit(rng):
    for _ in range(20):
        size = int(rng.integers(2, 6))
        p = random_pmf(rng, size)
        q = random_pmf(rng, size)
        assert renyi_discrete(p, q, 1e-6) == pytest.approx(
            kl_discrete(p, q), abs=1e-4
        )


def test_product_additivity(rng):
    for _ in range(30):
        size = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        lam = float(rng.uniform(0.1, 2.0))
        p = random_pmf(rng, size)
        q = random_pmf(rng, size)
        left = renyi_product_iid(p, q, lam, n)
        right = renyi_discrete(iid_product_pmf(p, n), iid_product_pmf(q, n), lam)
        assert left == pytest.approx(right, abs=1e-10)
        assert left == pytest.approx(n * renyi_discrete(p, q, lam), rel=1e-14)


@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.5, math.inf, math.nan])
def test_factor_counts_must_be_positive_integers(bad):
    # a fractional count must not be truncated (2.5 factors giving 2 D)
    p, q = pmf(0.3, 0.7), pmf(0.5, 0.5)
    with pytest.raises(ValueError, match="n_factors"):
        renyi_product_iid(p, q, 1.0, bad)
    with pytest.raises(ValueError, match="n_factors"):
        iid_product_pmf(p, bad)


def test_factor_counts_accept_integral_floats():
    p, q = pmf(0.3, 0.7), pmf(0.5, 0.5)
    assert renyi_product_iid(p, q, 1.0, 3.0) == 3 * renyi_discrete(p, q, 1.0)
    assert np.array_equal(iid_product_pmf(p, 2.0).probs, np.outer(p.probs, p.probs).ravel())


def test_product_pmf_shapes():
    p = pmf(0.3, 0.7)
    cube = iid_product_pmf(p, 3)
    assert cube.support_size == 8
    assert cube.probs[0] == pytest.approx(0.027)
    outer = np.outer(np.outer(p.probs, p.probs).ravel(), p.probs).ravel()
    assert np.array_equal(cube.probs, outer)  # row-major outcome order
    mix = mixture_pmf([pmf(1.0, 0.0), pmf(0.0, 1.0)])
    assert np.allclose(mix.probs, [0.5, 0.5])


# --- the mixture without a stack ---


def stacked_mixture(pmfs) -> np.ndarray:
    """The mixture's probabilities from the (M, K) stack of the pmfs, as they once were."""
    return np.stack([pm.probs for pm in pmfs]).mean(axis=0)


def assert_mixture_keeps_the_stacked_bits(pmfs):
    got, want = mixture_pmf(pmfs).probs, stacked_mixture(pmfs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_families(max_m=12, max_k=5))
def test_mixture_keeps_the_stacked_bits(conds):
    # zeros of both signs, subnormals, and one-outcome families of up to 12
    # pmfs, whose stack numpy sums pairwise rather than row by row
    assert_mixture_keeps_the_stacked_bits(conds)


def test_mixture_of_the_build_reference_families_keeps_the_stacked_bits():
    # tests/test_build_reference.py's reference build takes its mixture from
    # mixture_pmf, so these are checked against the stack here
    rng = np.random.default_rng(30)
    families = [random_discrete_family(rng).conditionals for _ in range(60)]
    families += [_wide_conditionals(), _sparse_wide_conditionals(), SUBNORMAL_MIXTURE_FAMILY]
    families += [
        (pmf(0.5, 0.0, 0.5, 0.0), pmf(0.2, 0.0, 0.3, 0.5)),
        (pmf(3e-300, 0.5, 0.5), pmf(1e-300, 0.9, 0.1)),
        *[(pmf(*p), pmf(*q)) for p, q in EXTREME_PAIRS],
        # one outcome, 12 pmfs: a row-by-row sum differs from numpy's here
        tuple(pmf(1.0 + d) for d in (3.2e-13, 6.7e-13, -4.9e-13, 7.1e-13, 6.7e-13, -8.7e-13,
                                     3.7e-13, -9e-13, 1e-14, -1.1e-13, -5.3e-13, -3.2e-13)),
    ]
    for conds in families:
        assert_mixture_keeps_the_stacked_bits(conds)


def test_mixture_needs_pmfs_on_one_alphabet():
    with pytest.raises(ValueError, match="at least one pmf"):
        mixture_pmf([])
    with pytest.raises(ValueError, match="share one alphabet"):
        mixture_pmf([pmf(0.5, 0.5), pmf(1.0)])


# --- closed forms ---


def test_gaussian_shift_closed_form():
    assert renyi_gaussian_shift(GaussianShiftPair(2.0, 1.0), 1.0) == pytest.approx(2.0)
    assert renyi_gaussian_shift(GaussianShiftPair(1.0, 4.0), 0.5) == pytest.approx(
        0.1875
    )


def test_bernoulli_matches_discrete(rng):
    for _ in range(50):
        p = float(rng.uniform(0.01, 0.99))
        q = float(rng.uniform(0.01, 0.99))
        lam = float(rng.uniform(0.05, 3.0))
        closed = renyi_bernoulli(BernoulliPair(p, q), lam)
        direct = renyi_discrete(pmf(p, 1.0 - p), pmf(q, 1.0 - q), lam)
        assert closed == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_bernoulli_frozen_value():
    # sum p^2/q = (0.36 + 0.16)/0.5 = 1.04
    assert renyi_bernoulli(BernoulliPair(0.6, 0.5), 1.0) == pytest.approx(
        math.log(1.04), abs=1e-15
    )


def test_bernoulli_domination():
    with pytest.raises(AbsoluteContinuityError):
        renyi_bernoulli(BernoulliPair(0.5, 0.0), 1.0)
    assert renyi_bernoulli(BernoulliPair(0.0, 0.0), 1.0) == 0.0


@pytest.mark.parametrize("q", [1e-300, 5e-324])
@pytest.mark.parametrize("lam", [1e-6, 1.0, 2.0, 10.0, 100.0])
def test_bernoulli_underflowing_reference_stays_finite(q, lam):
    # q^(-lam) overflows a float here, while the divergence is finite
    for p in (0.5, 1e-3, 0.999, 1.0):
        closed = renyi_bernoulli(BernoulliPair(p, q), lam)
        exact = decimal_log_renyi_sum([p, 1.0 - p], [q, 1.0 - q], lam) / lam
        assert closed == pytest.approx(exact, rel=1e-12, abs=0.0)


# --- KL and the kappa coefficient ---


def test_kl_point_mass():
    assert kl_discrete(pmf(1.0, 0.0), pmf(0.5, 0.5)) == pytest.approx(math.log(2.0))


def test_kappa_frozen_value():
    # t = e makes the denominator exactly lam: kappa(1, e) = (e-1)^2
    val = hellinger_kl_coefficient(1.0, math.e)
    assert val == pytest.approx((math.e - 1.0) ** 2, rel=1e-15)
    assert val == pytest.approx(2.9524924420125584, abs=1e-14)


def test_kappa_is_inf_where_the_power_overflows():
    # t^(1+lam) past the float range: kappa is inf, not an OverflowError
    assert hellinger_kl_coefficient(100.0, 1e10) == math.inf
    assert hellinger_kl_coefficient(1.0, 1e308) == math.inf
    # a power just inside the range stays finite
    assert math.isfinite(hellinger_kl_coefficient(1.0, 1e150))


def test_kappa_at_t_one_is_one_plus_lam_at_any_order():
    # past lam ~ 1e154 the Taylor branch's quadratic coefficient overflows,
    # and inf * (t - 1)^2 at t = 1 would be NaN
    assert hellinger_kl_coefficient(1e200, 1.0) == 1e200
    assert hellinger_kl_coefficient(0.5, 1.0) == 1.5
    assert generalized_fano_log_m_bound(1e200, 1.0, 0.1, 0.1) == math.inf


def test_kappa_taylor_branch_matches_high_precision():
    # 50-digit evaluation of the closed form as the oracle inside the window
    from decimal import Decimal, getcontext

    getcontext().prec = 50

    def kappa_ref(lam, t):
        lam_d, t_d, one = Decimal(str(lam)), Decimal(str(t)), Decimal(1)
        num = lam_d + (t_d.ln() * (one + lam_d)).exp() - (one + lam_d) * t_d
        den = lam_d * (t_d * t_d.ln() + one - t_d)
        return float(num / den)

    for lam in (0.3, 1.0, 2.0):
        for t in (1.0 + 9e-7, 1.0 + 5e-7):
            assert hellinger_kl_coefficient(lam, t) == pytest.approx(
                kappa_ref(lam, t), rel=1e-12
            )
        assert hellinger_kl_coefficient(lam, 1.0) == pytest.approx(1.0 + lam, rel=1e-12)
        # just outside the window the double-precision closed form carries
        # cancellation noise ~1e-16/s^2; only coarse continuity holds there
        assert hellinger_kl_coefficient(lam, 1.0 + 1.1e-6) == pytest.approx(
            kappa_ref(lam, 1.0 + 1.1e-6), rel=1e-3
        )


def test_kappa_domain():
    with pytest.raises(ValueError):
        hellinger_kl_coefficient(1.0, 0.5)
    with pytest.raises(ValueError):
        hellinger_kl_coefficient(1.0, math.inf)


def test_kappa_bounds_hellinger_by_kl(rng):
    # Hel_(1+lam) <= kappa(lam, t) KL with t = max p/q, for lam in (0, 1]
    for _ in range(1000):
        size = int(rng.integers(2, 8))
        p = random_pmf(rng, size)
        q = random_pmf(rng, size)
        lam = float(rng.uniform(0.01, 1.0))
        t = max(float(np.max(p.probs / q.probs)), 1.0)
        hel = math.expm1(lam * renyi_discrete(p, q, lam)) / lam
        bound = hellinger_kl_coefficient(lam, t) * kl_discrete(p, q)
        assert hel <= bound + 1e-12


def test_kappa_closed_form_cap():
    # lam * kappa(lam, t) <= t^lam / (log t - 1) for t >= e
    # (at t = e the cap is +inf, so the grid starts just above)
    for t in np.geomspace(math.e * 1.0001, math.e**6, 25):
        for lam in np.linspace(0.05, 2.0, 20):
            lhs = lam * hellinger_kl_coefficient(lam, float(t))
            rhs = float(t) ** lam / (math.log(t) - 1.0)
            assert lhs <= rhs * (1.0 + 1e-12)


# --- hypothesis properties ---


@st.composite
def pmf_pair(draw):
    size = draw(st.integers(min_value=2, max_value=6))
    raw_p = draw(
        st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)
    )
    raw_q = draw(
        st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)
    )
    p = np.array(raw_p) / np.sum(raw_p)
    q = np.array(raw_q) / np.sum(raw_q)
    return DiscretePmf(p / p.sum()), DiscretePmf(q / q.sum())


@settings(max_examples=200, deadline=None)
@given(pmf_pair(), st.floats(0.05, 4.0))
def test_renyi_and_hellinger_non_negative(pair, lam):
    # the Hellinger divergence expm1(lam D) / lam has the sign of D
    p, q = pair
    assert renyi_discrete(p, q, lam) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(pmf_pair(), st.floats(0.05, 1.0))
def test_renyi_at_least_kl(pair, lam):
    # order monotonicity pinned at the KL end
    p, q = pair
    assert renyi_discrete(p, q, lam) >= kl_discrete(p, q) - 1e-10
