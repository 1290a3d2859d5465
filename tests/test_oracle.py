"""Ground-truth enumerations and quadrature the bound machinery is checked against."""

import ast
import inspect
import math
import warnings

import numpy as np
import pytest

from conversekit import oracle
from conversekit.divergence import DiscretePmf, GaussianShiftPair, iid_product_pmf
from conversekit.oracle import (
    MAX_ORACLE_OUTCOMES,
    CapabilityError,
    HypercubeDensityFamily,
    QuadratureWarning,
    density_sq_integral,
    exact_bayes_error,
    hellinger_sq_distance,
    renyi_gaussian_quadrature,
)
from conversekit.divergence import renyi_gaussian_shift
from conversekit.suites import random_discrete_family
from conftest import pmf, random_pmf
from test_kernel import EXTREME_PAIRS, _sparse_wide_conditionals, _wide_conditionals


def bsc_conditionals(crossover: float, n: int = 1):
    # n uses of the channel: codeword 0 sends all-zeros, codeword 1 all-ones
    zero = pmf(1.0 - crossover, crossover)
    one = pmf(crossover, 1.0 - crossover)
    return [iid_product_pmf(zero, n), iid_product_pmf(one, n)]


# --- exact Bayes error ---


def test_bayes_error_bsc_single_use():
    assert exact_bayes_error(bsc_conditionals(0.1)) == pytest.approx(0.1, abs=1e-15)


def test_bayes_error_bsc_three_uses():
    # majority vote fails when 2 or 3 bits flip
    err = exact_bayes_error(bsc_conditionals(0.1, n=3))
    assert err == pytest.approx(0.1**3 + 3 * 0.1**2 * 0.9, abs=1e-15)


def test_bayes_error_identical_conditionals():
    p = pmf(0.3, 0.7)
    assert exact_bayes_error([p] * 5) == pytest.approx(0.8, abs=1e-15)


def test_bayes_error_relabeling_invariance(rng):
    for _ in range(20):
        m = int(rng.integers(2, 5))
        size = int(rng.integers(2, 7))
        conds = [random_pmf(rng, size) for _ in range(m)]
        base = exact_bayes_error(conds)
        perm = rng.permutation(size)
        relabeled = [DiscretePmf(c.probs[perm]) for c in conds]
        assert exact_bayes_error(relabeled) == pytest.approx(base, abs=1e-14)
        shuffled = [conds[i] for i in rng.permutation(m)]
        assert exact_bayes_error(shuffled) == pytest.approx(base, abs=1e-14)


def test_bayes_error_outcome_cap():
    big = DiscretePmf(np.full(MAX_ORACLE_OUTCOMES + 1, 1.0 / (MAX_ORACLE_OUTCOMES + 1)))
    with pytest.raises(CapabilityError):
        exact_bayes_error([big, big])


def stacked_bayes_error(conds) -> float:
    """The Bayes error from the (M, K) stack of the conditionals, as the oracle once took it."""
    mat = np.stack([c.probs for c in conds])
    return float(1.0 - mat.max(axis=0).sum() / mat.shape[0])


def _bayes_bit_families():
    rng = np.random.default_rng(33)
    families = [random_discrete_family(rng).conditionals for _ in range(60)]
    families += [_wide_conditionals(), _sparse_wide_conditionals()]
    families += [(pmf(*p), pmf(*q)) for p, q in EXTREME_PAIRS]
    families += [
        (pmf(0.2, 0.0, 0.8),),  # M = 1
        (pmf(1.0),),  # M = 1, K = 1
        tuple(pmf(1.0 + d) for d in (-9e-13, 3e-13, 7e-13, -1e-13)),  # K = 1
    ]
    return families


def test_running_max_bayes_error_keeps_the_stacked_bits():
    # the column max is exact in any order, and the (K,) sum is the same call
    for conds in _bayes_bit_families():
        assert exact_bayes_error(conds).hex() == stacked_bayes_error(conds).hex()


class _ProbsUnread:
    """A conditional of a given alphabet size whose probabilities must not be read."""

    def __init__(self, size):
        self.support_size = size

    @property
    def probs(self):
        raise AssertionError("probs read before the argument checks")


def test_bayes_error_checks_its_arguments_before_any_array_work():
    with pytest.raises(ValueError, match="at least one conditional"):
        exact_bayes_error([])
    with pytest.raises(ValueError, match="share one alphabet"):
        exact_bayes_error([_ProbsUnread(3), _ProbsUnread(4)])
    with pytest.raises(CapabilityError):
        exact_bayes_error([_ProbsUnread(MAX_ORACLE_OUTCOMES + 1)] * 2)


# --- decoders ---


def test_decoder_never_beats_bayes(rng):
    for _ in range(100):
        m = int(rng.integers(2, 5))
        size = int(rng.integers(2, 8))
        conds = [random_pmf(rng, size) for _ in range(m)]
        mat = np.stack([c.probs for c in conds])
        dec = rng.integers(0, m, size=size)  # any decision rule y -> index
        err = 1.0 - mat[dec, np.arange(size)].sum() / m
        assert err >= exact_bayes_error(conds) - 1e-12


# --- quadrature ---


def gk(f, a, b, atol=1e-10):
    """Scalar integral of a numpy-vectorised f over [a, b] by the oracle's rule."""
    return float(oracle._gk_panels(lambda x, k: f(x), a, b, atol, 0.0)[0])


def test_gk_rule_constants():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(oracle._GK_NODES[1::2], nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(oracle._GK_WEIGHTS[1::2, 1], weights, rtol=0.0, atol=1e-15)
    assert not oracle._GK_WEIGHTS[0::2, 1].any()
    for d in range(23):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert oracle._GK_WEIGHTS[:, 0] @ oracle._GK_NODES**d == pytest.approx(exact, abs=1e-15)


def test_adaptive_quadrature_known_integrals():
    assert gk(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-14)
    assert gk(np.square, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-14)
    assert gk(lambda x: np.exp(-x * x), -10.0, 10.0) == pytest.approx(
        math.sqrt(math.pi), abs=1e-14
    )


def test_quadrature_warns_at_depth_stop():
    # the one panel holding the jump at 1/3 fails at every depth
    with pytest.warns(QuadratureWarning, match=r"\b1 panel\(s\)"):
        value = gk(lambda x: (x > 1 / 3).astype(float), 0.0, 1.0)
    assert value == pytest.approx(2 / 3, abs=1e-12)


def test_quadrature_bounded_on_nonfinite_integrand():
    # inf - inf in the raw exponent makes far panels nan, so no panel of the
    # interval converges and the open-panel cap ends the call
    for lam in (1e200, 1e300):
        with pytest.warns(QuadratureWarning, match=rf"\b{oracle._MAX_OPEN} panel\(s\)"):
            with np.errstate(over="ignore", invalid="ignore"):
                renyi_gaussian_quadrature(GaussianShiftPair(1.0, 1.0), lam)


def test_gaussian_quadrature_matches_closed_form(rng):
    for _ in range(25):
        pair = GaussianShiftPair(
            float(rng.uniform(0.01, 4.0)), float(rng.uniform(0.25, 4.0))
        )
        lam = float(rng.uniform(0.05, 3.0))
        quad = renyi_gaussian_quadrature(pair, lam)
        closed = renyi_gaussian_shift(pair, lam)
        assert quad == pytest.approx(closed, rel=1e-8)


def test_quadrature_silent_on_acceptance_inputs():
    # the criterion-03 Gaussian pairs and the hypercube golden cases converge
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        for _ in range(100):
            pair = GaussianShiftPair(
                shift_sq=float(rng.uniform(0.01, 4.0)),
                sigma_sq=float(rng.uniform(0.25, 4.0)),
            )
            renyi_gaussian_quadrature(pair, float(rng.uniform(0.05, 3.0)))
        for m in (2, 4, 8, 16):
            for c in (0.1, 0.3, 0.5):
                tau = [1 if i % 2 == 0 else -1 for i in range(m)]
                density_sq_integral(HypercubeDensityFamily(m=m, c=c), tau)
        density_sq_integral(HypercubeDensityFamily(m=4, c=0.5), [1, -1, 1, -1])
        hellinger_sq_distance(
            HypercubeDensityFamily(m=6, c=0.1), [1] * 6, [-1, -1, 1, 1, 1, 1]
        )


# --- the recursive scalar adaptive Simpson, kept as a reference ---


def reference_simpson(f, a, b, atol=1e-10, rtol=0.0, max_depth=48):
    a, b = float(a), float(b)
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _reference_step(f, a, b, fa, fm, fb, whole, atol, rtol, max_depth)


def _reference_step(f, a, b, fa, fm, fb, whole, atol, rtol, depth):
    mid = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + mid)), f(0.5 * (mid + b))
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * max(atol, rtol * abs(left + right)):
        return left + right + err / 15.0
    return _reference_step(
        f, a, mid, fa, flm, fm, left, 0.5 * atol, rtol, depth - 1
    ) + _reference_step(f, mid, b, fm, frm, fb, right, 0.5 * atol, rtol, depth - 1)


def reference_renyi_gaussian(pair, lam, rtol=1e-11):
    mu = math.sqrt(pair.shift_sq)
    sigma = math.sqrt(pair.sigma_sq)
    log_norm = -0.5 * math.log(2.0 * math.pi * pair.sigma_sq)

    def integrand(y):
        quad = (1.0 + lam) * (y - mu) ** 2 - lam * y * y
        return math.exp(log_norm - quad / (2.0 * pair.sigma_sq))

    centers = (0.0, mu, (1.0 + lam) * mu)
    lo = min(centers) - 40.0 * sigma
    hi = max(centers) + 40.0 * sigma
    return math.log(reference_simpson(integrand, lo, hi, atol=0.0, rtol=rtol)) / lam


def reference_cell(family, j, h, atol):
    """integral over cell j of h(bump), bump = (c / m^2) sin(2 pi (m x - j)), by the reference."""
    m = family.m
    scale = family.c / m**2
    return reference_simpson(
        lambda x: h(scale * math.sin(2.0 * math.pi * (x * m - j))), j / m, (j + 1) / m, atol=atol
    )


REF_REL = 1e-13


def test_gaussian_quadrature_matches_reference():
    rng = np.random.default_rng(20)
    for _ in range(3):
        pair = GaussianShiftPair(float(rng.uniform(0.01, 4.0)), float(rng.uniform(0.25, 4.0)))
        lam = float(rng.uniform(0.05, 3.0))
        assert renyi_gaussian_quadrature(pair, lam) == pytest.approx(
            reference_renyi_gaussian(pair, lam), rel=REF_REL
        )


def exact_hellinger_cell(family):
    """integral over one cell where the signs differ of (sqrt(1 + g) - sqrt(1 - g))^2.

    g = a sin(2 pi (m x - j)), a = c / m^2.  This is (2/m)(1 - (2/pi) E(a^2)),
    E the complete elliptic integral of the second kind, summed as the series
    (2/m) sum_{n>=1} (C(2n, n) / 4^n)^2 a^(2n) / (2n - 1), free of cancellation.
    """
    a = family.c / family.m**2
    total, n = 0.0, 1
    while True:
        term = (math.comb(2 * n, n) / 4**n) ** 2 * a ** (2 * n) / (2 * n - 1)
        if total + term == total:
            return 2.0 / family.m * total
        total += term
        n += 1


EXACT_REL = 1e-12


def test_hypercube_integrals_match_reference():
    rng = np.random.default_rng(16)
    fam = HypercubeDensityFamily(m=16, c=0.4)
    ta = [int(v) for v in rng.choice([-1, 1], size=16)]
    tb = [-v if flip else v for v, flip in zip(ta, rng.random(16) < 0.5)]

    sq = []
    for j in range(16):
        sq.append(reference_cell(fam, j, lambda bump, s=ta[j]: (1.0 + s * bump) ** 2, 1e-12))
    assert density_sq_integral(fam, ta) == pytest.approx(sum(sq), rel=REF_REL)

    cell = exact_hellinger_cell(fam)
    for j in range(16):
        # flipping only cell j makes hellinger_sq_distance integrate that one cell
        flipped = list(ta)
        flipped[j] = -ta[j]
        assert hellinger_sq_distance(fam, ta, flipped) == pytest.approx(cell, rel=EXACT_REL)
    differing = sum(a != b for a, b in zip(ta, tb))
    assert hellinger_sq_distance(fam, ta, tb) == pytest.approx(differing * cell, rel=EXACT_REL)


# --- hypercube density family ---


def test_density_family_validation():
    with pytest.raises(ValueError):
        HypercubeDensityFamily(m=0, c=0.1)
    with pytest.raises(ValueError):
        HypercubeDensityFamily(m=4, c=-0.5)
    with pytest.raises(ValueError):
        HypercubeDensityFamily(m=1, c=1.0)  # c sup|g| / m^2 = 1 kills positivity
    fam = HypercubeDensityFamily(m=4, c=0.5)
    with pytest.raises(ValueError):
        fam.check_tau([1, 1, 1])  # wrong length
    with pytest.raises(ValueError):
        fam.check_tau([1, 1, 0, 1])  # not a sign


@pytest.mark.parametrize("bad", [1.5, -1.9, 0.5, math.nan])
def test_check_tau_rejects_non_signs_before_the_cast(bad):
    # an int64 cast first would read 1.5 as +1 and -1.9 as -1
    fam = HypercubeDensityFamily(m=2, c=0.5)
    with pytest.raises(ValueError, match="tau must be"):
        fam.check_tau([bad, -1.0])
    with pytest.raises(ValueError, match="tau must be"):
        hellinger_sq_distance(fam, [bad, -1.0], [1, -1])
    assert fam.check_tau([1.0, -1.0]).tolist() == [1, -1]


@pytest.mark.parametrize("bad", [0, 2.5, math.inf, math.nan])
def test_counts_must_be_positive_integers(bad):
    # a fractional count must not be truncated (2.5 cells running as 2)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        HypercubeDensityFamily(m=bad, c=0.1)


def test_density_integral_frozen_value():
    # a = 1/2 for the sine bump: 1 + 0.25 * 0.5 / 256
    fam = HypercubeDensityFamily(m=4, c=0.5)
    val = density_sq_integral(fam, [1, -1, 1, -1])
    assert val == pytest.approx(1.00048828125, abs=1e-11)
    assert val == pytest.approx(1.0 + fam.sq_integral_excess, abs=1e-11)


def test_density_integral_tau_independent():
    fam = HypercubeDensityFamily(m=5, c=0.3)
    a = density_sq_integral(fam, [1, 1, 1, 1, 1])
    b = density_sq_integral(fam, [-1, 1, -1, -1, 1])
    assert a == pytest.approx(b, abs=1e-12)


def test_density_integral_uniform_case():
    fam = HypercubeDensityFamily(m=4, c=0.0)
    assert density_sq_integral(fam, [1, 1, 1, 1]) == pytest.approx(1.0, abs=1e-12)


def test_density_closed_form_grid():
    for m in (2, 4, 8, 16):
        for c in (0.1, 0.3, 0.5):
            fam = HypercubeDensityFamily(m=m, c=c)
            tau = [1 if i % 2 else -1 for i in range(m)]
            assert density_sq_integral(fam, tau) == pytest.approx(
                1.0 + c * c * 0.5 / m**4, abs=1e-9
            )


# --- Hellinger distance between hypercube densities ---


def test_hellinger_sq_zero_on_equal_tau():
    fam = HypercubeDensityFamily(m=4, c=0.4)
    assert hellinger_sq_distance(fam, [1, -1, 1, 1], [1, -1, 1, 1]) == 0.0


def test_hellinger_sq_golden_and_floor():
    # two differing cells at m = 6, c = 0.1: value just above a c^2 / (3 m^4)
    fam = HypercubeDensityFamily(m=6, c=0.1)
    ta = [1, 1, 1, 1, 1, 1]
    tb = [-1, -1, 1, 1, 1, 1]
    val = hellinger_sq_distance(fam, ta, tb)
    assert val == pytest.approx(1.2860100910029715e-06, rel=EXACT_REL)
    assert val == pytest.approx(2 * exact_hellinger_cell(fam), rel=EXACT_REL)
    assert val >= 0.5 * 0.1**2 / (3 * 6**4)


def test_hellinger_sq_symmetry_and_scaling():
    tau_patterns = {
        4: ([1, 1, -1, -1], [-1, -1, -1, -1]),
        8: ([1, 1, -1, -1, 1, 1, 1, 1], [-1, -1, -1, -1, 1, 1, 1, 1]),
    }
    vals = {}
    for m, (ta, tb) in tau_patterns.items():
        fam = HypercubeDensityFamily(m=m, c=0.2)
        assert hellinger_sq_distance(fam, ta, tb) == pytest.approx(
            hellinger_sq_distance(fam, tb, ta), abs=1e-15
        )
        vals[m] = hellinger_sq_distance(fam, ta, tb)
    # same number of differing cells, double m: distance drops ~ m^-5 per cell
    # times the fixed cell count, i.e. by about 2^5 = 32, within 20%
    drop = vals[4] / vals[8]
    assert abs(drop - 32.0) / 32.0 < 0.2


# --- independence from the code under test ---


def test_oracle_shares_no_code_with_the_bounds():
    # the soundness checks would be a tautology if the oracles computed with
    # the divergence kernel or the bound machinery they are checked against
    tree = ast.parse(inspect.getsource(oracle))
    modules, from_divergence = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.removeprefix("conversekit.") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("conversekit.")
            if module in ("", "conversekit"):  # from . import x, from conversekit import x
                modules.update(a.name for a in node.names)
            else:
                modules.add(module)
            if module == "divergence":
                from_divergence.update(a.name for a in node.names)
    assert not modules & {"converse", "applications", "packing", "suites"}
    allowed = {"DiscretePmf", "GaussianShiftPair", "_lam", "_positive", "_positive_int"}
    assert from_divergence <= allowed
