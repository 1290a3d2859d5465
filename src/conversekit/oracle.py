"""Exact small-instance oracles: enumeration, quadrature, direct inequalities.

Everything here is deliberately independent of the closed forms elsewhere in
the package.  Bayes errors come from explicit enumeration, integrals from
adaptive Simpson quadrature, so the fast paths have something honest to be
checked against.

The quadrature is level-synchronous and block-bounded: every panel still to
be refined waits on one stack, and each step refines up to _SIMPSON_BLOCK of
them with a single vectorised call to the integrand.  The per-panel rule is
the classic recursive one unchanged (Lyness 1969; Gander and Gautschi 2000),
so the same panels are accepted and only the order of summation differs.  A
panel that reaches max_depth without meeting its tolerance is still taken as
it is, but the call then warns with QuadratureWarning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .divergence import DiscretePmf, GaussianShiftPair, _lam

__all__ = [
    "MAX_ORACLE_OUTCOMES",
    "CapabilityError",
    "QuadratureWarning",
    "exact_bayes_error",
    "decoder_error",
    "min_distance_decode",
    "min_distance_decoder_error",
    "adaptive_simpson",
    "renyi_gaussian_quadrature",
    "HypercubeDensityFamily",
    "density_sq_integral",
    "hellinger_sq_distance",
    "SecondMomentCheck",
    "iid_second_moment_check",
]

# Enumeration cap: joint outcome count above this raises CapabilityError.
MAX_ORACLE_OUTCOMES = 10**6


class CapabilityError(ValueError):
    """Instance is too large for exact enumeration."""


def _conditional_matrix(conditionals) -> np.ndarray:
    pmfs = list(conditionals)
    if not pmfs:
        raise ValueError("need at least one conditional")
    size = pmfs[0].support_size
    if any(pm.support_size != size for pm in pmfs):
        raise ValueError("conditionals must share one alphabet")
    if size > MAX_ORACLE_OUTCOMES:
        raise CapabilityError(
            f"alphabet of size {size} exceeds enumeration cap {MAX_ORACLE_OUTCOMES}"
        )
    return np.stack([pm.probs for pm in pmfs])


def exact_bayes_error(conditionals) -> float:
    """Minimum average error probability of any decoder, uniform prior.

    Enumerates the alphabet: 1 - sum_y max_i p_i(y) / M.
    """
    mat = _conditional_matrix(conditionals)
    m_codewords = mat.shape[0]
    return float(1.0 - mat.max(axis=0).sum() / m_codewords)


def decoder_error(conditionals, decisions) -> float:
    """Exact average error of the decoder given by decisions[y] = index."""
    mat = _conditional_matrix(conditionals)
    m_codewords, size = mat.shape
    dec = np.asarray(decisions, dtype=np.int64).reshape(-1)
    if dec.shape != (size,):
        raise ValueError("decisions must assign one index per outcome")
    if np.any(dec < 0) or np.any(dec >= m_codewords):
        raise ValueError("decision index out of range")
    correct = mat[dec, np.arange(size)]
    return float(1.0 - correct.sum() / m_codewords)


def min_distance_decode(point, codewords, metric_fn) -> int:
    """Index of the codeword nearest to point; ties go to the lowest index."""
    best = 0
    best_d = metric_fn(point, codewords[0])
    for j in range(1, len(codewords)):
        d = metric_fn(point, codewords[j])
        if d < best_d:
            best, best_d = j, d
    return best


def min_distance_decoder_error(conditionals, estimates, codewords, metric_fn) -> float:
    """Exact error of estimate-then-round decoding.

    estimates[y] is the estimator output for outcome y; it is rounded to the
    nearest codeword under metric_fn.  Never beats exact_bayes_error.
    """
    decisions = [min_distance_decode(est, codewords, metric_fn) for est in estimates]
    return decoder_error(conditionals, decisions)


# === Quadrature ===


# Most panels one refinement step takes.  Panels still to be refined wait on
# a LIFO stack; each step pops at most this many from its top.  Larger blocks
# run faster but hold more memory; at 384 a Gaussian quadrature adds about
# 1 MB to the peak RSS of a process that runs it.
_SIMPSON_BLOCK = 384
# Splits a panel may take before it is accepted as it is.
_MAX_DEPTH = 48


# Rows of the two halves of a panel, picked from its rows
# a, mid, b, fa, flm, fm, frm, fb, tol / 2, depth - 1, k.
_LEFT_HALF = np.array([0, 1, 3, 4, 5, 8, 9, 10])
_RIGHT_HALF = np.array([1, 2, 5, 6, 7, 8, 9, 10])


class QuadratureWarning(RuntimeWarning):
    """Adaptive quadrature hit max_depth before meeting its tolerance."""


def _simpson_panels(f, a, b, atol, rtol, max_depth) -> np.ndarray:
    """Adaptive Simpson with Richardson correction on many intervals at once.

    f(x, k) takes arrays of abscissae x and interval indices k and returns f
    at each x on interval k.  A panel is split until its two-panel estimate is
    within 15 * max(atol, rtol * |estimate|) of its one-panel estimate (Lyness
    1969); atol is halved per split so the per-leaf budgets sum to the
    requested total, and a panel max_depth splits deep is taken as it is.
    Returns one total per interval, and warns with QuadratureWarning if any
    panel stopped at max_depth unconverged.

    Each step pops up to _SIMPSON_BLOCK panels off a stack, refines them with
    one call to f, adds the finished ones to their totals and pushes the
    halves of the rest, each left half right before its right half.  The
    stack so stays sorted by depth, and a step that pushes halves of some
    depth has first popped every panel already of that depth, so the stack
    never holds more than 2 * _SIMPSON_BLOCK panels of any depth below the
    starting one.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = a.size
    k = np.arange(n)
    fa, fm, fb = np.split(f(np.concatenate((a, 0.5 * (a + b), b)), np.tile(k, 3)), 3)
    # One column per panel, rows a, b, fa, fm, fb, tol, depth, k; a panel's
    # Simpson estimate is recomputed from its column, bit for bit as its
    # parent computed it.  The package's own quadratures stack under nine
    # blocks of panels; a deeper stack grows.
    stack = np.empty((8, n + 16 * _SIMPSON_BLOCK))
    stack[:, :n] = (a, b, fa, fm, fb, np.full(n, float(atol)), np.full(n, float(max_depth)), k)
    top = n
    totals = np.zeros(n)
    stalled = 0
    while top:
        base = max(top - _SIMPSON_BLOCK, 0)
        # views: the halves pushed below overwrite them after their last use
        a, b, fa, fm, fb, tol, depth, k = stack[:, base:top]
        top = base
        cells = k.astype(np.intp)
        mid = 0.5 * (a + b)
        fx = f(np.concatenate((0.5 * (a + mid), 0.5 * (mid + b))), np.concatenate((cells, cells)))
        flm, frm = fx[: cells.size], fx[cells.size :]
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        both = left + right
        err = both - whole
        met = np.abs(err) <= 15.0 * np.maximum(tol, rtol * np.abs(both))
        leaf = met | (depth <= 0)
        stalled += np.count_nonzero(leaf) - np.count_nonzero(met)
        totals += np.bincount(cells[leaf], weights=(both + err / 15.0)[leaf], minlength=n)
        points = np.array((a, mid, b, fa, flm, fm, frm, fb, 0.5 * tol, depth - 1.0, k))[:, ~leaf]
        end = top + 2 * points.shape[1]
        if end > stack.shape[1]:
            stack = np.concatenate((stack[:, :top], np.empty((8, 2 * end - top))), axis=1)
        stack[:, top:end:2] = points[_LEFT_HALF]
        stack[:, top + 1 : end : 2] = points[_RIGHT_HALF]
        top = end
    if stalled:
        warnings.warn(
            f"adaptive Simpson: {stalled} panel(s) reached max_depth={max_depth} "
            "without meeting the tolerance; the result is a best effort",
            QuadratureWarning,
            stacklevel=3,
        )
    return totals


def adaptive_simpson(f, a, b, atol=1e-10, rtol=0.0, max_depth=_MAX_DEPTH) -> float:
    """Adaptive Simpson integration of scalar f over [a, b] with Richardson correction.

    Splits an interval until the two-panel estimate is within
    15 * max(atol, rtol * |estimate|) of the one-panel estimate; atol is
    halved per split so the per-leaf budgets sum to the requested total.
    Warns with QuadratureWarning if max_depth stops a split unconverged.
    """

    def lifted(x, k):
        return np.array([f(v) for v in x.tolist()], dtype=float)

    return float(_simpson_panels(lifted, float(a), float(b), atol, rtol, max_depth)[0])


def renyi_gaussian_quadrature(pair: GaussianShiftPair, order, rtol=1e-11) -> float:
    """Gaussian-pair Renyi divergence by direct quadrature, no closed form.

    Integrates p(y)^(1+lam) q(y)^(-lam) for p = N(mu, sigma_sq),
    q = N(0, sigma_sq), mu = sqrt(shift_sq), over the hull of the three
    relevant centers 0, mu and (1+lam) mu padded by 40 sigma.
    """
    lam = _lam(order)
    mu = math.sqrt(pair.shift_sq)
    sigma = math.sqrt(pair.sigma_sq)
    log_norm = -0.5 * math.log(2.0 * math.pi * pair.sigma_sq)

    def integrand(y, k):
        quad = (1.0 + lam) * (y - mu) ** 2 - lam * y * y
        return np.exp(log_norm - quad / (2.0 * pair.sigma_sq))

    centers = (0.0, mu, (1.0 + lam) * mu)
    lo = min(centers) - 40.0 * sigma
    hi = max(centers) + 40.0 * sigma
    total = _simpson_panels(integrand, lo, hi, 0.0, rtol, _MAX_DEPTH)[0]
    return math.log(total) / lam


# === Piecewise-perturbed densities on [0, 1] ===

_BUMPS = {
    # tag: (g on [0, 1), integral of g^2, sup |g|)
    "sin": (lambda u: np.sin(2.0 * np.pi * u), 0.5, 1.0),
    "double_sin": (lambda u: np.sin(4.0 * np.pi * u), 0.5, 1.0),
}


@dataclass(frozen=True)
class HypercubeDensityFamily:
    """Densities f_tau = 1 + sum_j tau_j g_j on [0, 1], tau in {-1, +1}^m.

    g_j(x) = (c / m^2) g(m x - j) on [j/m, (j+1)/m) and zero elsewhere, with a
    mean-zero bump g.  The bump is chosen by tag; its squared integral a and
    sup norm are recorded so closed forms can be stated per instance.
    """

    m: int
    c: float
    g_spec: str = "sin"

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError("c must be finite and non-negative")
        if self.g_spec not in _BUMPS:
            raise ValueError(f"unknown bump tag {self.g_spec!r}")
        if self.c * self.bump_sup / self.m**2 >= 1.0:
            raise ValueError("c sup|g| / m^2 must stay below 1 for positivity")

    @property
    def bump_sq_integral(self) -> float:
        """a = integral of g^2 over [0, 1]."""
        return _BUMPS[self.g_spec][1]

    @property
    def bump_sup(self) -> float:
        return _BUMPS[self.g_spec][2]

    @property
    def sq_integral_excess(self) -> float:
        """Closed form for integral(f_tau^2) - 1, the same for every tau."""
        return self.c**2 * self.bump_sq_integral / self.m**4

    def check_tau(self, tau) -> np.ndarray:
        arr = np.asarray(tau, dtype=np.int64).reshape(-1)
        if arr.shape != (self.m,) or np.any(np.abs(arr) != 1):
            raise ValueError("tau must be a vector of m entries in {-1, +1}")
        return arr

    def density_value(self, tau, x: float) -> float:
        """f_tau(x) for scalar x in [0, 1]; right endpoint folds to the last cell."""
        tau = self.check_tau(tau)
        g = _BUMPS[self.g_spec][0]
        j = min(int(x * self.m), self.m - 1)
        u = x * self.m - j
        return 1.0 + tau[j] * (self.c / self.m**2) * float(g(u))


def _cell_bump(family: HypercubeDensityFamily, cells):
    """bump(x, k) = (c / m^2) g(m x - j) at abscissae x in cell j = cells[k]."""
    m = family.m
    g = _BUMPS[family.g_spec][0]
    scale = family.c / m**2

    def bump(x, k):
        return scale * g(x * m - cells[k])

    return bump


def density_sq_integral(family: HypercubeDensityFamily, tau, atol=1e-12) -> float:
    """integral of f_tau^2 over [0, 1] by per-cell adaptive Simpson."""
    sign = family.check_tau(tau).astype(float)
    cells = np.arange(family.m)
    bump = _cell_bump(family, cells)

    def f_sq(x, k):
        val = 1.0 + sign[k] * bump(x, k)
        return val * val

    m = family.m
    return float(_simpson_panels(f_sq, cells / m, (cells + 1) / m, atol, 0.0, _MAX_DEPTH).sum())


def hellinger_sq_distance(family: HypercubeDensityFamily, tau_a, tau_b, atol=1e-13) -> float:
    """integral of (sqrt(f_a) - sqrt(f_b))^2, cell by cell.

    Cells where the sign vectors agree contribute exactly zero and are
    skipped, which also keeps the result symmetric in its arguments.
    """
    sa = family.check_tau(tau_a).astype(float)
    sb = family.check_tau(tau_b).astype(float)
    cells = np.flatnonzero(sa != sb)
    sa, sb = sa[cells], sb[cells]
    bump = _cell_bump(family, cells)

    def gap_sq(x, k):
        g = bump(x, k)
        diff = np.sqrt(1.0 + sa[k] * g) - np.sqrt(1.0 + sb[k] * g)
        return diff * diff

    m = family.m
    return float(_simpson_panels(gap_sq, cells / m, (cells + 1) / m, atol, 0.0, _MAX_DEPTH).sum())


@dataclass(frozen=True)
class SecondMomentCheck:
    """Outcome of the iid second-moment inequality check."""

    product_term: float
    exp_bound: float
    ok: bool


def iid_second_moment_check(family: HypercubeDensityFamily, n_samples: int) -> SecondMomentCheck:
    """Check (1 + x)^n <= exp(x n) at x = c^2 a / m^4.

    (1 + x)^n is the exact n-sample second moment of dP_tau/dQ under the
    uniform reference (identical for every tau), and exp(x n) is the bound the
    sample-size converse uses in place of it.
    """
    n = int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be a positive integer")
    x = family.sq_integral_excess
    product_term = (1.0 + x) ** n
    exp_bound = math.exp(x * n)
    return SecondMomentCheck(product_term, exp_bound, product_term <= exp_bound)
