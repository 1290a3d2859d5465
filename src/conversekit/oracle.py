"""Exact small-instance oracles: enumeration and quadrature.

Everything here is deliberately independent of the closed forms elsewhere in
the package.  Bayes errors come from explicit enumeration, integrals from
adaptive Gauss-Kronrod quadrature on the raw integrands, so the fast paths
have something honest to be checked against.

The quadrature is QUADPACK's 15-point Kronrod rule with its embedded 7-point
Gauss rule (Kronrod 1965; Piessens et al. 1983), refined breadth-first: each
step evaluates every panel not yet accepted with a single vectorised call to
the integrand and bisects those whose Kronrod and Gauss estimates still
differ by more than their share of the tolerance.  A step where every panel
converged ends the refinement.  Refinement stops at a minimum panel width or
at a cap on the open panels of one interval; panels such a stop leaves
unconverged are taken as they are, and the call then warns with
QuadratureWarning.  The stops are checked only on a step where one can bind:
at the last depth, or where more than half the cap is open in all.  Each
integral has one fixed tolerance, stated in its docstring.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .divergence import GaussianShiftPair, _lam, _positive_int

__all__ = [
    "MAX_ORACLE_OUTCOMES",
    "CapabilityError",
    "QuadratureWarning",
    "exact_bayes_error",
    "renyi_gaussian_quadrature",
    "HypercubeDensityFamily",
    "density_sq_integral",
    "hellinger_sq_distance",
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


# === Quadrature ===

# QUADPACK's QK15 rule (Piessens et al. 1983) on [-1, 1], as the nearest
# doubles: each non-negative Kronrod node from the outside in, its weight,
# and its weight in the 7-point Gauss rule, which uses every other node.
_QK15 = np.array([
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
])
# All 15 nodes in ascending order, and a (15, 2) matrix whose columns give
# the K15 and G7 sums of the integrand values at them.
_GK_NODES = np.concatenate((-_QK15[:, 0], _QK15[-2::-1, 0]))
_GK_WEIGHTS = np.concatenate((_QK15[:, 1:], _QK15[-2::-1, 1:]))
# Bisections of an interval before its panels are taken as they are.
_MAX_DEPTH = 48
# Most panels of one interval one step evaluates.
_MAX_OPEN = 2**10


class QuadratureWarning(RuntimeWarning):
    """Adaptive quadrature took panels as they were, short of their tolerance.

    Either stop does it: a panel _MAX_DEPTH bisections deep, or an interval
    whose unconverged panels would outgrow _MAX_OPEN if they were split.
    """


def _gk_panels(f, a, b, atol, rtol) -> np.ndarray:
    """Adaptive G7K15 quadrature on many intervals [a[k], b[k]] at once.

    f(x, k) takes a (panels, 15) array of abscissae x and a (panels, 1) array
    of interval indices k and returns f at each x on interval k.  Refinement
    is breadth-first: every step evaluates all open panels with one call to f
    and accepts a panel when |K15 - G7| <= max(atol, rtol * |estimate|) times
    its share of its interval's width, the estimate being the interval's
    accepted total plus the K15 values of its open panels.  The rest are
    bisected.  A step where every panel converged ends the loop with its
    estimate as the totals.  The two stops are checked only on a step where
    one can bind: at the depth limit, or where more than _MAX_OPEN / 2 panels
    are open in all, since one interval holds at most all of them.  Returns
    one total per interval, and warns with QuadratureWarning if either stop
    took panels unconverged.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = a.size
    share = 1.0 / (b - a)
    totals = np.zeros(n)
    lo, hi, k = a, b, np.arange(n)
    stalled = 0
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        mid = lo + half
        x = mid[:, None] + half[:, None] * _GK_NODES
        kron, gauss = (f(x, k[:, None]) @ _GK_WEIGHTS).T * half
        estimate = totals + np.bincount(k, weights=kron, minlength=n)
        tol = np.maximum(atol, rtol * np.abs(estimate[k])) * (2.0 * half * share[k])
        met = np.abs(kron - gauss) <= tol
        if met.all():
            totals = estimate
            break
        split = np.flatnonzero(~met)
        if 2 * split.size > _MAX_OPEN or depth == _MAX_DEPTH:
            crowded = 2 * np.bincount(k[split], minlength=n)[k] > _MAX_OPEN
            done = met | crowded | (depth == _MAX_DEPTH)
            stalled += np.count_nonzero(done) - np.count_nonzero(met)
            met, split = done, np.flatnonzero(~done)
        totals += np.bincount(k[met], weights=kron[met], minlength=n)
        if not split.size:
            break
        lo, mid, hi, k = lo[split], mid[split], hi[split], k[split]
        lo, hi, k = np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.concatenate((k, k))
    if stalled:
        warnings.warn(
            f"adaptive Gauss-Kronrod: {stalled} panel(s) taken as they were, short of "
            f"the tolerance, at the depth limit of {_MAX_DEPTH} bisections or the cap of "
            f"{_MAX_OPEN} open panels per interval; the result is a best effort",
            QuadratureWarning,
            stacklevel=3,
        )
    return totals


def renyi_gaussian_quadrature(pair: GaussianShiftPair, order) -> float:
    """Gaussian-pair Renyi divergence by direct quadrature, no closed form.

    Integrates p(y)^(1+lam) q(y)^(-lam) for p = N(mu, sigma_sq),
    q = N(0, sigma_sq), mu = sqrt(shift_sq), over the hull of the three
    relevant centers 0, mu and (1+lam) mu padded by 40 sigma, to a relative
    tolerance of 1e-11.
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
    total = _gk_panels(integrand, lo, hi, 0.0, 1e-11)[0]
    return math.log(total) / lam


# === Piecewise-perturbed densities on [0, 1] ===

# The bump g(u) = sin(2 pi u) on [0, 1): the integral of g^2, and sup |g|.
_BUMP_SQ_INTEGRAL = 0.5
_BUMP_SUP = 1.0


@dataclass(frozen=True)
class HypercubeDensityFamily:
    """Densities f_tau = 1 + sum_j tau_j g_j on [0, 1], tau in {-1, +1}^m.

    g_j(x) = (c / m^2) g(m x - j) on [j/m, (j+1)/m) and zero elsewhere, with
    the mean-zero bump g(u) = sin(2 pi u), whose squared integral is a = 1/2.
    """

    m: int
    c: float

    def __post_init__(self):
        object.__setattr__(self, "m", _positive_int("m", self.m))
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError("c must be finite and non-negative")
        if self.c * _BUMP_SUP / self.m**2 >= 1.0:
            raise ValueError("c sup|g| / m^2 must stay below 1 for positivity")

    @property
    def sq_integral_excess(self) -> float:
        """Closed form for integral(f_tau^2) - 1, the same for every tau."""
        return self.c**2 * _BUMP_SQ_INTEGRAL / self.m**4

    def check_tau(self, tau) -> np.ndarray:
        # checked before the cast to int64, which would truncate 1.5 or -1.9 to a sign
        arr = np.asarray(tau, dtype=np.float64).reshape(-1)
        if arr.shape != (self.m,) or not np.all(np.abs(arr) == 1.0):
            raise ValueError("tau must be a vector of m entries in {-1, +1}")
        return arr.astype(np.int64)


def _cell_bump(family: HypercubeDensityFamily, cells):
    """bump(x, k) = (c / m^2) g(m x - j) at abscissae x in cell j = cells[k]."""
    m = family.m
    scale = family.c / m**2

    def bump(x, k):
        return scale * np.sin(2.0 * np.pi * (x * m - cells[k]))

    return bump


def density_sq_integral(family: HypercubeDensityFamily, tau) -> float:
    """integral of f_tau^2 over [0, 1] by per-cell adaptive quadrature, to 1e-12 absolute."""
    sign = family.check_tau(tau).astype(float)
    cells = np.arange(family.m)
    bump = _cell_bump(family, cells)

    def f_sq(x, k):
        val = 1.0 + sign[k] * bump(x, k)
        return val * val

    m = family.m
    return float(_gk_panels(f_sq, cells / m, (cells + 1) / m, 1e-12, 0.0).sum())


def hellinger_sq_distance(family: HypercubeDensityFamily, tau_a, tau_b) -> float:
    """integral of (sqrt(f_a) - sqrt(f_b))^2, cell by cell, to 1e-13 absolute.

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
    return float(_gk_panels(gap_sq, cells / m, (cells + 1) / m, 1e-13, 0.0).sum())
