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

numpy runs only where the arrays are wide: the (panels, 15) abscissae, the
integrand call and the rule's matrix product, once per step.  The per-panel
bookkeeping (estimates, tolerances, the accept or split decision, the
accepted totals, the stops and the halves) runs on Python floats and lists,
since a step holds 1 to a few dozen panels and a numpy call on so few costs
more than the arithmetic it does.
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


def _conditional_probs(conditionals) -> list:
    """The probs of each conditional, once they share an alphabet within the cap."""
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
    return [pm.probs for pm in pmfs]


def exact_bayes_error(conditionals) -> float:
    """Minimum average error probability of any decoder, uniform prior.

    Enumerates the alphabet: 1 - sum_y max_i p_i(y) / M.  Each outcome's
    max is a running np.maximum over the conditionals, one array of the
    alphabet's size, with no (M, K) stack; a max rounds nothing, so it has
    the stack's bits.
    """
    probs = _conditional_probs(conditionals)
    top = probs[0].copy()
    for row in probs[1:]:
        np.maximum(top, row, out=top)
    return float(1.0 - top.sum() / len(probs))


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
    bisected, all left halves before all right halves.  A step where every
    panel converged ends the loop with its estimate as the totals.  The two
    stops are checked only on a step where one can bind: at the depth limit,
    or where more than _MAX_OPEN / 2 panels are open in all, since one
    interval holds at most all of them.  Returns one total per interval, and
    warns with QuadratureWarning if either stop took panels unconverged.

    numpy runs only where the arrays are wide: the abscissae, the call to f
    and the (panels, 15) @ (15, 2) rule times the half-widths.  The per-panel
    bookkeeping runs on Python floats, in the order of operations of the
    array form in tests/test_gk_reference.py, so the two agree bit for bit:
    each interval's sum starts at 0.0 and adds its panels in order, as
    np.bincount does; the tolerance multiplies left to right; and a NaN
    estimate gives a NaN tolerance, as np.maximum does (Python's max would
    return atol), which no panel meets.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    share = (1.0 / (b - a)).tolist()
    lo, hi = a.tolist(), b.tolist()
    n = len(lo)
    k = list(range(n))
    totals = [0.0] * n
    stalled = 0
    for depth in range(_MAX_DEPTH + 1):
        half = [0.5 * (h - l) for l, h in zip(lo, hi)]
        mid = [l + d for l, d in zip(lo, half)]
        grid = np.array((mid, half), dtype=float)
        x = grid[0, :, None] + grid[1, :, None] * _GK_NODES
        rule = f(x, np.array(k, dtype=np.intp)[:, None]) @ _GK_WEIGHTS
        kron, gauss = (rule.T * grid[1]).tolist()
        sums = [0.0] * n
        for j, v in zip(k, kron):
            sums[j] += v
        # np.maximum(atol, rtol * |estimate|) per interval, NaN if either is
        scale = [
            atol if atol >= (r := rtol * abs(t + s)) or atol != atol else r
            for t, s in zip(totals, sums)
        ]
        met = [
            abs(kv - gv) <= scale[j] * (2.0 * d * share[j])
            for j, kv, gv, d in zip(k, kron, gauss, half)
        ]
        split = [i for i, ok in enumerate(met) if not ok]
        if not split:
            totals = [t + s for t, s in zip(totals, sums)]
            break
        if 2 * len(split) > _MAX_OPEN or depth == _MAX_DEPTH:
            count = [0] * n
            for i in split:
                count[k[i]] += 1
            for i in split:
                if depth == _MAX_DEPTH or 2 * count[k[i]] > _MAX_OPEN:
                    met[i] = True
                    stalled += 1
            split = [i for i in split if not met[i]]
        accepted = [0.0] * n
        for j, v, ok in zip(k, kron, met):
            if ok:
                accepted[j] += v
        totals = [t + s for t, s in zip(totals, accepted)]
        if not split:
            break
        left = [lo[i] for i in split]
        cut = [mid[i] for i in split]
        lo, hi = left + cut, cut + [hi[i] for i in split]
        k = [k[i] for i in split] * 2
    if stalled:
        warnings.warn(
            f"adaptive Gauss-Kronrod: {stalled} panel(s) taken as they were, short of "
            f"the tolerance, at the depth limit of {_MAX_DEPTH} bisections or the cap of "
            f"{_MAX_OPEN} open panels per interval; the result is a best effort",
            QuadratureWarning,
            stacklevel=3,
        )
    return np.array(totals)


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
        """tau as a float array of m signs; ValueError unless each entry is -1 or +1."""
        arr = np.asarray(tau, dtype=np.float64).reshape(-1)
        if arr.shape != (self.m,) or not np.all(np.abs(arr) == 1.0):
            raise ValueError("tau must be a vector of m entries in {-1, +1}")
        return arr


def _cell_bump(family: HypercubeDensityFamily, x, cell):
    """(c / m^2) g(m x - j) at abscissae x in cell j."""
    m = family.m
    return family.c / m**2 * np.sin(2.0 * np.pi * (x * m - cell))


def density_sq_integral(family: HypercubeDensityFamily, tau) -> float:
    """integral of f_tau^2 over [0, 1] by per-cell adaptive quadrature.

    Each of the m cells is integrated to 1e-12 absolute, shared out over its
    panels, so the total's error estimate (the sum of |K15 - G7| over all
    panels) is at most m * 1e-12 unless a QuadratureWarning is raised.
    """
    sign = family.check_tau(tau)

    def f_sq(x, k):
        val = 1.0 + sign[k] * _cell_bump(family, x, k)
        return val * val

    m = family.m
    cells = np.arange(m)
    return float(_gk_panels(f_sq, cells / m, (cells + 1) / m, 1e-12, 0.0).sum())


def hellinger_sq_distance(family: HypercubeDensityFamily, tau_a, tau_b) -> float:
    """integral of (sqrt(f_a) - sqrt(f_b))^2, cell by cell.

    Cells where the sign vectors agree contribute exactly zero and are
    skipped, which also keeps the result symmetric in its arguments.  Each
    other cell is integrated to 1e-13 absolute, shared out over its panels,
    so the total's error estimate (the sum of |K15 - G7| over all panels)
    is at most (number of cells where the signs differ) * 1e-13 unless a
    QuadratureWarning is raised.
    """
    sa = family.check_tau(tau_a)
    sb = family.check_tau(tau_b)
    cells = np.flatnonzero(sa != sb)
    sa, sb = sa[cells], sb[cells]

    def gap_sq(x, k):
        g = _cell_bump(family, x, cells[k])
        diff = np.sqrt(1.0 + sa[k] * g) - np.sqrt(1.0 + sb[k] * g)
        return diff * diff

    m = family.m
    return float(_gk_panels(gap_sq, cells / m, (cells + 1) / m, 1e-13, 0.0).sum())
