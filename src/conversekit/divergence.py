"""Divergence measures on finite alphabets and simple parametric pairs.

Renyi-type quantities are parametrized by the order offset lam > 0, i.e. the
divergence of order 1 + lam.  That offset is the exponent appearing in the
change-of-measure steps behind the converse bounds in this package, so it is
passed around explicitly rather than the order itself.

Every Renyi-type sum on a finite alphabet goes through one private kernel,
`_renyi_log_sums`.  It takes pmfs as rows of one compact array
(`_PmfRows`): only their p > 0 cells, concatenated row by row, with each
row's start offset and each cell's column.  `_pmf_rows` builds it from
each row's own p > 0 cells, so no (M, K) array is ever formed.  With the
order-free log ratio r = log p - log q of each cell to the reference, it
returns lam * D_(1+lam)(p_i || q) = log sum_y p_i(y)^(1+lam) q(y)^(-lam)
for every row at one order:

- Cells with p = 0 add nothing to a Renyi sum, so the kernel never visits
  them: it sums each row's segment of live cells, all rows in one
  np.add.reduceat.  A product family built from letters with zero mass
  is mostly such cells.
- It evaluates log1p(S - 1), with S - 1 = sum_y p(y) expm1(lam r(y)) plus
  the exact defect sum_y p(y) - 1 of the row, and r = log p - log q.  Its
  error is then that of forming r, about eps lam sum_y p (|log p| + |log q|),
  however small lam D is.  log S itself would carry an error of about eps,
  which swamps lam D ~ 1e-8 at lam ~ 1e-6.
- A row whose terms overflow that form (lam r past ~709), or whose S
  underflows against 1 (S - 1 below -1/2), is redone as a log-sum-exp of
  log p + lam r over its segment.  So reference masses down to the
  subnormal 5e-324 and orders up to 100 give finite values, and so does a
  row whose cells all lie below q by rounding at orders past 1e13:
  `renyi_discrete` returns neither inf, -inf nor NaN where the true
  divergence is finite.  Where lam r itself passes the float maximum
  (orders near 1.7e308), lam D is +inf.
- That guard, np.errstate and a scan of S - 1, runs only where it can
  fire.  The caller passes an order-free bound on |r|
  (`converse.ChannelFamily` keeps one per family, `renyi_discrete` takes
  max |r| of its row); where lam times it is at most 709 and lam is at
  most 1 / (4 PMF_SUM_TOL), no row needs a redo and the call runs plain,
  with the same bits.
- Its temporaries hold one value per live cell, so a call's memory is that
  of the family's rows, whatever the order.  A search over orders
  (`converse.optimize_lambda`) calls it once per order.
- Since r does not depend on the order, a caller with a fixed reference
  forms it once and keeps it (`converse.ChannelFamily`), so no call repeats
  that subtraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "PMF_SUM_TOL",
    "AbsoluteContinuityError",
    "DiscretePmf",
    "GaussianShiftPair",
    "BernoulliPair",
    "renyi_discrete",
    "renyi_product_iid",
    "renyi_gaussian_shift",
    "renyi_bernoulli",
    "kl_discrete",
    "hellinger_kl_coefficient",
    "iid_product_pmf",
    "mixture_pmf",
]

# Absolute slack allowed on sum(probs) == 1 at construction time.
PMF_SUM_TOL = 1e-12

# exp() overflows past this; the kernel runs without its overflow guard
# only where no lam r can pass it (see `_renyi_log_sums`).
_EXP_OVERFLOW = 709.0

# Width of the neighbourhood of t = 1 where the kappa coefficient switches to
# its Taylor form (the closed form is 0/0 at t = 1).
_KAPPA_TAYLOR_WINDOW = 1e-6


class AbsoluteContinuityError(ValueError):
    """First argument puts mass where the reference distribution has none."""


@dataclass(frozen=True, eq=False)
class DiscretePmf:
    """Probability mass function on a finite alphabet {0, ..., K-1}."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64).reshape(-1).copy()
        if arr.size == 0:
            raise ValueError("pmf needs at least one outcome")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("pmf entries must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(
                f"pmf entries sum to {total!r}; must equal 1 within {PMF_SUM_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @cached_property
    def _mass_defect(self) -> float:
        """sum(probs) - 1, correctly rounded; kept, as the pmf is immutable."""
        # probs.data hands fsum one double at a time, with no list of them
        return math.fsum(itertools.chain(self.probs.data, (-1.0,)))


@dataclass(frozen=True)
class GaussianShiftPair:
    """N(mu, sigma_sq I) versus N(0, sigma_sq I), described by shift_sq = |mu|^2."""

    shift_sq: float
    sigma_sq: float

    def __post_init__(self):
        if not (math.isfinite(self.shift_sq) and self.shift_sq >= 0.0):
            raise ValueError("shift_sq must be finite and non-negative")
        _positive("sigma_sq", self.sigma_sq)


@dataclass(frozen=True)
class BernoulliPair:
    """Bernoulli(p) versus Bernoulli(q)."""

    p: float
    q: float

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")


def _positive(name, value) -> float:
    """value as a float; ValueError unless it is finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _positive_int(name, value) -> int:
    """value as an int; ValueError unless it is a whole number >= 1."""
    if not (float(value).is_integer() and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _lam(order) -> float:
    """Order offset as a plain float; ValueError unless finite and > 0."""
    return _positive("order offset lam", order)


def _on_support(p: DiscretePmf, q: DiscretePmf):
    """p and q restricted to the outcomes where p > 0; q must not vanish there."""
    if p.support_size != q.support_size:
        raise ValueError("pmfs must share one alphabet")
    sup = p.probs > 0.0
    ps, qs = p.probs[sup], q.probs[sup]
    if not qs.all():
        raise AbsoluteContinuityError("p puts mass on a zero of q")
    return ps, qs


class _PmfRows(NamedTuple):
    """Rows of pmfs on one alphabet, in the form the kernel reads: their p > 0 cells.

    The cells of every row are concatenated row by row, each row's in
    column order; row i is the segment from starts[i] up to the next row's
    start (or the end).  A pmf has mass somewhere, so no segment is empty.
    Every array here holds one value per cell or per row, none one per
    (row, outcome) pair.
    """

    probs: np.ndarray  # (N,) the p > 0 cells of every row
    # log_probs and cols are built only where a caller reads them (q*'s
    # per-order r = log p - log q*[cols] and its weights' column sums in
    # `converse`), else None
    log_probs: np.ndarray | None  # (N,) log of probs, finite
    cols: np.ndarray | None  # (N,) each cell's column
    starts: np.ndarray  # (M,) each row's first cell
    # exact sum_y p_i(y) - 1 per row, from DiscretePmf._mass_defect: the sum
    # tolerance of DiscretePmf, up to 1e-12, is far above the precision lam D
    # needs at small orders; dropping zero cells leaves it as it is
    defect: np.ndarray  # (M,)


def _pmf_rows(cells: list, defect: np.ndarray) -> _PmfRows:
    """Rows of pmfs as read-only _PmfRows, from each row's p > 0 cells.

    cells holds one 1-D array per row: that row's p > 0 cells in column
    order.  log_probs and cols are None.
    """
    counts = np.array([row.size for row in cells])
    probs = np.concatenate(cells)  # row by row
    starts = counts.cumsum() - counts
    for arr in (probs, starts, defect):
        arr.setflags(write=False)
    return _PmfRows(probs, None, None, starts, defect)


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp of 1-D a, overwriting a; a needs a finite entry."""
    top = a.max()
    a -= top
    np.exp(a, out=a)
    return float(top + np.log(a.sum()))


def _segment_logsumexp(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """log sum exp over each segment of 1-D a that starts cut, overwriting a.

    A segment holding +inf gives +inf: its top is taken as 0, so its +inf
    cells stay +inf through exp and never meet inf - inf.
    """
    top = np.maximum.reduceat(a, starts)
    top[top == math.inf] = 0.0
    a -= np.repeat(top, np.diff(starts, append=a.size))
    np.exp(a, out=a)
    return top + np.log(np.add.reduceat(a, starts))


def _renyi_log_sums(rows: _PmfRows, log_ratio: np.ndarray, lam: float,
                    r_bound: float = math.inf) -> np.ndarray:
    """lam D_(1+lam)(p_i || q) for every row p_i at one order lam, shape (M,).

    log_ratio is r = log p_i - log q on the cells of rows, shape (N,).
    r_bound is an order-free bound on |r| (inf where none is known).  Only
    the p > 0 cells are summed, one np.add.reduceat over the row segments.
    log1p(S - 1) is exact only where S - 1 is a float: it overflows past
    exp(709), and where S underflows against 1 (a row whose cells all lie
    below q, at orders past about 1e13) it is log1p(-1) = -inf.  So rows
    whose S - 1 is +inf or below -1/2 are redone as a log-sum-exp of
    log p + lam r over the row's segment; where lam r itself overflowed,
    that gives +inf, which is lam D as a float.  Neither can happen where
    lam r_bound <= _EXP_OVERFLOW, so no term of S - 1 exceeds p exp(709),
    and lam PMF_SUM_TOL <= 1/4: by Hoelder's inequality, with both sums
    over the row's cells, S >= (sum p)^(1+lam) (sum q)^(-lam), which is at
    least exp(-(1 + 2 lam) PMF_SUM_TOL) >= exp(-1/2) less the rounding of
    lam r.  There the call runs plain: no np.errstate and no scan, with the
    same bits.
    """
    probs, starts = rows.probs, rows.starts

    def excess() -> np.ndarray:
        terms = np.multiply(log_ratio, lam)
        np.expm1(terms, out=terms)
        terms *= probs
        out = np.add.reduceat(terms, starts)
        out += rows.defect  # S - 1
        return out

    if lam * r_bound <= _EXP_OVERFLOW and lam * PMF_SUM_TOL <= 0.25:
        out = excess()
        return np.log1p(out, out=out)
    # log1p of a redone row's S - 1 (-1 or below, or +inf) is discarded
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = excess()
        hit = (out < -0.5) | (out == math.inf)
        np.log1p(out, out=out)
        if hit.any():
            logs = np.log(probs) + lam * log_ratio
            out[hit] = _segment_logsumexp(logs, starts)[hit]
    return out


def renyi_discrete(p: DiscretePmf, q: DiscretePmf, order) -> float:
    """Renyi divergence of order 1+lam: log(sum_i p_i^(1+lam) q_i^(-lam)) / lam.

    Outcomes with p_i = 0 contribute nothing regardless of q_i.  Mass of p on
    a zero of q raises AbsoluteContinuityError.  The sum is taken in log
    space, so the result is finite even where the sum itself would overflow.
    """
    lam = _lam(order)
    ps, qs = _on_support(p, q)
    rows = _pmf_rows([ps], np.array([p._mass_defect]))  # one row, starts = [0]
    log_ratio = np.log(rows.probs) - np.log(qs)
    log_sum = _renyi_log_sums(rows, log_ratio, lam, float(np.abs(log_ratio).max()))
    return float(log_sum[0]) / lam


def renyi_product_iid(p: DiscretePmf, q: DiscretePmf, order, n_factors: int) -> float:
    """Divergence between n-fold iid products; additivity gives n * D(p||q)."""
    return _positive_int("n_factors", n_factors) * renyi_discrete(p, q, order)


def renyi_gaussian_shift(pair: GaussianShiftPair, order) -> float:
    """Closed form for a Gaussian location pair: (1+lam) shift_sq / (2 sigma_sq)."""
    lam = _lam(order)
    return (1.0 + lam) * pair.shift_sq / (2.0 * pair.sigma_sq)


def renyi_bernoulli(pair: BernoulliPair, order) -> float:
    """Renyi divergence between Bernoulli(p) and Bernoulli(q).

    Computed in log space with `math` alone, so it stays independent of the
    numpy kernel that `verify divergence` checks it against:
    log S = log1p(sum_y p expm1(lam r) + defect), with r = log p - log q and
    the exact defect p + (1 - p) - 1, or a log-sum-exp of log p + lam r once
    expm1 would overflow.  It stays finite for q down to the subnormal 5e-324.
    """
    lam = _lam(order)
    p, q = pair.p, pair.q
    if (p > 0.0 and q == 0.0) or (p < 1.0 and q == 1.0):
        raise AbsoluteContinuityError("Bernoulli(p) not dominated by Bernoulli(q)")
    terms = [
        (a, lam * (math.log(a) - math.log(b)))
        for a, b in ((p, q), (1.0 - p, 1.0 - q))
        if a > 0.0
    ]
    try:
        excess = math.fsum([w * math.expm1(x) for w, x in terms] + [p, 1.0 - p, -1.0])
        return math.log1p(excess) / lam
    except OverflowError:
        logs = [math.log(w) + x for w, x in terms]
        top = max(logs)
        return (top + math.log(math.fsum(math.exp(v - top) for v in logs))) / lam


def kl_discrete(p: DiscretePmf, q: DiscretePmf) -> float:
    """Kullback-Leibler divergence sum_i p_i log(p_i / q_i), 0 log 0 = 0."""
    ps, qs = _on_support(p, q)
    return float(np.sum(ps * np.log(ps / qs)))


def hellinger_kl_coefficient(order, ratio_sup: float) -> float:
    """Coefficient kappa(lam, t) relating Hellinger to KL divergence.

    kappa(lam, t) = (lam + t^(1+lam) - (1+lam) t) / (lam (t log t + 1 - t)),
    where t >= 1 bounds the likelihood ratio dP/dQ from above; then the
    order-(1+lam) Hellinger divergence is at most kappa(lam, t) * KL(P||Q).
    The closed form is 0/0 at t = 1, so values with |t - 1| < 1e-6 use the
    quadratic Taylor expansion around t = 1 instead; t = 1 itself gives its
    constant term 1 + lam, where the quadratic term would be inf * 0 at
    orders past about 1e154.
    """
    lam = _lam(order)
    t = float(ratio_sup)
    if not math.isfinite(t) or t < 1.0:
        raise ValueError("ratio_sup must be finite and >= 1")
    s = t - 1.0
    if s == 0.0:
        return 1.0 + lam
    if abs(s) < _KAPPA_TAYLOR_WINDOW:
        c2 = (lam - 1.0) * (lam - 2.0) / 12.0 + (lam - 1.0) / 9.0 - 1.0 / 18.0
        return (1.0 + lam) * (1.0 + lam * s / 3.0 + c2 * s * s)
    try:
        num = lam + t ** (1.0 + lam) - (1.0 + lam) * t
    except OverflowError:  # t^(1+lam) past the float range
        return math.inf
    return num / (lam * (t * math.log(t) + 1.0 - t))


def iid_product_pmf(p: DiscretePmf, n_factors: int) -> DiscretePmf:
    """n-fold iid product of p with itself, outcomes in row-major order."""
    out = p
    for _ in range(_positive_int("n_factors", n_factors) - 1):
        out = DiscretePmf(np.outer(out.probs, p.probs).ravel())
    return out


def mixture_pmf(pmfs) -> DiscretePmf:
    """Uniform mixture of pmfs on a shared alphabet: their sum divided by M.

    The sum adds the pmfs one by one to 0.0, which is how numpy sums the rows
    of their (M, K) stack in its mean over axis 0, so the mixture has that
    mean's bits without the stack.  On a one-outcome alphabet numpy sums the
    stack as one column, pairwise; so does this, over the M masses.
    """
    pmfs = list(pmfs)
    if not pmfs:
        raise ValueError("mixture needs at least one pmf")
    size = pmfs[0].support_size
    if any(pm.support_size != size for pm in pmfs):
        raise ValueError("pmfs must share one alphabet")
    if size == 1:
        total = np.concatenate([pm.probs for pm in pmfs]).sum(keepdims=True)
    else:
        total = np.zeros(size)
        for pm in pmfs:
            total += pm.probs
    return DiscretePmf(total / len(pmfs))
