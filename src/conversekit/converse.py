"""Lower bounds on M-ary identification error.

The central bound turns per-codeword Renyi divergences to a reference
distribution into a floor on the average error probability of any decoder:

    eps >= 1 - (1+lam) / (lam M)^(lam/(1+lam)) * S^(1/(1+lam)),
    S = (1/M) sum_i exp(lam D_i),  D_i = Renyi_(1+lam)(P_i || Q),

valid for every lam > 0 and every reference Q dominating all conditionals;
a family takes one of three, each of which does: uniform, the mixture and q*.
Fano-type baselines live here too, so the two can be compared on equal
footing.

On first use a ChannelFamily builds its conditionals once in the compact
layout the kernel reads (`divergence._PmfRows`): only their p > 0 cells,
row by row, taken from each conditional's own p > 0 mask, so the build
holds no (M, K) array of floats at any point.  For the order-free
references (uniform and the mixture) it also keeps the reference and the
log ratio r = log p_i - log Q on those cells, which is finite there, and
nothing else per cell.  Every quantity is evaluated at one order lam at a
time: the terms lam D_i come from the one log-space kernel
`divergence._renyi_log_sums`, and a search over orders calls it once per
order.  For q*, which moves with the order, each order forms its
own r = log p - log q*[cols] from q* at that order, so a q* family alone
keeps log p and each cell's column in the joint support.  q* itself
(`reference_pmf`) and its normalizer C come from one formula for its
weights, `_log_qstar_weights`.  For it a q* family also keeps each
column's top log p, shape (K,), and log p shifted by that top on the
cells, so each column's top cell enters exp as 0 and no weight overflows
to NaN at any finite order; the weights sum each column's cells with
np.add.at, and no family keeps an (M, K) array.  For q* no divergence
is needed for S itself: with C the normalizer of q*, S = C^(1+lam)
(Sibson's alpha-mutual information; Sibson 1969, Verdu 2015), which
`optimize_lambda` and `variational_bound` use.  `strong_converse_bound`
still reports every D_i, from the same kernel.

lam is checked once per public call.  Overflow guards run only where they
can fire: each family keeps one order-free scalar
(`_FamilyArrays.r_bound`) that bounds |r| and, for q*, the spread of its
weights' exponents, and the kernel and the q* weights run plain wherever
the order times it clears the overflow (and, for the kernel, the order is
at most 1 / (4 PMF_SUM_TOL)), with the same bits.

`optimize_lambda` builds its pre-scan grid once per range and evaluates
log S there with `ChannelFamily._log_mean_term`, one order per call, in
two passes: orders 0, 32 and 63 of 64, then only the orders that one
convexity rule leaves.  log S is convex in lam for every reference: for
a fixed Q it is a log-sum-exp of lines in lam, and for q* it is
alpha LSE_y(psi_y(alpha) / alpha) with alpha = 1 + lam and
psi_y(alpha) = log mean_i p_i(y)^alpha convex, the perspective of the
nondecreasing convex LSE composed with convex functions (Boyd and
Vandenberghe 2004, sec. 3.2).  At lam = 0 it is log(1 + mean mass
defect), at most PMF_SUM_TOL.  So the secant through two neighbouring
orders where log S is known, order 0 among them, extended outside them
and lowered by its rounding, lies below log S, and the floor at every
other order lies below a ceiling (`_secant_ceilings`).  The secant
through 0 is the chord behind log S / lam never falling (van Erven and
Harremoes 2014; Verdu 2015).  An order whose ceiling lies below the best
first-pass floor by more than a rounding margin cannot be the pre-scan
maximum, and skipping it keeps every bit of the result.
Golden section, the edge probe and the lambda_at_boundary flag share one
resolution, `_RESOLUTION`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .divergence import (
    _EXP_OVERFLOW,
    PMF_SUM_TOL,
    DiscretePmf,
    _lam,
    _logsumexp,
    _pmf_rows,
    _PmfRows,
    _positive,
    _positive_int,
    _renyi_log_sums,
    hellinger_kl_coefficient,
    kl_discrete,
    mixture_pmf,
)

__all__ = [
    "Q_CHOICES",
    "ChannelFamily",
    "BoundReport",
    "strong_converse_eps_from_log_terms",
    "strong_converse_bound",
    "optimize_lambda",
    "variational_bound",
    "avg_kl_to_mixture",
    "fano_bound",
    "generalized_fano_log_m_bound",
]

# Reference-distribution choices for discrete families.
Q_CHOICES = ("uniform", "mixture", "qstar")

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# optimize_lambda: pre-scan orders, then golden section in one bracket.
_PRESCAN = 64
# The fraction of a bracket the order search resolves: a smooth maximum can
# be located in floats only to about sqrt(eps) (Brent 1973, ch. 5).
_RESOLUTION = math.sqrt(np.finfo(float).eps)
# The pre-scan's first pass evaluates every _PRESCAN_STRIDE-th order and the last.
_PRESCAN_STRIDE = 32
# A computed log S lies within _LOG_S_ROUNDING (1 + lam + |log S|) of a
# convex function of lam.  Its final log carries a few ulps absolute and its
# top term a few ulps relative; for q*, (1+lam) multiplies the absolute
# rounding of log C.  2^-40 is about 4000 ulps: on the families of
# test_log_s_is_convex_in_lam_up_to_its_rounding, no chord slope fell by
# more than 2e-4 of what it allows.
_LOG_S_ROUNDING = 2.0**-40


class _FamilyArrays(NamedTuple):
    """A discrete family's rows, plus its reference when that is order-free."""

    # the p > 0 cells; q* alone keeps their log p and their columns, which
    # index the joint support
    rows: _PmfRows
    joint: np.ndarray  # outcomes some conditional puts mass on
    ref: DiscretePmf | None = None  # None for q*, which depends on the order
    log_ratio: np.ndarray | None = None  # r = log p_i - log Q on the cells of rows
    # q* only: the order-free pieces of its weights, with log p shifted by
    # its column's top once, so no order makes a weight NaN
    colmax: np.ndarray | None = None  # (K,) max_i log p_i(y) over the joint support
    shifted: np.ndarray | None = None  # (N,) log p - colmax[cols] <= 0 on the cells of rows
    # The order-free scalar that bounds every overflow: max |r| for an
    # order-free reference.  For q*, the largest column spread -min(shifted)
    # of log p, or 2 log M + 1 if larger: where p > 0, r lies in
    # [-spread, log M / (1+lam) + log C] at every order, with 1 <= C <= M,
    # and the + 1 absorbs the rounding of r (about 1e-12 at most).
    r_bound: float = math.inf


@dataclass(frozen=True, eq=False)
class ChannelFamily:
    """M DiscretePmf conditionals on one alphabet plus a reference choice."""

    conditionals: tuple
    q_choice: object = "mixture"

    def __post_init__(self):
        conds = tuple(self.conditionals)
        if not conds:
            raise ValueError("family needs at least one conditional")
        object.__setattr__(self, "conditionals", conds)
        if not all(isinstance(c, DiscretePmf) for c in conds):
            raise ValueError("conditionals must all be DiscretePmf")
        size = conds[0].support_size
        if any(c.support_size != size for c in conds):
            raise ValueError("conditionals must share one alphabet")
        if self.q_choice not in Q_CHOICES:
            raise ValueError(f"q_choice must be one of {Q_CHOICES}")

    @cached_property
    def _arrays(self) -> _FamilyArrays:
        """The arrays of a discrete family, built on first use and kept.

        Everything comes from each conditional's own p > 0 mask and cells,
        row by row; past those masks, one bool per outcome, no array of the
        build holds a value per (codeword, outcome) pair.  The rows keep only
        the p > 0 cells (`divergence._PmfRows`), which are all a Renyi sum
        needs.  The joint support is the outcomes some conditional puts mass
        on.  For an order-free reference also keep r = log p_i - log Q on
        those cells, with log Q taken on the joint support only, so no call
        repeats that subtraction, and no log p or columns.  The mixture is
        positive on the joint support unless it rounds to 0 where every
        conditional has only subnormal mass; that raises ValueError.  q* is
        rebuilt per order; for it keep instead log p and the columns of the
        cells in the joint support, each column's top log p and log p
        shifted by it (see `_log_qstar_weights`).
        """
        conds = self.conditionals
        live = [c.probs > 0.0 for c in conds]
        joint = live[0].copy()
        for row in live[1:]:
            joint |= row
        rows = _pmf_rows([c.probs[row] for c, row in zip(conds, live)],
                         np.array([c._mass_defect for c in conds]))
        if self.q_choice == "qstar":
            # only q*'s per-order r = log p - log q*[cols] reads the cells;
            # their columns index the joint support
            index = np.arange(joint.size) if joint.all() else joint.cumsum() - 1
            cols = np.concatenate([index[row] for row in live])
            log_probs = np.log(rows.probs)
            colmax = np.full(np.count_nonzero(joint), -np.inf)
            np.maximum.at(colmax, cols, log_probs)
            shifted = colmax[cols]
            np.subtract(log_probs, shifted, out=shifted)
            rows = rows._replace(log_probs=log_probs, cols=cols)
            for arr in (log_probs, cols, colmax, shifted):
                arr.setflags(write=False)
            r_bound = max(-float(shifted.min()), 2.0 * math.log(len(conds)) + 1.0)
            return _FamilyArrays(rows, joint, colmax=colmax, shifted=shifted, r_bound=r_bound)
        # an order-free reference lives on the full alphabet
        if self.q_choice == "uniform":
            ref = DiscretePmf(np.full(joint.size, 1.0 / joint.size))
        else:
            ref = mixture_pmf(conds)
        q = ref.probs[joint]
        if not q.all():
            raise ValueError("mixture rounds to 0 on the support; use 'uniform' or 'qstar'")
        # log Q on the joint support only; no live cell reads the rest
        log_q = np.zeros(joint.size)
        log_q[joint] = np.log(q)
        log_ratio = np.log(rows.probs)
        for segment, row in zip(np.split(log_ratio, rows.starts[1:]), live):
            segment -= log_q[row]  # a view: r = log p - log Q in place, row by row
        log_ratio.setflags(write=False)
        r_bound = max(float(log_ratio.max()), -float(log_ratio.min()))  # max |r|, no temporary
        return _FamilyArrays(rows, joint, ref, log_ratio, r_bound=r_bound)

    @property
    def m_codewords(self) -> int:
        return len(self.conditionals)

    def reference_pmf(self, order=None) -> DiscretePmf:
        """The reference distribution Q actually used, resolved per q_choice."""
        if self.q_choice != "qstar":
            return self._arrays.ref
        if order is None:
            raise ValueError("q_choice 'qstar' needs the divergence order")
        return DiscretePmf(self._qstar(_lam(order))[0])

    def _qstar(self, lam: float) -> tuple[np.ndarray, float]:
        """q* at order offset lam on the full alphabet, with its normalizer C."""
        arrays = self._arrays
        log_q, log_c = _log_qstar(arrays, lam)
        q = np.zeros(arrays.joint.size)
        q[arrays.joint] = np.exp(log_q)
        return q, math.exp(log_c)

    def divergences(self, order) -> np.ndarray:
        """Per-codeword divergences D_i to the reference at one order."""
        lam = _lam(order)
        return np.array(_divide_by_lam(self._scaled_divergences(lam), lam))

    def _scaled_divergences(self, lam: float) -> np.ndarray:
        """lam D_i for each codeword at one order lam, shape (M,)."""
        arrays = self._arrays
        rows = arrays.rows
        if arrays.ref is not None:
            return _renyi_log_sums(rows, arrays.log_ratio, lam, arrays.r_bound)
        # q* moves with the order: r = log p - log q* on the cells, per order
        log_ratio = rows.log_probs - _log_qstar(arrays, lam)[0][rows.cols]
        return _renyi_log_sums(rows, log_ratio, lam, arrays.r_bound)

    def _log_mean_term(self, lam: float) -> float:
        """log S = log mean_i exp(lam D_i) at one order lam.

        For q* this is (1+lam) log C from the normalizer alone, the
        log-sum-exp of `_log_qstar_weights`, which no other step reads.  Each
        w(y) is a power mean of the p_i(y), so at least their mean, and
        C >= 1: the product overflows only to +inf, which is lam D as a float
        (a vacuous floor).
        """
        if self.q_choice == "qstar":
            power = 1.0 + lam
            return power * _logsumexp(_log_qstar_weights(self._arrays, power))
        return _log_mean_exp(self._scaled_divergences(lam))


@dataclass(eq=False)
class BoundReport:
    """One computed lower bound, with its raw (unclamped) value kept around.

    Not frozen: a report is an output, which nothing caches on or hashes by
    value, and a frozen dataclass stores each field through
    object.__setattr__, about a quarter of a sweep point's assembly.
    eq=False keeps identity equality and hashing.  The inputs (configs,
    `ChannelFamily`, `DiscretePmf`, the packing records) stay frozen, as
    their checks and caches rely on it.
    """

    method: str
    eps_lower: float
    eps_raw: float
    lambda_star: float | None = None
    gamma_star: float | None = None
    risk_lower: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.eps_lower <= 1.0:
            raise ValueError("eps_lower must be clamped to [0, 1]")

    def to_json_dict(self) -> dict:
        params = dict(self.params)
        if self.gamma_star is not None:
            params["gamma_star"] = self.gamma_star
        return {
            "method": self.method,
            "eps_lower": self.eps_lower,
            "eps_raw": self.eps_raw,
            "risk_lower": self.risk_lower,
            "lambda_star": self.lambda_star,
            "params": params,
        }


def _clamp_eps(raw: float) -> float:
    if math.isnan(raw):
        raise ValueError("bound evaluated to NaN")
    return min(1.0, max(0.0, raw))


def _log_mean_exp(values: np.ndarray) -> float:
    """log((1/n) sum_i exp(v_i)) over a 1-D array.

    An entry of +inf gives +inf without an exp, which the finite entries
    above ~709 would overflow; every entry -inf gives -inf, where
    values - top would be NaN.
    """
    top = values.max()
    if math.isinf(top):
        return float(top)
    return float(top + np.log(np.exp(values - top).sum() / values.size))


def _divide_by_lam(scaled: np.ndarray, lam: float) -> list:
    """D_i = (lam D_i) / lam as a list of floats.

    Python's float division: where lam is near 5e-324, a row's mass defect
    (up to 1e-12) in lam D makes D_i pass the float range, and the quotient
    is +-inf, as numpy's divide gives it, without numpy's overflow warning.
    """
    return [s / lam for s in scaled.tolist()]


def _exp_or_inf(x: float) -> float:
    """exp(x), with inf from _EXP_OVERFLOW up instead of an OverflowError."""
    return math.inf if x >= _EXP_OVERFLOW else math.exp(x)


def _one_minus_scaled_exp(scale: float, exponent: float) -> float:
    """1 - scale * exp(exponent), routing overflow to -inf."""
    return 1.0 - scale * _exp_or_inf(exponent)


def strong_converse_eps_from_log_terms(log_m: float, log_mean_term: float, lam) -> float:
    """Raw eps floor from log M and log S, S the mean of exp(lam D_i).

    Kept in log space so astronomically large M or S degrade to -inf instead
    of overflowing.
    """
    return _eps_from_log_terms(log_m, log_mean_term, _lam(lam))


def _eps_from_log_terms(log_m: float, log_mean_term: float, lam: float) -> float:
    """strong_converse_eps_from_log_terms for a lam already checked."""
    if math.isinf(log_mean_term):
        return -math.inf
    log_factor = (
        math.log1p(lam)
        - lam / (1.0 + lam) * (math.log(lam) + log_m)
        + log_mean_term / (1.0 + lam)
    )
    return 1.0 - _exp_or_inf(log_factor)


def _optimal_gamma(log_m: float, log_mean_term: float, lam: float) -> float:
    """Maximizer gamma* = (lam S M)^(1/(1+lam)) of the variational form."""
    return _exp_or_inf((math.log(lam) + log_mean_term + log_m) / (1.0 + lam))


def strong_converse_bound(family: ChannelFamily, order) -> BoundReport:
    """Error floor for the family at one order offset lam, with every D_i."""
    lam = _lam(order)
    m = family.m_codewords
    log_m = math.log(m)
    scaled = family._scaled_divergences(lam)
    log_mean = _log_mean_exp(scaled)
    raw = _eps_from_log_terms(log_m, log_mean, lam)
    params = {
        "m_codewords": m,
        "q_choice": family.q_choice,
        "lam": lam,
        "divergences": _divide_by_lam(scaled, lam),
    }
    if m == 1:
        params["degenerate_single_codeword"] = True
    return BoundReport(
        method="strong_converse",
        eps_lower=_clamp_eps(raw),
        eps_raw=raw,
        lambda_star=lam,
        gamma_star=_optimal_gamma(log_m, log_mean, lam),
        params=params,
    )


def _golden_max(g, lo: float, hi: float):
    """Golden-section maximization of g on [lo, hi]; returns (x, g(x))."""
    span = hi - lo
    c = hi - _INVPHI * span
    d = lo + _INVPHI * span
    gc, gd = g(c), g(d)
    # Each step shrinks the bracket by _INVPHI; take the steps that shrink
    # it to _RESOLUTION of its width (38).  A count, not a width test: no
    # bracket shrinks below an ulp, so a width test may never pass.
    for _ in range(math.ceil(math.log(_RESOLUTION) / math.log(_INVPHI))):
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INVPHI * (hi - lo)
            gd = g(d)
    return (c, gc) if gc >= gd else (d, gd)


def _secant_ceilings(log_m: float, known: list, terms: tuple) -> np.ndarray:
    """Upper bounds on the floor at the pre-scan orders, from log S where known.

    known holds (lam, log S) pairs sorted by lam, headed by
    (0, PMF_SUM_TOL): log S at 0 is log(1 + mean mass defect), at most
    PMF_SUM_TOL.  terms are `_prescan_grid`'s functions of the orders.
    log S is convex in lam, so the secant through two neighbouring pairs,
    extended outside their segment, lies below log S.  Each computed log S
    lies within _LOG_S_ROUNDING (1 + lam + |log S|) of a convex function:
    at most _LOG_S_ROUNDING u at either end, with u = 1 + max(lam) +
    max(|log S|) over the two.  Extending the secant from its width w out
    to lam' multiplies that by up to 1 + 2 |lam' - lam_e| / w, lam_e its
    far end, and log S at lam' carries at most
    _LOG_S_ROUNDING (u + (1 + |slope|) |lam' - lam_e|) of its own.  Less
    both, each secant is still a line on either side: lowered by
    2 _LOG_S_ROUNDING u and tilted down away from its segment by
    _LOG_S_ROUNDING (2 u / w + 1 + |slope|).  Each order takes the highest
    of these lines (a NaN line counts for nothing, and no line is taken
    inside its own segment), and the floor, which falls as log S grows, is
    at most what that gives.  These values only decide which orders to
    evaluate; an entry whose arithmetic passes the float range is -inf or
    NaN.
    """
    lam, log_part, share, inverse = terms
    points = np.array(known)
    a, b = points[:-1, :1], points[1:, :1]  # each segment's ends, as columns
    log_a, log_b = points[:-1, 1:], points[1:, 1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        width = b - a
        slope = (log_b - log_a) / width
        u = 1.0 + b + np.maximum(np.abs(log_a), np.abs(log_b))
        tilt = _LOG_S_ROUNDING * (2.0 * u / width + 1.0 + np.abs(slope))
        low = 2.0 * _LOG_S_ROUNDING * u
        lines = np.where(lam > b, (log_a - low) + (slope - tilt) * (lam - a),
                         np.where(lam < a, (log_b - low) + (slope + tilt) * (lam - b), -np.inf))
        bound = np.fmax.reduce(lines, axis=0)
        return 1.0 - np.exp(log_part - share * log_m + bound * inverse)


@lru_cache
def _prescan_grid(lam_lo: float, lam_hi: float) -> tuple[tuple, tuple, tuple]:
    """optimize_lambda's pre-scan on [lam_lo, lam_hi], built once per range.

    _PRESCAN evenly spaced log lam from log lam_lo to log lam_hi, their
    orders as floats, and the functions of the orders that
    `_secant_ceilings` takes: lam, log1p(lam) - share log(lam),
    share = lam / (1 + lam) and 1 / (1 + lam).  Every caller shares them,
    so each array is read-only.
    """
    grid = tuple(np.linspace(math.log(lam_lo), math.log(lam_hi), _PRESCAN).tolist())
    lams = tuple(math.exp(x) for x in grid)
    lam = np.array(lams)
    share = lam / (1.0 + lam)
    terms = (lam, np.log1p(lam) - share * np.log(lam), share, 1.0 / (1.0 + lam))
    for array in terms:
        array.setflags(write=False)
    return grid, lams, terms


def optimize_lambda(
    family: ChannelFamily, lam_lo: float = 1e-6, lam_hi: float = 10.0
) -> BoundReport:
    """Best strong-converse bound over lam in [lam_lo, lam_hi].

    The raw bound need not be unimodal in lam, so a geometric pre-scan of
    _PRESCAN orders picks the basin first and golden section on log lam
    refines inside it, replacing the pre-scan maximum only when strictly
    higher.  The pre-scan evaluates log S in at most two passes; for q*
    each order costs one normalizer instead of M divergences.  The first
    takes every _PRESCAN_STRIDE-th order and the last: 3 of the 64, as the
    maximum lies at an end of the range in most calls.  When the best of
    them is an end of the grid, the edge probe below is taken next.  The
    second pass takes only the orders whose ceiling from every log S known
    so far (`_secant_ceilings`) does not lie below the best first-pass
    floor by more than 1e-9 (1 + |ceiling|); a NaN or -inf ceiling rules
    out nothing.  A skipped order's floor lies below that best, so it is
    never the first maximum, and the result keeps the bits of a full
    pre-scan.

    The search resolves its bracket to edge_tol = _RESOLUTION (sqrt(eps))
    times the bracket width: golden section stops when its bracket is that
    narrow, and the lambda_at_boundary flag counts a point within edge_tol
    of an end as at it.  When the pre-scan maximum is an end of the grid,
    it is a first-pass order, and the probe edge_tol inward of it decides:
    if the probe is not higher, that end is kept and golden section is
    skipped, since it could only have crept to within edge_tol of the end,
    beating it, if at all, by rounding.  An end of the range is reported
    as lam_lo or lam_hi exactly.

    lam_lo and lam_hi must be finite with 0 < lam_lo < lam_hi; anything
    else raises ValueError.
    """
    if not (0.0 < lam_lo < lam_hi and math.isfinite(lam_hi)):
        raise ValueError(f"need finite 0 < lam_lo < lam_hi, got [{lam_lo!r}, {lam_hi!r}]")
    log_m = math.log(family.m_codewords)

    def raw_at(log_lam: float) -> float:
        lam = math.exp(log_lam)
        return _eps_from_log_terms(log_m, family._log_mean_term(lam), lam)

    grid, lams, terms = _prescan_grid(lam_lo, lam_hi)
    values = [-math.inf] * _PRESCAN  # a skipped order is never the first maximum

    def evaluate(i: int) -> float:
        """log S at pre-scan order i; its floor goes to values."""
        log_mean = family._log_mean_term(lams[i])
        values[i] = _eps_from_log_terms(log_m, log_mean, lams[i])
        return log_mean

    def edge_tol_at(i: int) -> float:
        """The search's resolution around pre-scan order i: _RESOLUTION of its bracket."""
        return _RESOLUTION * (grid[min(i + 1, _PRESCAN - 1)] - grid[max(i - 1, 0)])

    first = [*range(0, _PRESCAN, _PRESCAN_STRIDE), _PRESCAN - 1]
    # (lam, log S) where log S is known, from order 0, where it is at most PMF_SUM_TOL
    known = [(0.0, PMF_SUM_TOL), *((lams[i], evaluate(i)) for i in first)]
    best = max(values)
    end = values.index(best)
    if end in (0, _PRESCAN - 1):
        # the edge probe, taken now: its log S is one more point for the
        # secants, unless it rounds to the end itself (a subnormal lam_lo)
        lam_p = math.exp(grid[end] + (edge_tol_at(end) if end == 0 else -edge_tol_at(end)))
        probe = best
        if lam_p != lams[end]:
            log_p = family._log_mean_term(lam_p)
            probe = _eps_from_log_terms(log_m, log_p, lam_p)
            known.append((lam_p, log_p))
    ceilings = _secant_ceilings(log_m, sorted(known), terms)
    skip = ceilings < best - 1e-9 * (1.0 + np.abs(ceilings))
    skip[first] = True
    for i in np.flatnonzero(~skip).tolist():
        evaluate(i)
    best_idx = values.index(max(values))
    x_best, v_best = grid[best_idx], values[best_idx]
    bracket_lo = grid[max(best_idx - 1, 0)]
    bracket_hi = grid[min(best_idx + 1, _PRESCAN - 1)]
    # The resolution of the whole search: golden section stops within it of
    # a maximum, and the flag counts a point within it of an end as at it.
    edge_tol = edge_tol_at(best_idx)
    # An edge maximum is the first-pass best, so its probe was taken above;
    # if the probe does not rise, the edge is settled as is.
    if best_idx not in (0, _PRESCAN - 1) or probe > v_best:
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


def variational_bound(family: ChannelFamily, order, gamma: float) -> float:
    """Raw eps floor at one threshold gamma: 1 - gamma/M - S gamma^(-lam).

    Its supremum over gamma > 0 is exactly the strong-converse bound; any
    single gamma gives a valid (weaker) floor.  Where S and gamma^lam both
    pass the float range, their ratio is inf / inf and the floor is -inf.
    """
    lam = _lam(order)
    g = _positive("gamma", gamma)
    log_mean = family._log_mean_term(lam)
    exponent = log_mean - lam * math.log(g)
    if math.isnan(exponent):  # inf - inf
        return -math.inf
    return 1.0 - g / family.m_codewords - _exp_or_inf(exponent)


def _log_qstar_weights(arrays: _FamilyArrays, power: float) -> np.ndarray:
    """log w(y) = log(mean_i p_i(y)^power) / power at one order, shape (K,).

    power is 1 + lam.  q* is w / C with C = sum_y w(y).  From log p shifted
    by its column max on the live cells,

        log w = colmax + (log sum_i exp(power shifted) - log M) / power,

    each column summed over its live cells by np.add.at, which adds them
    in row order from 0, as a sum over the rows of a dense (M, K) array
    would (np.bincount adds them the same way, but copies the read-only
    columns on every call).  Each column's top cell enters exp as exactly 0, so the sum lies
    in [1, M] and no weight is NaN at any finite order; a product that
    overflows to -inf (orders near 1e300) drops out as the 0 it rounds to.
    p = 0 cells are not stored, so exp never meets -inf, on which numpy's
    exp takes a slow path.

    Every exponent power shifted is at least -power r_bound, r_bound at
    least the largest column spread.  Where that is at least -700, the
    multiply runs plain.  Elsewhere it runs under np.errstate(over="ignore"),
    and exponents below -700 are raised to -700, where exp is normal
    (numpy's exp slows down on subnormal and underflowing results).  The
    sum keeps its bits: a raised term, exp(-700) ~ 9.9e-305, and the value
    it replaces both lie below half an ulp of any partial sum of at least
    2^-956, so adding either returns that sum, ties included.  Each
    column's top cell adds exactly 1, so that covers every term from it on;
    a raised term met earlier by a smaller partial sum moves it by less
    than 1e-304, which reaches the rounded sum only if a later exact
    partial sum lies that close to a rounding midpoint.
    """
    if power * arrays.r_bound <= 700.0:
        terms = power * arrays.shifted
    else:
        with np.errstate(over="ignore"):
            terms = power * arrays.shifted
        np.maximum(terms, -700.0, out=terms)
    np.exp(terms, out=terms)
    log_sum = np.zeros(arrays.colmax.size)
    np.add.at(log_sum, arrays.rows.cols, terms)
    np.log(log_sum, out=log_sum)
    return arrays.colmax + (log_sum - math.log(arrays.rows.starts.size)) / power


def _log_qstar(arrays: _FamilyArrays, lam: float):
    """log q* (shape (K,)) and log C at one order, from `_log_qstar_weights`."""
    log_w = _log_qstar_weights(arrays, 1.0 + lam)
    log_c = _logsumexp(log_w.copy())
    return log_w - log_c, log_c


def avg_kl_to_mixture(conditionals) -> float:
    """Mean KL divergence of each conditional to their uniform mixture.

    Equals the mutual information between a uniform codeword index and the
    observation.
    """
    pmfs = list(conditionals)
    mix = mixture_pmf(pmfs)
    return float(np.mean([kl_discrete(pm, mix) for pm in pmfs]))


def fano_bound(m_codewords: int, avg_kl: float) -> BoundReport:
    """Classic Fano floor eps >= 1 - (log 2 + avg_kl) / log M."""
    m = _positive_int("m_codewords", m_codewords)
    if m < 2:
        raise ValueError("Fano bound needs at least two codewords")
    if not (math.isfinite(avg_kl) and avg_kl >= 0.0):
        raise ValueError("avg_kl must be finite and non-negative")
    raw = 1.0 - (math.log(2.0) + avg_kl) / math.log(m)
    return BoundReport(
        method="fano",
        eps_lower=_clamp_eps(raw),
        eps_raw=raw,
        params={"m_codewords": m, "avg_kl": avg_kl},
    )


def generalized_fano_log_m_bound(order, ratio_sup: float, mutual_info: float, eps: float) -> float:
    """Upper bound on log M from mutual information and an error level.

    log M <= (1 + 1/lam) log((1+lam)/(1-eps)) - log lam
             + (1/lam) log(1 + lam kappa(lam, t) I)

    with t an upper bound on the joint likelihood ratio (t = M works for the
    mixture reference) and I the mutual information.
    """
    lam = _lam(order)
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if not mutual_info >= 0.0:  # NaN fails this too
        raise ValueError("mutual_info must be non-negative")
    kappa = hellinger_kl_coefficient(lam, ratio_sup)
    # kappa = inf (t^(1+lam) past the float range) caps log M at inf for I > 0,
    # and I = 0 adds nothing, where inf * 0 would make the cap NaN
    info = 0.0 if mutual_info == 0.0 else math.log1p(lam * kappa * mutual_info) / lam
    return (1.0 + 1.0 / lam) * math.log((1.0 + lam) / (1.0 - eps)) - math.log(lam) + info
