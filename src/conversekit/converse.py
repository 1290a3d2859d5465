"""Lower bounds on M-ary identification error.

The central bound turns per-codeword Renyi divergences to a reference
distribution into a floor on the average error probability of any decoder:

    eps >= 1 - (1+lam) / (lam M)^(lam/(1+lam)) * S^(1/(1+lam)),
    S = (1/M) sum_i exp(lam D_i),  D_i = Renyi_(1+lam)(P_i || Q),

valid for every lam > 0 and every reference Q dominating all conditionals.
Fano-type baselines live here too, so the two can be compared on equal
footing.

On first use a ChannelFamily builds its conditionals once as matrices
(see `divergence._PmfRows`) restricted to their joint support, plus, for
the order-free references (uniform, mixture, an explicit pmf), the
reference, the log ratio r = log p_i - log Q the kernel reads, and the
rows Q fails to dominate; it keeps them.  The terms lam D_i then come from
the one log-space kernel `divergence._renyi_log_sums`, for a whole axis of
orders per call, in chunks that bound its memory; for q*, which moves with
the order, each order forms its own r from q* at that order.  q* itself
(`reference_pmf`) and its normalizer C come from the same kept rows, by
`_log_qstar` for one order and `_log_qstar_weights` for a batch.  For them
a q* family also keeps three order-free arrays: each column's top log p,
log p with that top in each p = 0 cell, and the 0/1 support, so the
weights pass exp no -inf (numpy's exp slows down on -inf and on
underflowing inputs) and keep the bits of a logsumexp over log p.  For q*
no divergence is needed for S itself: with C the normalizer of q*,
S = C^(1+lam) (Sibson's alpha-mutual information; Sibson 1969, Verdu
2015), which `optimize_lambda` and `variational_bound` use.
`strong_converse_bound` still reports every D_i, from the same kernel.

The one-order callers (`strong_converse_bound`, `ChannelFamily.divergences`,
`variational_bound` and the probe and golden-section steps of
`optimize_lambda`) take the same arithmetic without the order axis: one
kernel chunk, the 1-D form of `_log_mean_exp`, `_log_qstar`, and lam
checked once per public call.  They give the bits of the same order
evaluated inside a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .divergence import (
    DiscretePmf,
    _lam,
    _log_or_neg_inf,
    _logsumexp,
    _order_step,
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

# Reference-distribution choices for discrete families ("explicit" is spelled
# by passing a DiscretePmf instead of a tag).
Q_CHOICES = ("uniform", "mixture", "qstar")

# exp() overflows past this; used to route extreme bounds to +-inf instead.
_EXP_OVERFLOW = 709.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# optimize_lambda: pre-scan orders, then golden-section steps in one bracket.
_PRESCAN = 64
_GOLDEN_ITERS = 60


class _FamilyArrays(NamedTuple):
    """A discrete family's rows, plus its reference when that is order-free."""

    rows: _PmfRows
    joint: np.ndarray  # outcomes some conditional puts mass on; rows keep only these
    ref: DiscretePmf | None = None  # None for q*, which depends on the order
    log_ratio: np.ndarray | None = None  # r = log p_i - log Q, the kernel's input
    undominated: np.ndarray | None = None  # rows with mass where Q = 0
    # q* only: the order-free pieces of its weights.  numpy's exp slows down
    # on -inf and underflowing inputs, so no p = 0 cell reaches exp as -inf.
    colmax: np.ndarray | None = None  # (K,) max_i log p_i(y)
    filled: np.ndarray | None = None  # log p, with colmax in each p = 0 cell
    support: np.ndarray | None = None  # 1.0 where p > 0, else 0.0


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
        q = self.q_choice
        if isinstance(q, DiscretePmf):
            if q.support_size != size:
                raise ValueError("explicit q must live on the family alphabet")
        elif q not in Q_CHOICES:
            raise ValueError(f"q_choice must be a DiscretePmf or one of {Q_CHOICES}")

    @cached_property
    def _arrays(self) -> _FamilyArrays:
        """The matrices of a discrete family, built on first use and kept.

        Outcomes no conditional puts mass on add nothing to any Renyi sum,
        so the rows keep only the joint support.  For an order-free
        reference also keep r = log p_i - log Q there (log Q = 0 stands in
        where Q = 0), so no call repeats that subtraction, and the rows Q
        fails to dominate.  q* is rebuilt per order; for it keep instead the
        order-free arrays of its weights (see `_log_power_means`).
        """
        mat = np.stack([c.probs for c in self.conditionals])
        joint = np.any(mat > 0.0, axis=0)
        probs = mat if joint.all() else mat[:, joint]
        defect = np.array([c._mass_defect for c in self.conditionals])
        rows = _PmfRows(probs, _log_or_neg_inf(probs), defect)
        for arr in rows:
            arr.setflags(write=False)
        if self.q_choice == "qstar":
            colmax = rows.log_probs.max(axis=0)
            live = rows.probs > 0.0
            filled = np.where(live, rows.log_probs, colmax)
            support = live.astype(float)
            for arr in (colmax, filled, support):
                arr.setflags(write=False)
            return _FamilyArrays(rows, joint, colmax=colmax, filled=filled, support=support)
        if isinstance(self.q_choice, DiscretePmf):
            ref = self.q_choice
        elif self.q_choice == "uniform":
            ref = DiscretePmf(np.full(mat.shape[1], 1.0 / mat.shape[1]))
        else:
            ref = DiscretePmf(mat.mean(axis=0))
        q = ref.probs[joint]
        undominated = np.flatnonzero(np.any((rows.probs > 0.0) & (q == 0.0), axis=1))
        log_ratio = rows.log_probs - np.log(np.where(q > 0.0, q, 1.0))
        log_ratio.setflags(write=False)
        return _FamilyArrays(rows, joint, ref, log_ratio, undominated)

    @property
    def m_codewords(self) -> int:
        return len(self.conditionals)

    def q_tag(self) -> str:
        return "explicit" if isinstance(self.q_choice, DiscretePmf) else str(self.q_choice)

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

    def _dominated(self) -> bool:
        """Whether Q dominates every conditional; q* does.

        Not read off the divergences: lam D overflows to inf at orders near
        the float maximum even where Q dominates.
        """
        if self.q_choice == "qstar":
            return True
        return not self._arrays.undominated.size

    def divergences(self, order) -> np.ndarray:
        """Per-codeword divergences to the reference; inf marks a domination failure."""
        lam = _lam(order)
        return self._scaled_divergences(np.array([lam]))[0] / lam

    def _scaled_divergences(self, lams: np.ndarray) -> np.ndarray:
        """lam D_i for each order in lams and each codeword, shape (L, M)."""
        arrays = self._arrays
        rows = arrays.rows
        if arrays.ref is None:  # q* moves with the order: one kernel call per order
            return np.concatenate([
                _renyi_log_sums(rows, rows.log_probs - _log_qstar(arrays, lam)[0],
                                lams[i:i + 1])
                for i, lam in enumerate(lams.tolist())
            ])
        out = _renyi_log_sums(rows, arrays.log_ratio, lams)
        if arrays.undominated.size:
            out[:, arrays.undominated] = math.inf
        return out

    def _log_mean_terms(self, lams: np.ndarray) -> np.ndarray:
        """log S = log mean_i exp(lam D_i) for each order in lams, shape (L,).

        For q* this is (1+lam) log C from the normalizer alone.  One order
        takes the one-order forms, `_log_qstar` and the 1-D `_log_mean_exp`.
        """
        if lams.size == 1:
            lam = float(lams[0])
            if self.q_choice == "qstar":
                return np.array([(1.0 + lam) * _log_qstar(self._arrays, lam)[1]])
            return np.array([_log_mean_exp(self._scaled_divergences(lams)[0])])
        if self.q_choice == "qstar":
            return _log_qstar_mean_terms(self._arrays, lams)
        return _log_mean_exp(self._scaled_divergences(lams))


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One computed lower bound, with its raw (unclamped) value kept around."""

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


def _log_mean_exp(values: np.ndarray):
    """log((1/n) sum_i exp(v_i)) over the last axis of a 1-D or 2-D array.

    A row holding +inf gives +inf without an exp, which its finite entries
    above ~709 would overflow.  A 1-D array gives a float.
    """
    if values.ndim == 1:
        top = values.max()
        if top == math.inf:
            return math.inf
        return float(top + np.log(np.exp(values - top).sum() / values.size))
    top = values.max(axis=-1, keepdims=True)
    shifted = np.zeros_like(values)  # rows whose top is +inf keep 0 here
    np.subtract(values, top, out=shifted, where=top < math.inf)
    return top[:, 0] + np.log(np.exp(shifted).sum(axis=-1) / values.shape[-1])


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
    """Error floor for the family at one order offset lam.

    Domination failures (some conditional not dominated by Q) degrade to the
    vacuous report eps_lower = 0 with a diagnostic flag rather than raising.
    """
    lam = _lam(order)
    m = family.m_codewords
    log_m = math.log(m)
    scaled = family._scaled_divergences(np.array([lam]))[0]
    dominated = family._dominated()
    log_mean = _log_mean_exp(scaled)
    raw = _eps_from_log_terms(log_m, log_mean, lam)
    gamma_star = _optimal_gamma(log_m, log_mean, lam) if dominated else None
    params = {
        "m_codewords": m,
        "q_choice": family.q_tag(),
        "lam": lam,
        "divergences": (scaled / lam).tolist(),
    }
    if not dominated:
        params["domination_violation"] = True
    if m == 1:
        params["degenerate_single_codeword"] = True
    return BoundReport(
        method="strong_converse",
        eps_lower=_clamp_eps(raw),
        eps_raw=raw,
        lambda_star=lam,
        gamma_star=gamma_star,
        params=params,
    )


def _golden_max(g, lo: float, hi: float):
    """Golden-section maximization of g on [lo, hi]; returns (x, g(x))."""
    span = hi - lo
    c = hi - _INVPHI * span
    d = lo + _INVPHI * span
    gc, gd = g(c), g(d)
    for _ in range(_GOLDEN_ITERS):
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INVPHI * (hi - lo)
            gd = g(d)
    return (c, gc) if gc >= gd else (d, gd)


def optimize_lambda(
    family: ChannelFamily, lam_lo: float = 1e-6, lam_hi: float = 10.0
) -> BoundReport:
    """Best strong-converse bound over lam in [lam_lo, lam_hi].

    The raw bound need not be unimodal in lam, so a geometric pre-scan of
    _PRESCAN orders picks the basin first and golden section on log lam
    refines inside it, replacing the pre-scan maximum only when strictly
    higher.  The pre-scan is one batched evaluation of log S; for q* each
    order costs one normalizer instead of M divergences.

    When the pre-scan maximum is an end of the grid, one probe edge_tol
    inward of it (edge_tol = sqrt(eps) times the bracket width, the
    tolerance of the lambda_at_boundary flag) decides: if the probe is not
    higher, that end is kept and golden section is skipped.  Golden section
    would only have crept to within about edge_tol of the end, beating it,
    if at all, by rounding.  An end of the range is reported as lam_lo or
    lam_hi exactly.

    lam_lo and lam_hi must be finite with 0 < lam_lo < lam_hi; anything
    else raises ValueError.
    """
    if not (0.0 < lam_lo < lam_hi and math.isfinite(lam_hi)):
        raise ValueError(f"need finite 0 < lam_lo < lam_hi, got [{lam_lo!r}, {lam_hi!r}]")
    log_m = math.log(family.m_codewords)

    def raw(lams: list) -> list:
        log_means = family._log_mean_terms(np.array(lams)).tolist()
        return [_eps_from_log_terms(log_m, s, lam) for s, lam in zip(log_means, lams)]

    def raw_at(log_lam: float) -> float:
        return raw([math.exp(log_lam)])[0]

    lo, hi = math.log(lam_lo), math.log(lam_hi)
    grid = np.linspace(lo, hi, _PRESCAN)
    values = raw([math.exp(x) for x in grid.tolist()])
    best_idx = int(np.argmax(values))
    x_best, v_best = grid[best_idx], values[best_idx]
    bracket_lo = grid[max(best_idx - 1, 0)]
    bracket_hi = grid[min(best_idx + 1, _PRESCAN - 1)]
    # Golden section stalls where rounding in raw_at hides the slope, short
    # of a maximum at an end of the range by up to about sqrt(eps) times the
    # bracket it searched (3e-11 in log lam is common).
    edge_tol = math.sqrt(np.finfo(float).eps) * (bracket_hi - bracket_lo)
    # An edge maximum that does not rise one edge_tol inward is settled as is.
    inward = {0: edge_tol, _PRESCAN - 1: -edge_tol}.get(best_idx)
    if inward is None or raw_at(x_best + inward) > v_best:
        x_gold, v_gold = _golden_max(raw_at, bracket_lo, bracket_hi)
        if v_gold > v_best:
            x_best = x_gold
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
    log_mean = float(family._log_mean_terms(np.array([lam]))[0])
    exponent = log_mean - lam * math.log(g)
    if math.isnan(exponent):  # inf - inf
        return -math.inf
    return 1.0 - g / family.m_codewords - _exp_or_inf(exponent)


def _log_power_means(arrays: _FamilyArrays, power) -> np.ndarray:
    """log w(y) = log(mean_i p_i(y)^power) / power, shape (..., 1, K).

    power is 1 + lam: a float, or an (L, 1, 1) array of L orders.  With
    top = power colmax, which is the column max of power log p since
    rounding is monotone,

        log w = (top + log sum_i support exp(power filled - top) - log M) / power.

    A p = 0 cell enters exp as exactly 0 and is masked to the 0 that
    exp(-inf) gave, so w keeps the bits of a logsumexp over log p, and exp
    never takes numpy's slow path on -inf.  A column whose top overflows
    to -inf comes out NaN.
    """
    log_m = math.log(arrays.filled.shape[0])
    top = power * arrays.colmax
    terms = power * arrays.filled
    terms -= top
    np.exp(terms, out=terms)
    terms *= arrays.support
    return (top + np.log(terms.sum(axis=-2, keepdims=True)) - log_m) / power


def _log_qstar_weights(arrays: _FamilyArrays, lams: np.ndarray) -> np.ndarray:
    """log w(y) = log(mean_i p_i(y)^(1+lam)) / (1+lam) per order, shape (L, K).

    q* is w / C with C = sum_y w(y).  Every column needs a positive entry.
    Unchunked: callers pass at most one chunk of orders.

    At orders near the float maximum (1+lam) log p can overflow to -inf.
    An overflowed product lies below every finite one by far more than exp
    can resolve, so it drops out, unless its whole column overflowed: those
    columns come out NaN and are redone shifted by their top,
    log w = colmax + (logsumexp((1+lam)(log p - colmax)) - log M) / (1+lam).
    """
    log_m = math.log(arrays.filled.shape[0])
    power = 1.0 + lams[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        log_w = _log_power_means(arrays, power)[:, 0]
        overflowed = np.isnan(log_w)  # the columns whose every product overflowed
        if overflowed.any():
            at, y = np.nonzero(overflowed)
            cols = arrays.rows.log_probs[:, y].T
            top = arrays.colmax[y]
            shifted = power[at, 0] * (cols - top[:, None])
            log_w[at, y] = top + (_logsumexp(shifted) - log_m) / power[at, 0, 0]
    return log_w


@np.errstate(over="ignore", invalid="ignore")
def _log_qstar(arrays: _FamilyArrays, lam: float):
    """log q* (shape (K,)) and log C at one order: _log_qstar_weights for one lam."""
    log_m = math.log(arrays.filled.shape[0])
    power = 1.0 + lam
    log_w = _log_power_means(arrays, power)[0]
    log_c = float(_logsumexp(log_w.copy()))
    if math.isnan(log_c):  # a column whose every product overflowed: redo it shifted
        overflowed = np.isnan(log_w)
        cols = arrays.rows.log_probs[:, overflowed].T
        top = arrays.colmax[overflowed]
        log_w[overflowed] = top + (_logsumexp(power * (cols - top[:, None])) - log_m) / power
        log_c = float(_logsumexp(log_w.copy()))
    return log_w - log_c, log_c


def _log_qstar_mean_terms(arrays: _FamilyArrays, lams: np.ndarray) -> np.ndarray:
    """log S = (1+lam) log C per order, shape (L,), one chunk of weights at a time.

    Each w(y) is a power mean of the p_i(y), so at least their mean, and
    C >= 1: the product overflows only to +inf, which is lam D as a float
    (a vacuous floor).
    """
    step = _order_step(arrays.filled.size)
    log_c = np.empty(lams.size)
    for start in range(0, lams.size, step):
        chunk = slice(start, start + step)
        log_c[chunk] = _logsumexp(_log_qstar_weights(arrays, lams[chunk]))
    with np.errstate(over="ignore"):
        return (1.0 + lams) * log_c


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
    if mutual_info < 0.0:
        raise ValueError("mutual_info must be non-negative")
    kappa = hellinger_kl_coefficient(lam, ratio_sup)
    return (
        (1.0 + 1.0 / lam) * math.log((1.0 + lam) / (1.0 - eps))
        - math.log(lam)
        + math.log1p(lam * kappa * mutual_info) / lam
    )
