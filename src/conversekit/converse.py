"""Lower bounds on M-ary identification error and the risks they imply.

The central bound turns per-codeword Renyi divergences to a reference
distribution into a floor on the average error probability of any decoder:

    eps >= 1 - (1+lam) / (lam M)^(lam/(1+lam)) * S^(1/(1+lam)),
    S = (1/M) sum_i exp(lam D_i),  D_i = Renyi_(1+lam)(P_i || Q),

valid for every lam > 0 and every reference Q dominating all conditionals.
Fano-type baselines live here too, so the two can be compared on equal
footing.

On first use a discrete ChannelFamily builds its conditionals once as
matrices (see `divergence._PmfRows`) restricted to their joint support,
plus, for the order-free references (uniform, mixture, an explicit pmf),
the reference, log Q and the rows Q fails to dominate; it keeps them.
The terms lam D_i then come from the one log-space kernel
`divergence._renyi_log_sums`, for a whole axis of orders per call, in
chunks that bound its memory; q*, which moves with the order, takes one
call per order.  q* itself and its normalizer C come from the same kept
rows, for `reference_pmf` and `optimal_q_discrete` alike.  For q* no
divergence is needed for S itself: with C the normalizer of q*,
S = C^(1+lam) (Sibson's alpha-mutual information; Sibson 1969, Verdu
2015), which `optimize_lambda` and `variational_bound` use.
`strong_converse_bound` still reports every D_i, from the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .divergence import (
    DiscretePmf,
    GaussianShiftPair,
    _lam,
    _log_or_neg_inf,
    _logsumexp,
    _order_chunks,
    _PmfRows,
    _positive,
    _renyi_log_sums,
    hellinger_kl_coefficient,
    kl_discrete,
    mixture_pmf,
    renyi_gaussian_shift,
)

__all__ = [
    "Q_CHOICES",
    "ChannelFamily",
    "BoundReport",
    "LossSpec",
    "strong_converse_eps_from_log_terms",
    "strong_converse_eps_from_divergences",
    "strong_converse_bound",
    "optimize_lambda",
    "variational_bound",
    "optimal_q_discrete",
    "avg_kl_to_mixture",
    "fano_bound",
    "generalized_fano_log_m_bound",
    "generalized_fano_fixed_order_check",
    "risk_from_eps",
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
    log_q: np.ndarray | None = None
    undominated: np.ndarray | None = None  # rows with mass where Q = 0


@dataclass(frozen=True, eq=False)
class ChannelFamily:
    """M conditional distributions plus a reference-distribution choice.

    Conditionals are either all DiscretePmf on one alphabet or all
    GaussianShiftPair (each pair already names its centered reference, so
    q_choice is pinned to "centered" there).
    """

    conditionals: tuple
    q_choice: object = "mixture"

    def __post_init__(self):
        conds = tuple(self.conditionals)
        if not conds:
            raise ValueError("family needs at least one conditional")
        object.__setattr__(self, "conditionals", conds)
        if all(isinstance(c, DiscretePmf) for c in conds):
            kind = "discrete"
            size = conds[0].support_size
            if any(c.support_size != size for c in conds):
                raise ValueError("conditionals must share one alphabet")
            q = self.q_choice
            if isinstance(q, DiscretePmf):
                if q.support_size != size:
                    raise ValueError("explicit q must live on the family alphabet")
            elif q not in Q_CHOICES:
                raise ValueError(f"q_choice must be a DiscretePmf or one of {Q_CHOICES}")
        elif all(isinstance(c, GaussianShiftPair) for c in conds):
            kind = "gaussian"
            if self.q_choice != "centered":
                raise ValueError('gaussian families use q_choice="centered"')
        else:
            raise ValueError("conditionals must be all DiscretePmf or all GaussianShiftPair")
        object.__setattr__(self, "_kind", kind)

    @cached_property
    def _arrays(self) -> _FamilyArrays:
        """The matrices of a discrete family, built on first use and kept.

        Outcomes no conditional puts mass on add nothing to any Renyi sum,
        so the rows keep only the joint support.  For an order-free
        reference also keep log Q there (0 stands in where Q = 0) and the
        rows Q fails to dominate; q* is rebuilt per order from the rows.
        """
        mat = np.stack([c.probs for c in self.conditionals])
        joint = np.any(mat > 0.0, axis=0)
        probs = mat if joint.all() else mat[:, joint]
        defect = np.array([c._mass_defect for c in self.conditionals])
        rows = _PmfRows(probs, _log_or_neg_inf(probs), defect)
        for arr in rows:
            arr.setflags(write=False)
        if self.q_choice == "qstar":
            return _FamilyArrays(rows, joint)
        if isinstance(self.q_choice, DiscretePmf):
            ref = self.q_choice
        elif self.q_choice == "uniform":
            ref = DiscretePmf(np.full(mat.shape[1], 1.0 / mat.shape[1]))
        else:
            ref = mixture_pmf(self.conditionals)
        q = ref.probs[joint]
        undominated = np.flatnonzero(np.any((rows.probs > 0.0) & (q == 0.0), axis=1))
        return _FamilyArrays(rows, joint, ref, np.log(np.where(q > 0.0, q, 1.0)), undominated)

    @classmethod
    def gaussian(cls, pairs) -> "ChannelFamily":
        return cls(tuple(pairs), q_choice="centered")

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def m_codewords(self) -> int:
        return len(self.conditionals)

    def q_tag(self) -> str:
        return "explicit" if isinstance(self.q_choice, DiscretePmf) else str(self.q_choice)

    def reference_pmf(self, order=None) -> DiscretePmf:
        """The reference distribution Q actually used, resolved per q_choice."""
        if self.kind != "discrete":
            raise ValueError("reference_pmf applies to discrete families")
        if self.q_choice != "qstar":
            return self._arrays.ref
        if order is None:
            raise ValueError("q_choice 'qstar' needs the divergence order")
        return DiscretePmf(self._qstar(_lam(order))[0])

    def _qstar(self, lam: float) -> tuple[np.ndarray, float]:
        """q* at order offset lam on the full alphabet, with its normalizer C."""
        arrays = self._arrays
        log_q, log_c = _log_qstar(arrays.rows.log_probs, np.array([lam]))
        q = np.zeros(arrays.joint.size)
        q[arrays.joint] = np.exp(log_q[0])
        return q, math.exp(log_c[0])

    def _dominated(self) -> bool:
        """Whether Q dominates every conditional; q* and the Gaussian centres do.

        Not read off the divergences: lam D overflows to inf at orders near
        the float maximum even where Q dominates.
        """
        if self.kind == "gaussian" or self.q_choice == "qstar":
            return True
        return not self._arrays.undominated.size

    def divergences(self, order) -> np.ndarray:
        """Per-codeword divergences to the reference; inf marks a domination failure."""
        lam = _lam(order)
        return self._scaled_divergences(np.array([lam]))[0] / lam

    def _scaled_divergences(self, lams: np.ndarray) -> np.ndarray:
        """lam D_i for each order in lams and each codeword, shape (L, M)."""
        if self.kind == "gaussian":
            return np.array(
                [[lam * renyi_gaussian_shift(pair, lam) for pair in self.conditionals]
                 for lam in lams.tolist()]
            )
        arrays = self._arrays
        if arrays.ref is None:  # q* moves with the order: one kernel call per order
            return np.concatenate([
                _renyi_log_sums(arrays.rows, _log_qstar(arrays.rows.log_probs, lam)[0][0], lam)
                for lam in (lams[i:i + 1] for i in range(lams.size))
            ])
        out = _renyi_log_sums(arrays.rows, arrays.log_q, lams)
        if arrays.undominated.size:
            out[:, arrays.undominated] = math.inf
        return out

    def _log_mean_terms(self, lams: np.ndarray) -> np.ndarray:
        """log S = log mean_i exp(lam D_i) for each order in lams, shape (L,).

        For q* this is (1+lam) log C from the normalizer alone.
        """
        if self.q_choice == "qstar":
            return _log_qstar_mean_terms(self._arrays.rows.log_probs, lams)
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


@dataclass(frozen=True)
class LossSpec:
    """Loss shape w plus the packing scale it is evaluated at.

    w_kind "identity" is w(u) = u, "power" is w(u) = u^p, "indicator" is
    w(u) = 1{u >= c}.  The risk floor uses w at u = A * psi_n, half the
    minimum packing distance.
    """

    w_kind: str
    A: float = 1.0
    psi_n: float = 1.0
    p: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.w_kind not in ("identity", "power", "indicator"):
            raise ValueError("w_kind must be identity, power or indicator")
        if self.A < 0.0 or self.psi_n < 0.0:
            raise ValueError("A and psi_n must be non-negative")
        if self.w_kind == "power" and (self.p is None or self.p <= 0.0):
            raise ValueError("power loss needs exponent p > 0")
        if self.w_kind == "indicator" and (self.c is None or self.c <= 0.0):
            raise ValueError("indicator loss needs threshold c > 0")

    def evaluate_w(self, u: float) -> float:
        if u < 0.0:
            raise ValueError("w is defined on u >= 0")
        if self.w_kind == "identity":
            return u
        if self.w_kind == "power":
            return u**self.p
        return 1.0 if u >= self.c else 0.0


def _clamp_eps(raw: float) -> float:
    if math.isnan(raw):
        raise ValueError("bound evaluated to NaN")
    return min(1.0, max(0.0, raw))


def _log_mean_exp(values):
    """log((1/n) sum_i exp(v_i)) over the last axis, tolerating +inf entries."""
    arr = np.asarray(values, dtype=np.float64)
    top = arr.max(axis=-1, keepdims=True)
    top[np.isinf(top)] = 0.0  # a row holding +inf comes out +inf
    return top[..., 0] + np.log(np.exp(arr - top).sum(axis=-1) / arr.shape[-1])


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
    lam = _lam(lam)
    if math.isinf(log_mean_term):
        return -math.inf
    log_factor = (
        math.log1p(lam)
        - lam / (1.0 + lam) * (math.log(lam) + log_m)
        + log_mean_term / (1.0 + lam)
    )
    return _one_minus_scaled_exp(1.0, log_factor)


def strong_converse_eps_from_divergences(m_codewords: float, divergences, lam) -> float:
    """Raw eps floor for a (possibly fractional) codeword count and divergence list."""
    lam = _lam(lam)
    if m_codewords < 1.0:
        raise ValueError("m_codewords must be at least 1")
    divs = np.asarray(divergences, dtype=np.float64)
    log_mean = float(_log_mean_exp(lam * divs))
    return strong_converse_eps_from_log_terms(math.log(m_codewords), log_mean, lam)


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
    scaled = family._scaled_divergences(np.array([lam]))[0]
    divs = scaled / lam
    dominated = family._dominated()
    log_mean = float(_log_mean_exp(scaled))
    raw = strong_converse_eps_from_log_terms(math.log(m), log_mean, lam)
    gamma_star = _optimal_gamma(math.log(m), log_mean, lam) if dominated else None
    params = {
        "m_codewords": m,
        "q_choice": family.q_tag(),
        "lam": lam,
        "divergences": [float(d) for d in divs],
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
        return [strong_converse_eps_from_log_terms(log_m, s, lam)
                for s, lam in zip(log_means, lams)]

    def raw_at(log_lam: float) -> float:
        return raw([math.exp(log_lam)])[0]

    lo, hi = math.log(lam_lo), math.log(lam_hi)
    grid = np.linspace(lo, hi, _PRESCAN)
    values = raw([math.exp(x) for x in grid])
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
    single gamma gives a valid (weaker) floor.
    """
    lam = _lam(order)
    g = _positive("gamma", gamma)
    log_mean = float(family._log_mean_terms(np.array([lam]))[0])
    return 1.0 - g / family.m_codewords - _exp_or_inf(log_mean - lam * math.log(g))


def _log_qstar_weights(log_probs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """log w(y) = log(mean_i p_i(y)^(1+lam)) / (1+lam) per order, shape (L, K).

    q* is w / C with C = sum_y w(y).  Every column needs a positive entry.
    Unchunked: callers pass at most one chunk of orders.

    At orders near the float maximum (1+lam) log p can overflow to -inf.
    An overflowed product lies below every finite one by far more than exp
    can resolve, so it drops out, unless its whole column overflowed: those
    columns come out NaN and are redone shifted by their top,
    log w = top + (logsumexp((1+lam)(log p - top)) - log M) / (1+lam).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_qstar_weights_in_errstate(log_probs, lams)


def _log_qstar_weights_in_errstate(log_probs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """_log_qstar_weights, for callers that already ignore over and invalid."""
    log_m = math.log(log_probs.shape[0])
    power = 1.0 + lams[:, None]
    log_w = (_logsumexp(power[..., None] * log_probs, axis=1) - log_m) / power
    overflowed = np.isnan(log_w)  # the columns whose every product overflowed
    if overflowed.any():
        at, y = np.nonzero(overflowed)
        cols = log_probs[:, y].T
        top = cols.max(axis=1)
        shifted = power[at] * (cols - top[:, None])
        log_w[at, y] = top + (_logsumexp(shifted) - log_m) / power[at, 0]
    return log_w


def _log_qstar(log_probs: np.ndarray, lams: np.ndarray):
    """log q* and log C per order, shapes (L, K) and (L,); lams is one chunk."""
    log_w = _log_qstar_weights(log_probs, lams)
    log_c = _logsumexp(log_w.copy())
    return log_w - log_c[:, None], log_c


def _log_qstar_mean_terms(log_probs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """log S = (1+lam) log C per order, shape (L,), one chunk of weights at a time.

    Each w(y) is a power mean of the p_i(y), so at least their mean, and
    C >= 1: the product overflows only to +inf, which is lam D as a float
    (a vacuous floor).  One errstate covers it and every chunk's weights.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        log_c = np.concatenate([
            _logsumexp(_log_qstar_weights_in_errstate(log_probs, lams[sl]))
            for sl in _order_chunks(lams.size, log_probs.size)
        ])
        return (1.0 + lams) * log_c


def optimal_q_discrete(conditionals, order):
    """Reference pmf minimizing the strong-converse prefactor, with its normalizer.

    q*(y) is proportional to (mean_i p_i(y)^(1+lam))^(1/(1+lam)); returns
    (q_star, C) where C is the normalizing constant.
    """
    q, c = ChannelFamily(tuple(conditionals), "qstar")._qstar(_lam(order))
    return DiscretePmf(q), c


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
    m = int(m_codewords)
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


def generalized_fano_fixed_order_check(order, m_codewords: int, mutual_info: float, eps: float):
    """Fixed-order variant: log M <= 1 + I / (lam^lam (1-eps)^(1+lam) / (1+lam)^(1+lam) - M^-lam).

    Needs M >= 3; returns the right-hand side, or None when the denominator
    is non-positive and the variant is vacuous.
    """
    lam = _lam(order)
    m = int(m_codewords)
    if m < 3:
        raise ValueError("fixed-order variant needs M >= 3")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    den = lam**lam * (1.0 - eps) ** (1.0 + lam) / (1.0 + lam) ** (1.0 + lam) - m ** (-lam)
    if den <= 0.0:
        return None
    return 1.0 + mutual_info / den


def risk_from_eps(loss: LossSpec, eps_lower: float, packing=None) -> float:
    """Risk floor w(A psi_n) * eps_lower implied by an error floor.

    When a packing is supplied, its minimum distance must equal 2 A psi_n
    (the separation that makes estimation at least as hard as testing).
    """
    if not 0.0 <= eps_lower <= 1.0:
        raise ValueError("eps_lower must lie in [0, 1]")
    if packing is not None:
        want = 2.0 * loss.A * loss.psi_n
        have = float(packing.d_min)
        if not math.isclose(have, want, rel_tol=1e-9, abs_tol=0.0):
            raise ValueError(
                f"packing minimum distance {have!r} != 2 A psi_n = {want!r}"
            )
    return loss.evaluate_w(loss.A * loss.psi_n) * eps_lower
