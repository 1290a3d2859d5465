"""Divergence measures on finite alphabets and simple parametric pairs.

Renyi-type quantities are parametrized by the order offset lam > 0, i.e. the
divergence of order 1 + lam.  That offset is the exponent appearing in the
change-of-measure steps behind the converse bounds in this package, so it is
passed around explicitly rather than the order itself.

Every Renyi-type sum on a finite alphabet goes through one private kernel,
`_renyi_log_sums`.  It takes pmfs as rows of one compact array
(`_PmfRows`): only their p > 0 cells, concatenated row by row, with each
row's start offset and each cell's column.  With the order-free log ratio
r = log p - log q of each cell to the reference, it returns
lam * D_(1+lam)(p_i || q) = log sum_y p_i(y)^(1+lam) q(y)^(-lam)
for a whole axis of orders at once, as an (orders, rows) array:

- Cells with p = 0 add nothing to a Renyi sum, so the kernel never visits
  them: each order sums a row's segment of live cells, all rows in one
  np.add.reduceat.  A product family built from letters with zero mass
  is mostly such cells.
- It evaluates log1p(S - 1), with S - 1 = sum_y p(y) expm1(lam r(y)) plus
  the exact defect sum_y p(y) - 1 of the row, and r = log p - log q.  Its
  error is then that of forming r, about eps lam sum_y p (|log p| + |log q|),
  however small lam D is.  log S itself would carry an error of about eps,
  which swamps lam D ~ 1e-8 at lam ~ 1e-6.
- A row whose terms overflow that form (lam r past ~709) is redone as a
  log-sum-exp of log p + lam r over its segment.  So reference masses down
  to the subnormal 5e-324 and orders up to 100 give finite values:
  `renyi_discrete` no longer returns inf (or NaN, where one term
  underflowed to 0 and its partner overflowed) where the true divergence
  is finite.  Where lam r itself passes the float maximum (orders near
  1.7e308), lam D is +inf.
- That guard, np.errstate(over="ignore") and a scan of the output for
  +inf, runs only where it can fire.  The caller passes an order-free
  bound on |r| (`converse.ChannelFamily` keeps one per family,
  `renyi_discrete` takes max |r| of its row); where lam times it is at
  most 709 for every order, no term overflows and the pass runs plain,
  with the same bits.
- One function, `_over_order_chunks`, runs every order-batched pass, this
  kernel's and q*'s normalizers in `converse` alike.  It cuts the order
  axis into chunks of max(1, 2^12 // N) orders (`_CHUNK_CELLS`), N the
  cells of one order: the live cells for this kernel, M K for q*'s dense
  weights.  Each chunk is a function of its slice of orders with
  temporaries of its own, so a call that fits in one chunk (every
  one-order call) returns that chunk's array and builds no output of its
  own.  Small families take each pass of `converse.optimize_lambda`'s
  pre-scan in a few chunks; a 16 x 4096 family takes one order at a time,
  in temporaries of at most 512 KiB.  Larger chunks
  bought no speed on small families and raised their peak memory.
- A pass of more than 2 x 2^21 entries (orders x N, `_SPLIT_CELLS`) is
  cut by the same function into min(CPUs, entries // 2^21, chunks)
  contiguous ranges of chunks: the calling thread runs the first and a
  thread of a stdlib pool each of the others.  Each range runs in a copy
  of the caller's context, so under the caller's np.errstate, if any (a
  context variable since numpy 2.0), and with the warnings a serial pass
  would give.  2^21 entries are about 5 ms of kernel work against about
  0.1 ms to start and join a thread.  So a pass of 64 orders of 2^16
  cells (the kernel's on a fully live 16 x 4096 family, q*'s normalizers'
  on any 16 x 4096 joint support) takes two ranges on any host with two
  or more CPUs.  `converse.optimize_lambda` passes at most 61 orders at a
  time, 3 in its first pass, and 61 x 65,536 = 3,997,696 entries stay
  under 2 x 2^21 = 4,194,304, so no `optimize_lambda` pass over such a
  family starts a thread; only larger families or longer batches split,
  and no pass of a family with M <= 6 and K <= 12^3 does.  Each order
  gets the same chunk either way, so the split keeps every bit.  No
  thread outlives a call and a pass of one part starts none.
- Since r does not depend on the order, a caller with a fixed reference
  forms it once and keeps it (`converse.ChannelFamily`), so no call repeats
  that subtraction.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
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

# Order-batched passes take at most max(1, _CHUNK_CELLS // N) orders of N
# cells each per chunk, so that orders x N stays below it whenever one
# order fits (see `_over_order_chunks`).
_CHUNK_CELLS = 1 << 12

# Order-batched passes take at most one thread per _SPLIT_CELLS entries and
# per CPU of the affinity mask, so a process pinned to one CPU starts none
# (see `_over_order_chunks`).
_SPLIT_CELLS = 1 << 21
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# exp() overflows past this; the kernel runs a pass without its overflow
# guard only where no lam r can pass it (see `_renyi_log_sums`).
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


def _log_or_neg_inf(arr: np.ndarray) -> np.ndarray:
    """Elementwise log with -inf at zeros, without a divide-by-zero warning."""
    out = np.full(arr.shape, -np.inf)
    np.log(arr, out=out, where=arr > 0.0)
    return out


class _PmfRows(NamedTuple):
    """Rows of pmfs on one alphabet, in the form the kernel reads: their p > 0 cells.

    The cells of every row are concatenated row by row, each row's in
    column order; row i is the segment from starts[i] up to the next row's
    start (or the end).  A pmf has mass somewhere, so no segment is empty.
    """

    probs: np.ndarray  # (N,) the p > 0 cells of every row
    # log_probs and cols are built only where a caller reads them (q*'s
    # per-order r = log p - log q*[cols] in `converse`), else None
    log_probs: np.ndarray | None  # (N,) log of probs, finite
    cols: np.ndarray | None  # (N,) each cell's column
    starts: np.ndarray  # (M,) each row's first cell
    # exact sum_y p_i(y) - 1 per row, from DiscretePmf._mass_defect: the sum
    # tolerance of DiscretePmf, up to 1e-12, is far above the precision lam D
    # needs at small orders; dropping zero cells leaves it as it is
    defect: np.ndarray  # (M,)


def _pmf_rows(mat: np.ndarray, defect: np.ndarray, live: np.ndarray | None = None) -> _PmfRows:
    """The p > 0 cells of the rows of mat, shape (M, K), as read-only _PmfRows.

    live is the mask mat > 0, where the caller has it already.  log_probs
    and cols are None.
    """
    if live is None:
        live = mat > 0.0
    probs = mat[live]  # row by row, each row in column order
    counts = live.sum(axis=1)
    starts = counts.cumsum() - counts
    for arr in (probs, starts, defect):
        arr.setflags(write=False)
    return _PmfRows(probs, None, None, starts, defect)


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp over one axis, overwriting a; every slice needs a finite entry."""
    top = a.max(axis=axis, keepdims=True)
    a -= top
    np.exp(a, out=a)
    return top.squeeze(axis) + np.log(a.sum(axis=axis))


def _over_order_chunks(chunk, lams: np.ndarray, cells: int) -> np.ndarray:
    """chunk over every order of lams, one chunk at a time, joined on the order axis.

    chunk takes a slice of lams, at most max(1, _CHUNK_CELLS // cells)
    orders of `cells` entries each, and returns their rows.  A pass
    that fits in one chunk (every one-order call among them) returns chunk's
    own array.  A pass of more than 2 x _SPLIT_CELLS entries is cut into
    min(_CPUS, L cells // _SPLIT_CELLS, chunks) contiguous ranges of chunks:
    the calling thread runs the first range and a pool thread each of the
    others.  Each range runs in a copy of the caller's context, so under
    the caller's numpy errstate (a context variable since numpy 2.0): the
    kernel's guard where its bound does not clear the orders, and none
    where it does, since no term can overflow there.  The pool joins every
    thread before this returns, and reading each range's result raises a
    worker's exception on the caller.  Each order gets the same chunk
    either way, so the split keeps every bit.
    """
    n_orders = lams.size
    step = max(1, _CHUNK_CELLS // cells)
    if n_orders <= step:
        return chunk(lams)

    def run(lo: int, hi: int) -> np.ndarray:
        # only the last chunk of lams is short
        return np.concatenate([chunk(lams[start:start + step]) for start in range(lo, hi, step)])

    chunks = -(-n_orders // step)
    parts = min(_CPUS, n_orders * cells // _SPLIT_CELLS, chunks)
    if parts < 2:  # the common case: one part
        return run(0, n_orders)
    # imported here: concurrent.futures imports logging, which no serial pass needs
    from concurrent.futures import ThreadPoolExecutor

    bounds = [chunks * i // parts * step for i in range(parts)] + [n_orders]
    with ThreadPoolExecutor(parts - 1) as pool:
        rest = [pool.submit(contextvars.copy_context().run, run, lo, hi)
                for lo, hi in zip(bounds[1:-1], bounds[2:])]
        first = run(bounds[0], bounds[1])
    return np.concatenate([first] + [future.result() for future in rest])


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


def _renyi_log_sums(rows: _PmfRows, log_ratio: np.ndarray, lams: np.ndarray,
                    r_bound: float = math.inf) -> np.ndarray:
    """lam D_(1+lam)(p_i || q) for every order lam and row p_i, shape (L, M).

    log_ratio is r = log p_i - log q on the cells of rows, shape (N,), one
    reference for every order.  r_bound is an order-free bound on |r| (inf
    where none is known).  Each order sums only the p > 0 cells, one
    np.add.reduceat over the row segments.  The orders run in chunks of N
    live cells each (`_over_order_chunks`), each in a temporary of its
    own.  Where lam r_bound <= _EXP_OVERFLOW for every order, no lam r
    passes the float range on either side and no term of S - 1 exceeds
    p exp(709), so the pass runs plain: no np.errstate and no scan for
    +inf.  Any other pass runs under np.errstate(over="ignore") (a split
    pass's ranges too, each in a copy of the caller's context), and rows
    whose S - 1 overflowed are redone after it, on the calling thread, as
    a log-sum-exp of log p + lam r over the row's segment, one order at a
    time; where lam r itself overflowed, that gives +inf, which is lam D
    as a float.
    """
    probs, starts = rows.probs, rows.starts

    def chunk(lam: np.ndarray) -> np.ndarray:
        terms = np.multiply(log_ratio, lam[:, None])
        np.expm1(terms, out=terms)
        terms *= probs
        excess = np.add.reduceat(terms, starts, axis=-1)
        excess += rows.defect  # S - 1
        return np.log1p(excess, out=excess)

    if max(lams.tolist()) * r_bound <= _EXP_OVERFLOW:
        return _over_order_chunks(chunk, lams, probs.size)
    with np.errstate(over="ignore"):
        out = _over_order_chunks(chunk, lams, probs.size)
        if out.max() == math.inf:  # only where S - 1 overflowed
            log_probs = np.log(probs)
            for li in np.nonzero(out.max(axis=1) == math.inf)[0].tolist():
                hit = out[li] == math.inf
                logs = log_probs + lams[li] * log_ratio
                out[li, hit] = _segment_logsumexp(logs, starts)[hit]
    return out


def renyi_discrete(p: DiscretePmf, q: DiscretePmf, order) -> float:
    """Renyi divergence of order 1+lam: log(sum_i p_i^(1+lam) q_i^(-lam)) / lam.

    Outcomes with p_i = 0 contribute nothing regardless of q_i.  Mass of p on
    a zero of q raises AbsoluteContinuityError.  The sum is taken in log
    space, so the result is finite even where the sum itself would overflow.
    """
    lam = _lam(order)
    ps, qs = _on_support(p, q)
    # one row, starts = [0]
    rows = _pmf_rows(ps[None], np.array([p._mass_defect]))
    log_ratio = np.log(rows.probs) - np.log(qs)
    log_sum = _renyi_log_sums(rows, log_ratio, np.array([lam]), float(np.abs(log_ratio).max()))
    return float(log_sum[0, 0]) / lam


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
    """Uniform mixture of pmfs on a shared alphabet."""
    return DiscretePmf(np.stack([pm.probs for pm in pmfs]).mean(axis=0))
