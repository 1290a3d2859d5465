"""Packing constructions: greedy binary codes, sparse spherical packings, trims.

Separation claims are certified by measurement (pairwise distances from
`verify_packing`, the covariance deviation), so downstream risk bounds never
have to trust a construction on faith.  `SparsePacking` does so at
construction; a `BinaryCodebook`'s d_min is a claim its caller certifies.

- `gv_greedy` keeps a byte per word of {0,1}^m.  Each kept codeword c bans
  its Hamming ball c ^ {words of weight < d_min} in one numpy store, and a
  candidate is kept iff it is not banned: the greedy rule, in candidate
  order, with no distance computed.
- A `PackingSet` holds its elements as the rows of one read-only array.
  `verify_packing` compares them in row blocks of at most 2^20 elements
  (`_PAIR_BLOCK_ELEMENTS`) or one row, so its memory stays bounded on large
  codes.  Hamming distances are exact integer counts, so the first
  lexicographic minimum is read off directly.  For l2 the Gram form
  |a|^2 + |b|^2 - 2 a.b screens every pair, and only pairs within a rounding
  slack of the screened minimum are measured again with
  `PackingSet.distance`, in (i, j) order, so the certificate is the one the
  plain pair loop gives.  Screen and distance both scale by a power of two
  (Blue's norm): no overflow or underflow where the true distance is a float.
- `cs_random_packing` tests a candidate x with support S against the
  accepted rows a by the gaps |a|^2 + |x|^2 - 2 a[S].x, O(M k) per
  candidate instead of a dense O(M n) difference row, and keeps the rows
  in a buffer that doubles when full.  The two forms round differently, so
  an accept can flip only for a gap within a few ulps of 1/2; the packing
  is the one the dense loop gives on every seed tested, and the
  `verify_packing` certificate that `SparsePacking` takes still rejects a
  packing that is truly too close.
- `SparsePacking.beta_hat` is n ||(1/M) V^T V - I/n||_op.  For M < n it
  comes from the M x M Gram (1/M) V V^T, which has the same nonzero
  eigenvalues; the n - M unspanned directions add -1/n, so the norm is
  max(||V V^T/M - I_M/n||, 1/n).  For M >= n the n x n form is used.
  Both go through `operator_norm`.
- `operator_norm` is the largest |eigenvalue| from `np.linalg.eigvalsh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _positive, _positive_int
from .oracle import CapabilityError

__all__ = [
    "METRIC_TAGS",
    "PackingIncompleteError",
    "BinaryCodebook",
    "SparsePacking",
    "PackingSet",
    "PackingCertificate",
    "gv_greedy",
    "verify_packing",
    "cs_random_packing",
    "trim_packing",
    "operator_norm",
]

METRIC_TAGS = ("hamming", "l2")

# Exhaustive binary enumeration cap (2^m candidate vectors).
MAX_GV_BITS = 24

# Ambient-dimension cap for the sparse packing sampler.
MAX_SPARSE_DIM = 512

# Sparse packings must keep pairwise squared distances at or above this.
SPARSE_MIN_SQ_DIST = 0.5

_UNIT_NORM_TOL = 1e-12


class PackingIncompleteError(RuntimeError):
    """Rejection sampling ran out of attempts; carries the partial packing."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True, eq=False)
class BinaryCodebook:
    """Binary codewords of length m, claimed pairwise Hamming distance >= d_min.

    Construction checks the bits and that d_min is a whole number in [1, m],
    but does not measure the distance: `gv_greedy(24, 1)` holds 2^24 words,
    about 1.4e14 pairs.  `verify_packing(codebook.to_packing_set())`
    certifies it.
    """

    m: int
    d_min: int
    codewords: np.ndarray  # shape (M, m), entries in {0, 1}

    def __post_init__(self):
        raw = np.asarray(self.codewords)
        if raw.ndim != 2 or raw.shape[1] != self.m:
            raise ValueError("codewords must be an (M, m) bit array")
        if raw.shape[0] < 1:
            raise ValueError("codebook must hold at least one codeword")
        # checked before the cast to uint8, which would truncate 0.5 or 1.7 to a bit
        if not np.array_equal(raw, raw.astype(bool)):
            raise ValueError("codeword entries must be bits")
        d_min = _positive_int("d_min", self.d_min)
        if d_min > self.m:
            raise ValueError("d_min must lie in [1, m]")
        object.__setattr__(self, "d_min", d_min)
        bits = raw.astype(np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "codewords", bits)

    @property
    def size(self) -> int:
        return int(self.codewords.shape[0])

    def to_packing_set(self) -> "PackingSet":
        return PackingSet(
            elements=self.codewords,
            metric="hamming",
            d_min=float(self.d_min),
        )


@dataclass(frozen=True, eq=False)
class SparsePacking:
    """Unit-norm k-sparse vectors in R^n, pairwise squared distance >= 1/2.

    min_sq_distance and beta_hat are measured from the vectors at
    construction time; beta_hat = n * ||(1/M) sum u u^T - I/n||_op records
    how far the empirical second moment sits from isotropic.
    """

    n: int
    k: int
    vectors: np.ndarray  # shape (M, n)

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_int("n", self.n))
        object.__setattr__(self, "k", _positive_int("k", self.k))
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[1] != self.n:
            raise ValueError("vectors must be an (M, n) array")
        if vecs.shape[0] < 1:
            raise ValueError("packing must hold at least one vector")
        if self.k > self.n:
            raise ValueError("need 1 <= k <= n")
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
            raise ValueError("vectors must have unit norm within 1e-12")
        if np.any((vecs != 0.0).sum(axis=1) > self.k):
            raise ValueError("vectors must have at most k nonzero entries")
        vecs = vecs.copy()
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

        min_sq = verify_packing(self.to_packing_set()).min_distance ** 2
        if min_sq < SPARSE_MIN_SQ_DIST - 1e-12:
            raise ValueError(
                f"pairwise squared distance {min_sq} below {SPARSE_MIN_SQ_DIST}"
            )
        object.__setattr__(self, "min_sq_distance", min_sq)
        object.__setattr__(self, "beta_hat", self.n * _isotropy_deviation(vecs))

    @property
    def size(self) -> int:
        return int(self.vectors.shape[0])

    def to_packing_set(self) -> "PackingSet":
        return PackingSet(
            elements=self.vectors,
            metric="l2",
            d_min=math.sqrt(SPARSE_MIN_SQ_DIST),
        )


def _isotropy_deviation(vecs: np.ndarray) -> float:
    """||(1/M) V^T V - I/n||_op for the (M, n) rows V, from the smaller Gram.

    (1/M) V V^T and (1/M) V^T V share their nonzero eigenvalues mu_j; when
    M < n the n - M directions no row spans add eigenvalue 0, so the
    deviation there is -1/n and the norm is max(||V V^T/M - I_M/n||, 1/n).
    """
    size, n = vecs.shape
    if size >= n:
        return operator_norm(vecs.T @ vecs / size - np.eye(n) / n)
    return max(operator_norm(vecs @ vecs.T / size - np.eye(size) / n), 1.0 / n)


@dataclass(frozen=True, eq=False)
class PackingSet:
    """Elements of one shape, claimed pairwise >= d_min apart under hamming or l2.

    `elements` is one read-only (M, dim) array of the flattened elements.
    l2 rows are float64 and must be finite: a NaN distance compares below
    nothing, so a certificate would skip its pair.  An l2 distance is the
    norm of the difference scaled by a power of two, inf only where the
    true distance is too.
    """

    elements: np.ndarray
    metric: str
    d_min: float

    def __post_init__(self):
        try:
            rows = np.array(self.elements)
        except ValueError:
            raise ValueError("packing elements must all have one shape") from None
        if rows.ndim == 0 or len(rows) == 0:
            raise ValueError("packing set must hold at least one element")
        if self.metric not in METRIC_TAGS:
            raise ValueError(f"metric must be one of {METRIC_TAGS}")
        rows = rows.reshape(len(rows), math.prod(rows.shape[1:]))
        if self.metric == "l2":
            rows = rows.astype(np.float64, copy=False)
            if not np.all(np.isfinite(rows)):
                raise ValueError("l2 packing elements must be finite")
        rows.setflags(write=False)
        object.__setattr__(self, "elements", rows)
        _positive("d_min", self.d_min)

    def distance(self, i: int, j: int) -> float:
        a, b = self.elements[i], self.elements[j]
        if self.metric == "hamming":
            return float(np.sum(a != b))
        # a difference or distance past the float maximum is inf, as is the true distance
        with np.errstate(over="ignore"):
            diff, exp = _pow2_scaled(a - b)
            return float(np.ldexp(np.sqrt(diff.dot(diff)), exp))


def _pow2_scaled(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(rows * 2^-exp, exp) with the largest |entry| in [1/2, 1) (Blue, ACM TOMS 1978).

    Exact: a square or dot product keeps its bits wherever it did not
    overflow or underflow unscaled.
    """
    exp = math.frexp(float(np.abs(rows).max(initial=0.0)))[1]
    return np.ldexp(rows, -exp), exp


@dataclass(frozen=True)
class PackingCertificate:
    """Result of checking a packing's separation claim."""

    min_distance: float
    argmin_pair: tuple | None
    passed: bool


def verify_packing(packing: PackingSet) -> PackingCertificate:
    """Measure the minimum pairwise distance and compare against the claim.

    A single-element packing passes vacuously with min_distance = +inf.
    Ties at the minimum go to the first pair (i, j), i < j, in lexicographic
    order.
    """
    rows = packing.elements
    if len(rows) == 1:
        return PackingCertificate(math.inf, None, True)
    if packing.metric == "hamming":
        best, pair = _hamming_min_pair(rows)
    else:
        # a tie compares the pairs, which come in (i, j) order: the first wins
        best, pair = min((packing.distance(i, j), (i, j)) for i, j in _l2_screened_pairs(rows))
    return PackingCertificate(best, pair, best >= packing.d_min)


# Row blocks of the pairwise-distance pass hold at most this many elements.
_PAIR_BLOCK_ELEMENTS = 1 << 20


def _row_blocks(size: int, per_row: int):
    """Row ranges (i0, i1) of _PAIR_BLOCK_ELEMENTS // per_row rows (at least one)."""
    step = max(1, _PAIR_BLOCK_ELEMENTS // max(per_row, 1))
    return ((i0, min(i0 + step, size)) for i0 in range(0, size, step))


def _hamming_min_pair(rows: np.ndarray) -> tuple[float, tuple | None]:
    """Exact integer Hamming distances, block by block; first lexicographic minimum."""
    size, dim = rows.shape
    best = math.inf
    pair = None
    for i0, i1 in _row_blocks(size, size * dim):
        block = (rows[i0:i1, None, :] != rows[None, :, :]).sum(axis=2, dtype=np.float64)
        block[np.tri(i1 - i0, size, i0, dtype=bool)] = math.inf
        k = int(np.argmin(block))
        if block.flat[k] < best:
            best, pair = float(block.flat[k]), (i0 + k // size, k % size)
    return best, pair


def _l2_screened_pairs(rows: np.ndarray) -> list[tuple[int, int]]:
    """Pairs, in (i, j) order, whose squared distance may be the exact minimum.

    The Gram form |a|^2 + |b|^2 - 2 a.b of the _pow2_scaled rows screens all
    pairs; its rounding error and that of the per-pair dot product and square
    root PackingSet.distance takes come to less than (8 dim + 30) eps times
    the largest squared norm in all (plus a few subnormal spacings per term,
    for underflow), so a slack of 16 (dim + 4) (eps max|a|^2 + tiny) above
    the screened minimum keeps every pair the exact scan could pick.
    """
    rows = _pow2_scaled(rows)[0]
    size, dim = rows.shape
    sq_norms = np.einsum("ij,ij->i", rows, rows)
    eps = np.finfo(np.float64)
    slack = 16.0 * (dim + 4) * (eps.eps * float(sq_norms.max()) + eps.tiny)
    cut = math.inf
    kept_i, kept_j, kept_sq = [], [], []
    for i0, i1 in _row_blocks(size, size):
        block = sq_norms[i0:i1, None] + sq_norms[None, :] - 2.0 * (rows[i0:i1] @ rows.T)
        block[np.tri(i1 - i0, size, i0, dtype=bool)] = math.inf
        cut = min(cut, float(block.min()) + slack)
        i, j = np.nonzero(block <= cut)
        kept_i.append(i + i0)
        kept_j.append(j)
        kept_sq.append(block[i, j])
    near = np.concatenate(kept_sq) <= cut
    return list(zip(np.concatenate(kept_i)[near].tolist(), np.concatenate(kept_j)[near].tolist()))


# === Greedy binary codes ===


def _ints_to_bits(ints: np.ndarray, m: int) -> np.ndarray:
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint32)
    return ((ints[:, None] >> shifts) & 1).astype(np.uint8)


def gv_greedy(m: int, d_min: int, order: str = "lexicographic", seed: int = 0) -> BinaryCodebook:
    """Greedy maximal binary code: scan all 2^m vectors, keep compatible ones.

    The result is maximal, so radius-(d_min - 1) balls around the kept words
    cover {0,1}^m and the size is at least 2^m / V(m, d_min - 1).  Candidate
    order is lexicographic or a seeded random permutation; the construction
    is deterministic given (order, seed).

    Instead of measuring distances, each kept word c bans its Hamming ball
    c ^ {words of weight < d_min}; a candidate is kept iff it is not banned,
    which is the same greedy rule in the same order.
    """
    m = _positive_int("m", m)
    if m > MAX_GV_BITS:
        raise CapabilityError(f"m = {m} exceeds exhaustive enumeration cap {MAX_GV_BITS}")
    d_min = _positive_int("d_min", d_min)
    if d_min > m:
        raise ValueError("d_min must lie in [1, m]")
    if order not in ("lexicographic", "seeded_random"):
        raise ValueError("order must be 'lexicographic' or 'seeded_random'")

    words = np.arange(1 << m, dtype=np.uint32)
    candidates = words
    if order == "seeded_random":
        rng = np.random.default_rng(seed)
        candidates = rng.permutation(words)

    if d_min == 1:
        bits = _ints_to_bits(candidates, m)
        return BinaryCodebook(m=m, d_min=1, codewords=bits)

    ball = words[np.bitwise_count(words) < d_min]
    banned = bytearray(1 << m)
    banned_view = np.frombuffer(banned, dtype=np.uint8)
    chosen: list[int] = []
    for c in candidates.tolist():
        if not banned[c]:
            chosen.append(c)
            banned_view[ball ^ c] = 1
    bits = _ints_to_bits(np.array(chosen, dtype=np.uint32), m)
    return BinaryCodebook(m=m, d_min=d_min, codewords=bits)


# === Sparse spherical packings ===


def cs_random_packing(
    n: int,
    k: int,
    m_target: int,
    seed: int = 0,
    max_attempts: int | None = None,
) -> SparsePacking:
    """Rejection-sample m_target unit-norm k-sparse vectors, squared gaps >= 1/2.

    Supports are uniform k-subsets and entries isotropic Gaussian before
    normalization.  The design scale for this construction is
    m_target <= (n/k)^(k/4); larger targets are attempted anyway and fail
    with PackingIncompleteError (carrying the best partial packing) when the
    attempt budget runs out.
    """
    n = _positive_int("n", n)
    if n > MAX_SPARSE_DIM:
        raise CapabilityError(f"n = {n} exceeds sampler cap {MAX_SPARSE_DIM}")
    k = _positive_int("k", k)
    if k > n:
        raise ValueError("need 1 <= k <= n")
    m_target = _positive_int("m_target", m_target)
    if max_attempts is None:
        max_attempts = 1000 * m_target
    rng = np.random.default_rng(seed)
    # accepted rows and their squared norms, in a buffer that doubles when
    # full: m_target is unbounded, and a target that fails reserves nothing
    rows = np.zeros((min(m_target, 16), n))
    sq_norms = np.empty(rows.shape[0])
    count = 0
    for _ in range(max_attempts):
        support = rng.choice(n, size=k, replace=False)
        entries = rng.standard_normal(k)
        norm = np.linalg.norm(entries)
        if norm == 0.0:
            continue
        vec = entries / norm
        vec_sq = float(vec @ vec)
        if count:
            gaps = sq_norms[:count] + vec_sq - 2.0 * (rows[:count, support] @ vec)
            if gaps.min() < SPARSE_MIN_SQ_DIST:
                continue
        if count == rows.shape[0]:
            grow = min(count, m_target - count)
            rows = np.concatenate([rows, np.zeros((grow, n))])
            sq_norms = np.concatenate([sq_norms, np.empty(grow)])
        rows[count, support] = vec
        sq_norms[count] = vec_sq
        count += 1
        if count == m_target:
            return SparsePacking(n=n, k=k, vectors=rows)
    partial = SparsePacking(n=n, k=k, vectors=rows[:count]) if count else None
    raise PackingIncompleteError(
        f"placed {count} of {m_target} vectors in {max_attempts} attempts",
        partial,
    )


def trim_packing(values, delta_m: float):
    """Indices of the ceil(delta_m * M) smallest values.

    The largest kept value is at most mean(values) / (1 - delta_m): with
    values sorted ascending, the top M - j + 1 entries all reach value[j], so
    value[j] <= mean * M / (M - j + 1).
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    m_size = arr.size
    if m_size < 1:
        raise ValueError("values must be non-empty")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite and non-negative")
    d = float(delta_m)
    if not (1.0 / m_size <= d <= 1.0 - 1.0 / m_size):
        raise ValueError("delta_m must lie in [1/M, 1 - 1/M]")
    keep = math.ceil(d * m_size)
    order = np.argsort(arr, kind="stable")
    return np.sort(order[:keep])


# === Operator norm ===


def operator_norm(mat: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, from np.linalg.eigvalsh.

    The matrix must be square, finite and symmetric to within 1e-10 relative
    (1e-14 of its largest entry absolute); eigvalsh reads its lower triangle.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if not math.isfinite(scale):  # an inf or NaN entry
        raise ValueError("matrix entries must be finite")
    if scale == 0.0:
        return 0.0
    # np.allclose(a, a.T) applied both ways round, on the pairs i > j only:
    # |a_ij - a_ji| <= atol + rtol min(|a_ij|, |a_ji|).  In place: at 256 x 256
    # each further temporary costs more than the arithmetic.
    below = np.tri(a.shape[0], k=-1, dtype=bool)
    low, up = a[below], a.T[below]
    gap = low - up
    np.abs(gap, out=gap)
    np.minimum(np.abs(low, out=low), np.abs(up, out=up), out=low)
    low *= 1e-10
    low += 1e-14 * scale
    if not np.all(gap <= low):
        raise ValueError("matrix must be symmetric")
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))

