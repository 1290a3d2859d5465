import os

# One BLAS thread: small LAPACK calls (eigvalsh, qr) whose threads share a
# busy CPU can run orders of magnitude slower.  An explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from decimal import Decimal, localcontext

import numpy as np
import pytest

from conversekit.divergence import DiscretePmf


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pmf(*probs) -> DiscretePmf:
    return DiscretePmf(np.array(probs, dtype=np.float64))


def log_or_neg_inf(arr: np.ndarray) -> np.ndarray:
    """Elementwise log with -inf at zeros, without a divide-by-zero warning."""
    out = np.full(arr.shape, -np.inf)
    np.log(arr, out=out, where=arr > 0.0)
    return out


def random_pmf(rng, size: int, with_zeros: bool = False) -> DiscretePmf:
    raw = rng.uniform(0.0, 1.0, size=size)
    if with_zeros and size > 1:
        kill = rng.integers(0, size)
        raw[kill] = 0.0
    if raw.sum() == 0.0:
        raw[0] = 1.0
    return DiscretePmf(raw / raw.sum())


def decimal_log_renyi_sum(p, q, lam, digits: int = 50) -> float:
    """lam D_(1+lam)(p || q) = log sum_y p^(1+lam) q^(-lam), in decimal arithmetic.

    Decimal(float) converts a double exactly, so with `digits` significant
    digits this is the true value for the given doubles, whatever their
    range.  Outcomes with p = 0 are skipped.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        lam_d = Decimal(float(lam))
        total = sum(
            Decimal(float(a)) ** (1 + lam_d) * Decimal(float(b)) ** -lam_d
            for a, b in zip(p, q)
            if a > 0.0
        )
        return float(total.ln())
