"""ChannelFamily._arrays against a verbatim copy of its build with a stack per reference.

`reference_arrays` stacks the conditionals, finds their p > 0 cells with
`reference_pmf_rows` (log p and each cell's column included) and builds the
mixture with `mixture_pmf`.  `ChannelFamily._arrays` builds every reference
from each conditional's own p > 0 cells, with no (M, K) array, and gives
the order-free references no log p or columns, so every array it keeps
must come out the same, bit for bit.  `mixture_pmf` itself no longer
stacks; tests/test_divergence.py checks it against the stacked mean.
"""

import math

import numpy as np
import pytest

from conversekit import converse
from conversekit.converse import ChannelFamily, _FamilyArrays
from conversekit.divergence import DiscretePmf, _PmfRows, mixture_pmf
from conversekit.suites import random_discrete_family
from conftest import log_or_neg_inf, pmf
from test_converse import SUBNORMAL_MIXTURE_FAMILY
from test_kernel import EXTREME_PAIRS, _sparse_wide_conditionals, _wide_conditionals


def reference_pmf_rows(mat: np.ndarray, defect: np.ndarray) -> _PmfRows:
    """The p > 0 cells of the rows of mat, shape (M, K), as read-only _PmfRows."""
    m, k = mat.shape
    cells = np.flatnonzero(mat > 0.0)  # row by row, each row in column order
    probs = mat.ravel()[cells]
    starts = np.searchsorted(cells, np.arange(0, m * k, k))
    cols = np.remainder(cells, k, out=cells)
    rows = _PmfRows(probs, np.log(probs), cols, starts, defect)
    for arr in rows:
        arr.setflags(write=False)
    return rows


def reference_arrays(self) -> _FamilyArrays:
    mat = np.stack([c.probs for c in self.conditionals])
    joint = np.any(mat > 0.0, axis=0)
    if not joint.all():
        mat = mat[:, joint]
    rows = reference_pmf_rows(mat, np.array([c._mass_defect for c in self.conditionals]))
    if self.q_choice == "qstar":
        # the dense (M, K) shift, kept on the p > 0 cells
        shifted = log_or_neg_inf(mat)
        colmax = shifted.max(axis=0)
        shifted -= colmax
        support = (mat > 0.0).astype(float)
        shifted[support == 0.0] = 0.0
        r_bound = max(-float(shifted.min()), 2.0 * math.log(len(mat)) + 1.0)
        shifted = shifted[support > 0.0]
        for arr in (colmax, shifted):
            arr.setflags(write=False)
        return _FamilyArrays(rows, joint, colmax=colmax, shifted=shifted, r_bound=r_bound)
    if self.q_choice == "uniform":
        ref = DiscretePmf(np.full(joint.size, 1.0 / joint.size))
    else:
        ref = mixture_pmf(self.conditionals)
    q = ref.probs[joint]
    if not q.all():
        raise ValueError("mixture rounds to 0 on the support; use 'uniform' or 'qstar'")
    log_ratio = np.log(q)[rows.cols]
    np.subtract(rows.log_probs, log_ratio, out=log_ratio)
    log_ratio.setflags(write=False)
    r_bound = max(float(log_ratio.max()), -float(log_ratio.min()))  # max |r|, no temporary
    # only q*'s per-order gather reads the columns
    return _FamilyArrays(rows._replace(cols=None), joint, ref, log_ratio, r_bound=r_bound)


def _same_bits(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def assert_same_arrays(conds, q_choices=converse.Q_CHOICES):
    for q_choice in q_choices:
        fam = ChannelFamily(conds, q_choice)
        got, want = fam._arrays, reference_arrays(fam)
        names = ["joint", "log_ratio", "colmax", "shifted"]
        pairs = [(name, getattr(got, name), getattr(want, name)) for name in names]
        pairs += [("rows." + name, getattr(got.rows, name), getattr(want.rows, name))
                  for name in ("probs", "starts", "defect")]
        if q_choice == "qstar":
            assert got.ref is None
            pairs += [("rows." + name, getattr(got.rows, name), getattr(want.rows, name))
                      for name in ("log_probs", "cols")]
        else:
            assert got.rows.log_probs is None and got.rows.cols is None
            pairs.append(("ref.probs", got.ref.probs, want.ref.probs))
        for name, g, w in pairs:
            assert (g is None) == (w is None), (q_choice, name)
            if g is not None:
                assert _same_bits(g, w), (q_choice, name)
                assert name == "joint" or not g.flags.writeable, (q_choice, name)
        assert repr(got.r_bound) == repr(want.r_bound), q_choice


def test_random_families_build_every_bit():
    rng = np.random.default_rng(30)
    for _ in range(60):
        assert_same_arrays(random_discrete_family(rng).conditionals)


@pytest.mark.parametrize("make", [_wide_conditionals, _sparse_wide_conditionals])
def test_wide_families_build_every_bit(make):
    assert_same_arrays(make())


@pytest.mark.parametrize("conds", [
    (pmf(0.5, 0.0, 0.5, 0.0), pmf(0.2, 0.0, 0.3, 0.5)),  # the joint support drops a column
    (pmf(3e-300, 0.5, 0.5), pmf(1e-300, 0.9, 0.1)),  # a mixture mass of 2e-300
    *[(pmf(*p), pmf(*q)) for p, q in EXTREME_PAIRS],  # masses down to 5e-324
])
def test_special_families_build_every_bit(conds):
    assert_same_arrays(conds)


def test_a_mixture_that_rounds_to_zero_raises_as_before():
    fam = ChannelFamily(SUBNORMAL_MIXTURE_FAMILY, "mixture")
    for build in (lambda: fam._arrays, lambda: reference_arrays(fam)):
        with pytest.raises(ValueError, match="mixture rounds to 0"):
            build()
    assert_same_arrays(SUBNORMAL_MIXTURE_FAMILY, ("uniform", "qstar"))
