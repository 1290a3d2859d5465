"""The log-space Renyi kernel: exactness at extreme inputs, the q* shortcut, memory."""

import ast
import glob
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conversekit import converse, divergence, oracle, suites
from conversekit.converse import (
    ChannelFamily,
    optimize_lambda,
    strong_converse_bound,
    variational_bound,
)
from conversekit.divergence import (
    DiscretePmf,
    iid_product_pmf,
    renyi_discrete,
)
from conversekit.suites import random_discrete_family
from conftest import decimal_log_renyi_sum, pmf

ORDERS = (1e-6, 1.0, 10.0, 100.0)

# (p, q) pairs with reference masses at 1e-300 and the subnormal 5e-324,
# the same masses in p, exact zeros in p, and one unremarkable pair whose
# lam D at order 1e-6 is ~2e-8 (where a plain log of the sum loses ~1e-9).
EXTREME_PAIRS = [
    ((0.5, 0.5), (1e-300, 1.0 - 1e-300)),
    ((0.5, 0.5), (5e-324, 1.0)),
    ((0.2, 0.3, 0.5), (1e-300, 0.5, 0.5)),
    ((0.0, 0.3, 0.7), (1e-300, 0.5, 0.5)),
    ((0.0, 0.25, 0.25, 0.5), (0.0, 5e-324, 0.5, 0.5)),
    ((1e-300, 1.0 - 1e-300), (0.5, 0.5)),
    ((5e-324, 1.0), (0.5, 0.5)),
    ((0.0, 1e-300, 1.0 - 1e-300), (0.2, 0.3, 0.5)),
    ((0.5, 0.5), (0.4, 0.6)),
]


def _rows_and_log_ratio(rows, q):
    """The kernel's rows of rows, and r = log p - log q on their p > 0 cells."""
    probs = np.array(rows)
    defect = np.array([pmf(*row)._mass_defect for row in rows])
    kernel_rows = divergence._pmf_rows([row[row > 0.0] for row in probs], defect)
    q = np.asarray(q, dtype=np.float64)
    log_q = np.log(np.where(q > 0.0, q, 1.0))[np.nonzero(probs > 0.0)[1]]
    return kernel_rows, np.log(kernel_rows.probs) - log_q


# --- against the decimal oracle ---


@pytest.mark.parametrize("p, q", EXTREME_PAIRS)
def test_renyi_matches_decimal_oracle(p, q):
    for lam in ORDERS:
        exact = decimal_log_renyi_sum(p, q, lam)
        assert math.isfinite(exact)
        got = lam * renyi_discrete(pmf(*p), pmf(*q), lam)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_batched_kernel_matches_decimal_oracle():
    # all rows against one reference in one call per order
    q = (1e-300, 5e-324, 0.25, 0.75 - 1e-300)
    rows = [(0.5, 0.0, 0.25, 0.25), (0.0, 1e-300, 0.5, 0.5), (0.0, 0.0, 0.5, 0.5)]
    kernel_rows, log_ratio = _rows_and_log_ratio(rows, q)
    for lam in ORDERS:
        got = divergence._renyi_log_sums(kernel_rows, log_ratio, lam)
        for mi, p in enumerate(rows):
            exact = decimal_log_renyi_sum(p, q, lam)
            assert got[mi] == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_batched_kernel_on_sparse_product_rows_matches_decimal_oracle():
    # long rows with many dead cells: 4-fold products of letters with one or
    # two zeros keep 81 or 16 of 256 cells.  Letter 0 of the reference is
    # 1e-70, so rows with mass there take the overflow redo past order 1.
    letters = [(0.5, 0.0, 0.3, 0.2), (0.0, 0.6, 0.0, 0.4),
               (0.1, 0.2, 0.7, 0.0), (0.0, 0.0, 0.25, 0.75)]
    rows = [iid_product_pmf(pmf(*p), 4).probs for p in letters]
    q = iid_product_pmf(pmf(1e-70, 0.3, 0.3, 0.4), 4).probs
    kernel_rows, log_ratio = _rows_and_log_ratio(rows, q)
    assert kernel_rows.probs.size == 81 + 16 + 81 + 16
    r_bound = float(np.abs(log_ratio).max())
    for lam in ORDERS:
        got = divergence._renyi_log_sums(kernel_rows, log_ratio, lam, r_bound)
        for mi, p in enumerate(rows):
            exact = decimal_log_renyi_sum(p, q, lam)
            assert got[mi] == pytest.approx(exact, rel=1e-12, abs=0.0)


def _flat_family_draw(rng):
    """random_discrete_family's conditionals, drawn the same way, without its product step.

    The decimal oracle takes seconds over a product alphabet of up to 12^3 outcomes.
    """
    m, k = int(rng.integers(2, 7)), int(rng.integers(2, 13))
    with_zeros = bool(rng.random() < 0.5)
    return tuple(suites._random_pmf(rng, k, with_zeros) for _ in range(m))


def test_family_divergences_match_decimal_oracle(rng):
    eps = np.finfo(float).eps
    for _ in range(8):
        conditionals = _flat_family_draw(rng)
        for q_choice in ("uniform", "mixture"):
            fam = ChannelFamily(conditionals, q_choice)
            ref = fam.reference_pmf().probs
            for lam in ORDERS:
                divs = fam.divergences(lam)
                for cond, d in zip(fam.conditionals, divs):
                    exact = decimal_log_renyi_sum(cond.probs, ref, lam)
                    # the rounding of log p and log q in r = log p - log q is
                    # the floor on the error once p is close to q
                    sup = cond.probs > 0.0
                    p, q = cond.probs[sup], ref[sup]
                    logs = np.abs(np.log(p)) + np.abs(np.log(q))
                    floor = 4.0 * eps * lam * float(np.sum(p * logs))
                    assert lam * d == pytest.approx(exact, rel=1e-12, abs=floor)


def test_underflowing_reference_keeps_the_bound_finite():
    # the mixture holds 2e-300 where both codewords put mass; reference
    # masses far below p are covered by EXTREME_PAIRS
    conds = (pmf(3e-300, 0.5, 0.5), pmf(1e-300, 0.9, 0.1))
    fam = ChannelFamily(conds, q_choice="mixture")
    assert fam.reference_pmf().probs[0] == 2e-300
    for lam in (0.5, 2.0, 10.0):
        rep = strong_converse_bound(fam, lam)
        assert all(math.isfinite(d) for d in rep.params["divergences"])
        assert math.isfinite(rep.gamma_star)
        for cond, d in zip(conds, rep.params["divergences"]):
            exact = decimal_log_renyi_sum(cond.probs, fam.reference_pmf().probs, lam)
            assert lam * d == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_rows_below_their_reference_keep_log_s_where_s_underflows_against_1():
    # every cell of p lies 8e-13 (relative) below the uniform q, so
    # S = (2 p0)^(1+lam) passes below half an ulp of 1 near lam = 1e14, where
    # log1p(S - 1) is log1p(-1) = -inf; the true lam D is (1+lam) log(2 p0)
    p = DiscretePmf([0.5 - 4e-13] * 2)
    u = DiscretePmf([0.5, 0.5])
    p0 = float(p.probs[0])
    for lam in (1e13, 1e14, 1e200):
        want = (1.0 + lam) * math.log(2.0 * p0) / lam
        assert renyi_discrete(p, u, lam) == pytest.approx(want, rel=1e-12, abs=0.0)
    for q_choice in converse.Q_CHOICES:
        rep = strong_converse_bound(ChannelFamily((p, p), q_choice), 1e14)
        assert math.isfinite(rep.eps_raw), q_choice
        assert all(math.isfinite(d) for d in rep.params["divergences"]), q_choice
    # every term -inf: log mean exp is -inf, not the NaN of -inf - -inf
    assert converse._log_mean_exp(np.full(3, -math.inf)) == -math.inf


# --- routes to one order, layout and memory ---


def test_one_order_routes_match_batched_evaluation_bit_for_bit(rng):
    # strong_converse_bound and divergences report the same D_i, and
    # variational_bound gives the floor from the log S that the order
    # search evaluates at that order; each pair must agree bit for bit
    for _ in range(12):
        base = random_discrete_family(rng)
        for q_choice in ("uniform", "mixture", "qstar"):
            fam = ChannelFamily(base.conditionals, q_choice)
            m = fam.m_codewords
            for lam in (1e-6, 0.3, 2.0, 100.0, 1e300, 1.7e308):
                divs = strong_converse_bound(fam, lam).params["divergences"]
                assert divs == fam.divergences(lam).tolist()
                log_mean = fam._log_mean_term(lam)
                for gamma in (0.5, 1.0, float(m)):
                    exponent = log_mean - lam * math.log(gamma)
                    # -inf where log S and lam log gamma are both +inf
                    in_pass = (-math.inf if math.isnan(exponent)
                               else 1.0 - gamma / m - converse._exp_or_inf(exponent))
                    assert variational_bound(fam, lam, gamma) == in_pass


def _wide_conditionals():
    """An M = 16 family of 6-fold iid products of 4-letter pmfs: 16 x 4^6 cells."""
    rng = np.random.default_rng(7)
    return tuple(iid_product_pmf(DiscretePmf(rng.dirichlet(np.ones(4))), 6) for _ in range(16))


def _sparse_wide_conditionals():
    """An M = 16 family of 6-fold iid products of 4-letter pmfs, drawn as the wide benchmark does.

    Each letter has mass 0 with chance 0.2, so 31866 of the 16 x 4^6 cells
    (49%) are live.
    """
    rng = np.random.default_rng(10)
    conds = []
    for _ in range(16):
        w = rng.gamma(1.0, 1.0, size=4)
        w[rng.random(4) < 0.2] = 0.0
        if not w.any():
            w[int(rng.integers(4))] = 1.0
        conds.append(iid_product_pmf(DiscretePmf(w / w.sum()), 6))
    return tuple(conds)


def test_order_chunk_policy_lives_only_in_divergence():
    # every order is evaluated alone, on the calling thread: no module,
    # divergence included, names an order-chunk policy, a thread, a pool,
    # a CPU count, a batched log S, a golden-section step count of its own
    # or a second ceiling path beside the order search's secants
    banned = {"_CHUNK_CELLS", "_over_order_chunks", "threading", "concurrent", "contextvars",
              "_SPLIT_CELLS", "_CPUS", "sched_getaffinity", "_GOLDEN_ITERS", "_log_mean_terms",
              "_floor_ceilings", "_prescan_ceiling_terms", "_Orders"}
    root = os.path.join(os.path.dirname(__file__), "..", "src", "conversekit")
    leaks = []
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".")
            else:
                continue
            leaks += [(os.path.basename(path), name) for name in names if name in banned]
    assert not leaks, leaks


def test_import_loads_no_thread_pool():
    # no module imports concurrent.futures, which imports logging; the
    # package needs neither
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = (
        "import sys, conversekit, conversekit.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_optimize_lambda_peak_memory_stays_below_4_mib():
    # M = 16, K = 4^6 families, fully live and half live: 64 orders in one
    # array would be 32 MB.  Each order's temporaries hold one value per
    # cell: 3.04 MiB for the fully live q* family, the 2.04 MiB its build
    # keeps (the cells' p, log p, columns and shifted log p) plus 1.00 MiB
    # for its last order's log p - log q*[cols].  Its build alone peaks at
    # 2.13 MiB, and with the family built first the search alone peaks at
    # 1.00 MiB (tracemalloc).
    for conds in (_wide_conditionals(), _sparse_wide_conditionals()):
        for q_choice in ("uniform", "mixture", "qstar"):
            fam = ChannelFamily(conds, q_choice)
            tracemalloc.start()
            try:
                optimize_lambda(fam)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, f"{q_choice}: peak {peak / 2**20:.2f} MiB"


def _kept_bytes(arrays) -> int:
    """Bytes of the arrays a built family keeps."""
    kept = [*arrays.rows, arrays.joint, arrays.log_ratio, arrays.colmax, arrays.shifted]
    if arrays.ref is not None:
        kept.append(arrays.ref.probs)
    return sum(arr.nbytes for arr in kept if arr is not None)


@pytest.mark.parametrize("make", [_wide_conditionals, _sparse_wide_conditionals])
@pytest.mark.parametrize("q_choice", converse.Q_CHOICES)
def test_family_build_peaks_below_what_it_keeps_plus_one_cell_array(make, q_choice):
    # No (M, K) float array: the build's peak is at most the bytes the family
    # keeps plus one float per cell.  Measured (tracemalloc), the peak lies
    # 103 kB (q*) and 170 kB (uniform, mixture) above what is kept: the p > 0
    # masks of the rows, 64 kB here, and a few arrays of K floats.  That
    # leaves 85 kB to 422 kB of headroom under the bound, less than an
    # (M, K) stack of 512 kB in every case.
    conds = make()
    for c in conds:
        c._mass_defect  # each pmf keeps its own, whoever asks first
    fam = ChannelFamily(conds, q_choice)
    tracemalloc.start()
    try:
        arrays = fam._arrays
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = _kept_bytes(arrays) + arrays.rows.probs.nbytes
    assert peak <= bound, f"{q_choice}: peak {peak} B over {bound} B"


@pytest.mark.parametrize("make", [_wide_conditionals, _sparse_wide_conditionals])
def test_bayes_error_peaks_at_a_few_alphabet_sized_arrays(make):
    # one running column max of K floats, 32 kB here, and no (M, K) stack:
    # measured at 1.04 times K floats (tracemalloc)
    conds = make()
    tracemalloc.start()
    try:
        oracle.exact_bayes_error(conds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * conds[0].support_size


def test_only_qstar_families_keep_the_cell_columns():
    # an order-free reference's log ratio is formed once, so no later call
    # reads the columns or log p; q* forms log p - log q*[cols] at every order
    conds = _sparse_wide_conditionals()
    for q_choice in converse.Q_CHOICES:
        rows = ChannelFamily(conds, q_choice)._arrays.rows
        assert (rows.cols is None) == (rows.log_probs is None) == (q_choice != "qstar")


# --- overflow gates ---

# Orders on both sides of every gate: the kernel's lam r_bound <= 709 and
# q*'s weights' (1 + lam) r_bound <= 700.  1e300 and 1.7e308 take the
# kernel's +inf redo.
GATE_ORDERS = np.concatenate([np.geomspace(1e-6, 10.0, 8), [1e2, 1e4, 1e300, 1.7e308]])


def _gate_outputs(fam):
    """Every floor, D_i, gamma*, log S and optimize_lambda result at GATE_ORDERS."""
    m = fam.m_codewords
    out = []
    for lam in GATE_ORDERS.tolist():
        out.append(fam._scaled_divergences(lam))
        rep = strong_converse_bound(fam, lam)
        out.append([rep.eps_raw, rep.gamma_star, *rep.params["divergences"]])
        out.append([variational_bound(fam, lam, gamma) for gamma in (0.5, 1.0, float(m))])
        out.append([fam._log_mean_term(lam)])
    best = optimize_lambda(fam)
    out.append([best.eps_raw, best.lambda_star])
    return [np.asarray(x, dtype=float) for x in out]


def test_gated_passes_equal_the_guarded_passes_bit_for_bit(monkeypatch):
    # a call whose order-free bound clears its order runs with no
    # np.errstate, no +inf scan and no clamp; it must give the bits of the
    # guarded call (a RuntimeWarning on either side fails the test)
    rng = np.random.default_rng(2026)
    fams = [ChannelFamily(base.conditionals, q)
            for base in (random_discrete_family(rng) for _ in range(150))
            for q in converse.Q_CHOICES]
    cleared = [lam * fam._arrays.r_bound <= divergence._EXP_OVERFLOW
               for fam in fams for lam in GATE_ORDERS.tolist()]
    assert any(cleared) and not all(cleared)
    gated = [_gate_outputs(fam) for fam in fams]
    pairs = [(pmf(*p), pmf(*q)) for p, q in EXTREME_PAIRS]
    gated_pairs = [renyi_discrete(p, q, lam) for p, q in pairs for lam in GATE_ORDERS.tolist()]

    # no bound clears any order: every call takes the guarded branch
    kernel = divergence._renyi_log_sums
    monkeypatch.setattr(divergence, "_renyi_log_sums",
                        lambda rows, log_ratio, lam, r_bound: kernel(rows, log_ratio, lam))
    for fam in fams:
        fam.__dict__["_arrays"] = fam._arrays._replace(r_bound=math.inf)
    for fam, want in zip(fams, gated):
        got = _gate_outputs(fam)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), fam.q_choice
    guarded_pairs = [renyi_discrete(p, q, lam) for p, q in pairs for lam in GATE_ORDERS.tolist()]
    assert guarded_pairs == gated_pairs


# --- the q* shortcut ---


def _log_mean_exp(values):
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values) / len(values))


def test_sibson_identity_for_qstar(rng):
    # S = mean_i exp(lam D_i(q*)) equals C^(1+lam), C the normalizer of q*
    for _ in range(20):
        fam = random_discrete_family(rng, q_choice="qstar")
        for lam in np.geomspace(1e-6, 10.0, 9):
            lam = float(lam)
            c_norm = fam._qstar(lam)[1]
            shortcut = (1.0 + lam) * math.log(c_norm)
            scaled = [lam * d for d in strong_converse_bound(fam, lam).params["divergences"]]
            # the bound needs log S to a few ulps in absolute terms; below
            # lam ~ 1e-2 log S is too close to 0 for that to be 1e-12 relative
            direct = _log_mean_exp(scaled)
            assert shortcut == pytest.approx(direct, rel=1e-12, abs=1e-15)
            if lam >= 1e-2:
                assert shortcut == pytest.approx(direct, rel=1e-12, abs=0.0)
            log_mean = fam._log_mean_term(lam)
            assert log_mean == pytest.approx(shortcut, rel=1e-12, abs=1e-15)


def test_optimize_lambda_report_is_the_bound_at_lambda_star(rng):
    for _ in range(10):
        base = random_discrete_family(rng)
        for q_choice in ("uniform", "mixture", "qstar"):
            fam = ChannelFamily(base.conditionals, q_choice)
            best = optimize_lambda(fam)
            at_star = strong_converse_bound(fam, best.lambda_star)
            assert best.eps_raw == pytest.approx(at_star.eps_raw, rel=1e-12, abs=1e-12)
            assert best.params["divergences"] == at_star.params["divergences"]


def test_optimal_q_matches_direct_formula(rng):
    for _ in range(20):
        fam = random_discrete_family(rng, q_choice="qstar")
        lam = float(rng.uniform(0.1, 3.0))
        mat = np.stack([c.probs for c in fam.conditionals])
        weights = np.mean(mat ** (1.0 + lam), axis=0) ** (1.0 / (1.0 + lam))
        q, c_norm = fam.reference_pmf(lam), fam._qstar(lam)[1]
        assert c_norm == pytest.approx(weights.sum(), rel=1e-13, abs=0.0)
        assert np.allclose(q.probs, weights / weights.sum(), rtol=1e-13, atol=0.0)
