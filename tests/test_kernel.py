"""The log-space Renyi kernel: exactness at extreme inputs, the q* shortcut, memory."""

import ast
import glob
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conversekit import converse, divergence, suites
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
    kernel_rows = divergence._pmf_rows(probs, defect)
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
    # all rows against one reference, all orders in one call
    q = (1e-300, 5e-324, 0.25, 0.75 - 1e-300)
    rows = [(0.5, 0.0, 0.25, 0.25), (0.0, 1e-300, 0.5, 0.5), (0.0, 0.0, 0.5, 0.5)]
    kernel_rows, log_ratio = _rows_and_log_ratio(rows, q)
    got = divergence._renyi_log_sums(kernel_rows, log_ratio, np.array(ORDERS))
    for li, lam in enumerate(ORDERS):
        for mi, p in enumerate(rows):
            exact = decimal_log_renyi_sum(p, q, lam)
            assert got[li, mi] == pytest.approx(exact, rel=1e-12, abs=0.0)


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
    got = divergence._renyi_log_sums(kernel_rows, log_ratio, np.array(ORDERS),
                                     float(np.abs(log_ratio).max()))
    for li, lam in enumerate(ORDERS):
        for mi, p in enumerate(rows):
            exact = decimal_log_renyi_sum(p, q, lam)
            assert got[li, mi] == pytest.approx(exact, rel=1e-12, abs=0.0)


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


# --- batching and chunking ---


def test_batched_orders_equal_single_order_calls(rng):
    lams = np.geomspace(1e-6, 10.0, 17)
    for q_choice in ("uniform", "mixture", "qstar"):
        fam = random_discrete_family(rng, q_choice=q_choice)
        batched = fam._scaled_divergences(lams)
        for lam, row in zip(lams, batched):
            assert np.array_equal(row, fam._scaled_divergences(np.array([lam]))[0])


def test_one_order_routes_match_batched_evaluation_bit_for_bit(rng):
    # strong_converse_bound, variational_bound and q* at one order skip the
    # order axis; each must give the bits of the same order inside a batch
    for _ in range(12):
        base = random_discrete_family(rng)
        for q_choice in ("uniform", "mixture", "qstar"):
            fam = ChannelFamily(base.conditionals, q_choice)
            m = fam.m_codewords
            for lam in (1e-6, 0.3, 2.0, 100.0, 1e300, 1.7e308):
                lams = np.array([0.5 * lam, lam, 3.0])
                divs = strong_converse_bound(fam, lam).params["divergences"]
                assert divs == (fam._scaled_divergences(lams)[1] / lam).tolist()
                log_mean = float(fam._log_mean_terms(lams)[1])
                for gamma in (0.5, 1.0, float(m)):
                    exponent = log_mean - lam * math.log(gamma)
                    # -inf where log S and lam log gamma are both +inf
                    batched = (-math.inf if math.isnan(exponent)
                               else 1.0 - gamma / m - converse._exp_or_inf(exponent))
                    assert variational_bound(fam, lam, gamma) == batched
        arrays = ChannelFamily(base.conditionals, "qstar")._arrays
        lams = np.array([1e-6, 0.3, 2.0, 1e300, 1.7e308])
        log_ws = converse._log_qstar_weights(arrays, 1.0 + lams[:, None, None])
        for lam, log_w in zip(lams.tolist(), log_ws):
            log_q, log_c = converse._log_qstar(arrays, lam)
            assert log_c == float(divergence._logsumexp(log_w.copy()))
            assert np.array_equal(log_q, log_w - log_c)


def test_chunk_size_does_not_change_results(rng, monkeypatch):
    lams = np.geomspace(1e-6, 10.0, 64)
    fams = [random_discrete_family(rng, q_choice=q) for q in ("uniform", "qstar")]
    whole = [(f._scaled_divergences(lams), f._log_mean_terms(lams)) for f in fams]
    # one order per chunk, and chunks that split the order axis unevenly
    for cells in (1, 3 * fams[0].m_codewords * fams[0].conditionals[0].support_size):
        monkeypatch.setattr(divergence, "_CHUNK_CELLS", cells)
        for fam, (scaled, log_mean) in zip(fams, whole):
            assert np.array_equal(fam._scaled_divergences(lams), scaled)
            assert np.array_equal(fam._log_mean_terms(lams), log_mean)


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


def test_kernel_chunks_and_splits_by_live_cells(monkeypatch):
    # the kernel's passes are sized by the p > 0 cells it visits, not M K:
    # a 64-order pre-scan of 64 x 31866 entries stays below two split ranges
    conds = _sparse_wide_conditionals()
    live = sum(int(np.count_nonzero(c.probs)) for c in conds)
    assert live < len(conds) * conds[0].support_size
    seen = []
    drive = divergence._over_order_chunks

    def record(chunk, lams, cells):
        seen.append(cells)
        return drive(chunk, lams, cells)

    def no_thread(*args, **kwargs):
        raise AssertionError("a pass of the live cells started a thread")

    monkeypatch.setattr(divergence, "_over_order_chunks", record)
    monkeypatch.setattr(divergence, "_CPUS", 8)
    monkeypatch.setattr(threading, "Thread", no_thread)
    lams = np.geomspace(1e-6, 10.0, 64)
    for q_choice in converse.Q_CHOICES:  # q*: one kernel pass per order
        ChannelFamily(conds, q_choice)._scaled_divergences(lams)
    assert seen and set(seen) == {live}


def _count_threads(monkeypatch) -> list:
    """Patch threading.Thread to record each thread it starts; returns the record."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


# 64 geometric orders plus two where S - 1 overflows and rows take the redo
SPLIT_LAMS = np.concatenate([np.geomspace(1e-6, 10.0, 64), [1e300, 1.7e308]])


def test_split_orders_equal_serial_bit_for_bit(rng, monkeypatch):
    base = random_discrete_family(rng)
    k = base.conditionals[0].support_size
    fams = [ChannelFamily(base.conditionals, q) for q in converse.Q_CHOICES]
    serial = [(f._scaled_divergences(SPLIT_LAMS), f._log_mean_terms(SPLIT_LAMS)) for f in fams]
    started = _count_threads(monkeypatch)
    monkeypatch.setattr(divergence, "_SPLIT_CELLS", 1)
    # one order per chunk, and chunks that split the order axis unevenly
    for chunk_cells in (1, 3 * base.m_codewords * k):
        monkeypatch.setattr(divergence, "_CHUNK_CELLS", chunk_cells)
        for cpus in (2, 3):
            monkeypatch.setattr(divergence, "_CPUS", cpus)
            before = len(started)
            # a worker that entered no errstate of its own warns on overflow
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for fam, (scaled, log_mean) in zip(fams, serial):
                    assert np.array_equal(fam._scaled_divergences(SPLIT_LAMS), scaled)
                    assert np.array_equal(fam._log_mean_terms(SPLIT_LAMS), log_mean)
            assert len(started) > before


def test_soundness_sized_passes_start_no_thread(rng, monkeypatch):
    # the largest soundness pass is 64 x 6 x 12^3 cells, below two split ranges
    def no_thread(*args, **kwargs):
        raise AssertionError("a serial pass started a thread")

    monkeypatch.setattr(divergence, "_CPUS", 8)
    monkeypatch.setattr(threading, "Thread", no_thread)
    for _ in range(10):
        base = random_discrete_family(rng)
        for q_choice in ("uniform", "mixture", "qstar"):
            optimize_lambda(ChannelFamily(base.conditionals, q_choice))


@pytest.mark.parametrize("cpus", [2, 8])
def test_wide_prescan_starts_exactly_one_thread(monkeypatch, cpus):
    conds = _wide_conditionals()
    lams = np.geomspace(1e-6, 10.0, 64)
    monkeypatch.setattr(divergence, "_CPUS", cpus)
    started = _count_threads(monkeypatch)
    for q_choice in ("uniform", "mixture", "qstar"):
        fam = ChannelFamily(conds, q_choice)
        before = len(started)
        fam._log_mean_terms(lams)
        assert len(started) - before == 1
        # the probes and golden-section steps of optimize_lambda take one order
        fam._log_mean_terms(lams[:1])
        assert len(started) - before == 1


def test_worker_exception_reaches_the_caller_and_no_thread_survives(monkeypatch):
    # 3 CPUs, 2 orders per chunk and 10 orders of one cell: ranges start at 0, 2 and 6
    monkeypatch.setattr(divergence, "_CPUS", 3)
    monkeypatch.setattr(divergence, "_SPLIT_CELLS", 1)
    monkeypatch.setattr(divergence, "_CHUNK_CELLS", 2)
    lams = np.arange(10.0)
    ran = {}

    def chunk(fail_from, lam):
        lo = int(lam[0])
        if lo >= 2:  # a worker's range: still running when the caller's is done
            time.sleep(0.05)
        if lo >= fail_from:
            raise ValueError(f"chunk at {lo}")
        ran.setdefault(threading.get_ident(), []).extend(lam.tolist())
        return 2.0 * lam

    def drive(fail_from):
        return divergence._over_order_chunks(lambda lam: chunk(fail_from, lam), lams, 1)

    threads = threading.active_count()
    assert np.array_equal(drive(math.inf), 2.0 * lams)
    assert sorted(ran.values()) == [[0.0, 1.0], [2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0]]
    assert threading.active_count() == threads
    # a worker's range, and the calling thread's own range
    for fail_from in (6, 0):
        with pytest.raises(ValueError, match="chunk at"):
            drive(fail_from)
        assert threading.active_count() == threads


def test_order_chunk_policy_lives_only_in_divergence():
    # the chunk size, the split and its thread pool are one decision, in one module
    policy = {"_CHUNK_CELLS", "_SPLIT_CELLS", "_CPUS", "threading", "concurrent"}
    root = os.path.join(os.path.dirname(__file__), "..", "src", "conversekit")
    leaks = []
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        if os.path.basename(path) == "divergence.py":
            continue
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
            leaks += [(os.path.basename(path), name) for name in names if name in policy]
    assert not leaks, leaks


def test_import_loads_no_thread_pool():
    # the pool is imported on the split branch alone: concurrent.futures
    # imports logging, which no other pass needs
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = (
        "import sys, conversekit, conversekit.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_optimize_lambda_memory_is_bounded_by_the_chunk_cap(monkeypatch):
    # M = 16, K = 4^6 families, fully live and half live: 64 orders in one
    # array would be 32 MB
    for conds in (_wide_conditionals(), _sparse_wide_conditionals()):
        for cpus in (1, 2, 8):
            monkeypatch.setattr(divergence, "_CPUS", cpus)
            for q_choice in ("uniform", "mixture", "qstar"):
                fam = ChannelFamily(conds, q_choice)
                tracemalloc.start()
                try:
                    optimize_lambda(fam)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 4 * 2**20, f"{q_choice}, {cpus} CPUs: peak {peak / 2**20:.2f} MiB"


def test_only_qstar_families_keep_the_cell_columns():
    # an order-free reference's log ratio is formed once, so no later call
    # reads the columns or log p; q* forms log p - log q*[cols] at every order
    conds = _sparse_wide_conditionals()
    for q_choice in converse.Q_CHOICES:
        rows = ChannelFamily(conds, q_choice)._arrays.rows
        assert (rows.cols is None) == (rows.log_probs is None) == (q_choice != "qstar")


# --- overflow gates ---

# Orders on both sides of every gate of a one-order or batched pass: the
# kernel's lam r_bound <= 709 and q*'s weights' (1 + lam) r_bound <= 700.
GATE_ORDERS = np.concatenate([np.geomspace(1e-6, 10.0, 8), [1e2, 1e4, 1e300, 1.7e308]])


def _gate_outputs(fam):
    """Every floor, D_i, gamma*, log S and optimize_lambda result at GATE_ORDERS."""
    m = fam.m_codewords
    out = [fam._scaled_divergences(GATE_ORDERS),
           fam._log_mean_terms(GATE_ORDERS), fam._log_mean_terms(GATE_ORDERS[:-1])]
    for lam in GATE_ORDERS.tolist():
        rep = strong_converse_bound(fam, lam)
        out.append([rep.eps_raw, rep.gamma_star, *rep.params["divergences"]])
        out.append([variational_bound(fam, lam, gamma) for gamma in (0.5, 1.0, float(m))])
        out.append(fam._log_mean_terms(np.array([lam])))
    best = optimize_lambda(fam)
    out.append([best.eps_raw, best.lambda_star])
    return [np.asarray(x, dtype=float) for x in out]


def test_gated_passes_equal_the_guarded_passes_bit_for_bit(monkeypatch):
    # a pass whose order-free bound clears its orders runs with no
    # np.errstate, no +inf scan and no clamp; it must give the bits of the
    # guarded pass (a RuntimeWarning on either side fails the test)
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

    # no bound clears any order: every pass takes the guarded branch
    kernel = divergence._renyi_log_sums
    monkeypatch.setattr(divergence, "_renyi_log_sums",
                        lambda rows, log_ratio, lams, r_bound: kernel(rows, log_ratio, lams))
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
            log_mean = fam._log_mean_terms(np.array([lam]))[0]
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
