"""The log-space Renyi kernel: exactness at extreme inputs, the q* shortcut, memory."""

import math
import tracemalloc

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


def _rows_and_log_q(rows, q):
    probs = np.array(rows)
    defect = np.array([pmf(*row)._mass_defect for row in rows])
    kernel_rows = divergence._PmfRows(probs, divergence._log_or_neg_inf(probs), defect)
    q = np.asarray(q, dtype=np.float64)
    return kernel_rows, np.log(np.where(q > 0.0, q, 1.0))


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
    kernel_rows, log_q = _rows_and_log_q(rows, q)
    got = divergence._renyi_log_sums(kernel_rows, kernel_rows.log_probs - log_q, np.array(ORDERS))
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
    # the reference holds 1e-300 where both codewords put mass
    conds = (pmf(0.5, 0.5), pmf(0.9, 0.1))
    fam = ChannelFamily(conds, q_choice=pmf(1e-300, 1.0 - 1e-300))
    for lam in (0.5, 2.0, 10.0):
        rep = strong_converse_bound(fam, lam)
        assert all(math.isfinite(d) for d in rep.params["divergences"])
        assert "domination_violation" not in rep.params
        assert rep.gamma_star is not None
        for cond, d in zip(conds, rep.params["divergences"]):
            exact = decimal_log_renyi_sum(cond.probs, fam.reference_pmf().probs, lam)
            assert lam * d == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_domination_failure_is_per_row():
    conds = (pmf(0.5, 0.5, 0.0), pmf(0.5, 0.0, 0.5))
    fam = ChannelFamily(conds, q_choice=pmf(0.5, 0.5, 0.0))
    divs = fam.divergences(1.0)
    assert divs[0] == pytest.approx(0.0, abs=1e-15)
    assert divs[1] == math.inf
    assert strong_converse_bound(fam, 1.0).params["domination_violation"] is True


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
        for lam, log_w in zip(lams.tolist(), converse._log_qstar_weights(arrays, lams)):
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


def test_optimize_lambda_memory_is_bounded_by_the_chunk_cap():
    # one M = 16, K = 4^6 family: a 64-order prescan in one array would be 32 MB
    rng = np.random.default_rng(7)
    conds = tuple(iid_product_pmf(DiscretePmf(rng.dirichlet(np.ones(4))), 6) for _ in range(16))
    for q_choice in ("uniform", "mixture", "qstar"):
        fam = ChannelFamily(conds, q_choice)
        tracemalloc.start()
        try:
            optimize_lambda(fam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{q_choice}: peak {peak / 2**20:.2f} MiB"


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
