"""Randomized self-checks shared by the command line and the test suite.

Each suite runs a batch of checks and reports how many ran, how many failed,
and the worst slack seen.  Slack is the amount by which an inequality held:
non-negative means the check passed, and the worst (most negative) value is
what a regression would show up in first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .converse import (
    ChannelFamily,
    avg_kl_to_mixture,
    fano_bound,
    generalized_fano_log_m_bound,
    optimize_lambda,
    strong_converse_bound,
    variational_bound,
)
from .divergence import (
    BernoulliPair,
    DiscretePmf,
    GaussianShiftPair,
    iid_product_pmf,
    renyi_bernoulli,
    renyi_discrete,
    renyi_gaussian_shift,
    renyi_product_iid,
)
from .oracle import exact_bayes_error, renyi_gaussian_quadrature
from .packing import (
    cs_random_packing,
    gv_greedy,
    operator_norm,
    trim_packing,
    verify_packing,
)

__all__ = [
    "SuiteResult",
    "SUITE_NAMES",
    "random_discrete_family",
    "run_suite",
]

_MAX_DETAILS = 10


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    worst_margin: float = math.inf
    details: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.checks > 0

    def record(self, margin: float, label: str):
        self.checks += 1
        # a NaN margin fails, so it is the worst margin and stays so
        if margin < self.worst_margin or math.isnan(margin):
            self.worst_margin = margin
        if not margin >= 0.0:
            self.failures += 1
            if len(self.details) < _MAX_DETAILS:
                self.details.append(f"{label}: margin {margin:.3e}")

    def summary_line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: {self.checks} checks, {self.failures} failures, "
            f"worst margin {self.worst_margin:.3e} [{status}]"
        )


def _random_pmf(rng, size: int, with_zeros: bool) -> DiscretePmf:
    w = rng.gamma(1.0, 1.0, size=size)
    if with_zeros and rng.random() < 0.3:
        w = np.where(rng.random(size) < 0.35, 0.0, w)
    if w.sum() <= 0.0:
        w[int(rng.integers(size))] = 1.0
    return DiscretePmf(w / w.sum())


def random_discrete_family(rng, q_choice: str = "uniform") -> ChannelFamily:
    """A small random family, sometimes with zeros, sometimes a product.

    2 to 6 conditionals on 2 to 12 outcomes; with probability 0.3 all of them
    are replaced by their i.i.d. products over 2 or 3 draws.
    """
    m = int(rng.integers(2, 7))
    k = int(rng.integers(2, 13))
    with_zeros = bool(rng.random() < 0.5)
    pmfs = [_random_pmf(rng, k, with_zeros) for _ in range(m)]
    if rng.random() < 0.3:
        n = int(rng.integers(2, 4))
        pmfs = [iid_product_pmf(p, n) for p in pmfs]
    return ChannelFamily(conditionals=tuple(pmfs), q_choice=q_choice)


_LAMBDA_GRID = np.geomspace(0.05, 8.0, 20)


def soundness_suite(n_families: int = 40, seed: int = 0, tol: float = 1e-9) -> SuiteResult:
    """Strong-converse floors never exceed the exact optimum error.

    For each random family the exact Bayes error of the uniform-prior
    testing problem is computed by brute force, then compared against the
    bound for every reference choice and a 20-point lambda grid, plus the
    lambda optimizer and a few gamma values of the variational form.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("soundness")
    for i in range(n_families):
        for q_choice in ("uniform", "mixture", "qstar"):
            family = random_discrete_family(rng, q_choice=q_choice)
            exact = exact_bayes_error(family.conditionals)
            for lam in _LAMBDA_GRID:
                rep = strong_converse_bound(family, float(lam))
                result.record(
                    exact + tol - rep.eps_lower,
                    f"family {i} q={q_choice} lam={lam:.3g}",
                )
            best = optimize_lambda(family)
            result.record(
                exact + tol - best.eps_lower,
                f"family {i} q={q_choice} lam=opt",
            )
            for gamma in (0.5, 1.0, float(family.m_codewords)):
                eps = variational_bound(family, 1.0, gamma)
                result.record(
                    exact + tol - eps,
                    f"family {i} q={q_choice} gamma={gamma:.3g}",
                )
    return result


def divergence_suite(n_points: int = 60, seed: int = 1) -> SuiteResult:
    """Closed forms agree with quadrature and brute-force enumerations."""
    rtol = 1e-6
    rng = np.random.default_rng(seed)
    result = SuiteResult("divergence")
    for i in range(n_points):
        shift_sq = float(rng.uniform(0.01, 4.0))
        sigma_sq = float(rng.uniform(0.25, 4.0))
        lam = float(rng.uniform(0.05, 3.0))
        pair = GaussianShiftPair(shift_sq=shift_sq, sigma_sq=sigma_sq)
        closed = renyi_gaussian_shift(pair, lam)
        quad = renyi_gaussian_quadrature(pair, lam)
        result.record(
            rtol - abs(closed - quad) / max(abs(closed), 1e-12),
            f"gaussian {i} lam={lam:.3g}",
        )
    for i in range(n_points):
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        lam = float(rng.uniform(0.05, 3.0))
        closed = renyi_bernoulli(BernoulliPair(p, q), lam)
        direct = renyi_discrete(
            DiscretePmf(np.array([p, 1.0 - p])),
            DiscretePmf(np.array([q, 1.0 - q])),
            lam,
        )
        result.record(
            rtol - abs(closed - direct) / max(abs(closed), 1e-12),
            f"bernoulli {i}",
        )
    for i in range(n_points // 2):
        k = int(rng.integers(2, 6))
        p = _random_pmf(rng, k, with_zeros=False)
        q = _random_pmf(rng, k, with_zeros=False)
        lam = float(rng.uniform(0.1, 2.0))
        n = int(rng.integers(2, 4))
        additive = renyi_product_iid(p, q, lam, n)
        explicit = renyi_discrete(iid_product_pmf(p, n), iid_product_pmf(q, n), lam)
        result.record(
            rtol - abs(additive - explicit) / max(abs(additive), 1e-12),
            f"product {i}",
        )
    return result


def fano_recovery_suite(n_families: int = 40, seed: int = 2, tol: float = 1e-9) -> SuiteResult:
    """Fano-type floors are sound and the generalized form caps log M.

    The classical bound is checked directly against the exact optimum
    error.  The generalized form is checked as an upper bound on log M when
    fed an error level the family actually achieves (its exact optimum) and
    KL information to the mixture with ratio bound t = M.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("fano-recovery")
    for i in range(n_families):
        family = random_discrete_family(rng, q_choice="mixture")
        exact = exact_bayes_error(family.conditionals)
        m = family.m_codewords
        kl_info = avg_kl_to_mixture(family.conditionals)
        rep = fano_bound(m, kl_info)
        result.record(exact + tol - rep.eps_lower, f"family {i} fano")
        for lam in (0.25, 1.0, 3.0):
            cap = generalized_fano_log_m_bound(lam, float(m), kl_info, exact)
            result.record(cap + tol - math.log(m), f"family {i} gen lam={lam}")
    return result


def packing_suite(seed: int = 3, gv_case: tuple | None = None) -> SuiteResult:
    """Greedy codes, a sparse packing's separation, trimming, and the norm helper.

    A sparse packing's unit norms and its non-negative beta_hat are not
    records: `SparsePacking` enforces the first at construction, and the
    second is a norm, so neither could fail.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("packing")

    cases = [(6, 3), (8, 3), (10, 4)]
    if gv_case is not None:
        cases.append((int(gv_case[0]), int(gv_case[1])))
    for m, d_min in cases:
        book = gv_greedy(m, d_min)
        cert = verify_packing(book.to_packing_set())
        result.record(cert.min_distance - d_min, f"gv({m},{d_min}) distance")
        volume = sum(math.comb(m, j) for j in range(d_min))
        floor = math.ceil(2**m / volume)
        result.record(book.size - floor, f"gv({m},{d_min}) size")
        result.notes.append(f"gv({m},{d_min}): size {book.size}, greedy floor {floor}")

    packing = cs_random_packing(32, 3, 8, seed=seed)
    cert = verify_packing(packing.to_packing_set())
    result.record(cert.min_distance**2 - 0.5, "sparse min sq distance")

    for i in range(20):
        values = rng.uniform(0.0, 10.0, size=int(rng.integers(4, 40)))
        size = values.size
        delta = float(rng.uniform(1.0 / size, 1.0 - 1.0 / size))
        kept = values[trim_packing(values, delta)]
        result.record(
            float(np.mean(values)) / (1.0 - delta) - float(np.max(kept)),
            f"trim {i}",
        )

    for i in range(10):
        # a symmetric matrix with a known spectrum: Q diag(ev) Q^T
        ev = rng.normal(size=9)
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
        a = (q * ev) @ q.T
        sym = (a + a.T) / 2.0
        exact = float(np.max(np.abs(ev)))
        approx = operator_norm(sym)
        result.record(1e-8 - abs(approx - exact) / max(exact, 1e-12), f"opnorm {i}")
    return result


_SUITES = {
    "soundness": soundness_suite,
    "divergence": divergence_suite,
    "fano-recovery": fano_recovery_suite,
    "packing": packing_suite,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, **kwargs) -> SuiteResult:
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return fn(**kwargs)
