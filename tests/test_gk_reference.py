"""The Gauss-Kronrod driver against a verbatim copy of its first breadth-first form.

`reference_gk_panels` runs the open-panel-cap and depth-stop bookkeeping on
every step and adds even a fully converged step through the split path.
`oracle._gk_panels` skips that work where no stop can bind, so every total
and every QuadratureWarning must come out the same, bit for bit.
"""

import math
import warnings

import numpy as np
import pytest

from conversekit import oracle
from conversekit.divergence import GaussianShiftPair
from conversekit.oracle import (
    _GK_NODES,
    _GK_WEIGHTS,
    _MAX_DEPTH,
    _MAX_OPEN,
    HypercubeDensityFamily,
    QuadratureWarning,
    density_sq_integral,
    hellinger_sq_distance,
    renyi_gaussian_quadrature,
)


def reference_gk_panels(f, a, b, atol, rtol) -> np.ndarray:
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = a.size
    share = 1.0 / (b - a)
    totals = np.zeros(n)
    lo, hi, k = a, b, np.arange(n)
    stalled = 0
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        mid = lo + half
        x = mid[:, None] + half[:, None] * _GK_NODES
        kron, gauss = (f(x, k[:, None]) @ _GK_WEIGHTS).T * half
        estimate = totals + np.bincount(k, weights=kron, minlength=n)
        tol = np.maximum(atol, rtol * np.abs(estimate[k])) * (2.0 * half * share[k])
        met = np.abs(kron - gauss) <= tol
        crowded = 2 * np.bincount(k[~met], minlength=n)[k] > _MAX_OPEN
        done = met | crowded | (depth == _MAX_DEPTH)
        stalled += np.count_nonzero(done) - np.count_nonzero(met)
        totals += np.bincount(k[done], weights=kron[done], minlength=n)
        split = ~done
        if not split.any():
            break
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi, k = np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.tile(k[split], 2)
    if stalled:
        warnings.warn(
            f"adaptive Gauss-Kronrod: {stalled} panel(s) taken as they were, short of "
            f"the tolerance, at the depth limit of {_MAX_DEPTH} bisections or the cap of "
            f"{_MAX_OPEN} open panels per interval; the result is a best effort",
            QuadratureWarning,
            stacklevel=3,
        )
    return totals


def _observe(call):
    """call()'s result as bytes, and every warning it raised as (category, text, file, line)."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("always")
        value = call()
    seen = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return np.asarray(value, dtype=float).tobytes(), seen


def assert_same_as_reference(monkeypatch, call):
    """call() gives the same bits and warnings under the driver and under the reference."""
    fast = _observe(call)
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_gk_panels", reference_gk_panels)
        slow = _observe(call)
    assert fast == slow
    return fast


def _stalled(observed) -> int:
    _, seen = observed
    texts = [text for category, text, *_ in seen if category is QuadratureWarning]
    assert len(texts) <= 1
    return int(texts[0].split(": ")[1].split(" ")[0]) if texts else 0


def test_workload_draws_match_reference(monkeypatch):
    # drawn as the benchmark's quadrature workload draws its pool
    rng = np.random.default_rng(7)
    cells = 16
    for _ in range(50):
        pair = GaussianShiftPair(
            shift_sq=float(rng.uniform(0.01, 4.0)), sigma_sq=float(rng.uniform(0.25, 4.0))
        )
        lam = float(rng.uniform(0.05, 3.0))
        cube = HypercubeDensityFamily(m=cells, c=float(rng.uniform(0.1, 0.5)))
        tau_a = rng.choice([-1, 1], size=cells)
        tau_b = tau_a.copy()
        flips = rng.random(cells) < 0.5
        flips[int(rng.integers(cells))] = True
        tau_b[flips] *= -1
        for call in (
            lambda: renyi_gaussian_quadrature(pair, lam),
            lambda: density_sq_integral(cube, tau_a),
            lambda: hellinger_sq_distance(cube, tau_a, tau_b),
        ):
            assert _stalled(assert_same_as_reference(monkeypatch, call)) == 0


def test_depth_stop_matches_reference(monkeypatch):
    # the one panel holding the jump at 1/3 fails at every depth
    step = lambda x, k: (x > 1 / 3).astype(float)
    seen = assert_same_as_reference(
        monkeypatch, lambda: oracle._gk_panels(step, 0.0, 1.0, 1e-10, 0.0)
    )
    assert _stalled(seen) == 1


def test_open_panel_cap_matches_reference(monkeypatch):
    # nan panels never converge, so the cap ends the call
    seen = assert_same_as_reference(
        monkeypatch, lambda: renyi_gaussian_quadrature(GaussianShiftPair(1.0, 1.0), 1e200)
    )
    assert _stalled(seen) == _MAX_OPEN


def test_overflowing_integrand_matches_reference(monkeypatch):
    # lam D = 5500 nats: the integrand overflows to inf and hundreds of panels stall
    seen = assert_same_as_reference(
        monkeypatch, lambda: renyi_gaussian_quadrature(GaussianShiftPair(100.0, 1.0), 10.0)
    )
    assert _stalled(seen) > _MAX_OPEN / 2


def test_one_capped_interval_among_converged_ones_matches_reference(monkeypatch):
    # interval 1 oscillates too fast to converge in 2^10 panels and hits the
    # cap; interval 0 converges at once, and interval 2 is still splitting
    # then, near 0, and converges some 30 bisections later
    def f(x, k):
        return np.where(k == 1, np.sin(1e5 * x), np.where(k == 2, np.sqrt(x + 1e-12), x * x))

    call = lambda: oracle._gk_panels(f, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1e-14, 0.0)
    value, seen = assert_same_as_reference(monkeypatch, call)
    assert _stalled((value, seen)) == _MAX_OPEN
    totals = np.frombuffer(value)
    assert totals[0] == pytest.approx(1 / 3, abs=1e-14)
    assert totals[2] == pytest.approx(2 / 3, abs=1e-11)


def test_empty_interval_list_matches_reference(monkeypatch):
    fam = HypercubeDensityFamily(m=4, c=0.5)
    value, seen = assert_same_as_reference(
        monkeypatch, lambda: hellinger_sq_distance(fam, [1, -1, 1, -1], [1, -1, 1, -1])
    )
    assert np.frombuffer(value)[0] == 0.0 and not seen


@pytest.mark.parametrize("atol, rtol", [(1e-12, 0.0), (0.0, 1e-12)])
def test_single_tolerance_kinds_match_reference(monkeypatch, atol, rtol):
    def f(x, k):
        return np.exp(-((x - k) ** 2) * (1.0 + k)) + np.cos(3.0 * x)

    a = [-3.0, -1.0, 0.0, 0.5]
    b = [3.0, 2.0, 1.0e-3, 4.0]
    value, seen = assert_same_as_reference(
        monkeypatch, lambda: oracle._gk_panels(f, a, b, atol, rtol)
    )
    assert not seen and all(math.isfinite(t) for t in np.frombuffer(value))
