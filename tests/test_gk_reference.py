"""The Gauss-Kronrod driver against a verbatim copy of its first breadth-first form.

`reference_gk_panels` keeps every panel's bookkeeping in numpy arrays, runs
the open-panel-cap and depth-stop bookkeeping on every step and adds even a
fully converged step through the split path.  `oracle._gk_panels` keeps the
bookkeeping in Python floats and skips the stops where none can bind, so
every total and every QuadratureWarning must come out the same, bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_nan_estimate_gives_nan_tolerance(monkeypatch):
    # interval 1 is nan on (0.9, 1], so its estimate is nan and, as under
    # np.maximum, so is the tolerance of each of its panels, even where atol
    # alone would accept one: all of it refines to the cap, not just the
    # panels that meet the nan
    def f(x, k):
        return np.where((k == 1) & (x > 0.9), np.nan, np.cos(x))

    call = lambda: oracle._gk_panels(f, [0.0, 0.0], [1.0, 1.0], 1e-12, 1e-10)
    value, seen = assert_same_as_reference(monkeypatch, call)
    assert _stalled((value, seen)) == _MAX_OPEN
    total, nan = np.frombuffer(value)
    assert total == pytest.approx(math.sin(1.0), abs=1e-12) and math.isnan(nan)


@pytest.mark.parametrize("atol, rtol", [(0.0, 1e-10), (1e-12, 1e-10)])
def test_infinite_estimates_match_reference(monkeypatch, atol, rtol):
    # rtol * |inf| makes every tolerance of intervals 0 and 1 infinite; the
    # infinite panels still fail, as inf - inf and inf * 0 weights give nan
    def f(x, k):
        return np.where(x > 0.7, np.where(k == 0, np.inf, -np.inf), np.cos(x))

    call = lambda: oracle._gk_panels(f, [0.0, 0.0, 0.0], [1.0, 1.0, 0.5], atol, rtol)
    value, seen = assert_same_as_reference(monkeypatch, call)
    assert _stalled((value, seen)) > _MAX_OPEN
    plus, minus, finite = np.frombuffer(value)
    assert plus == math.inf and minus == -math.inf
    assert finite == pytest.approx(math.sin(0.5), abs=1e-12)


@pytest.mark.parametrize("atol, rtol", [(1e-12, 0.0), (0.0, 1e-12)])
def test_widths_a_billion_apart_match_reference(monkeypatch, atol, rtol):
    # each panel's tolerance scales with its share of its own interval, so the
    # 1e-6 interval's panels get a share 1e9 times the 1e3 interval's
    def f(x, k):
        return np.exp(-0.5 * x * x) + 1.0 / (1.0 + x * x)

    call = lambda: oracle._gk_panels(f, [0.0, -500.0], [1e-6, 500.0], atol, rtol)
    value, seen = assert_same_as_reference(monkeypatch, call)
    assert not seen
    narrow, wide = np.frombuffer(value)
    assert narrow == pytest.approx(2e-6, rel=1e-12)
    assert wide == pytest.approx(math.sqrt(2.0 * math.pi) + 2.0 * math.atan(500.0), rel=1e-11)


def _panels_per_step(monkeypatch, call):
    """How many panels each step of call()'s one quadrature evaluates."""
    steps = []
    driver = oracle._gk_panels

    def counting(f, a, b, atol, rtol):
        def f_counted(x, k):
            steps.append(len(x))
            return f(x, k)

        return driver(f_counted, a, b, atol, rtol)

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_gk_panels", counting)
        call()
    return steps


def test_many_cells_over_several_levels_match_reference(monkeypatch):
    # m = 64 cells, each one interval, refined over three steps or more
    fam = HypercubeDensityFamily(m=64, c=2000.0)
    rng = np.random.default_rng(3)
    tau_a = rng.choice([-1, 1], size=64)
    tau_b = -tau_a
    tau_b[::3] *= -1
    square = lambda: density_sq_integral(fam, tau_a)
    value, seen = assert_same_as_reference(monkeypatch, square)
    assert not seen
    assert np.frombuffer(value)[0] == pytest.approx(1.0 + fam.sq_integral_excess, abs=64e-12)
    steps = _panels_per_step(monkeypatch, square)
    assert steps[0] == 64 and len(steps) >= 3
    gap = lambda: hellinger_sq_distance(fam, tau_a, tau_b)
    value, seen = assert_same_as_reference(monkeypatch, gap)
    assert not seen and np.frombuffer(value)[0] > 0.0
    steps = _panels_per_step(monkeypatch, gap)
    assert steps[0] == 42 and len(steps) >= 3


# Integrands drawn by the property below: smooth, peaked, oscillating,
# discontinuous, singular in the derivative, and nan on part of the range.
_MENU = {
    "polynomial": lambda x, k: (1.0 + k) * x**3 - 2.0 * x + 0.5,
    "gaussian bump": lambda x, k: np.exp(-4.0 * (x - 0.5 * k) ** 2),
    "fast sine": lambda x, k: np.sin(40.0 * x),
    "step": lambda x, k: (x > 0.1 * k).astype(float),
    "sqrt near 0": lambda x, k: np.sqrt(np.abs(x)),
    "nan on part": lambda x, k: np.where(x > 0.5, np.nan, np.cos(x)),
}
# log-uniform on [1e-6, 1e3]
_WIDTHS = st.floats(-6.0, 3.0).map(lambda e: 10.0**e)
_TOLERANCES = st.one_of(
    st.tuples(st.floats(1e-14, 1e-6), st.just(0.0)),
    st.tuples(st.just(0.0), st.floats(1e-13, 1e-6)),
    st.tuples(st.floats(1e-14, 1e-6), st.floats(1e-13, 1e-6)),
)


# monkeypatch is only used through monkeypatch.context(), which undoes its
# patch before the next example
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.sampled_from(sorted(_MENU)),
    st.lists(
        st.tuples(st.floats(-2.0, 2.0), _WIDTHS),
        min_size=1,
        max_size=4,
    ),
    _TOLERANCES,
)
def test_drawn_integrals_match_reference(monkeypatch, name, intervals, tolerances):
    a = [lo for lo, _ in intervals]
    b = [lo + width for lo, width in intervals]
    atol, rtol = tolerances
    assert_same_as_reference(
        monkeypatch, lambda: oracle._gk_panels(_MENU[name], a, b, atol, rtol)
    )
