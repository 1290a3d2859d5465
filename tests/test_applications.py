"""The three worked bound assemblies and their agreement with the generic machinery."""

import dataclasses
import json
import math
import os

import pytest

from conversekit.applications import (
    ActiveConfig,
    ConfigError,
    CsConfig,
    DensityConfig,
    active_bound,
    compute_bounds,
    cs_bound,
    density_bound,
    sweep,
)
from conversekit.cli import canonical_json
from conversekit.converse import strong_converse_eps_from_log_terms

DENSITY_GUIDE = DensityConfig(n=1e11, nu=1.0, c=0.1, a=0.5)
ACTIVE_GUIDE = ActiveConfig(n=1e6, d=2, alpha=1.0, kappa=2.0, L=1.0, c=0.1, H=1.0, nu=0.5)


def cs_guide(log_m: float = 1e4, k: float = 128.0) -> CsConfig:
    n = k * math.exp(4.0 * log_m / k)
    return CsConfig(n=n, k=k, sigma_sq=1.0, frob_norm_sq=n, lam=0.05, delta=0.05, beta=0.01)


# --- density estimation ---


def test_density_frozen_values():
    rep = density_bound(DENSITY_GUIDE)
    assert rep.strong.eps_lower == pytest.approx(0.9955225053120399, rel=1e-12)
    assert rep.fano.eps_lower == pytest.approx(0.8111637298181528, rel=1e-12)
    assert rep.fano.params["eps_limit_large_n"] == pytest.approx(
        0.8644986449864498, rel=1e-12
    )
    assert rep.strong.eps_lower >= 0.99
    assert rep.fano.eps_lower <= 0.87


def test_density_matches_generic_machinery():
    rep = density_bound(DENSITY_GUIDE)
    cfg = DENSITY_GUIDE
    x = cfg.c**2 * cfg.a
    m_real = cfg.n**0.2 / cfg.nu
    # the assembled floor is the generic one at log M = c0 m, log S = x n / m^4
    generic = strong_converse_eps_from_log_terms(cfg.c0 * m_real, x * cfg.n / m_real**4, 1.0)
    assert rep.strong.eps_raw == pytest.approx(generic, rel=1e-12)
    # and the risk is w(A psi_n) * eps with the identity loss at psi_n = x/(6 m^4)
    assert rep.strong.risk_lower == pytest.approx(
        x / (6.0 * m_real**4) * rep.strong.eps_lower, rel=1e-12
    )


def test_density_presubstitution_agrees():
    rep = density_bound(DENSITY_GUIDE)
    assert rep.strong.params["presubstitution_rel_gap"] <= 1e-12
    assert rep.strong.params["presubstitution_risk"] == pytest.approx(
        rep.strong.risk_lower, rel=1e-12
    )


def test_density_floor_bandwidth_recorded():
    rep = density_bound(DENSITY_GUIDE)
    params = rep.strong.params
    assert params["m_floor"] == math.floor(params["m_real"])
    assert 0.0 <= params["floor_m_eps"] <= 1.0
    assert params["floor_m_risk"] >= 0.0


def test_density_below_one_bandwidth_reports_no_floor_m():
    # n^(1/5) / nu = 0.766: no whole bandwidth m >= 1 to report at
    rep = density_bound(DensityConfig(n=2, nu=1.5, c=0.1, a=0.5))
    params = rep.strong.params
    assert params["m_real"] == pytest.approx(0.7657989033313567, rel=1e-12)
    assert params["m_floor"] is None
    assert not any(key.startswith("floor_m_") for key in params)
    assert rep.strong.eps_lower == 0.0
    assert json.loads(canonical_json(rep.to_json_dict()))["strong"]["params"]["m_floor"] is None


def test_density_asymptote_formula():
    rep = density_bound(DENSITY_GUIDE)
    cfg = DENSITY_GUIDE
    x = cfg.c**2 * cfg.a
    assert rep.asymptote == pytest.approx(
        cfg.c0**0.8 * x**0.2 / 6.0 * cfg.n**-0.8, rel=1e-14
    )


def test_density_fano_capped_for_all_n():
    # the weak-converse eps increases toward its large-n limit < 0.87
    for n in (10.0, 1e3, 1e6, 1e9, 1e13, 1e16):
        rep = density_bound(dataclasses.replace(DENSITY_GUIDE, n=n))
        assert rep.fano.eps_lower <= 0.8644986449864499


def test_density_zero_perturbation():
    rep = density_bound(dataclasses.replace(DENSITY_GUIDE, c=0.0))
    assert rep.strong.risk_lower == 0.0
    assert rep.asymptote == 0.0
    assert rep.ratio is None  # fano risk is zero too


def test_density_config_errors_name_the_inequality():
    with pytest.raises(ConfigError, match="nu"):
        DensityConfig(n=1e6, nu=1.8, c=0.1, a=0.5)  # limit is 1.7505
    with pytest.raises(ConfigError, match="n > 0"):
        DensityConfig(n=0.0, nu=1.0, c=0.1, a=0.5)
    with pytest.raises(ConfigError, match="c_g"):
        DensityConfig(n=1e6, nu=0.5, c=0.1, a=0.5, c_g=1.0)
    with pytest.raises(ConfigError, match="> 25"):
        DensityConfig(n=1e6, nu=1.0, c=0.1, a=0.5, nu_schedule_kappa=20.0)
    with pytest.raises(ConfigError, match="schedule"):
        DensityConfig(n=1e6, nu=1.0, c=0.0, a=0.5, nu_schedule_kappa=26.0)


# Every inequality of the three configs, broken one at a time, with its whole
# message: checks format their message only when they fail, and the text
# must not drift.
CS_BASE = CsConfig(n=1e6, k=128.0, sigma_sq=1.0, frob_norm_sq=1e6, lam=0.05, delta=0.05)
CONFIG_MESSAGES = [
    (DENSITY_GUIDE, {"n": -1.0}, "n > 0 violated: n = -1.0"),
    (DENSITY_GUIDE, {"n": math.nan}, "n > 0 violated: n = nan"),
    (DENSITY_GUIDE, {"c": -0.5}, "c >= 0 violated: c = -0.5"),
    (DENSITY_GUIDE, {"a": 0.0}, "a > 0 violated: a = 0.0"),
    (DENSITY_GUIDE, {"c0": 0.0}, "c0 > 0 violated: c0 = 0.0"),
    (DENSITY_GUIDE, {"c_g": 1.0}, "0 <= c_g < 1 violated: c_g = 1.0"),
    (DENSITY_GUIDE, {"nu": -1.0}, "nu > 0 violated: nu = -1.0"),
    (DENSITY_GUIDE, {"nu": 100.0},
     "nu < (c0 / (c^2 a))^(1/5) violated: nu = 100.0, limit = 1.749720860568452"),
    (DENSITY_GUIDE, {"nu_schedule_kappa": 25.0}, "schedule exponent > 25 violated: 25.0"),
    (DENSITY_GUIDE, {"c": 0.0, "nu_schedule_kappa": 26.0},
     "nu schedule needs c > 0 so its limit is finite"),
    (ACTIVE_GUIDE, {"n": 0.0}, "n > 0 violated: n = 0.0"),
    (ACTIVE_GUIDE, {"d": 2.5}, "integer d >= 2 violated: d = 2.5"),
    (ACTIVE_GUIDE, {"d": 1}, "integer d >= 2 violated: d = 1"),
    (ACTIVE_GUIDE, {"alpha": 0.0}, "alpha > 0 violated: alpha = 0.0"),
    (ACTIVE_GUIDE, {"kappa": 0.5}, "kappa >= 1 violated: kappa = 0.5"),
    (ACTIVE_GUIDE, {"L": 0.0}, "L > 0 violated: L = 0.0"),
    (ACTIVE_GUIDE, {"H": -1.0}, "H > 0 violated: H = -1.0"),
    (ACTIVE_GUIDE, {"c": 0.6}, "0 < c <= 1/2 violated: c = 0.6"),
    (ACTIVE_GUIDE, {"nu": 0.0}, "nu > 0 violated: nu = 0.0"),
    (ACTIVE_GUIDE, {"lam": 1.5}, "0 < lam <= 1 violated: lam = 1.5"),
    (CS_BASE, {"k": 0.5}, "k >= 1 violated: k = 0.5"),
    (CS_BASE, {"n": 100.0}, "n > k violated: n = 100.0, k = 128.0"),
    (CS_BASE, {"sigma_sq": 0.0}, "sigma_sq > 0 violated: 0.0"),
    (CS_BASE, {"frob_norm_sq": -1.0}, "frob_norm_sq > 0 violated: -1.0"),
    (CS_BASE, {"lam": 0.0}, "lam > 0 violated: lam = 0.0"),
    (CS_BASE, {"delta": 1.0}, "0 < delta < 1 violated: delta = 1.0"),
    (CS_BASE, {"beta": -0.1}, "beta >= 0 violated: beta = -0.1"),
    (CS_BASE, {"n": 2.0, "k": 1.0},
     "(k/4) log(n/k) > 1 violated: value = 0.17328679513998632"),
    (CS_BASE, {"delta_m": 1.5}, "0 < delta_m < 1 violated: delta_m = 1.5"),
    (CS_BASE, {"delta_m": 1e-300}, "delta_m = 1e-300 outside [1/M, 1 - 1/M]"),
    (CS_BASE, {"n": 4000.0, "k": 4.0, "delta_m": 1.0 - 1e-10},
     "delta_m = 0.9999999999 outside [1/M, 1 - 1/M]"),
    # n = inf passes n > 0 (and n > k) but leaves no finite bound
    (DENSITY_GUIDE, {"n": math.inf}, "n < inf violated: n = inf"),
    (ACTIVE_GUIDE, {"n": math.inf}, "n < inf violated: n = inf"),
    (ACTIVE_GUIDE, {"n": math.nan}, "n > 0 violated: n = nan"),
    (CS_BASE, {"n": math.inf}, "n < inf violated: n = inf"),
    (CS_BASE, {"n": math.nan}, "n > k violated: n = nan, k = 128.0"),
    # configs that pass their checks but carry the assembly past the float range
    (DENSITY_GUIDE, {"n": 1e6, "nu": 1e-300},
     "density bound leaves the float range: (34, 'Numerical result out of range')"),
    (ACTIVE_GUIDE, {"kappa": 1e300},
     "active bound leaves the float range: (34, 'Numerical result out of range')"),
    (ACTIVE_GUIDE, {"c": 1e-300}, "active bound leaves the float range: float division by zero"),
    (DENSITY_GUIDE, {"nu_schedule_kappa": 1e300},
     "nu_limit (1 - n^(-1/kappa)) > 0 violated: nu_effective = 0.0"),
    (CS_BASE, {"lam": math.inf}, "lam < inf violated: lam = inf"),
    # the scheduled bandwidth is negative below n = 1 and 0 at n = 1
    (DENSITY_GUIDE, {"n": 0.5, "nu_schedule_kappa": 26.0},
     "nu_limit (1 - n^(-1/kappa)) > 0 violated: nu_effective = -0.0472740469370355"),
    (DENSITY_GUIDE, {"n": 1.0, "nu_schedule_kappa": 26.0},
     "nu_limit (1 - n^(-1/kappa)) > 0 violated: nu_effective = 0.0"),
]


@pytest.mark.parametrize("base, change, message", CONFIG_MESSAGES)
def test_config_error_message_is_exact(base, change, message):
    with pytest.raises(ConfigError) as info:
        compute_bounds(dataclasses.replace(base, **change))
    assert str(info.value) == message


def test_density_nu_schedule():
    cfg = dataclasses.replace(DENSITY_GUIDE, nu_schedule_kappa=26.0)
    nu_used = cfg.effective_nu()
    assert 0.0 < nu_used < cfg.nu_limit
    rep = density_bound(cfg)
    assert rep.strong.params["nu_effective"] == pytest.approx(nu_used)
    # the schedule climbs toward (never reaches) the constant-nu ceiling
    climb = [dataclasses.replace(cfg, n=10.0**k).effective_nu() for k in range(6, 40, 4)]
    assert all(b > a for a, b in zip(climb, climb[1:]))
    assert all(v < cfg.nu_limit for v in climb)


# --- active learning ---


def test_active_frozen_values():
    rep = active_bound(ACTIVE_GUIDE)
    assert rep.strong.eps_lower == pytest.approx(0.9974282288343389, rel=1e-12)
    assert rep.fano.params["xi"] == pytest.approx(1.8466496523378735, rel=1e-12)
    assert rep.fano.params["vacuous"] is True
    assert rep.fano.eps_lower == 0.0  # xi >= 1/2 drives the baseline negative


def test_active_chain_form_recorded():
    rep = active_bound(ACTIVE_GUIDE)
    params = rep.strong.params
    assert math.isfinite(params["chain_eps_raw"])
    # the published display and the underlying chain differ in a lower-order
    # term; the gap is small but genuinely nonzero and must be surfaced
    assert 0.0 < params["chain_vs_displayed_gap"] < 1e-3
    assert params["chain_eps_raw"] == pytest.approx(rep.strong.eps_raw, abs=1e-3)


def test_active_chain_denominator_out_of_regime():
    # 1 - 2 c beta_m <= 0 while the displayed form's denominator stays positive
    rep = active_bound(ActiveConfig(n=10, d=2, alpha=1, kappa=2, L=4, c=0.5, H=1, nu=3))
    params = rep.strong.params
    assert 1.0 - 2.0 * 0.5 * params["beta_m"] <= 0.0
    assert math.isfinite(params["bracket"])
    assert params["chain_eps_raw"] == -math.inf
    assert params["chain_vs_displayed_gap"] is None
    assert params["out_of_regime"] is True


def test_active_threshold_recomputed():
    # smallest n with eps >= 0.99, then the criterion at 10x that
    lo, hi = 1.0, 1e7

    def eps_at(n):
        return active_bound(dataclasses.replace(ACTIVE_GUIDE, n=n)).strong.eps_lower

    assert eps_at(hi) >= 0.99 and eps_at(lo) < 0.99
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if eps_at(mid) >= 0.99:
            hi = mid
        else:
            lo = mid
    assert 5.0e5 < hi < 5.1e5  # recomputed threshold, pinned loosely
    assert eps_at(10.0 * hi) >= 0.99


def test_active_out_of_regime_flag():
    rep = active_bound(
        ActiveConfig(n=1e6, d=2, alpha=1.0, kappa=2.0, L=1.0, c=0.5, H=1.0, nu=0.9)
    )
    assert rep.strong.params["out_of_regime"] is True
    assert rep.strong.eps_lower == 0.0
    # small n can kill the inner denominator entirely
    rep = active_bound(
        ActiveConfig(n=8.0, d=2, alpha=1.0, kappa=2.0, L=1.0, c=0.5, H=1.0, nu=0.1)
    )
    assert rep.strong.params["out_of_regime"] is True
    assert rep.strong.eps_raw == -math.inf


def test_active_loss_prefactor_shape():
    rep = active_bound(ACTIVE_GUIDE)
    params = rep.strong.params
    psi = params["psi_n"]
    assert psi == pytest.approx(params["beta_m"] / 16.0, rel=1e-14)
    shaped = 4.0 * 0.1 / (2.0 * 4.0) * psi**2.0
    assert params["loss_capped_at_psi_n"] is False
    assert rep.strong.risk_lower == pytest.approx(shaped * rep.strong.eps_lower, rel=1e-12)


def test_active_config_errors():
    with pytest.raises(ConfigError, match="1/2"):
        ActiveConfig(n=1e6, d=2, alpha=1.0, kappa=2.0, L=1.0, c=0.6, H=1.0, nu=0.5)
    with pytest.raises(ConfigError, match="d >= 2"):
        ActiveConfig(n=1e6, d=1, alpha=1.0, kappa=2.0, L=1.0, c=0.1, H=1.0, nu=0.5)
    with pytest.raises(ConfigError, match="lam"):
        ActiveConfig(n=1e6, d=2, alpha=1.0, kappa=2.0, L=1.0, c=0.1, H=1.0, nu=0.5, lam=1.5)
    with pytest.raises(ConfigError, match="kappa"):
        ActiveConfig(n=1e6, d=2, alpha=1.0, kappa=0.5, L=1.0, c=0.1, H=1.0, nu=0.5)


def test_active_rho_derived():
    cfg = ActiveConfig(n=1e6, d=5, alpha=2.0, kappa=2.0, L=1.0, c=0.1, H=1.0, nu=0.5)
    assert cfg.rho == pytest.approx(2.0)


# --- compressed sensing ---


def test_cs_frozen_values_at_large_log_m():
    rep = cs_bound(cs_guide())
    assert rep.strong.eps_lower == pytest.approx(0.999999999914242, rel=1e-12)
    assert rep.ratio == pytest.approx(7.2388191917891245, rel=1e-12)
    assert 7.2 <= rep.ratio <= 8.0


def test_cs_small_case_exact_formula():
    # n = 1e6, k = 128: log M = 32 log(7812.5) = 286.8, far from the
    # asymptotic regime, so eps is small and the ratio well under 8
    cfg = CsConfig(n=1e6, k=128.0, sigma_sq=1.0, frob_norm_sq=1e6, lam=0.05, delta=0.05, beta=0.01)
    rep = cs_bound(cfg)
    assert rep.strong.eps_lower == pytest.approx(0.19909791813834565, rel=1e-12)
    assert rep.ratio == pytest.approx(1.4461491418620422, rel=1e-12)
    assert rep.strong.risk_lower == pytest.approx(1.2744698033627357e-05, rel=1e-12)
    assert rep.fano.risk_lower == pytest.approx(8.81285177628184e-06, rel=1e-12)


def test_cs_matches_generic_machinery():
    cfg = cs_guide()
    rep = cs_bound(cfg)
    log_m = cfg.log_m_codewords
    log_s = cfg.lam * ((1.0 - cfg.delta) * log_m - math.log(cfg.delta_m_effective))
    generic = strong_converse_eps_from_log_terms(log_m, log_s, cfg.lam)
    assert rep.strong.eps_raw == pytest.approx(generic, rel=1e-12)


def test_cs_ratio_closed_form():
    cfg = cs_guide()
    rep = cs_bound(cfg)
    log_m = cfg.log_m_codewords
    expect = (
        8.0
        * (1.0 - cfg.delta)
        / (1.0 + cfg.lam)
        * (log_m - 1.0)
        / (log_m - 2.0)
        * rep.strong.eps_lower
    )
    assert rep.ratio == pytest.approx(expect, rel=1e-12)


def test_cs_degenerate_log_m():
    # log M = log(25/4) = 1.83 lies in (1, 2]: baseline floor is zero
    cfg = CsConfig(n=25.0, k=4.0, sigma_sq=1.0, frob_norm_sq=25.0, lam=0.5, delta=0.5)
    rep = cs_bound(cfg)
    assert rep.fano.risk_lower == 0.0
    assert rep.fano.params["risk_raw"] < 0.0
    assert rep.ratio is None
    assert rep.strong.params["degenerate_log_m"] is True
    assert rep.fano.params["eps_not_derived"] is True


def test_cs_config_errors():
    with pytest.raises(ConfigError, match="log"):
        CsConfig(n=10.0, k=4.0, sigma_sq=1.0, frob_norm_sq=10.0, lam=0.5, delta=0.5)
    with pytest.raises(ConfigError, match="delta"):
        CsConfig(n=1e6, k=128.0, sigma_sq=1.0, frob_norm_sq=1e6, lam=0.5, delta=1.5)
    with pytest.raises(ConfigError, match="n > k"):
        CsConfig(n=4.0, k=4.0, sigma_sq=1.0, frob_norm_sq=4.0, lam=0.5, delta=0.5)
    with pytest.raises(ConfigError, match="delta_m"):
        CsConfig(
            n=1e6, k=128.0, sigma_sq=1.0, frob_norm_sq=1e6, lam=0.5, delta=0.5,
            delta_m=1e-300,
        )


def test_cs_delta_m_override():
    base = cs_guide()
    rep_default = cs_bound(base)
    assert rep_default.strong.params["delta_m"] == pytest.approx(1.0 / 1e4)
    rep_custom = cs_bound(dataclasses.replace(base, delta_m=0.2))
    assert rep_custom.strong.params["delta_m"] == 0.2
    assert rep_custom.strong.eps_lower != rep_default.strong.eps_lower


def test_cs_astronomical_n_stays_finite():
    cfg = cs_guide()  # n = 128 exp(312.5) ~ 4.5e135
    assert cfg.n > 1e100
    rep = cs_bound(cfg)
    assert math.isfinite(rep.strong.risk_lower)
    assert math.isfinite(rep.asymptote)


# --- report assembly and sweeps ---


def test_reports_echo_the_same_config():
    for rep in (density_bound(DENSITY_GUIDE), active_bound(ACTIVE_GUIDE), cs_bound(cs_guide())):
        assert rep.strong.params["config"] == rep.fano.params["config"]
        blob = rep.to_json_dict()
        assert sorted(blob) == ["app", "asymptote", "fano", "ratio", "strong"]
        assert blob["strong"]["method"] == "strong_converse"
        assert blob["fano"]["method"] == "fano"


@pytest.mark.parametrize(
    "app, config_type",
    [("density", DensityConfig), ("active", ActiveConfig), ("cs", CsConfig)],
)
def test_config_echo_matches_asdict_on_golden_configs(app, config_type):
    golden = os.path.join(os.path.dirname(__file__), "..", "docs", "golden", f"{app}.json")
    with open(golden, encoding="utf-8") as fh:
        cfg = config_type(**json.load(fh)["manifest"]["config"])
    rep = compute_bounds(cfg)
    strong, fano = rep.strong.params["config"], rep.fano.params["config"]
    assert strong == dataclasses.asdict(cfg)
    assert fano == dataclasses.asdict(cfg)
    assert list(strong) == list(dataclasses.asdict(cfg))
    assert strong is not fano


def test_compute_bounds_dispatch():
    assert compute_bounds(DENSITY_GUIDE).app == "density"
    assert compute_bounds(ACTIVE_GUIDE).app == "active"
    assert compute_bounds(cs_guide()).app == "cs"
    with pytest.raises(TypeError):
        compute_bounds(object())


def test_sweep_empty_and_unknown():
    assert sweep(DENSITY_GUIDE, "n", []) == []
    with pytest.raises(ValueError, match="no parameter"):
        sweep(DENSITY_GUIDE, "bandwidth", [1.0])


@pytest.mark.parametrize("template, vary, values", [
    (DENSITY_GUIDE, "n", [1e3, 1e7, 1e11, 3e20]),
    (DENSITY_GUIDE, "nu", [0.25, 1.0, 1.7]),
    (ACTIVE_GUIDE, "n", [1e2, 1e6, 1e12]),
    (ACTIVE_GUIDE, "d", [2, 3, 5]),
    (cs_guide(), "lam", [0.01, 0.05, 0.5]),
    (cs_guide(), "n", [1e4, 1e8, 1e40]),
])
def test_sweep_matches_per_point_replace(template, vary, values):
    want = [compute_bounds(dataclasses.replace(template, **{vary: v})) for v in values]
    got = sweep(template, vary, values)
    assert [canonical_json(r.to_json_dict()) for r in got] == [
        canonical_json(r.to_json_dict()) for r in want
    ]


def test_sweep_validates_every_point_before_computing_any():
    # alpha = 5e-324 passes ActiveConfig but its report evaluates to NaN;
    # the later point's ConfigError is raised first
    with pytest.raises(ValueError, match="NaN"):
        sweep(ACTIVE_GUIDE, "alpha", [5e-324])
    with pytest.raises(ConfigError, match=r"^alpha > 0 violated: alpha = -1.0$"):
        sweep(ACTIVE_GUIDE, "alpha", [5e-324, 1.0, -1.0])


def test_sweep_density_eps_monotone():
    values = [10.0**k for k in range(6, 15)]
    reports = sweep(DENSITY_GUIDE, "n", values)
    eps = [r.strong.eps_lower for r in reports]
    assert all(b >= a for a, b in zip(eps, eps[1:]))
    assert eps[-1] >= 0.99


def test_sweep_recomputes_derived_defaults():
    # delta_m defaults to 1/log M and must track the swept n, not the template's
    template = CsConfig(
        n=1e6, k=128.0, sigma_sq=1.0, frob_norm_sq=1e6, lam=0.05, delta=0.05
    )
    for rep in sweep(template, "n", [1e6, 1e8, 1e10]):
        cfg = rep.strong.params["config"]
        log_m = (cfg["k"] / 4.0) * math.log(cfg["n"] / cfg["k"])
        assert rep.strong.params["delta_m"] == pytest.approx(1.0 / log_m, rel=1e-14)


def test_sweep_cs_over_k_has_interior_max():
    # log M = (k/4) log(n/k) peaks at k = n/e, and the risk tracks it
    n = 1e6
    ks = [64.0, 1024.0, 16384.0, 131072.0, 367879.0, 900000.0]
    reports = sweep(
        CsConfig(n=n, k=64.0, sigma_sq=1.0, frob_norm_sq=n, lam=0.05, delta=0.05),
        "k",
        ks,
    )
    risks = [r.strong.risk_lower for r in reports]
    best = risks.index(max(risks))
    assert ks[best] == 367879.0
    assert risks[best] > risks[-1] > 0.0
