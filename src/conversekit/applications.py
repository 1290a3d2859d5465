"""Assembled minimax lower bounds for three estimation problems.

Each application packs a hypercube or sphere of alternatives, feeds the
resulting divergence profile through the strong-converse machinery, and pairs
the outcome with a Fano-type baseline at matched scaling so the two floors
can be compared point by point.  Everything here is closed form; the heavy
constructions those forms summarize are exercised separately by the packing
and oracle modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log, sqrt

from .converse import (
    BoundReport,
    _clamp_eps,
    _one_minus_scaled_exp,
    strong_converse_eps_from_log_terms,
)

__all__ = [
    "ConfigError",
    "DensityConfig",
    "ActiveConfig",
    "CsConfig",
    "ComparisonReport",
    "density_bound",
    "active_bound",
    "cs_bound",
    "compute_bounds",
    "sweep",
]

LOG2 = log(2.0)


class ConfigError(ValueError):
    """A configuration violates one of its stated inequalities."""


def _require(cond: bool, message: str, *args):
    """Raise ConfigError(message.format(*args)) unless cond; a passing check formats nothing."""
    if not cond:
        raise ConfigError(message.format(*args))


def _config_echo(cfg) -> dict:
    """The config's fields as a new flat dict, in declaration order.

    A config's instance dict holds exactly its fields (no slots, no cached
    properties), and every field is a scalar or None, so a shallow copy of
    vars(cfg) equals dataclasses.asdict without its reflection and deepcopy.
    """
    return dict(vars(cfg))


@dataclass(frozen=True)
class DensityConfig:
    """Density estimation on [0, 1] from n iid samples.

    The alternatives are 1 + sum_j tau_j g_j with m = n^(1/5) / nu cells,
    bump amplitude c / m^2, a = integral g^2 and c_g = c sup|g|.  c0 is the
    packing-rate constant, an assumed premise that no code here checks: the
    floor takes log M = c0 m nats of sign patterns at Hamming distance m/3.
    The default 0.082 is 1 - H2(1/3), the Gilbert-Varshamov rate at that
    distance in bits (0.0566 in nats); the exact GV count certifies only
    0.0726 m at m = 158.
    """

    n: float
    nu: float
    c: float
    a: float
    c0: float = 0.082
    c_g: float | None = None
    nu_schedule_kappa: float | None = None

    def __post_init__(self):
        _require(self.n > 0.0, "n > 0 violated: n = {}", self.n)
        _require(self.n < math.inf, "n < inf violated: n = {}", self.n)
        _require(self.c >= 0.0, "c >= 0 violated: c = {}", self.c)
        _require(self.a > 0.0, "a > 0 violated: a = {}", self.a)
        _require(self.c0 > 0.0, "c0 > 0 violated: c0 = {}", self.c0)
        _require(self.c0 < math.inf, "c0 < inf violated: c0 = {}", self.c0)
        _require(
            0.0 <= self.c_g_effective < 1.0,
            "0 <= c_g < 1 violated: c_g = {}", self.c_g_effective,
        )
        _require(self.nu > 0.0, "nu > 0 violated: nu = {}", self.nu)
        limit = self.nu_limit
        _require(
            self.nu < limit,
            "nu < (c0 / (c^2 a))^(1/5) violated: nu = {}, limit = {}", self.nu, limit,
        )
        if self.nu_schedule_kappa is not None:
            _require(
                self.nu_schedule_kappa > 25.0,
                "schedule exponent > 25 violated: {}", self.nu_schedule_kappa,
            )
            _require(
                self.c > 0.0,
                "nu schedule needs c > 0 so its limit is finite",
            )
            # n <= 1, or a kappa so large that n^(-1/kappa) rounds to 1,
            # leaves no positive bandwidth
            nu_used = self.effective_nu()
            _require(
                nu_used > 0.0,
                "nu_limit (1 - n^(-1/kappa)) > 0 violated: nu_effective = {}", nu_used,
            )

    @property
    def c_g_effective(self) -> float:
        """c sup|g|; defaults to c since the shipped bumps have sup 1."""
        return self.c if self.c_g is None else self.c_g

    @property
    def nu_limit(self) -> float:
        x = self.c**2 * self.a
        if x == 0.0:
            return math.inf
        return (self.c0 / x) ** 0.2

    def effective_nu(self) -> float:
        """nu actually used: fixed, or the n-dependent schedule when enabled."""
        if self.nu_schedule_kappa is None:
            return self.nu
        return self.nu_limit * (1.0 - self.n ** (-1.0 / self.nu_schedule_kappa))


@dataclass(frozen=True)
class ActiveConfig:
    """Actively sampled threshold classification with a smooth boundary.

    d is the ambient dimension, alpha the boundary smoothness, kappa the
    noise-margin exponent, c the margin constant, L and H the boundary and
    grid scale constants, nu the bandwidth slack and lam the order offset
    used by the strong converse (the divergence bound behind it needs
    lam <= 1).
    """

    n: float
    d: int
    alpha: float
    kappa: float
    L: float
    c: float
    H: float
    nu: float
    lam: float = 1.0

    def __post_init__(self):
        _require(self.n > 0.0, "n > 0 violated: n = {}", self.n)
        _require(self.n < math.inf, "n < inf violated: n = {}", self.n)
        _require(
            isinstance(self.d, int) and self.d >= 2,
            "integer d >= 2 violated: d = {}", self.d,
        )
        _require(self.alpha > 0.0, "alpha > 0 violated: alpha = {}", self.alpha)
        _require(self.alpha < math.inf, "alpha < inf violated: alpha = {}", self.alpha)
        _require(self.kappa >= 1.0, "kappa >= 1 violated: kappa = {}", self.kappa)
        _require(self.kappa < math.inf, "kappa < inf violated: kappa = {}", self.kappa)
        _require(self.L > 0.0, "L > 0 violated: L = {}", self.L)
        _require(self.L < math.inf, "L < inf violated: L = {}", self.L)
        _require(self.H > 0.0, "H > 0 violated: H = {}", self.H)
        _require(self.H < math.inf, "H < inf violated: H = {}", self.H)
        _require(0.0 < self.c <= 0.5, "0 < c <= 1/2 violated: c = {}", self.c)
        _require(self.nu > 0.0, "nu > 0 violated: nu = {}", self.nu)
        _require(0.0 < self.lam <= 1.0, "0 < lam <= 1 violated: lam = {}", self.lam)

    @property
    def rho(self) -> float:
        return (self.d - 1) / self.alpha


@dataclass(frozen=True)
class CsConfig:
    """Noisy linear measurements of a k-sparse signal in R^n.

    The codebook size is M = (n/k)^(k/4); log M is the quantity the bounds
    are phrased in, so n may be astronomically large as long as log M stays
    in floating range.  delta_m is the trimming fraction (default 1/log M).
    """

    n: float
    k: float
    sigma_sq: float
    frob_norm_sq: float
    lam: float
    delta: float
    beta: float = 0.01
    delta_m: float | None = None

    def __post_init__(self):
        _require(self.k >= 1.0, "k >= 1 violated: k = {}", self.k)
        _require(self.n > self.k, "n > k violated: n = {}, k = {}", self.n, self.k)
        _require(self.n < math.inf, "n < inf violated: n = {}", self.n)
        _require(self.sigma_sq > 0.0, "sigma_sq > 0 violated: {}", self.sigma_sq)
        _require(self.sigma_sq < math.inf, "sigma_sq < inf violated: {}", self.sigma_sq)
        _require(self.frob_norm_sq > 0.0, "frob_norm_sq > 0 violated: {}", self.frob_norm_sq)
        _require(self.frob_norm_sq < math.inf, "frob_norm_sq < inf violated: {}", self.frob_norm_sq)
        _require(self.lam > 0.0, "lam > 0 violated: lam = {}", self.lam)
        _require(self.lam < math.inf, "lam < inf violated: lam = {}", self.lam)
        _require(0.0 < self.delta < 1.0, "0 < delta < 1 violated: delta = {}", self.delta)
        _require(self.beta >= 0.0, "beta >= 0 violated: beta = {}", self.beta)
        _require(self.beta < math.inf, "beta < inf violated: beta = {}", self.beta)
        log_m = self.log_m_codewords
        _require(log_m > 1.0, "(k/4) log(n/k) > 1 violated: value = {}", log_m)
        dm = self.delta_m_effective
        _require(0.0 < dm < 1.0, "0 < delta_m < 1 violated: delta_m = {}", dm)
        # the trim must leave at least one codeword on each side
        _require(
            log(dm) >= -log_m and log(1.0 - dm) >= -log_m,
            "delta_m = {} outside [1/M, 1 - 1/M]", dm,
        )

    @property
    def log_m_codewords(self) -> float:
        return (self.k / 4.0) * log(self.n / self.k)

    @property
    def delta_m_effective(self) -> float:
        return 1.0 / self.log_m_codewords if self.delta_m is None else self.delta_m


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Strong-converse floor and Fano baseline for one configuration."""

    app: str
    strong: BoundReport
    fano: BoundReport
    asymptote: float
    ratio: float | None

    def to_json_dict(self) -> dict:
        return {
            "app": self.app,
            "strong": self.strong.to_json_dict(),
            "fano": self.fano.to_json_dict(),
            "asymptote": self.asymptote,
            "ratio": self.ratio,
        }


def density_bound(cfg: DensityConfig) -> ComparisonReport:
    """Risk floors for density estimation at bandwidth m = n^(1/5) / nu.

    The strong-converse floor is
        eps >= 1 - 2 exp(-(n^(1/5) / (2 nu)) (c0 - nu^5 c^2 a)),
    the Fano baseline
        eps >= 1 - (2 c^2 a nu^5 / (1 - c_g) + log 2 / n^(1/5)) / c0,
    and both multiply the same separation scale c^2 a nu^4 / (6 n^(4/5)).
    """
    nu = cfg.effective_nu()
    n = cfg.n
    x = cfg.c**2 * cfg.a
    m_real = n**0.2 / nu

    strong_raw = _one_minus_scaled_exp(
        2.0, -(n**0.2 / (2.0 * nu)) * (cfg.c0 - nu**5 * x)
    )
    strong_eps = _clamp_eps(strong_raw)
    prefactor = x * nu**4 / (6.0 * n**0.8)

    def eps_and_risk_at(m):
        """Clamped floor and its risk at m cells, before m = n^(1/5) / nu is substituted."""
        eps = _clamp_eps(_one_minus_scaled_exp(2.0, -(m / 2.0) * (cfg.c0 - x * n / m**5)))
        return eps, x / (6.0 * m**4) * eps

    # same floor computed before substituting m, as a consistency record
    pre_risk = eps_and_risk_at(m_real)[1]
    strong_risk = prefactor * strong_eps
    rel_gap = abs(pre_risk - strong_risk) / max(abs(strong_risk), 1e-300)

    strong_params = {
        "config": _config_echo(cfg),
        "nu_effective": nu,
        "m_real": m_real,
        "presubstitution_risk": pre_risk,
        "presubstitution_rel_gap": rel_gap,
    }
    m_floor = math.floor(m_real)
    if m_floor >= 1:
        strong_params["m_floor"] = m_floor
        strong_params["floor_m_eps"], strong_params["floor_m_risk"] = eps_and_risk_at(m_floor)
    else:
        strong_params["m_floor"] = None

    strong = BoundReport(
        method="strong_converse",
        eps_lower=strong_eps,
        eps_raw=strong_raw,
        lambda_star=1.0,
        risk_lower=strong_risk,
        params=strong_params,
    )

    c_g = cfg.c_g_effective
    fano_raw = 1.0 - (2.0 * x * nu**5 / (1.0 - c_g) + LOG2 / n**0.2) / cfg.c0
    fano_eps = _clamp_eps(fano_raw)
    fano = BoundReport(
        method="fano",
        eps_lower=fano_eps,
        eps_raw=fano_raw,
        risk_lower=prefactor * fano_eps,
        params={
            "config": _config_echo(cfg),
            "nu_effective": nu,
            "eps_limit_large_n": 1.0 - 2.0 * x * nu**5 / ((1.0 - c_g) * cfg.c0),
        },
    )

    asymptote = cfg.c0**0.8 * x**0.2 / 6.0 * n ** (-0.8)
    ratio = strong.risk_lower / fano.risk_lower if fano.risk_lower > 0.0 else None
    return ComparisonReport("density", strong, fano, asymptote, ratio)


def active_bound(cfg: ActiveConfig) -> ComparisonReport:
    """Risk floors for active threshold learning at m = n^(1/(alpha(2k-2)+d-1)) / nu.

    The strong-converse exponent is n^(rho/(2 kappa - 2 + rho)) times a
    bracket that must be positive for the bound to bite; a non-positive
    bracket is reported as out of regime with eps_lower = 0.  The published
    form and the chain it compresses disagree in a lower-order term (the
    bandwidth substitution inside the small denominator), so both values and
    their gap are recorded.
    """
    n, d, alpha, kappa = cfg.n, cfg.d, cfg.alpha, cfg.kappa
    lam, nu, c = cfg.lam, cfg.nu, cfg.c
    lh = cfg.L * cfg.H
    rho = cfg.rho
    expo = 2.0 * kappa - 2.0 + rho

    m_real = n ** (1.0 / (alpha * (2.0 * kappa - 2.0) + d - 1.0)) / nu
    beta_m = lh * m_real ** (-alpha)

    scale = (1.0 + lam) / lam ** (lam / (1.0 + lam))
    denom_display = 1.0 - 2.0 * c * lh * n ** (-1.0 / expo) / nu
    out_of_regime = False
    if denom_display <= 0.0:
        strong_raw = -math.inf
        bracket = -math.inf
        out_of_regime = True
    else:
        bracket = LOG2 / 8.0 - 16.0 * c**2 * lh ** (2.0 * kappa - 2.0) * nu ** (
            d - 1.0 + 2.0 * alpha * (kappa - 1.0)
        ) / denom_display
        out_of_regime = bracket <= 0.0
        strong_raw = _one_minus_scaled_exp(
            scale,
            -(lam * n ** (rho / expo) / ((1.0 + lam) * nu ** (d - 1.0))) * bracket,
        )

    # the same floor straight from the testing chain, before substitution
    denom_chain = 1.0 - 2.0 * c * beta_m
    if denom_chain > 0.0:
        growth = 16.0 * c**2 * beta_m ** (2.0 * kappa - 2.0) * lam * n / denom_chain
        log_m_codewords = m_real ** (d - 1.0) * LOG2 / 8.0
        chain_raw = strong_converse_eps_from_log_terms(log_m_codewords, growth, lam)
    else:
        chain_raw = -math.inf
        out_of_regime = True

    strong_eps = _clamp_eps(strong_raw)

    psi_n = beta_m / 16.0
    shaped = 4.0 * c / (kappa * 2.0**kappa) * psi_n**kappa
    prefactor = min(shaped, psi_n)

    strong = BoundReport(
        method="strong_converse",
        eps_lower=strong_eps,
        eps_raw=strong_raw,
        lambda_star=lam,
        risk_lower=prefactor * strong_eps,
        params={
            "config": _config_echo(cfg),
            "m_real": m_real,
            "beta_m": beta_m,
            "bracket": bracket,
            "chain_eps_raw": chain_raw,
            "chain_vs_displayed_gap": abs(chain_raw - strong_raw)
            if math.isfinite(chain_raw) and math.isfinite(strong_raw)
            else None,
            "out_of_regime": out_of_regime,
            "psi_n": psi_n,
            "loss_capped_at_psi_n": psi_n < shaped,
        },
    )

    xi = 256.0 / LOG2 * c**2 * lh ** (2.0 * kappa - 2.0) * nu
    fano_raw = 1.0 - 2.0 * xi - sqrt(32.0 * xi * nu ** (d - 1.0) / LOG2) * n ** (
        -rho / (4.0 * (kappa - 1.0) + 2.0 * rho)
    )
    fano_eps = _clamp_eps(fano_raw)
    fano = BoundReport(
        method="fano",
        eps_lower=fano_eps,
        eps_raw=fano_raw,
        risk_lower=prefactor * fano_eps,
        params={
            "config": _config_echo(cfg),
            "xi": xi,
            "vacuous": xi >= 0.5,
        },
    )

    asymptote = (
        4.0
        * c
        / (kappa * 32.0**kappa)
        * (LOG2 / (128.0 * c**2)) ** (kappa / expo)
        * lh ** (kappa * rho / expo)
        * n ** (-kappa / expo)
    )
    ratio = strong.risk_lower / fano.risk_lower if fano.risk_lower > 0.0 else None
    return ComparisonReport("active", strong, fano, asymptote, ratio)


def cs_bound(cfg: CsConfig) -> ComparisonReport:
    """Risk floors for sparse recovery from noisy linear measurements.

    Works in log M = (k/4) log(n/k) throughout.  The strong floor trims the
    delta_m fraction of codewords with the smallest measurement energy and
    calibrates the packing radius to the noise level; the baseline is the
    matching Fano-style floor sigma^2 (log M - 2) / (32 F (1 + beta)).
    """
    log_m = cfg.log_m_codewords
    lam, delta_m = cfg.lam, cfg.delta_m_effective

    log_inner = -cfg.delta * log_m - log(lam) - log(delta_m)
    power = lam / (1.0 + lam)
    strong_raw = _one_minus_scaled_exp(1.0 + lam, power * log_inner)
    strong_eps = _clamp_eps(strong_raw)

    c_sq = (
        2.0
        * cfg.n
        * cfg.sigma_sq
        * (1.0 - delta_m)
        * log_m
        * (1.0 - cfg.delta)
        / (cfg.frob_norm_sq * (1.0 + cfg.beta) * (1.0 + lam))
    )
    risk_scale = (
        cfg.sigma_sq
        * (1.0 - delta_m)
        * log_m
        * (1.0 - cfg.delta)
        / (4.0 * cfg.frob_norm_sq * (1.0 + cfg.beta) * (1.0 + lam))
    )
    strong = BoundReport(
        method="strong_converse",
        eps_lower=strong_eps,
        eps_raw=strong_raw,
        lambda_star=lam,
        risk_lower=risk_scale * strong_eps,
        params={
            "config": _config_echo(cfg),
            "log_m_codewords": log_m,
            "packing_radius_sq": c_sq,
            "delta_m": delta_m,
            "degenerate_log_m": log_m <= 2.0,
        },
    )

    fano_risk_raw = cfg.sigma_sq / (32.0 * cfg.frob_norm_sq * (1.0 + cfg.beta)) * (log_m - 2.0)
    fano = BoundReport(
        method="fano",
        eps_lower=0.0,
        eps_raw=0.0,
        risk_lower=max(0.0, fano_risk_raw),
        params={
            "config": _config_echo(cfg),
            "log_m_codewords": log_m,
            "risk_raw": fano_risk_raw,
            "degenerate_log_m": log_m <= 2.0,
            "eps_not_derived": True,
        },
    )

    asymptote = cfg.sigma_sq / (4.0 * cfg.frob_norm_sq) * log_m
    ratio = strong.risk_lower / fano.risk_lower if fano.risk_lower > 0.0 else None
    return ComparisonReport("cs", strong, fano, asymptote, ratio)


# The one list of applications: name -> (config type, bound assembly).
_APPS = {
    "density": (DensityConfig, density_bound),
    "active": (ActiveConfig, active_bound),
    "cs": (CsConfig, cs_bound),
}


def compute_bounds(cfg) -> ComparisonReport:
    """Dispatch a config to its application's bound assembly.

    A config can pass its checks and still carry the assembly past the float
    range (density at n = 1e6 and nu = 1e-300 overflows an exponent); the
    ArithmeticError that raises becomes a ConfigError naming the app.
    """
    for app, (config_type, assemble) in _APPS.items():
        if isinstance(cfg, config_type):
            break
    else:
        raise TypeError(f"unsupported config type {type(cfg).__name__}")
    try:
        return assemble(cfg)
    except ArithmeticError as exc:
        raise ConfigError(f"{app} bound leaves the float range: {exc}") from exc


def sweep(template, vary: str, values) -> list:
    """Bounds for template with its field `vary` replaced by each value, in order.

    Each point goes through the config's constructor, so each is validated,
    and every point is built before any is computed: a ConfigError at any
    point wins over an error computing an earlier one.
    """
    fields = _config_echo(template)
    if vary not in fields:
        raise ValueError(f"{type(template).__name__} has no parameter {vary!r}")
    make = type(template)
    configs = [make(**{**fields, vary: value}) for value in values]
    return [compute_bounds(cfg) for cfg in configs]
