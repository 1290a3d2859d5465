"""Command-line front end: bounds, sweeps, and self-check suites.

Output files embed a run manifest (command tokens, config, seed, tool
version, timestamp) and are written atomically.  Numbers serialize with 17
significant digits so reruns with the same command and seed are
byte-identical apart from the timestamp; non-finite values serialize as
null.  Exit codes: 0 success, 1 suite failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from typing import NamedTuple

from . import __version__
from .applications import (
    ActiveConfig,
    ConfigError,
    CsConfig,
    DensityConfig,
    _config_echo,
    compute_bounds,
)
from .oracle import CapabilityError
from .suites import SUITE_NAMES, run_suite

CSV_COLUMNS = ("value", "strong_eps", "fano_eps", "strong_risk", "fano_risk", "ratio")

_CONFIG_TYPES = {"density": DensityConfig, "active": ActiveConfig, "cs": CsConfig}

# Flags that are not the field name with "-" for "_"; every other flag is.
_FLAG_ALIASES = {
    "lam": "--lambda",
    "sigma_sq": "--sigma2",
    "frob_norm_sq": "--frob2",
    "nu_schedule_kappa": "--nu-schedule",
}


class _ConfigFields(NamedTuple):
    """What the CLI needs of one config dataclass, read off its fields."""

    flags: dict  # field -> flag, in declaration order
    required: tuple  # fields without a default
    ints: tuple  # fields annotated int
    vary: dict  # --vary spelling, "-" read as "_" -> field


def _config_fields(config_type) -> _ConfigFields:
    fields = dataclasses.fields(config_type)
    flags = {f.name: _FLAG_ALIASES.get(f.name, "--" + f.name.replace("_", "-")) for f in fields}
    vary = {flag[2:].replace("-", "_"): name for name, flag in flags.items()}
    vary.update((name, name) for name in flags)
    return _ConfigFields(
        flags=flags,
        required=tuple(
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        ),
        ints=tuple(f.name for f in fields if f.type in (int, "int")),
        vary=vary,
    )


# built once: sweep builds a config per point
_FIELDS = {app: _config_fields(cls) for app, cls in _CONFIG_TYPES.items()}

# keyword through which each suite takes --count (packing takes none)
_COUNT_PARAMS = {"soundness": "n_families", "divergence": "n_points", "fano-recovery": "n_families"}


# === deterministic JSON/CSV rendering ===


def format_number(x: float) -> str:
    """17-significant-digit decimal, or null for non-finite values."""
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _render_json(obj, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_render_json(v, level + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_render_json(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Pretty JSON with sorted keys and pinned float formatting."""
    return _render_json(obj, 0) + "\n"


def compact_json(obj) -> str:
    text = _render_json(obj, 0)
    return " ".join(line.strip() for line in text.splitlines())


def write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".conversekit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# === manifest and config plumbing ===


def _manifest(argv: list, config: dict, seed) -> dict:
    return {
        "command": list(argv),
        "config": config,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def _add_config_flags(parser: argparse.ArgumentParser, app: str):
    for field, flag in _FIELDS[app].flags.items():
        if field == "nu_schedule_kappa":
            parser.add_argument(
                flag,
                dest=field,
                type=float,
                nargs="?",
                const=26.0,
                default=None,
                help="use the n-dependent bandwidth schedule (optional exponent, default 26)",
            )
        else:
            parser.add_argument(flag, dest=field, type=float, default=None)


def _collect_config_values(app: str, args: argparse.Namespace) -> dict:
    values = {}
    for field in _FIELDS[app].flags:
        value = getattr(args, field)
        if value is not None:
            values[field] = value
    return values


def make_config(app: str, values: dict):
    """Build the app's config from flag values, naming any missing flag.

    Flags parse as floats, so an integral value of an int field becomes an
    int; any other value goes through for the config to reject.
    """
    table = _FIELDS[app]
    missing = [table.flags[f] for f in table.required if f not in values]
    if missing:
        raise ConfigError(f"missing required flag(s): {' '.join(missing)}")
    unknown = values.keys() - table.flags.keys()
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    kwargs = dict(values)
    for field in table.ints:
        value = kwargs.get(field)
        if isinstance(value, float) and value.is_integer():
            kwargs[field] = int(value)
    return _CONFIG_TYPES[app](**kwargs)


# === subcommands ===


def _emit(args: argparse.Namespace, text: str):
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_bound(args: argparse.Namespace, argv: list) -> int:
    cfg = make_config(args.app, _collect_config_values(args.app, args))
    report = compute_bounds(cfg)
    payload = {
        "manifest": _manifest(argv, _config_echo(cfg), args.seed),
        "report": report.to_json_dict(),
    }
    _emit(args, canonical_json(payload))
    return 0


def _sweep_values(args: argparse.Namespace) -> list:
    if args.values is not None:
        if not args.values.strip():
            return []
        return [float(tok) for tok in args.values.split(",")]
    if args.start is None or args.stop is None or args.points is None:
        raise ConfigError("sweep needs either --values or all of --from/--to/--points")
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    if args.points == 1:
        return [args.start]
    if args.spacing == "log":
        if args.start <= 0.0 or args.stop <= 0.0:
            raise ConfigError("log spacing needs positive --from/--to")
        lo, hi = math.log(args.start), math.log(args.stop)
        return [math.exp(lo + (hi - lo) * i / (args.points - 1)) for i in range(args.points)]
    return [
        args.start + (args.stop - args.start) * i / (args.points - 1)
        for i in range(args.points)
    ]


def cmd_sweep(args: argparse.Namespace, argv: list) -> int:
    vary = _FIELDS[args.app].vary.get(args.vary.replace("-", "_"))
    if vary is None:
        raise ConfigError(f"{args.app} has no sweep parameter {args.vary!r}")
    base_values = _collect_config_values(args.app, args)
    points = _sweep_values(args)

    configs = []
    for value in points:
        merged = dict(base_values)
        merged[vary] = value
        configs.append(make_config(args.app, merged))

    reports = [compute_bounds(cfg) for cfg in configs]

    manifest = _manifest(
        argv,
        {"app": args.app, "vary": vary, "base": base_values, "values": points},
        args.seed,
    )
    lines = ["# manifest: " + compact_json(manifest)]
    lines.append(",".join(CSV_COLUMNS))
    for value, rep in zip(points, reports):
        ratio = "" if rep.ratio is None else format_number(rep.ratio)
        lines.append(
            ",".join(
                [
                    format_number(value),
                    format_number(rep.strong.eps_lower),
                    format_number(rep.fano.eps_lower),
                    format_number(rep.strong.risk_lower),
                    format_number(rep.fano.risk_lower),
                    ratio,
                ]
            )
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace, argv: list) -> int:
    # an unset --seed leaves each suite its own default
    kwargs = {} if args.seed is None else {"seed": args.seed}
    count_param = _COUNT_PARAMS.get(args.suite)
    if args.count is not None:
        if count_param is None:
            raise ConfigError(f"verify {args.suite} takes no --count")
        kwargs[count_param] = args.count
    gv_flags = [flag for flag, v in (("--m", args.m), ("--dmin", args.dmin)) if v is not None]
    if gv_flags and args.suite != "packing":
        raise ConfigError(f"verify {args.suite} takes no {' '.join(gv_flags)}")
    if len(gv_flags) == 1:
        raise ConfigError("--m and --dmin must be given together")
    if gv_flags:
        kwargs["gv_case"] = (args.m, args.dmin)
    result = run_suite(args.suite, **kwargs)
    for note in result.notes:
        print(note)
    for detail in result.details:
        print("violation:", detail)
    print(result.summary_line())
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conversekit",
        description="Minimax-risk lower bounds from binary hypothesis testing.",
    )
    parser.add_argument("--version", action="version", version=f"conversekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute one application bound report (JSON)")
    bound_sub = p_bound.add_subparsers(dest="app", required=True)
    for app in _CONFIG_TYPES:
        p_app = bound_sub.add_parser(app)
        _add_config_flags(p_app, app)
        p_app.add_argument("--out", default=None, help="output path (default: stdout)")
        p_app.add_argument("--seed", type=int, default=0)
        p_app.set_defaults(func=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="evaluate bounds along one parameter (CSV)")
    sweep_sub = p_sweep.add_subparsers(dest="app", required=True)
    for app in _CONFIG_TYPES:
        p_app = sweep_sub.add_parser(app)
        _add_config_flags(p_app, app)
        p_app.add_argument("--vary", required=True, help="config field to sweep")
        p_app.add_argument("--values", default=None, help="comma-separated explicit values")
        p_app.add_argument("--from", dest="start", type=float, default=None)
        p_app.add_argument("--to", dest="stop", type=float, default=None)
        p_app.add_argument("--points", type=int, default=None)
        p_app.add_argument("--spacing", choices=("log", "linear"), default="log")
        p_app.add_argument("--out", default=None, help="output path (default: stdout)")
        p_app.add_argument("--seed", type=int, default=0)
        p_app.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a randomized self-check suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--count", type=int, default=None, help="number of random instances")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--m", type=int, default=None, help="packing: code length for gv check")
    p_verify.add_argument("--dmin", type=int, default=None, help="packing: distance for gv check")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, list(argv))
    except (ConfigError, CapabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
