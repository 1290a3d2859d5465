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
import functools
import json
import math
import os
import stat
import sys
import tempfile
from datetime import datetime, timezone
from typing import NamedTuple

from . import __version__
from .applications import (
    ConfigError,
    _APPS,
    _config_echo,
    compute_bounds,
    sweep,
)
from .suites import SUITE_NAMES, run_suite

CSV_COLUMNS = ("value", "strong_eps", "fano_eps", "strong_risk", "fano_risk", "ratio")

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


# read once, at import
_FIELDS = {app: _config_fields(config_type) for app, (config_type, _) in _APPS.items()}

# keyword through which each suite takes --count (packing takes none)
_COUNT_PARAMS = {"soundness": "n_families", "divergence": "n_points", "fano-recovery": "n_families"}


# === deterministic JSON/CSV rendering ===


def format_number(x: float) -> str:
    """17-significant-digit decimal, or null for non-finite values."""
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _join(parts: list, pad: str | None) -> str:
    """Members between their brackets: indented lines under pad, or one line for None."""
    if pad is None:
        return " " + ", ".join(parts) + " "
    inner = "\n" + pad + "  "
    return inner + ("," + inner).join(parts) + "\n" + pad


def _render_json(obj, pad: str | None) -> str:
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
    deeper = None if pad is None else pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{json.dumps(str(k))}: {_render_json(v, deeper)}" for k, v in sorted(obj.items())
        ]
        return "{" + _join(parts, pad) + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + _join([_render_json(v, deeper) for v in obj], pad) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Pretty JSON with sorted keys and pinned float formatting."""
    return _render_json(obj, "") + "\n"


def compact_json(obj) -> str:
    """canonical_json on one line: each line break and the indent after it become one space."""
    return _render_json(obj, None)


def _open_mode(path: str) -> int:
    """The mode open(path, "w") leaves: an existing file's own, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        return 0o666 & ~umask


def write_atomic(path: str, text: str):
    """Write text to path through a temporary file in its directory and a rename.

    mkstemp makes the file 0600, and the rename would carry that over; the
    file gets the mode a plain open(path, "w") would give it instead.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".conversekit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            os.fchmod(fh.fileno(), _open_mode(path))
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
    """Build the app's config from flag values, naming any missing flag."""
    table = _FIELDS[app]
    missing = [table.flags[f] for f in table.required if f not in values]
    if missing:
        raise ConfigError(f"missing required flag(s): {' '.join(missing)}")
    return _APPS[app][0](**{f: _flag_value(table, f, v) for f, v in values.items()})


def _flag_value(table, field: str, value):
    """A flag's value as its config field takes it.

    Flags parse as floats, so an integral value of an int field becomes an
    int; any other value goes through for the config to reject.
    """
    if field in table.ints and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


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
        if (args.start, args.stop, args.points) != (None, None, None):
            raise ConfigError("--values cannot be combined with --from/--to/--points")
        if not args.values.strip():
            return []
        return [float(tok) for tok in args.values.split(",")]
    if args.start is None or args.stop is None or args.points is None:
        raise ConfigError("sweep needs either --values or all of --from/--to/--points")
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    if args.points == 1:
        return [args.start]
    last = args.points - 1
    if args.spacing == "log":
        if args.start <= 0.0 or args.stop <= 0.0:
            raise ConfigError("log spacing needs positive --from/--to")
        lo, hi = math.log(args.start), math.log(args.stop)
        inner = [math.exp(lo + (hi - lo) * i / last) for i in range(1, last)]
    else:
        inner = [args.start + (args.stop - args.start) * i / last for i in range(1, last)]
    return [args.start, *inner, args.stop]  # the ends exactly as given


# A row's five numbers in one %-format: "%.17g" spells a finite float as
# format_number does, and only inf and nan spell an "n".
_CSV_NUMBERS = ",".join(["%.17g"] * 5)


def _csv_row(value: float, rep) -> str:
    strong, fano = rep.strong, rep.fano
    cells = (value, strong.eps_lower, fano.eps_lower, strong.risk_lower, fano.risk_lower)
    row = _CSV_NUMBERS % cells
    if "n" in row:
        row = ",".join(map(format_number, cells))
    return row + ("," if rep.ratio is None else "," + format_number(rep.ratio))


def cmd_sweep(args: argparse.Namespace, argv: list) -> int:
    """One CSV row per point of the sweep, under a one-line manifest.

    Built once per process: the parser (see main) and the flag tables,
    read off the config fields at import.  Once per sweep: the flags are
    checked, on the first point, and applications.sweep looks up the app's
    assembly.  Per point: its config, through the config's constructor, its
    report, and its row, formatted as one string.
    """
    table = _FIELDS[args.app]
    vary = table.vary.get(args.vary.replace("-", "_"))
    if vary is None:
        raise ConfigError(f"{args.app} has no sweep parameter {args.vary!r}")
    base_values = _collect_config_values(args.app, args)
    points = _sweep_values(args)
    reports = []
    if points:
        # make_config checks the flags once, on point 0; sweep builds every
        # point, point 0 included, from config-typed values, so the swept
        # floats get the same int cast here as the flags get in make_config.
        template = make_config(args.app, {**base_values, vary: points[0]})
        reports = sweep(template, vary, [_flag_value(table, vary, v) for v in points])

    manifest = _manifest(
        argv,
        {"app": args.app, "vary": vary, "base": base_values, "values": points},
        args.seed,
    )
    lines = ["# manifest: " + compact_json(manifest), ",".join(CSV_COLUMNS)]
    lines += map(_csv_row, points, reports)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace, argv: list) -> int:
    # an unset --seed leaves each suite its own default
    kwargs = {} if args.seed is None else {"seed": args.seed}
    count_param = _COUNT_PARAMS.get(args.suite)
    if args.count is not None:
        if count_param is None:
            raise ConfigError(f"verify {args.suite} takes no --count")
        if args.count < 1:
            raise ConfigError("--count must be at least 1")
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
    for app in _APPS:
        p_app = bound_sub.add_parser(app)
        _add_config_flags(p_app, app)
        p_app.add_argument("--out", default=None, help="output path (default: stdout)")
        p_app.add_argument("--seed", type=int, default=0)
        p_app.set_defaults(func=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="evaluate bounds along one parameter (CSV)")
    sweep_sub = p_sweep.add_subparsers(dest="app", required=True)
    for app in _APPS:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built the first time main needs it in a process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; exit codes as in the module docstring.

    The argument parser is built the first time main runs in a process and
    reused by every later call: parse_args keeps no state on it, and each
    call gets a fresh namespace.  Everything else is built per call; what a
    sweep builds per point is in cmd_sweep.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    try:
        return args.func(args, list(argv))
    except ValueError as exc:  # ConfigError and CapabilityError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
