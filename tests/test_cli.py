"""End-to-end CLI behavior: JSON/CSV contracts, determinism, exit codes."""

import ast
import dataclasses
import glob
import hashlib
import importlib
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conversekit
from conversekit import applications, converse, divergence, oracle, packing, suites
from conversekit.applications import ActiveConfig, CsConfig, DensityConfig, compute_bounds
from conversekit.cli import (
    CSV_COLUMNS,
    _csv_row,
    build_parser,
    canonical_json,
    compact_json,
    format_number,
    main,
    make_config,
)
from conversekit.suites import SuiteResult, fano_recovery_suite

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "conversekit", "schema",
    "comparison_report.schema.json",
)
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")
README_PATH = os.path.join(os.path.dirname(__file__), "..", "README.md")

CONFIGS = {"density": DensityConfig, "active": ActiveConfig, "cs": CsConfig}
# the flags that are not the field name with "-" for "_"
FLAG_ALIASES = {
    "lam": "--lambda",
    "sigma_sq": "--sigma2",
    "frob_norm_sq": "--frob2",
    "nu_schedule_kappa": "--nu-schedule",
}

DENSITY_ARGS = ["--n", "1e11", "--nu", "1", "--c", "0.1", "--a", "0.5"]
ACTIVE_ARGS = ["--n", "1e6", "--alpha", "1", "--kappa", "2", "--L", "1", "--c", "0.1",
               "--H", "1", "--nu", "0.5"]
CS_ARGS = ["--n", "1e6", "--k", "128", "--sigma2", "1", "--frob2", "1e6", "--lambda", "0.05",
           "--delta", "0.05"]
SWEEP_BASE_ARGS = {"density": DENSITY_ARGS, "active": ["--d", "2", *ACTIVE_ARGS], "cs": CS_ARGS}
CS_EXAMPLE = [
    "bound", "cs", "--n", "1000000", "--k", "128", "--sigma2", "1",
    "--frob2", "1000000", "--lambda", "0.05", "--delta", "0.05", "--beta", "0.01",
]


@pytest.fixture(scope="module")
def report_schema():
    """A validator of the report schema; without jsonschema only its users skip."""
    jsonschema = pytest.importorskip("jsonschema")
    with open(os.path.abspath(SCHEMA_PATH), encoding="utf-8") as fh:
        schema = json.load(fh)
    validator = jsonschema.validators.validator_for(schema)
    validator.check_schema(schema)
    return validator(schema)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )


# --- bound subcommand ---


def test_bound_density_stdout_json(capsys, report_schema):
    code, out, err = run_cli(capsys, ["bound", "density", *DENSITY_ARGS])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert sorted(payload) == ["manifest", "report"]
    report_schema.validate(payload["report"])
    assert payload["report"]["app"] == "density"
    assert payload["report"]["strong"]["eps_lower"] == pytest.approx(
        0.9955225053120399, rel=1e-15
    )
    manifest = payload["manifest"]
    assert sorted(manifest) == ["command", "config", "seed", "timestamp", "version"]
    assert manifest["command"][0] == "bound"
    assert manifest["config"]["nu"] == 1.0


def test_bound_cs_example_matches_library(capsys, report_schema):
    code, out, _ = run_cli(capsys, CS_EXAMPLE)
    assert code == 0
    report = json.loads(out)["report"]
    report_schema.validate(report)
    assert report["strong"]["eps_lower"] == pytest.approx(0.19909791813834565, rel=1e-15)
    assert report["ratio"] == pytest.approx(1.4461491418620422, rel=1e-15)
    cfg = CsConfig(
        n=1e6, k=128.0, sigma_sq=1.0, frob_norm_sq=1e6, lam=0.05, delta=0.05, beta=0.01
    )
    assert report == json.loads(json.dumps(compute_bounds(cfg).to_json_dict()))


def test_bound_active_non_finite_serializes_null(capsys, report_schema):
    code, out, _ = run_cli(
        capsys,
        ["bound", "active", "--n", "8", "--d", "2", "--alpha", "1", "--kappa", "2",
         "--L", "1", "--c", "0.5", "--H", "1", "--nu", "0.1"],
    )
    assert code == 0
    report = json.loads(out)["report"]
    report_schema.validate(report)
    assert report["strong"]["eps_raw"] is None  # -inf renders as null
    assert report["strong"]["eps_lower"] == 0.0


def test_bound_rerun_identical_modulo_timestamp(capsys, tmp_path):
    # identical command tokens both times, so the file bytes must match
    # apart from the manifest timestamp
    path = tmp_path / "report.json"
    argv = ["bound", "density", *DENSITY_ARGS, "--out", str(path)]
    assert main(argv) == 0
    first = path.read_text(encoding="utf-8")
    assert main(argv) == 0
    second = path.read_text(encoding="utf-8")
    capsys.readouterr()
    assert strip_timestamp(first) == strip_timestamp(second)
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_bound_out_file_equals_stdout(capsys, tmp_path):
    # the manifest records the actual argv (so it differs by --out), but the
    # report body must be identical
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["bound", "density", *DENSITY_ARGS])
    assert code == 0
    assert main(["bound", "density", *DENSITY_ARGS, "--out", str(path)]) == 0
    capsys.readouterr()
    from_file = json.loads(path.read_text(encoding="utf-8"))
    from_stdout = json.loads(out)
    assert from_file["report"] == from_stdout["report"]
    assert from_file["manifest"]["config"] == from_stdout["manifest"]["config"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_out_file_gets_the_mode_of_a_plain_open(capsys, tmp_path, umask):
    # a new file gets 0o666 less the umask, an existing one keeps its mode,
    # both for a bound report and a sweep table
    old = os.umask(umask)
    try:
        for command in (["bound", "density", *DENSITY_ARGS],
                        ["sweep", "density", *DENSITY_ARGS, "--vary", "n", "--values", "1e11"]):
            path = tmp_path / "new.out"
            assert main([*command, "--out", str(path)]) == 0
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask
            path.unlink()
            kept = tmp_path / "kept.out"
            kept.write_text("old\n", encoding="utf-8")
            kept.chmod(0o640)
            assert main([*command, "--out", str(kept)]) == 0
            assert kept.stat().st_mode & 0o777 == 0o640
            assert kept.read_text(encoding="utf-8") != "old\n"
    finally:
        os.umask(old)
    capsys.readouterr()


@pytest.mark.parametrize("app", sorted(CONFIGS))
def test_bound_reproduces_golden_report(capsys, tmp_path, app):
    with open(os.path.join(GOLDEN_DIR, f"{app}.json"), encoding="utf-8") as fh:
        golden = fh.read()
    gold_manifest = json.loads(golden)["manifest"]
    argv = list(gold_manifest["command"])
    path = tmp_path / f"{app}.json"
    argv[argv.index("--out") + 1] = str(path)
    assert main(argv) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    marker = '\n  "report": '
    assert text[text.index(marker):] == golden[golden.index(marker):]
    manifest = json.loads(text)["manifest"]
    assert manifest["command"] == argv
    for key in ("config", "seed", "version"):
        assert manifest[key] == gold_manifest[key]


# --- flags derived from the config dataclasses ---


@pytest.mark.parametrize("command", ["bound", "sweep"])
@pytest.mark.parametrize("app", sorted(CONFIGS))
def test_every_config_field_is_a_flag(command, app):
    parser = build_parser()
    extra = ["--vary", "n"] if command == "sweep" else []
    for field in dataclasses.fields(CONFIGS[app]):
        flag = FLAG_ALIASES.get(field.name, "--" + field.name.replace("_", "-"))
        args = parser.parse_args([command, app, *extra, flag, "3"])
        assert getattr(args, field.name) == 3.0, flag


def test_integral_d_becomes_int(capsys, tmp_path):
    path = tmp_path / "active.json"
    assert main(["bound", "active", "--d", "3.0", *ACTIVE_ARGS, "--out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    assert '\n      "d": 3,\n' in text
    assert json.loads(text)["manifest"]["config"]["d"] == 3
    cfg = make_config("active", {"n": 1e6, "d": 3.0, "alpha": 1.0, "kappa": 2.0, "L": 1.0,
                                 "c": 0.1, "H": 1.0, "nu": 0.5})
    assert type(cfg.d) is int and cfg.d == 3


@pytest.mark.parametrize("d", ["2.5", "inf", "nan"])
def test_non_integral_d_exits_2(capsys, d):
    code, out, err = run_cli(capsys, ["bound", "active", "--d", d, *ACTIVE_ARGS])
    assert code == 2 and out == ""
    assert f"integer d >= 2 violated: d = {float(d)}" in err


@pytest.mark.parametrize(
    "app, spelling, field, value",
    [
        ("density", "n", "n", "1e11"),
        ("density", "c0", "c0", "0.082"),
        ("density", "c-g", "c_g", "0.1"),
        ("density", "c_g", "c_g", "0.1"),
        ("density", "nu-schedule", "nu_schedule_kappa", "26"),
        ("density", "nu_schedule", "nu_schedule_kappa", "26"),
        ("density", "nu-schedule-kappa", "nu_schedule_kappa", "26"),
        ("density", "nu_schedule_kappa", "nu_schedule_kappa", "26"),
        ("active", "d", "d", "2"),
        ("active", "lambda", "lam", "0.5"),
        ("active", "lam", "lam", "0.5"),
        ("cs", "sigma2", "sigma_sq", "1"),
        ("cs", "sigma-sq", "sigma_sq", "1"),
        ("cs", "sigma_sq", "sigma_sq", "1"),
        ("cs", "frob2", "frob_norm_sq", "1e6"),
        ("cs", "frob-norm-sq", "frob_norm_sq", "1e6"),
        ("cs", "lambda", "lam", "0.05"),
        ("cs", "delta-m", "delta_m", "0.01"),
        ("cs", "delta_m", "delta_m", "0.01"),
    ],
)
def test_vary_accepts_field_names_and_flag_spellings(capsys, app, spelling, field, value):
    code, out, err = run_cli(
        capsys, ["sweep", app, "--vary", spelling, "--values", value, *SWEEP_BASE_ARGS[app]]
    )
    assert code == 0, err
    manifest, rows = parse_sweep(out)
    assert manifest["config"]["vary"] == field
    assert len(rows) == 1


@pytest.mark.parametrize("app, spelling", [("density", "lambda"), ("density", "--n"),
                                           ("cs", "d"), ("active", "sigma2")])
def test_vary_rejects_names_the_app_lacks(capsys, app, spelling):
    argv = ["sweep", app, f"--vary={spelling}", "--values", "1", *SWEEP_BASE_ARGS[app]]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "no sweep parameter" in err


def test_package_root_exports_every_module_name():
    for module in (applications, converse, divergence, oracle, packing):
        for name in module.__all__:
            assert getattr(conversekit, name) is getattr(module, name), name
            assert name in conversekit.__all__, name
    assert "__version__" in conversekit.__all__
    assert len(conversekit.__all__) == len(set(conversekit.__all__))


def _program_trees():
    """The package modules but __init__.py, their exports, and the parsed program.

    The program is those modules and perfbench/*.py: what runs outside the tests.
    """
    root = os.path.join(os.path.dirname(__file__), "..")
    modules = sorted(path for path in glob.glob(os.path.join(root, "src", "conversekit", "*.py"))
                     if os.path.basename(path) != "__init__.py")
    exports = {
        path: getattr(
            importlib.import_module("conversekit." + os.path.basename(path)[:-3]), "__all__", ()
        )
        for path in modules
    }
    trees = {}
    for path in modules + glob.glob(os.path.join(root, "perfbench", "*.py")):
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read())
    return exports, trees


def test_every_public_name_has_a_non_test_caller():
    # a public name, or a public method of an exported class, that only its
    # own tests reach is code nothing runs
    exports, trees = _program_trees()
    attributes, names = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    referenced = names | attributes
    member_referenced = attributes  # a method is reached through an attribute
    unreached = []
    for path, exported in exports.items():
        unreached += [name for name in exported if name not in referenced]
        unreached += [
            f"{cls.name}.{member.name}"
            for cls in trees[path].body
            if isinstance(cls, ast.ClassDef) and cls.name in exported
            for member in cls.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not member.name.startswith("_")
            and member.name not in member_referenced
        ]
    assert not unreached, unreached


# Defaulted parameters only tests set, kept on purpose.
TEST_ONLY_PARAMETERS = {
    # ROADMAP item 3 extends the order search to lam_hi = inf
    "optimize_lambda.lam_lo",
    "optimize_lambda.lam_hi",
    # the only way to reach the failure path and its memory bound in bounded time
    "cs_random_packing.max_attempts",
}


def _defaulted_parameters(fn, bound):
    """(name, index among a call's positional arguments or None) per defaulted parameter.

    bound is 1 for a method, whose calls do not pass self, and 0 for a function.
    """
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    yield from ((arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first)
    yield from (
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    )


def _callee(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_every_defaulted_parameter_has_a_non_test_setter():
    # a default no program call overrides is a constant with an option's cost
    exports, trees = _program_trees()
    params = []
    for path, exported in exports.items():
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                params += [(node.name, *p) for p in _defaulted_parameters(node, 0)]
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                params += [
                    (member.name, *p)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                    for p in _defaulted_parameters(member, 1)
                ]
    passed, keys = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                # f(...) itself, and the f in g(..., f, *args) that forwards
                # args to f, as perfbench's tr.call(name, fn, *args) does
                calls = [(_callee(node.func), node.args, node.keywords)]
                calls += [(_callee(arg), node.args[i + 1:], ()) for i, arg in enumerate(node.args)]
                for callee, args, keywords in calls:
                    passed.update((callee, kw.arg) for kw in keywords)
                    for i, arg in enumerate(args):
                        if isinstance(arg, ast.Starred):
                            break
                        passed.add((callee, i))
            elif isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys if isinstance(k, ast.Constant))
                keys.update(v.value for v in node.values if isinstance(v, ast.Constant))
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                keys.add(node.slice.value)
    unset = {
        f"{fn}.{name}"
        for fn, name, index in params
        if (fn, name) not in passed and (fn, index) not in passed and name not in keys
    }
    assert unset == TEST_ONLY_PARAMETERS, sorted(unset ^ TEST_ONLY_PARAMETERS)


# --- exit codes ---


def test_config_error_exits_2_and_names_constraint(capsys):
    code, out, err = run_cli(capsys, ["bound", "density", "--n", "0", "--nu", "1",
                                      "--c", "0.1", "--a", "0.5"])
    assert code == 2 and out == ""
    assert "error:" in err and "n > 0" in err

    code, _, err = run_cli(
        capsys,
        ["bound", "active", "--n", "1e6", "--d", "2", "--alpha", "1", "--kappa", "2",
         "--L", "1", "--c", "0.6", "--H", "1", "--nu", "0.5"],
    )
    assert code == 2
    assert "1/2" in err


def test_report_past_the_float_range_exits_2(capsys):
    # a valid config whose assembly overflows: an error line, not a traceback
    argv = ["--n", "1e6", "--nu", "1e-300", "--c", "0.1", "--a", "0.5"]
    code, out, err = run_cli(capsys, ["bound", "density", *argv])
    assert code == 2 and out == ""
    assert err.startswith("error: density bound leaves the float range")
    code, out, err = run_cli(capsys, ["sweep", "density", *argv, "--vary", "n",
                                      "--values", "1e6,1e11"])
    assert code == 2 and out == "" and "density bound" in err


@pytest.mark.parametrize("app, field, flag", [
    ("density", "c0", "--c0"),
    ("active", "alpha", "--alpha"),
    ("active", "kappa", "--kappa"),
    ("active", "L", "--L"),
    ("active", "H", "--H"),
    ("active", "nu", "--nu"),
    ("cs", "sigma_sq", "--sigma2"),
    ("cs", "frob_norm_sq", "--frob2"),
    ("cs", "beta", "--beta"),
])
def test_infinite_field_exits_2(capsys, app, field, flag):
    # a sign check alone lets inf through, to a NaN, inf or saturated floor
    argv = [*SWEEP_BASE_ARGS[app], flag, "inf"]
    code, out, err = run_cli(capsys, ["bound", app, *argv])
    assert code == 2 and out == ""
    assert f"{field} < inf violated" in err


def test_missing_required_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, ["bound", "density", "--n", "1e11"])
    assert code == 2
    assert "--nu" in err and "--c" in err and "--a" in err


def test_io_error_exits_3(capsys, tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "out.json"
    code, _, err = run_cli(capsys, ["bound", "density", *DENSITY_ARGS, "--out", str(dest)])
    assert code == 3
    assert "i/o error:" in err


def test_out_to_a_directory_exits_3_and_leaves_no_temporary(capsys, tmp_path):
    # the rename onto a directory fails after the temporary file is written
    dest = tmp_path / "taken"
    dest.mkdir()
    code, out, err = run_cli(capsys, ["bound", "density", *DENSITY_ARGS, "--out", str(dest)])
    assert code == 3 and out == ""
    assert "i/o error:" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(dest.iterdir()) == []


def test_unknown_sweep_parameter_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        ["sweep", "density", "--vary", "bandwidth", "--values", "1,2", *DENSITY_ARGS],
    )
    assert code == 2
    assert "bandwidth" in err


def test_log_spacing_rejects_nonpositive_endpoints(capsys):
    code, _, err = run_cli(
        capsys,
        ["sweep", "density", "--vary", "n", "--from", "0", "--to", "1e9",
         "--points", "3", "--nu", "1", "--c", "0.1", "--a", "0.5"],
    )
    assert code == 2
    assert "log spacing" in err


def test_sweep_values_with_a_range_exits_2(capsys):
    # --values would silently win over the range the manifest also records
    base = ["sweep", "density", "--vary", "n", "--values", "1e6,1e7", "--nu", "1",
            "--c", "0.1", "--a", "0.5"]
    for extra in (["--from", "5", "--to", "9", "--points", "3"], ["--from", "5"],
                  ["--to", "9"], ["--points", "3"]):
        code, out, err = run_cli(capsys, [*base, *extra])
        assert code == 2 and out == ""
        assert "--values cannot be combined with --from/--to/--points" in err


def test_sweep_needs_a_whole_range_of_at_least_one_point(capsys):
    base = ["sweep", "density", "--vary", "n", "--nu", "1", "--c", "0.1", "--a", "0.5"]
    cases = (
        (["--from", "1e6", "--to", "1e9"],
         "sweep needs either --values or all of --from/--to/--points"),
        (["--from", "1e6", "--to", "1e9", "--points", "0"], "--points must be at least 1"),
    )
    for extra, message in cases:
        code, out, err = run_cli(capsys, [*base, *extra])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


# --- sweep subcommand ---


def parse_sweep(out: str):
    lines = out.splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    assert lines[1] == ",".join(CSV_COLUMNS)
    rows = [line.split(",") for line in lines[2:]]
    return manifest, rows


def test_sweep_csv_shape_and_manifest(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "density", "--vary", "n", "--from", "1e6", "--to", "1e14",
         "--points", "9", "--nu", "1", "--c", "0.1", "--a", "0.5"],
    )
    assert code == 0
    manifest, rows = parse_sweep(out)
    assert sorted(manifest) == ["command", "config", "seed", "timestamp", "version"]
    assert manifest["config"]["vary"] == "n"
    assert len(manifest["config"]["values"]) == 9
    assert len(rows) == 9
    # the ends are --from and --to exactly, not exp(log(x))
    assert manifest["config"]["values"][0] == 1e6 and manifest["config"]["values"][-1] == 1e14
    assert float(rows[0][0]) == 1e6 and float(rows[-1][0]) == 1e14
    eps = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(eps, eps[1:]))
    assert eps[-1] >= 0.99


def test_sweep_linear_spacing_is_even_with_exact_ends(capsys):
    # 0.03 + (0.3 - 0.03) rounds to 0.30000000000000004, so the last row
    # is set to --to rather than computed
    code, out, _ = run_cli(
        capsys,
        ["sweep", "cs", "--vary", "lambda", "--from", "0.03", "--to", "0.3", "--points", "4",
         "--spacing", "linear", "--n", "1e6", "--k", "128", "--sigma2", "1", "--frob2", "1e6",
         "--delta", "0.05"],
    )
    assert code == 0
    manifest, rows = parse_sweep(out)
    want = [0.03, 0.03 + (0.3 - 0.03) * 1 / 3, 0.03 + (0.3 - 0.03) * 2 / 3, 0.3]
    assert manifest["config"]["values"] == want
    assert [r[0] for r in rows] == [format_number(v) for v in want]


def test_sweep_single_point_is_from(capsys):
    base = ["sweep", "density", "--vary", "n", "--nu", "1", "--c", "0.1", "--a", "0.5"]
    code, out, _ = run_cli(capsys, [*base, "--from", "1e6", "--to", "1e14", "--points", "1"])
    assert code == 0
    manifest, rows = parse_sweep(out)
    assert manifest["config"]["values"] == [1e6]
    _, by_value, _ = run_cli(capsys, [*base, "--values", "1e6"])
    assert out.partition("\n")[2] == by_value.partition("\n")[2]


def test_sweep_single_point_matches_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "density", "--vary", "n", "--values", "1e11",
         "--nu", "1", "--c", "0.1", "--a", "0.5"],
    )
    assert code == 0
    _, rows = parse_sweep(out)
    (row,) = rows
    rep = compute_bounds(DensityConfig(n=1e11, nu=1.0, c=0.1, a=0.5))
    assert row == [
        format_number(1e11),
        format_number(rep.strong.eps_lower),
        format_number(rep.fano.eps_lower),
        format_number(rep.strong.risk_lower),
        format_number(rep.fano.risk_lower),
        format_number(rep.ratio),
    ]


def test_sweep_rows_match_library_per_value(capsys):
    lams = [0.05, 0.2, 0.5, 1.0]
    code, out, _ = run_cli(
        capsys,
        ["sweep", "cs", "--vary", "lambda", "--values", ",".join(map(str, lams)),
         "--n", "1e6", "--k", "128", "--sigma2", "1", "--frob2", "1e6",
         "--delta", "0.05"],
    )
    assert code == 0
    _, rows = parse_sweep(out)
    for lam, row in zip(lams, rows):
        rep = compute_bounds(
            CsConfig(n=1e6, k=128.0, sigma_sq=1.0, frob_norm_sq=1e6, lam=lam, delta=0.05)
        )
        assert row[1] == format_number(rep.strong.eps_lower)
        assert row[5] == format_number(rep.ratio)


def test_sweep_empty_values_yields_header_only(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "density", "--vary", "n", "--values", "", "--nu", "1",
         "--c", "0.1", "--a", "0.5"],
    )
    assert code == 0
    _, rows = parse_sweep(out)
    assert rows == []


def test_sweep_ratio_blank_when_undefined(capsys):
    # degenerate log M in (1, 2]: fano risk floors at zero, ratio column empty
    code, out, _ = run_cli(
        capsys,
        ["sweep", "cs", "--vary", "lambda", "--values", "0.5",
         "--n", "25", "--k", "4", "--sigma2", "1", "--frob2", "25", "--delta", "0.5"],
    )
    assert code == 0
    _, rows = parse_sweep(out)
    assert rows[0][5] == ""
    assert float(rows[0][4]) == 0.0


def test_sweep_bad_middle_point_exits_2_with_nothing_on_stdout(capsys):
    code, out, err = run_cli(
        capsys,
        ["sweep", "density", "--vary", "nu", "--values", "0.5,100,0.6", "--n", "1e11",
         "--c", "0.1", "--a", "0.5"],
    )
    assert code == 2 and out == ""
    assert err == (
        "error: nu < (c0 / (c^2 a))^(1/5) violated: nu = 100.0, limit = 1.749720860568452\n"
    )


def test_sweep_config_error_wins_over_earlier_compute_error(capsys):
    # alpha = 5e-324 is a valid ActiveConfig whose report evaluates to NaN
    base = ["sweep", "active", "--vary", "alpha", "--d", "2", *ACTIVE_ARGS]
    code, out, err = run_cli(capsys, [*base, "--values", "5e-324,1"])
    assert code == 2 and out == "" and "NaN" in err
    code, out, err = run_cli(capsys, [*base, "--values", "5e-324,1,-1"])
    assert code == 2 and out == ""
    assert err == "error: alpha > 0 violated: alpha = -1.0\n"


def test_sweep_casts_integral_int_field_like_make_config(capsys):
    base = ["sweep", "active", "--vary", "d", *ACTIVE_ARGS]
    code, out, _ = run_cli(capsys, [*base, "--values", "2,3"])
    assert code == 0
    manifest, rows = parse_sweep(out)
    assert manifest["config"]["values"] == [2, 3]
    values = {"n": 1e6, "alpha": 1.0, "kappa": 2.0, "L": 1.0, "c": 0.1, "H": 1.0, "nu": 0.5}
    for d, row in zip((2.0, 3.0), rows):
        rep = compute_bounds(make_config("active", {**values, "d": d}))
        assert row[1:5] == [format_number(x) for x in (
            rep.strong.eps_lower, rep.fano.eps_lower, rep.strong.risk_lower, rep.fano.risk_lower
        )]
    code, out, err = run_cli(capsys, [*base, "--values", "2,2.5"])
    assert code == 2 and out == ""
    assert err == "error: integer d >= 2 violated: d = 2.5\n"


def _pretty_then_strip(obj) -> str:
    """compact_json as it was first written: the pretty form, its lines stripped and joined."""
    return " ".join(line.strip() for line in canonical_json(obj).splitlines())


@pytest.mark.parametrize("obj", [
    {},
    [],
    {"a": {}, "b": [], "c": [{}, []]},
    {"z": [1, [2, [3, {"y": None, "x": True}]]], "a": {"b": {"c": False}}},
    [math.inf, -math.inf, math.nan, 0.1, -0.0, 1e-300, 10**20],
    {"  spaced key  ": "  inner  spaces  ", "s": ["a b", " c ", "x\ny", "\u2028\x1c\x0c"]},
    ("tuple", 2, 3.5),
    "top level string",
    None,
])
def test_compact_json_matches_pretty_then_strip(obj):
    assert compact_json(obj) == _pretty_then_strip(obj)


def test_compact_json_manifest_of_a_real_sweep(capsys):
    argv = ["sweep", "cs", "--vary", "n", "--from", "1e3", "--to", "1e40", "--points", "50",
            *CS_ARGS[2:]]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    head = out.partition("\n")[0]
    manifest = json.loads(head[len("# manifest: "):])
    assert head == "# manifest: " + _pretty_then_strip(manifest)
    assert head.startswith('# manifest: { "command": [ "sweep", "cs", ')


# sha256 of the CSV body (every line after the manifest) of a 300-point log
# sweep of n with each golden report's flags, recorded at commit 36c7397,
# before rows were formatted as one string and points run through one
# assembly lookup.  The rows are compared with no library call, so a drift
# in the closed forms shows here, which a comparison with compute_bounds
# cannot see.
PINNED_SWEEPS = {
    "density": ("1e2", "1e15",
                "a8f431ea1dd2e2cc0e91f1f3e7836996b169dd381064345374012d9a4cb65cfa"),
    "active": ("1e2", "1e12",
               "3f6e56727032d9b8b5b4d568ca5af1c62b8df79ffd83e9131bd7672a6dbd4454"),
    "cs": ("1e3", "1e40",
           "194f101cbabf5afaf6875ee9317f7e834682820a0e042bb2a175e933a8a0d114"),
}


def golden_flags(app: str) -> list:
    """The flags of a golden report's command, without its --out."""
    with open(os.path.join(GOLDEN_DIR, f"{app}.json"), encoding="utf-8") as fh:
        command = json.load(fh)["manifest"]["command"]
    at = command.index("--out")
    return command[2:at] + command[at + 2:]


@pytest.mark.parametrize("app", sorted(PINNED_SWEEPS))
def test_sweep_csv_body_keeps_the_digest_pinned_at_36c7397(capsys, app):
    start, stop, digest = PINNED_SWEEPS[app]
    code, out, _ = run_cli(capsys, ["sweep", app, *golden_flags(app), "--vary", "n",
                                    "--from", start, "--to", stop, "--points", "300"])
    assert code == 0
    body = out.partition("\n")[2]
    assert body.count("\n") == 301
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest


def strip_timestamp_compact(text: str) -> str:
    """A sweep's output with its one-line manifest's timestamp blanked."""
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def test_reused_parser_carries_nothing_between_calls(capsys):
    # main builds its parser once per process; three calls that set
    # defaults, end in argparse's own SystemExit and in a ConfigError leave
    # nothing behind for the next one
    plain = ["sweep", "density", *DENSITY_ARGS[2:], "--vary", "n", "--from", "1e6",
             "--to", "1e14", "--points", "5"]
    code, out, _ = run_cli(capsys, [*plain, "--spacing", "linear", "--seed", "7"])
    assert code == 0 and parse_sweep(out)[0]["seed"] == 7
    with pytest.raises(SystemExit) as exited:
        main([*plain, "--no-such-flag"])
    assert exited.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    code, out, err = run_cli(capsys, [*plain[:-1], "0"])
    assert code == 2 and out == "" and err == "error: --points must be at least 1\n"

    code, out, _ = run_cli(capsys, plain)
    assert code == 0
    manifest, rows = parse_sweep(out)
    assert manifest["seed"] == 0
    assert manifest["config"]["values"] == [
        1e6, *(math.exp(math.log(1e6) + (math.log(1e14) - math.log(1e6)) * i / 4)
               for i in (1, 2, 3)), 1e14]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    fresh = subprocess.run([sys.executable, "-m", "conversekit.cli", *plain], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    assert strip_timestamp_compact(out) == strip_timestamp_compact(fresh.stdout)


# --- verify subcommand ---


def test_verify_packing_gv_case(capsys):
    code, out, _ = run_cli(capsys, ["verify", "packing", "--m", "12", "--dmin", "4"])
    assert code == 0
    assert "[ok]" in out
    assert "violation" not in out


def test_verify_divergence_small_run(capsys):
    code, out, _ = run_cli(capsys, ["verify", "divergence", "--count", "60", "--seed", "7"])
    assert code == 0
    assert "[ok]" in out and "0 failures" in out


def test_verify_soundness_small_run(capsys):
    code, out, _ = run_cli(capsys, ["verify", "soundness", "--count", "15", "--seed", "5"])
    assert code == 0
    assert "[ok]" in out and "0 failures" in out


def test_verify_packing_rejects_count(capsys):
    code, out, err = run_cli(capsys, ["verify", "packing", "--count", "5"])
    assert code == 2 and out == ""
    assert "--count" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_rejects_count_below_one(capsys, count):
    # a suite of no checks is a configuration error (exit 2), not a failed suite (exit 1)
    for suite in ("soundness", "divergence", "fano-recovery"):
        code, out, err = run_cli(capsys, ["verify", suite, "--count", count])
        assert code == 2 and out == ""
        assert err == "error: --count must be at least 1\n"


def test_verify_divergence_rejects_gv_flags(capsys):
    code, out, err = run_cli(capsys, ["verify", "divergence", "--m", "3", "--dmin", "2"])
    assert code == 2 and out == ""
    assert "--m" in err and "--dmin" in err


def test_verify_without_seed_uses_suite_default(capsys):
    default = inspect.signature(fano_recovery_suite).parameters["seed"].default
    code, implicit, _ = run_cli(capsys, ["verify", "fano-recovery", "--count", "4"])
    assert code == 0
    code, explicit, _ = run_cli(
        capsys, ["verify", "fano-recovery", "--count", "4", "--seed", str(default)]
    )
    assert code == 0 and implicit == explicit


def test_verify_fano_recovery_prints_only_its_summary(capsys):
    # one Fano and three generalized-Fano records per family, and no note
    code, out, _ = run_cli(capsys, ["verify", "fano-recovery", "--count", "4"])
    assert code == 0
    assert out.splitlines() == [
        "fano-recovery: 16 checks, 0 failures, worst margin 1.827e-01 [ok]",
    ]


def test_nan_margin_is_the_worst_margin_and_stays_so():
    # a NaN margin fails, so the summary must not print a finite worst margin
    result = SuiteResult("demo")
    result.record(0.5, "first")
    result.record(math.nan, "second")
    result.record(-1.0, "third")
    result.record(0.25, "fourth")
    assert result.checks == 4 and result.failures == 2
    assert math.isnan(result.worst_margin)
    assert result.summary_line() == "demo: 4 checks, 2 failures, worst margin nan [FAIL]"
    assert result.details == ["second: margin nan", "third: margin -1.000e+00"]


def test_failing_verify_suite_prints_violations_and_exits_1(capsys, monkeypatch):
    def failing(seed=0):
        result = SuiteResult("divergence")
        result.notes.append("note: demo")
        result.record(0.5, "close")
        result.record(-1.0, "broken")
        return result

    monkeypatch.setitem(suites._SUITES, "divergence", failing)
    code, out, _ = run_cli(capsys, ["verify", "divergence"])
    assert code == 1
    assert out.splitlines() == [
        "note: demo",
        "violation: broken: margin -1.000e+00",
        "divergence: 2 checks, 1 failures, worst margin -1.000e+00 [FAIL]",
    ]


def test_verify_packing_half_gv_flags_exits_2(capsys):
    code, _, err = run_cli(capsys, ["verify", "packing", "--m", "12"])
    assert code == 2
    assert "--dmin" in err


# --- formatting primitives ---


@pytest.mark.parametrize("x", [0.0, 1.0, -2.5, 0.1, 1e-300, 7.2388191917891245, 1e11])
def test_format_number_round_trips(x):
    assert float(format_number(x)) == x


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(
    st.floats(),
    st.integers(min_value=-int(sys.float_info.max), max_value=int(sys.float_info.max)),
    st.floats().map(np.float64),
))
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072004e-308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(np.float64(-0.0))
@example(2**1023)
def test_format_number_round_trips_as_17_significant_digits_or_null(x):
    if not math.isfinite(x):
        assert format_number(x) == "null"
        return
    assert format_number(x) == format(float(x), ".17g")
    assert float(format_number(x)) == float(x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=5, max_size=5), st.none() | st.floats())
@example([1.0, math.inf, -math.inf, math.nan, -0.0], None)
@example([5e-324, 0.5, 0.25, 1e-300, 1e300], math.nan)
def test_csv_row_spells_each_cell_as_format_number(cells, ratio):
    value, strong_eps, fano_eps, strong_risk, fano_risk = cells
    rep = types.SimpleNamespace(
        strong=types.SimpleNamespace(eps_lower=strong_eps, risk_lower=strong_risk),
        fano=types.SimpleNamespace(eps_lower=fano_eps, risk_lower=fano_risk),
        ratio=ratio,
    )
    want = [format_number(x) for x in (value, strong_eps, fano_eps, strong_risk, fano_risk)]
    want.append("" if ratio is None else format_number(ratio))
    assert _csv_row(value, rep) == ",".join(want)


# A verbatim copy of the JSON renderer as of commit cddf258, renamed only, as
# the byte reference for canonical_json and compact_json.
def reference_format_number(x: float) -> str:
    """17-significant-digit decimal, or null for non-finite values."""
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def reference_join(parts: list, pad: str | None) -> str:
    """Members between their brackets: indented lines under pad, or one line for None."""
    if pad is None:
        return " " + ", ".join(parts) + " "
    inner = "\n" + pad + "  "
    return inner + ("," + inner).join(parts) + "\n" + pad


def reference_render_json(obj, pad: str | None) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return reference_format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    deeper = None if pad is None else pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{json.dumps(str(k))}: {reference_render_json(v, deeper)}"
            for k, v in sorted(obj.items())
        ]
        return "{" + reference_join(parts, pad) + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + reference_join([reference_render_json(v, deeper) for v in obj], pad) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_JSON_LEAVES = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308]),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=6),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_JSON_VALUES)
@example([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308, np.float64(0.1), 3, True, None])
@example({"values": [1e6, 10000000000.000004, 1e14], "empty": [], "none": {}, "s": "é\n"})
def test_json_bytes_match_the_reference_renderer(obj):
    assert compact_json(obj) == reference_render_json(obj, None)
    assert canonical_json(obj) == reference_render_json(obj, "") + "\n"


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_format_number_non_finite(x):
    assert format_number(x) == "null"


# --- README usage ---


def test_readme_usage_examples_run(capsys):
    with open(README_PATH, encoding="utf-8") as fh:
        text = fh.read()
    (library,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(library, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
    shell = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in shell.splitlines()]
    run = [argv[1:] for argv in commands if argv[:1] == ["conversekit"]
           and argv[1] in ("bound", "sweep")]
    assert run
    for argv in run:
        code, out, err = run_cli(capsys, argv)
        assert code == 0, (argv, err)
        assert out
