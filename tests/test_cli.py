"""End-to-end CLI behavior: JSON/CSV contracts, determinism, exit codes."""

import dataclasses
import inspect
import json
import math
import os

import pytest

jsonschema = pytest.importorskip("jsonschema")

import conversekit
from conversekit import applications, converse, divergence, oracle, packing
from conversekit.applications import ActiveConfig, CsConfig, DensityConfig, compute_bounds
from conversekit.cli import CSV_COLUMNS, build_parser, format_number, main, make_config
from conversekit.suites import fano_recovery_suite

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "conversekit", "schema",
    "comparison_report.schema.json",
)
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")

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
    with open(os.path.abspath(SCHEMA_PATH), encoding="utf-8") as fh:
        return json.load(fh)


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
    jsonschema.validate(payload["report"], report_schema)
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
    jsonschema.validate(report, report_schema)
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
    jsonschema.validate(report, report_schema)
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


def test_missing_required_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, ["bound", "density", "--n", "1e11"])
    assert code == 2
    assert "--nu" in err and "--c" in err and "--a" in err


def test_io_error_exits_3(capsys, tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "out.json"
    code, _, err = run_cli(capsys, ["bound", "density", *DENSITY_ARGS, "--out", str(dest)])
    assert code == 3
    assert "i/o error:" in err


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
    eps = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(eps, eps[1:]))
    assert eps[-1] >= 0.99


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


def test_verify_packing_half_gv_flags_exits_2(capsys):
    code, _, err = run_cli(capsys, ["verify", "packing", "--m", "12"])
    assert code == 2
    assert "--dmin" in err


# --- formatting primitives ---


@pytest.mark.parametrize("x", [0.0, 1.0, -2.5, 0.1, 1e-300, 7.2388191917891245, 1e11])
def test_format_number_round_trips(x):
    assert float(format_number(x)) == x


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_format_number_non_finite(x):
    assert format_number(x) == "null"
