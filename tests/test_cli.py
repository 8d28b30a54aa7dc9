import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from volterra_feller import fracapprox
from volterra_feller.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def _write_ini(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


CIR_FAMILY = """\
    [model]
    family = cir
    kappa = 1.0
    theta = 1.0
    sigma = 1.0
    x0 = 0.2

    [kernel]
    kind = constant
    level = 1.0

    [test]
    name = family
    """


# ------------------------------------------------------------------- verdicts


def test_family_run_prints_json_verdicts(tmp_path, capsys):
    rc = main(["test", "--config", _write_ini(tmp_path, CIR_FAMILY)])
    out = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.out)
    assert doc["config"]["model"]["family"] == "cir"
    verdicts = doc["verdicts"]
    assert any(
        v["boundary"] == "Left" and v["verdict"] == "NoExitAS" for v in verdicts
    )
    for v in verdicts:
        assert set(v) >= {"boundary", "verdict", "theorem", "evidence"}


def test_all_inconclusive_exits_2(tmp_path, capsys):
    cfg = """\
        [model]
        family = jacobi
        a = 0.0
        b = 1.0
        kappa = 1.0
        theta = 0.5
        sigma = 10.0
        x0 = 0.5

        [kernel]
        kind = constant
        level = 1.0

        [test]
        name = sufficient
        """
    rc = main(["test", "--config", _write_ini(tmp_path, cfg)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert all(v["verdict"] == "Inconclusive" for v in doc["verdicts"])


def test_model_errors_exit_1_with_named_key(tmp_path, capsys):
    cfg = CIR_FAMILY.replace("kappa = 1.0", "kappa = -1.0")
    rc = main(["test", "--config", _write_ini(tmp_path, cfg)])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.startswith("error:")
    assert "kappa" in out.err


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = CIR_FAMILY + "    typo_key = 3\n"
    rc = main(["test", "--config", _write_ini(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "typo_key" in err


def test_numeric_error_prints_its_details(tmp_path, capsys):
    # 64 panels allow a single quadrature round, so p cannot be seen to
    # stabilize
    cfg = CIR_FAMILY.replace("name = family", "name = scale\n    x_grid = 0.5\n    max_panels = 64")
    rc = main(["scale", "--config", _write_ini(tmp_path, cfg)])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert out.err.startswith("error: scale quadrature did not stabilize (x=0.5, ")
    assert "max_panels=64)" in out.err


def test_overflowing_stage_count_is_one_error_line(tmp_path, capsys):
    # the staged march toward +inf overflowed 2.0**n and left a traceback
    cfg = CIR_FAMILY.replace("name = family", "name = sufficient\n    n_stages = 1100")
    rc = main(["test", "--config", _write_ini(tmp_path, cfg)])
    out = capsys.readouterr()
    assert (rc, out.out) == (1, "")
    assert out.err.startswith("error: n_stages must be at most 1023 ")
    assert out.err.count("\n") == 1


def test_seed_past_2_64_is_one_error_line(tmp_path, capsys):
    # Philox keys are two 64-bit words; a larger seed raised OverflowError
    cfg = _golden_config("cir", "constant", sim=_GOLDEN_SIM.replace("seed = 3", f"seed = {2**64}"))
    rc = main(["simulate", "--config", _write_ini(tmp_path, cfg)])
    out = capsys.readouterr()
    assert (rc, out.out) == (1, "")
    assert out.err.startswith("error: seed ")
    assert out.err.count("\n") == 1


def test_usage_errors_exit_1_on_one_line(capsys):
    # argparse exits 2 on its own; the parser raises a CLI error instead
    rc = main(["test"])
    out = capsys.readouterr()
    assert (rc, out.out) == (1, "")
    assert out.err == "error: the following arguments are required: --config\n"


def test_missing_config_file_exits_1(capsys):
    rc = main(["test", "--config", "/nonexistent/run.ini"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    ("test", CIR_FAMILY + "\n    [bogus]\n    x = 1\n", "unknown section [bogus] in "),
    ("test", "[kernel]\nkind = constant\nlevel = 1.0\n", "config needs a [model] section"),
    ("simulate", CIR_FAMILY, "config needs a [sim] section"),
    ("scale", CIR_FAMILY.replace("name = family", "name = scale\n    x_grid ="),
     "bad value for 'x_grid' in [test]: ''"),
    ("test", CIR_FAMILY + "\n    [output]\n    format = xml\n",
     "output format must be 'json' or 'csv', got 'xml'"),
    ("test", "kappa = 1\n" + textwrap.dedent(CIR_FAMILY), "cannot parse config "),
    ("resolvent", "[kernel]\nkind = constant\nlevel = 1.0\n",
     "config needs a [sim] section with dt and horizon"),
])
def test_config_errors_are_one_line(tmp_path, capsys, command, cfg, message):
    rc = main([command, "--config", _write_ini(tmp_path, cfg)])
    out = capsys.readouterr()
    assert (rc, out.out) == (1, "")
    assert out.err.startswith(f"error: {message}")
    assert out.err.count("\n") == 1


# ---------------------------------------------------------- library defaults

_MINIMAL = """\
    [model]
    family = cir
    kappa = 1.0
    theta = 1.0
    sigma = 1.0
    x0 = 0.2

    [kernel]
    kind = constant
    level = 1.0

    [sim]
    dt = 0.01
    horizon = 0.5
    n_paths = 8
"""
_MODEL_ECHO = {"family": "cir", "kappa": 1.0, "theta": 1.0, "sigma": 1.0, "x0": 0.2}
_SIM_ECHO = {"dt": 0.01, "horizon": 0.5, "n_paths": 8, "scheme": "conv_euler", "seed": 0,
             "blowup_cap": 1e6}


@pytest.mark.parametrize("command, test_section, expected", [
    ("scale", "x_grid = 0.5", {"test": {"x_grid": "0.5", "beta": 0.0, "gamma": 0.0, "c": 0.2,
                                        "quad_tol": 1e-9, "max_panels": 4096}}),
    ("resolvent", None, {"sim": {"dt": 0.01, "horizon": 0.5}, "test": {"tol": 1.0}}),
    ("simulate", None, {"sim": _SIM_ECHO}),
    ("crosscheck", None, {"sim": dict(_SIM_ECHO, leak_tol=0.02, floor_tol=0.05),
                          "test": {"name": "family", "quad_tol": 1e-9, "max_panels": 4096}}),
    ("test", "name = necessary", {"test": {"name": "necessary", "c": 0.2, "quad_tol": 1e-9,
                                           "max_panels": 4096, "eps_shift": 1e-6}}),
    ("test", "name = sufficient", {"test": {"name": "sufficient", "c": 0.2, "quad_tol": 1e-9,
                                            "max_panels": 4096, "n_stages": 8}}),
])
def test_omitted_keys_echo_library_defaults(tmp_path, capsys, command, test_section,
                                            expected):
    cfg = _MINIMAL + (f"\n    [test]\n    {test_section}\n" if test_section else "")
    rc = main([command, "--config", _write_ini(tmp_path, cfg)])
    config = json.loads(capsys.readouterr().out)["config"]
    assert rc == 0
    want = {"kernel": {"kind": "constant", "level": 1.0},
            "output": {"format": "json", "path": None}, **expected}
    if command != "resolvent":
        want["model"] = _MODEL_ECHO
    assert config == want


@pytest.mark.parametrize("command, extra, key, section", [
    ("test", "\n    [test]\n    name = sufficient\n    cap = 1e10\n", "cap", "test"),
    ("simulate", "    leak_tol = 0.1\n", "leak_tol", "sim"),
])
def test_keys_outside_the_library_signatures_are_unknown(tmp_path, capsys, command, extra,
                                                          key, section):
    # sufficient_test takes no cap; only crosscheck reads the Euler tolerances.
    # Appended lines without a header land in [sim], the last section.
    rc = main([command, "--config", _write_ini(tmp_path, _MINIMAL + extra)])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert out.err == f"error: unknown key '{key}' in [{section}]\n"


# --------------------------------------------------------------------- output


def test_output_path_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "verdicts.json"
    cfg = CIR_FAMILY + f"\n    [output]\n    path = {target}\n"
    rc = main(["test", "--config", _write_ini(tmp_path, cfg)])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out == ""
    doc = json.loads(target.read_text())
    assert doc["verdicts"]


def test_out_flag_overrides_the_configured_path(tmp_path, capsys):
    configured, flagged = tmp_path / "configured.json", tmp_path / "flagged.json"
    cfg = CIR_FAMILY + f"\n    [output]\n    path = {configured}\n"
    rc = main(["test", "--config", _write_ini(tmp_path, cfg), "--out", str(flagged)])
    assert (rc, capsys.readouterr().out) == (0, "")
    assert not configured.exists()
    assert json.loads(flagged.read_text())["config"]["output"]["path"] == str(flagged)


_ROUND_TRIP_MODELS = {
    "cir": ("family = cir\nkappa = 1.0\ntheta = 1.0\nsigma = 1.0\nx0 = 0.2\n",
            "0.5, 1.0, 1.5"),
    "jacobi": ("family = jacobi\na = 0.0\nb = 1.0\nkappa = 2.0\ntheta = 0.5\nsigma = 1.0\n"
               "x0 = 0.3\n", "0.1, 0.5, 0.9"),
    "power": ("family = power\nalpha = 1.5\ndelta = 0.25\nsigma = 1.0\nx0 = 0.5\n",
              "-1.0, 0.25, 1.5"),
}
_ROUND_TRIP_KERNELS = {
    "sumexp": "kind = sumexp\nweights = 1.0\nrates = 1.0\n",
    "constant": "kind = constant\nlevel = 1.0\n",
    "truncfrac": "kind = truncfrac\nalpha = 0.6\nT = 4.0\n",
}


@pytest.mark.parametrize(
    "family, kind",
    [("cir", "sumexp"), ("cir", "constant"), ("cir", "truncfrac"),
     ("jacobi", "sumexp"), ("power", "sumexp")],
)
def test_csv_round_trip_is_byte_identical(tmp_path, capsys, family, kind):
    # the CSV header comments echo a complete INI config; feeding that back
    # must reproduce the run byte for byte
    model, x_grid = _ROUND_TRIP_MODELS[family]
    cfg = (f"[model]\n{model}\n[kernel]\n{_ROUND_TRIP_KERNELS[kind]}\n"
           f"[test]\nname = scale\nx_grid = {x_grid}\n")
    rc = main(["scale", "--config", _write_ini(tmp_path, cfg), "--format", "csv"])
    first = capsys.readouterr().out
    assert rc == 0
    echoed = "".join(
        line[2:] + "\n" for line in first.splitlines() if line.startswith("# ")
    )
    rc2 = main(["scale", "--config", _write_ini(tmp_path, echoed, name="echo.ini")])
    # the echoed config pins format=csv, so no flag is needed the second time
    second = capsys.readouterr().out
    assert rc2 == 0
    assert second == first


def test_format_flag_overrides_config(tmp_path, capsys):
    cfg = CIR_FAMILY + "\n    [output]\n    format = csv\n"
    rc = main(["test", "--config", _write_ini(tmp_path, cfg), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    json.loads(out)


# --------------------------------------------------------------------- approx


def test_approx_truncation_scalars(capsys):
    rc = main(["approx", "--alpha", "0.5", "--scheme", "truncation", "--T", "1.0"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["config"]["approx"]["k0"] == pytest.approx(0.6366197723675814, rel=1e-12)
    assert doc["config"]["approx"]["kprime0"] == pytest.approx(
        -0.2122065907891938, rel=1e-12
    )
    assert len(doc["rows"]) == 4  # default lag grid


def test_approx_builds_its_stand_in_once(monkeypatch, capsys):
    # each Gauss stand-in is a 60-digit mpmath construction
    calls = []
    build = fracapprox.gaussian_quadrature_kernel

    def counted(scheme):
        calls.append(scheme)
        return build(scheme)

    monkeypatch.setattr(fracapprox, "gaussian_quadrature_kernel", counted)
    rc = main(["approx", "--alpha", "0.5", "--scheme", "fractional", "--intervals", "3"])
    assert rc == 0
    assert len(calls) == 1


def test_approx_quadrature_needs_intervals(capsys):
    rc = main(["approx", "--alpha", "0.5", "--scheme", "fractional"])
    assert rc == 1
    assert "--intervals" in capsys.readouterr().err


def test_approx_truncation_needs_T(capsys):
    rc = main(["approx", "--alpha", "0.5", "--scheme", "truncation"])
    assert rc == 1
    assert "--T" in capsys.readouterr().err


# ---------------------------------------------------------- other subcommands


def test_resolvent_reports_hypotheses(tmp_path, capsys):
    cfg = """\
        [kernel]
        kind = sumexp
        weights = 1.0
        rates = 1.0

        [sim]
        dt = 0.001
        horizon = 2.0
        """
    rc = main(["resolvent", "--config", _write_ini(tmp_path, cfg)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    row = doc["resolvent"]
    assert row["passed"] is True
    assert row["density_nonnegative"] and row["kprime_conv_nonpositive"]
    assert row["atom"] == pytest.approx(1.0)
    assert row["kl_residual"] <= 1e-2


def test_simulate_reports_are_reproducible(tmp_path, capsys):
    cfg = """\
        [model]
        family = cir
        kappa = 1.0
        theta = 1.0
        sigma = 1.0
        x0 = 1.0

        [kernel]
        kind = constant
        level = 1.0

        [sim]
        dt = 0.01
        horizon = 0.5
        n_paths = 32
        seed = 5
        """
    path = _write_ini(tmp_path, cfg)
    rc1 = main(["simulate", "--config", path])
    first = json.loads(capsys.readouterr().out)
    rc2 = main(["simulate", "--config", path])
    second = json.loads(capsys.readouterr().out)
    assert rc1 == rc2 == 0
    assert first["report"] == second["report"]
    assert first["report"]["n_paths"] == 32


def test_crosscheck_agrees_on_defended_verdict(tmp_path, capsys):
    cfg = """\
        [model]
        family = cir
        kappa = 1.0
        theta = 1.0
        sigma = 1.0
        x0 = 0.2

        [kernel]
        kind = constant
        level = 1.0

        [test]
        name = family

        [sim]
        dt = 0.005
        horizon = 1.0
        n_paths = 200
        seed = 1
        """
    rc = main(["crosscheck", "--config", _write_ini(tmp_path, cfg)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["crosscheck"]["consistent"] is True
    statuses = {c["status"] for c in doc["crosscheck"]["checks"]}
    assert "contradict" not in statuses


# ----------------------------------------------------------------- help text


@pytest.mark.parametrize(
    "name", ["main", "test", "scale", "resolvent", "approx", "simulate", "crosscheck"]
)
def test_help_snapshots(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    if name == "main":
        text = parser.format_help()
    else:
        subs = next(a for a in parser._actions if getattr(a, "choices", None))
        text = subs.choices[name].format_help()
    assert text == (GOLDEN / f"help_{name}.txt").read_text()


# ------------------------------------------------------------- output goldens

_GOLDEN_KERNELS = dict(_ROUND_TRIP_KERNELS,
                       two_rate="kind = sumexp\nweights = 0.5, 0.5\nrates = 1.0, 2.0\n")
_GOLDEN_SIM = "[sim]\ndt = 0.01\nhorizon = 0.5\nn_paths = 16\nseed = 3\n"


def _golden_config(model, kernel, test=None, sim=""):
    cfg = f"[model]\n{_ROUND_TRIP_MODELS[model][0]}\n[kernel]\n{_GOLDEN_KERNELS[kernel]}\n"
    if test is not None:
        cfg += f"[test]\n{test}\n"
    return cfg + sim


# (case name, subcommand and flags, config text or None: --config follows the
# subcommand);
# simulate and crosscheck use the constant and one-rate kernels, whose
# recursions are elementwise, so their bits do not depend on the BLAS build
_GOLDEN_RUNS = [
    ("test_necessary", ["test"], _golden_config("cir", "two_rate", "name = necessary")),
    ("test_sufficient", ["test"], _golden_config("jacobi", "constant", "name = sufficient")),
    ("test_bounded_interval", ["test"],
     _golden_config("jacobi", "constant", "name = bounded_interval")),
    ("test_sup_inf", ["test"], _golden_config("jacobi", "sumexp", "name = sup_inf")),
    ("test_family", ["test"], _golden_config("power", "truncfrac", "name = family")),
    ("scale", ["scale"], _golden_config("power", "truncfrac",
                                        "name = scale\nx_grid = -1.0, 0.25, 1.5")),
    ("resolvent", ["resolvent"],
     f"[kernel]\n{_GOLDEN_KERNELS['two_rate']}\n[sim]\ndt = 0.01\nhorizon = 1.0\n"),
    ("simulate", ["simulate"], _golden_config("cir", "constant", sim=_GOLDEN_SIM)),
    ("crosscheck", ["crosscheck"],
     _golden_config("jacobi", "sumexp", "name = family", _GOLDEN_SIM)),
    ("approx", ["approx", "--alpha", "0.6", "--scheme", "fractional", "--intervals", "3",
                "--q", "2"], None),
]
_GOLDEN_ERRORS = [
    ("unknown_family", _golden_config("cir", "constant").replace("= cir", "= heston")),
    ("unknown_kind", _golden_config("cir", "constant").replace("= constant", "= gamma")),
    ("missing_key", _golden_config("cir", "constant").replace("theta = 1.0\n", "")),
    ("bad_tuple", _golden_config("cir", "two_rate").replace("1.0, 2.0", "1.0, fast")),
    # appended lines land in [kernel], the last section
    ("unknown_key", _golden_config("cir", "truncfrac") + "cap = 2.0\n"),
    # configparser reads inf as a float; it certified NoExitAS with gap inf
    ("inf_kappa", _golden_config("cir", "constant").replace("kappa = 1.0", "kappa = inf")),
]
_GOLDEN_CASES = (
    [(f"{name}_{fmt}", argv, cfg, fmt) for name, argv, cfg in _GOLDEN_RUNS
     for fmt in ("json", "csv")]
    + [(f"error_{name}", ["test"], cfg, None) for name, cfg in _GOLDEN_ERRORS]
)


@pytest.mark.parametrize("case, argv, cfg, fmt", _GOLDEN_CASES,
                         ids=[case[0] for case in _GOLDEN_CASES])
def test_output_goldens(tmp_path, capsys, case, argv, cfg, fmt):
    # exit code, stdout and stderr of whole runs, byte for byte
    argv = list(argv)
    if cfg is not None:
        argv[1:1] = ["--config", _write_ini(tmp_path, cfg)]
    if fmt is not None:
        argv += ["--format", fmt]
    rc = main(argv)
    out = capsys.readouterr()
    text = f"exit {rc}\n--- stdout\n{out.out}--- stderr\n{out.err}"
    assert text == (GOLDEN / f"cli_{case}.txt").read_text()


def test_importing_the_library_and_cli_leaves_scipy_special_unloaded():
    # scipy.special takes about a quarter second to import; the functions
    # that use it import it themselves
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, volterra_feller, volterra_feller.cli; "
            "print('scipy.special' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
