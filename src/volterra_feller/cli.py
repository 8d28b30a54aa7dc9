"""Command line front end.

Subcommands
-----------
test        boundary verdicts from an INI config ([model], [kernel], [test])
scale       tabulate the scale function p and test function v on a state grid
resolvent   resolvent-of-the-first-kind summary and hypothesis checks
approx      fractional-kernel approximation error table (inline flags only)
simulate    Monte Carlo boundary-hit statistics
crosscheck  analytic verdicts compared against Monte Carlo hit fractions

Config format
-------------
INI with sections [model], [kernel], [test], [sim], [output].  Keys are
lower case; unknown sections or keys in a section the subcommand reads are
errors.  Sections a subcommand does not read may be present (one file can
drive several subcommands) and are ignored.  Keys and defaults are read
from the library: [model] from the model class's fields, [kernel] from
the kernel class's fields (lower-cased, so T is given as t), [sim] from
SimConfig's fields (and verdict_crosscheck's keyword parameters), [test]
from ScaleContext's fields and the named test's keyword parameters.
``resolvent`` reads only dt and horizon from [sim].

Every run echoes its fully resolved configuration: JSON output carries it
under the "config" key, CSV output as leading '# ' comment lines in INI
form.  Stripping the '# ' prefixes reconstructs a config that reproduces
the run byte for byte.

CSV uses '.' as the decimal separator, '\\n' line endings, and always
emits a header row.

Exit codes: 0 when at least one verdict is decisive (or the subcommand
produces no verdicts), 2 when every verdict is inconclusive, 1 on errors.
"""

import argparse
import configparser
import csv
import inspect
import io
import json
import math
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass

from . import feller
from .errors import NumericError, PreconditionError
from .fracapprox import STAND_INS, _error_rows, stand_in_scheme
from .kernels import KERNEL_KINDS
from .resolvent import check_hypotheses, solve_resolvent
from .scale import CIRModel, JacobiModel, PowerModel, ScaleContext
from .simulate import SimConfig, simulate, verdict_crosscheck

__all__ = ["main", "build_parser"]

_SECTIONS = ("model", "kernel", "test", "sim", "output")
_REQUIRED = object()
# library parameters that take objects the CLI builds, never config keys
_OBJECTS = ("model", "kernel", "hypotheses")
# the verdict tests set the drift shifts themselves
_SHIFTS = ("beta", "gamma")
_VERDICT_TESTS = ("necessary", "sufficient", "bounded_interval", "sup_inf")


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1 like any other error, not argparse's 2
    def error(self, message):
        raise CliError(message)


# -- config reading ----------------------------------------------------------


def _read_config(path):
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        # configparser spreads some messages over lines; errors are one line
        raise CliError(f"cannot parse config {path}: {'; '.join(str(exc).splitlines())}")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise CliError(f"unknown section [{section}] in {path}")
    return {section: dict(cp.items(section)) for section in cp.sections()}


def _take(sec, section, key, cast=str, default=_REQUIRED):
    if key in sec:
        raw = sec.pop(key)
        try:
            return cast(raw)
        except (TypeError, ValueError):
            raise CliError(f"bad value for '{key}' in [{section}]: {raw!r}")
    if default is _REQUIRED:
        raise CliError(f"missing required key '{key}' in [{section}]")
    return default


def _no_leftovers(sec, section):
    if sec:
        raise CliError(f"unknown key '{sorted(sec)[0]}' in [{section}]")


def _floats(raw):
    parts = [p for p in str(raw).replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty list")
    return [float(p) for p in parts]


def _float_list_echo(values):
    return ", ".join(repr(float(v)) for v in values)


# dataclass field annotation (a type, or its name when postponed) -> parser
# for its INI value
_FIELD_CASTS = {"float": float, "int": int, "tuple": _floats}


def _take_params(sec, section, owner, skip=()):
    """Pop the keys named by a dataclass's fields or a function's keyword
    parameters, with the library's own defaults.

    Keys are looked up lower-cased, as configparser stores them.  A key with
    a default is parsed as that default's type (float when it is None); a
    dataclass field without one is required and parsed as its annotation
    says.
    """
    if is_dataclass(owner):
        params = [(f.name, _REQUIRED if f.default is MISSING else f.default, f.type)
                  for f in fields(owner)]
    else:
        params = [(p.name, p.default, None)
                  for p in inspect.signature(owner).parameters.values()
                  if p.default is not p.empty]
    out = {}
    for name, default, annotation in params:
        if name in _OBJECTS or name in skip:
            continue
        if default is _REQUIRED:
            cast = _FIELD_CASTS[getattr(annotation, "__name__", annotation)]
        else:
            cast = float if default is None else type(default)
        out[name] = _take(sec, section, name.lower(), cast, default)
    return out


# -- model / kernel builders -------------------------------------------------


_MODELS = {cls.family: cls for cls in (CIRModel, JacobiModel, PowerModel)}


def _build(cfg, section, tag, classes):
    """The [model] or [kernel] object: the class its tag names in ``classes``,
    built from that class's fields, and its echo."""
    sec = dict(cfg.get(section) or {})
    if not sec:
        raise CliError(f"config needs a [{section}] section")
    name = _take(sec, section, tag)
    cls = classes.get(name)
    if cls is None:
        raise CliError(f"unknown {section} {tag} {name!r}")
    kw = _take_params(sec, section, cls)
    obj = cls(**kw)
    _no_leftovers(sec, section)
    echo = {tag: name}
    for key, value in kw.items():
        echo[key.lower()] = _float_list_echo(value) if isinstance(value, list) else value
    return obj, echo


def _setup(args):
    """Config, output settings, model, kernel and the echo they share."""
    cfg = _read_config(args.config)
    out_cfg = _resolve_output(cfg, args)
    model, m_echo = _build(cfg, "model", "family", _MODELS)
    kernel, k_echo = _build(cfg, "kernel", "kind", KERNEL_KINDS)
    return cfg, out_cfg, model, kernel, {"model": m_echo, "kernel": k_echo, "output": out_cfg}


# -- output writing ----------------------------------------------------------


def _sanitize(obj):
    # JSON has no inf/nan literals; keep the payload strictly valid
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ini_lines(echo):
    lines = []
    for section in sorted(echo):
        lines.append(f"[{section}]")
        for key in sorted(echo[section]):
            value = echo[section][key]
            if value is None:
                continue
            lines.append(f"{key} = {_csv_cell(value)}")
    return lines


def _resolve_output(cfg, args):
    sec = dict(cfg.get("output") or {}) if cfg is not None else {}
    fmt = _take(sec, "output", "format", str, "json")
    path = _take(sec, "output", "path", str, None)
    _no_leftovers(sec, "output")
    if getattr(args, "format", None):
        fmt = args.format
    if getattr(args, "out", None):
        path = args.out
    if fmt not in ("json", "csv"):
        raise CliError(f"output format must be 'json' or 'csv', got {fmt!r}")
    return {"format": fmt, "path": path}


def _write(echo, payload, rows, columns, out_cfg):
    if out_cfg["format"] == "json":
        obj = {"config": echo}
        obj.update(payload)
        text = json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        for line in _ini_lines(echo):
            buf.write("# " + line + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col)) for col in columns])
        text = buf.getvalue()
    if out_cfg["path"]:
        with open(out_cfg["path"], "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verdict helpers ---------------------------------------------------------

_VERDICT_COLUMNS = ("boundary", "verdict", "theorem", "quantity", "value",
                    "threshold", "assumptions")


def _verdict_dicts(verdicts):
    out = []
    for bv in verdicts:
        out.append({
            "boundary": bv.boundary.value,
            "verdict": bv.verdict.value,
            "theorem": bv.theorem,
            "evidence": [
                {"quantity": q, "value": v, "threshold": t} for q, v, t in bv.evidence
            ],
            "assumptions_checked": list(bv.assumptions_checked),
        })
    return out


def _verdict_rows(verdicts):
    rows = []
    for verdict in _verdict_dicts(verdicts):
        assumptions = ";".join(verdict.pop("assumptions_checked"))
        for evidence in verdict.pop("evidence") or [{}]:
            rows.append(dict(verdict, **evidence, assumptions=assumptions))
    return rows


def _verdict_exit_code(verdicts):
    if verdicts and all(bv.verdict is feller.Verdict.INCONCLUSIVE for bv in verdicts):
        return 2
    return 0


def _run_verdicts(cfg, model, kernel):
    sec = dict(cfg.get("test") or {})
    name = _take(sec, "test", "name", str, "family")
    ctx_kw = _take_params(sec, "test", ScaleContext, skip=_SHIFTS)
    echo = {"name": name, **ctx_kw}
    if name == "family":
        _no_leftovers(sec, "test")
        del echo["c"]  # accepted, but the closed-form family test has no base point
        return feller.family_test(model, kernel), echo
    ctx = ScaleContext(model, kernel, **ctx_kw)
    if name not in _VERDICT_TESTS:
        raise CliError(f"unknown test name {name!r}")
    # looked up at call time, so wrappers installed on feller's names see it
    test = getattr(feller, f"{name}_test")
    own = _take_params(sec, "test", test)
    _no_leftovers(sec, "test")
    verdict = test(ctx, **own)
    echo.update(own, c=ctx.c)
    # a default the test resolves itself (eps_shift) is echoed as evidenced
    echo.update((q, value) for q, value, _ in verdict.evidence if q in own)
    return [verdict], echo


def _sim_config(cfg, for_crosscheck=False):
    sec = dict(cfg.get("sim") or {})
    if not sec:
        raise CliError("config needs a [sim] section")
    kw = _take_params(sec, "sim", SimConfig)
    tols = _take_params(sec, "sim", verdict_crosscheck) if for_crosscheck else {}
    _no_leftovers(sec, "sim")
    config = SimConfig(**kw)
    # an unset hit_eps is resolved per model inside simulate
    echo = {key: value for key, value in kw.items() if value is not None}
    echo.update(tols)
    return config, tols, echo


# -- subcommands -------------------------------------------------------------


def _cmd_test(args):
    cfg, out_cfg, model, kernel, echo = _setup(args)
    verdicts, echo["test"] = _run_verdicts(cfg, model, kernel)
    _write(echo, {"verdicts": _verdict_dicts(verdicts)},
           _verdict_rows(verdicts), _VERDICT_COLUMNS, out_cfg)
    return _verdict_exit_code(verdicts)


def _cmd_scale(args):
    cfg, out_cfg, model, kernel, echo = _setup(args)
    sec = dict(cfg.get("test") or {})
    xs = _take(sec, "test", "x_grid", _floats)
    kw = _take_params(sec, "test", ScaleContext)
    _take(sec, "test", "name", str, "scale")
    _no_leftovers(sec, "test")
    ctx = ScaleContext(model, kernel, **kw)
    rows = [{"x": float(x), "p": ctx.scale(x), "v": ctx.v(x)} for x in xs]
    echo["test"] = {"x_grid": _float_list_echo(xs), **kw, "c": ctx.c}
    _write(echo, {"rows": rows}, rows, ("x", "p", "v"), out_cfg)
    return 0


def _cmd_resolvent(args):
    cfg = _read_config(args.config)
    out_cfg = _resolve_output(cfg, args)
    kernel, k_echo = _build(cfg, "kernel", "kind", KERNEL_KINDS)
    sec = dict(cfg.get("sim") or {})
    if not sec:
        raise CliError("config needs a [sim] section with dt and horizon")
    dt = _take(sec, "sim", "dt", float)
    horizon = _take(sec, "sim", "horizon", float)
    for f in fields(SimConfig):
        sec.pop(f.name, None)
    _take_params(sec, "sim", verdict_crosscheck)  # crosscheck's tolerances, unread here
    _no_leftovers(sec, "sim")
    tsec = dict(cfg.get("test") or {})
    kw = _take_params(tsec, "test", check_hypotheses)
    _no_leftovers(tsec, "test")
    grid = solve_resolvent(kernel, dt, horizon)
    report = check_hypotheses(grid, **kw)
    row = {"atom": grid.atom, "density_at_0": float(grid.density[0]),
           "kl_residual": grid.kl_residual, **asdict(report), "passed": report.passed}
    echo = {"kernel": k_echo, "sim": {"dt": dt, "horizon": horizon},
            "test": {"tol": report.tol}, "output": out_cfg}
    _write(echo, {"resolvent": row}, [row], tuple(row.keys()), out_cfg)
    return 0


def _cmd_approx(args):
    out_cfg = _resolve_output(None, args)
    t_grid = _floats(args.t_grid)
    a_echo = {"alpha": args.alpha, "scheme": args.scheme,
              "t_grid": _float_list_echo(t_grid)}
    if args.scheme == "truncation":
        if args.T is None:
            raise CliError("--scheme truncation needs --T")
        size = a_echo["t"] = args.T
    else:
        if args.intervals is None:
            raise CliError(f"--scheme {args.scheme} needs --intervals")
        size = args.intervals
        a_echo.update({"intervals": args.intervals, "q": args.q,
                       "ratio": args.ratio, "xi1": args.xi1})
    scheme = stand_in_scheme(args.scheme, args.alpha, size,
                             q=args.q, ratio=args.ratio, xi1=args.xi1)
    kernel = scheme.kernel()
    k0, kp0 = kernel.k0_kprime0()
    a_echo["k0"] = float(k0)
    a_echo["kprime0"] = float(kp0)
    rows = _error_rows(kernel, scheme.alpha, t_grid)
    echo = {"approx": a_echo, "output": out_cfg}
    _write(echo, {"rows": rows}, rows,
           ("t", "approx", "exact", "abs_error", "rel_error"), out_cfg)
    return 0


def _cmd_simulate(args):
    cfg, out_cfg, model, kernel, echo = _setup(args)
    config, _, echo["sim"] = _sim_config(cfg)
    row = simulate(model, kernel, config).as_dict()
    _write(echo, {"report": row}, [row], tuple(row.keys()), out_cfg)
    return 0


def _cmd_crosscheck(args):
    cfg, out_cfg, model, kernel, echo = _setup(args)
    verdicts, echo["test"] = _run_verdicts(cfg, model, kernel)
    config, tols, echo["sim"] = _sim_config(cfg, for_crosscheck=True)
    report = simulate(model, kernel, config)
    result = verdict_crosscheck(verdicts, report, **tols)
    rows = [dict(check, consistent=result["consistent"]) for check in result["checks"]]
    payload = {
        "verdicts": _verdict_dicts(verdicts),
        "report": report.as_dict(),
        "crosscheck": result,
    }
    _write(echo, payload, rows,
           ("verdict", "boundary", "theorem", "observed", "tolerance", "status",
            "consistent"), out_cfg)
    return _verdict_exit_code(verdicts)


# -- parser ------------------------------------------------------------------


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default=None,
                     help="output format (overrides [output] format)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="output file (overrides [output] path; default stdout)")


def _add_config_command(subparsers, name, help_text, func):
    sub = subparsers.add_parser(name, help=help_text, description=help_text)
    sub.add_argument("--config", required=True, metavar="PATH",
                     help="INI config file")
    _add_output_flags(sub)
    sub.set_defaults(func=func)
    return sub


def build_parser():
    parser = _Parser(
        prog="volterra-feller",
        description="Boundary attainment tests for one-dimensional stochastic "
                    "Volterra equations with nonsingular kernels.",
        epilog="Exit codes: 0 decisive or informational, 2 every verdict "
               "inconclusive, 1 error.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    _add_config_command(subparsers, "test",
                        "Run the boundary test named in [test] and print verdicts.",
                        _cmd_test)
    _add_config_command(subparsers, "scale",
                        "Tabulate the scale function p and test function v on x_grid.",
                        _cmd_scale)
    _add_config_command(subparsers, "resolvent",
                        "Solve for the resolvent density and check the standing "
                        "hypotheses.", _cmd_resolvent)
    approx = subparsers.add_parser(
        "approx",
        help="Compare a fractional-kernel approximation against the exact kernel.",
        description="Compare a fractional-kernel approximation against the "
                    "exact kernel on a lag grid.  Configured entirely by flags.",
    )
    approx.add_argument("--alpha", type=float, required=True,
                        help="fractional index in (0, 1)")
    approx.add_argument("--scheme", choices=STAND_INS, default="truncation",
                        help="approximation scheme (default truncation)")
    approx.add_argument("--T", type=float, default=None,
                        help="rate-domain truncation cap (truncation scheme)")
    approx.add_argument("--intervals", type=int, default=None, metavar="N",
                        help="number of geometric quadrature intervals")
    ladder = inspect.signature(stand_in_scheme).parameters
    for name, text in (("q", "Gauss nodes per interval"), ("ratio", "geometric ladder ratio"),
                       ("xi1", "first ladder breakpoint")):
        default = ladder[name].default
        approx.add_argument(f"--{name}", type=type(default), default=default,
                            help=f"{text} (default {default})")
    approx.add_argument("--t-grid", default="0.01,0.1,1.0,10.0", metavar="LAGS",
                        help="comma-separated lags (default 0.01,0.1,1.0,10.0)")
    _add_output_flags(approx)
    approx.set_defaults(func=_cmd_approx)
    _add_config_command(subparsers, "simulate",
                        "Simulate paths and report boundary-hit statistics.",
                        _cmd_simulate)
    _add_config_command(subparsers, "crosscheck",
                        "Run the configured test, simulate, and compare the two.",
                        _cmd_crosscheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        details = ", ".join(f"{key}={value}" for key, value in exc.details.items())
        print(f"error: {exc} ({details})" if details else f"error: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
