"""Workload definitions: seeded inputs, operations and their oracles.

Each workload is a fixed batch of operations built from the seed.  An
operation is one call a user would make (a verdict, a limit, a table, a
simulation, a CLI run); its oracle checks the returned value against
closed forms or inequalities that do not go through the library's own
numerics.  Library entry points are looked up on the modules at call
time, so a traced run sees every call through the wrappers.
"""

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
from scipy import integrate

import volterra_feller as vf
import volterra_feller.cli  # noqa: F401  (the CLI is not imported by the package)

# The scale layer splits a leg at the base point c with two outward_edges
# parts; for a custom model one part's edge x - (x - c) can round to just
# below c, and the sliver panel then trips this assertion.  Operations on
# custom models may fail this way; they are counted as failures, never
# dropped or re-drawn.
KNOWN_DEFECT = "exponent batch must lie on one side of c"


class OracleError(Exception):
    pass


class Op:
    """One operation: ``run()`` is timed, ``check(result)`` is not."""

    def __init__(self, op_id, run, check, custom=False):
        self.id = op_id
        self.run = run
        self.check = check
        self.custom = custom  # may hit KNOWN_DEFECT


def is_known_defect(op, exc):
    return op.custom and isinstance(exc, AssertionError) and KNOWN_DEFECT in str(exc)


def _expect(ok, msg):
    if not ok:
        raise OracleError(msg)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = sys.modules["volterra_feller.cli"].main(argv)
    return rc, out.getvalue()


def _near(rng, centre, rel=0.05):
    """A draw within rel of centre.

    Every input is drawn this way around a centre fixed per operation: the
    seed changes the inputs, but each operation keeps its code path and
    nearly its cost, so runs of different seeds measure the same work.
    The centres of one kind of operation are spread over the range it
    covers, so a pass still sees varied inputs.
    """
    return float(centre * rng.uniform(1.0 - rel, 1.0 + rel))


def _write_ini(path, sections):
    with open(path, "w") as fh:
        for name, body in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in body.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")
    return path


# -- oracles shared by workloads ---------------------------------------------


def _claims(pairs):
    """{(side, 'no_exit'|'exit')} from (boundary, verdict) name pairs."""
    out = set()
    for boundary, verdict in pairs:
        sides = ("Left", "Right") if boundary == "Both" else (boundary,)
        if verdict in ("NoExitAS", "SupBoundedAS", "InfBoundedAS"):
            out.update((s, "no_exit") for s in sides)
        elif verdict == "ExitsWithPositiveProb":
            out.update((s, "exit") for s in sides)
    return out


def _pairs(verdicts):
    return [(bv.boundary.value, bv.verdict.value) for bv in verdicts]


def _no_contradiction(got_pairs, reference_pairs, what):
    got, ref = _claims(got_pairs), _claims(reference_pairs)
    for side, kind in got:
        other = "exit" if kind == "no_exit" else "no_exit"
        _expect((side, other) not in ref,
                f"{what}: {kind} on {side} contradicts family_test {sorted(ref)}")


def _frac_k0(alpha, xi):
    # mass of x^-alpha dx / (Gamma(alpha) Gamma(1-alpha)) on [0, xi]
    return xi ** (1.0 - alpha) / (math.gamma(alpha) * math.gamma(2.0 - alpha))


def _frac_kp0(alpha, xi):
    # minus the first moment of the same measure
    return -(xi ** (2.0 - alpha)) / ((2.0 - alpha) * math.gamma(alpha) * math.gamma(1.0 - alpha))


def _cir_exponent(model, k0, kp0, x):
    # E(x) = -2 int_c^x b~/sigma~^2 for b~ = K0 b + (K0'/K0) y, sigma~ = K0 sigma
    cc = 2.0 / (k0 * model.sigma) ** 2
    c = model.x0
    return -cc * (k0 * model.kappa * model.theta * math.log(x / c)
                  + (kp0 / k0 - k0 * model.kappa) * (x - c))


def _jacobi_exponent(model, k0, kp0, x):
    a, b, c = model.a, model.b, model.x0
    cc = 2.0 / (k0 * model.sigma) ** 2 / (b - a)
    rat = kp0 / k0
    # b~(y) / ((y-a)(b-y)) split into partial fractions
    ca = k0 * model.kappa * (model.theta - a) + rat * a
    cb = k0 * model.kappa * (model.theta - b) + rat * b
    return -cc * (ca * math.log((x - a) / (c - a)) - cb * math.log((b - x) / (b - c)))


def _p_oracle(exponent, c, x):
    val, _ = integrate.quad(lambda y: math.exp(exponent(y)), c, x,
                            epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def _check_scale_rows(rows, exponent, c):
    for x, p, v, u in rows:
        want = _p_oracle(exponent, c, x)
        _expect(abs(p - want) <= 1e-6 * abs(want), f"p({x:.6g}) = {p!r}, quad {want!r}")
        _expect(v >= 0.0, f"v({x:.6g}) = {v!r} < 0")
        if u is not None:
            slack = 1e-9 * max(1.0, u)
            _expect(1.0 + v <= u + slack and math.log(u) <= v + 1e-9,
                    f"sandwich 1 + v <= u <= e^v fails at {x:.6g}: v={v!r} u={u!r}")
    for side in (lambda x: x < c, lambda x: x > c):
        vs = [v for x, _, v, _ in sorted(rows, key=lambda r: abs(r[0] - c)) if side(x)]
        _expect(all(b >= a for a, b in zip(vs, vs[1:])), "v not growing away from c")


# -- limits --------------------------------------------------------------------


def _limits(rng, workdir):
    flat = vf.ConstantKernel(1.0)
    sloped = vf.SumOfExponentialsKernel([1.0], [1.0])
    ops = []

    # sampled limits at exponents outside [0.85, 1.2], as in acceptance 06;
    # 20 sampling steps, where acceptance 06 takes 40, keep the batch short
    for family in ("cir", "jacobi"):
        for want, e_mid in (("finite", 0.55), ("divergent", 1.8)):
            e = _near(rng, e_mid)
            if family == "cir":
                kappa, sigma = _near(rng, 1.2), _near(rng, 1.0)
                theta = e * sigma**2 / (2.0 * kappa)
                model = vf.CIRModel(kappa, theta, sigma, max(0.3, theta))
            else:
                kappa, sigma = _near(rng, 1.5), _near(rng, 0.55)
                theta = e * sigma**2 / (2.0 * kappa)
                model = vf.JacobiModel(0.0, 1.0, kappa, theta, sigma, 0.5)
            ctx = vf.ScaleContext(model, flat)

            def check(lim, want=want, e=e):
                _expect(lim.kind == want, f"exponent {e:.4f}: sampled {lim.kind}, closed {want}")

            ops.append(Op(f"sampled_{family}_{want}",
                          lambda ctx=ctx: ctx.boundary_limit("left", "v", method="sample",
                                                             steps=20), check))

    def verdict_op(op_id, test, ctx, ref, custom=False):
        def check(bv):
            _no_contradiction(_pairs([bv]), ref, op_id)

        return Op(op_id, lambda: getattr(vf, test)(ctx), check, custom)

    # each operation keeps one regime (finite or divergent limit) on every
    # seed
    def cir_model(e_mid, x0=None):
        e = _near(rng, e_mid)
        kappa, sigma = _near(rng, 1.0), _near(rng, 1.0)
        theta = e * sigma**2 / (2.0 * kappa)
        if x0 is None:
            # the necessary test's shifted exponent for K(t) = e^-t,
            # 2 (kappa theta + x0) / sigma^2, drawn in [0.8, 0.9]: finite,
            # and close enough to 1 that the boundary value needs the
            # deepest panel round
            x0 = (_near(rng, 0.85) - e) * sigma**2 / 2.0
        return vf.CIRModel(kappa, theta, sigma, x0)

    # a necessary and a sufficient verdict for one model and kernel
    def verdict_pair(op_id, ctx, ref):
        def check(pair):
            _no_contradiction(_pairs(pair), ref, op_id)

        return Op(op_id, lambda: (vf.necessary_test(ctx), vf.sufficient_test(ctx)), check)

    # one finite-limit model and twelve divergent ones.  A divergent
    # verdict takes about a tenth of a second on every seed, while the cost
    # of a sampled limit jumps with the exponent; with two thirds of the
    # batch cheap, op_p50_s is a cheap verdict and op_tail_s a costly one.
    models = [("finite", cir_model(0.4))] + [
        (f"divergent{i}", cir_model(e, _near(rng, 0.85)))
        for i, e in enumerate(np.linspace(1.4, 2.4, 12))
    ]
    for regime, cir in models:
        for kname, kernel in (("flat", flat), ("exp", sloped)):
            ops.append(verdict_pair(f"cir_{regime}_verdicts_{kname}", vf.ScaleContext(cir, kernel),
                                    _pairs(vf.family_test(cir, kernel))))

    # Base points of the custom models below are fixed round numbers, not
    # drawn: whether the known defect trips depends on how the base point
    # rounds, so a fixed one fails or passes the same way on every seed and
    # the batch costs the same.  The other parameters are drawn.

    # custom clone of a Jacobi model; bounded_interval_test needs K'(0) = 0
    # here because 1/sigma^2 is not integrable at the endpoints
    jac = vf.JacobiModel(0.0, 1.0, _near(rng, 1.75), _near(rng, 0.5), _near(rng, 0.5), 0.5)
    jclone = vf.CustomModel(lambda x, m=jac: m.kappa * (m.theta - x),
                            lambda x, m=jac: m.sigma * np.sqrt((x - m.a) * (m.b - x)),
                            (jac.a, jac.b), jac.x0)
    ops.append(verdict_op("jacobi_clone_bounded_flat", "bounded_interval_test",
                          vf.ScaleContext(jclone, flat), _pairs(vf.family_test(jac, flat)), True))
    ops.append(verdict_op("jacobi_clone_sufficient_exp", "sufficient_test",
                          vf.ScaleContext(jclone, sloped), _pairs(vf.family_test(jac, sloped)),
                          True))

    # bounded interval, constant drift and volatility: both endpoints are
    # regular, so exit through either has positive probability
    mu, sig = _near(rng, 0.25), _near(rng, 1.0)
    flat_sigma = vf.CustomModel(lambda x: np.full_like(x, mu), lambda x: np.full_like(x, sig),
                                (0.0, 1.0), 0.5)
    both_exit = [("Both", "ExitsWithPositiveProb")]

    def check_exits(bv):
        _expect((bv.boundary.value, bv.verdict.value) == both_exit[0],
                f"constant-sigma bounded: {bv.verdict.value} on {bv.boundary.value}")

    ops.append(Op("const_sigma_bounded_exp",
                  lambda ctx=vf.ScaleContext(flat_sigma, sloped): vf.bounded_interval_test(ctx),
                  check_exits, True))
    ops.append(verdict_op("const_sigma_sufficient_flat", "sufficient_test",
                          vf.ScaleContext(flat_sigma, flat), both_exit, True))

    # custom clones of one CIR model (infinite right boundary), based at
    # fixed points c
    ccir = cir_model(0.5, 1.0)

    def cir_clone(c):
        return vf.CustomModel(lambda x: ccir.kappa * (ccir.theta - x),
                              lambda x: ccir.sigma * np.sqrt(x), (0.0, math.inf), float(c))

    ref = _pairs(vf.family_test(ccir, flat))
    ops.append(verdict_op("cir_clone_necessary", "necessary_test",
                          vf.ScaleContext(cir_clone(0.5), flat), ref, True))
    # one table of right limits over ten base points; some of them trip the
    # defect, so it shows on every seed
    sweep = [vf.ScaleContext(cir_clone(c), flat) for c in np.linspace(0.3, 1.9, 10)]

    def right_limits():
        # the sweep runs to the end and then raises the first failure, so
        # it does the same work wherever the defect trips
        lims, first_error = [], None
        for ctx in sweep:
            try:
                lims.append(ctx.boundary_limit("right"))
            except AssertionError as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
        return lims

    def check_right(lims):
        # p' grows like exp(2 kappa x / sigma^2), so v diverges at +inf
        _expect(all(lim.kind == "divergent" for lim in lims),
                f"right limits of the CIR clone: {[lim.kind for lim in lims]}")

    ops.append(Op("cir_clone_right_limits", right_limits, check_right, True))

    cli_model = cir_model(1.9, _near(rng, 0.85))
    path = _write_ini(os.path.join(workdir, "test_sufficient.ini"), {
        "model": {"family": "cir", "kappa": cli_model.kappa, "theta": cli_model.theta,
                  "sigma": cli_model.sigma, "x0": cli_model.x0},
        "kernel": {"kind": "sumexp", "weights": "1.0", "rates": "1.0"},
        "test": {"name": "sufficient"},
    })
    ref = _pairs(vf.family_test(cli_model, sloped))

    def check_cli(out):
        rc, text = out
        _expect(rc in (0, 2), f"cli test exit code {rc}")
        doc = json.loads(text)
        _no_contradiction([(v["boundary"], v["verdict"]) for v in doc["verdicts"]], ref, "cli test")

    ops.append(Op("cli_test_sufficient", lambda: _cli(["test", "--config", path]), check_cli))
    return ops, {}


# -- qualify -------------------------------------------------------------------


def _qualification_op(op_id, make_kernel, alpha, k0, kp0, t_grid, models, is_truncation):
    """Qualify one kernel: resolvent and hypotheses, error table, verdicts.

    The grid step comes from the kernel's own time scale K(0)/|K'(0)|; a
    fixed step would make stiff stand-ins fail the residual bound for the
    workload's sake, not the library's.
    """
    dt = k0 / abs(kp0) / 10.0
    cir, jac, power = models

    def run():
        kernel, table = make_kernel()
        grid = vf.solve_resolvent(kernel, dt, 1000 * dt)
        report = vf.check_hypotheses(grid)
        rows = vf.approximation_error(table, t_grid)
        verdicts = [vf.family_test(m, kernel) for m in models]
        return kernel, grid, report, rows, verdicts

    def check(out):
        kernel, grid, report, rows, verdicts = out
        _expect(grid.kl_residual <= 10.0 * dt, f"residual {grid.kl_residual:.3e} > 10 dt")
        _expect(abs(grid.atom * k0 - 1.0) <= 1e-10, f"atom {grid.atom!r} != 1/K(0)")
        _expect(report.passed, "completely monotone kernel failed the hypothesis check")
        if is_truncation:
            at0 = kernel.eval(0.0)
            _expect(abs(at0 - k0) <= 1e-10 * k0, f"K(0) {at0!r}, closed form {k0!r}")
        else:
            _expect(abs(sum(kernel.weights) - k0) <= 1e-10 * k0, "Gauss mass identity")
            first = sum(w * r for w, r in zip(kernel.weights, kernel.rates))
            _expect(abs(first + kp0) <= 1e-10 * abs(kp0), "Gauss first-moment identity")
        for row in rows:
            exact = row["t"] ** (alpha - 1.0) / math.gamma(alpha)
            _expect(abs(row["exact"] - exact) <= 1e-12 * exact, f"exact column at {row['t']}")
            _expect(abs(row["abs_error"] - abs(row["approx"] - exact)) <= 1e-12 * exact,
                    "abs_error column")
            # the truncated measure is a part of the full one
            _expect(row["approx"] > 0.0
                    and (not is_truncation or row["approx"] <= exact * (1.0 + 1e-9)),
                    f"stand-in kernel out of range at t={row['t']}")
        v_cir, v_jac, v_pow = (set(_pairs(v)) for v in verdicts)
        gap = 2.0 * cir.kappa * cir.theta - k0 * cir.sigma**2
        _expect((("Left", "NoExitAS") in v_cir) == (gap >= 0.0), f"cir sufficient gap {gap}")
        width = jac.b - jac.a
        gap_l = 2.0 * jac.kappa * (jac.theta - jac.a) - k0 * jac.sigma**2 * width
        gap_r = 2.0 * jac.kappa * (jac.b - jac.theta) - k0 * jac.sigma**2 * width
        _expect((("Left", "NoExitAS") in v_jac) == (gap_l >= 0.0), "jacobi left gap")
        _expect((("Right", "NoExitAS") in v_jac) == (gap_r >= 0.0), "jacobi right gap")
        blowup = power.alpha > 1.0 + power.delta
        _expect((("Right", "ExitsWithPositiveProb") in v_pow) == blowup, "power blow-up")

    return Op(op_id, run, check)


def _qualify(rng, workdir):
    ops = []
    flat = vf.ConstantKernel(1.0)
    sloped = vf.SumOfExponentialsKernel([1.0], [1.0])
    t_grid = np.geomspace(0.01, 10.0, 16)
    cir = vf.CIRModel(_near(rng, 1.2), _near(rng, 0.6), _near(rng, 0.85), _near(rng, 0.8))
    jac = vf.JacobiModel(0.0, 1.0, _near(rng, 1.5), _near(rng, 0.5), _near(rng, 0.55),
                         _near(rng, 0.5))
    power = vf.PowerModel(_near(rng, 1.6), _near(rng, 0.45), _near(rng, 1.0), _near(rng, 0.5))
    models = (cir, jac, power)

    for i, (a_mid, cap_mid) in enumerate(((0.45, 8.0), (0.5, 8.0), (0.55, 8.0))):
        alpha, cap = _near(rng, a_mid), _near(rng, cap_mid)
        scheme = vf.TruncationScheme(alpha, cap)
        ops.append(_qualification_op(
            f"qualify_truncfrac_{i}", lambda s=scheme: (vf.truncation_kernel(s), s), alpha,
            _frac_k0(alpha, cap), _frac_kp0(alpha, cap), t_grid, models, True))
    # three-interval ladders: on four intervals with alpha near 0.3 the
    # resolvent residual exceeds 10 dt at every step size (about 14 dt)
    for i, (q, a_mid) in enumerate(((2, 0.4), (3, 0.6))):
        alpha = _near(rng, a_mid)
        scheme = vf.QuadratureScheme(alpha, vf.geometric_nodes(3, ratio=6.4), q=q)
        xi = scheme.nodes[-1]
        ops.append(_qualification_op(
            f"qualify_gauss_{i}", lambda s=scheme: (vf.gaussian_quadrature_kernel(s), s), alpha,
            _frac_k0(alpha, xi), _frac_kp0(alpha, xi), t_grid, models, False))

    # the threshold's direction in T is only clear-cut away from alpha = 1/2
    # and for a small kappa theta, as in acceptance 08
    study_cir = vf.CIRModel(1.0, _near(rng, 0.25), 1.0, 0.2)
    a_up, a_down, a_frac = _near(rng, 0.35), _near(rng, 0.65), _near(rng, 0.45)

    def studies():
        caps = [10.0, 100.0, 1000.0, 10000.0]
        return (vf.fractional_condition_study(study_cir, a_up, caps, scheme="truncation"),
                vf.fractional_condition_study(study_cir, a_down, caps, scheme="truncation"),
                vf.fractional_condition_study(study_cir, a_frac, [2, 3, 4], scheme="fractional",
                                              q=2))

    def check_studies(out):
        for rows, alpha, direction in zip(out[:2], (a_up, a_down), (1, -1)):
            thr = [r["necessary_threshold"] for r in rows]
            _expect(all(direction * (b - a) > 0 for a, b in zip(thr, thr[1:])),
                    f"alpha={alpha:.3f} thresholds move the wrong way: {thr}")
            for r in rows:
                _expect(abs(r["k0"] - _frac_k0(alpha, r["sweep"])) <= 1e-10 * r["k0"], "study K(0)")
        for r in out[2]:
            xi = 6.4 ** (r["sweep"] - 1)
            _expect(abs(r["k0"] - _frac_k0(a_frac, xi)) <= 1e-10 * r["k0"], "ladder K(0)")
            _expect(abs(r["kprime0"] - _frac_kp0(a_frac, xi)) <= 1e-10 * abs(r["kprime0"]),
                    "ladder K'(0)")

    ops.append(Op("studies", studies, check_studies))

    # p, v and u at interior points, one table per side of the base point
    def table(ctx, xs):
        return [(x, ctx.scale(x), ctx.v(x), ctx.u_series(x, 8)) for x in xs]

    for kname, kernel in (("flat", flat), ("exp", sloped)):
        k0, kp0 = kernel.k0_kprime0()
        for model, exponent, sides in (
            (cir, _cir_exponent, {"left": (0.3, 0.6, 0.85), "right": (1.2, 1.8, 2.5)}),
            (jac, _jacobi_exponent, {"left": (-0.8, -0.5, -0.2), "right": (0.2, 0.5, 0.8)}),
        ):
            ctx = vf.ScaleContext(model, kernel)
            for side, fracs in sides.items():
                if model is cir:
                    xs = [cir.x0 * f for f in fracs]
                else:
                    xs = [jac.x0 + f * (jac.b - jac.x0 if f > 0 else jac.x0 - jac.a)
                          for f in fracs]
                ops.append(Op(f"scale_table_{model.family}_{kname}_{side}",
                              lambda ctx=ctx, xs=xs: table(ctx, xs),
                              lambda rows, m=model, e=exponent, k0=k0, kp0=kp0: _check_scale_rows(
                                  rows, lambda y: e(m, k0, kp0, y), m.x0)))

    # zero drift, unit volatility: the series sums to cosh(sqrt(2) x)
    anchor = vf.ScaleContext(
        vf.CustomModel(lambda x: np.zeros_like(x), lambda x: np.ones_like(x),
                       (-math.inf, math.inf), 0.0), flat, c=0.0)
    anchor_xs = [0.5, 1.0, _near(rng, 1.3)]

    def check_anchor(us):
        for x, u in zip(anchor_xs, us):
            _expect(abs(u - math.cosh(math.sqrt(2.0) * x)) <= 1e-6, f"u({x:.4g}) = {u!r}")

    ops.append(Op("u_series_anchor", lambda: [anchor.u_series(x, 8) for x in anchor_xs],
                  check_anchor, True))

    # CLI: scale, resolvent, approx
    xs = [cir.x0 * f for f in (0.5, 0.9, 1.4, 2.0)]
    scale_ini = _write_ini(os.path.join(workdir, "scale.ini"), {
        "model": {"family": "cir", "kappa": cir.kappa, "theta": cir.theta, "sigma": cir.sigma,
                  "x0": cir.x0},
        "kernel": {"kind": "sumexp", "weights": "1.0", "rates": "1.0"},
        "test": {"x_grid": ", ".join(repr(x) for x in xs)},
    })

    def check_cli_scale(out):
        rc, text = out
        _expect(rc == 0, f"cli scale exit code {rc}")
        rows = [(r["x"], r["p"], r["v"], None) for r in json.loads(text)["rows"]]
        _check_scale_rows(rows, lambda y: _cir_exponent(cir, 1.0, -1.0, y), cir.x0)

    ops.append(Op("cli_scale", lambda: _cli(["scale", "--config", scale_ini]), check_cli_scale))

    w = [_near(rng, 1.0), _near(rng, 0.8)]
    r = [_near(rng, 1.0), _near(rng, 3.0)]
    res_k0 = sum(w)
    res_dt = res_k0 / sum(a * b for a, b in zip(w, r)) / 10.0
    res_ini = _write_ini(os.path.join(workdir, "resolvent.ini"), {
        "kernel": {"kind": "sumexp", "weights": ", ".join(map(repr, w)),
                   "rates": ", ".join(map(repr, r))},
        "sim": {"dt": repr(res_dt), "horizon": repr(1000 * res_dt)},
    })

    def check_cli_resolvent(out):
        rc, text = out
        _expect(rc == 0, f"cli resolvent exit code {rc}")
        row = json.loads(text)["resolvent"]
        _expect(row["kl_residual"] <= 10.0 * res_dt, "cli resolvent residual")
        _expect(abs(row["atom"] * res_k0 - 1.0) <= 1e-10, "cli resolvent atom")
        _expect(row["passed"] is True, "cli resolvent hypotheses")

    ops.append(Op("cli_resolvent", lambda: _cli(["resolvent", "--config", res_ini]),
                  check_cli_resolvent))

    a_cli = _near(rng, 0.55)
    lags = ",".join(repr(float(t)) for t in np.geomspace(0.01, 10.0, 8))

    def check_cli_approx(out):
        rc, text = out
        _expect(rc == 0, f"cli approx exit code {rc}")
        doc = json.loads(text)
        want = _frac_k0(a_cli, 6.4 ** 3)
        _expect(abs(doc["config"]["approx"]["k0"] - want) <= 1e-10 * want, "cli approx K(0)")
        for row in doc["rows"]:
            exact = row["t"] ** (a_cli - 1.0) / math.gamma(a_cli)
            _expect(abs(row["exact"] - exact) <= 1e-12 * exact, "cli approx exact column")

    ops.append(Op("cli_approx", lambda: _cli(["approx", "--alpha", repr(a_cli), "--scheme",
                                              "fractional", "--intervals", "4", "--q", "3",
                                              "--t-grid", lags]), check_cli_approx))
    return ops, {}


# -- montecarlo ------------------------------------------------------------------


def _montecarlo(rng, workdir):
    flat = vf.ConstantKernel(1.0)
    ops = []
    blocks = {}
    steps = []

    def case(case_id, model, kernel, dt, horizon, n_paths, scheme="conv_euler", history=False):
        config = vf.SimConfig(dt=dt, horizon=horizon, n_paths=n_paths, scheme=scheme,
                              seed=int(rng.integers(0, 2**31)))
        rows = min(n_paths, 512)
        # noise block of one thread, plus the B history of general kernels
        blocks[case_id] = rows * config.n_steps * 8 * (2 if history else 1)
        steps.append(n_paths * config.n_steps)
        l, r = model.interval

        def run():
            verdicts = vf.family_test(model, kernel)
            report = vf.simulate(model, kernel, config)
            return report, vf.verdict_crosscheck(verdicts, report)

        def check(out):
            report, result = out
            _expect(result["consistent"], f"crosscheck inconsistent: {result['checks']}")
            if model.family in ("cir", "jacobi"):
                _expect(math.isfinite(r) or report.n_hit_right == 0, "hit at +inf")
                _expect(math.isfinite(l) or report.n_hit_left == 0, "hit at -inf")

        ops.append(Op(case_id, run, check))

    def cir(theta_mid, x0):
        return vf.CIRModel(1.0, _near(rng, theta_mid), 1.0, x0)

    # one acceptance-09 sized noise block, 512 paths x 20000 steps, and
    # three of 512 x 5000.  The three make the slowest group of a pass after
    # it, so from three passes on the eleventh slowest latency, op_tail_s,
    # is one of them.  Survivor cases keep 2 kappa theta / (K(0) sigma^2)
    # >= 2: nearer the threshold 1 the Euler scheme leaks past the
    # crosscheck's 2% allowance (3.3% of 512 paths at theta = 0.8 here, 0.2%
    # at theta = 1)
    case("cir_flat_survive_a09", cir(1.15, 0.2), flat, 2.5e-4, 5.0, 512)
    case("cir_flat_hit_long", cir(0.125, 0.2), flat, 1e-3, 5.0, 512)
    for name, theta in (("jacobi_flat_long", 0.5), ("jacobi_flat_skew_long", 0.3)):
        case(name, vf.JacobiModel(0.0, 1.0, _near(rng, 2.0), _near(rng, theta), _near(rng, 0.4),
                                  0.5), flat, 1e-3, 5.0, 512)
    # two blocks, so the thread pool runs
    case("cir_flat_hit", cir(0.125, 0.2), flat, 2e-3, 2.0, 1024)
    two_exp = vf.SumOfExponentialsKernel([_near(rng, 0.75), 0.5], [_near(rng, 1.25), 4.0])
    case("cir_sumexp_survive", cir(1.75, 0.5), two_exp, 1e-3, 2.0, 256)
    case("cir_sumexp_hit", cir(0.075, 0.05), two_exp, 1e-3, 2.0, 256)
    jac = vf.JacobiModel(0.0, 1.0, _near(rng, 2.0), _near(rng, 0.5), _near(rng, 0.4), 0.5)
    case("jacobi_sumexp", jac, vf.SumOfExponentialsKernel([1.0], [1.0]), 1e-3, 2.0, 256)
    gauss = vf.gaussian_quadrature_kernel(
        vf.QuadratureScheme(_near(rng, 0.5), vf.geometric_nodes(3, ratio=6.4), q=2))
    case("cir_lift_gauss", cir(0.035, 0.05), gauss, 1e-3, 2.0, 256, scheme="markov_lift")
    case("cir_truncfrac_history", cir(1.75, 0.5),
         vf.TruncatedFractionalKernel(_near(rng, 0.5), _near(rng, 3.5)), 5e-3, 4.0, 128,
         history=True)
    blowup = vf.PowerModel(_near(rng, 1.8), _near(rng, 0.15), 0.5, 1.0)
    case("power_blowup", blowup, flat, 1e-3, 3.0, 256)
    case("power_short", blowup, flat, 1e-3, 0.2, 256)

    model = cir(1.35, 0.3)
    ini = _write_ini(os.path.join(workdir, "crosscheck.ini"), {
        "model": {"family": "cir", "kappa": model.kappa, "theta": model.theta,
                  "sigma": model.sigma, "x0": model.x0},
        "kernel": {"kind": "constant", "level": 1.0},
        "test": {"name": "family"},
        "sim": {"dt": 2e-3, "horizon": 2.0, "n_paths": 256, "seed": int(rng.integers(0, 2**31))},
    })

    def check_cli(out):
        rc, text = out
        _expect(rc == 0, f"cli crosscheck exit code {rc}")
        doc = json.loads(text)
        _expect(doc["crosscheck"]["consistent"] is True, "cli crosscheck inconsistent")
        _expect(doc["report"]["n_hit_right"] == 0, "cli crosscheck hit at +inf")

    ops.append(Op("cli_crosscheck", lambda: _cli(["crosscheck", "--config", ini]), check_cli))
    blocks["cli_crosscheck"] = 256 * 1000 * 8
    steps.append(256 * 1000)
    return ops, {"noise_block_bytes": blocks, "path_steps_per_pass": sum(steps)}


WORKLOADS = {"limits": _limits, "qualify": _qualify, "montecarlo": _montecarlo}


def build(name, seed, workdir):
    """Operations and extra facts for one workload; inputs depend on seed only."""
    index = sorted(WORKLOADS).index(name)
    # seed sequences take nonnegative entropy only
    rng = np.random.default_rng([seed, index] if seed >= 0 else [-seed, index, 1])
    return WORKLOADS[name](rng, workdir)
