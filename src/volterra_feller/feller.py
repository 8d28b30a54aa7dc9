"""Boundary attainment verdicts for stochastic Volterra equations.

Each test turns scale/test-function limits (from :mod:`.scale`) into a
``BoundaryVerdict``.  The verdict vocabulary:

* ``NoExitAS``: the process a.s. never exits through the stated boundary
  (through either one, when the boundary is ``Both``).
* ``ExitsWithPositiveProb``: exit through the stated boundary happens with
  positive probability.
* ``NecessaryHolds``: the divergence condition that no-exit forces is
  satisfied, which by itself decides nothing.
* ``SupBoundedAS`` / ``InfBoundedAS``: the running supremum (infimum) stays
  a.s. below (above) the stated boundary.
* ``Inconclusive``: the computed limits do not decide, or a strong verdict
  was withheld because the standing hypotheses were not certified.

The strong verdicts (everything except ``NecessaryHolds`` and
``Inconclusive``) are only valid under the standing hypotheses on the kernel:
nonnegative resolvent density and a nonpositive, nondecreasing K' * L.  The
tests certify them in one of two ways: the kernel declares itself completely
monotone, or the caller passes a ``HypothesisReport`` from
:func:`.resolvent.check_hypotheses` that passed.  Without either, a strong
verdict is downgraded to ``Inconclusive`` and the raw limit data stays in
``evidence``; the downgrade is visible as ``hypotheses_unverified`` in
``assumptions_checked``.

Evidence entries are (quantity, value, threshold) triples: the quantity name,
its computed value, and the value it was compared against.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NumericError, PreconditionError, check_count, check_real, check_reals
from .fracapprox import STAND_INS, stand_in_scheme
from .scale import DIVERGENCE_CAP, _exp, kernel_scalars

__all__ = [
    "Boundary",
    "Verdict",
    "BoundaryVerdict",
    "necessary_test",
    "sufficient_test",
    "bounded_interval_test",
    "sup_inf_test",
    "family_test",
    "fractional_condition_study",
]


class Boundary(str, Enum):
    LEFT = "Left"
    RIGHT = "Right"
    BOTH = "Both"


class Verdict(str, Enum):
    NO_EXIT_AS = "NoExitAS"
    EXITS_WITH_POSITIVE_PROB = "ExitsWithPositiveProb"
    NECESSARY_HOLDS = "NecessaryHolds"
    SUP_BOUNDED_AS = "SupBoundedAS"
    INF_BOUNDED_AS = "InfBoundedAS"
    INCONCLUSIVE = "Inconclusive"


_STRONG = frozenset(
    {
        Verdict.NO_EXIT_AS,
        Verdict.EXITS_WITH_POSITIVE_PROB,
        Verdict.SUP_BOUNDED_AS,
        Verdict.INF_BOUNDED_AS,
    }
)


@dataclass(frozen=True)
class BoundaryVerdict:
    """One conclusion about one boundary (or both at once).

    theorem names the rule that produced the verdict; evidence holds the
    (quantity, value, threshold) triples backing it; assumptions_checked
    records which hypothesis certificates were available.
    """

    boundary: Boundary
    verdict: Verdict
    theorem: str
    evidence: tuple
    assumptions_checked: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        object.__setattr__(self, "verdict", Verdict(self.verdict))
        object.__setattr__(self, "evidence", tuple(tuple(e) for e in self.evidence))
        object.__setattr__(self, "assumptions_checked", tuple(self.assumptions_checked))


# -- hypothesis gating -------------------------------------------------------


def _hypothesis_flags(kernel, hypotheses):
    flags = []
    if getattr(kernel, "completely_monotone", False):
        flags.append("kernel_completely_monotone")
    if hypotheses is not None:
        flags.append("resolvent_check_passed" if hypotheses.passed else "resolvent_check_failed")
    return tuple(flags)


def _certified(flags):
    return "kernel_completely_monotone" in flags or "resolvent_check_passed" in flags


def _finish(boundary, verdict, theorem, evidence, flags):
    # strong conclusions require a hypothesis certificate; everything else
    # passes through untouched
    verdict = Verdict(verdict)
    assumptions = flags
    if verdict in _STRONG and not _certified(flags):
        verdict = Verdict.INCONCLUSIVE
        assumptions = flags + ("hypotheses_unverified",)
    return BoundaryVerdict(boundary, verdict, theorem, tuple(evidence), assumptions)


def _on_sides(sides, verdict, theorem, evidence, flags):
    """Conclude ``verdict`` on the sides ("left", "right") where it holds.

    Both sides give ``Both``; no side gives ``Inconclusive`` on ``Both``.
    """
    if len(sides) == 1:
        return _finish(Boundary(sides[0].title()), verdict, theorem, evidence, flags)
    verdict = verdict if sides else Verdict.INCONCLUSIVE
    return _finish(Boundary.BOTH, verdict, theorem, evidence, flags)


def _limit_triple(name, lim):
    """Collapse a LimitResult into an evidence triple."""
    if "exponent" in lim.evidence:
        return (name + " divergence exponent (divergent iff >= 1)",
                float(lim.evidence["exponent"]), 1.0)
    if lim.kind == "divergent":
        return (name, math.inf, DIVERGENCE_CAP)
    value = lim.value if lim.value is not None else math.nan
    return (name, float(value), DIVERGENCE_CAP)


def _limit_pair(ctx, beta, gamma, target, names):
    """Both boundary limits of ``target`` ("v", or "p" for |p|) under the
    shifts (beta, gamma), and their evidence triples under ``names``."""
    shifted = ctx.with_shifts(beta, gamma)
    lims = [shifted.boundary_limit(which, target=target) for which in ("left", "right")]
    return lims, [_limit_triple(name, lim) for name, lim in zip(names, lims)]


def _pair_verdict(lims, verdict, theorem, evidence, flags):
    """``verdict`` on ``Both`` when both limits diverge; otherwise exit with
    positive probability through each side whose limit is finite."""
    if all(lim.kind == "divergent" for lim in lims):
        return _finish(Boundary.BOTH, verdict, theorem, evidence, flags)
    finite_sides = [side for side, lim in zip(("left", "right"), lims) if lim.kind == "finite"]
    return _on_sides(finite_sides, Verdict.EXITS_WITH_POSITIVE_PROB, theorem, evidence, flags)


def _interval_span(model):
    l, r = model.interval
    if math.isfinite(l) and math.isfinite(r):
        return r - l
    return max(1.0, abs(model.x0))


# -- generic tests -----------------------------------------------------------


def necessary_test(ctx, eps_shift=None, hypotheses=None):
    """Check the divergence condition that almost-sure no-exit forces.

    No exit through the left boundary requires the shifted test function
    v_c( . ; -beta) to diverge there for every beta > x0, and symmetrically
    on the right with gamma < x0.  Both limits are evaluated at the nearly
    optimal shifts beta = x0 + eps_shift and gamma = x0 - eps_shift; the
    shifted v is monotone in the shift, so divergence at these shifts covers
    all more extreme ones up to the eps_shift margin.

    A finite limit refutes the necessary condition: exit through that
    boundary has positive probability (hypotheses permitting).  Divergence on
    both sides yields ``NecessaryHolds``, which decides nothing by itself.
    """
    model = ctx.model
    if eps_shift is None:
        eps_shift = 1e-6 * _interval_span(model)
    check_real("eps_shift", eps_shift, gt=0.0)
    x0 = model.x0
    lims, evidence = _limit_pair(ctx, -(x0 + eps_shift), -(x0 - eps_shift), "v",
                                 ("v(left+) with shift -(x0+eps)",
                                  "v(right-) with shift -(x0-eps)"))
    evidence.append(("eps_shift", float(eps_shift), 0.0))
    return _pair_verdict(lims, Verdict.NECESSARY_HOLDS, "shifted-necessary-limit", evidence,
                         _hypothesis_flags(ctx.kernel, hypotheses))


def _staged_side(ctx, which, n_stages):
    """Evaluate v at base points marching to one boundary, with matched shifts.

    Stage n sits at x_n (geometric approach for finite boundaries, c -+ 2^n
    for infinite ones) and uses the drift shift -x_n.  Sustained, unbounded
    growth of v across stages is the sufficient condition for no exit through
    that boundary.  Every stage is a leg of one batch of sweeps, whose values
    are read in stage order up to the first that did not stabilize or after
    two infinite ones in a row; v is 0 at a stage point that rounds onto c.
    """
    points = ctx._approach(which, n_stages, "n_stages")
    legs = [(ctx.with_shifts(-x, -x), [x]) for x in points if x != ctx.c]
    swept = iter(ctx._stabilized_legs(legs, "log_v"))
    vals, evidence, inf_streak = [], [], 0
    for x_n in points:
        out = next(swept) if x_n != ctx.c else None
        if isinstance(out, NumericError):
            break
        val = 0.0 if out is None else _exp(float(out[0].log_v[0]))
        vals.append(val)
        evidence.append((f"v at stage point {x_n:.6g} with shift {-x_n:.6g}", val,
                         DIVERGENCE_CAP))
        inf_streak = inf_streak + 1 if math.isinf(val) else 0
        if inf_streak >= 2:
            break
    if len(vals) < 2:
        return False, evidence
    grows = all(b >= a * (1.0 - 1e-9) for a, b in zip(vals, vals[1:]))
    return grows and vals[-1] >= DIVERGENCE_CAP, evidence


def _sufficient_side(ctx, which, n_stages):
    l, r = ctx.model.interval
    boundary = l if which == "left" else r
    evidence = []
    if math.isfinite(boundary):
        # shortcut: divergence of v with the boundary itself as shift already
        # implies the staged condition
        shifted = ctx.with_shifts(-boundary, -boundary)
        lim = shifted.boundary_limit(which, target="v")
        label = f"v({which}) with boundary shift {-boundary + 0.0:.6g}"  # 0, not -0, at 0
        evidence.append(_limit_triple(label, lim))
        if lim.kind == "divergent":
            return True, evidence
    if ctx.kprime0 == 0.0:
        # the shifts drop out, so every stage is v_c itself and the stages
        # grow without bound iff v_c diverges at the boundary (Feller's test)
        ctx._approach(which, n_stages, "n_stages")  # n_stages is checked as the stages would
        if math.isfinite(boundary):
            return False, evidence  # the limit above was not divergent
        if hasattr(ctx.model, "limit_rule"):
            lim = ctx.boundary_limit(which, target="v")
            return lim.kind == "divergent", [_limit_triple(f"v({which})", lim)]
        # a custom model's infinite end has no endpoint rule yet: the stages run
    staged_ok, staged_ev = _staged_side(ctx, which, n_stages)
    return staged_ok, evidence + staged_ev


def sufficient_test(ctx, n_stages=8, hypotheses=None):
    """Check the staged divergence condition that guarantees no exit.

    If v evaluated at base points x_n marching to a boundary, with drift
    shifts -x_n, grows without bound, the process a.s. never exits through
    that boundary.  Finite boundaries first try the stronger one-shot
    divergence of v under the boundary shift.  Divergence on both sides rules
    out exit entirely.

    At K'(0) = 0 the shifts drop out and every stage is the same v_c, so the
    condition is v's endpoint limit (Feller's test): the one-shot limit at a
    finite end, and the model's closed ``limit_rule`` at an infinite one.
    Only a custom model's infinite ends still run the stages.
    """
    n_stages = check_count("n_stages", n_stages, 2)
    left_ok, ev_left = _sufficient_side(ctx, "left", n_stages)
    right_ok, ev_right = _sufficient_side(ctx, "right", n_stages)
    flags = _hypothesis_flags(ctx.kernel, hypotheses)
    sides = [k for k, ok in (("left", left_ok), ("right", right_ok)) if ok]
    return _on_sides(sides, Verdict.NO_EXIT_AS, "staged-sufficient-divergence",
                     ev_left + ev_right, flags)


def bounded_interval_test(ctx, hypotheses=None):
    """Two-sided equivalence test on a bounded state interval.

    When the interval is bounded and 1/sigma~^2 is integrable across it, the
    shift terms drop out of the limits and divergence of v at a boundary is
    equivalent to no exit through it: both divergent means no exit at all,
    while a finite limit means exit through that boundary with positive
    probability.  A kernel with K'(0) = 0 makes the shifts vanish identically,
    so the integrability precondition is waived in that case.

    1/sigma~^2 is integrable at an endpoint once its exponent, fitted on end
    panels as deep as floats resolve there, exceeds -1 by more than twice its
    change from panels half as deep in log (and 1e-9); a log factor, whose
    change halves as the depth doubles, never passes.  Each endpoint adds its
    (name, exponent, bound) triple to the evidence.

    Raises ``PreconditionError`` on unbounded intervals and, with
    K'(0) < 0, on 1/sigma~^2 not shown integrable, naming exponent and bound.
    """
    l, r = ctx.model.interval
    if not (math.isfinite(l) and math.isfinite(r)):
        raise PreconditionError(
            f"bounded_interval_test needs a bounded interval, got ({l}, {r})"
        )
    evidence = [("K'(0)", 0.0, 0.0)] if ctx.kprime0 == 0.0 else []
    for s in (l, r) if ctx.kprime0 < 0.0 else ():
        beta, bound = ctx._sigma_inv_sq_fit(s)
        if not beta > bound:
            raise PreconditionError(
                f"1/sigma~^2 is not shown integrable at {s:.6g}: fitted exponent {beta:.12g} "
                f"<= bound {bound:.12g}; the equivalence needs it when K'(0) < 0")
        evidence.append((f"1/sigma~^2 fitted exponent at {s + 0.0:.6g} (integrable if above)",
                         beta, bound))
    lims, triples = _limit_pair(ctx, 0.0, 0.0, "v", ("v(left+)", "v(right-)"))
    return _pair_verdict(lims, Verdict.NO_EXIT_AS, "bounded-interval-equivalence",
                         evidence + triples, _hypothesis_flags(ctx.kernel, hypotheses))


def sup_inf_test(ctx, hypotheses=None):
    """Scale-function test for an a.s. bounded running supremum or infimum.

    The supremum stays below a finite right boundary r when, under the drift
    shift -r, the scale function is finite at the left boundary and divergent
    at the right one; the infimum version mirrors this with shift -l.  Each
    side needs its boundary finite, except that K'(0) = 0 removes the shift
    terms and lets an infinite boundary through with shift 0.

    Raises ``PreconditionError`` when neither side is testable.
    """
    l, r = ctx.model.interval
    classical = ctx.kprime0 == 0.0
    if not (math.isfinite(l) or math.isfinite(r) or classical):
        raise PreconditionError(
            "sup_inf_test needs a finite boundary on the tested side "
            "(or K'(0) = 0)"
        )
    evidence = []
    held = []
    for bound, kinds, conclusion in (
        (r, ("finite", "divergent"),
         (Boundary.RIGHT, Verdict.SUP_BOUNDED_AS, "scale-function-sup-bound")),
        (l, ("divergent", "finite"),
         (Boundary.LEFT, Verdict.INF_BOUNDED_AS, "scale-function-inf-bound")),
    ):
        if not (math.isfinite(bound) or classical):
            continue
        shift = -bound if math.isfinite(bound) else 0.0
        label = f"{shift + 0.0:.6g}"  # a boundary at 0 gives shift -0.0
        lims, triples = _limit_pair(ctx, shift, shift, "p", (f"|p|(left+) with shift {label}",
                                                              f"|p|(right-) with shift {label}"))
        evidence += triples
        if tuple(lim.kind for lim in lims) == kinds:
            held.append(conclusion)
    flags = _hypothesis_flags(ctx.kernel, hypotheses)
    if held:
        return _finish(*held[0], evidence, flags)
    return _finish(Boundary.BOTH, Verdict.INCONCLUSIVE, "scale-function-bounds",
                   evidence, flags)


def family_test(model, kernel, hypotheses=None):
    """Closed-form verdict list for the built-in model families.

    Evaluates the family's printed inequalities (square-root, bounded-interval
    square-root, superlinear power drift) at the kernel scalars K(0), K'(0)
    and returns every conclusion they support.  Equality counts as satisfied
    for the square-root families; the power blow-up needs a strict margin.
    """
    family_verdicts = getattr(model, "family_verdicts", None)
    if family_verdicts is None:
        raise PreconditionError(
            "family_test covers the cir/jacobi/power families, "
            f"got {getattr(model, 'family', None)!r}"
        )
    k0, kp0 = kernel_scalars(kernel)
    flags = _hypothesis_flags(kernel, hypotheses)
    out = []

    def emit(boundary, verdict, theorem, evidence):
        out.append(_finish(boundary, verdict, theorem, evidence, flags))

    family_verdicts(k0, kp0, emit)
    return out


# -- fractional approximation study ------------------------------------------


def _study_regime(scheme, alpha):
    if scheme == "geometric_bb2":
        return "necessary threshold diverges with ladder length for every alpha"
    grows = "T" if scheme == "truncation" else "ladder length"
    if alpha < 0.5:
        return f"necessary threshold diverges with {grows}"
    if alpha > 0.5:
        return f"necessary threshold vanishes with {grows}"
    return "borderline alpha = 1/2"


def fractional_condition_study(model, alpha, sweep, scheme="truncation",
                               q=1, ratio=6.4, xi1=1.0):
    """Tabulate the square-root-model conditions along a kernel sweep.

    For each sweep value, builds the requested fractional-kernel stand-in
    (``truncation``: sweep over the cap T; ``fractional`` /
    ``geometric_bb2``: sweep over the number of geometric quadrature
    intervals) and reports K(0), K'(0), the necessary-condition threshold

        sigma^2 K(0)^3 / (2 |K'(0)|) - kappa theta K(0)^2 / |K'(0)|

    (the x0 level below which exit through 0 has positive probability) and
    the sufficient-condition gap 2 kappa theta - K(0) sigma^2.  The regime
    column states how the threshold behaves as the sweep grows: it diverges
    for alpha < 1/2 and vanishes for alpha > 1/2 under truncation and the
    fractional-weight quadrature, and diverges for every alpha under the
    geometric_bb2 weighting.
    """
    if not (hasattr(model, "necessary_threshold") and hasattr(model, "sufficient_gap")):
        raise PreconditionError("fractional_condition_study needs a square-root model")
    if scheme not in STAND_INS:
        raise ValueError(f"scheme must be one of {STAND_INS}, got {scheme!r}")
    values = check_reals("sweep", sweep)
    if not values:
        raise ValueError("sweep must be nonempty")
    regime = _study_regime(scheme, alpha)
    rows = []
    for value in values:
        kernel = stand_in_scheme(scheme, alpha, value, q=q, ratio=ratio, xi1=xi1).kernel()
        k0, kp0 = kernel.k0_kprime0()
        rows.append(
            {
                "sweep": value,
                "k0": float(k0),
                "kprime0": float(kp0),
                "necessary_threshold": float(model.necessary_threshold(k0, kp0)),
                "sufficient_gap": float(model.sufficient_gap(k0)),
                "regime": regime,
            }
        )
    return rows
