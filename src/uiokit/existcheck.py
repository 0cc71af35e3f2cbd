"""Rank-based existence test for unknown-input observers.

An observer that reconstructs the state despite the disturbance exists iff
two model-level conditions hold:

  (a) the pencil  P(z) = [[z*I - A, -E], [C, F]]  has rank n + r for every
      z on or outside the unit circle, and
  (b) rank [[CE, F], [F, 0]] = rank(F) + r.

Condition (a) quantifies over infinitely many points, so it is decided
through the invariant zeros of P, the only finite points where a pencil of
normal rank n + r can lose rank.  They come from `numkit.invariant_zeros`,
one deterministic orthogonal reduction (Emami-Naeini & Van Dooren 1982),
the same one that decides detectability and observability on the design
route.  When fewer than r rows of F survive the reduction, P(z) is rank
deficient everywhere (always so for p < r), and the verdict is false, with
the reason as its evidence.

A zero z that fails (a) comes with a witness read off the same reduction:
a null vector [x0; d0] of P(z).  Driven by u = 0 and d(t) = z^t d0 from
x(0) = x0, the plant's output stays at 0 while its state follows z^t x0,
which does not decay, so no observer can tell that trajectory from zero.
That is the paper's behavioural "no": a trajectory anyone can replay.

`exists_uio` combines both conditions and cross-checks them against the
constructive design route; a disagreement is reported as an
internal-consistency alarm rather than silently reconciled.  It replays
every witness on the plant with `plant._simulate`, which decides no rank,
and when (b) holds, the gain is Riccati and every witness replays, that
replay is the constructive run's refusal: no kernel, zero staircase or
Riccati doubling is computed for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkit import (DEFAULT_TOL, SCHUR_MARGIN, ZERO_CUT_RELATIVE,
                     NumericalFailure, RankTolerance, _EPS, _gamma,
                     _zero_reduction)
from .plant import StateSpaceModel, UioRealization, _simulate
from .synth import (NoUio, SynthesisDiagnostics, SynthesisOptions,
                    NOT_DETECTABLE, _model_ranks, _undetectable_detail,
                    design_from_model)
from . import numkit

__all__ = [
    "ExistenceReport",
    "condition_a",
    "condition_b",
    "exists_uio",
    "format_report",
]

def condition_b(
    model: StateSpaceModel, tol: RankTolerance = DEFAULT_TOL
) -> tuple[bool, dict]:
    """rank [[CE, F], [F, 0]] == rank(F) + r, with the ranks as evidence.

    The block is read as N = [[F, 0], [CE, F]], its row blocks swapped,
    and both ranks are the ones `synth.model_kernel` decides, by
    `numkit.balanced_rank` at the error scale of the entries: |F| for F,
    and |C| |E| for the computed CE.  The product CE of an
    exactly-decoupled disturbance direction computes to ~eps |C| |E|
    rather than to zero, and against that scale it counts as zero, in any
    units.  So the verdict holds exactly when the design reads
    rank(V_f) = n.  The ranks are the model route's first stage (see
    `synth._stage`), decided once per model and ``tol``: a later
    `synth.model_kernel` or `synth.design_from_model` at the same ``tol``
    reads them instead of deciding them again.
    """
    rank_F, (block_rank, *_) = _model_ranks(model, tol)
    required = rank_F + model.r
    return block_rank == required, {
        "block_rank": block_rank,
        "rank_F": rank_F,
        "required": required,
    }


def condition_a(
    model: StateSpaceModel, margin: float = SCHUR_MARGIN
) -> tuple[bool, dict]:
    """Full rank of P(z) on and outside the unit circle.

    Returns (verdict, evidence); evidence records the normal and target
    ranks, the invariant zeros, and as ``drops`` those with modulus
    >= 1 - margin.  Zeros within ``margin`` of the unit circle also appear
    in ``boundary_drops``: boundary zeros fail conservatively.  The rank
    cutoff is `numkit.ZERO_CUT_RELATIVE`.  When P(z) is rank deficient at
    every z (a normal rank below n + r, which p < r implies) the verdict is
    false and the evidence is only a ``reason``.

    Each dropped zero z also gets a ``witnesses`` entry: z with a unit null
    vector (x0, d0) of P(z), as tuples of Python numbers (float for a real
    z), read off the reduction that found z (see `numkit._zero_reduction`),
    so nothing of the size of the pencil is factored again.  With u = 0,
    x(0) = x0 and d(t) = z^t d0 the plant's output is 0 while its state
    follows z^t x0: `exists_uio` replays that trajectory.  A verdict with
    no drop has no ``witnesses`` entry and costs nothing extra.
    """
    n, r = model.n, model.r
    target = n + r
    zeros, rows, witness = _zero_reduction(model.A, model.E, model.C, model.F)
    normal_rank = n + rows
    if rows < r:
        return False, {
            "reason": f"normal rank of P(z) is {normal_rank} < {target}; "
                      "the pencil is rank deficient everywhere",
        }
    drops = [complex(z) for z in zeros if abs(z) >= 1.0 - margin]
    evidence = {
        "normal_rank": normal_rank,
        "target_rank": target,
        "zeros": [complex(z) for z in zeros],
        "drops": drops,
        "boundary_drops": [z for z in drops if abs(abs(z) - 1.0) <= margin],
    }
    if drops:
        evidence["witnesses"] = [
            {"zero": z, **{key: tuple(v.tolist()) for key, v in
                           zip(("x0", "d0"), witness(z))}}
            for z in drops]
    return not drops, evidence


def _replay(model: StateSpaceModel, witness: dict, margin: float) -> dict:
    """Simulate condition (a)'s ``witness`` on the plant and measure it.

    The trajectory is u = 0, x(0) = x0 and d(t) = z^t d0, its real part
    for a complex z, with x0 and d0 first turned by the unit phase c that
    puts x(T) on the long axis of the ellipse Re(c z^T x0), so that
    ||x(T)|| >= |z|^T ||x(0)||.  It runs through `plant._simulate`:
    nothing is factored and no rank is decided.

    In exact arithmetic y = 0 and x(t) = z^t x0 (its real part).  In
    float64 the witness leaves a residual in P(z) [x0; d0], and every step
    rounds; both are at most delta = gamma_k s per unit of the
    trajectory's size |z|^t, with s = ||S||_F, S = [[A, E], [C, F]] and
    k = (n + 1)(n + p + r): at most n deflations of the reduction and one
    replayed step, each rounding a row and a column of S.  An error grows
    by at most ||A|| <= s per step, so for the unit witness

        ||x(t) - z^t x0|| <= delta E(t),  E(t) = sum_{j<t} s^{t-1-j} |z|^j,
        ||y(t)||          <= delta B(t),  B(t) = |z|^t + s E(t).

    The horizon T is the longest with delta B(T) / |z|^T within the zero
    reduction's own cut, so that the replay holds y to zero at least as
    tightly as the reduction decided the zero; with |z|^T at most 1 / eps,
    past which x(0) is lost in the rounding of x(T); and with T <= n, long
    enough to observe any state.  It is 0 when not even one step fits.

    The record holds z, T, max ||y|| / ||x(T)|| with its bound
    delta B(T) max(1, |z|^-T) / ||x(T)|| (at least delta max_t B(t), as
    B(t) / |z|^t grows), and ||x(T)|| / ||x(0)|| with its floor
    (1 - margin)^T - delta E(T) / ||x(0)||, that of a state that does not
    decay (`_replays` compares them), all as Python numbers, so reports
    compare, copy and pickle like any other.
    """
    z = witness["zero"]
    x0, d0 = np.array(witness["x0"]), np.array(witness["d0"])
    n, p, r = model.n, model.p, model.r
    s = float(np.sqrt(sum(np.linalg.norm(M) ** 2 for M in
                          (model.A, model.E, model.C, model.F))))
    mu = abs(z)
    delta = _gamma((n + 1) * (n + p + r)) * s
    cut = ZERO_CUT_RELATIVE * max(n + p, n + r) * s
    # E(t) / |z|^t and B(t) / |z|^t, which grow with t, and |z|^t.
    steps, e_rel, b_rel, grown = 0, 0.0, 1.0, 1.0
    while steps < n and grown * mu <= 1.0 / _EPS:
        e_next = (s * e_rel + 1.0) / mu
        b_next = s * e_next + 1.0
        if not delta * b_next <= cut:
            break
        steps, e_rel, b_rel, grown = steps + 1, e_next, b_next, grown * mu
    t = np.arange(steps + 1)
    if z.imag == 0:
        weights = z.real ** t
    else:
        phase = np.exp(-1j * (steps * np.angle(z) + np.angle(x0 @ x0) / 2))
        weights, x0 = phase * z ** t, (phase * x0).real
    try:
        x, y = _simulate(model, x0, np.zeros((steps + 1, model.m)),
                         np.outer(weights, d0).real)
    except ValueError:  # beyond the float64 range: the replay proves nothing
        x, y = np.ones((1, 1)), np.full((1, 1), np.inf)
    start, end = np.linalg.norm(x[0]), np.linalg.norm(x[-1])
    return {
        "zero": z,
        "steps": steps,
        "output": float(np.linalg.norm(y, axis=1).max() / end),
        "output_bound": float(delta * b_rel * max(grown, 1.0) / end),
        "growth": float(end / start),
        "growth_floor": float((1.0 - margin) ** steps
                              - delta * e_rel * grown / start),
    }


def _replays(record: dict) -> bool:
    """A `_replay` record proves its zero: at least one step, y within its
    bound, and x(T) no smaller than a state that does not decay."""
    return (record["steps"] > 0
            and record["output"] <= record["output_bound"]
            and record["growth"] >= record["growth_floor"])


@dataclass(frozen=True)
class ExistenceReport:
    """Joint verdict of both rank conditions plus the constructive cross-check.

    ``uio`` and ``diagnostics`` are the certified observer and its synthesis
    diagnostics from the constructive run, None when that run refused, so a
    caller that wants the verdict and the observer designs once.  When the
    run designed, a later `synth.design_from_model` of the same model with
    the same options returns these read-only objects, or raises the run's
    refusal again, without a second design.
    ``refusal`` is the text of that run's refusal, None when it succeeded;
    `constructive_detail` renders the run on read, so a success solves its
    observer's eigenvalue problem only when the detail is read.
    """

    condition_a: bool
    condition_b: bool
    exists: bool
    evidence: dict
    constructive_succeeded: bool
    refusal: str | None
    agreement: bool
    uio: UioRealization | None = field(default=None, compare=False, repr=False)
    diagnostics: SynthesisDiagnostics | None = field(
        default=None, compare=False, repr=False)

    @property
    def constructive_detail(self) -> str:
        """One line on the constructive run: its refusal, or the spectral
        radius of the observer it designed (just the outcome, for a report
        built without the run's diagnostics)."""
        if self.refusal is not None:
            return self.refusal
        if self.diagnostics is None:
            return ("design succeeded" if self.constructive_succeeded
                    else "design refused")
        return ("design succeeded (spectral radius "
                f"{self.diagnostics.spectrum.spectral_radius:.6g})")


def exists_uio(
    model: StateSpaceModel,
    options: SynthesisOptions | None = None,
) -> ExistenceReport:
    """Decide observer existence and cross-check against the design route.

    The rank conditions are the authority; the constructive run (with the
    given synthesis options, Riccati gain by default) is recorded, and
    ``agreement`` flags whether the two verdicts coincide.  The run counts
    as a success only for an observer that passes the `verify_uio` test,
    which `design_from_model` applies before it returns; that observer and
    its diagnostics are kept in the report.  Condition (b) and the design
    read the model route's stages (see `synth._stage`): the disturbance
    ranks that decide (b) are the ones the design's kernel is built from,
    and a later `design_from_model` of the same model with the same
    options reads this run's certified observer, or raises its refusal
    again, instead of designing a second time.  A refusal from replayed
    witnesses (below) designs nothing, so a later design runs in full.

    Every zero that fails condition (a) comes with a witness trajectory,
    replayed on the plant (`_replay`) and kept in the evidence as
    ``replays``.  When (b) holds, the gain is Riccati and every witness
    replays, the plant has a trajectory with zero output whose state does
    not decay, which no observer can tell from zero: the constructive run
    is that refusal, the `NoUio` the Riccati design raises for the same
    modes, and no kernel, staircase or doubling step is computed.
    Otherwise `design_from_model` runs as for any caller.
    """
    opt = options or SynthesisOptions()
    b_ok, b_ev = condition_b(model, opt.tol)
    a_ok, a_ev = condition_a(model, margin=opt.schur_margin)
    evidence = {"a": a_ev, "b": b_ev}
    witnesses = a_ev.get("witnesses", [])
    if witnesses:
        evidence["replays"] = [_replay(model, w, opt.schur_margin)
                               for w in witnesses]
    exists = a_ok and b_ok
    uio = diag = refusal = None
    if (witnesses and b_ok and opt.gain == "riccati"
            and all(map(_replays, evidence["replays"]))):
        detail = _undetectable_detail(a_ev["drops"])
        refusal = f"design refused: {NoUio(NOT_DETECTABLE, detail)}"
    else:
        try:
            uio, diag = design_from_model(model, opt)
        except NoUio as exc:
            refusal = f"design refused: {exc}"
        except (numkit.NotObservable, NumericalFailure) as exc:
            refusal = f"design failed numerically: {exc}"
    constructive_ok = uio is not None
    return ExistenceReport(
        condition_a=a_ok,
        condition_b=b_ok,
        exists=exists,
        evidence=evidence,
        constructive_succeeded=constructive_ok,
        refusal=refusal,
        agreement=exists == constructive_ok,
        uio=uio,
        diagnostics=diag,
    )


def _replay_line(record: dict) -> str:
    """One line on a `_replay` record: the zero, the horizon, the output
    against its bound and the state's growth against its floor."""
    steps = record["steps"]
    line = (f"    witness of {record['zero']:.6g} over {steps} steps with "
            f"u = 0: max|y|/|x({steps})| = {record['output']:.2g} "
            f"(bound {record['output_bound']:.2g}), |x({steps})|/|x(0)| = "
            f"{record['growth']:.6g} (floor {record['growth_floor']:.6g})")
    return line if _replays(record) else line + ": does not replay"


def format_report(report: ExistenceReport) -> str:
    """Human-readable multi-line rendering for the command line."""
    lines = [
        f"condition (a) unit-circle pencil rank: "
        f"{'holds' if report.condition_a else 'FAILS'}",
        f"condition (b) disturbance feedthrough rank: "
        f"{'holds' if report.condition_b else 'FAILS'}",
        f"observer exists: {'yes' if report.exists else 'no'}",
        f"constructive cross-check: {report.constructive_detail}",
    ]
    b_ev = report.evidence.get("b", {})
    if b_ev:
        lines.insert(2, (
            f"  rank of [[CE, F], [F, 0]] = {b_ev['block_rank']}, "
            f"required rank(F) + r = {b_ev['required']}"
        ))
    a_ev = report.evidence.get("a", {})
    drops = a_ev.get("drops", [])
    if drops:
        pts = ", ".join(f"{z:.6g}" for z in sorted(drops, key=abs))
        lines[1:1] = [f"  rank drops on/outside the unit circle: {pts}",
                      *map(_replay_line, report.evidence.get("replays", []))]
    if "reason" in a_ev:
        lines.insert(1, f"  {a_ev['reason']}")
    if not report.agreement:
        lines.append(
            "INTERNAL-CONSISTENCY ALARM: the rank conditions and the "
            "constructive route disagree; treat this model's verdict with "
            "suspicion and inspect the evidence."
        )
    return "\n".join(lines)
