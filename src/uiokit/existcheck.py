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

`exists_uio` combines both conditions and cross-checks them against the
constructive design route; a disagreement is reported as an
internal-consistency alarm rather than silently reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .numkit import (DEFAULT_TOL, SCHUR_MARGIN, NumericalFailure, RankTolerance,
                     invariant_zeros)
from .plant import StateSpaceModel, UioRealization
from .synth import (NoUio, SynthesisDiagnostics, SynthesisOptions,
                    _disturbance_ranks, design_from_model)
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
    rank(V_f) = n.
    """
    return _condition_b(model, _disturbance_ranks(model, tol))


def _condition_b(model: StateSpaceModel, ranks) -> tuple[bool, dict]:
    """`condition_b` from the `_disturbance_ranks` of the model."""
    rank_F, (block_rank, *_) = ranks
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
    """
    n, r = model.n, model.r
    target = n + r
    zeros, rows = invariant_zeros(model.A, model.E, model.C, model.F)
    normal_rank = n + rows
    if rows < r:
        return False, {
            "reason": f"normal rank of P(z) is {normal_rank} < {target}; "
                      "the pencil is rank deficient everywhere",
        }
    drops = [complex(z) for z in zeros if abs(z) >= 1.0 - margin]
    return not drops, {
        "normal_rank": normal_rank,
        "target_rank": target,
        "zeros": [complex(z) for z in zeros],
        "drops": drops,
        "boundary_drops": [z for z in drops if abs(abs(z) - 1.0) <= margin],
    }


@dataclass(frozen=True)
class ExistenceReport:
    """Joint verdict of both rank conditions plus the constructive cross-check.

    ``uio`` and ``diagnostics`` are the certified observer and its synthesis
    diagnostics from the constructive run, None when that run refused, so a
    caller that wants the verdict and the observer designs once.
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
    its diagnostics are kept in the report.  The disturbance ranks that
    decide condition (b) are decided once and handed to the design's
    kernel, and so is condition (a)'s verdict: by the existence theorem a
    zero that fails (a) is an undetectable mode of the kernel's pair
    (A_bar, C_bar), so a Riccati design then runs the zero staircase
    before its Riccati doubling and refuses at once, with the same NoUio
    it would raise after the doubling (see `synth.design_from_model`).
    """
    opt = options or SynthesisOptions()
    ranks = _disturbance_ranks(model, opt.tol)
    b_ok, b_ev = _condition_b(model, ranks)
    a_ok, a_ev = condition_a(model, margin=opt.schur_margin)
    exists = a_ok and b_ok
    uio = diag = refusal = None
    try:
        uio, diag = design_from_model(model, opt, _ranks=ranks,
                                      _condition_a=a_ok)
    except NoUio as exc:
        refusal = f"design refused: {exc}"
    except (numkit.NotObservable, NumericalFailure) as exc:
        refusal = f"design failed numerically: {exc}"
    constructive_ok = uio is not None
    return ExistenceReport(
        condition_a=a_ok,
        condition_b=b_ok,
        exists=exists,
        evidence={"a": a_ev, "b": b_ev},
        constructive_succeeded=constructive_ok,
        refusal=refusal,
        agreement=exists == constructive_ok,
        uio=uio,
        diagnostics=diag,
    )


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
        lines.insert(1, f"  rank drops on/outside the unit circle: {pts}")
    if "reason" in a_ev:
        lines.insert(1, f"  {a_ev['reason']}")
    if not report.agreement:
        lines.append(
            "INTERNAL-CONSISTENCY ALARM: the rank conditions and the "
            "constructive route disagree; treat this model's verdict with "
            "suspicion and inspect the evidence."
        )
    return "\n".join(lines)
