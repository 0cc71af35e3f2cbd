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
deficient everywhere.  With p < r the target rank n + r already exceeds
the row count and the verdict is immediately false.

`exists_uio` combines both conditions and cross-checks them against the
constructive design route; a disagreement is reported as an
internal-consistency alarm rather than silently reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import (DEFAULT_TOL, SCHUR_MARGIN, NumericalFailure, RankTolerance,
                     invariant_zeros, rank)
from .plant import StateSpaceModel, require_valid
from .synth import NoUio, SynthesisOptions, design_from_model
from . import numkit

__all__ = [
    "NormalRankDeficient",
    "ExistenceReport",
    "condition_a",
    "condition_b",
    "exists_uio",
    "format_report",
]

class NormalRankDeficient(ValueError):
    """P(z) is rank deficient almost everywhere; condition (a) is false."""


def _spectral_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def condition_b(
    model: StateSpaceModel, tol: RankTolerance = DEFAULT_TOL
) -> tuple[bool, dict]:
    """rank [[CE, F], [F, 0]] == rank(F) + r, with the ranks as evidence.

    The block's rank is decided with an absolute floor at the scale of the
    inputs C, E, F: the product CE of an exactly-decoupled disturbance
    direction computes to ~eps * ||C|| ||E|| rather than to zero, and a
    purely relative threshold would count that residue as a full rank unit
    (any nonzero matrix has full rank relative to its own largest entry).
    """
    p, r = model.p, model.r
    M = np.zeros((2 * p, 2 * r))
    M[:p, :r] = model.C @ model.E
    M[:p, r:] = model.F
    M[p:, :r] = model.F
    scale = (_spectral_norm(model.C) * _spectral_norm(model.E)
             + _spectral_norm(model.F))
    floor = 4.0 * max(M.shape, default=1) * np.finfo(float).eps * scale
    eff = RankTolerance(relative=tol.relative,
                        absolute_floor=max(tol.absolute_floor, floor))
    block_rank = rank(M, eff)
    rank_F = rank(model.F, eff)
    required = rank_F + r
    return block_rank == required, {
        "block_rank": block_rank,
        "rank_F": rank_F,
        "required": required,
    }


def condition_a(
    model: StateSpaceModel,
    tol: RankTolerance = DEFAULT_TOL,
    margin: float = SCHUR_MARGIN,
) -> tuple[bool, dict]:
    """Full rank of P(z) on and outside the unit circle.

    Returns (verdict, evidence); evidence records the normal and target
    ranks, the invariant zeros, and as ``drops`` those with modulus
    >= 1 - margin.  Zeros within ``margin`` of the unit circle also appear
    in ``boundary_drops``: boundary zeros fail conservatively.  The rank
    cutoff is `numkit.ZERO_CUT_RELATIVE`, so ``tol`` contributes only its
    absolute floor.

    Raises:
        NormalRankDeficient: when P(z) is rank deficient at every z
            (condition is then false with that certificate).
    """
    n, p, r = model.n, model.p, model.r
    target = n + r
    if p < r:
        return False, {
            "reason": f"p = {p} < r = {r}: rank {target} exceeds the "
                      f"{n + p} rows of P(z)",
        }
    zeros, rows = invariant_zeros(model.A, model.E, model.C, model.F, tol)
    normal_rank = n + rows
    if rows < r:
        raise NormalRankDeficient(
            f"normal rank of P(z) is {normal_rank} < {target}; "
            "the pencil is rank deficient everywhere"
        )
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
    """Joint verdict of both rank conditions plus the constructive cross-check."""

    condition_a: bool
    condition_b: bool
    exists: bool
    evidence: dict
    constructive_succeeded: bool
    constructive_detail: str
    agreement: bool


def exists_uio(
    model: StateSpaceModel,
    options: SynthesisOptions | None = None,
) -> ExistenceReport:
    """Decide observer existence and cross-check against the design route.

    The rank conditions are the authority; the constructive run (with the
    given synthesis options, Riccati gain by default) is recorded, and
    ``agreement`` flags whether the two verdicts coincide.  The run counts
    as a success only for an observer that passes `verify_uio`, which
    `design_from_model` checks before it returns.
    """
    opt = options or SynthesisOptions()
    require_valid(model, opt.tol)
    b_ok, b_ev = condition_b(model, opt.tol)
    try:
        a_ok, a_ev = condition_a(model, opt.tol, opt.schur_margin)
    except NormalRankDeficient as exc:
        a_ok, a_ev = False, {"reason": str(exc)}
    exists = a_ok and b_ok
    try:
        uio, diag = design_from_model(model, opt)
        constructive_ok = True
        detail = (
            "design succeeded (spectral radius "
            f"{diag.spectrum.spectral_radius:.6g})"
        )
    except NoUio as exc:
        constructive_ok = False
        detail = f"design refused: {exc}"
    except (numkit.NotObservable, NumericalFailure) as exc:
        constructive_ok = False
        detail = f"design failed numerically: {exc}"
    return ExistenceReport(
        condition_a=a_ok,
        condition_b=b_ok,
        exists=exists,
        evidence={"a": a_ev, "b": b_ev},
        constructive_succeeded=constructive_ok,
        constructive_detail=detail,
        agreement=exists == constructive_ok,
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
