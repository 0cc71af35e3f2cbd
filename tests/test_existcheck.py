"""The two rank conditions for observer existence and their cross-check."""

from dataclasses import replace

import numpy as np
import pytest

from uiokit import synth
from uiokit.existcheck import (
    ExistenceReport,
    NormalRankDeficient,
    condition_a,
    condition_b,
    exists_uio,
    format_report,
)
from uiokit.numkit import NumericalFailure, rank
from uiokit.plant import StateSpaceModel


def _scalar_hidden_mode(a: float) -> StateSpaceModel:
    """1-state plant whose only output channel carries the disturbance."""
    return StateSpaceModel(
        A=np.array([[a]]), B=np.zeros((1, 0)),
        C=np.zeros((1, 1)), D=np.zeros((1, 0)),
        E=np.zeros((1, 1)), F=np.array([[1.0]]),
    )


# ---------------------------------------------------------- condition (b)


def test_condition_b_bundled_model(ref_model):
    ok, evidence = condition_b(ref_model)
    assert ok
    assert evidence["block_rank"] == 2
    assert evidence["required"] == 2
    assert evidence["rank_F"] == 1


def test_condition_b_counterexample(no_uio_model):
    ok, evidence = condition_b(no_uio_model)
    assert not ok
    assert evidence["block_rank"] == 0
    assert evidence["required"] == 1


def test_condition_b_pure_output_disturbance():
    model = StateSpaceModel(
        A=np.diag([0.3, 0.2]), B=np.zeros((2, 0)),
        C=np.array([[1.0, 0.0]]), D=np.zeros((1, 0)),
        E=np.zeros((2, 1)), F=np.array([[1.0]]),
    )
    ok, evidence = condition_b(model)
    assert ok
    assert evidence["block_rank"] == 2


def _kernel_direction_disturbance(seed: int = 7) -> StateSpaceModel:
    """State disturbance along a computed null direction of C, F = 0.

    C @ E is exactly zero in the reals but lands at ~1e-16 in floats, the
    worst case for any purely relative rank tolerance.
    """
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((2, 3))
    E = np.linalg.svd(C)[2][-1:].T
    return StateSpaceModel(
        A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 1)),
        C=C, D=rng.standard_normal((2, 1)), E=E, F=np.zeros((2, 1)),
    )


def test_condition_b_epsilon_product_counts_as_zero():
    model = _kernel_direction_disturbance()
    assert 0.0 < np.max(np.abs(model.C @ model.E)) < 1e-14
    ok, evidence = condition_b(model)
    assert not ok
    assert evidence["block_rank"] == 0
    assert evidence["required"] == 1


@pytest.mark.parametrize("seed", range(5))
def test_condition_b_invariant_under_disturbance_recoordinatization(seed):
    rng = np.random.default_rng(seed)
    n, p, r = 3, 2, 2
    while True:
        E, F = rng.normal(size=(n, r)), rng.normal(size=(p, r))
        if rank(np.vstack([E, F])) == r:
            break
    base = StateSpaceModel(
        A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 1)),
        C=rng.normal(size=(p, n)), D=rng.normal(size=(p, 1)), E=E, F=F,
    )
    M = rng.normal(size=(r, r)) + 3 * np.eye(r)
    twisted = StateSpaceModel(base.A, base.B, base.C, base.D,
                              E=E @ M, F=F @ M)
    assert condition_b(base)[0] == condition_b(twisted)[0]


# ---------------------------------------------------------- condition (a)


def test_condition_a_bundled_model(ref_model):
    ok, evidence = condition_a(ref_model)
    assert ok
    assert evidence["normal_rank"] == 4  # n + r
    assert evidence["target_rank"] == 4


def test_condition_a_unstable_hidden_mode():
    ok, evidence = condition_a(_scalar_hidden_mode(2.0))
    assert not ok
    assert any(abs(z - 2.0) < 1e-6 for z in evidence["drops"])


@pytest.mark.parametrize("mode", [1.0, -1.0])
def test_condition_a_hidden_mode_on_unit_circle_fails(mode, rotated_hidden_mode):
    ok, evidence = condition_a(rotated_hidden_mode(4, 1, 2, 1, mode, seed=1))
    assert not ok
    assert any(abs(z - mode) < 1e-9 for z in evidence["boundary_drops"])


@pytest.mark.parametrize("seed", range(12))
def test_condition_a_rotated_unstable_mode_at_n20(seed, rotated_hidden_mode):
    model = rotated_hidden_mode(20, 4, 7, 2, 1.3, seed)
    ok, evidence = condition_a(model)
    assert not ok
    assert any(abs(z - 1.3) < 1e-6 for z in evidence["drops"])
    assert exists_uio(model).agreement


def test_condition_a_stable_hidden_mode_is_allowed():
    ok, _ = condition_a(_scalar_hidden_mode(0.5))
    assert ok


def test_condition_a_normal_rank_deficiency_is_raised():
    model = StateSpaceModel(
        A=np.array([[0.5]]), B=np.zeros((1, 0)),
        C=np.zeros((1, 1)), D=np.zeros((1, 0)),
        E=np.array([[1.0]]), F=np.zeros((1, 1)),
    )
    with pytest.raises(NormalRankDeficient):
        condition_a(model)


def test_condition_a_more_disturbances_than_outputs():
    model = StateSpaceModel(
        A=np.diag([0.1, 0.2]), B=np.zeros((2, 0)),
        C=np.array([[1.0, 0.0]]), D=np.zeros((1, 0)),
        E=np.eye(2), F=np.zeros((1, 2)),
    )
    ok, evidence = condition_a(model)
    assert not ok
    assert "reason" in evidence


def test_condition_a_deterministic(ref_model):
    assert condition_a(ref_model) == condition_a(ref_model)


def test_condition_a_sets_aside_numerically_infinite_candidates():
    # C @ E is an eps-sized residue, so the disturbance reaches the outputs
    # only at infinity.  That must not surface as a huge finite zero
    # counted as a rank drop; what happens at infinity is condition (b)'s
    # question.
    model = _kernel_direction_disturbance()
    ok, evidence = condition_a(model)
    assert ok
    assert not evidence["drops"]


def test_exists_uio_kernel_direction_disturbance_agrees():
    # the two-condition verdict and the constructive route must land on
    # the same answer even when C @ E is an epsilon-sized residue
    report = exists_uio(_kernel_direction_disturbance())
    assert not report.exists
    assert report.condition_a and not report.condition_b
    assert not report.constructive_succeeded
    assert report.agreement


# -------------------------------------------------------------- exists_uio


def test_exists_uio_bundled_model(ref_model):
    report = exists_uio(ref_model)
    assert report.exists
    assert report.condition_a and report.condition_b
    assert report.constructive_succeeded
    assert report.agreement


def test_exists_uio_counts_an_unverified_design_as_a_failure(
    ref_model, monkeypatch
):
    # The model route certifies its observer; a corrupted one is a
    # constructive failure, and the verdict and the design disagree.
    synthesize = synth.synthesize

    def corrupted(ker, options=None):
        uio, diag = synthesize(ker, options)
        return replace(uio, A_uio=uio.A_uio + 1e-3), diag

    monkeypatch.setattr(synth, "synthesize", corrupted)
    with pytest.raises(NumericalFailure, match="acc2 residual"):
        synth.design_from_model(ref_model)
    report = exists_uio(ref_model)
    assert report.exists
    assert not report.constructive_succeeded
    assert not report.agreement
    assert "failed verification" in report.constructive_detail


def test_exists_uio_counterexample(no_uio_model):
    report = exists_uio(no_uio_model)
    assert not report.exists
    assert not report.condition_b
    assert not report.constructive_succeeded
    assert report.agreement


def test_exists_uio_classical_detectable_case():
    model = StateSpaceModel(
        A=np.array([[0.0, 1.0], [-0.3, 0.4]]), B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]), D=np.array([[0.0]]),
        E=np.zeros((2, 0)), F=np.zeros((1, 0)),
    )
    report = exists_uio(model)
    assert report.exists
    assert report.agreement


def test_exists_uio_handles_normal_rank_deficiency():
    model = StateSpaceModel(
        A=np.array([[0.5]]), B=np.zeros((1, 0)),
        C=np.zeros((1, 1)), D=np.zeros((1, 0)),
        E=np.array([[1.0]]), F=np.zeros((1, 1)),
    )
    report = exists_uio(model)
    assert not report.condition_a
    assert not report.exists
    assert report.agreement


def test_exists_uio_rejects_invalid_model(ref_model):
    bad = StateSpaceModel(ref_model.A, ref_model.B, ref_model.C, ref_model.D,
                          E=np.zeros((3, 1)), F=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        exists_uio(bad)


# ------------------------------------------------------------- reporting


def test_format_report_positive(ref_model):
    text = format_report(exists_uio(ref_model))
    assert "observer exists: yes" in text
    assert "rank of [[CE, F], [F, 0]] = 2" in text
    assert "ALARM" not in text


def test_format_report_negative(no_uio_model):
    text = format_report(exists_uio(no_uio_model))
    assert "observer exists: no" in text
    assert "FAILS" in text


def test_format_report_flags_disagreement():
    forged = ExistenceReport(
        condition_a=True, condition_b=True, exists=True,
        evidence={"a": {}, "b": {}},
        constructive_succeeded=False, constructive_detail="design refused",
        agreement=False,
    )
    assert "INTERNAL-CONSISTENCY ALARM" in format_report(forged)
