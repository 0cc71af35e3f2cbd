"""The two rank conditions for observer existence and their cross-check."""

import importlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from uiokit import existcheck, numkit, synth
from uiokit.existcheck import (
    ExistenceReport,
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


def _kernel_direction_disturbance(seed: int = 7,
                                  c_scale: float = 1.0) -> StateSpaceModel:
    """State disturbance along a computed null direction of C, F = 0.

    C @ E is exactly zero in the reals but lands at ~1e-16 ||C|| in floats,
    the worst case for any purely relative rank tolerance.  ``c_scale``
    multiplies C after E is chosen.
    """
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((2, 3))
    E = np.linalg.svd(C)[2][-1:].T
    return StateSpaceModel(
        A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 1)),
        C=c_scale * C, D=rng.standard_normal((2, 1)), E=E,
        F=np.zeros((2, 1)),
    )


def test_condition_b_epsilon_product_counts_as_zero():
    # With C a hundred times larger, the residue CE once counted as rank
    # against the largest entry of [E; CE] (a unit E), while condition (b)
    # called it zero: the design then refused as NotDetectable, naming a
    # spurious mode near 1.9e14.  One rank rule makes the two one decision.
    for c_scale in (1.0, 1e2, 1e4, 1e6):
        model = _kernel_direction_disturbance(c_scale=c_scale)
        assert 0.0 < np.max(np.abs(model.C @ model.E)) < 1e-14 * c_scale
        ok, evidence = condition_b(model)
        assert not ok
        assert evidence["block_rank"] == 0
        assert evidence["required"] == 1
        with pytest.raises(synth.NoUio) as refusal:
            synth.design_from_model(model)
        assert refusal.value.cause == synth.VF_RANK_DEFICIENT, c_scale


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
    ok, evidence = condition_a(model)
    assert not ok
    assert evidence == {
        "reason": "normal rank of P(z) is 1 < 2; "
                  "the pencil is rank deficient everywhere",
    }


def test_condition_a_more_disturbances_than_outputs():
    # p < r: fewer than r rows survive the reduction, so the pencil is
    # rank deficient everywhere; p = 0 is the extreme case.
    for p, rows in ((1, 1), (0, 0)):
        model = StateSpaceModel(
            A=np.diag([0.1, 0.2]), B=np.zeros((2, 0)),
            C=np.eye(p, 2), D=np.zeros((p, 0)),
            E=np.eye(2), F=np.zeros((p, 2)),
        )
        ok, evidence = condition_a(model)
        assert not ok
        assert evidence == {
            "reason": f"normal rank of P(z) is {2 + rows} < 4; "
                      "the pencil is rank deficient everywhere",
        }


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
    assert report.uio is None and report.diagnostics is None


def test_exists_uio_counterexample(no_uio_model):
    report = exists_uio(no_uio_model)
    assert not report.exists
    assert not report.condition_b
    assert not report.constructive_succeeded
    assert report.agreement
    assert report.uio is None and report.diagnostics is None


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in fields(a) if f.compare)
    return a == b


@pytest.mark.parametrize("options", [
    synth.SynthesisOptions(),
    synth.SynthesisOptions(gain="place", poles=(0.0, 0.0, 0.5)),
], ids=["riccati", "place"])
def test_exists_uio_keeps_the_certified_observer(ref_model, options):
    report = exists_uio(ref_model, options)
    uio, diag = synth.design_from_model(ref_model, options)
    assert report.constructive_succeeded
    assert _same(report.uio, uio)
    assert _same(report.diagnostics, diag)
    # The eigenvalues are solved on read, not a dataclass field: compare
    # the two spectra themselves.
    kept, fresh = report.diagnostics.spectrum, diag.spectrum
    assert np.array_equal(kept.eigenvalues, fresh.eigenvalues)
    assert kept.spectral_radius == fresh.spectral_radius
    assert kept == fresh
    assert synth.verify_uio(ref_model, report.uio).is_uio


def _refusing_run(monkeypatch, model, hinted=True):
    """exists_uio's report on ``model``, the (cause, message, evidence) of
    the NoUio its design raised, the inverses and zero staircases that
    design took, and the n x n eigenvalue problems solved before and while
    the evidence was first read.  With ``hinted`` False the design does not
    get condition (a)'s verdict, and refuses after its Riccati doubling, as
    it did before the verdict was handed over."""
    raised, inverses, staircases, eigensolves = [], [], [], []
    design, inv, eigvals = synth.design_from_model, np.linalg.inv, \
        np.linalg.eigvals

    def recording(model, options=None, **kwargs):
        if not hinted:
            del kwargs["_condition_a"]
        try:
            return design(model, options, **kwargs)
        except synth.NoUio as exc:
            raised.append(exc)
            raise

    def counting_inv(M):
        inverses.append(M.shape)
        return inv(M)

    def counting_eigvals(M):
        eigensolves.append(M.shape == (model.n, model.n))
        return eigvals(M)

    with monkeypatch.context() as mp:
        mp.setattr(existcheck, "design_from_model", recording)
        mp.setattr(np.linalg, "inv", counting_inv)
        mp.setattr(np.linalg, "eigvals", counting_eigvals)
        for module in (numkit, synth):
            def counting(*args, _staircase=module.undetectable_modes, **kw):
                staircases.append(args)
                return _staircase(*args, **kw)

            mp.setattr(module, "undetectable_modes", counting)
        report = exists_uio(model)
        (exc,) = raised
        before = sum(eigensolves)
        evidence = exc.evidence
    return (report, (exc.cause, str(exc), evidence), len(inverses),
            len(staircases), (before, sum(eigensolves) - before))


def _same_refusal(hinted, unhinted):
    """The reports and NoUio refusals of two `_refusing_run` are equal."""
    assert _same(hinted[0], unhinted[0])
    assert format_report(hinted[0]) == format_report(unhinted[0])
    assert hinted[1] == unhinted[1]


@pytest.mark.parametrize("n", [20, 40, 60])
def test_exists_uio_refuses_a_hidden_mode_before_the_riccati_doubling(
        monkeypatch, n):
    # Every third corpus plant hides a mode at 1.3, which condition (a)
    # finds.  The design it hands that verdict to runs the zero staircase
    # once, before any doubling step (no inverse), and refuses with the
    # same report, message and evidence as a design that runs its doubling
    # first.  When the staircase names no mode, the design goes on, runs
    # its doubling, and reaches that same outcome.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    for seed in (0, 3, 6, 9):
        model = workloads.corpus_model(n, *workloads.corpus_dims(n), seed=seed)
        hinted = _refusing_run(monkeypatch, model)
        report, (cause, _, _), inverses, staircases, eigensolves = hinted
        assert not report.condition_a and report.condition_b
        assert report.refusal.startswith("design refused: NotDetectable")
        assert cause == synth.NOT_DETECTABLE
        assert (inverses, staircases) == (0, 1)
        # A_bar's eigenvalues are solved only when the evidence is read.
        assert eigensolves == (0, 1)
        unhinted = _refusing_run(monkeypatch, model, hinted=False)
        assert unhinted[2] > 0
        _same_refusal(hinted, unhinted)
        with monkeypatch.context() as mp:
            mp.setattr(synth, "undetectable_modes", lambda *args: [])
            silenced = _refusing_run(monkeypatch, model)
        assert silenced[2] == unhinted[2] and silenced[3] == 2
        _same_refusal(silenced, unhinted)


def test_exists_uio_refuses_a_hidden_mode_of_a_pair_without_outputs(
        monkeypatch):
    # p = r and F invertible: N has full row rank 2p, so C_bar has no
    # rows, and the zero 1.4 of A - E F^-1 C fails condition (a).  The
    # staircase, run on A_bar alone, refuses as the unhinted design does.
    model = StateSpaceModel(
        A=np.array([[1.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]]),
        B=np.zeros((3, 0)), C=np.array([[0.1, 1.0, 1.0]]),
        D=np.zeros((1, 0)), E=np.array([[1.0], [0.0], [0.0]]),
        F=np.array([[1.0]]),
    )
    hinted = _refusing_run(monkeypatch, model)
    assert synth.model_kernel(model).k == model.n
    assert not hinted[0].condition_a and hinted[0].condition_b
    assert hinted[1][0] == synth.NOT_DETECTABLE
    assert np.allclose(hinted[1][2]["undetectable_modes"], [1.4])
    assert hinted[2:4] == (0, 1) and hinted[4][1] == 1
    unhinted = _refusing_run(monkeypatch, model, hinted=False)
    assert unhinted[2:4] == (0, 1) and unhinted[4][1] == 1
    _same_refusal(hinted, unhinted)


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


def test_exists_uio_solves_no_eigenproblem_until_the_detail_is_read(
        monkeypatch):
    # An n = 60 corpus plant with an observer: condition (a) deflates it to
    # no state and the design proves its loop Schur from the Riccati
    # solution, so the verdict solves no eigenvalue problem.  The detail of
    # the constructive run, and so `format_report`, solves exactly one.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    model = workloads.corpus_model(60, 12, 20, 6, seed=1)
    seen = []
    eigvals = np.linalg.eigvals

    def spy(M, *args, **kwargs):
        seen.append(np.array(M))
        return eigvals(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    report = exists_uio(model)
    assert report.exists and report.agreement and seen == []
    text = format_report(report)
    assert len(seen) == 1 and np.array_equal(seen[0], -report.uio.A_uio)
    assert f"constructive cross-check: {report.constructive_detail}" in text
    assert report.constructive_detail.startswith("design succeeded")
    assert len(seen) == 1


def test_format_report_flags_disagreement():
    forged = ExistenceReport(
        condition_a=True, condition_b=True, exists=True,
        evidence={"a": {}, "b": {}},
        constructive_succeeded=False, refusal="design refused",
        agreement=False,
    )
    assert "INTERNAL-CONSISTENCY ALARM" in format_report(forged)


def test_format_report_renders_a_report_built_without_diagnostics():
    built = ExistenceReport(
        condition_a=True, condition_b=True, exists=True,
        evidence={"a": {}, "b": {}},
        constructive_succeeded=True, refusal=None, agreement=True,
    )
    assert "constructive cross-check: design succeeded" in format_report(built)
