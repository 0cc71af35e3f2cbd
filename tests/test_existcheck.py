"""The two rank conditions for observer existence and their cross-check."""

import copy
import importlib
import pickle
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


def _workloads(monkeypatch):
    """The benchmark's workloads module, for its corpus plants."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    return importlib.import_module("workloads")


def _refusing_run(monkeypatch, model, replayed=True):
    """exists_uio's report on ``model`` and what it ran: the zero
    reductions, zero staircases, model kernels, inverses and designs, and
    the n x n eigenvalue problems solved.  With ``replayed`` False no
    witness counts as replayed, so exists_uio designs as any caller does
    and a Riccati design refuses by its doubling's rule."""
    runs = {name: 0 for name in ("reductions", "staircases", "kernels",
                                 "inverses", "designs", "eigensolves")}

    def counting(name, original, shape=None):
        def spy(*args, **kwargs):
            if shape is None or np.shape(args[0]) == shape:
                runs[name] += 1
            return original(*args, **kwargs)
        return spy

    with monkeypatch.context() as mp:
        for module, name, counter in (
                (numkit, "_zero_reduction", "reductions"),
                (existcheck, "_zero_reduction", "reductions"),
                (numkit, "undetectable_modes", "staircases"),
                (synth, "model_kernel", "kernels"),
                (existcheck, "design_from_model", "designs")):
            mp.setattr(module, name, counting(counter, getattr(module, name)))
        mp.setattr(np.linalg, "inv", counting("inverses", np.linalg.inv))
        mp.setattr(np.linalg, "eigvals", counting(
            "eigensolves", np.linalg.eigvals, (model.n, model.n)))
        if not replayed:
            mp.setattr(existcheck, "_replays", lambda record: False)
        report = exists_uio(model)
    return report, runs


def _refusal_line(report) -> str:
    (line,) = [line for line in format_report(report).splitlines()
               if line.startswith("constructive cross-check: ")]
    return line


@pytest.mark.parametrize("n", [20, 40, 60])
def test_exists_uio_refuses_a_hidden_mode_before_the_riccati_doubling(
        monkeypatch, n):
    # Every third corpus plant hides a mode at 1.3, which condition (a)
    # finds.  Its witness replays on the plant, so exists_uio refuses from
    # it: one zero reduction, condition (a)'s, and no kernel, staircase,
    # inverse (no doubling step) or n x n eigenvalue problem.  A run whose
    # witness does not count as replayed designs instead, and its doubling
    # refuses with the same report and the same refusal line.
    workloads = _workloads(monkeypatch)
    for seed in (0, 3, 6, 9):
        model = workloads.corpus_model(n, *workloads.corpus_dims(n), seed=seed)
        report, runs = _refusing_run(monkeypatch, model)
        assert not report.condition_a and report.condition_b
        assert report.refusal == ("design refused: NotDetectable: "
                                  "undetectable unstable modes of the plant: "
                                  "1.3+0j")
        assert all(map(existcheck._replays, report.evidence["replays"]))
        assert runs == {"reductions": 1, "staircases": 0, "kernels": 0,
                        "inverses": 0, "designs": 0, "eigensolves": 0}
        doubled, doubled_runs = _refusing_run(monkeypatch, model,
                                              replayed=False)
        assert doubled_runs["designs"] == doubled_runs["kernels"] == 1
        assert doubled_runs["staircases"] == 1
        assert doubled_runs["inverses"] > 0
        assert _same(report, doubled)
        assert _refusal_line(report) == _refusal_line(doubled)


def test_exists_uio_refuses_a_hidden_mode_of_a_pair_without_outputs(
        monkeypatch):
    # p = r and F invertible: N has full row rank 2p, so C_bar has no
    # rows, and the zero 1.4 of A - E F^-1 C fails condition (a).  Its
    # witness refuses as the design, which runs the staircase on A_bar
    # alone, does.
    model = StateSpaceModel(
        A=np.array([[1.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]]),
        B=np.zeros((3, 0)), C=np.array([[0.1, 1.0, 1.0]]),
        D=np.zeros((1, 0)), E=np.array([[1.0], [0.0], [0.0]]),
        F=np.array([[1.0]]),
    )
    assert synth.model_kernel(model).k == model.n
    report, runs = _refusing_run(monkeypatch, model)
    assert not report.condition_a and report.condition_b
    (record,) = report.evidence["replays"]
    assert existcheck._replays(record) and abs(record["zero"] - 1.4) < 1e-12
    assert runs["reductions"] == 1 and runs["staircases"] == 0
    doubled, doubled_runs = _refusing_run(monkeypatch, model, replayed=False)
    assert doubled_runs["staircases"] == 1 and doubled_runs["inverses"] == 0
    assert _same(report, doubled)
    assert _refusal_line(report) == _refusal_line(doubled)


def test_exists_uio_designs_as_any_caller_when_a_witness_does_not_replay(
        monkeypatch, rotated_hidden_mode):
    # A witness that fails its replay proves nothing: exists_uio then calls
    # design_from_model as a direct caller does, with no keyword, and its
    # Riccati doubling refuses with the NoUio of a direct call on a fresh
    # copy of the model, which reads no stage of that run.
    model = rotated_hidden_mode(6, 1, 3, 1, 1.3, 1)
    calls = []
    design = synth.design_from_model

    def recording(*args, **kwargs):
        calls.append(sorted(kwargs))
        return design(*args, **kwargs)

    monkeypatch.setattr(existcheck, "_replays", lambda record: False)
    monkeypatch.setattr(existcheck, "design_from_model", recording)
    report = exists_uio(model)
    assert calls == [[]]
    with pytest.raises(synth.NoUio) as direct:
        design(replace(model))
    assert report.refusal == f"design refused: {direct.value}"
    assert report.agreement and not report.constructive_succeeded
    assert "does not replay" in format_report(report)


def test_refusing_report_survives_pickle_copy_and_comparison(monkeypatch):
    workloads = _workloads(monkeypatch)
    model = workloads.corpus_model(20, *workloads.corpus_dims(20), seed=0)
    report = exists_uio(model)
    assert not report.exists and report.evidence["replays"]
    for witness in report.evidence["a"]["witnesses"]:
        assert all(type(v) is float for v in witness["x0"] + witness["d0"])
    assert report == exists_uio(model)
    for twin in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                 copy.deepcopy(report)):
        assert twin == report
        assert format_report(twin) == format_report(report)


def _refusing_corpus(monkeypatch):
    """The corpus plants with a hidden mode: the model-n60 plants (seeds
    0-299, every third) and the n = 8, 20, 40 corpus (seeds 0-39) whose
    condition (a) drops a zero, as (model, witnesses)."""
    workloads = _workloads(monkeypatch)
    plants = [workloads.corpus_model(60, 12, 20, 6, seed=seed)
              for seed in range(0, 300, 3)]
    plants += [workloads.corpus_model(n, *workloads.corpus_dims(n), seed=seed)
               for n in (8, 20, 40) for seed in range(40)]
    found = []
    for model in plants:
        ok, evidence = condition_a(model)
        if not ok:
            found.append((model, evidence["witnesses"]))
    return found


def test_every_corpus_witness_replays_without_a_factorization(monkeypatch):
    refusing = _refusing_corpus(monkeypatch)
    assert len(refusing) == 142

    def factorization(*args, **kwargs):
        raise AssertionError("the replay factored a matrix")

    with monkeypatch.context() as mp:
        for name in ("svd", "qr", "eig", "eigvals", "eigh", "eigvalsh",
                     "inv", "solve"):
            mp.setattr(np.linalg, name, factorization)
        records = [existcheck._replay(model, witness, numkit.SCHUR_MARGIN)
                   for model, witnesses in refusing for witness in witnesses]
    assert len(records) == 142
    for record in records:
        assert existcheck._replays(record), record
        assert record["steps"] >= 3 and record["growth"] >= 1.3 ** 3 - 1e-9


def test_every_not_detectable_refusal_carries_a_replaying_witness(
        monkeypatch):
    workloads = _workloads(monkeypatch)
    refusals = 0
    for n in (8, 20, 40):
        for seed in range(40):
            model = workloads.corpus_model(n, *workloads.corpus_dims(n),
                                           seed=seed)
            report = exists_uio(model)
            if report.refusal and "NotDetectable" in report.refusal:
                refusals += 1
                replays = report.evidence["replays"]
                assert replays and all(map(existcheck._replays, replays))
    assert refusals == 42


def _hidden_rotation(rho: float, theta: float, seed: int) -> StateSpaceModel:
    """n = 6 plant hiding the pair rho e^(+-i theta) from C, in a random
    orthogonal basis; F is random."""
    rng = np.random.default_rng(seed)
    n, m, p, r = 6, 1, 3, 1
    A = 0.3 * rng.standard_normal((n, n))
    C = rng.standard_normal((p, n))
    A[:, :2] = 0.0
    A[:2, :2] = rho * np.array([[np.cos(theta), -np.sin(theta)],
                                [np.sin(theta), np.cos(theta)]])
    C[:, :2] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return StateSpaceModel(
        A=Q @ A @ Q.T, B=Q @ rng.standard_normal((n, m)), C=C @ Q.T,
        D=rng.standard_normal((p, m)), E=Q @ rng.standard_normal((n, r)),
        F=rng.standard_normal((p, r)))


@pytest.mark.parametrize("seed", range(3))
def test_a_hidden_conjugate_pair_replays_through_its_real_part(
        monkeypatch, seed):
    model = _hidden_rotation(1.2, 0.7, seed)
    report, runs = _refusing_run(monkeypatch, model)
    pair = 1.2 * np.exp(0.7j)
    assert sorted(report.evidence["a"]["drops"], key=lambda z: z.imag) == \
        pytest.approx([pair.conjugate(), pair], abs=1e-12)
    for witness in report.evidence["a"]["witnesses"]:
        assert all(type(v) is complex for v in witness["x0"])
    for record in report.evidence["replays"]:
        # The real part of the trajectory, turned so that x(T) lies on the
        # long axis of its ellipse, grows at least as |z|^T.
        assert existcheck._replays(record)
        assert record["growth"] >= 1.2 ** record["steps"] * (1 - 1e-12)
    assert report.refusal.startswith("design refused: NotDetectable: ")
    assert runs["staircases"] == runs["designs"] == runs["inverses"] == 0


@pytest.mark.parametrize("seed", range(4))
def test_check_and_a_direct_design_name_a_hidden_pair_in_one_order(seed):
    # check refuses from condition (a)'s zeros, in LAPACK's order; a direct
    # design, on a fresh copy that reads no stage of the check, names the
    # staircase's modes of the plant.  Both list the pair +j first.
    model = _hidden_rotation(1.2, 0.7, seed)
    report = exists_uio(model)
    with pytest.raises(synth.NoUio) as direct:
        synth.design_from_model(replace(model))
    assert _refusal_line(report) == (
        f"constructive cross-check: design refused: {direct.value}")
    first, second = direct.value.evidence["undetectable_modes"]
    assert first.imag > 0 > second.imag and first == second.conjugate()


@pytest.mark.parametrize("mode", [1.0, -1.0, 1.0 - 5e-10])
def test_a_hidden_mode_on_the_unit_circle_is_refused_for_not_decaying(
        monkeypatch, rotated_hidden_mode, mode):
    # Within schur_margin of the circle the state does not grow, and need
    # not: it keeps its size, above the floor (1 - margin)^T.
    model = rotated_hidden_mode(4, 1, 2, 1, mode, 1)
    report, runs = _refusing_run(monkeypatch, model)
    (record,) = report.evidence["replays"]
    assert existcheck._replays(record)
    assert record["growth"] == pytest.approx(abs(mode) ** record["steps"],
                                             abs=1e-12)
    assert record["growth"] <= 1.0 + 1e-12
    assert record["growth_floor"] < 1.0
    assert report.refusal.startswith("design refused: NotDetectable: ")
    assert runs["staircases"] == runs["designs"] == 0


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
    model = _workloads(monkeypatch).corpus_model(60, 12, 20, 6, seed=1)
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
