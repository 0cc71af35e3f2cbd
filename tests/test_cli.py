"""Command-line interface: exit codes, file round-trips, output contract."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uiokit
from uiokit import cli, demo, simlab
from uiokit.cli import CliError, main
from uiokit.datalog import TrajectoryFormatError, load_trajectory
from uiokit.demo import (
    DemoFixtures,
    default_fixtures,
    run_demo,
)
from uiokit.numkit import NotObservable, NumericalFailure, eig_assignment_error
from uiokit.plant import ModelFormatError, StateSpaceModel, UioRealization, save_model
from uiokit.synth import NoUio, UioFormatError, load_uio, save_uio, verify_uio


@pytest.fixture()
def model_file(tmp_path, ref_model):
    path = tmp_path / "model.json"
    save_model(path, ref_model)
    return str(path)


@pytest.fixture()
def counterexample_file(tmp_path, no_uio_model):
    path = tmp_path / "cx.json"
    save_model(path, no_uio_model)
    return str(path)


@pytest.fixture()
def uio_file(tmp_path, model_file):
    path = tmp_path / "uio.json"
    rc = main(["design", "--from-model", model_file, "--gain", "place",
               "--poles", "0,0,0.5", "--out", str(path)])
    assert rc == 0
    return str(path)


# ----------------------------------------------------------------- check


def test_check_reports_existence(model_file, capsys):
    assert main(["check", "--from-model", model_file]) == 0
    out = capsys.readouterr().out
    assert "observer exists: yes" in out
    assert "condition (a)" in out and "condition (b)" in out


def test_check_counterexample_exits_2(counterexample_file, capsys):
    assert main(["check", "--from-model", counterexample_file]) == 2
    assert "observer exists: no" in capsys.readouterr().out


def test_check_missing_file_exits_4(tmp_path, capsys):
    assert main(["check", "--from-model", str(tmp_path / "nope.json")]) == 4
    assert "error:" in capsys.readouterr().err


def test_check_malformed_json_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", "--from-model", str(bad)]) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "design"])
def test_non_finite_model_exits_4_as_invalid(tmp_path, ref_model, command,
                                             capsys):
    # Python's json reads and writes NaN, so such a file loads as numbers.
    doc = {key: getattr(ref_model, key).tolist()
           for key in ("A", "B", "C", "D", "E", "F")}
    doc["A"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--from-model", str(path)]) == 4
    err = capsys.readouterr().err
    assert "invalid model: non-finite entries in A" in err
    assert "SVD did not converge" not in err


def test_check_names_a_hidden_mode_with_one_sign(tmp_path, rotated_hidden_mode,
                                                capsys):
    # Condition (a) and the design refusal both name the plant's mode 1.3.
    path = tmp_path / "hidden.json"
    save_model(path, rotated_hidden_mode(4, 1, 2, 1, 1.3, 1))
    assert main(["check", "--from-model", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "  rank drops on/outside the unit circle: 1.3+0j" in lines
    assert ("constructive cross-check: design refused: NotDetectable: "
            "undetectable unstable modes of the plant: 1.3+0j") in lines


# ---------------------------------------------------------- numeric flags


def _no_input_model_file(tmp_path, A, C, E, F) -> str:
    n, p = len(A), len(C)
    path = tmp_path / "flags.json"
    save_model(path, StateSpaceModel(A=A, B=np.zeros((n, 0)), C=C,
                                     D=np.zeros((p, 0)), E=E, F=F))
    return str(path)


@pytest.mark.parametrize("command", ["check", "design"])
def test_schur_margin_reaches_the_verdict(tmp_path, command, capsys):
    # The hidden mode 0.5 is stable, but not by the margin 0.6.
    path = _no_input_model_file(tmp_path, [[0.5]], [[0.0]], [[0.0]], [[1.0]])
    assert main([command, "--from-model", path]) == 0
    capsys.readouterr()
    assert main([command, "--from-model", path, "--schur-margin", "0.6"]) == 2
    out = capsys.readouterr().out
    assert ("observer exists: no" if command == "check"
            else "NotDetectable") in out


@pytest.mark.parametrize("command", ["check", "design"])
def test_tol_rank_reaches_the_rank_decision(tmp_path, command, capsys):
    # CE = diag(1, 1e-8): full rank at machine precision, rank 1 once
    # singular values below 1e-6 of the largest count as zero.
    path = _no_input_model_file(tmp_path, 0.5 * np.eye(2),
                                np.diag([1.0, 1e-8]), np.eye(2),
                                np.zeros((2, 2)))
    assert main([command, "--from-model", path]) == 0
    capsys.readouterr()
    assert main([command, "--from-model", path, "--tol-rank", "1e-6"]) == 2
    out = capsys.readouterr().out
    if command == "check":
        assert "rank of [[CE, F], [F, 0]] = 1" in out
    else:
        assert "rank(V_f) = 1 < n = 2" in out


@pytest.mark.parametrize("command, value", [
    ("check", "nan"), ("check", "1"), ("design", "-1"), ("design", "inf"),
])
def test_schur_margin_outside_the_unit_interval_exits_4(
        model_file, command, value, capsys):
    # With margin -1 the Schur test would read |z| < 2 and pass a pole at
    # 1.5; with NaN every verdict comparison is false.
    argv = [command, "--from-model", model_file, f"--schur-margin={value}"]
    if command == "design":
        argv += ["--gain", "place", "--poles", "0,0,1.5"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "--schur-margin" in captured.err
    assert "observer exists" not in captured.out


@pytest.mark.parametrize("command", ["check", "design"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1"])
def test_tol_rank_must_be_a_relative_tolerance(model_file, command, value,
                                              capsys):
    assert main([command, "--from-model", model_file,
                 f"--tol-rank={value}"]) == 4
    err = capsys.readouterr().err
    assert "--tol-rank" in err
    assert "rank-deficient" not in err


def test_tol_rank_does_not_reach_model_validity(tmp_path, ref_model, capsys):
    # The second disturbance column is the first plus 1e-6 noise: [E; F]
    # has full column rank at the package default, so the model is valid,
    # and rank 1 at 1e-3.  --tol-rank governs the design's rank decisions,
    # not whether the model exists; neither route emits an observer.
    rng = np.random.default_rng(0)
    E = np.hstack([ref_model.E,
                   ref_model.E + 1e-6 * rng.standard_normal((3, 1))])
    F = np.hstack([ref_model.F,
                   ref_model.F + 1e-6 * rng.standard_normal((2, 1))])
    path = str(tmp_path / "near.json")
    save_model(path, StateSpaceModel(ref_model.A, ref_model.B, ref_model.C,
                                     ref_model.D, E, F))
    out_path = tmp_path / "uio.json"
    assert main(["check", "--from-model", path, "--tol-rank", "1e-3"]) == 2
    assert "observer exists: no" in capsys.readouterr().out
    assert main(["design", "--from-model", path, "--tol-rank", "1e-3",
                 "--out", str(out_path)]) == 4
    err = capsys.readouterr().err
    assert "invalid model" not in err
    assert "model-route design failed verification" in err
    assert not out_path.exists()


def test_simulate_takes_no_tol_rank(capsys):
    assert main(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--uio" in out
    assert "--tol-rank" not in out


@pytest.mark.parametrize("flag, value", [
    ("--u-range", "-inf,inf"), ("--d-range", "-1e308,1e308"),
    ("--x0-range", "nan,1"),
])
def test_collect_refuses_non_finite_ranges(model_file, flag, value, capsys):
    assert main(["collect", "--from-model", model_file, "--T", "5",
                 f"{flag}={value}"]) == 4
    err = capsys.readouterr().err
    assert flag in err and "finite" in err


def test_collect_refuses_a_run_that_overflows(model_file, capsys):
    assert main(["collect", "--from-model", model_file, "--T", "5",
                 "--u-range=1e308,1e308"]) == 4
    err = capsys.readouterr().err
    assert "overflowed" in err
    assert "SVD did not converge" not in err


def test_check_pencil_rank_deficient_everywhere_exits_2(tmp_path, capsys):
    # F = 0 and C = 0: no row of P(z) sees the disturbance at any z.
    path = _no_input_model_file(tmp_path, [[0.5]], [[0.0]], [[1.0]], [[0.0]])
    assert main(["check", "--from-model", path]) == 2
    out = capsys.readouterr().out
    assert "the pencil is rank deficient everywhere" in out
    assert "observer exists: no" in out


@pytest.mark.parametrize("command", ["collect", "simulate"])
def test_schur_margin_is_refused_where_no_verdict_reads_it(
        model_file, uio_file, command, capsys):
    argv = [command, "--from-model", model_file, "--T", "5",
            "--schur-margin", "0.3"]
    if command == "simulate":
        argv += ["--uio", uio_file]
    assert main(argv) == 4
    assert "--schur-margin" in capsys.readouterr().err


# ----------------------------------------------------------------- design


def test_design_from_model_writes_valid_observer(
        model_file, uio_file, ref_model, capsys):
    out = capsys.readouterr().out
    uio = load_uio(uio_file)
    report = verify_uio(ref_model, uio)
    assert report.is_uio
    eigs = np.linalg.eigvals(uio.A_uio)
    assert eig_assignment_error(eigs, [0, 0, 0.5]) < 1e-6


def test_design_stdout_json(model_file, capsys):
    assert main(["design", "--from-model", model_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"A_uio", "B_u", "B_y", "D_u", "D_y", "diagnostics"}
    assert doc["diagnostics"]["gain"] == "riccati"
    assert doc["diagnostics"]["schur"] is True


def test_design_place_requires_poles(model_file, capsys):
    # SynthesisOptions refuses the request, with the library's wording.
    assert main(["design", "--from-model", model_file,
                 "--gain", "place"]) == 4
    assert 'gain "place" needs a pole multiset' in capsys.readouterr().err


def test_design_place_names_the_repeated_pole_as_requested(tmp_path,
                                                          model_file, capsys):
    # rank(C_bar) = 2 for the bundled model, so a triple pole is refused,
    # by the A_uio pole the request names, not by its negation.
    out = tmp_path / "uio.json"
    assert main(["design", "--from-model", model_file, "--gain", "place",
                 "--poles", "0.5,0.5,0.5", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == ("numerical failure: pole 0.5 of A_uio is requested 3 "
                   "times; a pole has at most rank(Cbar) = 2 eigenvectors\n")
    assert not out.exists()


def test_design_riccati_refuses_poles(tmp_path, model_file, capsys):
    out = tmp_path / "uio.json"
    assert main(["design", "--from-model", model_file,
                 "--poles", "0,0,0.5", "--out", str(out)]) == 4
    assert "takes no poles" in capsys.readouterr().err
    assert not out.exists()


def test_design_rejects_bad_pole_token(model_file, capsys):
    assert main(["design", "--from-model", model_file, "--gain", "place",
                 "--poles", "0,0,oops"]) == 4
    assert "--poles" in capsys.readouterr().err


def test_design_refuses_bad_dims_even_on_the_model_route(model_file, capsys):
    # --dims is only read with --from-data, but it is parsed with the flags.
    assert main(["design", "--from-model", model_file, "--dims", "3,1"]) == 4
    assert capsys.readouterr().err.startswith("error: argument --dims: ")


def test_design_rejects_unstable_poles(model_file, capsys):
    assert main(["design", "--from-model", model_file, "--gain", "place",
                 "--poles", "0,0,1.5"]) == 4
    assert "error:" in capsys.readouterr().err


def test_design_takes_no_seed(model_file, capsys):
    assert main(["design", "--from-model", model_file, "--seed", "0"]) == 4
    assert "--seed" in capsys.readouterr().err


def test_design_counterexample_prints_certificate(
        counterexample_file, capsys):
    assert main(["design", "--from-model", counterexample_file]) == 2
    out = capsys.readouterr().out
    assert "no observer exists" in out
    assert "certificate:" in out


def test_design_from_data_round_trip(tmp_path, model_file, ref_model, capsys):
    traj = tmp_path / "traj.csv"
    assert main(["collect", "--from-model", model_file, "--T", "11",
                 "--out", str(traj)]) == 0
    out_path = tmp_path / "uio_data.json"
    rc = main(["design", "--from-data", str(traj),
               "--dims", "3,1,2,1", "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "excitation assumption holds" in out
    report = verify_uio(ref_model, load_uio(str(out_path)))
    assert report.is_uio


def test_design_from_measured_data_warns_but_designs(
        tmp_path, model_file, ref_model, capsys):
    # strip the disturbance columns: the assumption becomes unverifiable,
    # but the synthesis itself only needs x, u, y
    traj = tmp_path / "traj.csv"
    assert main(["collect", "--from-model", model_file, "--T", "11",
                 "--out", str(traj)]) == 0
    lines = traj.read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")
    keep = [i for i, c in enumerate(cols) if not c.startswith("d_")]
    stripped = "\n".join(
        ",".join(line.split(",")[i] for i in keep) for line in lines
    ) + "\n"
    measured = tmp_path / "measured.csv"
    measured.write_text(stripped, encoding="utf-8")
    out_path = tmp_path / "uio_measured.json"
    rc = main(["design", "--from-data", str(measured),
               "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "unverifiable" in out
    assert verify_uio(ref_model, load_uio(str(out_path))).is_uio


def test_design_from_zero_data_matches_zero_plant(
        tmp_path, model_file, capsys):
    # an all-zero record fails the excitation check, so the data route
    # refuses it (exit 4) after printing the FAIL line, and writes nothing
    traj = tmp_path / "zero.csv"
    assert main(["collect", "--from-model", model_file, "--T", "11",
                 "--u-range", "0,0", "--d-range", "0,0",
                 "--x0-range", "0,0", "--out", str(traj)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "zero_uio.json"
    rc = main(["design", "--from-data", str(traj), "--out", str(out_path)])
    captured = capsys.readouterr()
    assert rc == 4
    assert "excitation assumption FAILS" in captured.out
    assert "numerical failure: data route refused: excitation assumption " \
        "FAILS" in captured.err
    assert not out_path.exists()


def test_design_dims_mismatch_exits_4(tmp_path, model_file, capsys):
    traj = tmp_path / "traj.csv"
    assert main(["collect", "--from-model", model_file, "--T", "11",
                 "--out", str(traj)]) == 0
    assert main(["design", "--from-data", str(traj),
                 "--dims", "2,1,2"]) == 4
    assert "dims" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_design_from_data_with_non_finite_sample_exits_4(
        tmp_path, model_file, bad, capsys):
    traj = tmp_path / "traj.csv"
    assert main(["collect", "--from-model", model_file, "--T", "11",
                 "--out", str(traj)]) == 0
    lines = traj.read_text(encoding="utf-8").splitlines()
    fields = lines[4].split(",")
    fields[2] = bad
    lines[4] = ",".join(fields)
    traj.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["design", "--from-data", str(traj)]) == 4
    err = capsys.readouterr().err
    assert "row 3, column 'x_2'" in err
    assert "SVD did not converge" not in err


@pytest.mark.parametrize("where, field", [
    ("header", "d_" + "1" * 140000),
    ("numeric", "9" * 140000),
    ("text", "z" * 140000),
], ids=["header", "numeric", "text"])
def test_design_from_data_with_a_long_field_exits_4(tmp_path, model_file,
                                                    where, field, capsys):
    # A field longer than the csv module's limit of 131072 characters: in
    # the header, one that overflows to inf, and one that is no number.
    traj = tmp_path / "traj.csv"
    assert main(["collect", "--from-model", model_file, "--T", "3",
                 "--out", str(traj)]) == 0
    lines = traj.read_text(encoding="utf-8").splitlines()
    row = 0 if where == "header" else 2
    lines[row] = ",".join(lines[row].split(",")[:-1] + [field])
    traj.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["design", "--from-data", str(traj)]) == 4
    assert "Traceback" not in capsys.readouterr().err


def test_design_rejects_model_and_data_together(model_file, capsys):
    rc = main(["design", "--from-model", model_file, "--from-data", "x.csv"])
    assert rc == 4


# ----------------------------------------------------------------- collect


def test_collect_writes_trajectory(tmp_path, model_file, capsys):
    path = tmp_path / "data.csv"
    assert main(["collect", "--from-model", model_file, "--T", "11",
                 "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wrote 11 samples" in out
    assert "excitation assumption holds" in out
    data = load_trajectory(str(path))
    assert data.T == 11
    assert data.x.shape == (11, 3)


def test_collect_stdout_mode(model_file, capsys):
    assert main(["collect", "--from-model", model_file, "--T", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("t,x_1")
    assert "excitation assumption" in captured.err


def test_collect_zero_ranges_flags_poor_excitation(
        tmp_path, model_file, capsys):
    assert main(["collect", "--from-model", model_file, "--T", "11",
                 "--u-range", "0,0", "--d-range", "0,0",
                 "--x0-range", "0,0", "--out", str(tmp_path / "z.csv")]) == 0
    assert "FAILS" in capsys.readouterr().out


def test_collect_T_too_small_exits_4(model_file, capsys):
    assert main(["collect", "--from-model", model_file, "--T", "1"]) == 4
    assert "--T" in capsys.readouterr().err


def test_collect_bad_range_exits_4(model_file, capsys):
    assert main(["collect", "--from-model", model_file, "--T", "5",
                 "--u-range", "4,-4"]) == 4
    assert "empty range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["collect", "simulate"])
@pytest.mark.parametrize("flag, value, text", [
    ("--u-range", "4,-4", "empty range"),
    ("--d-range", "0,inf", "finite"),
    ("--x0-range", "1,x", "could not convert"),
    ("--x0-range", "1", "expects LO,HI"),
])
def test_range_errors_name_the_flag(model_file, uio_file, command, flag,
                                    value, text, capsys):
    base = {"collect": ["collect", "--from-model", model_file, "--T", "5"],
            "simulate": ["simulate", "--from-model", model_file, "--uio",
                         uio_file, "--T", "5"]}[command]
    capsys.readouterr()
    assert main(base + [f"{flag}={value}"]) == 4
    err = capsys.readouterr().err
    # argparse reports the range's own refusal under the flag's name.
    assert err.startswith(f"error: argument {flag}: ") and text in err


def test_collect_is_deterministic(tmp_path, model_file):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    for path in (a, b):
        assert main(["collect", "--from-model", model_file, "--T", "9",
                     "--seed", "7", "--out", str(path)]) == 0
    assert main(["collect", "--from-model", model_file, "--T", "9",
                 "--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


# ----------------------------------------------------------------- simulate


def test_simulate_reports_stats(tmp_path, model_file, uio_file, capsys):
    trace_path = tmp_path / "trace.csv"
    rc = main(["simulate", "--from-model", model_file, "--uio", uio_file,
               "--T", "12", "--out", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final error norm:" in out
    assert "error recursion check: ok" in out
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("t,x_1")
    assert "e_1" in lines[0]
    assert len(lines) == 13


def test_simulate_exact_init_zeroes_the_error(
        tmp_path, model_file, uio_file, capsys):
    trace_path = tmp_path / "exact.csv"
    rc = main(["simulate", "--from-model", model_file, "--uio", uio_file,
               "--T", "10", "--exact-init", "--out", str(trace_path)])
    assert rc == 0
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")
    e_idx = [i for i, c in enumerate(cols) if c.startswith("e_")]
    worst = max(abs(float(line.split(",")[i]))
                for line in lines[1:] for i in e_idx)
    assert worst < 1e-8


def test_simulate_flags_non_acceptor(tmp_path, model_file, uio_file, capsys):
    uio = load_uio(uio_file)
    B_bad = uio.B_y.copy()
    B_bad[0, 0] += 0.25
    bad = UioRealization(uio.A_uio, uio.B_u, B_bad, uio.D_u, uio.D_y)
    bad_path = tmp_path / "bad.json"
    save_uio(bad_path, bad)
    rc = main(["simulate", "--from-model", model_file,
               "--uio", str(bad_path), "--T", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error recursion check: FAILED" in out
    assert "not an acceptor" in out


def test_simulate_non_finite_observer_exits_4(
        tmp_path, model_file, uio_file, capsys):
    doc = json.loads(Path(uio_file).read_text(encoding="utf-8"))
    doc["A_uio"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--from-model", model_file,
                 "--uio", str(path)]) == 4
    captured = capsys.readouterr()
    assert 'field "A_uio" has non-finite entries' in captured.err
    assert "final error norm" not in captured.out


def test_simulate_refuses_an_observer_that_overflows(
        tmp_path, model_file, uio_file, capsys):
    # A_uio * 1e308 keeps every entry finite, but z(t) leaves the float64
    # range within a few samples.
    doc = json.loads(Path(uio_file).read_text(encoding="utf-8"))
    doc["A_uio"] = [[v * 1e308 for v in row] for row in doc["A_uio"]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--from-model", model_file,
                 "--uio", str(path), "--T", "5"]) == 4
    out, err = capsys.readouterr()
    assert re.match(r"error: simulating the observer overflowed at sample "
                    r"\d+:", err)
    assert "encountered in" not in err and "nan" not in out


def test_simulate_dims_mismatch_exits_4(tmp_path, model_file, capsys):
    small = UioRealization(np.zeros((2, 2)), np.zeros((2, 1)),
                           np.zeros((2, 2)), np.zeros((2, 1)),
                           np.zeros((2, 2)))
    path = tmp_path / "small.json"
    save_uio(path, small)
    assert main(["simulate", "--from-model", model_file,
                 "--uio", str(path)]) == 4
    assert "dims" in capsys.readouterr().err


def test_simulate_error_norm_survives_squares_that_overflow(
        model_file, uio_file, capsys):
    # |e| ~ 1e306 is finite but its square is not; pytest turns numpy's
    # overflow RuntimeWarning into an error, so a leak fails here too.
    capsys.readouterr()
    assert main(["simulate", "--from-model", model_file, "--uio", uio_file,
                 "--T", "3", "--x0-range=1e306,1e306"]) == 0
    out = capsys.readouterr().out
    norm = float(out.split("final error norm: ")[1].split()[0])
    rate = float(out.split("fitted log-decay rate: ")[1].split()[0])
    assert 1e305 < norm < np.inf and np.isfinite(rate)


def test_out_of_memory_exits_4(model_file, uio_file, monkeypatch, capsys):
    # numpy raises a MemoryError subclass when an array cannot be allocated
    # (e.g. simulate --T 1000000000000); whether a real huge T fails at once
    # depends on the host's overcommit policy, so the error is injected.
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(simlab, "run", exhausted)
    capsys.readouterr()
    assert main(["simulate", "--from-model", model_file, "--uio", uio_file,
                 "--T", "1000000000000"]) == 4
    out, err = capsys.readouterr()
    assert err.startswith("error: out of memory")
    assert "Traceback" not in out + err and "Unable to allocate" not in err


def test_simulate_trace_is_deterministic(tmp_path, model_file, uio_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["simulate", "--from-model", model_file,
                     "--uio", uio_file, "--T", "9", "--seed", "3",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------- demo-paper


@pytest.mark.parametrize("gain", ["place", "riccati"])
def test_demo_paper_passes(gain, capsys):
    assert main(["demo-paper", "--gain", gain]) == 0
    out = capsys.readouterr().out
    assert "demo passed" in out
    assert "[FAIL]" not in out


def test_demo_paper_writes_trace(tmp_path, capsys):
    path = tmp_path / "demo.csv"
    assert main(["demo-paper", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8").startswith("t,x_1")


def test_demo_detects_corrupted_reference():
    fx = default_fixtures()
    broken = fx.uio.A_uio.copy()
    broken[0, 0] += 0.1
    bad = DemoFixtures(
        model=fx.model,
        kernel_matrix=fx.kernel_matrix,
        uio=UioRealization(broken, fx.uio.B_u, fx.uio.B_y,
                           fx.uio.D_u, fx.uio.D_y),
        poles=fx.poles,
    )
    report = run_demo(fixtures=bad)
    assert not report.passed
    assert "[FAIL]" in report.render()


def test_demo_reports_the_data_route_refusal(monkeypatch):
    # Collect without draws: all-zero signals fail the excitation check,
    # and the data-route line carries design_from_data's refusal.
    real = demo.collect
    monkeypatch.setattr(demo, "collect",
                        lambda model, T, **draws: real(model, T))
    report = run_demo()
    assert not report.passed
    assert ("data route", False,
            "data route refused: excitation assumption FAILS (rank 0 of 7)"
            ) in report.checks


# ------------------------------------------------------------------- misc


def test_version_and_help_exit_0(capsys):
    assert main(["--version"]) == 0
    assert "uiokit" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert "design" in capsys.readouterr().out


def test_no_command_exits_4(capsys):
    assert main([]) == 4
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits_4(capsys):
    assert main(["frobnicate"]) == 4


@pytest.mark.parametrize("exc, code", [
    pytest.param(exc, code, id=type(exc).__name__) for exc, code in [
        (CliError("usage"), 4),
        (NoUio("Cause", "detail"), 2),
        (ModelFormatError("model"), 4),
        (TrajectoryFormatError("trajectory"), 4),
        (UioFormatError("observer"), 4),
        (NotObservable("observable"), 4),
        (NumericalFailure("numerics"), 4),
        (ValueError("value"), 4),
        (OSError("os"), 4),
    ]
])
def test_exception_from_a_subcommand_maps_to_its_exit_code(
    exc, code, monkeypatch, capsys
):
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_check", raising)
    assert main(["check", "--from-model", "unused.json"]) == code
    captured = capsys.readouterr()
    assert str(exc) in captured.out + captured.err


def test_cli_import_leaves_scipy_optimize_unloaded(model_file, tmp_path):
    # scipy.optimize roughly doubles the import time every CLI call pays;
    # neither the import nor a pole-placement design may load it.
    src = str(Path(uiokit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, uiokit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    argv = ["design", "--from-model", model_file, "--gain", "place",
            "--poles", "0,0,0.5", "--out", str(tmp_path / "uio.json")]
    code = ("import sys; from uiokit.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, 'scipy.optimize' in sys.modules, file=sys.stderr)")
    err = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stderr
    assert err.strip().splitlines()[-1] == "0 False"


def _modules_after(code, env):
    """The scipy modules and the uiokit modules, each sorted, that a fresh
    interpreter running ``code`` has loaded."""
    probe = (code + "\nimport json, sys; print(json.dumps(sorted(m for m in "
             "sys.modules if m.split('.')[0] in ('scipy', 'uiokit'))), "
             "file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.strip().splitlines()[-1])
    return ([m for m in loaded if m.split(".")[0] == "scipy"],
            [m for m in loaded if m.split(".")[0] == "uiokit"])


#: The modules each subcommand runs, which are all it may load.
_MODEL_DESIGN = ["numkit", "plant", "synth"]
_ALL = ["numkit", "plant", "datalog", "synth", "existcheck", "simlab", "demo"]


@pytest.mark.parametrize("argv, loads", [
    (None, None),
    (["check", "--from-model", "{model}"], _MODEL_DESIGN + ["existcheck"]),
    (["design", "--from-model", "{model}", "--out", "{dir}/riccati.json"],
     _MODEL_DESIGN),
    (["design", "--from-model", "{model}", "--gain", "place",
      "--poles", "0,0,0.5", "--out", "{dir}/place.json"], _MODEL_DESIGN),
    (["collect", "--from-model", "{model}", "--T", "11", "--seed", "0",
      "--out", "{dir}/fresh.csv"], ["numkit", "plant", "datalog"]),
    (["design", "--from-data", "{data}", "--dims", "3,1,2",
      "--out", "{dir}/data.json"], _MODEL_DESIGN + ["datalog"]),
    (["simulate", "--from-model", "{model}", "--uio", "{uio}", "--T", "12",
      "--exact-init", "--out", "{dir}/trace.csv"],
     ["numkit", "plant", "datalog", "simlab"]),
    (["demo-paper", "--gain", "place"], _ALL),
], ids=["import", "check", "design-riccati", "design-place", "collect",
        "design-data", "simulate", "demo-paper"])
def test_cli_runs_without_loading_scipy(argv, loads, model_file, uio_file,
                                        tmp_path):
    # numpy is the only runtime dependency: neither `import uiokit` nor any
    # subcommand may load a scipy module (scipy is a test-only oracle).
    # Every call pays for the modules it imports, so `import uiokit` loads
    # no submodule and a subcommand loads only the modules it runs.
    src = str(Path(uiokit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    if argv is None:
        assert _modules_after("import uiokit", env) == ([], ["uiokit"])
        return
    data = tmp_path / "data.csv"
    assert main(["collect", "--from-model", model_file, "--T", "11",
                 "--seed", "0", "--out", str(data)]) == 0
    argv = [a.format(model=model_file, uio=uio_file, data=data, dir=tmp_path)
            for a in argv]
    code = f"from uiokit.cli import main; assert main({argv!r}) == 0"
    expected = sorted(["uiokit", "uiokit.cli"]
                      + [f"uiokit.{name}" for name in loads])
    assert _modules_after(code, env) == ([], expected)
