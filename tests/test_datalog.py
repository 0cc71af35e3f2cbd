"""Trajectory recording, past/future blocks, excitation checks, files."""

import csv
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uiokit.datalog import (
    HistoricalData,
    TrajectoryFormatError,
    Uniform,
    build_blocks,
    collect,
    excitation_report,
    load_trajectory,
    render_trajectory,
    save_trajectory,
)
from uiokit.numkit import left_null_basis, rank
from uiokit.plant import consistency_matrix, step


def _bundled_run(model, T=11, seed=0):
    return collect(
        model, T,
        input_policy=Uniform(-4.0, 4.0),
        disturbance_policy=Uniform(-3.0, 3.0),
        x0=Uniform(-1.0, 1.0),
        seed=seed,
    )


# -------------------------------------------------------------- collect


def test_collect_reference_run_shapes(ref_model):
    data = _bundled_run(ref_model)
    assert data.T == 11
    assert data.x.shape == (11, 3)
    assert data.u.shape == (11, 1)
    assert data.y.shape == (11, 2)
    assert data.d.shape == (11, 1)


def test_collect_obeys_the_plant(ref_model):
    data = _bundled_run(ref_model)
    for t in range(10):
        x_next, y = step(ref_model, data.x[t], data.u[t], data.d[t])
        assert_allclose(data.x[t + 1], x_next, atol=1e-12)
        assert_allclose(data.y[t], y, atol=1e-12)


def test_collect_matches_step_recursion_on_unstable_n40(rotated_hidden_mode):
    # A mode at 1.3 hidden from C: x grows while y stays small.  Each signal
    # is compared on the scale of the terms that form it.
    model = rotated_hidden_mode(40, 8, 13, 4, 1.3, seed=3)
    T = 60
    data = collect(model, T, input_policy=Uniform(-4.0, 4.0),
                   disturbance_policy=Uniform(-3.0, 3.0),
                   x0=Uniform(-1.0, 1.0), seed=3)
    out_gain = np.abs(np.hstack([model.C, model.D, model.F])).sum(1).max()
    x = data.x[0]
    for t in range(T):
        x_next, y = step(model, x, data.u[t], data.d[t])
        w = np.concatenate([x, data.u[t], data.d[t]])
        assert_allclose(data.x[t], x, rtol=0, atol=1e-12 * np.abs(x).max())
        assert_allclose(data.y[t], y, rtol=0,
                        atol=1e-12 * out_gain * np.abs(w).max())
        x = x_next
    assert np.abs(data.x[-1]).max() > 1e4


def test_collect_is_deterministic_per_seed(ref_model):
    a = _bundled_run(ref_model, seed=5)
    b = _bundled_run(ref_model, seed=5)
    c = _bundled_run(ref_model, seed=6)
    assert_allclose(a.x, b.x)
    assert_allclose(a.d, b.d)
    assert not np.allclose(a.u, c.u)


def test_collect_zero_policies(ref_model):
    data = collect(ref_model, 2)
    assert_allclose(data.x, np.zeros((2, 3)))
    assert_allclose(data.y, np.zeros((2, 2)))
    assert_allclose(data.d, np.zeros((2, 1)))


def test_collect_explicit_input_of_wrong_length(ref_model):
    with pytest.raises(ValueError, match="input"):
        collect(ref_model, 5, input_policy=np.ones((4, 1)))


def test_collect_needs_two_samples(ref_model):
    with pytest.raises(ValueError):
        collect(ref_model, 1)


# --------------------------------------------------------- build_blocks


def test_blocks_single_window(ref_model):
    blocks = build_blocks(collect(ref_model, 2, input_policy=Uniform(-1, 1)))
    assert blocks.columns == 1
    assert blocks.Phi.shape == (12, 1)


def test_blocks_bundled_dimensions(ref_model):
    blocks = build_blocks(_bundled_run(ref_model), dims=(3, 1, 2, 1))
    assert blocks.Phi.shape == (12, 10)
    assert blocks.X_p.shape == (3, 10)
    assert blocks.D_f.shape == (1, 10)


def test_blocks_are_shifted_copies(ref_model):
    data = _bundled_run(ref_model)
    blocks = build_blocks(data)
    assert_allclose(blocks.X_f[:, :-1], blocks.X_p[:, 1:])
    # dropping the first sample turns old future columns into new past ones
    shifted = HistoricalData(x=data.x[1:], u=data.u[1:], y=data.y[1:],
                             d=data.d[1:])
    again = build_blocks(shifted)
    assert_allclose(again.X_p, blocks.X_f[:, :again.columns])
    assert_allclose(again.U_p, blocks.U_f[:, :again.columns])


def test_blocks_reject_wrong_declared_dims(ref_model):
    data = _bundled_run(ref_model)
    with pytest.raises(ValueError, match="dims"):
        build_blocks(data, dims=(3, 2, 2))
    with pytest.raises(ValueError, match="r ="):
        build_blocks(data, dims=(3, 1, 2, 2))


# ----------------------------------------------------------- assumption


def test_assumption_holds_on_bundled_run(ref_model):
    blocks = build_blocks(_bundled_run(ref_model))
    report = excitation_report(blocks)
    assert report.mode == "assumption"
    assert report.ok
    assert (report.rank, report.required) == (7, 7)


def test_assumption_fails_for_zero_data(ref_model):
    blocks = build_blocks(collect(ref_model, 11))
    report = excitation_report(blocks)
    assert report.mode == "assumption"
    assert not report.ok


def test_assumption_fails_with_too_few_columns(ref_model):
    # 6 columns cannot carry a rank-7 stack
    blocks = build_blocks(_bundled_run(ref_model, T=7))
    report = excitation_report(blocks)
    assert report.mode == "assumption"
    assert not report.ok


def test_assumption_requires_disturbance_record(ref_model):
    data = _bundled_run(ref_model)
    measured = HistoricalData(x=data.x, u=data.u, y=data.y)
    blocks = build_blocks(measured)
    report = excitation_report(blocks)
    assert report.mode == "surrogate"
    assert "unverifiable" in report.message
    assert report.ok  # [X_p; U_p; U_f] is 5x10 and full rank here


def test_phi_image_matches_consistency_image(ref_model):
    # rank(Phi) = rank(Gamma) = rank([Phi Gamma]) = 7 on an assumption run
    blocks = build_blocks(_bundled_run(ref_model))
    Gamma = consistency_matrix(ref_model)
    assert rank(blocks.Phi) == 7
    assert rank(np.hstack([blocks.Phi, Gamma])) == 7


# ------------------------------------------------------------ file I/O


def test_trajectory_round_trip_exact(tmp_path, ref_model):
    data = _bundled_run(ref_model)
    path = tmp_path / "run.csv"
    save_trajectory(path, data)
    loaded = load_trajectory(path)
    # bit-exact: files use shortest round-trip decimals
    assert np.array_equal(loaded.x, data.x)
    assert np.array_equal(loaded.u, data.u)
    assert np.array_equal(loaded.y, data.y)
    assert np.array_equal(loaded.d, data.d)


def test_trajectory_round_trip_without_disturbance(tmp_path, ref_model):
    data = _bundled_run(ref_model)
    measured = HistoricalData(x=data.x, u=data.u, y=data.y)
    path = tmp_path / "measured.csv"
    save_trajectory(path, measured)
    loaded = load_trajectory(path)
    assert loaded.d is None
    assert np.array_equal(loaded.x, data.x)


def test_trajectory_header(ref_model):
    text = render_trajectory(_bundled_run(ref_model))
    header = text.splitlines()[0]
    assert header == "t,x_1,x_2,x_3,u_1,y_1,y_2,d_1"


def test_render_is_deterministic(ref_model):
    data = _bundled_run(ref_model)
    assert render_trajectory(data) == render_trajectory(data)


def _csv_writer_text(header, blocks):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for t in range(blocks[0].shape[0]):
        writer.writerow([str(t)] + [repr(float(v)) for b in blocks for v in b[t]])
    return buf.getvalue()


def test_render_equals_csv_writer_text():
    x = np.array([[0.1, -0.0], [1e22, 5e-324], [1.0 / 3.0, -2.5e-308]])
    u = np.array([[1.0], [-1e-5], [123456789.125]])
    y = np.array([[np.pi], [0.0], [-7.0]])
    d = np.array([[2.0 ** -30], [1e300], [-0.5]])
    header = ["t", "x_1", "x_2", "u_1", "y_1", "d_1"]
    data = HistoricalData(x=x, u=u, y=y, d=d)
    assert render_trajectory(data) == _csv_writer_text(header, [x, u, y, d])
    measured = HistoricalData(x=x, u=u, y=y)
    assert render_trajectory(measured) == _csv_writer_text(header[:-1], [x, u, y])


def _write(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_rejects_missing_time_column(tmp_path):
    path = _write(tmp_path, "x_1,u_1,y_1\n0,0,0\n1,0,0\n")
    with pytest.raises(TrajectoryFormatError, match='"t"'):
        load_trajectory(path)


def test_load_rejects_out_of_order_groups(tmp_path):
    path = _write(tmp_path, "t,u_1,x_1,y_1\n0,0,0,0\n1,0,0,0\n")
    with pytest.raises(TrajectoryFormatError):
        load_trajectory(path)


def test_load_rejects_gapped_numbering(tmp_path):
    path = _write(tmp_path, "t,x_1,x_3,u_1,y_1\n0,0,0,0,0\n1,0,0,0,0\n")
    with pytest.raises(TrajectoryFormatError):
        load_trajectory(path)


@pytest.mark.parametrize("header, column", [
    ("t,x_1,u_1,v_1,y_1", "'v_1' at position 3"),
    ("t,x_1,x_1,u_1,y_1", "'x_1' at position 2"),
    ("t,x_1,u_1,d_1,y_1", "'d_1' at position 3"),
    ("t,x_1,u_1", None),
])
def test_load_rejects_headers_the_writer_never_writes(tmp_path, header,
                                                      column):
    width = header.count(",") + 1
    body = "".join(",".join([str(t)] + ["0"] * (width - 1)) + "\n"
                   for t in range(2))
    path = _write(tmp_path, header + "\n" + body)
    match = "y_\\* columns" if column is None else f"unexpected column {column}"
    with pytest.raises(TrajectoryFormatError, match=match):
        load_trajectory(path)


@pytest.mark.parametrize("n, m, p, r", [
    (3, 1, 2, None), (3, 1, 2, 0), (3, 1, 2, 2), (2, 0, 1, 1), (2, 0, 1, None),
])
def test_every_written_header_reads_back_to_its_widths(tmp_path, n, m, p, r):
    rng = np.random.default_rng(0)
    data = HistoricalData(
        x=rng.normal(size=(4, n)), u=rng.normal(size=(4, m)),
        y=rng.normal(size=(4, p)),
        d=None if r is None else rng.normal(size=(4, r)),
    )
    path = tmp_path / "run.csv"
    save_trajectory(path, data)
    loaded = load_trajectory(path)
    assert (loaded.x.shape[1], loaded.u.shape[1], loaded.y.shape[1]) == (n, m, p)
    assert (None if loaded.d is None else loaded.d.shape[1]) == (r or None)


def test_load_rejects_non_ascending_time(tmp_path):
    path = _write(tmp_path, "t,x_1,u_1,y_1\n0,0,0,0\n2,0,0,0\n")
    with pytest.raises(TrajectoryFormatError, match="ascend"):
        load_trajectory(path)


def test_load_rejects_ragged_row(tmp_path):
    path = _write(tmp_path, "t,x_1,u_1,y_1\n0,0,0,0\n1,0,0\n")
    with pytest.raises(TrajectoryFormatError):
        load_trajectory(path)


def test_load_rejects_non_numeric_cell(tmp_path):
    path = _write(tmp_path, "t,x_1,u_1,y_1\n0,0,0,0\n1,a,0,0\n")
    with pytest.raises(TrajectoryFormatError):
        load_trajectory(path)


def test_load_rejects_non_finite_time(tmp_path):
    for bad in ("nan", "inf"):
        path = _write(tmp_path, f"t,x_1,u_1,y_1\n0,0,0,0\n{bad},0,0,0\n")
        with pytest.raises(TrajectoryFormatError, match="ascend"):
            load_trajectory(path)


def test_load_reports_the_row_of_a_non_numeric_cell(tmp_path):
    path = _write(tmp_path, "t,x_1,u_1,y_1\n0,0,0,0\n1,0,0,0\n2,0,x,0\n")
    with pytest.raises(TrajectoryFormatError, match="row 2: non-numeric"):
        load_trajectory(path)


def test_uniform_rejects_inverted_range():
    with pytest.raises(ValueError):
        Uniform(1.0, -1.0)


@pytest.mark.parametrize("low, high", [
    (-np.inf, np.inf), (0.0, np.inf), (np.nan, 1.0), (-1e308, 1e308),
])
def test_uniform_rejects_non_finite_bounds_and_width(low, high):
    with pytest.raises(ValueError, match="finite"):
        Uniform(low, high)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_load_rejects_non_finite_sample_by_row_and_column(tmp_path, bad):
    path = _write(tmp_path, f"t,x_1,u_1,y_1\n0,0,0,0\n1,0,0,{bad}\n")
    with pytest.raises(TrajectoryFormatError,
                       match=f"row 1, column 'y_1': non-finite sample '{bad}'"):
        load_trajectory(path)
