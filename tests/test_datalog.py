"""Trajectory recording, past/future blocks, excitation checks, files."""

import csv
import importlib
import io
import os
import subprocess
import sys
import warnings
import zlib
from dataclasses import replace
from pathlib import Path

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
from uiokit.datalog import _split_header
from uiokit.demo import convergence_model
from uiokit.numkit import left_null_basis, rank
from uiokit.plant import consistency_matrix, step

from test_cli_fuzz import CSV_MUTATIONS, _mutate_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


@pytest.mark.parametrize("signal, bad, message", [
    ("input_policy", np.nan, "input sequence: sample 3 (entry 0) is not "
                             "finite (nan)"),
    ("disturbance_policy", -np.inf, "disturbance sequence: sample 3 "
                                    "(entry 0) is not finite (-inf)"),
    ("x0", np.inf, "x0: entry 1 is not finite (inf)"),
])
def test_collect_refuses_a_non_finite_explicit_signal(ref_model, signal, bad,
                                                      message):
    # The value is the caller's, not an overflow of the plant.
    value = np.zeros(3) if signal == "x0" else np.zeros((12, 1))
    value[(1,) if signal == "x0" else (3, 0)] = bad
    with pytest.raises(ValueError) as err:
        collect(ref_model, 12, **{signal: value})
    assert str(err.value) == message


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


def test_surrogate_failure_reads_as_a_refusal(ref_model):
    # All-zero signals: [X_p; U_p; U_f] has rank 0.
    data = collect(ref_model, 11)
    report = excitation_report(
        build_blocks(HistoricalData(x=data.x, u=data.u, y=data.y)))
    assert report.mode == "surrogate" and not report.ok
    assert report.message == ("surrogate rank check on [X_p; U_p; U_f] FAILS "
                              "(rank 0 of 5), so the excitation assumption "
                              "fails")
    assert "warning" not in report.message
    assert "unverifiable" not in report.message


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


# ------------------------------------------------- the reader's contract


def _plain_split(text):
    """The signals of a trajectory text as a plain line split reads it:
    empty lines dropped, each line split at its commas, each field read by
    float(field.strip())."""
    header, *rows = [line.split(",") for line in text.split("\n") if line]
    # float() reads these, but a file holding one is refused.
    assert text.isascii() and "_" not in "".join(map("".join, rows))
    vals = np.array([[float(f.strip()) for f in row] for row in rows])
    n, m, p, r = _split_header(header)
    blocks = np.split(vals[:, 1:], [n, n + m, n + m + p], axis=1)
    return blocks if r is not None else blocks[:3]


def _load_or_refusal(path):
    """The word "loaded" when `load_trajectory` returns the arrays of the
    plain split, bit for bit; the text of its TrajectoryFormatError
    otherwise.  Any other exception or any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = load_trajectory(path)
        except TrajectoryFormatError as exc:
            return str(exc)
    loaded = [a for a in (data.x, data.u, data.y, data.d) if a is not None]
    expected = _plain_split(Path(path).read_text(encoding="utf-8"))
    assert ([(a.shape, a.tobytes()) for a in loaded]
            == [(a.shape, a.tobytes()) for a in expected])
    return "loaded"


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _field_edit(edit):
    """A mutation that applies ``edit(field, rng)`` to one random field of
    one random row, header included."""
    def mutate(lines, rng):
        t = int(rng.integers(len(lines)))
        fields = lines[t].split(",")
        col = int(rng.integers(len(fields)))
        fields[col] = edit(fields[col], rng)
        lines[t] = ",".join(fields)
        return "\n".join(lines) + "\n"
    return mutate


def _line_insert(make):
    """A mutation that inserts the line ``make(rng)`` at a random place."""
    def mutate(lines, rng):
        lines.insert(int(rng.integers(len(lines) + 1)), make(rng))
        return "\n".join(lines) + "\n"
    return mutate


def _underscore(text, rng):
    # Between two digits, where float() accepts an underscore.
    spots = [i for i in range(1, len(text))
             if text[i - 1].isdigit() and text[i].isdigit()]
    if not spots:
        return text + "_0"
    i = _pick(rng, spots)
    return text[:i] + "_" + text[i:]


def _drop_row(lines, rng):
    del lines[int(rng.integers(1, len(lines)))]
    return "\n".join(lines) + "\n"


def _short_row(lines, rng):
    t = int(rng.integers(1, len(lines)))
    lines[t] = lines[t].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


#: Characters a hand-edited or foreign file may hold: line breaks and
#: whitespace, quotes, comment marks, underscores, non-ASCII digits and
#: spaces, and number text.
_NOISE = (" ", "\t", "\r", "\n", "\r\n", ",", '"', "#", "_", "\x0b", "\x0c",
          "\x1c", "\x1f", "\x85", "\u2028", "\u3000", "\x00", "\ufeff",
          "\u0661", "e", "+", "-", ".", "0", "7", "nan", "inf")


def _noise(lines, rng):
    text = "\n".join(lines) + "\n"
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(len(text) + 1))
        text = text[:i] + _pick(rng, _NOISE) + text[i:]
    return text


#: name -> (draws, mutation of the lines of a trajectory file).
_MUTATIONS = {
    "comment-line": (4, _line_insert(lambda rng: "# recorded on the bench")),
    "quoted-field": (6, _field_edit(lambda f, rng: f'"{f}"')),
    "crlf": (1, lambda lines, rng: "\r\n".join(lines) + "\r\n"),
    "padded": (6, _field_edit(
        lambda f, rng: _pick(rng, (" ", "\t", "  ")) + f
        + _pick(rng, ("", " ", "\t")))),
    "underscore": (6, _field_edit(_underscore)),
    "blank-line": (4, _line_insert(lambda rng: _pick(rng, ("", "   ", "\t")))),
    "all-comma-line": (4, _line_insert(lambda rng: "," * int(rng.integers(8)))),
    "short-row": (4, _short_row),
    "non-numeric": (4, _field_edit(lambda f, rng: "abc")),
    "gap-in-t": (4, _drop_row),
    "header-only": (1, lambda lines, rng: lines[0] + "\n"),
    "nan": (4, _field_edit(lambda f, rng: _pick(rng, ("nan", "-inf", "1e400")))),
    "separator": (4, _field_edit(lambda f, rng: f + "\x1c")),
    "noise": (150, _noise),
}


def _mutated_files(ref_model, recorded):
    """The trajectory texts of every `_MUTATIONS` draw (T = 6) and four
    draws of each cli fuzz mutation (T = 12)."""
    def render(T):
        data = _bundled_run(ref_model, T=T)
        if not recorded:
            data = HistoricalData(x=data.x, u=data.u, y=data.y)
        return render_trajectory(data)

    lines = render(6).splitlines()
    for name, (draws, mutate) in _MUTATIONS.items():
        for draw in range(draws):
            rng = np.random.default_rng([20261019, zlib.crc32(name.encode()),
                                         draw])
            yield mutate(list(lines), rng)
    text = render(12)
    for mutation in CSV_MUTATIONS:
        for draw in range(4):
            rng = np.random.default_rng([20261019,
                                         zlib.crc32(mutation.encode()), draw])
            yield _mutate_csv(text, mutation, rng)


@pytest.mark.parametrize("recorded", [True, False],
                         ids=["with-d", "without-d"])
def test_reader_loads_the_plain_split_or_refuses(tmp_path, ref_model,
                                                 recorded):
    outcomes = set()
    for i, text in enumerate(_mutated_files(ref_model, recorded)):
        path = tmp_path / f"{i}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        outcomes.add(_load_or_refusal(path))
    # The cases reach the load and every kind of refusal.
    assert "loaded" in outcomes
    for text in ("empty trajectory file", "no data rows", "expected",
                 "non-numeric field", "must ascend", "non-finite sample",
                 "unexpected column"):
        assert any(text in outcome for outcome in outcomes), text


@pytest.mark.parametrize("text", [
    "t,x_1,u_1,y_1\n0, 1 ,\t2,3\x0b\n1,4,5,6\n",
    "t,x_1,u_1,y_1\r\n0,1,2,3\r\n1,4,5,6\r\n",
    "\n\nt,x_1,u_1,y_1\n\n0,1,2,3\n\n\n1,4,5,6",
], ids=["padding", "crlf", "blank-lines"])
def test_load_accepts_padding_crlf_and_blank_lines(tmp_path, text):
    path = tmp_path / "run.csv"
    path.write_bytes(text.encode("ascii"))
    data = load_trajectory(path)
    assert data.x.tolist() == [[1.0], [4.0]] and data.y.tolist() == [[3.0], [6.0]]


@pytest.mark.parametrize("row, refusal", [
    ('1,"4",5,6', "row 1: non-numeric field"),
    ("1,4_0,5,6", "row 1: non-numeric field"),
    ("1,\u0664,5,6", "row 1: non-numeric field"),
    ("1,4\u3000,5,6", "row 1: non-numeric field"),
    (",,,", "row 1: non-numeric field"),
    ("   ", "row 1: expected 4 fields, got 1"),
], ids=["quoted", "underscore", "arabic-digit", "ideographic-space",
        "all-comma", "spaces-only"])
def test_load_refuses_what_no_writer_writes(tmp_path, row, refusal):
    path = _write(tmp_path, f"t,x_1,u_1,y_1\n0,1,2,3\n{row}\n2,4,5,6\n")
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectory(path)
    assert str(err.value) == refusal


#: A field longer than the csv module's limit of 131072 characters.
LONG_FIELD = {
    "header": ("t,x_1,u_1,y_" + "1" * 140000,
               "unexpected column 'y_111"),
    "numeric": ("t,x_1,u_1,y_1\n0,1,2,3\n1,4,5," + "9" * 140000,
                "row 1, column 'y_1': non-finite sample inf"),
    "text": ("t,x_1,u_1,y_1\n0,1,2,3\n1,4,5," + "z" * 140000,
             "row 1: non-numeric field"),
}


@pytest.mark.parametrize("where", LONG_FIELD)
def test_load_refuses_a_long_field(tmp_path, where):
    text, refusal = LONG_FIELD[where]
    with pytest.raises(TrajectoryFormatError, match=refusal):
        load_trajectory(_write(tmp_path, text + "\n"))


# ------------------------------------------ reader against the csv pass


def _csv_load_trajectory(path) -> HistoricalData:
    """The former reader, which parsed the whole file with the csv module.
    On every file a writer writes, and on the cli fuzz mutations of one,
    `load_trajectory` gives the same arrays, bit for bit, or a
    TrajectoryFormatError with the same text.  Hand-edited variants this
    pass read (quoted fields, ``1_0``, non-ASCII text) are now refused."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(f.strip() for f in row)]
    if not rows:
        raise TrajectoryFormatError("empty trajectory file")
    n, m, p, r = _split_header(rows[0])
    width = 1 + n + m + p + (r or 0)
    body = rows[1:]
    if not body:
        raise TrajectoryFormatError("no data rows")
    for t, row in enumerate(body):
        if len(row) != width:
            raise TrajectoryFormatError(
                f"row {t}: expected {width} fields, got {len(row)}"
            )
    try:
        vals = np.array(body, dtype=float)
    except ValueError:
        for t, row in enumerate(body):
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise TrajectoryFormatError(
                    f"row {t}: non-numeric field"
                ) from exc
        raise
    bad_t = np.flatnonzero(vals[:, 0] != np.arange(len(body)))
    if bad_t.size:
        t = int(bad_t[0])
        raise TrajectoryFormatError(
            f"row {t}: t must ascend from 0, got {body[t][0]!r}"
        )
    x, u, y, d = np.split(vals[:, 1:], [n, n + m, n + m + p], axis=1)
    try:
        return HistoricalData(x=x, u=u, y=y, d=d if r is not None else None)
    except ValueError as exc:
        raise TrajectoryFormatError(str(exc)) from None


def _outcome(reader, path):
    """The bytes and shape of every signal ``reader`` loads from ``path``,
    or the text of its TrajectoryFormatError; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = reader(path)
        except TrajectoryFormatError as exc:
            return str(exc)
    return [None if a is None else (a.shape, a.tobytes())
            for a in (data.x, data.u, data.y, data.d)]


def _assert_readers_agree(path):
    expected = _outcome(_csv_load_trajectory, path)
    assert _outcome(load_trajectory, path) == expected, Path(path).read_text()
    return expected


@pytest.mark.parametrize("mutation", CSV_MUTATIONS)
def test_reader_matches_the_csv_pass_on_the_cli_fuzz_files(tmp_path,
                                                           ref_model,
                                                           mutation):
    text = render_trajectory(_bundled_run(ref_model, T=12))
    for draw in range(4):
        rng = np.random.default_rng([20261019, zlib.crc32(mutation.encode()),
                                     draw])
        path = _write(tmp_path, _mutate_csv(text, mutation, rng))
        _assert_readers_agree(path)


def test_reader_matches_the_csv_pass_on_the_benchmark_corpus(tmp_path,
                                                             monkeypatch):
    # The 120 trajectories of perfbench's data-corpus workload, written as
    # it writes them, and the 5000-sample file of its cli-session: each
    # loads bit for bit, as the csv pass loads it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    runs = []
    for n, seed in workloads.DataCorpus().cases:
        m, p, r = workloads.corpus_dims(n)
        model = workloads.corpus_model(n, m, p, r, seed=seed)
        runs.append((model, 3 * (n + 2 * m + 2 * r), seed))
    runs.append((convergence_model(), 5000, 0))
    path = tmp_path / "run.csv"
    for model, T, seed in runs:
        data = _bundled_run(model, T=T, seed=seed)
        save_trajectory(path, data)
        assert _assert_readers_agree(path) == _outcome(lambda _: data, path)


def test_import_leaves_the_csv_module_unloaded():
    # The reader is numpy's alone; the csv module is not imported for it.
    src = str(Path(importlib.import_module("uiokit").__file__).resolve()
              .parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, uiokit.datalog; print('csv' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
    # HistoricalData names the sample by its value, so "NaN" reads nan.
    path = _write(tmp_path, f"t,x_1,u_1,y_1\n0,0,0,0\n1,0,0,{bad}\n")
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectory(path)
    assert str(err.value) == ("row 1, column 'y_1': non-finite sample "
                              f"{float(bad)!r}")


@pytest.mark.parametrize("signal, column", [
    ("x", "x_2"), ("u", "u_1"), ("y", "y_2"), ("d", "d_1"),
])
def test_historical_data_refuses_non_finite_sample_by_row_and_column(
        ref_model, signal, column):
    data = _bundled_run(ref_model)
    fields = {key: np.array(getattr(data, key)) for key in "xuyd"}
    fields[signal][3, int(column[-1]) - 1] = -np.inf
    with pytest.raises(ValueError) as err:
        HistoricalData(**fields)
    assert str(err.value) == f"row 3, column {column!r}: non-finite sample -inf"


def test_historical_data_keeps_read_only_copies(ref_model):
    data = _bundled_run(ref_model)
    fields = {key: np.array(getattr(data, key)) for key in "xuyd"}
    copy = HistoricalData(**fields)
    for key, given in fields.items():
        stored = getattr(copy, key)
        assert not stored.flags.writeable
        assert given.flags.writeable
        assert not np.shares_memory(stored, given)
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0


@pytest.mark.parametrize("block", ["X_p", "U_f", "Y_p", "D_f"])
def test_data_blocks_refuse_a_non_finite_entry(ref_model, block):
    # Such blocks used to reach numpy's "SVD did not converge" in the
    # excitation check of `design_from_data`.
    blocks = build_blocks(_bundled_run(ref_model))
    bad = np.array(getattr(blocks, block))
    bad[0, 4] = np.nan
    with pytest.raises(ValueError) as err:
        replace(blocks, **{block: bad})
    assert str(err.value) == f"{block}: row 0, column 4 is not finite (nan)"
