"""Trajectory collection, one-step data blocks, and excitation checks.

The data-driven design route never sees the plant matrices; it works from a
recorded trajectory (x(t), u(t), y(t)) of length T, arranged into one-step
"past/future" blocks, each with T-1 columns:

    X_p = [x(0) ... x(T-2)],   X_f = [x(1) ... x(T-1)]

and likewise U_p/U_f, Y_p/Y_f (and D_p/D_f when the disturbance happens to
be recorded, which only a simulator can do).  The row-stacked matrix

    Phi = [X_p; X_f; U_p; U_f; Y_p; Y_f]

collects every recorded one-step window as a column.  The excitation
assumption under which Im(Phi) captures the whole plant behaviour is:

    [X_p; U_p; U_f; D_p; D_f] has full row rank n + 2m + 2r.

That stack involves the *unmeasured* disturbance, so it is only checkable on
synthetic data; for ingested logs a weaker surrogate on (X_p, U_p, U_f) is
reported together with a warning instead.  The surrogate stack is a row
subset of the assumption stack, so a surrogate FAIL proves the assumption
fails too; `synth.design_from_data` refuses data that fails either check.

File format: delimited text with header ``t,x_1..x_n,u_1..u_m,y_1..y_p``
plus optional ``d_1..d_r`` columns, one row per sample, t ascending from 0,
values printed as shortest round-trip decimals (``repr`` of the float), so
loading a file gives back the recorded samples bit for bit.  The header is
defined once, by the writer; the reader accepts exactly the headers the
writer produces.  The reader checks the file's structure; a non-finite
sample is refused by `HistoricalData` itself, which every trajectory goes
through, whether it is read, collected or built by hand.

The reader parses the header with the csv module and the body with numpy's
C reader (`np.loadtxt`), which is faster than a csv pass over it.  Its
result is defined by the csv module and ``float()``: a body the C reader
refuses or could read otherwise (a quoted field, ``1_0``, a blank or
all-comma line, a field padded with an ASCII separator, any non-ASCII
character) goes through a csv pass, which reads it or names the row at
fault.  Either way a file loads to the arrays of the csv pass, bit for bit,
or fails with its TrajectoryFormatError text, and no numpy warning escapes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .numkit import DEFAULT_TOL, RankTolerance, rank
from .plant import (StateSpaceModel, _frozen, _require_finite_entries,
                    _simulate)

__all__ = [
    "Uniform",
    "HistoricalData",
    "DataBlocks",
    "TrajectoryFormatError",
    "ExcitationReport",
    "resolve_policy",
    "collect",
    "build_blocks",
    "excitation_report",
    "save_trajectory",
    "load_trajectory",
]


class TrajectoryFormatError(ValueError):
    """A trajectory file could not be parsed."""


@dataclass(frozen=True)
class Uniform:
    """Independent uniform(low, high) draws for every entry of a signal.

    Both bounds and the width high - low must be finite floats.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not math.isfinite(float(self.high) - float(self.low)):
            raise ValueError(
                f"range [{self.low}, {self.high}] needs finite bounds and a "
                "finite width"
            )
        if not self.low <= self.high:
            raise ValueError(f"empty range [{self.low}, {self.high}]")


def resolve_policy(policy, T: int, width: int, rng: np.random.Generator,
                   what: str = "signal") -> np.ndarray:
    """Materialize a signal policy into a (T, width) array.

    ``policy`` may be None (zeros), a `Uniform` (seeded draws from ``rng``),
    or an explicit array of shape (T, width) — a 1-D array of length T is
    accepted when width == 1.  An explicit array with a non-finite entry is
    refused with ValueError naming ``what`` and the sample.
    """
    if policy is None:
        return np.zeros((T, width))
    if isinstance(policy, Uniform):
        return rng.uniform(policy.low, policy.high, size=(T, width))
    arr = np.asarray(policy, dtype=float)
    if arr.ndim == 1 and width == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape != (T, width):
        raise ValueError(
            f"{what} must have shape ({T}, {width}), got {arr.shape}"
        )
    _require_finite_entries(arr, what, "sample {} (entry {})")
    return arr.copy()


def _resolve_vector(value, width: int, rng: np.random.Generator,
                    what: str) -> np.ndarray:
    if value is None:
        return np.zeros(width)
    if isinstance(value, Uniform):
        return rng.uniform(value.low, value.high, size=width)
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape != (width,):
        raise ValueError(f"{what} must have length {width}, got {arr.shape}")
    _require_finite_entries(arr, what, "entry {}")
    return arr.copy()


@dataclass(frozen=True)
class HistoricalData:
    """A recorded trajectory, time-major: x is (T, n), u is (T, m), y is (T, p).

    ``d`` is (T, r) when the disturbance was recorded (synthetic data) and
    None otherwise.  Construction stores read-only float copies and refuses,
    with ValueError, signals that are not 2-D, disagree on T, or hold a
    non-finite sample, which it names by row and by its file column
    (``row 3, column 'x_2': non-finite sample nan``).  A trajectory that
    exists is finite, so no route checks its samples again.
    """

    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    d: np.ndarray | None = None

    def __post_init__(self) -> None:
        signals = ("x", "u", "y") + (("d",) if self.d is not None else ())
        for attr in signals:
            arr = _frozen(getattr(self, attr))
            if arr.ndim != 2:
                raise ValueError(f"{attr} must be 2-D (time-major)")
            object.__setattr__(self, attr, arr)
        T = self.x.shape[0]
        for attr in signals[1:]:
            if getattr(self, attr).shape[0] != T:
                raise ValueError(f"{attr} must have {T} samples like x")
        samples = np.hstack([getattr(self, attr) for attr in signals])
        finite = np.isfinite(samples)
        if not finite.all():
            t, col = (int(i) for i in np.argwhere(~finite)[0])
            names = _header(*(getattr(self, attr).shape[1] for attr in "xuy"),
                            self.d.shape[1] if self.d is not None else None)
            raise ValueError(
                f"row {t}, column {names[col + 1]!r}: non-finite sample "
                f"{float(samples[t, col])!r}"
            )

    @property
    def T(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class DataBlocks:
    """Past/future one-step blocks, each with T-1 columns.

    Construction refuses, with ValueError, a block with a non-finite entry,
    named by block, row and column (``X_p: row 0, column 3 is not finite
    (nan)``), so every rank decision on the blocks sees finite numbers.
    """

    X_p: np.ndarray
    X_f: np.ndarray
    U_p: np.ndarray
    U_f: np.ndarray
    Y_p: np.ndarray
    Y_f: np.ndarray
    D_p: np.ndarray | None = None
    D_f: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name, block in vars(self).items():
            if block is not None:
                _require_finite_entries(block, name, "row {}, column {}")

    @property
    def n(self) -> int:
        return self.X_p.shape[0]

    @property
    def m(self) -> int:
        return self.U_p.shape[0]

    @property
    def p(self) -> int:
        return self.Y_p.shape[0]

    @property
    def columns(self) -> int:
        return self.X_p.shape[1]

    @property
    def Phi(self) -> np.ndarray:
        """Row stack (X_p; X_f; U_p; U_f; Y_p; Y_f) of all recorded windows."""
        return np.vstack(
            [self.X_p, self.X_f, self.U_p, self.U_f, self.Y_p, self.Y_f]
        )


def collect(
    model: StateSpaceModel,
    T: int,
    input_policy=None,
    disturbance_policy=None,
    x0=None,
    seed: int = 0,
) -> HistoricalData:
    """Simulate the plant for T steps and record everything, d included.

    Policies follow `resolve_policy` semantics (None means zeros); ``x0``
    additionally accepts a `Uniform`.  All randomness comes from one
    generator seeded with ``seed``; the draw order is fixed (x0, then the
    whole input sequence, then the whole disturbance sequence) so collected
    data is reproducible byte for byte.
    """
    if T < 2:
        raise ValueError(f"need at least 2 samples to form one window, got T={T}")
    rng = np.random.default_rng(seed)
    x0 = _resolve_vector(x0, model.n, rng, "x0")
    u_seq = resolve_policy(input_policy, T, model.m, rng, "input sequence")
    d_seq = resolve_policy(disturbance_policy, T, model.r, rng,
                           "disturbance sequence")
    x_seq, y_seq = _simulate(model, x0, u_seq, d_seq)
    return HistoricalData(x=x_seq, u=u_seq, y=y_seq, d=d_seq)


def build_blocks(data: HistoricalData, dims=None) -> DataBlocks:
    """Slice a trajectory into past/future blocks.

    ``dims`` is an optional (n, m, p) or (n, m, p, r) tuple cross-checked
    against the recorded signal widths (a mismatch raises ValueError) — use
    it when the widths are claimed externally, e.g. on the command line.
    """
    if data.T < 2:
        raise ValueError("need at least 2 samples to form one window")
    if dims is not None:
        dims = tuple(int(v) for v in dims)
        have = (data.x.shape[1], data.u.shape[1], data.y.shape[1])
        have_r = data.d.shape[1] if data.d is not None else None
        if dims[:3] != have:
            raise ValueError(
                f"declared dims (n, m, p) = {dims[:3]} do not match recorded "
                f"widths {have}"
            )
        if len(dims) == 4 and have_r is not None and dims[3] != have_r:
            raise ValueError(
                f"declared r = {dims[3]} does not match recorded width {have_r}"
            )
    kw = {}
    if data.d is not None:
        kw = {"D_p": data.d[:-1].T.copy(), "D_f": data.d[1:].T.copy()}
    return DataBlocks(
        X_p=data.x[:-1].T.copy(), X_f=data.x[1:].T.copy(),
        U_p=data.u[:-1].T.copy(), U_f=data.u[1:].T.copy(),
        Y_p=data.y[:-1].T.copy(), Y_f=data.y[1:].T.copy(),
        **kw,
    )


@dataclass(frozen=True)
class ExcitationReport:
    """Outcome of the excitation check (full or surrogate)."""

    mode: str          # "assumption" or "surrogate"
    ok: bool
    rank: int
    required: int
    message: str


def excitation_report(
    blocks: DataBlocks, tol: RankTolerance = DEFAULT_TOL
) -> ExcitationReport:
    """Rank check of the excitation assumption, or of its surrogate.

    With a recorded disturbance it checks the assumption, full row rank of
    [X_p; U_p; U_f; D_p; D_f].  Without one it checks the measured-data
    surrogate, full row rank of [X_p; U_p; U_f] only.  The surrogate is
    necessary but not sufficient: a PASS carries a warning that the
    assumption stays unverified, and a FAIL says that the assumption fails.
    """
    recorded = blocks.D_p is not None and blocks.D_f is not None
    parts = [blocks.X_p, blocks.U_p, blocks.U_f]
    if recorded:
        parts += [blocks.D_p, blocks.D_f]
    stack = np.vstack(parts)
    got, required = rank(stack, tol), stack.shape[0]
    ok = got == required
    if recorded:
        message = (f"excitation assumption {'holds' if ok else 'FAILS'} "
                   f"(rank {got} of {required})")
    elif ok:
        message = ("warning: no disturbance record; the excitation assumption "
                   "is unverifiable from measured data. Surrogate rank check "
                   f"on [X_p; U_p; U_f] passes (rank {got} of {required}).")
    else:
        message = (f"surrogate rank check on [X_p; U_p; U_f] FAILS (rank {got} "
                   f"of {required}), so the excitation assumption fails")
    return ExcitationReport(mode="assumption" if recorded else "surrogate",
                            ok=ok, rank=got, required=required, message=message)


# --------------------------------------------------------------------------
# Trajectory files.

def _render_rows(header: list[str], blocks) -> str:
    """CSV text: the header, then one line per sample t holding t and row t
    of the time-major ``blocks`` side by side.

    Values are written with ``repr``: the shortest decimal string that parses
    back to the identical float.  The file is the data of record for the
    synthesis route, and the kernel computation is only meaningful when
    reading a file back reproduces the recorded samples bit for bit; 12-digit
    rounding would lift the trailing singular values of the block matrix and
    destroy its rank structure.  No field needs CSV quoting, so the text
    equals what ``csv.writer`` writes.  Rows go through ``tolist()`` one at
    a time: the whole matrix as Python floats would take four times its
    memory.
    """
    lines = [",".join(header)]
    for t, row in enumerate(np.hstack(blocks)):
        lines.append(",".join([str(t), *map(repr, row.tolist())]))
    lines.append("")
    return "\n".join(lines)


def _header(n: int, m: int, p: int, r: int | None) -> list[str]:
    cols = ["t"]
    cols += [f"x_{i + 1}" for i in range(n)]
    cols += [f"u_{i + 1}" for i in range(m)]
    cols += [f"y_{i + 1}" for i in range(p)]
    if r is not None:
        cols += [f"d_{i + 1}" for i in range(r)]
    return cols


def save_trajectory(path, data: HistoricalData) -> None:
    """Write a comma-delimited trajectory file (exact round-trip values)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_trajectory(data))


def render_trajectory(data: HistoricalData) -> str:
    """Trajectory file contents as a string (used by file and stdout paths)."""
    n, m, p = data.x.shape[1], data.u.shape[1], data.y.shape[1]
    r = data.d.shape[1] if data.d is not None else None
    blocks = [data.x, data.u, data.y] + ([data.d] if r is not None else [])
    return _render_rows(_header(n, m, p, r), blocks)


def _split_header(fields: list[str]) -> tuple[int, int, int, int | None]:
    """Signal widths of a header, which must be exactly what `_header` writes."""
    names = [f.strip() for f in fields]
    if not names or names[0] != "t":
        raise TrajectoryFormatError('first column must be "t"')
    n, m, p, r = (sum(name.startswith(f"{base}_") for name in names)
                  for base in "xuyd")
    if p == 0:
        raise TrajectoryFormatError("trajectory must contain y_* columns")
    expected = _header(n, m, p, r or None)
    for col, name in enumerate(names):
        if col >= len(expected) or name != expected[col]:
            raise TrajectoryFormatError(
                f"unexpected column {name!r} at position {col}: the header "
                "must read t,x_1..x_n,u_1..u_m,y_1..y_p[,d_1..d_r]"
            )
    return n, m, p, r or None


def _filled(row: list[str]) -> bool:
    """Whether a csv row holds anything but blank fields (blank rows are
    skipped)."""
    return any(f.strip() for f in row)


#: ASCII separators that str.isspace, and so numpy's reader, strips from a
#: field, but float() refuses: a body holding one goes through the csv pass.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_fast(body: str, width: int) -> np.ndarray | None:
    """The body as numpy's C reader parses it, or None where the csv pass
    must decide: the body is not ASCII, the C reader refuses it or would
    warn on it, or it finds another width or t not ascending from 0.

    Where it returns an array, the csv pass returns the same one: both skip
    only blank lines here and split the same lines at the same commas, and
    both convert a field to the same correctly rounded double.  The C reader
    refuses a field that holds a quote, '#' or an underscore.  Non-ASCII
    digits and spaces, which float() reads, never get here, and the body
    goes in as bytes, a quarter of the memory of a StringIO of it.
    """
    if (not body.isascii() or not body.strip()
            or any(c in body for c in _SEPARATORS)):
        return None
    try:
        vals = np.loadtxt(io.BytesIO(body.encode("ascii")), delimiter=",",
                          comments=None, ndmin=2, encoding="ascii")
    except ValueError:
        return None
    if vals.shape[1] != width or (vals[:, 0] != np.arange(len(vals))).any():
        return None
    return vals


def _parse_rows(body: str, width: int) -> np.ndarray:
    """The body as the csv module splits it and float() converts it,
    field by field; TrajectoryFormatError names the first row at fault."""
    rows = [row for row in csv.reader(io.StringIO(body, newline=""))
            if _filled(row)]
    if not rows:
        raise TrajectoryFormatError("no data rows")
    for t, row in enumerate(rows):
        if len(row) != width:
            raise TrajectoryFormatError(
                f"row {t}: expected {width} fields, got {len(row)}"
            )
    # One conversion for the whole body; it parses each field as float() does.
    try:
        vals = np.array(rows, dtype=float)
    except ValueError:
        for t, row in enumerate(rows):
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise TrajectoryFormatError(
                    f"row {t}: non-numeric field"
                ) from exc
        raise
    bad_t = np.flatnonzero(vals[:, 0] != np.arange(len(rows)))
    if bad_t.size:
        t = int(bad_t[0])
        raise TrajectoryFormatError(
            f"row {t}: t must ascend from 0, got {rows[t][0]!r}"
        )
    return vals


def load_trajectory(path) -> HistoricalData:
    """Parse a trajectory file; raises TrajectoryFormatError on any defect.

    The csv module reads the header, up to the first row that is not blank.
    numpy's C reader parses the body (`_parse_fast`); a body it cannot take
    as the csv pass would goes through that pass (`_parse_rows`), which reads
    it or names the row at fault.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(filter(_filled, csv.reader(fh)), None)
        body = fh.read()
    if header is None:
        raise TrajectoryFormatError("empty trajectory file")
    n, m, p, r = _split_header(header)
    width = 1 + n + m + p + (r or 0)
    vals = _parse_fast(body, width)
    if vals is None:
        vals = _parse_rows(body, width)
    # The constructor's copies keep each block contiguous and let the
    # parsed body go.
    x, u, y, d = np.split(vals[:, 1:], [n, n + m, n + m + p], axis=1)
    try:
        return HistoricalData(x=x, u=u, y=y, d=d if r is not None else None)
    except ValueError as exc:
        raise TrajectoryFormatError(str(exc)) from None
