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
values printed as shortest round-trip decimals, so loading a file gives
back the recorded samples bit for bit.  The writer makes them with a
vectorized Schubfach printer in numpy, byte-identical to ``repr`` of each
float, and streams the file in blocks of at most 6144 values, rows split
evenly between them.  The header is defined once, by the writer; the
reader accepts exactly the headers the writer produces.  The reader
checks the file's structure; a non-finite sample is refused by
`HistoricalData` itself, which every trajectory goes through, whether it
is read, collected or built by hand.

The reader has one path: the header is the first line that is not blank,
split at its commas, and numpy's C reader (`np.loadtxt`) parses the rest of
the file in one pass.  It accepts what the writer writes, plus ASCII
whitespace around a field, CRLF line ends and blank lines (nothing between
two line breaks).  A quoted field, an underscore in a number, a non-ASCII
character, and a line of commas or of whitespace alone are refused.  Every
refusal is a TrajectoryFormatError that names the data row at fault,
counted from 0 with blank lines skipped, and no numpy warning escapes.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
import warnings
from dataclasses import dataclass, field, fields

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

    Construction stores read-only float copies, as `HistoricalData` does,
    and refuses, with ValueError, a block with a non-finite entry, named
    by block, row and column (``X_p: row 0, column 3 is not finite
    (nan)``), so every rank decision on the blocks sees finite numbers.
    Blocks that cannot change keep each `excitation_report` they were
    given, one per tolerance.

    ``r`` is the disturbance width: the rows of D_p when the disturbance is
    recorded, else the width declared to `build_blocks`, else None.  A
    declared width that is negative or not a whole number is refused with
    ValueError.
    """

    X_p: np.ndarray
    X_f: np.ndarray
    U_p: np.ndarray
    U_f: np.ndarray
    Y_p: np.ndarray
    Y_f: np.ndarray
    D_p: np.ndarray | None = None
    D_f: np.ndarray | None = None
    r: int | None = None
    _excitation: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self) -> None:
        for f in fields(self):
            block = getattr(self, f.name)
            if f.init and f.name != "r" and block is not None:
                block = _frozen(block, order="C")
                _require_finite_entries(block, f.name, "row {}, column {}")
                object.__setattr__(self, f.name, block)
        if self.D_p is not None:
            object.__setattr__(self, "r", len(self.D_p))
        elif self.r is not None:
            object.__setattr__(self, "r", _count("r", self.r))

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


def _count(name: str, value) -> int:
    """A declared dimension as an int; ValueError unless a whole number >= 0."""
    if not (isinstance(value, numbers.Real) and value >= 0
            and float(value).is_integer()):
        raise ValueError(
            f"declared {name} = {value!r} is not a nonnegative integer")
    return int(value)


def _declared_dims(dims) -> tuple[int, ...]:
    """Declared (n, m, p) or (n, m, p, r) as ints; ValueError for another
    length, or naming an entry that is not a count (`_count`)."""
    dims = tuple(dims)
    if len(dims) not in (3, 4):
        raise ValueError(f"dims must be (n, m, p) or (n, m, p, r), "
                         f"got {dims!r}")
    return tuple(_count(name, v) for name, v in zip("nmpr", dims))


def build_blocks(data: HistoricalData, dims=None) -> DataBlocks:
    """Slice a trajectory into past/future blocks.

    ``dims`` is an optional (n, m, p) or (n, m, p, r) tuple cross-checked
    against the recorded signal widths (a mismatch raises ValueError) — use
    it when the widths are claimed externally, e.g. on the command line.
    An entry that is negative or not a whole number is refused with a
    ValueError that names it.
    """
    if data.T < 2:
        raise ValueError("need at least 2 samples to form one window")
    if dims is not None:
        dims = _declared_dims(dims)
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
    kw = {"r": dims[3]} if dims is not None and len(dims) == 4 else {}
    if data.d is not None:
        kw = {"D_p": data.d[:-1].T, "D_f": data.d[1:].T}
    return DataBlocks(
        X_p=data.x[:-1].T, X_f=data.x[1:].T,
        U_p=data.u[:-1].T, U_f=data.u[1:].T,
        Y_p=data.y[:-1].T, Y_f=data.y[1:].T,
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
    The report is kept on ``blocks``, so a second check at the same
    tolerance, such as the one `synth.design_from_data` makes after a
    caller's own, takes no second SVD.
    """
    kept = blocks._excitation.get(tol)
    if kept is not None:
        return kept
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
    report = ExcitationReport(mode="assumption" if recorded else "surrogate",
                              ok=ok, rank=got, required=required,
                              message=message)
    blocks._excitation[tol] = report
    return report


# --------------------------------------------------------------------------
# Trajectory files.
#
# The writer prints every value as its shortest round-trip decimal, byte
# for byte what ``repr`` prints, with a vectorized Schubfach printer
# (R. Giulietti, "The Schubfach way to render doubles", 2020, whose integer
# steps Java's DoubleToDecimal implements).  CPython makes ``repr``'s digits
# with big-integer arithmetic, one value at a time; Schubfach gets the same
# digits from three 126 x 60-bit products with no loop, so numpy runs it on
# a block of values at once.  Each value is laid out in a 48-byte cell of
# six little-endian uint64 words, and the NUL bytes the cell leaves unused
# are deleted when the block is written:
#
#   bytes 0-5    the sign, then "0.000" cut to the zeros that 0.0ddd needs
#   bytes 6-39   digit p at byte 6 + 2p (p = 0..16), each followed by a
#                byte that holds the decimal point when it follows digit p
#   bytes 40-44  the exponent, "e+dd" or "e-ddd"
#   byte 45      the separator, "," or a line break
#
# With the value written 0.ddd x 10^decpt, ``repr`` uses exponent form when
# decpt < -3 or decpt > 16, and otherwise prints the point in place, with
# ".0" after a whole number.  A cell is the OR of three table lookups: the
# cell of its layout (decpt, and whether exponent form prints a point),
# the words of its digits after the first, four a word, and the word of
# its first digit and sign.

_U = np.uint64
_M32 = _U(2 ** 32 - 1)
_M63 = _U(2 ** 63 - 1)
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
#: Values per block at most.  A `_render_chunk` call costs about 0.2 ms of
#: numpy call overhead plus 0.17 us per value, measured from 1k to 6k
#: random values (best of 40 rounds, 2-CPU Xeon, one thread), and makes
#: temporaries of about 155 bytes a value.  Per value, 6k values cost
#: least: past about 6.5k the cost per value rises by half (0.16 us at
#: 6336 values, 0.23 us at 7168).
_CHUNK_VALUES = 6144
#: The decimal point positions of finite doubles: 5e-324 is 0.5e-323 and
#: 1.8e308 is 0.18e309.
_DECPT_MIN, _DECPT_MAX = -323, 309
#: Layout codes: 2 (decpt - _DECPT_MIN) + (more than one digit) for a
#: value, and _INT_CODE + w for the sample index t of w digits, whose
#: shape is _INT_SHAPE + w (`_cells`).
_INT_CODE = 2 * (_DECPT_MAX - _DECPT_MIN + 1)
_INT_SHAPE = 21
#: Digit words: 4-digit groups 0..9999 with their trailing zeros deleted,
#: then the same in full, then the leading digits 0..9 and -0..-9.
_FULL, _LEAD = 10 ** 4, 2 * 10 ** 4


@functools.cache
def _printer_tables():
    """The printer's read-only tables, `_power_limbs`, `_digit_words` and
    `_cells`, built from Python ints and strings on the first write."""
    limbs, digits, cells = _power_limbs(), _digit_words(), _cells()
    for table in (limbs, digits, cells):
        table.flags.writeable = False
    return limbs, digits, cells


def _words(text: str) -> np.ndarray:
    """The little-endian uint64 words of an ASCII string of 8n chars."""
    return np.frombuffer(text.encode("ascii"), dtype="<u8")


def _power_limbs() -> np.ndarray:
    """Rows g0 mod 2^32, g0 >> 32, g1 mod 2^32, g1 >> 32: the 32-bit limbs
    of Schubfach's g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1
    = g1 2^63 + g0, for k = -324..292."""
    powers = [1]
    for _ in range(324):
        powers.append(10 * powers[-1])
    limbs = []
    for k in range(-324, 293):
        shift = 125 - ((-k * 913124641741) >> 38)
        if k > 0:
            g = (1 << shift) // powers[k] + 1
        else:
            g = (powers[-k] << shift if shift >= 0
                 else powers[-k] >> -shift) + 1
        g = (g >> 63) << 64 | g & (2 ** 63 - 1)
        limbs.append(g.to_bytes(16, "little"))
    return (np.frombuffer(b"".join(limbs), dtype="<u4").reshape(-1, 4).T
            .astype(np.uint64))


def _digit_words() -> np.ndarray:
    """Cell words of four digits, each followed by a free byte (words 1-4
    of a cell): the groups 0000..9999 with trailing zeros deleted, then
    in full; then word 0 of a leading digit 0..9 at byte 6, the 0 deleted,
    and the same after a "-" at byte 0."""
    q = np.arange(10 ** 4, dtype=np.uint64)
    full, stripped = np.zeros_like(q), np.zeros_like(q)
    for j, scale in enumerate((1000, 100, 10, 1)):
        digit = (q // _U(scale) % _U(10) + _U(ord("0"))) << _U(16 * j)
        full |= digit
        # The digit stays when it or a digit after it is not 0.
        stripped |= digit * (q % _U(10 * scale) != 0)
    lead = ["\0" * 8] + ["\0" * 6 + str(d) + "\0" for d in range(1, 10)]
    return np.concatenate([
        stripped, full,
        _words("".join(lead) + "".join("-" + w[1:] for w in lead))])


def _cells() -> np.ndarray:
    """The cell of each layout code, a column of six words: all but the
    digits and the sign.  Of the 39 shapes a cell takes, 0-19 are fixed
    form with the point at -3..16, 20 and 21 exponent form with one digit
    or more, and 21 + w an integer of w digits.  A "0" at a digit of a
    shape is ORed into itself by the digit and fills in a deleted one,
    which pads a whole number to "d.0" and prints each digit of t."""
    shapes = []
    for shape in range(_INT_SHAPE + 18):
        cell = bytearray(48)
        if shape < 4:  # 0.ddd to 0.000ddd: the point at 0..-3
            cell[1:6 - shape] = b"0." + b"0" * (3 - shape)
        elif shape < 20:  # the point after digit 1..16, and a digit past it
            point = shape - 3
            cell[6:8 + 2 * point:2] = b"0" * (point + 1)
            cell[5 + 2 * point] = ord(".")
        elif shape == 21:  # d.ddde+dd
            cell[7] = ord(".")
        elif shape > _INT_SHAPE:
            width = shape - _INT_SHAPE
            cell[6:6 + 2 * width:2] = b"0" * width
        cell[45] = ord(",")
        shapes.append(cell.decode("ascii"))
    shape_of, exponents = [], []
    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
        if -3 <= decpt <= 16:
            shape_of += [decpt + 3] * 2
            exponents.append("\0" * 16)
        else:
            shape_of += [20, 21]
            exponents.append(f"e{decpt - 1:+03d}".ljust(8, "\0") * 2)
    shape_of += range(_INT_SHAPE, _INT_SHAPE + 18)
    cells = _words("".join(shapes)).reshape(-1, 6).T[:, shape_of]
    cells[5, :_INT_CODE] |= _words("".join(exponents))
    return cells


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimals D * 10^k of the positive finite doubles with bit
    patterns ``bits``, as uint64 D of at most 17 digits and int64 k.

    Of the shortest decimals that read back as the value, D is the closest
    to it, and the even one of two as close: the digits ``repr`` prints.
    The steps are Java's DoubleToDecimal, with c 2^q the value and
    vb, vbl, vbr the value and the ends of its rounding interval in units
    of 10^k / 4, each rounded to odd.  One rule differs: Java prints at
    least two digits, while ``repr`` drops to one digit whenever one is
    enough, so the one-digit-shorter candidates are tried for every value
    (which also renders 5e-324 and 1e-323 with no rescaling).
    """
    (g0_lo, g0_hi, g1_lo, g1_hi), _, _ = _printer_tables()
    bq = (bits >> _U(52)) & _U(0x7FF)
    c = bits & _U(2 ** 52 - 1)
    del bits
    irregular = (c == 0) & (bq > 1)
    c |= (bq != 0) * _U(2 ** 52)
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    del bq
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) on the irregular
    # spacing below a power of two.
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    # cp = (4c - 2 + irregular, 4c, 4c + 2) << h with
    # h = q + floor(log2 10^-k) + 2.
    cp = np.empty((3, c.size), dtype=np.uint64)
    np.left_shift(c, _U(2), out=cp[1])
    np.add(cp[1], _U(2), out=cp[2])
    np.subtract(cp[1], _U(2), out=cp[0])
    cp[0] += irregular
    del irregular
    q += ((-k * 913124641741) >> 38) + 2
    cp <<= q.astype(np.uint64)
    del q
    i = k + 324
    g0_lo, g0_hi, g1_lo, g1_hi = g0_lo[i], g0_hi[i], g1_lo[i], g1_hi[i]
    del i
    # rop(g cp 2^-127): with (hi, y0) = g1 cp and x1 = (g0 cp) >> 64,
    # z = (y0 >> 1) + x1 and the result is (hi + z >> 63) | (z mod 2^63 != 0).
    # Each 64 x 64-bit product is four 32 x 32-bit ones, and the limbs of
    # cp make way for the products once they are used.
    b1 = cp >> _U(32)
    b0 = cp
    b0 &= _M32
    x1 = g0_lo * b0
    x1 >>= _U(32)
    tmp = g0_lo * b1
    x1 += tmp
    np.multiply(g0_hi, b0, out=tmp)
    x1 += tmp
    x1 >>= _U(32)
    np.multiply(g0_hi, b1, out=tmp)
    x1 += tmp
    del g0_lo, g0_hi
    mid = g1_hi * b0
    lo = b0
    lo *= g1_lo
    np.multiply(g1_lo, b1, out=tmp)
    mid += tmp
    np.right_shift(lo, _U(32), out=tmp)
    mid += tmp
    hi = b1
    hi *= g1_hi
    np.right_shift(mid, _U(32), out=tmp)
    hi += tmp
    mid <<= _U(32)
    lo &= _M32
    mid |= lo
    mid >>= _U(1)
    mid += x1
    np.right_shift(mid, _U(63), out=tmp)
    hi += tmp
    mid &= _M63
    mid += _M63
    mid >>= _U(63)
    hi |= mid
    del g1_lo, g1_hi, b0, cp, lo, x1, mid, tmp
    vbl, vb, vbr = hi
    # The interval is closed when c is even.  s 10^k and (s + 1) 10^k bracket
    # the value, and so do sp10 10^k and (sp10 + 10) 10^k one digit shorter.
    c &= _U(1)
    vbl += c
    vbr -= c
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    uin = vbl <= s << _U(2)
    win = (s << _U(2)) + _U(4) <= vbr
    up = win & (~uin | (((vb & _U(3)) + (s & _U(1))) > 2))
    return np.where(upin ^ wpin, sp10 + wpin * _U(10), s + up), k


def _digit_indices(D: np.ndarray,
                   negative: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(idx, more) of 17-digit decimals D: idx[w] indexes `_digit_words`
    for cell word w, word 0 the leading digit with its sign and words 1-4
    the other sixteen digits, four a word; more: whether a digit after the
    leading one is not 0.  A group of four is printed without its trailing
    zeros when every group after it is 0."""
    idx = np.empty((5, D.size), dtype=np.intp)
    D = D.view(np.int64)
    np.floor_divide(D, 10 ** 16, out=idx[0])
    rest = D - idx[0] * 10 ** 16
    more = rest != 0
    halves = np.empty((2, D.size), dtype=np.intp)
    np.floor_divide(rest, 10 ** 8, out=halves[0])
    np.subtract(rest, halves[0] * 10 ** 8, out=halves[1])
    del rest
    np.floor_divide(halves, 10 ** 4, out=idx[1::2])
    np.subtract(halves, idx[1::2] * 10 ** 4, out=idx[2::2])
    del halves
    # later[j]: a digit of group j + 2 or after it is not 0.
    later = idx[2:] != 0
    later[1] |= later[2]
    later[0] |= later[1]
    idx[1:4] += later * _FULL
    idx[0] += negative.view(np.int64) * 10 + _LEAD
    return idx, more


def _render_chunk(rows: np.ndarray) -> bytes:
    """CSV lines of the finite float64 matrix ``rows``, whose column 0,
    the sample index t < 10^16, is written as an integer."""
    _, digits, cells = _printer_tables()
    width = rows.shape[1]
    bits = rows.reshape(-1).view(np.uint64)
    # A zero goes through as 1.0, whose point is after digit 1, and its
    # digits are deleted; the layout pads it to "0.0".
    zero = (bits << _U(1)) == 0
    D, k = _shortest(np.where(zero, _U(0x3FF0000000000000), bits & _M63))
    ndig = np.searchsorted(_POW10, D, side="right")
    decpt = k + ndig
    D *= _POW10[17 - ndig]
    D *= ~zero
    # Each array is dropped once used, which keeps the block's peak small.
    del k, ndig, zero
    # The cells are built word-major, six rows of words, from each value's
    # layout, then its digits and sign.
    idx, more = _digit_indices(D, bits >> _U(63))
    del D
    code = (decpt - _DECPT_MIN) * 2 + more
    code[::width] = _INT_CODE + decpt[::width]
    del decpt, more
    words = np.take(cells, code, axis=1)
    del code
    words[:5] |= np.take(digits, idx)
    del idx
    # The last cell of a line ends it: its "," (byte 45) becomes "\n".
    words[5, width - 1::width] ^= _U((ord(",") ^ ord("\n")) << 40)
    return words.T.tobytes().translate(None, b"\0")


def _csv_chunks(header: list[str], blocks):
    """CSV text in ASCII blocks: the header, then one line per sample t
    holding t and row t of the time-major ``blocks`` side by side.

    Values are shortest round-trip decimals, byte-identical to ``repr`` of
    each float, made by the vectorized Schubfach printer above.  The file
    is the data of record for the synthesis route, and the kernel
    computation is only meaningful when reading a file back reproduces the
    recorded samples bit for bit; 12-digit rounding would lift the trailing
    singular values of the block matrix and destroy its rank structure.  No
    field needs CSV quoting, so the text equals what ``csv.writer`` writes.
    The lines go out in blocks of equal numbers of rows, as few as hold
    at most `_CHUNK_VALUES` values each (or one row, if a row holds more),
    so the file is never held whole.  A non-finite value is refused with
    ValueError.
    """
    yield (",".join(header) + "\n").encode("ascii")
    T = blocks[0].shape[0]
    count = -(-T * len(header) // _CHUNK_VALUES)
    step = -(-T // count) if T else 1
    for t0 in range(0, T, step):
        t = np.arange(t0, min(t0 + step, T), dtype=float)
        rows = np.hstack([t[:, None]] + [b[t0:t0 + step] for b in blocks])
        finite = np.isfinite(rows)
        if not finite.all():
            row, col = (int(i) for i in np.argwhere(~finite)[0])
            raise ValueError(
                f"row {t0 + row}, column {header[col]!r}: cannot write the "
                f"non-finite value {float(rows[row, col])!r}"
            )
        yield _render_chunk(rows)


def _header(n: int, m: int, p: int, r: int | None) -> list[str]:
    cols = ["t"]
    cols += [f"x_{i + 1}" for i in range(n)]
    cols += [f"u_{i + 1}" for i in range(m)]
    cols += [f"y_{i + 1}" for i in range(p)]
    if r is not None:
        cols += [f"d_{i + 1}" for i in range(r)]
    return cols


def _trajectory_columns(data: HistoricalData) -> tuple[list[str], list]:
    n, m, p = data.x.shape[1], data.u.shape[1], data.y.shape[1]
    r = data.d.shape[1] if data.d is not None else None
    blocks = [data.x, data.u, data.y] + ([data.d] if r is not None else [])
    return _header(n, m, p, r), blocks


def save_trajectory(path, data: HistoricalData) -> None:
    """Write a comma-delimited trajectory file (exact round-trip values)."""
    with open(path, "wb") as fh:
        fh.writelines(_csv_chunks(*_trajectory_columns(data)))


def render_trajectory(data: HistoricalData) -> str:
    """Trajectory file contents as a string (used by the stdout path)."""
    return b"".join(_csv_chunks(*_trajectory_columns(data))).decode("ascii")


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
            # A long name is cut to its first 40 characters and its length.
            shown = (repr(name) if len(name) <= 40
                     else f"{name[:40]!r}... ({len(name)} characters)")
            raise TrajectoryFormatError(
                f"unexpected column {shown} at position {col}: the header "
                "must read t,x_1..x_n,u_1..u_m,y_1..y_p[,d_1..d_r]"
            )
    return n, m, p, r or None


def _body_fault(message: str, width: int) -> TrajectoryFormatError:
    """The refusal of a body whose parse numpy's reader stopped with
    ``message``, naming the data row it stopped at.

    numpy counts rows from 1 in its column-count message and from 0 in its
    conversion message, blank lines skipped in both.  A changed column
    count is blamed on row 0 when row 0 has the wrong width.
    """
    changed = re.search(r"changed from (\d+) to (\d+) at row (\d+)", message)
    if changed:
        first, got, row = map(int, changed.groups())
        t, got = (0, first) if first != width else (row - 1, got)
        return TrajectoryFormatError(
            f"row {t}: expected {width} fields, got {got}")
    field = re.search(r"at row (\d+), column \d+\.$", message)
    if field:
        return TrajectoryFormatError(f"row {field[1]}: non-numeric field")
    return TrajectoryFormatError(message)


def load_trajectory(path) -> HistoricalData:
    """Parse a trajectory file; raises TrajectoryFormatError on any defect.

    The header is the first line that is not blank; `np.loadtxt` parses the
    rest of the file once, and `_body_fault` turns its refusal into one
    that names the data row.  A non-ASCII byte reads as U+FFFD, which no
    header name or number holds, so a file with one is refused.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = next((line for line in fh if line != "\n"), None)
        if header is None:
            raise TrajectoryFormatError("empty trajectory file")
        n, m, p, r = _split_header(header.rstrip("\n").split(","))
        width = 1 + n + m + p + (r or 0)
        try:
            with warnings.catch_warnings():
                # loadtxt warns on an empty body, refused below.
                warnings.simplefilter("ignore")
                vals = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise _body_fault(str(exc), width) from None
    if not len(vals):
        raise TrajectoryFormatError("no data rows")
    if vals.shape[1] != width:
        raise TrajectoryFormatError(
            f"row 0: expected {width} fields, got {vals.shape[1]}")
    bad_t = np.flatnonzero(vals[:, 0] != np.arange(len(vals)))
    if bad_t.size:
        t = int(bad_t[0])
        raise TrajectoryFormatError(
            f"row {t}: t must ascend from 0, got {vals[t, 0]:g}")
    # The constructor's copies keep each block contiguous and let the
    # parsed body go.
    x, u, y, d = np.split(vals[:, 1:], [n, n + m, n + m + p], axis=1)
    try:
        return HistoricalData(x=x, u=u, y=y, d=d if r is not None else None)
    except ValueError as exc:
        raise TrajectoryFormatError(str(exc)) from None
