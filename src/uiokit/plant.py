"""Plant and observer data types, the consistency matrix, and model files.

The plant class describes a discrete-time linear system driven by a known
input u and an unknown disturbance d that enters both equations:

    x(t+1) = A x(t) + B u(t) + E d(t)
    y(t)   = C x(t) + D u(t) + F d(t)

with x in R^n, u in R^m, y in R^p, d in R^r.  A model is *valid* when its
entries are finite, its dimensions are consistent, no product of two of
its matrices overflows and the stacked disturbance map [E; F] has full
column rank r.  `StateSpaceModel` refuses an invalid model when it is
built and keeps read-only copies of its matrices, so every model that
exists is valid and no route checks it again.

`consistency_matrix` assembles the matrix Gamma whose column space contains
every stacked one-step window (x, x+, u, u+, y, y+) the plant can generate;
it defines the behaviour both design routes annihilate.  No design path
decomposes it: `synth.model_kernel` builds its left kernel in closed form,
from the disturbance block alone.

`step` advances one sample with full input checks.  Whole horizons
(`datalog.collect`, `simlab.run`) go through one private state recursion
instead, x(t+1) = A x(t) + w(t) with w formed for every t in one matrix
product, and check their signal inputs once.  Plant and observer recursions
share one overflow guard, which names the first sample that leaves the
float64 range.

An observer produced by the design pipeline is packaged as
`UioRealization`; its recursion and output map read

    z(t+1)  = A_uio z(t) + B_u u(t) + B_y y(t)
    x_hat(t) = z(t) + D_u u(t) + D_y y(t).

Its construction refuses non-finite entries and inconsistent shapes in the
same way, and `_require_same_dims` is the one check that an observer fits
a model.

Model and observer files, the two JSON matrix formats, are read, written
and checked here, with one reader and one loader; everything else a file
must satisfy is checked by the type it builds, whose ValueError the format
wraps in its own error class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numkit import balanced_rank

__all__ = [
    "StateSpaceModel",
    "UioRealization",
    "ModelFormatError",
    "step",
    "consistency_matrix",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "UioFormatError",
    "uio_to_dict",
    "uio_from_dict",
    "save_uio",
    "load_uio",
]


class ModelFormatError(ValueError):
    """A model file could not be parsed into a valid model."""


class UioFormatError(ValueError):
    """An observer file could not be parsed."""


_MODEL_KEYS = ("A", "B", "C", "D", "E", "F")
_UIO_KEYS = ("A_uio", "B_u", "B_y", "D_u", "D_y")


def _frozen(value, order: str = "K") -> np.ndarray:
    """A read-only float copy of ``value`` in memory ``order``; the
    caller's array stays writable."""
    arr = np.array(value, dtype=float, order=order)
    arr.setflags(write=False)
    return arr


def _matrix(value, what: str) -> np.ndarray:
    arr = _frozen(value)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a 2-D matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class StateSpaceModel:
    """Plant matrices (A, B, C, D, E, F) plus an optional name.

    Construction stores read-only float copies of the six matrices and
    refuses, with ValueError("invalid model: ..."), a model that breaks any
    rule of the module docstring, listing every violation: non-finite
    entries, dimension mismatches, then entries whose products overflow,
    then a rank-deficient [E; F] (decided by `numkit.balanced_rank` at
    `numkit.DEFAULT_TOL`, with the error scale |[E; F]|, so in any units).
    Each later rule is checked only when the earlier ones hold, so a model
    that exists is valid and no route checks it again.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        for attr in _MODEL_KEYS:
            object.__setattr__(self, attr, _matrix(getattr(self, attr), attr))
        v: list[str] = [
            f"non-finite entries in {key}"
            for key in _MODEL_KEYS
            if not np.isfinite(getattr(self, key)).all()
        ]
        n, m, p, r = self.n, self.m, self.p, self.r
        shapes = {"A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m),
                  "E": (n, r), "F": (p, r)}
        v += [f"dimension mismatch: {key} must be {rows}x{cols}, "
              f"got {getattr(self, key).shape}"
              for key, (rows, cols) in shapes.items()
              if getattr(self, key).shape != (rows, cols)]
        if not v:
            with np.errstate(over="ignore"):
                square = sum(float(np.vdot(M, M)) for M in
                             (getattr(self, key) for key in _MODEL_KEYS))
            if not math.isfinite(square):
                v.append(
                    "entries too large: the squared Frobenius norm of "
                    "[[A, B, E], [C, D, F]] overflows, and so can products "
                    "such as CA and CE; rescale the model"
                )
        if not v and r > 0:
            EF = np.vstack([self.E, self.F])
            got = balanced_rank(EF, np.abs(EF))[0]
            if got < r:
                v.append(f"disturbance map rank-deficient: rank [E; F] = "
                         f"{got} < r = {r}")
        if v:
            raise ValueError("invalid model: " + "; ".join(v))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def r(self) -> int:
        return self.E.shape[1]


@dataclass(frozen=True)
class UioRealization:
    """Observer matrices; see the module docstring for the recursion.

    Construction stores read-only float copies and refuses, with
    ValueError, non-finite entries and inconsistent shapes: A_uio must be
    square, every matrix must have its n rows, and B_u/D_u and B_y/D_y
    must have equal widths.
    """

    A_uio: np.ndarray
    B_u: np.ndarray
    B_y: np.ndarray
    D_u: np.ndarray
    D_y: np.ndarray

    def __post_init__(self) -> None:
        for attr in _UIO_KEYS:
            arr = _matrix(getattr(self, attr), attr)
            if not np.isfinite(arr).all():
                raise ValueError(f'field "{attr}" has non-finite entries')
            object.__setattr__(self, attr, arr)
        n = self.n
        if self.A_uio.shape != (n, n):
            raise ValueError("A_uio must be square")
        for attr in _UIO_KEYS[1:]:
            if getattr(self, attr).shape[0] != n:
                raise ValueError(f'field "{attr}" must have {n} rows')
        if self.B_u.shape[1] != self.D_u.shape[1]:
            raise ValueError("B_u and D_u must have equal width")
        if self.B_y.shape[1] != self.D_y.shape[1]:
            raise ValueError("B_y and D_y must have equal width")

    @property
    def n(self) -> int:
        return self.A_uio.shape[0]

    @property
    def m(self) -> int:
        return self.B_u.shape[1]

    @property
    def p(self) -> int:
        return self.B_y.shape[1]


def _require_same_dims(model: StateSpaceModel, uio: UioRealization) -> None:
    """Raise ValueError unless observer and model share (n, m, p)."""
    if (uio.n, uio.m, uio.p) != (model.n, model.m, model.p):
        raise ValueError(
            f"observer dims (n, m, p) = {(uio.n, uio.m, uio.p)} do not match "
            f"model dims {(model.n, model.m, model.p)}"
        )


def step(model: StateSpaceModel, x, u, d) -> tuple[np.ndarray, np.ndarray]:
    """One plant step: returns (x_next, y) for state x, input u, disturbance d."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)
    if x.shape != (model.n,):
        raise ValueError(f"state must have length {model.n}, got {x.shape}")
    if u.shape != (model.m,):
        raise ValueError(f"input must have length {model.m}, got {u.shape}")
    if d.shape != (model.r,):
        raise ValueError(f"disturbance must have length {model.r}, got {d.shape}")
    x_next = model.A @ x + model.B @ u + model.E @ d
    y = model.C @ x + model.D @ u + model.F @ d
    return x_next, y


def _recursion(A: np.ndarray, x0: np.ndarray, W: np.ndarray) -> np.ndarray:
    """States x(0), ..., x(T-1) of x(t+1) = A x(t) + w(t), time-major.

    Row t of ``W`` (shape (T, n)) is w(t); its last row would only feed
    x(T) and is unused.  Nothing is validated: callers check shapes once
    and the result with `_require_finite`.
    """
    X = np.empty_like(W)
    X[0] = x0
    X[1:] = W[:-1]
    rows = list(X)
    for prev, nxt in zip(rows, rows[1:]):
        nxt += A @ prev
    return X


def _require_finite(what: str, *signals: np.ndarray) -> None:
    """Raise ValueError naming the first sample at which one of the
    time-major ``signals`` simulated for ``what`` left the float64 range.

    Callers compute the signals under ``np.errstate(over="ignore",
    invalid="ignore")`` and call this once, so an overflow is refused by
    name instead of printing numpy warnings and NaN statistics.
    """
    finite = np.logical_and.reduce([np.isfinite(s).all(axis=1) for s in signals])
    if not finite.all():
        raise ValueError(
            f"simulating {what} overflowed at sample {np.argmin(finite)}: "
            "the signals leave the float64 range; shrink the ranges or the "
            "horizon"
        )


def _require_finite_entries(arr, what: str, where: str) -> None:
    """ValueError naming ``what`` and, by ``where`` filled with its indices,
    the first non-finite entry of ``arr``."""
    arr = np.asarray(arr, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"{what}: {where.format(*at)} is not finite ({float(arr[at])!r})"
        )


def _simulate(model: StateSpaceModel, x0: np.ndarray, u: np.ndarray,
              d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time-major states and outputs driven by input u and disturbance d.

    The whole-array form of `step`: w = B u + E d for every t in one matrix
    product, one `_recursion` for x, and y = C x + D u + F d in one more.
    A run that leaves the float64 range is refused by `_require_finite`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.hstack([u, d]) @ np.hstack([model.B, model.E]).T
        x = _recursion(model.A, x0, W)
        y = np.hstack([x, u, d]) @ np.hstack([model.C, model.D, model.F]).T
    _require_finite("the plant", x, y)
    return x, y


def consistency_matrix(model: StateSpaceModel) -> np.ndarray:
    """The matrix Gamma generating all one-step windows of the plant.

    Row blocks follow the stacked window order (x, x+, u, u+, y, y+);
    column blocks parametrize the free quantities (x, u, u+, d, d+):

        [ I    0    0    0    0 ]
        [ A    B    0    E    0 ]
        [ 0    I    0    0    0 ]
        [ 0    0    I    0    0 ]
        [ C    D    0    F    0 ]
        [ CA   CB   D    CE   F ]

    Every window the plant can produce lies in Im(Gamma), and under the
    excitation assumption the recorded-window matrix spans exactly Im(Gamma).
    It serves as the definition and as the test oracle of
    `synth.model_kernel`, which builds its left kernel without it, from an
    SVD of the disturbance block [[F, 0], [CE, F]].
    """
    n, m, p, r = model.n, model.m, model.p, model.r
    A, B, C, D, E, F = model.A, model.B, model.C, model.D, model.E, model.F
    G = np.zeros((2 * (n + m + p), n + 2 * m + 2 * r))
    cx, cu, cup, cd, cdp = 0, n, n + m, n + 2 * m, n + 2 * m + r
    row = 0
    G[row:row + n, cx:cx + n] = np.eye(n)
    row += n
    G[row:row + n, cx:cx + n] = A
    G[row:row + n, cu:cu + m] = B
    G[row:row + n, cd:cd + r] = E
    row += n
    G[row:row + m, cu:cu + m] = np.eye(m)
    row += m
    G[row:row + m, cup:cup + m] = np.eye(m)
    row += m
    G[row:row + p, cx:cx + n] = C
    G[row:row + p, cu:cu + m] = D
    G[row:row + p, cd:cd + r] = F
    row += p
    G[row:row + p, cx:cx + n] = C @ A
    G[row:row + p, cu:cu + m] = C @ B
    G[row:row + p, cup:cup + m] = D
    G[row:row + p, cd:cd + r] = C @ E
    G[row:row + p, cdp:cdp + r] = F
    return G


# --------------------------------------------------------------------------
# Model and observer files: JSON with row-major arrays-of-arrays.


def model_to_dict(model: StateSpaceModel) -> dict:
    doc: dict = {}
    if model.name is not None:
        doc["name"] = model.name
    for key in _MODEL_KEYS:
        doc[key] = getattr(model, key).tolist()
    return doc


def _matrix_fields(doc, keys, what: str, error: type) -> dict:
    """The fields ``keys`` of a parsed JSON matrix document as float arrays.

    The one reader of model and observer files.  It refuses, with
    ``error``, a document that is not an object, a missing field, a field
    that is not an array of arrays, ragged rows and entries that are not
    JSON numbers; every other check belongs to the format that calls it.
    """
    if not isinstance(doc, dict):
        raise error(f"{what} document must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise error(f"missing fields: {', '.join(missing)}")
    fields = {}
    for key in keys:
        rows = doc[key]
        if not isinstance(rows, list) or any(not isinstance(rw, list) for rw in rows):
            raise error(f'field "{key}" must be an array of arrays')
        if len({len(rw) for rw in rows}) > 1:
            raise error(f'field "{key}" has ragged rows')
        if any(type(v) not in (int, float) for rw in rows for v in rw):
            raise error(f'field "{key}" has non-numeric entries')
        try:
            fields[key] = np.array(rows, dtype=float).reshape(
                len(rows), len(rows[0]) if rows else 0)
        except OverflowError:
            raise error(f'field "{key}" has an integer beyond the float64 '
                        "range") from None
    return fields


def _load_json(path, error: type):
    """The parsed JSON document in ``path``; ``error`` if it is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc}") from exc


def model_from_dict(doc: dict) -> StateSpaceModel:
    """Build a model from a parsed JSON document; the constructor's
    refusal of an invalid model becomes a ModelFormatError."""
    fields = _matrix_fields(doc, _MODEL_KEYS, "model", ModelFormatError)
    try:
        return StateSpaceModel(**fields, name=doc.get("name"))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def save_model(path, model: StateSpaceModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> StateSpaceModel:
    """Parse a model JSON file; raises ModelFormatError on any defect."""
    return model_from_dict(_load_json(path, ModelFormatError))


def uio_to_dict(uio: UioRealization, diagnostics=None) -> dict:
    """The JSON document of an observer, with the `synth.SynthesisDiagnostics`
    ``diagnostics`` echoed under "diagnostics" when given."""
    doc: dict = {key: getattr(uio, key).tolist() for key in _UIO_KEYS}
    if diagnostics is not None:
        doc["diagnostics"] = {
            "gain": diagnostics.gain,
            "eigenvalues": [
                [float(ev.real), float(ev.imag)]
                for ev in diagnostics.spectrum.eigenvalues
            ],
            "spectral_radius": float(diagnostics.spectrum.spectral_radius),
            "schur": bool(diagnostics.spectrum.is_schur),
            "residuals": {"sign_identity": float(diagnostics.sign_identity)},
        }
    return doc


def uio_from_dict(doc: dict) -> UioRealization:
    """Build an observer from a parsed JSON document.

    `_matrix_fields` checks the document's structure, and `UioRealization`
    its content (finite entries, consistent shapes); its refusal becomes a
    UioFormatError.
    """
    mats = _matrix_fields(doc, _UIO_KEYS, "observer", UioFormatError)
    try:
        return UioRealization(**mats)
    except ValueError as exc:
        raise UioFormatError(str(exc)) from None


def save_uio(path, uio: UioRealization, diagnostics=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(uio_to_dict(uio, diagnostics), fh, indent=2)
        fh.write("\n")


def load_uio(path) -> UioRealization:
    """Parse an observer JSON file; raises UioFormatError on any defect."""
    return uio_from_dict(_load_json(path, UioFormatError))
