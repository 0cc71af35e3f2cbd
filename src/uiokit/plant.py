"""Plant and observer data types, the consistency matrix, and model files.

The plant class describes a discrete-time linear system driven by a known
input u and an unknown disturbance d that enters both equations:

    x(t+1) = A x(t) + B u(t) + E d(t)
    y(t)   = C x(t) + D u(t) + F d(t)

with x in R^n, u in R^m, y in R^p, d in R^r.  A model is *valid* when its
entries are finite, its dimensions are consistent and the stacked
disturbance map [E; F] has full column rank r; `validate` refuses a
rank-deficient [E; F].

`consistency_matrix` assembles the matrix Gamma whose column space contains
every stacked one-step window (x, x+, u, u+, y, y+) the plant can generate;
it defines the behaviour both design routes annihilate.  No design path
decomposes it: `synth.model_kernel` builds its left kernel in closed form.

`step` advances one sample with full input checks.  Whole horizons
(`datalog.collect`, `simlab.run`) go through one private state recursion
instead, x(t+1) = A x(t) + w(t) with w formed for every t in one matrix
product, and validate their inputs once.

An observer produced by the design pipeline is packaged as
`UioRealization`; its recursion and output map read

    z(t+1)  = A_uio z(t) + B_u u(t) + B_y y(t)
    x_hat(t) = z(t) + D_u u(t) + D_y y(t).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numkit import DEFAULT_TOL, RankTolerance, rank

__all__ = [
    "StateSpaceModel",
    "UioRealization",
    "ModelFormatError",
    "validate",
    "require_valid",
    "step",
    "consistency_matrix",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]


class ModelFormatError(ValueError):
    """A model file could not be parsed into a valid model."""


def _matrix(value, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a 2-D matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class StateSpaceModel:
    """Plant matrices (A, B, C, D, E, F) plus an optional name.

    Construction only coerces the fields to 2-D float arrays; semantic
    checks live in `validate` / `require_valid` so that broken candidates
    can still be represented and diagnosed.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        for attr in ("A", "B", "C", "D", "E", "F"):
            object.__setattr__(self, attr, _matrix(getattr(self, attr), attr))

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
    """Observer matrices; see the module docstring for the recursion."""

    A_uio: np.ndarray
    B_u: np.ndarray
    B_y: np.ndarray
    D_u: np.ndarray
    D_y: np.ndarray

    def __post_init__(self) -> None:
        for attr in ("A_uio", "B_u", "B_y", "D_u", "D_y"):
            object.__setattr__(self, attr, _matrix(getattr(self, attr), attr))

    @property
    def n(self) -> int:
        return self.A_uio.shape[0]

    @property
    def m(self) -> int:
        return self.B_u.shape[1]

    @property
    def p(self) -> int:
        return self.B_y.shape[1]


def validate(model: StateSpaceModel, tol: RankTolerance = DEFAULT_TOL) -> list[str]:
    """Diagnose a model; returns a list of violations (empty means valid).

    Checks that all six matrices are finite and have consistent dimensions,
    then full column rank of the stacked disturbance map [E; F]; the rank
    is decided only for a model that passes the other checks.
    """
    v: list[str] = [
        f"non-finite entries in {key}"
        for key in ("A", "B", "C", "D", "E", "F")
        if not np.isfinite(getattr(model, key)).all()
    ]
    n, m, p, r = model.n, model.m, model.p, model.r
    if model.A.shape != (n, n):
        v.append(f"dimension mismatch: A must be square, got {model.A.shape}")
    if model.B.shape != (n, m):
        v.append(f"dimension mismatch: B must have {n} rows, got {model.B.shape}")
    if model.C.shape != (p, n):
        v.append(f"dimension mismatch: C must have {n} columns, got {model.C.shape}")
    if model.D.shape != (p, m):
        v.append(f"dimension mismatch: D must be {p}x{m}, got {model.D.shape}")
    if model.E.shape != (n, r):
        v.append(f"dimension mismatch: E must have {n} rows, got {model.E.shape}")
    if model.F.shape != (p, r):
        v.append(f"dimension mismatch: F must be {p}x{r}, got {model.F.shape}")
    if not v and r > 0:
        stacked = np.vstack([model.E, model.F])
        got = rank(stacked, tol)
        if got < r:
            v.append(
                f"disturbance map rank-deficient: rank [E; F] = {got} < r = {r}"
            )
    return v


def require_valid(model: StateSpaceModel, tol: RankTolerance = DEFAULT_TOL) -> None:
    """Raise ValueError listing all violations if the model is invalid."""
    violations = validate(model, tol)
    if violations:
        raise ValueError("invalid model: " + "; ".join(violations))


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
    x(T) and is unused.  Nothing is validated: callers check shapes once.
    """
    X = np.empty_like(W)
    X[0] = x0
    X[1:] = W[:-1]
    rows = list(X)
    for prev, nxt in zip(rows, rows[1:]):
        nxt += A @ prev
    return X


def _simulate(model: StateSpaceModel, x0: np.ndarray, u: np.ndarray,
              d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time-major states and outputs driven by input u and disturbance d.

    The whole-array form of `step`: w = B u + E d for every t in one matrix
    product, one `_recursion` for x, and y = C x + D u + F d in one more.
    A run that leaves the float64 range raises ValueError naming the first
    sample that is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.hstack([u, d]) @ np.hstack([model.B, model.E]).T
        x = _recursion(model.A, x0, W)
        y = np.hstack([x, u, d]) @ np.hstack([model.C, model.D, model.F]).T
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"simulating the plant overflowed at sample {np.argmin(finite)}: "
            "the signals leave the float64 range; shrink the ranges or the "
            "horizon"
        )
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
    `synth.model_kernel`, which builds its left kernel without it.
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
# Model files: JSON with row-major arrays-of-arrays.


def model_to_dict(model: StateSpaceModel) -> dict:
    doc: dict = {}
    if model.name is not None:
        doc["name"] = model.name
    for key in ("A", "B", "C", "D", "E", "F"):
        doc[key] = getattr(model, key).tolist()
    return doc


def _rows_to_matrix(rows, key: str, n_rows: int | None = None) -> np.ndarray:
    if not isinstance(rows, list) or any(not isinstance(rw, list) for rw in rows):
        raise ModelFormatError(f'field "{key}" must be an array of arrays')
    widths = {len(rw) for rw in rows}
    if len(widths) > 1:
        raise ModelFormatError(f'field "{key}" has ragged rows')
    width = widths.pop() if widths else 0
    try:
        arr = np.asarray(rows, dtype=float).reshape(len(rows), width)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f'field "{key}" has non-numeric entries') from exc
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ModelFormatError(
            f'field "{key}" must have {n_rows} rows, got {arr.shape[0]}'
        )
    return arr


def model_from_dict(doc: dict, tol: RankTolerance = DEFAULT_TOL) -> StateSpaceModel:
    """Build and validate a model from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    missing = [k for k in ("A", "B", "C", "D", "E", "F") if k not in doc]
    if missing:
        raise ModelFormatError(f"missing fields: {', '.join(missing)}")
    A = _rows_to_matrix(doc["A"], "A")
    n = A.shape[0]
    p = len(doc["C"]) if isinstance(doc["C"], list) else 0
    model = StateSpaceModel(
        A=A,
        B=_rows_to_matrix(doc["B"], "B", n),
        C=_rows_to_matrix(doc["C"], "C"),
        D=_rows_to_matrix(doc["D"], "D", p),
        E=_rows_to_matrix(doc["E"], "E", n),
        F=_rows_to_matrix(doc["F"], "F", p),
        name=doc.get("name"),
    )
    violations = validate(model, tol)
    if violations:
        raise ModelFormatError("invalid model: " + "; ".join(violations))
    return model


def save_model(path, model: StateSpaceModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path, tol: RankTolerance = DEFAULT_TOL) -> StateSpaceModel:
    """Parse a model JSON file; raises ModelFormatError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return model_from_dict(doc, tol)
