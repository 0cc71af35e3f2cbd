"""Closed-loop simulation of a plant/observer pair and error-trace analysis.

`run` simulates plant and observer over the whole horizon:

    x(t+1)   = A x(t) + B u(t) + E d(t)
    y(t)     = C x(t) + D u(t) + F d(t)
    z(t+1)   = A_uio z(t) + B_u u(t) + B_y y(t)
    x_hat(t) = z(t) + D_u u(t) + D_y y(t)
    e(t)     = x(t) - x_hat(t)

For a true acceptor the error obeys e(t+1) = A_uio e(t) exactly, whatever
the disturbance does — `check_error_recursion` measures exactly that
residual on a recorded trace, and `convergence_stats` summarizes how fast
the error actually decayed.  The simulator emits numbers, not plots; traces
can be written to the trajectory file format extended with z/x_hat/e
columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datalog import (
    _csv_chunks,
    _header,
    _resolve_vector,
    resolve_policy,
)
from .plant import (
    StateSpaceModel,
    UioRealization,
    _recursion,
    _require_finite,
    _require_same_dims,
    _simulate,
    step,
)

__all__ = [
    "RunTrace",
    "ConvergenceStats",
    "run",
    "exact_observer_init",
    "check_error_recursion",
    "convergence_stats",
    "render_trace",
    "save_trace",
]

#: Error norms at or below this are treated as exactly zero when fitting
#: decay rates (log of a numerical zero is meaningless).
ZERO_ERROR_FLOOR = 1e-14


@dataclass(frozen=True)
class RunTrace:
    """Time-major record of one closed-loop run (all arrays have T rows)."""

    x: np.ndarray
    u: np.ndarray
    d: np.ndarray
    y: np.ndarray
    z: np.ndarray
    x_hat: np.ndarray
    e: np.ndarray

    @property
    def T(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ConvergenceStats:
    """Final error norm and fitted log-decay slope (None when undefined)."""

    final_error_norm: float
    decay_rate: float | None


def run(
    model: StateSpaceModel,
    uio: UioRealization,
    T: int,
    input_policy=None,
    disturbance_policy=None,
    x0=None,
    z0=None,
    seed: int = 0,
) -> RunTrace:
    """Simulate plant and observer for T steps.

    Policies and initial conditions follow the datalog conventions: None
    means zeros, `Uniform` draws from one generator seeded with ``seed``
    (draw order: x0, z0, input sequence, disturbance sequence), and explicit
    arrays must have the signal's shape.  The observer state starts at z0
    (default 0).  Model and observer are valid once built; only their
    dimensions are matched here.

    Plant and observer share the one state recursion of `plant`: the plant
    states and outputs come first, then the observer's z(t+1) = A_uio z(t)
    + w(t) with w = B_u u + B_y y for all t in one matrix product; x_hat and
    e are whole-array products too.  Signals are checked once, not per step,
    and a run whose plant or observer signals leave the float64 range raises
    ValueError naming the first sample that is not finite.
    """
    _require_same_dims(model, uio)
    if T < 1:
        raise ValueError("need T >= 1")
    rng = np.random.default_rng(seed)
    x0 = _resolve_vector(x0, model.n, rng, "x0")
    z0 = _resolve_vector(z0, model.n, rng, "z0")
    u_seq = resolve_policy(input_policy, T, model.m, rng, "input sequence")
    d_seq = resolve_policy(disturbance_policy, T, model.r, rng,
                           "disturbance sequence")

    x_seq, y_seq = _simulate(model, x0, u_seq, d_seq)
    uy = np.hstack([u_seq, y_seq])
    with np.errstate(over="ignore", invalid="ignore"):
        z_seq = _recursion(uio.A_uio, z0, uy @ np.hstack([uio.B_u, uio.B_y]).T)
        xh_seq = z_seq + uy @ np.hstack([uio.D_u, uio.D_y]).T
        e_seq = x_seq - xh_seq
    _require_finite("the observer", z_seq, xh_seq, e_seq)
    return RunTrace(
        x=x_seq, u=u_seq, d=d_seq, y=y_seq,
        z=z_seq, x_hat=xh_seq, e=e_seq,
    )


def exact_observer_init(
    model: StateSpaceModel, uio: UioRealization, x0, u0, d0
) -> np.ndarray:
    """The z0 that makes e(0) = 0 for the given first sample.

    Uses z0 = x0 - D_u u(0) - D_y y(0); for acceptors D_y F = 0, so the
    result does not actually depend on d0 and the whole error trace stays
    at zero.  An observer whose dimensions do not match the model's is
    refused with ValueError.
    """
    _require_same_dims(model, uio)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    _, y0 = step(model, x0, u0, d0)
    u0 = np.asarray(u0, dtype=float).reshape(-1)
    return x0 - uio.D_u @ u0 - uio.D_y @ y0


def check_error_recursion(
    trace: RunTrace, uio: UioRealization, tol: float = 1e-10
) -> tuple[bool, float]:
    """Does the trace's error follow e(t+1) = A_uio e(t)?

    Returns (verdict, residual) where residual is the max-abs one-step
    defect; the verdict compares it against ``tol * (1 + max |e|)``.  A
    single-sample or all-zero trace passes vacuously.
    """
    e = trace.e
    if e.shape[0] < 2:
        return True, 0.0
    defect = e[1:].T - uio.A_uio @ e[:-1].T
    residual = float(np.abs(defect).max()) if defect.size else 0.0
    scale = float(np.abs(e).max()) if e.size else 0.0
    return residual < tol * (1.0 + scale), residual


def convergence_stats(trace: RunTrace) -> ConvergenceStats:
    """Final error norm and least-squares slope of log ||e(t)|| on the tail.

    The tail is the second half of the run (t >= T // 2); samples with
    ||e|| <= 1e-14 are ignored as exact zeros.  With fewer than two usable
    tail samples the decay rate is undefined and reported as None.
    """
    # hypot scales as it goes, so a finite error whose square would
    # overflow still has a finite norm.
    norms = np.hypot.reduce(trace.e, axis=1)
    final = float(norms[-1]) if norms.size else 0.0
    t_all = np.arange(trace.T)
    keep = (norms > ZERO_ERROR_FLOOR) & (t_all >= trace.T // 2)
    if np.count_nonzero(keep) < 2:
        return ConvergenceStats(final_error_norm=final, decay_rate=None)
    slope = np.polyfit(t_all[keep], np.log(norms[keep]), 1)[0]
    return ConvergenceStats(final_error_norm=final, decay_rate=float(slope))


# --------------------------------------------------------------------------
# Trace files: trajectory format extended with z_*, xhat_*, e_* columns.
# Values are written as shortest round-trip decimals by the trajectory
# writer, so a trace file reads back bit for bit too.


def _trace_columns(trace: RunTrace) -> tuple[list[str], tuple]:
    n = trace.x.shape[1]
    header = (_header(n, trace.u.shape[1], trace.y.shape[1], trace.d.shape[1])
              + [f"{name}_{i + 1}" for name in ("z", "xhat", "e")
                 for i in range(n)])
    return header, (trace.x, trace.u, trace.y, trace.d,
                    trace.z, trace.x_hat, trace.e)


def render_trace(trace: RunTrace) -> str:
    return b"".join(_csv_chunks(*_trace_columns(trace))).decode("ascii")


def save_trace(path, trace: RunTrace) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_csv_chunks(*_trace_columns(trace)))
