"""Shared numerical kernel: rank decisions, null-space bases, spectra, gains.

Every rank-sensitive decision in the package funnels through this module so
that a single tolerance policy governs them all.  The policy mirrors the
usual SVD cutoff: a singular value counts as nonzero when it exceeds

    max(n_rows, n_cols) * relative * sigma_max

optionally floored by an absolute threshold.  Schur/stability decisions carry
their own margin: an eigenvalue is "stable" only if its modulus stays below
1 - margin.

Where a pencil loses rank is decided once, by `invariant_zeros` with the
fixed relative cutoff `ZERO_CUT_RELATIVE`: condition (a) of `existcheck`,
and, with no disturbance, the unobservable modes that decide detectability
(`undetectable_modes`) and observability (`place_poles`).

The gain constructors (`stabilizing_gain`, `place_poles`) build output
injections L for a pair (Abar, Cbar), i.e. they shape the spectrum of
Abar + L @ Cbar.  Neither takes a seed or an iteration budget: the Riccati
gain comes from a structure-preserving doubling solve of the DARE, a few
n x n solves and products that stop at float64 accuracy, and placement
draws its output combinations from one fixed generator.  Both verify their
own output and raise instead of returning an unchecked gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "RankTolerance",
    "DEFAULT_TOL",
    "SCHUR_MARGIN",
    "SpectrumReport",
    "NumericalFailure",
    "ColumnRankDeficient",
    "NotDetectable",
    "NotObservable",
    "PlacementFailed",
    "rank",
    "right_null_basis",
    "left_null_basis",
    "left_inverse",
    "spectrum",
    "eig_assignment_error",
    "ZERO_CUT_RELATIVE",
    "invariant_zeros",
    "undetectable_modes",
    "stabilizing_gain",
    "place_poles",
    "rowspace_angles",
]

_EPS = float(np.finfo(float).eps)

#: Default stability margin: eigenvalues with modulus >= 1 - SCHUR_MARGIN are
#: treated as not (safely) stable.
SCHUR_MARGIN = 1e-9

#: Relative rank cutoff of the zero reduction, against the norm of
#: S = [[A, E], [C, F]].  Every step leaves rounding residue in the blocks
#: it rotates, and an eps-level cutoff counts that residue as rank, which
#: couples a hidden mode back to the outputs and loses its zero.
ZERO_CUT_RELATIVE = 1e-9

#: Doublings that shrink the slowest closed loop float64 can hold, spectral
#: radius rho = 1 - eps, to eps: log2(log eps / log rho), about 58.
_MAX_DOUBLINGS = int(np.ceil(np.log2(np.log(_EPS) / np.log1p(-_EPS))))

#: Multi-output placement: random reductions tried before giving up, and the
#: matching distance within which a placed spectrum counts as verified.
PLACEMENT_ATTEMPTS = 30
PLACEMENT_TOL = 1e-6


class NumericalFailure(RuntimeError):
    """A numerical routine could not certify its own result."""


class ColumnRankDeficient(ValueError):
    """A matrix expected to have full column rank does not."""


class NotDetectable(ValueError):
    """(Abar, Cbar) has unstable modes invisible from Cbar, listed in ``modes``."""

    def __init__(self, modes):
        super().__init__(f"undetectable unstable modes: {modes}")
        self.modes = list(modes)


class NotObservable(ValueError):
    """(Abar, Cbar) has unobservable modes."""


class PlacementFailed(NumericalFailure):
    """Pole placement could not produce a verified gain."""


@dataclass(frozen=True)
class RankTolerance:
    """Tolerance policy for numerical rank decisions.

    Attributes:
        relative: multiplies ``max(shape) * sigma_max`` to form the cutoff.
            Defaults to machine epsilon, matching the conventional SVD rank
            threshold for noise-free data.
        absolute_floor: lower bound on the cutoff, for data whose noise level
            is known a priori.  Zero by default.
    """

    relative: float = _EPS
    absolute_floor: float = 0.0

    def cutoff(self, shape, sigma_max: float) -> float:
        """Cutoff for singular values of a matrix of ``shape``.

        ``sigma_max`` is its largest singular value.  Every rank decision
        in the package goes through this rule.
        """
        return max(max(shape) * self.relative * sigma_max, self.absolute_floor)

    def threshold(self, M: np.ndarray) -> float:
        """Effective cutoff for singular values of ``M``."""
        M = np.asarray(M)
        if M.size == 0:
            return self.absolute_floor
        return self.cutoff(M.shape, float(np.linalg.norm(M, 2)))


DEFAULT_TOL = RankTolerance()


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a square matrix together with a Schur verdict."""

    eigenvalues: np.ndarray
    spectral_radius: float
    is_schur: bool
    margin: float = SCHUR_MARGIN

    def moduli(self) -> np.ndarray:
        """Sorted eigenvalue moduli (ascending)."""
        return np.sort(np.abs(self.eigenvalues))


def _as_2d(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    return M


def rank(M, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Numerical rank of ``M`` under the package tolerance policy."""
    M = _as_2d(M)
    if min(M.shape) == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return _rank_from_singular_values(s, M.shape, tol)


def right_null_basis(M, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the right kernel, as columns.

    Returns a ``cols x (cols - rank)`` matrix Q with orthonormal columns and
    ``M @ Q ~= 0``.  For a full-column-rank input the result has zero width.
    """
    M = _as_2d(M)
    if M.shape[0] == 0:
        # No constraints: the kernel is everything.
        return np.eye(M.shape[1])
    _, s, Vt = np.linalg.svd(M)
    k = _rank_from_singular_values(s, M.shape, tol)
    return Vt[k:].T.copy()


def left_null_basis(M, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the left kernel, as rows.

    Returns a ``(rows - rank) x rows`` matrix N with orthonormal rows and
    ``N @ M ~= 0``.  A zero-column input yields the identity.
    """
    return _left_null_svd(M, tol)[0]


def _left_null_svd(M, tol: RankTolerance) -> tuple[np.ndarray, np.ndarray]:
    """`left_null_basis` of M together with the singular values of M."""
    M = _as_2d(M)
    if M.shape[1] == 0:
        return np.eye(M.shape[0]), np.zeros(0)
    # The full U is needed only when M is tall; a wide M (e.g. a long
    # recorded-window matrix) would otherwise build a huge unused V'.
    U, s, _ = np.linalg.svd(M, full_matrices=M.shape[0] > M.shape[1])
    k = _rank_from_singular_values(s, M.shape, tol)
    return U[:, k:].T.copy(), s


def _rank_from_singular_values(s, shape, tol: RankTolerance) -> int:
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.cutoff(shape, s[0])))


def left_inverse(M, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose left inverse of a full-column-rank matrix.

    Raises:
        ColumnRankDeficient: if ``rank(M) < M.shape[1]``.
    """
    M = _as_2d(M)
    r = rank(M, tol)
    if r < M.shape[1]:
        raise ColumnRankDeficient(
            f"matrix of shape {M.shape} has rank {r} < {M.shape[1]}"
        )
    return np.linalg.pinv(M, rcond=max(M.shape) * tol.relative)


def spectrum(M, margin: float = SCHUR_MARGIN) -> SpectrumReport:
    """Eigenvalues and Schur verdict of a square matrix.

    The verdict is conservative: ``is_schur`` is True only when the spectral
    radius is strictly below ``1 - margin``.
    """
    M = _as_2d(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"spectrum needs a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        return SpectrumReport(np.zeros(0, dtype=complex), 0.0, True, margin)
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - very rare
        raise NumericalFailure(f"eigenvalue computation failed: {exc}") from exc
    ev = np.sort_complex(ev)
    radius = float(np.max(np.abs(ev)))
    return SpectrumReport(ev, radius, radius < 1.0 - margin, margin)


def eig_assignment_error(eigenvalues, targets) -> float:
    """Max distance of an optimal matching between two eigenvalue multisets.

    Used to compare a computed spectrum against a requested one without
    caring about ordering.  Both arguments must have equal length.
    """
    a = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    b = np.atleast_1d(np.asarray(targets, dtype=complex))
    if a.shape != b.shape:
        raise ValueError("eigenvalue multisets must have equal size")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    if not np.isfinite(cost).all():
        raise ValueError("eigenvalues must be finite")
    return float(cost[_min_cost_matching(cost), np.arange(a.size)].max())


def _min_cost_matching(cost: np.ndarray) -> np.ndarray:
    """Row matched to each column by a minimum-sum perfect matching.

    Shortest augmenting paths with dual potentials (the Hungarian method),
    O(n^3) for a square, finite ``cost``.  Index 0 of the work arrays is a
    virtual column that holds the row being inserted.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)                 # row potentials, rows 1..n
    v = np.zeros(n + 1)                 # column potentials
    owner = np.zeros(n + 1, dtype=int)  # row matched to each column, 0: none
    way = np.zeros(n + 1, dtype=int)    # previous column on the shortest path
    for i in range(1, n + 1):
        owner[0] = i
        j = 0
        slack = np.full(n + 1, np.inf)
        done = np.zeros(n + 1, dtype=bool)
        while owner[j]:
            done[j] = True
            reduced = cost[owner[j] - 1] - u[owner[j]] - v[1:]
            closer = ~done[1:] & (reduced < slack[1:])
            slack[1:][closer] = reduced[closer]
            way[1:][closer] = j
            nxt = 1 + int(np.argmin(np.where(done[1:], np.inf, slack[1:])))
            delta = slack[nxt]
            u[owner[done]] += delta
            v[done] -= delta
            slack[~done] -= delta
            j = nxt
        while j:
            owner[j] = owner[way[j]]
            j = way[j]
    return owner[1:] - 1


def _range_basis(M: np.ndarray, cut: float) -> tuple[np.ndarray, int]:
    """Orthogonal U whose first k columns span the range of M, and k."""
    U, s, _ = np.linalg.svd(M)
    return U, int(np.count_nonzero(s > cut))


def invariant_zeros(
    A, E, C, F, tol: RankTolerance = DEFAULT_TOL
) -> tuple[np.ndarray, int]:
    """Finite zeros of P(z) = [[z*I - A, -E], [C, F]], and the rows F keeps.

    One orthogonal reduction (Emami-Naeini & Van Dooren 1982): the output
    rows F does not reach pin part of the state to zero, and that part and
    those rows are deflated until F has full row rank.  The rank cutoff is
    `ZERO_CUT_RELATIVE` against S = [[A, E], [C, F]], floored by
    ``tol.absolute_floor``.  P has normal rank n + rows; with rows below
    the r columns of F it is rank deficient everywhere and no zeros are
    returned.  With r = 0 the zeros are the unobservable modes of (A, C).
    """
    A, E, C, F = (_as_2d(M) for M in (A, E, C, F))
    S = np.block([[A, E], [C, F]])
    cut = RankTolerance(ZERO_CUT_RELATIVE, tol.absolute_floor).threshold(S)
    while True:
        U, held = _range_basis(F, cut)
        C, F = U.T @ C, U.T @ F
        if held == F.shape[0]:
            break
        # Rows from `held` on see no disturbance: they pin the state part
        # `fixed` to zero, and its state equations become outputs of the
        # part kept.
        V, k = _range_basis(C[held:].T, cut)
        fixed, kept = V[:, :k], V[:, k:]
        A, E, C, F = (
            kept.T @ A @ kept,
            kept.T @ E,
            np.vstack([fixed.T @ A @ kept, C[:held] @ kept]),
            np.vstack([fixed.T @ E, F[:held]]),
        )
    rows = F.shape[0]
    if rows < F.shape[1]:
        return np.zeros(0, dtype=complex), rows
    # F is now square and invertible, so the pencil has r infinite zeros.
    # Deflate them: on the kernel K of [C, F] it reduces to
    # z * K_x - [A, E] @ K, where K_x, the state rows of K, is invertible.
    V, _ = _range_basis(np.hstack([C, F]).T, cut)
    K = V[:, rows:]
    zeros = scipy.linalg.eigvals(np.hstack([A, E]) @ K, K[:A.shape[0]])
    return zeros[np.isfinite(zeros)], rows


def undetectable_modes(
    Abar,
    Cbar,
    tol: RankTolerance = DEFAULT_TOL,
    margin: float = SCHUR_MARGIN,
) -> list[complex]:
    """Unobservable modes of (Abar, Cbar) with modulus >= 1 - margin.

    They are the zeros of `invariant_zeros` with no disturbance, so ``tol``
    gives only the absolute floor, and a Cbar below
    1e-9 * ||[Abar; Cbar]|| counts as zero, as in condition (a).
    """
    Abar = _as_2d(Abar)
    Cbar = _as_2d(Cbar)
    n = Abar.shape[0]
    if Abar.shape[1] != n or Cbar.shape[1] != n:
        raise ValueError("Abar must be square and Cbar must have n columns")
    zeros, _ = invariant_zeros(Abar, np.zeros((n, 0)), Cbar,
                               np.zeros((len(Cbar), 0)), tol)
    return [complex(z) for z in zeros if abs(z) >= 1.0 - margin]


def _finite(M: np.ndarray, what: str) -> np.ndarray:
    """``M`` itself, or a "diverged" `NumericalFailure` naming ``what``."""
    if not np.isfinite(M).all():
        raise NumericalFailure(
            f"Riccati equation diverged: {what} is not finite; the pair is "
            "not stabilizable by output injection at this scale"
        )
    return M


def _dare_doubling(Abar: np.ndarray, Cbar: np.ndarray) -> np.ndarray:
    """Stabilizing solution P of the unit-weight filter DARE, by doubling.

    The structure-preserving doubling algorithm (Chu, Fan, Lin & Wang 2004)
    on the control-form data A = Abar', G = Cbar' Cbar, H = I: each step

        W = I + G H,  A <- A W^-1 A,  G <- G + A W^-1 G A',
        H <- H + A' H W^-1 A

    squares the closed loop hidden in A, so H converges quadratically to P.
    One LU of W serves both solves; G and H are kept symmetric.  W cannot
    be singular: G and H are symmetric positive semidefinite, so every
    eigenvalue of W is at least 1.  The iteration stops when a step changes
    H by at most n * eps * ||H|| (1-norm); a non-finite iterate raises a
    "diverged" `NumericalFailure`.
    """
    n = Abar.shape[0]
    A, G, H = Abar.T, _finite(Cbar.T @ Cbar, "C' C"), np.eye(n)
    for _ in range(_MAX_DOUBLINGS):
        W = np.eye(n) + G @ H
        WA, WG = np.hsplit(np.linalg.solve(W, np.hstack([A, G])), 2)
        dH = A.T @ H @ WA
        dH = (dH + dH.T) / 2
        G = _finite(G + A @ WG @ A.T, "the doubling iterate")
        G = (G + G.T) / 2
        A = A @ WA
        H = _finite(H + dH, "P")
        if np.linalg.norm(dH, 1) <= n * _EPS * np.linalg.norm(H, 1):
            return H
    raise NumericalFailure(
        f"Riccati doubling did not converge in {_MAX_DOUBLINGS} steps"
    )


def stabilizing_gain(
    Abar,
    Cbar,
    tol: RankTolerance = DEFAULT_TOL,
    margin: float = SCHUR_MARGIN,
) -> np.ndarray:
    """Output-injection gain L making ``Abar + L @ Cbar`` Schur.

    Solves the filter-form discrete algebraic Riccati equation with unit
    weights,

        P = Abar P Abar' - Abar P Cbar' (Cbar P Cbar' + I)^-1 Cbar P Abar' + I,

    for its stabilizing solution by structure-preserving doubling
    (`_dare_doubling`), and returns
    ``L = -Abar P Cbar' (Cbar P Cbar' + I)^-1``.  Detectability of
    (Abar, Cbar) guarantees that solution; it is checked up front by
    `undetectable_modes`.  The doubling stops once a step changes P by at
    most n * eps relative (1-norm).  It needs log2(log eps / log rho)
    doublings for a closed-loop spectral radius rho, so the cap
    `_MAX_DOUBLINGS` is that count for the slowest loop float64 can hold,
    rho = 1 - eps.  Neither is a parameter.

    Raises:
        NotDetectable: for undetectable modes, listed in ``exc.modes``.
        NumericalFailure: "Riccati equation diverged" when P, the gain or
            any intermediate between them is not finite (the pair has no
            bounded solution in float64 at its scale); also when the
            doubling has not converged after `_MAX_DOUBLINGS` steps, or the
            final closed loop is not Schur.
    """
    Abar = _as_2d(Abar)
    Cbar = _as_2d(Cbar)
    n = Abar.shape[0]
    q = Cbar.shape[0]
    bad = undetectable_modes(Abar, Cbar, tol, margin)
    if bad:
        raise NotDetectable(bad)
    if n == 0:
        return np.zeros((0, q))
    if q == 0:
        # Nothing to inject; detectability already proved Abar is Schur.
        return np.zeros((n, 0))

    # Overflow anywhere from the Riccati solution to the closed loop means
    # the pair has no bounded stabilizing solution in float64.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        P = _dare_doubling(Abar, Cbar)
        S = _finite(Cbar @ P @ Cbar.T + np.eye(q), "C P C' + I")
        L = _finite(-np.linalg.solve(S.T, (Abar @ P @ Cbar.T).T).T, "the gain")
        loop = _finite(Abar + L @ Cbar, "the closed loop")
    closed = spectrum(loop, margin)
    if not closed.is_schur:
        raise NumericalFailure(
            "Riccati gain failed verification: spectral radius "
            f"{closed.spectral_radius:.6g}"
        )
    return L


def _ackermann(Abar: np.ndarray, c_row: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Single-output Ackermann gain: ``Abar + l @ c_row`` gets char poly coeffs.

    The gain is non-finite if (Abar, c_row) is unobservable or powers overflow.
    """
    n = Abar.shape[0]
    phi = np.zeros((n, n))
    Ak = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in coeffs[::-1]:
            phi = phi + a * Ak
            Ak = Ak @ Abar
        obs = np.vstack([c_row @ np.linalg.matrix_power(Abar, i) for i in range(n)])
        try:
            w = np.linalg.solve(obs, np.eye(n)[:, -1])
        except np.linalg.LinAlgError:
            return np.full(n, np.nan)
        return -(phi @ w)


def place_poles(
    Abar,
    Cbar,
    poles,
    tol: RankTolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Output-injection gain L placing the spectrum of ``Abar + L @ Cbar``.

    ``poles`` must be a conjugation-closed multiset of n values.  The
    single-output case uses Ackermann's formula.  The multi-output case
    reduces to it through a random output combination ``v' Cbar``, optionally
    after a preliminary random injection to make the pair cyclic, and tries
    up to `PLACEMENT_ATTEMPTS` draws until the placed spectrum verifies
    against the request within `PLACEMENT_TOL` (optimal-assignment
    matching).  The draws come from a generator with the fixed seed 0, so
    the result is deterministic.

    Raises:
        NotObservable: if (Abar, Cbar) has an unobservable mode.
        ValueError: if ``poles`` is not conjugation-closed or has wrong size.
        PlacementFailed: if no attempt produces a verified gain.
    """
    Abar = _as_2d(Abar)
    Cbar = _as_2d(Cbar)
    n = Abar.shape[0]
    q = Cbar.shape[0]
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if poles.shape != (n,):
        raise ValueError(f"need exactly {n} poles, got {poles.shape}")
    coeffs = np.atleast_1d(np.poly(poles)) if n else np.ones(1)
    if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
        raise ValueError("pole multiset must be closed under conjugation")
    coeffs = coeffs.real
    if n == 0:
        return np.zeros((0, q))

    def _verified(L: np.ndarray) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            closed = Abar + L @ Cbar
        if not np.isfinite(closed).all():
            return False
        ev = np.linalg.eigvals(closed)
        return eig_assignment_error(ev, poles) <= PLACEMENT_TOL

    # L = 0 needs no observability at all; accept it whenever the spectrum
    # already matches (this also sidesteps the eps**(1/k) eigenvalue
    # splitting of defective placed matrices).
    zero = np.zeros((n, q))
    if _verified(zero):
        return zero

    # margin 1 counts every mode as unstable: detectable becomes observable.
    modes = undetectable_modes(Abar, Cbar, tol, margin=1.0)
    if modes:
        raise NotObservable(f"unobservable modes: {modes}")

    if q == 1:
        L = _ackermann(Abar, Cbar[0], coeffs).reshape(n, 1)
        if _verified(L):
            return L
        raise PlacementFailed("single-output Ackermann gain failed verification")

    rng = np.random.default_rng(0)
    for attempt in range(PLACEMENT_ATTEMPTS):
        # First sweep leaves Abar untouched; later sweeps add a random
        # preliminary injection so non-cyclic Abar still reduces.
        if attempt < PLACEMENT_ATTEMPTS // 3:
            L0 = np.zeros((n, q))
        else:
            L0 = 0.5 * rng.standard_normal((n, q))
        v = rng.standard_normal(q)
        # A draw whose output combination misses a mode fails verification.
        L = L0 + np.outer(_ackermann(Abar + L0 @ Cbar, v @ Cbar, coeffs), v)
        if _verified(L):
            return L
    raise PlacementFailed(f"no verified gain after {PLACEMENT_ATTEMPTS} attempts")


def rowspace_angles(A, B) -> np.ndarray:
    """Principal angles (radians) between the row spaces of two matrices."""
    A = _as_2d(A)
    B = _as_2d(B)
    return scipy.linalg.subspace_angles(A.T, B.T)
