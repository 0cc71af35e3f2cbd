"""Shared numerical kernel: rank decisions, null-space bases, spectra, gains.

Every rank-sensitive decision in the package funnels through this module so
that a single tolerance policy governs them all.  The policy mirrors the
usual SVD cutoff: a singular value counts as nonzero when it exceeds

    max(n_rows, n_cols) * relative * sigma_max.

Schur/stability decisions carry their own margin: an eigenvalue is "stable"
only if its modulus stays below 1 - margin.

Where a pencil loses rank is decided once, by `invariant_zeros` with the
fixed relative cutoff `ZERO_CUT_RELATIVE`: condition (a) of `existcheck`,
and, with no disturbance, the unobservable modes (`undetectable_modes`)
that decide observability for `place_poles` and name the modes of an
undetectable pair when `stabilizing_gain` refuses it.  A gain whose
verified closed loop is Schur proves detectability by itself, and the
size of its Riccati solution proves that no mode is seen only below the
cut, so a successful Riccati design runs no reduction.  The zeros are
the eigenvalues of one n x n matrix, K_x^-1 [A, E] K (see `invariant_zeros`),
so no generalized eigenvalue solver is needed: numpy is the only runtime
dependency.

The gain constructors (`stabilizing_gain`, `place_poles`) build output
injections L for a pair (Abar, Cbar), i.e. they shape the spectrum of
Abar + L @ Cbar.  Neither takes a seed or an iteration budget, and both
are deterministic: the Riccati gain comes from a structure-preserving
doubling solve of the DARE, one n x n inverse and a few products per step,
stopped once a step changes P by at most n * eps relative or quadratic
convergence predicts that the next would; placement comes from the
eigenvector sweeps of Kautsky, Nichols & Van Dooren, at most `_KNV_SWEEPS`
of them.  Both verify their own output and raise instead of returning an
unchecked gain; each returns the gain, the closed loop Abar + L @ Cbar it
verified and that loop's eigenvalues, so a caller can use the very array
whose spectrum was checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankTolerance",
    "DEFAULT_TOL",
    "SCHUR_MARGIN",
    "SpectrumReport",
    "NumericalFailure",
    "NoUio",
    "NotDetectable",
    "NotObservable",
    "PlacementFailed",
    "RepeatedPole",
    "rank",
    "left_null_basis",
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

#: Matching distance within which a placed spectrum counts as verified.
PLACEMENT_TOL = 1e-6

#: Eigenvector sweeps of `place_poles`, at most.  After the first sweep
#: every eigenvector is admissible, so the gain places the poles; later
#: sweeps only condition the eigenvector matrix X.  On the corpus plants
#: (`perfbench.workloads.corpus_model`, n = 8 to 60), cond(X) after ten
#: sweeps is at most 1.13 times its value after a hundred.
_KNV_SWEEPS = 10

#: Fewer sweeps once one raises |det X|, with unit columns, by less than
#: this relative amount.
_KNV_RTOL = 1e-3


class NumericalFailure(RuntimeError):
    """A numerical routine could not certify its own result."""


class NoUio(Exception):
    """The pipeline certifies that no unknown-input observer exists.

    It is defined here, beside `NumericalFailure`, so that a caller can
    catch both refusals without loading the design modules; `synth`, which
    raises it, re-exports it.

    Attributes:
        cause: one of `synth.VF_RANK_DEFICIENT`, `synth.NOT_DETECTABLE`.
        evidence: the offending ranks / eigenvalues.
    """

    def __init__(self, cause: str, detail: str, evidence: dict | None = None):
        super().__init__(f"{cause}: {detail}")
        self.cause = cause
        self.detail = detail
        self.evidence = dict(evidence or {})


class NotDetectable(ValueError):
    """(Abar, Cbar) has unstable modes invisible from Cbar, listed in ``modes``."""

    def __init__(self, modes):
        super().__init__(f"undetectable unstable modes: {modes}")
        self.modes = list(modes)


class NotObservable(ValueError):
    """(Abar, Cbar) has unobservable modes, listed in ``modes``."""

    def __init__(self, modes):
        super().__init__(f"unobservable modes: {modes}")
        self.modes = list(modes)


class PlacementFailed(NumericalFailure):
    """Pole placement could not produce a verified gain."""


class RepeatedPole(PlacementFailed):
    """``pole`` of the closed loop named ``loop`` is requested ``count``
    times, more than the ``rank`` = rank(Cbar) >= 2 eigenvectors it can
    have."""

    def __init__(self, pole, count: int, rank: int,
                 loop: str = "Abar + L @ Cbar"):
        super().__init__(
            f"pole {pole:.6g} of {loop} is requested {count} times; a pole "
            f"has at most rank(Cbar) = {rank} eigenvectors")
        self.pole, self.count, self.rank = pole, count, rank


@dataclass(frozen=True)
class RankTolerance:
    """Tolerance policy for numerical rank decisions.

    Attributes:
        relative: multiplies ``max(shape) * sigma_max`` to form the cutoff.
            Defaults to machine epsilon, matching the conventional SVD rank
            threshold for noise-free data.  Construction refuses a value
            outside (0, 1), or NaN: at 0 or below every singular value
            counts as rank, and at 1 or above none does.
    """

    relative: float = _EPS

    def __post_init__(self) -> None:
        if not 0.0 < self.relative < 1.0:
            raise ValueError(
                f"relative rank tolerance must lie in (0, 1), got {self.relative!r}"
            )

    def cutoff(self, shape, sigma_max: float) -> float:
        """Cutoff for singular values of a matrix of ``shape``.

        ``sigma_max`` is its largest singular value.  Every rank decision
        in the package goes through this rule.
        """
        return max(shape) * self.relative * sigma_max


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


def spectrum(M, margin: float = SCHUR_MARGIN) -> SpectrumReport:
    """Eigenvalues and Schur verdict of a square matrix.

    The verdict is conservative: ``is_schur`` is True only when the spectral
    radius is strictly below ``1 - margin``.
    """
    M = _as_2d(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"spectrum needs a square matrix, got {M.shape}")
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - very rare
        raise NumericalFailure(f"eigenvalue computation failed: {exc}") from exc
    return _spectrum_report(ev, margin)


def _spectrum_report(eigenvalues, margin: float) -> SpectrumReport:
    """`SpectrumReport` of already computed eigenvalues."""
    ev = np.sort_complex(np.asarray(eigenvalues, dtype=complex))
    radius = float(np.max(np.abs(ev))) if ev.size else 0.0
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


def invariant_zeros(A, E, C, F) -> tuple[np.ndarray, int]:
    """Finite zeros of P(z) = [[z*I - A, -E], [C, F]], and the rows F keeps.

    One orthogonal reduction (Emami-Naeini & Van Dooren 1982): the output
    rows F does not reach pin part of the state to zero, and that part and
    those rows are deflated until F has full row rank.  The rank cutoff is
    `ZERO_CUT_RELATIVE` against S = [[A, E], [C, F]].  P has normal rank
    n + rows; with rows below the r columns of F it is rank deficient
    everywhere and no zeros are returned.  With r = 0 the zeros are the
    unobservable modes of (A, C).

    Otherwise F is square and above the cut, and the pencil restricted to
    an orthonormal basis K = [K_x; K_d] of ker [C, F] is z K_x - [A, E] K.
    K_x is invertible: K_x v = 0 leaves F v_d = 0 and so v = 0.  The zeros
    are therefore the eigenvalues of K_x^-1 [A, E] K, which is similar to
    A - E F^-1 C.  Solving with K_x costs a factor cond(K_x) in accuracy,
    relative to ||K_x^-1 [A, E] K|| <= ||[A, E]|| / sigma_min(K_x).  With
    r = 0 there is nothing to deflate: the zeros are the eigenvalues of the
    reduced A, with no SVD of the empty [C, F] and no solve.  The loop ends
    as soon as deflation leaves no state: rows is then the rank of F, and
    there are no zeros, so nothing more is factored.

    Raises:
        NumericalFailure: if the pencil has a non-finite entry, or if that
            last solve or eigenvalue step fails or yields a non-finite zero
            (one beyond the float64 range).
    """
    A, E, C, F = (_as_2d(M) for M in (A, E, C, F))
    n, (q, r) = len(A), F.shape
    if A.shape != (n, n) or E.shape != (n, r) or C.shape != (q, n):
        raise ValueError("the blocks of [[A, E], [C, F]] do not fit together")
    S = np.empty((n + q, n + r), dtype=np.result_type(A, E, C, F))
    S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:] = A, E, C, F
    if not np.isfinite(S).all():
        raise NumericalFailure("invariant zeros failed: the pencil is not finite")
    # sigma_1(S), from one values-only SVD.
    sigma = np.linalg.norm(S, 2) if S.size else 0.0
    cut = RankTolerance(ZERO_CUT_RELATIVE).cutoff(S.shape, sigma)
    while True:
        # With r = 0 F has no columns: its SVD would return U = I and keep
        # no row, so neither that SVD nor the rotation by U is needed.
        held = 0
        if r:
            U, held = _range_basis(F, cut)
            C, F = U.T @ C, U.T @ F
        # With no state left, the rows F keeps are its rank, and there are
        # no zeros.
        if held == len(F) or not len(A):
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
    rows = held
    if rows < r or not len(A):
        return np.zeros(0, dtype=complex), rows
    # With r = 0 the zeros are the eigenvalues of the reduced A.  Otherwise
    # F is square and invertible, so the pencil has r infinite zeros.
    # Deflate them: on the kernel K of [C, F] it reduces to
    # z * K_x - [A, E] @ K, where K_x, the state rows of K, is invertible.
    try:
        if r:
            K = _range_basis(np.hstack([C, F]).T, cut)[0][:, rows:]
            A = np.linalg.solve(K[:A.shape[0]], np.hstack([A, E]) @ K)
        zeros = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"invariant zeros failed: {exc}") from exc
    if not np.isfinite(zeros).all():
        raise NumericalFailure("invariant zeros failed: a zero is not finite")
    return zeros, rows


def undetectable_modes(
    Abar, Cbar, margin: float = SCHUR_MARGIN
) -> list[complex]:
    """Unobservable modes of (Abar, Cbar) with modulus >= 1 - margin.

    They are the zeros of `invariant_zeros` with no disturbance, so a Cbar
    below 1e-9 * ||[Abar; Cbar]|| counts as zero, as in condition (a).
    """
    Abar = _as_2d(Abar)
    Cbar = _as_2d(Cbar)
    n = Abar.shape[0]
    if Abar.shape[1] != n or Cbar.shape[1] != n:
        raise ValueError("Abar must be square and Cbar must have n columns")
    zeros, _ = invariant_zeros(Abar, np.zeros((n, 0)), Cbar,
                               np.zeros((len(Cbar), 0)))
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
    Each step inverts W once (one LU) and forms W^-1 A and W^-1 G by matrix
    products, which cost less than triangular solves with their 2n
    right-hand sides; G and H are kept symmetric.  In exact arithmetic W
    cannot be singular: G and H are symmetric positive semidefinite, so
    every eigenvalue of W is at least 1.  In float64 it can be, once G H
    is so large that the I in W rounds away.  A non-finite iterate or a
    singular W raises a "diverged" `NumericalFailure`.

    With change_k = ||dH_k|| / ||H_k|| (1-norm) after step k, the iteration
    stops when change_k <= n * eps, or when change_k < change_k-1 and
    change_k^3 <= n * eps * change_k-1^2: quadratic convergence predicts
    change_k+1 ~ change_k^3 / change_k-1^2, so the next step would stop by
    the first rule, and it is not taken.  Either way P is accurate to a
    small multiple of n * eps * ||P|| (on the benchmark corpora, the P of
    the first rule alone is within 11.1 n * eps * ||P||).
    """
    n = Abar.shape[0]
    A, G, H = Abar.T, _finite(Cbar.T @ Cbar, "C' C"), np.eye(n)
    last = None
    for _ in range(_MAX_DOUBLINGS):
        try:
            W_inv = np.linalg.inv(np.eye(n) + G @ H)
        except np.linalg.LinAlgError:
            raise NumericalFailure(
                "Riccati equation diverged: I + G H is singular in float64, "
                "where G H swamps I; the pair is not stabilizable by output "
                "injection at this scale"
            ) from None
        WA = W_inv @ A
        dH = A.T @ H @ WA
        dH = (dH + dH.T) / 2
        G = _finite(G + A @ (W_inv @ G) @ A.T, "the doubling iterate")
        G = (G + G.T) / 2
        A = A @ WA
        H = _finite(H + dH, "P")
        step, size = np.linalg.norm(dH, 1), np.linalg.norm(H, 1)
        if step <= n * _EPS * size:
            return H
        # The next step would change H by about change^3 / last^2.
        change = step / size
        if last is not None and change < last and (
                change ** 3 <= n * _EPS * last ** 2):
            return H
        last = change
    raise NumericalFailure(
        f"Riccati doubling did not converge in {_MAX_DOUBLINGS} steps"
    )


def stabilizing_gain(
    Abar, Cbar, margin: float = SCHUR_MARGIN
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Output-injection gain L making ``Abar + L @ Cbar`` Schur.

    Solves the filter-form discrete algebraic Riccati equation with unit
    weights,

        P = Abar P Abar' - Abar P Cbar' (Cbar P Cbar' + I)^-1 Cbar P Abar' + I,

    for its stabilizing solution by structure-preserving doubling
    (`_dare_doubling`), and returns
    ``L = -Abar P Cbar' (Cbar P Cbar' + I)^-1``, the closed loop
    ``Abar + L @ Cbar`` and its verified eigenvalues.  Detectability of
    (Abar, Cbar) guarantees that solution, and a verified Schur loop proves
    detectability in turn: a mode Cbar cannot see stays an eigenvalue of
    Abar + L Cbar for every L.  The staircase of `undetectable_modes`
    decides detectability at its zero cut, though, and a large gain can
    move a mode seen only below that cut.  `_no_mode_below_the_cut` rules
    out every mode the staircase could report from the size of P alone.
    So the staircase runs only when P is too large for that proof (before
    the gain is formed), or when the doubling, the gain or the Schur
    verdict fails: it tells an undetectable pair (`NotDetectable`, with its
    modes) from a numerical failure, and a refusal thus pays for a
    doubling first.  With no outputs (Cbar has no rows) the gain is empty
    and the Schur verdict is on Abar itself.

    The doubling stops once a step changes P by at most n * eps relative
    (1-norm), or once quadratic convergence predicts that the next step
    would, so P is accurate to a small multiple of n * eps * ||P||_1.  It
    needs log2(log eps / log rho) doublings for a closed-loop spectral
    radius rho, so the cap `_MAX_DOUBLINGS` is that count for the slowest
    loop float64 can hold, rho = 1 - eps.  Neither is a parameter.

    Raises:
        NotDetectable: when the staircase runs and finds undetectable
            modes, listed in ``exc.modes``.
        NumericalFailure: "Riccati equation diverged" when P, the gain or
            any intermediate between them is not finite (the pair has no
            bounded solution in float64 at its scale); also when the
            doubling has not converged after `_MAX_DOUBLINGS` steps, or the
            final closed loop is not Schur, and the pair has no
            undetectable mode.  A non-finite pair fails the staircase too,
            with its "the pencil is not finite" message.
    """
    Abar = _as_2d(Abar)
    Cbar = _as_2d(Cbar)
    n = Abar.shape[0]
    q = Cbar.shape[0]
    if n == 0:
        return np.zeros((0, q)), np.zeros((0, 0)), np.zeros(0, dtype=complex)
    checked = False
    try:
        if q:
            # Overflow anywhere from the Riccati solution to the closed loop
            # means the pair has no bounded stabilizing solution in float64.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                P = _dare_doubling(Abar, Cbar)
                if not _no_mode_below_the_cut(Abar, Cbar, P, margin):
                    # Every mode the staircase can report makes P this
                    # large, so only here can the pair be undetectable.
                    checked = True
                    _refuse_undetectable(Abar, Cbar, margin)
                S = _finite(Cbar @ P @ Cbar.T + np.eye(q), "C P C' + I")
                L = _finite(-np.linalg.solve(S.T, (Abar @ P @ Cbar.T).T).T,
                            "the gain")
                loop = _finite(Abar + L @ Cbar, "the closed loop")
        else:
            # Nothing to inject and no output to cut: the pair is detectable
            # iff Abar is Schur.
            L, loop = np.zeros((n, 0)), Abar.copy()
        closed = spectrum(loop, margin)
        if not closed.is_schur:
            raise NumericalFailure(
                "Riccati gain failed verification: spectral radius "
                f"{closed.spectral_radius:.6g}"
            )
    except NumericalFailure:
        # A failure may be an undetectable pair: the staircase names its
        # modes.
        if not checked:
            _refuse_undetectable(Abar, Cbar, margin)
        raise
    return L, loop, closed.eigenvalues


def _refuse_undetectable(Abar: np.ndarray, Cbar: np.ndarray,
                         margin: float) -> None:
    """Raise `NotDetectable` if `undetectable_modes` finds modes."""
    bad = undetectable_modes(Abar, Cbar, margin=margin)
    if bad:
        raise NotDetectable(bad) from None


def _no_mode_below_the_cut(Abar: np.ndarray, Cbar: np.ndarray, P: np.ndarray,
                           margin: float) -> bool:
    """Whether the Riccati solution P proves that `undetectable_modes` finds
    no mode of (Abar, Cbar).

    A mode z, |z| >= rho = 1 - margin, that the staircase keeps is an
    unobservable mode of a pair within its zero cut eps: each deflation
    drops singular values below eps, so sigma_min([z I - Abar; Cbar]) is
    about eps at most, at a unit vector v.  P is the value of the dual
    problem x+ = Abar' x + Cbar' u with cost sum |x|^2 + |u|^2.  Along v it
    becomes y+ = conj(z) y + w with sum |w|^2 <= eps^2 * cost and
    sum |y|^2 <= cost, so v' P v is at least half the value p of that
    scalar problem, the positive root of
    eps^2 p^2 + (1 - |z|^2 - eps^2) p = 1, which grows with |z|.  Hence
    ||P||_2 < p(rho, eps) / 2 leaves no such mode; ||P||_1 bounds ||P||_2,
    and sqrt(||S||_1 ||S||_inf) bounds sigma_1 of S = [Abar; Cbar], so the
    eps used is no smaller than the staircase's.  Near the unit circle
    p(rho, eps) / 2 is about 1 / (2 eps): only a gain that leans on output
    below the cut needs a P that large.
    """
    S = np.vstack([Abar, Cbar])
    sigma = np.sqrt(np.linalg.norm(S, 1) * np.linalg.norm(S, np.inf))
    eps = RankTolerance(ZERO_CUT_RELATIVE).cutoff(S.shape, sigma)
    s = 1.0 - (1.0 - margin) ** 2 - eps ** 2
    return bool(np.linalg.norm(P, 1) * (s + np.sqrt(s * s + 4 * eps * eps)) < 1.0)


def _ackermann(Abar: np.ndarray, c_row: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Single-output Ackermann gain: ``Abar + l @ c_row`` gets char poly coeffs.

    phi(Abar) by Horner's rule and the observability rows c_row Abar^i by
    repeated products; l = -phi(Abar) O^-1 e_n.  The gain is non-finite if
    (Abar, c_row) is unobservable or powers overflow.
    """
    n = Abar.shape[0]
    phi, rows = np.zeros((n, n)), [c_row]
    with np.errstate(over="ignore", invalid="ignore"):
        for a in coeffs:
            phi = phi @ Abar + a * np.eye(n)
        for _ in range(n - 1):
            rows.append(rows[-1] @ Abar)
        try:
            return -(phi @ np.linalg.solve(np.vstack(rows), np.eye(n)[:, -1]))
        except np.linalg.LinAlgError:
            return np.full(n, np.nan)


def _knv_loop(At: np.ndarray, U: np.ndarray, k: int,
              poles: np.ndarray) -> np.ndarray:
    """Real M = X diag(lam) X^-1 with U1' (M - At) = 0, by KNV method 0.

    ``U = [U0, U1]`` holds the left singular vectors of B = Cbar', split
    after its rank k, so At - B K = M has a solution K exactly when
    U1' (At - M) = 0.  That holds when each column x_j of X lies in S_j,
    the kernel of U1' (At - lam_j I), which has dimension k because the
    pair is observable.  ``lam`` lists the real poles, then the m poles
    with positive imaginary part, then their conjugates in the same order.

    Each sweep sets x_j, in turn, to the unit projection onto S_j of column
    j of X^-H, which is orthogonal to every other column; that choice
    maximizes |det X| over unit x_j in S_j (Kautsky, Nichols & Van Dooren
    1985).  X^-1 follows each column by a rank-one update.  The sweeps run
    in complex arithmetic, and the column of a conjugate pole is set to the
    conjugate of its partner's, so X diag(lam) X^-1 is real.  They start
    from the unitary columns of U (u_j +- i u_j+m for the pairs), which need
    not be admissible; the first sweep makes every column admissible, so
    its change of |det X| does not end the sweeps.  A pole repeated up to k
    times keeps independent columns, because each sweep keeps X invertible.

    The caller has checked that no pole repeats more than k times.
    Raises `np.linalg.LinAlgError` when X is singular.
    """
    n = len(At)
    upper = poles[poles.imag > 0]
    m, free = len(upper), n - len(upper)  # free: columns the sweeps choose
    lam = np.concatenate([poles[poles.imag == 0], upper, upper.conj()])
    U1 = U[:, k:].T
    S = [np.linalg.qr((U1 @ At - z * U1).conj().T, mode="complete")[0][:, n - k:]
         for z in lam[:free]]
    X = U.astype(complex)
    X[:, free - m:free] += 1j * U[:, free:]
    X[:, free:] = X[:, free - m:free].conj()
    X_inv = np.linalg.inv(X)
    for sweep in range(_KNV_SWEEPS):
        log_gain = 0.0
        for j in range(n):
            x = (S[j] @ (S[j].conj().T @ X_inv[j].conj()) if j < free
                 else X[:, j - m].conj())
            x /= np.linalg.norm(x)
            # X_inv[j] @ X[:, j] = 1, so d = det X' / det X.
            d = X_inv[j] @ x
            X_inv -= np.outer(X_inv @ (x - X[:, j]), X_inv[j] / d)
            X[:, j] = x
            log_gain += np.log(abs(d))
        if sweep and log_gain < np.log1p(_KNV_RTOL):
            break
    # (X diag(lam) X^-1)' = X^-T (X diag(lam))', from a fresh solve.
    return np.linalg.solve(X.T, (X * lam).T).T.real


def place_poles(Abar, Cbar, poles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Output-injection gain L placing the spectrum of ``Abar + L @ Cbar``.

    ``poles`` must be a conjugation-closed multiset of n values.  The gain
    comes from the dual pair (Abar', Cbar'): one SVD Cbar' = U S W' gives
    rank(Cbar) = k (package rank rule at `DEFAULT_TOL`), the range U0 of
    Cbar' and its complement U1.  `_knv_loop` builds the real closed loop
    M = X Lambda X^-1 with U1' (M - Abar') = 0, and the gain is
    L' = W S^-1 U0' (M - Abar').  Every step is deterministic.  A pole
    can have at most k independent eigenvectors, so with k >= 2 a pole
    repeated more than k times is refused at once; with k = 1 and a
    repeated pole, Ackermann's formula on the output U0' places the
    (defective) closed loop instead.  Whatever the route, the placed
    spectrum is verified against the request within `PLACEMENT_TOL`
    (optimal-assignment matching).  Returns L, the closed loop
    ``Abar + L @ Cbar`` and its verified eigenvalues.

    Raises:
        NotObservable: if (Abar, Cbar) has unobservable modes, listed in
            ``exc.modes``.
        ValueError: if ``poles`` is not conjugation-closed or has wrong size.
        RepeatedPole: if a pole repeats more than rank(Cbar) >= 2 times.
        PlacementFailed: if the gain fails verification.
    """
    Abar = _as_2d(Abar)
    Cbar = _as_2d(Cbar)
    n = Abar.shape[0]
    q = Cbar.shape[0]
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if poles.shape != (n,):
        raise ValueError(f"need exactly {n} poles, got {poles.shape}")
    coeffs = np.atleast_1d(np.poly(poles)) if n else np.ones(1)
    if (np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs)))
            or np.sum(poles.imag > 0) != np.sum(poles.imag < 0)):
        raise ValueError("pole multiset must be closed under conjugation")
    coeffs = coeffs.real
    if n == 0:
        return np.zeros((0, q)), np.zeros((0, 0)), np.zeros(0, dtype=complex)

    def _placed(L: np.ndarray):
        """(L, Abar + L Cbar, eigenvalues) if they match ``poles``, else None."""
        with np.errstate(over="ignore", invalid="ignore"):
            closed = Abar + L @ Cbar
        if not np.isfinite(closed).all():
            return None
        ev = np.linalg.eigvals(closed)
        if eig_assignment_error(ev, poles) <= PLACEMENT_TOL:
            return L, closed, ev
        return None

    # L = 0 needs no observability at all; accept it whenever the spectrum
    # already matches (this also sidesteps the eps**(1/k) eigenvalue
    # splitting of defective placed matrices).
    if (placed := _placed(np.zeros((n, q)))) is not None:
        return placed

    # margin 1 counts every mode as unstable: detectable becomes observable.
    modes = undetectable_modes(Abar, Cbar, margin=1.0)
    if modes:
        raise NotObservable(modes)

    U, s, Wt = np.linalg.svd(Cbar.T)
    k = _rank_from_singular_values(s, Cbar.T.shape, DEFAULT_TOL)
    values, counts = np.unique(poles, return_counts=True)
    if counts.max() > k >= 2:
        raise RepeatedPole(values[counts.argmax()], int(counts.max()), k)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            H = (_ackermann(Abar, U[:, 0], coeffs)[:, None] if counts.max() > k
                 else (_knv_loop(Abar.T, U, k, poles) - Abar.T).T @ U[:, :k])
        except np.linalg.LinAlgError as exc:
            raise PlacementFailed(f"eigenvector matrix is singular: {exc}") from exc
        L = (H / s[:k]) @ Wt[:k]
    if (placed := _placed(L)) is not None:
        return placed
    raise PlacementFailed("placed gain failed verification")


def _range_columns(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of M, as columns (default rank rule)."""
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, :_rank_from_singular_values(s, M.shape, DEFAULT_TOL)]


def rowspace_angles(A, B) -> np.ndarray:
    """Principal angles (radians) between the row spaces of two matrices.

    One angle per dimension of the smaller space, largest first.  With
    orthonormal bases Qa and Qb of the row spaces as columns, Qb the
    smaller, the cosines are the singular values of Qa' Qb and the sines
    those of Qb - Qa Qa' Qb (Bjorck & Golub 1973).  Each angle is read from
    its own sine when it is below pi/4 and from its cosine otherwise, so
    angles near 0 and near pi/2 both keep full accuracy.
    """
    Qa, Qb = _range_columns(_as_2d(A).T), _range_columns(_as_2d(B).T)
    if len(Qa) != len(Qb):
        raise ValueError(f"row spaces live in R^{len(Qa)} and R^{len(Qb)}")
    if Qa.shape[1] < Qb.shape[1]:
        Qa, Qb = Qb, Qa
    cross = Qa.T @ Qb
    # Ascending cosines and descending sines both list the angles largest
    # first, so entry i of each belongs to the same angle.
    cos = np.clip(np.linalg.svd(cross, compute_uv=False)[::-1], 0.0, 1.0)
    sin = np.clip(np.linalg.svd(Qb - Qa @ cross, compute_uv=False), 0.0, 1.0)
    return np.where(cos ** 2 >= 0.5, np.arcsin(sin), np.arccos(cos))
