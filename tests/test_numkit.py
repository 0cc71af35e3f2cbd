"""Rank/null-space primitives, spectra, and the two gain constructions."""

import copy
import dataclasses
import gc
import importlib
import pickle
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from uiokit import numkit
from uiokit.numkit import (
    SCHUR_MARGIN,
    ZERO_CUT_RELATIVE,
    RankTolerance,
    SpectrumReport,
    NoUio,
    NotDetectable,
    NotObservable,
    NumericalFailure,
    PlacementFailed,
    RepeatedPole,
    balanced_rank,
    eig_assignment_error,
    invariant_zeros,
    left_null_basis,
    place_poles,
    rank,
    rowspace_angles,
    spectrum,
    stabilizing_gain,
    undetectable_modes,
    _dare_doubling,
)

EPS = np.finfo(float).eps
_SOLVE = np.linalg.solve
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


EF_COLUMN = np.array([[1.0], [0.0], [1.0], [1.0], [1.0]])  # stacked [E; F]


# ---------------------------------------------------------------- rank


@pytest.mark.parametrize("relative", [0.0, -1.0, 1.0, float("nan")])
def test_rank_tolerance_refuses_a_relative_outside_the_open_unit_interval(
        relative):
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
        RankTolerance(relative)


def test_rank_identity():
    assert rank(np.eye(3)) == 3


def test_rank_zero_matrix():
    assert rank(np.zeros((2, 4))) == 0


def test_rank_single_disturbance_column():
    assert rank(EF_COLUMN) == 1


def test_balanced_rank_reads_a_matrix_in_any_units():
    # A near-dependence is rank 1 at a loose tolerance and rank 2 at the
    # default, whatever the units of its rows and columns; a cut against
    # the largest singular value reads the units instead.
    C = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-7]])
    units = np.diag([2.0 ** -60, 1.0]) @ C @ np.diag([1.0, 2.0 ** 40])
    for M in (C, units):
        assert balanced_rank(M, np.abs(M))[0] == 2
        assert balanced_rank(M, np.abs(M), RankTolerance(1e-6))[0] == 1
    assert rank(units) == 1


def test_balanced_rank_factors_annihilate_the_unscaled_matrix():
    rng = np.random.default_rng(3)
    rows = np.diag(2.0 ** rng.integers(-40, 41, size=6))
    cols = np.diag(2.0 ** rng.integers(-40, 41, size=4))
    X, Y = rng.standard_normal((6, 2)), rng.standard_normal((2, 4))
    M = rows @ X @ Y @ cols
    S = rows @ np.abs(X) @ np.abs(Y) @ cols
    k, U, s, Vt = balanced_rank(M, S)
    assert k == 2
    assert (np.abs(U[:, k:].T @ M) <= 1e-14 * (np.abs(U[:, k:].T) @ S)).all()
    assert (np.abs(M @ Vt[k:].T) <= 1e-14 * (S @ np.abs(Vt[k:].T))).all()
    # Vt' diag(1/s) U' on the kept part is a generalized inverse of M.
    G = Vt[:k].T / s[:k] @ U[:, :k].T
    assert (np.abs(M @ G @ M - M) <= 1e-14 * S).all()


def test_balanced_rank_of_a_subnormal_row():
    M = np.array([[5e-324, 0.0], [0.0, 1.0]])
    assert balanced_rank(M, np.abs(M))[0] == 2


# ------------------------------------------------------- null bases


def test_right_null_basis_of_bundled_annihilator(ref_kernel, ref_model):
    from uiokit.plant import consistency_matrix

    G = left_null_basis(ref_kernel.T).T
    assert G.shape == (12, 7)
    assert_allclose(G.T @ G, np.eye(7), atol=1e-12)
    assert np.max(np.abs(ref_kernel @ G)) < 1e-12
    # The complement of the annihilator's row space is exactly the model's
    # consistency subspace.
    Gamma = consistency_matrix(ref_model)
    assert rank(np.hstack([G, Gamma])) == 7


def test_left_null_basis_of_e1():
    W = left_null_basis(np.array([[1.0], [0.0]]))
    assert W.shape == (1, 2)
    assert_allclose(abs(W[0, 1]), 1.0, atol=1e-12)


def test_left_null_basis_full_row_rank_is_empty():
    assert left_null_basis(np.array([[1.0, 0.0], [0.0, 1.0]])).shape == (0, 2)


def test_left_null_basis_of_zero_columns_is_identity():
    # A plant with no disturbance channels: [E; F] annihilates nothing.
    assert_array_equal(left_null_basis(np.zeros((5, 0))), np.eye(5))


def test_left_null_basis_of_disturbance_stack():
    W = left_null_basis(EF_COLUMN)
    assert W.shape == (4, 5)
    assert np.max(np.abs(W @ EF_COLUMN)) < 1e-12
    assert_allclose(W @ W.T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_null_basis_dimension_and_annihilation(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(1, 7))
    M = rng.normal(size=(rows, cols))
    if seed % 3 == 0:  # force a rank drop
        M[rows - 1] = M[0] if rows > 1 else 0.0
    k = rank(M)
    W = left_null_basis(M)
    N = left_null_basis(M.T).T
    assert W.shape[0] == rows - k
    assert N.shape[1] == cols - k
    sigma_max = np.linalg.norm(M, 2)
    assert np.max(np.abs(W @ M), initial=0.0) < 1e-10 * (1.0 + sigma_max)
    assert np.max(np.abs(M @ N), initial=0.0) < 1e-10 * (1.0 + sigma_max)


# ----------------------------------------------------------- spectrum


def test_spectrum_deadbeat_plus_half():
    rep = spectrum(np.diag([0.0, 0.0, 0.5]))
    assert rep.is_schur
    assert_allclose(rep.spectral_radius, 0.5, atol=1e-14)


def test_spectrum_identity_is_not_schur():
    rep = spectrum(np.eye(2))
    assert not rep.is_schur
    assert_allclose(rep.spectral_radius, 1.0, atol=1e-14)


def test_spectrum_scalar_unstable():
    rep = spectrum(np.array([[-1.2]]))
    assert not rep.is_schur
    assert_allclose(rep.spectral_radius, 1.2, atol=1e-14)


def test_spectrum_margin_excludes_near_unit_modes():
    # radius 1 - 1e-12 is inside the circle but inside the safety margin too
    assert not spectrum(np.diag([1.0 - 1e-12])).is_schur
    assert spectrum(np.diag([1.0 - 1e-6])).is_schur


def test_spectrum_report_compares_pickles_and_replaces_by_its_spectrum():
    # Same verdict and margin, different matrices: not equal.
    half = spectrum(np.diag([0.5, 0.25]))
    assert half != spectrum(np.diag([0.5, 0.125]))
    assert half == spectrum(np.diag([0.25, 0.5]))
    lazy = SpectrumReport(True, SCHUR_MARGIN,
                          partial(np.linalg.eigvals, np.diag([0.25, 0.5])))
    back = pickle.loads(pickle.dumps(lazy))
    assert "eigenvalues" not in vars(back)  # still unsolved
    assert back == half
    moved = dataclasses.replace(lazy, margin=0.5)
    assert moved.margin == 0.5
    assert_array_equal(moved.eigenvalues, half.eigenvalues)


def test_eig_assignment_error_is_permutation_invariant():
    got = np.array([0.5, 0.0, 0.0])
    want = np.array([0.0, 0.5, 0.0])
    assert eig_assignment_error(got, want) < 1e-15
    assert eig_assignment_error(got, np.array([0.0, 0.0, 0.4])) > 0.09


def test_eig_assignment_error_matches_linear_sum_assignment():
    from scipy.optimize import linear_sum_assignment

    from uiokit.numkit import _min_cost_matching

    rng = np.random.default_rng(11)
    for trial in range(300):
        n = 1 + trial % 24
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if trial % 3 == 0:
            b[: n // 2] = b[0]   # a repeated target pole
        cost = np.abs(a[:, None] - b[None, :])
        rows, cols = linear_sum_assignment(cost)
        matched = _min_cost_matching(cost)
        assert sorted(matched) == list(range(n))
        assert_allclose(cost[matched, np.arange(n)].sum(), cost[rows, cols].sum(),
                        rtol=1e-12)
        assert eig_assignment_error(a, b) == cost[rows, cols].max()


def test_eig_assignment_error_rejects_non_finite_eigenvalues():
    with pytest.raises(ValueError, match="finite"):
        eig_assignment_error(np.array([np.nan, 0.0]), np.array([0.0, 0.5]))


# ------------------------------------------------------------ refusals


def _not_detectable():
    from uiokit.synth import _not_detectable

    return _not_detectable([-1.3 + 0j], np.array([[-1.3, 1.0], [0.0, 0.4]]))


REFUSALS = {
    "NumericalFailure": lambda: NumericalFailure("Riccati equation diverged"),
    "PlacementFailed": lambda: PlacementFailed("placement failed"),
    "NoUio": lambda: NoUio("VfRankDeficient", "rank(V_f) = 2 < n = 3",
                           evidence={"rank_V_f": 2, "n": 3, "k": 4}),
    "NoUio deferred": _not_detectable,
    "NotDetectable": lambda: NotDetectable([1.3 + 0j]),
    "NotObservable": lambda: NotObservable([0.5, 1.3 + 0j]),
    "RepeatedPole": lambda: RepeatedPole(-0.5, 3, 2, "A_uio"),
}


@pytest.mark.parametrize("round_trip", [
    lambda exc: pickle.loads(pickle.dumps(exc)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("make", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_survive_pickle_and_copy(make, round_trip):
    # Same type, text and attributes; a NoUio's deferred evidence entry
    # crosses unsolved and reads as the original's.
    exc = make()
    deferred = {key for key, value in vars(exc).get("_evidence", {}).items()
                if isinstance(value, numkit._Deferred)}
    twin = round_trip(exc)
    assert type(twin) is type(exc)
    assert str(twin) == str(exc) and twin.args == exc.args
    if isinstance(exc, NoUio):
        assert {key for key, value in twin._evidence.items()
                if isinstance(value, numkit._Deferred)} == deferred
        assert twin.evidence == exc.evidence
        assert round_trip(exc).evidence == exc.evidence
    assert vars(twin) == vars(exc)


def test_deferred_evidence_is_solved_once_on_first_read(monkeypatch):
    eigvals, solved = np.linalg.eigvals, []

    def spy(M):
        solved.append(M.shape)
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    exc = _not_detectable()
    assert solved == [] and str(exc).startswith("NotDetectable: ")
    evidence = exc.evidence
    assert type(evidence) is dict and solved == [(2, 2)]
    assert evidence == {"undetectable_modes": [1.3 + 0j],
                        "A_bar_eigenvalues": [-1.3, 0.4]}
    assert exc.evidence is evidence and solved == [(2, 2)]


# ------------------------------------------------------ invariant zeros


def _zeros_and_pencil(monkeypatch, A, E, C, F):
    """`invariant_zeros` of (A, E, C, F) and the (K_x, [A, E] K) it solved,
    None when the reduction left no state and so solved nothing."""
    solve = np.linalg.solve
    seen = []

    def spy(a, b):
        seen.append((a, b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    zeros, rows = invariant_zeros(A, E, C, F)
    monkeypatch.undo()
    assert len(seen) <= 1
    return zeros, rows, seen[0] if seen else None


def _model_with_feedthrough(rng, n, p, r, sigma_min):
    """Random (A, E, C, F), unit-norm blocks; F's singular values
    geometrically spaced from sigma_min to 1 (just sigma_min when r = 1)."""
    A, E, C = (M / np.linalg.norm(M, 2) for M in (
        rng.standard_normal((n, n)), rng.standard_normal((n, r)),
        rng.standard_normal((p, n))))
    U, _ = np.linalg.qr(rng.standard_normal((p, p)))
    V, _ = np.linalg.qr(rng.standard_normal((r, r)))
    F = U[:, :r] @ np.diag(np.geomspace(sigma_min, 1.0, r)) @ V.T
    return A, E, C, F


@pytest.mark.parametrize("n", [2, 5, 10, 20, 40])
@pytest.mark.parametrize("sigma_min", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("p, r", [(1, 1), (2, 2), (3, 2), (3, 3)])
def test_invariant_zeros_match_qz_oracle(monkeypatch, n, sigma_min, p, r):
    import scipy.linalg

    rng = np.random.default_rng([n, p, r, int(-np.log10(sigma_min))])
    A, E, C, F = _model_with_feedthrough(rng, n, p, r, sigma_min)
    zeros, rows, pencil = _zeros_and_pencil(monkeypatch, A, E, C, F)
    assert rows == r
    if pencil is None:
        # Only a pencil with more outputs than disturbances can lose every
        # state to deflation, and then it has no zeros.
        assert p > r and len(zeros) == 0
        return
    Kx, M = pencil
    oracle = scipy.linalg.eigvals(M, Kx)
    assert np.isfinite(oracle).all() and len(zeros) == len(oracle)
    unstable = lambda z: np.count_nonzero(np.abs(z) >= 1.0 - SCHUR_MARGIN)
    assert unstable(zeros) == unstable(oracle)
    if not len(zeros):
        return
    # Solving with K_x and then taking eigenvalues is backward stable for
    # the pencil up to eps * cond(K_x), relative to ||K_x^-1 [A, E] K||
    # <= ||[A, E]|| / sigma_min(K_x); 10 n is the usual p(n) of an
    # eigenvalue error bound, and QZ sits inside the same bound.
    sv = np.linalg.svd(Kx, compute_uv=False)
    bound = (10 * n * EPS * (sv[0] / sv[-1])
             * np.linalg.norm(np.hstack([A, E]), 2) / sv[-1])
    assert eig_assignment_error(zeros, oracle) <= bound
    if p == r and len(zeros) == n:
        # Nothing was deflated, so the zeros are also the eigenvalues of
        # A - E F^-1 C, an oracle that does not use the K the code built.
        # Forming F^-1 C adds eps * cond(F) * ||E|| ||C|| / sigma_min(F).
        sf = np.linalg.svd(F, compute_uv=False)
        direct = np.linalg.eigvals(A - E @ np.linalg.solve(F, C))
        bound += (10 * n * EPS * (sf[0] / sf[-1]) * np.linalg.norm(E, 2)
                  * np.linalg.norm(C, 2) / sf[-1])
        assert eig_assignment_error(zeros, direct) <= bound


def _eigvals_input(monkeypatch):
    """The list of matrices `np.linalg.eigvals` is given from now on; a
    call to `np.linalg.solve` fails the test."""
    eigvals, seen = np.linalg.eigvals, []

    def spy(M):
        seen.append(M)
        return eigvals(M)

    def no_solve(a, b):
        raise AssertionError("invariant_zeros solved with K_x")

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    return seen


LOST_HIDDEN_MODE = pytest.mark.xfail(
    strict=True, reason="the reduction loses the hidden mode at 1.5 once the "
    "observability staircase is about 20 steps deep (n = 40, two outputs)")


@pytest.mark.parametrize(
    "n", [2, 5, 10, 20, pytest.param(40, marks=LOST_HIDDEN_MODE)])
def test_invariant_zeros_without_disturbance_are_hidden_modes(monkeypatch, n):
    # Two modes the output never sees, in a random orthogonal basis.
    rng = np.random.default_rng(n)
    A = np.block([[rng.standard_normal((n, n)) / np.sqrt(n), np.zeros((n, 2))],
                  [rng.standard_normal((2, n)), np.diag([1.5, -0.2])]])
    C = np.hstack([rng.standard_normal((2, n)), np.zeros((2, 2))])
    Q, _ = np.linalg.qr(rng.standard_normal((n + 2, n + 2)))
    A, C = Q @ A @ Q.T, C @ Q.T
    reduced = _eigvals_input(monkeypatch)
    zeros, rows = invariant_zeros(A, np.zeros((n + 2, 0)), C, np.zeros((2, 0)))
    # The zeros are the eigenvalues of the reduced A, from one eigensolve
    # and no solve with K_x: every step of the reduction is orthogonal.
    assert rows == 0 and len(reduced) == 1
    # The reduction decides rank at the zero cut, so the modes it finds
    # are accurate to about that cut.
    S = np.vstack([A, C])
    cut = RankTolerance(ZERO_CUT_RELATIVE).cutoff(S.shape, np.linalg.norm(S, 2))
    assert len(zeros) == 2
    assert eig_assignment_error(zeros, [1.5, -0.2]) <= cut


def _range_basis_shapes(monkeypatch):
    """The list of shapes `numkit._range_basis` factors from now on."""
    shapes = []
    range_basis = numkit._range_basis

    def spy(M, cut):
        shapes.append(M.shape)
        return range_basis(M, cut)

    monkeypatch.setattr(numkit, "_range_basis", spy)
    return shapes


def test_invariant_zeros_without_disturbance_factor_no_empty_block(
        monkeypatch):
    # With r = 0, F has no columns at any step: the staircase decides rank
    # on the outputs only, no block it factors is empty, and the two hidden
    # modes are the eigenvalues of the reduced A, with no solve.
    shapes = _range_basis_shapes(monkeypatch)
    reduced = _eigvals_input(monkeypatch)
    rng = np.random.default_rng(5)
    A = np.block([[rng.standard_normal((6, 6)) / np.sqrt(6), np.zeros((6, 2))],
                  [rng.standard_normal((2, 6)), np.diag([1.5, -0.2])]])
    C = np.hstack([rng.standard_normal((2, 6)), np.zeros((2, 2))])
    zeros, rows = invariant_zeros(A, np.zeros((8, 0)), C, np.zeros((2, 0)))
    assert shapes and all(m and k for m, k in shapes)
    assert rows == 0 and len(zeros) == 2
    assert [M.shape for M in reduced] == [(2, 2)]
    # An observable pair deflates to no state: the loop ends there, with
    # no SVD of an empty block and no eigenvalue problem.
    shapes.clear()
    zeros, rows = invariant_zeros(rng.standard_normal((8, 8)),
                                  np.zeros((8, 0)),
                                  rng.standard_normal((2, 8)),
                                  np.zeros((2, 0)))
    assert shapes and all(m and k for m, k in shapes)
    assert rows == 0 and len(zeros) == 0 and len(reduced) == 1


@pytest.mark.parametrize("seed", [1, 2], ids=["F != 0", "F = 0"])
def test_invariant_zeros_of_corpus_pencil_stop_with_no_state_left(
        monkeypatch, seed):
    # The benchmark's n = 20 plants of these seeds hide no mode, so their
    # disturbance pencils deflate to no state: the loop ends there, and no
    # block it factors is empty.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    model = workloads.corpus_model(20, *workloads.corpus_dims(20), seed=seed)
    assert model.F.any() == bool(seed % 2)
    shapes = _range_basis_shapes(monkeypatch)
    zeros, rows = invariant_zeros(model.A, model.E, model.C, model.F)
    assert shapes and all(m and k for m, k in shapes)
    assert rows == model.r and len(zeros) == 0


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_zero_reduction_witness_is_a_null_vector_of_the_pencil(seed, r):
    # Hidden modes 1.3 and 1.1 e^(+-0.6i) in a random orthogonal basis:
    # each zero's witness is a unit null vector of P(z), real for a real
    # zero, to the rounding of the reduction.
    rng = np.random.default_rng(seed)
    n, p = 7, 3
    A = 0.3 * rng.standard_normal((n, n))
    A[:, :3] = 0.0
    A[0, 0] = 1.3
    A[1:3, 1:3] = 1.1 * np.array([[np.cos(0.6), -np.sin(0.6)],
                                  [np.sin(0.6), np.cos(0.6)]])
    C = rng.standard_normal((p, n))
    C[:, :3] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A, C = Q @ A @ Q.T, C @ Q.T
    E, F = Q @ rng.standard_normal((n, r)), rng.standard_normal((p, r))
    zeros, rows, witness = numkit._zero_reduction(A, E, C, F)
    assert_array_equal(zeros, invariant_zeros(A, E, C, F)[0])
    scale = np.linalg.norm(np.block([[A, E], [C, F]]))
    hidden = [z for z in zeros if abs(z) > 1.05]
    assert len(hidden) == 3
    for z in hidden:
        x, d = witness(z)
        assert np.isrealobj(x) == (z.imag == 0)
        assert np.hypot(np.linalg.norm(x), np.linalg.norm(d)) == \
            pytest.approx(1.0)
        residual = np.hstack([z * x - A @ x - E @ d, C @ x + F @ d])
        assert np.linalg.norm(residual) <= 1e3 * EPS * scale


def test_invariant_zeros_beyond_float_range_raise_numerical_failure():
    # The one zero is A - E F^-1 C = -1e305 * 1e305 / 1e297 = -1e313: F is
    # above the cut, so K_x is invertible, but K_x^-1 [A, E] K overflows.
    with pytest.raises(NumericalFailure, match="invariant zeros failed"):
        invariant_zeros([[0.0]], [[1e305]], [[1e305]], [[1e297]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invariant_zeros_of_non_finite_pencil_raise_numerical_failure(bad):
    # Without the up-front check the first SVD raises a bare LinAlgError.
    with pytest.raises(NumericalFailure, match="not finite"):
        invariant_zeros([[bad]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(NumericalFailure, match="not finite"):
        invariant_zeros([[0.5]], np.zeros((1, 0)), [[bad]], np.zeros((1, 0)))


def test_invariant_zeros_failed_solve_is_numerical_failure(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalFailure, match="Singular matrix"):
        invariant_zeros([[0.5]], [[1.0]], [[1.0]], [[1.0]])


def _workloads():
    """The benchmark's workloads module, for its corpus plants."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads")


def _exact_cut_zeros(A, E, C, F):
    """`invariant_zeros` as it was before its cut was bracketed: the cut is
    set by sigma_1 of S from one values-only SVD, ``np.linalg.norm(S, 2)``.
    Kept as the oracle of the bracketed cut, which must agree bit for bit."""
    A, E, C, F = (np.asarray(M, dtype=float) for M in (A, E, C, F))
    n, (q, r) = len(A), F.shape
    S = np.empty((n + q, n + r))
    S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:] = A, E, C, F
    if not np.isfinite(S).all():
        raise NumericalFailure("invariant zeros failed: the pencil is not finite")
    sigma = np.linalg.norm(S, 2) if S.size else 0.0
    cut = RankTolerance(ZERO_CUT_RELATIVE).cutoff(S.shape, sigma)

    def range_basis(M):
        U, s, _ = np.linalg.svd(M)
        return U, int(np.count_nonzero(s > cut))

    while True:
        held = 0
        if r:
            U, held = range_basis(F)
            C, F = U.T @ C, U.T @ F
        if held == len(F) or not len(A):
            break
        V, k = range_basis(C[held:].T)
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
    try:
        if r:
            K = range_basis(np.hstack([C, F]).T)[0][:, rows:]
            A = np.linalg.solve(K[:A.shape[0]], np.hstack([A, E]) @ K)
        zeros = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"invariant zeros failed: {exc}") from exc
    if not np.isfinite(zeros).all():
        raise NumericalFailure("invariant zeros failed: a zero is not finite")
    return zeros, rows


def _zero_outcome(zeros_of, *pencil):
    """(zeros, rows) of ``zeros_of`` on the pencil, or its NumericalFailure
    message."""
    try:
        return zeros_of(*pencil)
    except NumericalFailure as exc:
        return str(exc)


def _same_zero_outcome(*pencil):
    """`invariant_zeros` and the exact-cut oracle agree bit for bit."""
    new, old = (_zero_outcome(f, *pencil)
                for f in (invariant_zeros, _exact_cut_zeros))
    if isinstance(old, str):
        assert new == old
    else:
        assert not isinstance(new, str), new
        assert np.array_equal(new[0], old[0]) and new[1] == old[1]


def _values_only_svds(monkeypatch):
    """The list of matrices whose singular values alone are computed from
    now on, by `np.linalg.svd` or by the 2-norm of `np.linalg.norm`."""
    svd, norm, seen = np.linalg.svd, np.linalg.norm, []

    def svd_spy(a, *args, compute_uv=True, **kwargs):
        if not compute_uv:
            seen.append(np.shape(a))
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    def norm_spy(x, ord=None, *args, **kwargs):
        if ord in (2, -2):
            seen.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    return seen


@pytest.mark.parametrize("n", [8, 20, 40, 60])
@pytest.mark.parametrize("exponent", [0, 500, -500])
def test_bracketed_zero_cut_matches_the_exact_cut_on_the_corpus(n, exponent):
    # Condition (a)'s pencil and the plant's observability staircase on
    # the corpus plants, as they are and scaled by 2**+-500: the bracket
    # of sigma_1 gives every rank the exact cut gives, so the zeros are
    # the same to the bit, and so are the rows F keeps.
    workloads = _workloads()
    dims = (12, 20, 6) if n == 60 else workloads.corpus_dims(n)
    scale = np.ldexp(1.0, exponent)
    for seed in range(40):
        model = workloads.corpus_model(n, *dims, seed=seed)
        A, E, C, F = (scale * M for M in (model.A, model.E, model.C, model.F))
        _same_zero_outcome(A, E, C, F)
        _same_zero_outcome(A, np.zeros((n, 0)), C, np.zeros((len(C), 0)))


def test_bracketed_zero_cut_matches_the_exact_cut_on_corpus_kernels(
        corpus_pairs):
    # The gain stage's staircase, on every corpus kernel pair.
    for A_bar, C_bar in corpus_pairs["model"] + corpus_pairs["data"]:
        n = len(A_bar)
        _same_zero_outcome(A_bar, np.zeros((n, 0)), C_bar,
                           np.zeros((len(C_bar), 0)))


@pytest.mark.parametrize("pencil", [
    ([[0.0]], [[1e305]], [[1e305]], [[1e297]]),
    ([[np.nan]], [[1.0]], [[1.0]], [[1.0]]),
    ([[0.5]], np.zeros((1, 0)), [[np.inf]], np.zeros((1, 0))),
    ([[1.5, 0.0], [1.0, 0.5]], np.zeros((2, 0)), [[0.0, 1.0]],
     np.zeros((1, 0))),
    (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((2, 0)), [[1.0], [2.0]]),
    (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((1, 0)), np.zeros((1, 0))),
    ([[1.3, 0.2], [0.0, 0.4]], [[1.0], [0.0]], [[1.0, 1.0]], [[0.0]]),
    ([[2.0]], [[1.0]], [[0.0]], [[0.0]]),
    (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1))),
], ids=["1e305", "nan", "inf", "r=0", "no state", "empty", "F=0",
        "no rows kept", "zero pencil"])
def test_bracketed_zero_cut_matches_the_exact_cut_on_edge_pencils(pencil):
    _same_zero_outcome(*pencil)


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("r", [0, 1])
def test_singular_value_between_the_cuts_takes_one_svd_of_the_pencil(
        monkeypatch, side, r):
    # A mode at 1.5 is seen through an output of size v, planted between
    # the bracket's two cuts, below or above the exact cut.  With r = 1
    # the disturbance reaches that output through F = [[v]] as well, so
    # with v below the exact cut two ranks fall between the cuts.  Each
    # rank is the exact cut's, from one values-only SVD of the pencil.
    def pencil(v):
        E = [[0.0], [1.0]] if r else np.zeros((2, 0))
        F = [[v]] if r else np.zeros((1, 0))
        return [[1.5, 0.0], [0.0, 0.5]], E, [[v, 0.0]], F

    def cuts(v):
        A, E, C, F = (np.asarray(M, dtype=float) for M in pencil(v))
        S = np.block([[A, E], [C, F]])
        exact = RankTolerance(ZERO_CUT_RELATIVE).cutoff(
            S.shape, np.linalg.norm(S, 2))
        bracket = numkit._ZeroCut(S)
        return bracket.low, exact, bracket.high

    low, exact, high = cuts(0.0)
    v = np.sqrt(low * exact) if side == "below" else np.sqrt(exact * high)
    low, exact, high = cuts(v)
    assert low < v < exact if side == "below" else exact < v < high
    expected = _exact_cut_zeros(*pencil(v))
    svds = _values_only_svds(monkeypatch)
    zeros, rows = invariant_zeros(*pencil(v))
    assert len(svds) == 1
    assert np.array_equal(zeros, expected[0]) and rows == expected[1]
    if r:
        # Below the cut F counts as zero, so no row keeps the disturbance.
        assert rows == (side == "above")
    else:
        # Below the cut the mode at 1.5 is a zero; above it, it is seen.
        assert np.any(np.abs(zeros - 1.5) < 1e-9) == (side == "below")


@pytest.mark.parametrize("seed", [0, 1], ids=["hidden mode", "observer"])
def test_condition_a_at_n60_takes_no_svd_of_the_pencil(monkeypatch, seed):
    from uiokit.existcheck import condition_a

    model = _workloads().corpus_model(60, 12, 20, 6, seed=seed)
    svds = _values_only_svds(monkeypatch)
    ok, _ = condition_a(model)
    assert ok == bool(seed % 3) and svds == []


# --------------------------------------------------------------- PBH


def test_pbh_schur_matrix_needs_no_output():
    assert undetectable_modes(np.diag([0.5, -0.3]), np.zeros((1, 2))) == []


def test_pbh_unstable_unobserved_mode():
    modes = undetectable_modes(np.array([[2.0]]), np.zeros((1, 1)))
    assert len(modes) == 1 and abs(modes[0] - 2.0) < 1e-12


def test_pbh_bundled_pair(ref_intermediates):
    assert undetectable_modes(ref_intermediates["A_bar"],
                              ref_intermediates["C_bar"]) == []


def _hidden_mode_pair(seed, n=40, q=5):
    # Mode 1.3 in a random orthogonal basis: the last state of the block
    # form is driven only by itself and never reaches the output.
    rng = np.random.default_rng(seed)
    A = 0.35 * rng.standard_normal((n, n))
    A[:, -1] = 0.0
    A[-1, -1] = 1.3
    C = rng.standard_normal((q, n))
    C[:, -1] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ A @ Q.T, C @ Q.T


@pytest.mark.parametrize("seed", range(5))
def test_hidden_unstable_mode_in_rotated_basis(seed):
    A, C = _hidden_mode_pair(seed)
    modes = undetectable_modes(A, C)
    assert len(modes) == 1
    assert abs(modes[0] - 1.3) < 1e-6
    with pytest.raises(NotDetectable) as exc_info:
        stabilizing_gain(A, C)
    assert len(exc_info.value.modes) == 1


def _hidden_block_pair(mode, n=60, q=5, seed=0, leak=0.0):
    """A = Q [[mode, x], [0, A_1]] Q', C = [c, C_1] Q': the first state of
    the block form carries the mode, coupled to the rest by the row x and
    seen only through the column c, of norm ``leak``."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    A[0, 0] = mode
    A[0, 1:] = 0.3 * rng.standard_normal(n - 1)
    A[1:, 1:] = 0.35 * rng.standard_normal((n - 1, n - 1))
    C = np.zeros((q, n))
    C[:, 1:] = rng.standard_normal((q, n - 1))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = rng.standard_normal(q)
    C[:, 0] = leak * c / np.linalg.norm(c)
    return Q @ A @ Q.T, C @ Q.T


@pytest.mark.parametrize("mode", [1.3, 1.0, -1.0, 1.0 - SCHUR_MARGIN / 2])
def test_refusal_runs_the_doubling_then_names_the_staircase_modes(
        mode, monkeypatch):
    # The doubling runs first; its P, too large to rule the hidden mode
    # out, sends the pair to the staircase, which names the modes.  The
    # doubling must stop before its cap and warn nothing.
    A, C = _hidden_block_pair(mode)
    modes = undetectable_modes(A, C)
    assert len(modes) == 1 and abs(modes[0] - mode) < 1e-9
    inverses = []
    inv = np.linalg.inv

    def counting(M):
        inverses.append(M.shape)
        return inv(M)

    monkeypatch.setattr(np.linalg, "inv", counting)
    with pytest.raises(NotDetectable) as exc_info:
        stabilizing_gain(A, C)
    assert exc_info.value.modes == modes
    assert 0 < len(inverses) < numkit._MAX_DOUBLINGS


def test_refusal_leaves_no_reference_cycle():
    # A failure kept in a local of the frame its traceback holds is a cycle:
    # the doubling's arrays then live until the cyclic collector runs, which
    # raised the benchmark's peak RSS by 5 MB.  Refcounting must free them.
    A, C = _hidden_block_pair(1.3, n=8, q=2)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(NotDetectable):
            stabilizing_gain(A, C)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mode_seen_only_below_the_zero_cut_is_refused(monkeypatch):
    # A large enough gain moves a mode seen only below the staircase's zero
    # cut, so a Schur loop alone can disagree with the staircase there.  The
    # size of P sends such pairs to the staircase: each pair is refused
    # exactly when the staircase finds modes, and names them, although with
    # the staircase silenced two of the refused pairs get a Schur loop.
    pairs = [_hidden_block_pair(mode, q=20, leak=leak)
             for mode in (1.0, -1.0, 1.3) for leak in np.logspace(-8, -6, 5)]
    refused = []
    for A, C in pairs:
        modes = undetectable_modes(A, C)
        try:
            stabilizing_gain(A, C)
        except NotDetectable as exc:
            assert exc.modes == modes
            refused.append((A, C))
        except NumericalFailure:
            assert modes == []
        else:
            assert modes == []
    monkeypatch.setattr(numkit, "undetectable_modes", lambda *args, **kw: [])
    schur = 0
    for A, C in refused:
        try:
            _gain(stabilizing_gain, A, C)
        except NumericalFailure:
            continue
        schur += 1
    assert (len(refused), schur) == (6, 2)


def test_weakly_seen_scalar_mode_is_refused_below_the_cut():
    # The staircase cuts at 2e-9 * ||[2; c]||: c = 1e-8 is seen, 1e-10 is not.
    _gain(stabilizing_gain, np.array([[2.0]]), np.array([[1e-8]]))
    with pytest.raises(NotDetectable) as exc_info:
        stabilizing_gain(np.array([[2.0]]), np.array([[1e-10]]))
    assert exc_info.value.modes == [2.0]


def test_slow_observed_mode_gets_a_gain():
    A, C = _hidden_block_pair(0.999)
    assert undetectable_modes(A, C) == []
    L = _gain(stabilizing_gain, A, C)
    assert spectrum(A + L @ C).is_schur


def test_pair_without_outputs_is_detectable_iff_schur():
    A = np.diag([0.5, -0.3])
    L = _gain(stabilizing_gain, A, np.zeros((0, 2)))
    assert L.shape == (2, 0)
    with pytest.raises(NotDetectable) as exc_info:
        stabilizing_gain(np.diag([0.5, 1.5]), np.zeros((0, 2)))
    assert exc_info.value.modes == [1.5]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stabilizing_gain_of_non_finite_pair_names_the_pencil(bad):
    for A, C in (([[bad]], [[1.0]]), ([[0.5]], [[bad]]),
                 ([[bad]], np.zeros((0, 1)))):
        with pytest.raises(NumericalFailure,
                           match="invariant zeros failed: the pencil is not "
                                 "finite"):
            stabilizing_gain(np.array(A), np.array(C))


# ---------------------------------------------------- stabilizing gain


def _gain(construct, A, C, *args):
    """L from a gain constructor, which also returns the loop A + L C it
    verified and that loop's `SpectrumReport`."""
    L, loop, report = construct(A, C, *args)
    closed = np.asarray(A, dtype=float) + L @ np.asarray(C, dtype=float)
    assert_array_equal(loop, closed)
    assert_array_equal(report.eigenvalues,
                       np.sort_complex(np.linalg.eigvals(loop)))
    return L


def test_stabilizing_gain_zero_dynamics():
    L = _gain(stabilizing_gain, np.zeros((3, 3)), np.eye(3))
    assert spectrum(np.zeros((3, 3)) + L @ np.eye(3)).is_schur


def test_stabilizing_gain_scalar_interval():
    A = np.array([[2.0]])
    C = np.array([[1.0]])
    L = _gain(stabilizing_gain, A, C)
    assert abs(2.0 + L[0, 0]) < 1.0
    assert -3.0 < L[0, 0] < -1.0


def test_stabilizing_gain_bundled_pair(ref_intermediates):
    A_bar = ref_intermediates["A_bar"]
    C_bar = ref_intermediates["C_bar"]
    L = _gain(stabilizing_gain, A_bar, C_bar)
    assert spectrum(A_bar + L @ C_bar).is_schur


def test_stabilizing_gain_weakly_observed_unit_mode():
    # A mode on the unit circle seen through a weak output: the Riccati
    # solution is large (P ~ 1e4) but finite, and the gain must stabilize.
    A = np.array([[1.0]])
    C = np.array([[1e-4]])
    L = _gain(stabilizing_gain, A, C)
    assert spectrum(A + L @ C).is_schur


def test_stabilizing_gain_requires_detectability():
    # An output map below the zero cut at A's scale sees nothing.
    for c in (0.0, 1e-200):
        with pytest.raises(NotDetectable):
            stabilizing_gain(np.array([[2.0]]), np.array([[c]]))


def test_stabilizing_gain_reports_divergence():
    # A detectable pair at an absurd scale has no Riccati solution in
    # float64: C'C alone overflows.  At 1e60 and 1e70 an observable pair's
    # W = I + G H is finite but its I rounds away, so W is singular.  That
    # must surface as a NumericalFailure with a message, never as a bare
    # linear-algebra crash or a RuntimeWarning from a downstream step.
    pairs = [([[1e200]], [[1e192]])]
    pairs += [([[s, s], [0.0, s]], [[s, 0.0]]) for s in (1e60, 1e70)]
    for A, C in pairs:
        with pytest.raises(NumericalFailure, match="diverged"):
            stabilizing_gain(np.array(A), np.array(C))


def test_stabilizing_gain_at_extreme_but_representable_scale():
    # The stabilizing solution X ~ 1e16 + 1 and the closed loop
    # 1e80 / (1 + 1e144 X) ~ 1e-80 are both representable, so the pair
    # gets a gain.
    A = np.array([[1e80]])
    C = np.array([[1e72]])
    L = _gain(stabilizing_gain, A, C)
    assert spectrum(A + L @ C).is_schur


#: (seed, n, q, scale) of the seeded random ladder of detectable pairs.
LADDER = [
    (0, 2, 1, 0.6), (1, 3, 1, 1.0), (2, 5, 2, 1.4), (3, 8, 4, 0.6),
    (4, 12, 1, 1.0), (5, 17, 8, 1.4), (6, 23, 3, 0.6), (7, 30, 15, 1.0),
    (8, 38, 5, 1.4), (9, 45, 22, 0.6), (10, 52, 1, 1.0), (11, 60, 30, 1.4),
    # 29 unstable modes seen through one output: ||P|| ~ 3e8.
    (11, 60, 1, 1.4),
    # ||P|| ~ 2e12 through one output at n = 100; n = 200 with 20 and 3.
    (12, 100, 10, 1.0), (13, 100, 1, 1.4), (14, 200, 20, 1.4),
    (15, 200, 3, 0.6),
]


def _ladder_pair(seed, n, q, scale):
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal((n, n)) / np.sqrt(n),
            rng.standard_normal((q, n)))


@pytest.mark.parametrize("seed, n, q, scale", LADDER)
def test_dare_doubling_matches_scipy_solver(seed, n, q, scale):
    # Seeded random detectable pairs against the generalized-eigenvalue
    # solver as an oracle.
    _check_dare_solution(*_ladder_pair(seed, n, q, scale))


def test_dare_doubling_inverts_once_per_step_and_solves_nothing(monkeypatch):
    # Each step forms W^-1 once and gets W^-1 A and W^-1 G by products.
    calls = {"inv": 0, "steps": 0}
    inv, finite = np.linalg.inv, numkit._finite

    def counting_inv(M):
        calls["inv"] += 1
        return inv(M)

    def counting_finite(M, what):
        calls["steps"] += what == "P"
        return finite(M, what)

    def no_solve(*args):
        raise AssertionError("the doubling step called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    monkeypatch.setattr(numkit, "_finite", counting_finite)
    rng = np.random.default_rng(3)
    _doubling(1.4 * rng.standard_normal((20, 20)) / np.sqrt(20),
              rng.standard_normal((3, 20)))
    assert calls["steps"] > 1
    assert calls["inv"] == calls["steps"]


def _change_rule_doubling(A, C):
    """P and step count of the same doubling stopped by the change rule
    alone: at the first step that changes H by at most n eps ||H||_1."""
    n = len(A)
    A, G, H = A.T, C.T @ C, np.eye(n)
    for step in range(1, 60):
        W_inv = np.linalg.inv(np.eye(n) + G @ H)
        WA = W_inv @ A
        dH = A.T @ H @ WA
        dH = (dH + dH.T) / 2
        G = G + A @ (W_inv @ G) @ A.T
        G = (G + G.T) / 2
        A = A @ WA
        H = H + dH
        if np.linalg.norm(dH, 1) <= n * EPS * np.linalg.norm(H, 1):
            return H, step
    raise AssertionError("the change rule never stopped")


def _doubling(A, C, doubling=_dare_doubling):
    """P of ``doubling`` at the default margin, its rule calling the real
    staircase."""
    return doubling(A, C, SCHUR_MARGIN,
                    partial(numkit._refuse_undetectable, A, C, SCHUR_MARGIN))


def _reference_doubling(Abar, Cbar, margin, refuse):
    """The doubling loop of `_dare_doubling` written with a fresh array for
    every intermediate, np.eye for W and (X + X') / 2 for symmetry: both
    stop rules, without the finiteness checks.  It calls ``refuse`` once,
    the first time max diag(H_k) reaches the bound of `_hidden_mode_weight`
    or else when the final ||P||_1 does."""
    n = len(Abar)
    weight = numkit._hidden_mode_weight(Abar, Cbar, margin)
    A, G, H = Abar.T, Cbar.T @ Cbar, np.eye(n)
    last = None
    checked = False
    for _ in range(numkit._MAX_DOUBLINGS):
        W_inv = np.linalg.inv(np.eye(n) + G @ H)
        WA = W_inv @ A
        dH = A.T @ H @ WA
        dH = (dH + dH.T) / 2
        G = G + A @ (W_inv @ G) @ A.T
        G = (G + G.T) / 2
        A = A @ WA
        H = H + dH
        if not checked and np.max(np.diag(H)) * weight >= 1.0:
            checked = True
            refuse()
        step, size = np.linalg.norm(dH, 1), np.linalg.norm(H, 1)
        if step <= n * EPS * size:
            break
        change = step / size
        if last is not None and change < last and (
                change ** 3 <= n * EPS * last ** 2):
            break
        last = change
    else:
        raise AssertionError("the reference doubling did not converge")
    if not checked and size * weight >= 1.0:
        refuse()
    return H


def _doubling_outcome(doubling, A, C):
    """P, or the modes of the refusal."""
    try:
        return _doubling(A, C, doubling)
    except NotDetectable as exc:
        return exc.modes


def test_dare_doubling_matches_its_reference_loop_bit_for_bit(corpus_pairs):
    # In-place symmetrization, the in-place diagonal of W and the diagonal
    # view change no bit of P, and the rule on ||H_k||_1 changes no
    # refusal.
    pairs = corpus_pairs["model"] + corpus_pairs["data"]
    pairs += [_ladder_pair(*case) for case in LADDER]
    refused = 0
    for A, C in pairs:
        P = _doubling_outcome(_dare_doubling, A, C)
        reference = _doubling_outcome(_reference_doubling, A, C)
        if isinstance(P, list):
            refused += 1
            assert P == reference
        else:
            assert np.array_equal(P, reference)
    assert 0 < refused < len(pairs)


def test_staircase_runs_once_when_the_doubling_fails_after_its_early_check(
        monkeypatch):
    # A huge bound weight fires the early check at the first step, and one
    # step is too few to converge: the staircase finds no mode, then the
    # doubling fails, and that failure must not run the staircase again.
    A, C = _ladder_pair(*LADDER[4])
    calls = []
    staircase = numkit.undetectable_modes

    def counting(*args, **kwargs):
        calls.append(args)
        return staircase(*args, **kwargs)

    monkeypatch.setattr(numkit, "undetectable_modes", counting)
    monkeypatch.setattr(numkit, "_hidden_mode_weight", lambda *args: 1e300)
    monkeypatch.setattr(numkit, "_MAX_DOUBLINGS", 1)
    with pytest.raises(NumericalFailure,
                       match=r"^Riccati doubling did not converge in 1 "
                             r"steps$"):
        stabilizing_gain(A, C)
    assert len(calls) == 1


def _staircase_spy(monkeypatch):
    """The calls to `numkit._refuse_undetectable`, which still runs."""
    calls = []
    refuse = numkit._refuse_undetectable

    def spying(*args):
        calls.append(args)
        return refuse(*args)

    monkeypatch.setattr(numkit, "_refuse_undetectable", spying)
    return calls


def test_staircase_runs_once_when_a_proved_p_gets_a_failed_verdict(
        ref_intermediates, monkeypatch):
    # The doubling returns a P small enough for the proof, so it never
    # calls the staircase; a Schur verdict forced to fail sends the pair
    # to it once, from the failure path.
    A, C = ref_intermediates["A_bar"], ref_intermediates["C_bar"]
    calls = _staircase_spy(monkeypatch)
    P = _doubling(A, C)
    assert np.linalg.norm(P, 1) * numkit._hidden_mode_weight(
        A, C, SCHUR_MARGIN) < 1.0
    assert not calls
    monkeypatch.setattr(
        numkit, "_schur_report",
        lambda loop, P, margin: numkit._spectrum_report(np.array([2.0]),
                                                        margin))
    with pytest.raises(NumericalFailure,
                       match=r"^Riccati gain failed verification: spectral "
                             r"radius 2$"):
        stabilizing_gain(A, C)
    assert len(calls) == 1


def test_staircase_runs_when_only_the_last_iterate_is_too_large(
        monkeypatch):
    # A weight at which ||P||_1 of the last iterate reaches the bound while
    # every diagonal stays far below it: the rule must still call the
    # staircase, or a P too large for the proof would come back unchecked.
    A, C = _ladder_pair(*LADDER[4])
    P = _doubling(A, C)
    weight = np.nextafter(1.0 / np.linalg.norm(P, 1), np.inf)
    assert (np.linalg.norm(P, 1) * weight >= 1.0
            > 2 * P.diagonal().max() * weight)
    monkeypatch.setattr(numkit, "_hidden_mode_weight", lambda *args: weight)
    calls = _staircase_spy(monkeypatch)
    assert np.array_equal(_doubling(A, C), P)
    assert calls


def test_staircase_runs_once_for_a_pair_with_no_outputs(monkeypatch):
    # With no outputs there is no doubling: an Abar that is not Schur
    # fails the verdict, and the staircase runs once and names its mode.
    calls = _staircase_spy(monkeypatch)
    with pytest.raises(NotDetectable) as exc_info:
        stabilizing_gain(np.diag([1.5, 0.5]), np.zeros((0, 2)))
    assert exc_info.value.modes == [1.5]
    assert len(calls) == 1


def test_dare_doubling_skips_the_step_quadratic_convergence_predicts(
        monkeypatch):
    # Once change_k^3 <= n eps change_{k-1}^2, the next step would change H
    # by at most n eps ||H||_1, so the doubling stops one step before the
    # change rule alone would, at a P within that bound of its P.
    rng = np.random.default_rng(3)
    A = 1.4 * rng.standard_normal((20, 20)) / np.sqrt(20)
    C = rng.standard_normal((3, 20))
    P_change, change_steps = _change_rule_doubling(A, C)
    steps, inv = [], np.linalg.inv

    def counting_inv(M):
        steps.append(M)
        return inv(M)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    P = _doubling(A, C)
    assert len(steps) == change_steps - 1
    assert (np.linalg.norm(P - P_change, 1)
            <= 20 * EPS * np.linalg.norm(P_change, 1))


def test_dare_doubling_slow_weakly_observed_unit_mode():
    # Closed loop ~ 0.9999, the slowest convergence in the suite; the exact
    # solution is (1 + sqrt(1 + 4e8)) / 2.
    P = _check_dare_solution(np.array([[1.0]]), np.array([[1e-4]]))
    assert_allclose(P, [[(1 + np.sqrt(1 + 4e8)) / 2]], rtol=1e-11)


def _dare_residual(A, C, P):
    S = C @ P @ C.T + np.eye(len(C))
    R = (A @ P @ A.T - A @ P @ C.T @ np.linalg.solve(S, C @ P @ A.T)
         + np.eye(len(A)) - P)
    return np.linalg.norm(R, 2)


def _check_dare_solution(A, C):
    from scipy.linalg import solve_discrete_are

    n, q = len(A), len(C)
    P = _doubling(A, C)
    oracle = solve_discrete_are(A.T, C.T, np.eye(n), np.eye(q))
    assert_allclose(P, P.T, rtol=0, atol=n * EPS * np.linalg.norm(P, 2))
    res, res_oracle = _dare_residual(A, C, P), _dare_residual(A, C, oracle)
    scale, scale_oracle = np.linalg.norm(P, 2), np.linalg.norm(oracle, 2)
    # Within a decade of the backward-stable oracle, or of rounding.
    assert res / scale <= 10 * max(res_oracle / scale_oracle, n * EPS)
    # The DARE's derivative at P is X -> X - F X F' with F the closed loop,
    # and its inverse has 2-norm ||sum F^k F'^k|| <= ||P||, so to first
    # order each solution lies within ||P|| * residual of the exact one.
    assert (np.linalg.norm(P - oracle, 2)
            <= 4 * max(scale, scale_oracle) * (res + res_oracle))
    return P


@pytest.mark.parametrize("seed", range(100))
def test_stabilizing_gain_random_detectable_pairs(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    if seed % 5 == 0:
        # stable dynamics observed by nothing: L = 0 must be found
        A = rng.normal(size=(n, n))
        A *= 0.5 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
        C = np.zeros((1, n))
    else:
        A = rng.normal(size=(n, n))
        C = rng.normal(size=(1 + seed % 2, n))
    L = _gain(stabilizing_gain, A, C)
    assert spectrum(A + L @ C).is_schur


# ------------------------------------- Stein certificate and early refusal


@pytest.fixture(scope="module")
def corpus_pairs():
    """(A_bar, C_bar) of every benchmark corpus plant whose kernel has
    rank(V_f) = n, hidden-mode plants included.  Model route: `corpus_model`
    at n = 8, 20, 40 (seeds 0-39) and n = 60 (seeds 0-29).  Data route: the
    120 data-corpus recordings that pass the excitation check."""
    from uiokit import datalog, synth
    from uiokit.datalog import Uniform

    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    pairs = {"model": [], "data": []}

    def add(route, ker):
        if ker.rank_V_f == ker.n:
            pairs[route].append((ker.V_p[:ker.n], ker.V_p[ker.n:]))

    for n, seeds in ((8, 40), (20, 40), (40, 40), (60, 30)):
        m, p, r = workloads.corpus_dims(n)
        for seed in range(seeds):
            model = workloads.corpus_model(n, m, p, r, seed=seed)
            add("model", synth.model_kernel(model))
            if n == 60:
                continue
            data = datalog.collect(
                model, 3 * (n + 2 * m + 2 * r),
                input_policy=Uniform(-4.0, 4.0),
                disturbance_policy=Uniform(-3.0, 3.0),
                x0=Uniform(-1.0, 1.0), seed=seed)
            blocks = datalog.build_blocks(data)
            if datalog.excitation_report(blocks).ok:
                add("data", synth.kernel_representation(
                    blocks.Phi, (n, m, p, r)))
    return pairs


def _stein_solution(loop):
    """Symmetric P with P - loop P loop' = I, from its Kronecker form."""
    n = len(loop)
    P = np.linalg.solve(np.eye(n * n) - np.kron(loop, loop),
                        np.eye(n).ravel()).reshape(n, n)
    return (P + P.T) / 2


def test_gain_stage_falls_back_to_eigenvalues_when_nothing_is_proved(
        ref_intermediates, monkeypatch):
    # A loop pushed to radius 1 - 1e-10 keeps P, but R = P - loop P loop'
    # is then no longer >= I / 2, so nothing is proved, and eig's verdict
    # (not Schur at the margin) stands.  The Stein solution of that radius
    # is too large for the margin, and proves only radius < 1.
    A, C = ref_intermediates["A_bar"], ref_intermediates["C_bar"]
    L, loop, proved = stabilizing_gain(A, C)
    P = _doubling(A, C)
    assert numkit._stein_proves_schur(loop, P, SCHUR_MARGIN)
    near = loop * ((1 - 1e-10) / proved.spectral_radius)
    assert not numkit._stein_proves_schur(near, P, SCHUR_MARGIN)
    assert not spectrum(near).is_schur
    slow = np.diag([1 - 1e-10, 0.5])
    assert not numkit._stein_proves_schur(slow, _stein_solution(slow),
                                          SCHUR_MARGIN)
    assert numkit._stein_proves_schur(slow, _stein_solution(slow), 0.0)
    # Without a proof the gain stage solves the loop's eigenvalues once,
    # and returns the same gain, loop and spectrum.
    solves = _eigvals_input(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", _SOLVE)  # the gain takes one
    monkeypatch.setattr(numkit, "_stein_proves_schur", lambda *args: False)
    L_eig, loop_eig, fallback = stabilizing_gain(A, C)
    assert len(solves) == 1 and solves[0] is loop_eig
    assert_array_equal(L_eig, L)
    assert_array_equal(loop_eig, loop)
    assert fallback.is_schur
    assert_array_equal(fallback.eigenvalues, proved.eigenvalues)
    assert len(solves) == 1


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_jordan_type_loop_gets_the_verdict_of_its_eigenvalues(n):
    # Q (0.999 I + s N) Q' is far from normal: its computed eigenvalues
    # scatter by about (eps s)^(1/n), and at n >= 8 eig calls it unstable.
    # The certificate proves only what is true, so wherever it proves the
    # margin, eig agrees; elsewhere eig's verdict stands.
    Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    outcomes = []
    for s in (1e-3, 0.1, 1.0):
        loop = Q @ (0.999 * np.eye(n) + s * np.eye(n, k=1)) @ Q.T
        proved = numkit._stein_proves_schur(loop, _stein_solution(loop),
                                            SCHUR_MARGIN)
        eig = spectrum(loop).is_schur
        assert (proved or eig) == eig
        outcomes.append((proved, eig))
    assert outcomes[0] == (True, True)
    assert not outcomes[-1][0]


def test_certificate_needs_a_positive_definite_p():
    # P = diag(-1/3, 4/3) satisfies P - loop P loop' = I for the unstable
    # loop diag(2, 1/2): R alone proves nothing.
    loop = np.diag([2.0, 0.5])
    P = np.diag([-1.0 / 3.0, 4.0 / 3.0])
    assert numkit._proves_above(P - loop @ P @ loop.T, 0.5)
    assert not numkit._stein_proves_schur(loop, P, SCHUR_MARGIN)
    assert numkit._stein_proves_schur(loop[1:, 1:], P[1:, 1:], SCHUR_MARGIN)


@pytest.mark.parametrize("route", ["model", "data"])
def test_every_corpus_design_is_proved_schur_by_its_riccati_solution(
        corpus_pairs, monkeypatch, route):
    # Every corpus pair that gets a gain has its Schur verdict proved by
    # the Stein certificate, and solves no eigenvalue problem.
    verdicts = []
    prove = numkit._stein_proves_schur

    def recording(*args):
        verdicts.append(prove(*args))
        return verdicts[-1]

    monkeypatch.setattr(numkit, "_stein_proves_schur", recording)
    solves = _eigvals_input(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", _SOLVE)  # the gain takes one
    designed = 0
    for A, C in corpus_pairs[route]:
        verdicts.clear()
        solves.clear()
        try:
            _, loop, report = stabilizing_gain(A, C)
        except NotDetectable:
            continue
        designed += 1
        assert verdicts == [True] and report.is_schur
        assert not any(M.shape == loop.shape for M in solves)
    assert designed == {"model": 98, "data": 27}[route]


def _refusal(monkeypatch, model):
    """Inverses the design of ``model`` takes, and its NoUio refusal.  It
    designs a fresh copy, so that no stage of an earlier design is read."""
    from uiokit.synth import NoUio, design_from_model

    inverses = []
    inv = np.linalg.inv

    def counting(M):
        inverses.append(M.shape)
        return inv(M)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "inv", counting)
        with pytest.raises(NoUio) as exc_info:
            design_from_model(copy.copy(model))
    exc = exc_info.value
    return len(inverses), (exc.cause, str(exc), exc.evidence)


@pytest.mark.parametrize("n", [20, 40, 60])
def test_refusal_stops_the_doubling_once_its_iterate_is_too_large(
        monkeypatch, n):
    # Every third corpus plant hides a mode at 1.3.  Its refusal stops by
    # the fifth doubling step, and names the same modes with the same
    # message as when the doubling runs to the end (the bound weight set
    # to 0) and the failed loop sends the pair to the staircase.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for seed in (0, 3, 6, 9):
        model = workloads.corpus_model(n, *workloads.corpus_dims(n), seed=seed)
        steps, refusal = _refusal(monkeypatch, model)
        with monkeypatch.context() as mp:
            mp.setattr(numkit, "_hidden_mode_weight", lambda *args: 0.0)
            full_steps, full_refusal = _refusal(monkeypatch, model)
        assert steps <= 5 < full_steps
        assert refusal == full_refusal


def _staircase_steps(doubling, A, C):
    """P of ``doubling`` with a staircase that names no mode, and the
    doubling step of each call to it."""
    steps, calls = [], []
    inv = np.linalg.inv

    def counting(M):
        steps.append(M)
        return inv(M)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "inv", counting)
        P = doubling(A, C, SCHUR_MARGIN, lambda: calls.append(len(steps)))
    return P, calls


def test_early_refusal_check_fires_only_where_the_final_check_fails(
        corpus_pairs):
    # The rule reads ||H_k||_1 after every step; the reference loop reads
    # max diag(H_k), which the Loewner growth of the iterates bounds by
    # ||P||_1, and then ||P||_1 itself.  With a staircase that names no
    # mode, both run to the end on every corpus pair.  The rule must call
    # the staircase only on pairs where the reference calls it, never at a
    # later step, and on every pair whose final P fails the proof.
    fired = 0
    for A, C in corpus_pairs["model"] + corpus_pairs["data"]:
        P, calls = _staircase_steps(_dare_doubling, A, C)
        reference, reference_calls = _staircase_steps(_reference_doubling,
                                                      A, C)
        assert np.array_equal(P, reference)
        weight = numkit._hidden_mode_weight(A, C, SCHUR_MARGIN)
        if np.linalg.norm(P, 1) * weight >= 1.0:
            assert calls
        if calls:
            assert reference_calls and calls[0] <= reference_calls[0]
            fired += 1
    assert fired > 0


# ------------------------------ verify_uio's proof, by Smith doubling


def _smith_verdict(loop, margin=SCHUR_MARGIN):
    """`numkit._smith_spectrum` of ``loop``, checked against `spectrum`: the
    same verdict and eigenvalues, solved only when nothing was proved.
    Returns the report, whether it was proved, and the Smith steps taken."""
    steps, solves = [], []
    bound, eigvals = numkit._stein_bound_holds, np.linalg.eigvals

    def counting_bound(*args):
        steps.append(args)
        return bound(*args)

    def counting_eigvals(M):
        solves.append(M)
        return eigvals(M)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkit, "_stein_bound_holds", counting_bound)
        mp.setattr(np.linalg, "eigvals", counting_eigvals)
        report = numkit._smith_spectrum(loop, margin)
        proved = not solves
    eig = spectrum(loop, margin)
    assert report.is_schur == eig.is_schur
    assert_array_equal(report.eigenvalues, eig.eigenvalues)
    assert report.spectral_radius == eig.spectral_radius
    return report, proved, len(steps)


def _rotated_diagonal(values, seed=0):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (len(values), len(values))))
    return Q @ np.diag(values) @ Q.T


def test_smith_proof_at_the_margin():
    # Radius 1 - margin - 1e-12 is Schur at the margin, but its Stein
    # solution (about 1 / (2 margin)) is too large to prove it: eig decides.
    # At 1 - margin + 1e-12 nothing can be proved.  At margin 0 the same
    # loops are proved, within the step cap.
    below, above = (_rotated_diagonal([1 - SCHUR_MARGIN + d, 0.5, -0.3])
                    for d in (-1e-12, 1e-12))
    assert [_smith_verdict(M)[1] for M in (below, above)] == [False, False]
    assert spectrum(below).is_schur and not spectrum(above).is_schur
    for M in (below, above):
        report, proved, steps = _smith_verdict(M, 0.0)
        assert report.is_schur and proved
        assert steps <= numkit._MAX_DOUBLINGS
    assert _smith_verdict(_rotated_diagonal([0.9, -0.5, 0.1]))[1]


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_smith_proof_of_a_jordan_type_loop_gets_the_verdict_of_eig(n):
    # The loops of the certificate test: where the proof holds, eig agrees,
    # and elsewhere eig's verdict stands.
    Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    proved = [_smith_verdict(Q @ (0.999 * np.eye(n) + s * np.eye(n, k=1))
                             @ Q.T)[1] for s in (1e-3, 0.1, 1.0)]
    assert proved[0] and not proved[-1]


@pytest.mark.parametrize("loop", [
    np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]),
    _rotated_diagonal([1.0, 1.0, 0.5, -1.0]), 1.5 * np.eye(2),
    _rotated_diagonal([1.5, 0.2, 0.1])],
    ids=["identity", "rotation", "orthogonal", "expanding", "unstable"])
def test_smith_proof_gives_up_on_a_loop_on_or_outside_the_circle(loop):
    # With rho >= 1 the trace of P_k is at least 2^k, so max diag(P_k)
    # passes the bound 1 / (2 margin (2 - margin)) within
    # log2(n / (4 margin)) + 1 steps, far below the cap.
    report, proved, steps = _smith_verdict(loop)
    assert not report.is_schur and not proved
    assert steps <= np.log2(len(loop) / (4 * SCHUR_MARGIN)) + 1
    assert steps < numkit._MAX_DOUBLINGS // 2


@pytest.mark.parametrize("margin", [SCHUR_MARGIN, 0.0])
def test_smith_proof_of_a_nilpotent_loop_with_huge_entries(margin):
    # 1e8 on the superdiagonal: P ~ 1e48, so nothing is proved, and eig's
    # exact zeros decide.
    report, proved, _ = _smith_verdict(1e8 * np.eye(4, k=1), margin)
    assert report.is_schur and not proved
    assert report.spectral_radius == 0.0


def test_smith_proof_of_an_empty_loop():
    report, proved, _ = _smith_verdict(np.zeros((0, 0)))
    assert report.is_schur and proved
    assert report.eigenvalues.shape == (0,) and report.spectral_radius == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_smith_proof_of_a_non_finite_loop_fails_as_eig_does(bad):
    loop = np.array([[bad, 0.0], [0.0, 0.5]])
    with pytest.raises(NumericalFailure) as expected:
        spectrum(loop)
    with pytest.raises(NumericalFailure) as raised:
        numkit._smith_spectrum(loop, SCHUR_MARGIN)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("route", ["model", "data"])
def test_smith_proof_of_every_corpus_observer(corpus_pairs, route):
    # verify_uio proves the Schur verdict of every corpus observer,
    # A_uio = -loop, from its own Stein solution, at the margin and at 0.
    proved = []
    for A, C in corpus_pairs[route]:
        try:
            _, loop, _ = stabilizing_gain(A, C)
        except NotDetectable:
            continue
        for margin in (SCHUR_MARGIN, 0.0):
            report, ok, _ = _smith_verdict(-loop, margin)
            assert report.is_schur
            proved.append(ok)
    assert len(proved) == 2 * {"model": 98, "data": 27}[route]
    assert all(proved)


# ------------------------------------------------------ pole placement


def test_place_poles_already_in_place():
    L = _gain(place_poles, np.zeros((3, 3)), np.eye(3), [0.0, 0.0, 0.0])
    assert_allclose(L, np.zeros((3, 3)), atol=1e-12)


def test_place_poles_scalar():
    L = _gain(place_poles, np.array([[2.0]]), np.array([[1.0]]), [0.5])
    assert_allclose(L, np.array([[-1.5]]), atol=1e-10)


def test_place_poles_bundled_pair(ref_intermediates):
    A_bar = ref_intermediates["A_bar"]
    C_bar = ref_intermediates["C_bar"]
    L = _gain(place_poles, A_bar, C_bar, [0.0, 0.0, 0.5])
    got = np.linalg.eigvals(A_bar + L @ C_bar)
    assert eig_assignment_error(got, np.array([0.0, 0.0, 0.5])) < 1e-6


def test_place_poles_unobservable_pair():
    with pytest.raises(NotObservable):
        place_poles(np.diag([1.0, 2.0]), np.array([[1.0, 0.0]]), [0.1, 0.2])


def test_place_poles_large_observable_pair_is_not_called_unobservable():
    # Powers of this A span ~150 decades, so an observability matrix built
    # from them looks rank deficient; the pair is observable all the same.
    # NotObservable or a bare LinAlgError escaping fails the test.
    rng = np.random.default_rng(0)
    n = 60
    A = 40.0 * rng.standard_normal((n, n))
    C = rng.standard_normal((1, n))
    poles = np.linspace(-0.5, 0.5, n)
    try:
        L = _gain(place_poles, A, C, poles)
    except PlacementFailed:
        # One output fixes every eigenvector up to scale, and at this scale
        # they are too ill-conditioned for the placed spectrum to verify.
        return
    got = np.linalg.eigvals(A + L @ C)
    assert eig_assignment_error(got, poles.astype(complex)) < 1e-6


@pytest.mark.parametrize("seed", range(100))
def test_place_poles_random_observable_pairs(seed):
    rng = np.random.default_rng(1000 + seed)
    n = 2 + seed % 3
    q = 1 + seed % 2
    A = rng.normal(size=(n, n))
    C = rng.normal(size=(q, n))
    poles = rng.uniform(-0.85, 0.85, size=n)
    L = _gain(place_poles, A, C, poles)
    got = np.linalg.eigvals(A + L @ C)
    assert eig_assignment_error(got, poles.astype(complex)) < 1e-6


def test_place_poles_conjugate_pair():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3))
    C = rng.normal(size=(1, 3))
    poles = np.array([0.3 + 0.4j, 0.3 - 0.4j, -0.5])
    L = _gain(place_poles, A, C, poles)
    assert np.isrealobj(L)
    got = np.linalg.eigvals(A + L @ C)
    assert eig_assignment_error(got, poles) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_place_poles_single_output_double_pole(seed):
    # One output allows one eigenvector per pole, so the double pole leaves
    # a defective closed loop; Ackermann's formula places it.
    rng = np.random.default_rng(2000 + seed)
    A = rng.normal(size=(3, 3))
    C = rng.normal(size=(1, 3))
    L = _gain(place_poles, A, C, [0.0, 0.0, 0.5])
    got = np.linalg.eigvals(A + L @ C)
    assert eig_assignment_error(got, np.array([0.0, 0.0, 0.5])) < 1e-6


def test_place_poles_refuses_a_pole_repeated_beyond_rank_c(monkeypatch):
    # rank(C) = 2 eigenvectors at most per pole; the triple pole at 0 is
    # refused before any eigenvector is computed.
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    C = rng.normal(size=(2, 4))

    def refuse(*args, **kwargs):
        raise AssertionError("eigenvectors computed for a refused request")

    monkeypatch.setattr(numkit, "_knv_loop", refuse)
    with pytest.raises(PlacementFailed,
                       match=r"pole 0\+0j of Abar \+ L @ Cbar is requested 3 "
                             r"times; a pole has at most rank\(Cbar\) = 2 "
                             r"eigenvectors"):
        place_poles(A, C, [0.0, 0.0, 0.0, 0.5])


@pytest.mark.parametrize("k", [2, 3])
def test_place_poles_repeated_pole_up_to_rank_c(k):
    # A pole repeated k = rank(C) times gets k independent eigenvectors, so
    # the closed loop is diagonalizable and the pole is placed to rounding.
    rng = np.random.default_rng(11)
    n = 6
    A = rng.normal(size=(n, n))
    C = rng.normal(size=(k, n))
    poles = np.array([0.2] * k + list(np.linspace(-0.5, 0.5, n - k)))
    L = _gain(place_poles, A, C, poles)
    got = np.linalg.eigvals(A + L @ C)
    assert eig_assignment_error(got, poles.astype(complex)) < 1e-9


def test_place_poles_complex_pairs_with_several_outputs():
    rng = np.random.default_rng(12)
    n = 8
    A = rng.normal(size=(n, n))
    C = rng.normal(size=(3, n))
    poles = np.array([0.3 + 0.4j, 0.3 - 0.4j, -0.2 + 0.5j, -0.2 - 0.5j,
                      0.3 + 0.4j, 0.3 - 0.4j, 0.1, -0.6])
    L = _gain(place_poles, A, C, poles)
    assert np.isrealobj(L)
    got = np.linalg.eigvals(A + L @ C)
    assert eig_assignment_error(got, poles) < 1e-9


def test_gains_draw_no_random_numbers_and_repeat_bit_for_bit(
        ref_intermediates, monkeypatch):
    rng = np.random.default_rng(4)
    n = 20
    pairs = [
        (ref_intermediates["A_bar"], ref_intermediates["C_bar"],
         [0.0, 0.0, 0.5]),
        (0.35 * rng.normal(size=(n, n)), rng.normal(size=(7, n)),
         np.linspace(-0.6, 0.6, n)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a gain constructor drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for A, C, poles in pairs:
        for build, args in ((place_poles, (A, C, poles)),
                            (stabilizing_gain, (A, C))):
            first, again = build(*args)[0], build(*args)[0]
            assert_array_equal(first, again)


# ------------------------------------------------------- row spaces


def test_rowspace_angles_identical_spaces():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(2, 5))
    U = rng.normal(size=(2, 2))
    assert np.max(rowspace_angles(M, U @ M)) < 1e-10


def test_rowspace_angles_orthogonal_rows():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert_allclose(np.max(rowspace_angles(a, b)), np.pi / 2, atol=1e-12)


def _rotated(rng, *mats):
    Q, _ = np.linalg.qr(rng.standard_normal((mats[0].shape[1],) * 2))
    return [M @ Q for M in mats]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ka, kb", [(2, 2), (3, 1), (1, 4), (4, 3)])
def test_rowspace_angles_match_scipy(seed, ka, kb):
    import scipy.linalg

    rng = np.random.default_rng([seed, ka, kb])
    A = rng.standard_normal((ka + 1, 7))
    A[-1] = A[0] - A[1] if ka > 1 else 2 * A[0]   # a dependent row
    B = rng.standard_normal((kb, 7))
    got = rowspace_angles(A, B)
    want = scipy.linalg.subspace_angles(A.T, B.T)
    assert got.shape == (min(ka, kb),)
    assert_allclose(got, want, rtol=0, atol=100 * EPS)


@pytest.mark.parametrize("A, B", [
    (np.zeros((0, 4)), np.eye(4)[:2]),
    (np.eye(4)[:3], np.zeros((0, 4))),
    (np.zeros((2, 4)), np.eye(4)[:2]),
])
def test_rowspace_angles_of_an_empty_space(A, B):
    import scipy.linalg

    want = scipy.linalg.subspace_angles(A.T, B.T)
    assert rowspace_angles(A, B).shape == want.shape == (0,)


@pytest.mark.parametrize("angle", [1e-10, np.pi / 2 - 1e-10])
def test_rowspace_angles_extreme_pair_matches_scipy(angle):
    import scipy.linalg

    rng = np.random.default_rng(5)
    a = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
    b = np.array([[np.cos(angle), np.sin(angle), 0.0, 0.0, 0.0]])
    exact = np.arctan2(b[0, 1], b[0, 0])
    a, b = _rotated(rng, a, b)
    got = rowspace_angles(a, b)
    assert_allclose(got, scipy.linalg.subspace_angles(a.T, b.T), rtol=0,
                    atol=10 * EPS)
    assert_allclose(got, [exact], rtol=0, atol=10 * EPS)


def test_rowspace_angles_keep_small_and_right_angles_apart():
    # One angle near 0 and one near pi/2 in the same pair.  Each is read
    # from the function (sine or cosine) that is small for it; scipy's
    # subspace_angles pairs the two lists the other way round here and
    # returns pi/2 and 0, so it is no oracle for this case.
    rng = np.random.default_rng(6)
    small, right = 1e-10, np.pi / 2 - 1e-10
    a = np.eye(6)[:2]
    b = np.zeros((2, 6))
    b[0, [0, 2]] = np.cos(small), np.sin(small)
    b[1, [1, 3]] = np.cos(right), np.sin(right)
    exact = [np.arctan2(b[1, 3], b[1, 1]), np.arctan2(b[0, 2], b[0, 0])]
    a, b = _rotated(rng, a, b)
    assert_allclose(rowspace_angles(a, b), exact, rtol=0, atol=10 * EPS)


def test_rowspace_angles_reject_different_ambient_spaces():
    with pytest.raises(ValueError, match="R\\^3 and R\\^4"):
        rowspace_angles(np.eye(3), np.eye(4))
