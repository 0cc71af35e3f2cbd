"""Rank/null-space primitives, spectra, and the two gain constructions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uiokit.numkit import (
    ColumnRankDeficient,
    NotDetectable,
    NotObservable,
    NumericalFailure,
    PlacementFailed,
    eig_assignment_error,
    left_inverse,
    left_null_basis,
    place_poles,
    rank,
    right_null_basis,
    rowspace_angles,
    spectrum,
    stabilizing_gain,
    undetectable_modes,
)
from uiokit.synth import KernelRep


EF_COLUMN = np.array([[1.0], [0.0], [1.0], [1.0], [1.0]])  # stacked [E; F]


# ---------------------------------------------------------------- rank


def test_rank_identity():
    assert rank(np.eye(3)) == 3


def test_rank_zero_matrix():
    assert rank(np.zeros((2, 4))) == 0


def test_rank_single_disturbance_column():
    assert rank(EF_COLUMN) == 1


# ------------------------------------------------------- null bases


def test_right_null_basis_of_row_sum():
    N = right_null_basis(np.array([[1.0, 1.0]]))
    assert N.shape == (2, 1)
    direction = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert_allclose(abs(float(direction @ N[:, 0])), 1.0, atol=1e-12)


def test_right_null_basis_trivial_kernel():
    assert right_null_basis(np.eye(2)).shape == (2, 0)


def test_right_null_basis_of_bundled_annihilator(ref_kernel, ref_model):
    from uiokit.plant import consistency_matrix

    G = right_null_basis(ref_kernel)
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
    N = right_null_basis(M)
    assert W.shape[0] == rows - k
    assert N.shape[1] == cols - k
    sigma_max = np.linalg.norm(M, 2)
    assert np.max(np.abs(W @ M), initial=0.0) < 1e-10 * (1.0 + sigma_max)
    assert np.max(np.abs(M @ N), initial=0.0) < 1e-10 * (1.0 + sigma_max)


# ------------------------------------------------------ left inverse


def test_left_inverse_identity():
    assert_allclose(left_inverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_left_inverse_scaled_column():
    X = left_inverse(np.array([[2.0], [0.0]]))
    assert_allclose(X, np.array([[0.5, 0.0]]), atol=1e-14)


def test_left_inverse_of_kernel_future_block(ref_kernel):
    ker = KernelRep.from_matrix(ref_kernel, (3, 1, 2))
    X = left_inverse(ker.V_f)
    assert np.max(np.abs(X @ ker.V_f - np.eye(3))) < 1e-12


def test_left_inverse_rejects_rank_deficiency():
    with pytest.raises(ColumnRankDeficient):
        left_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


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


# ---------------------------------------------------- stabilizing gain


def test_stabilizing_gain_zero_dynamics():
    L = stabilizing_gain(np.zeros((3, 3)), np.eye(3))
    assert spectrum(np.zeros((3, 3)) + L @ np.eye(3)).is_schur


def test_stabilizing_gain_scalar_interval():
    A = np.array([[2.0]])
    C = np.array([[1.0]])
    L = stabilizing_gain(A, C)
    assert abs(2.0 + L[0, 0]) < 1.0
    assert -3.0 < L[0, 0] < -1.0


def test_stabilizing_gain_bundled_pair(ref_intermediates):
    A_bar = ref_intermediates["A_bar"]
    C_bar = ref_intermediates["C_bar"]
    L = stabilizing_gain(A_bar, C_bar)
    assert spectrum(A_bar + L @ C_bar).is_schur


def test_stabilizing_gain_weakly_observed_unit_mode():
    # A mode on the unit circle seen through a weak output: the Riccati
    # solution is large (P ~ 1e4) but finite, and the gain must stabilize.
    A = np.array([[1.0]])
    C = np.array([[1e-4]])
    L = stabilizing_gain(A, C)
    assert spectrum(A + L @ C).is_schur


def test_stabilizing_gain_requires_detectability():
    # An output map below the zero cut at A's scale sees nothing.
    for c in (0.0, 1e-200):
        with pytest.raises(NotDetectable):
            stabilizing_gain(np.array([[2.0]]), np.array([[c]]))


def test_stabilizing_gain_reports_divergence():
    # A detectable pair at an absurd scale has no Riccati solution in
    # float64.  That must surface as a NumericalFailure with a message,
    # never as a bare linear-algebra crash from a downstream solve.
    with pytest.raises(NumericalFailure, match="diverged"):
        stabilizing_gain(np.array([[1e80]]), np.array([[1e72]]))


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
    L = stabilizing_gain(A, C)
    assert spectrum(A + L @ C).is_schur


# ------------------------------------------------------ pole placement


def test_place_poles_already_in_place():
    L = place_poles(np.zeros((3, 3)), np.eye(3), [0.0, 0.0, 0.0])
    assert_allclose(L, np.zeros((3, 3)), atol=1e-12)


def test_place_poles_scalar():
    L = place_poles(np.array([[2.0]]), np.array([[1.0]]), [0.5])
    assert_allclose(L, np.array([[-1.5]]), atol=1e-10)


def test_place_poles_bundled_pair(ref_intermediates):
    A_bar = ref_intermediates["A_bar"]
    C_bar = ref_intermediates["C_bar"]
    L = place_poles(A_bar, C_bar, [0.0, 0.0, 0.5])
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
        L = place_poles(A, C, poles)
    except PlacementFailed:
        return  # Ackermann's formula itself may not survive this scale
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
    L = place_poles(A, C, poles)
    got = np.linalg.eigvals(A + L @ C)
    assert eig_assignment_error(got, poles.astype(complex)) < 1e-6


def test_place_poles_conjugate_pair():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3))
    C = rng.normal(size=(1, 3))
    poles = np.array([0.3 + 0.4j, 0.3 - 0.4j, -0.5])
    L = place_poles(A, C, poles)
    assert np.isrealobj(L)
    got = np.linalg.eigvals(A + L @ C)
    assert eig_assignment_error(got, poles) < 1e-6


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
