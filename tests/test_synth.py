"""Kernel representations, the synthesis pipeline, and the verifiers."""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uiokit import demo, numkit
from uiokit.datalog import Uniform, build_blocks, collect
from uiokit.numkit import (
    NumericalFailure,
    eig_assignment_error,
    left_null_basis,
    rank,
    rowspace_angles,
)
from uiokit.plant import StateSpaceModel, UioRealization, consistency_matrix
from uiokit.synth import (
    NOT_DETECTABLE,
    VF_RANK_DEFICIENT,
    KernelRep,
    NoUio,
    SynthesisOptions,
    UioFormatError,
    design_from_data,
    design_from_model,
    kernel_representation,
    load_uio,
    model_kernel,
    save_uio,
    synthesize,
    uio_from_dict,
    uio_to_dict,
    verify_acceptor,
    verify_uio,
)

DIMS = (3, 1, 2)
PLACE = SynthesisOptions(gain="place", poles=(0.0, 0.0, 0.5))


# ------------------------------------------------- kernel representation


def test_kernel_of_full_space_is_empty():
    ker = kernel_representation(np.eye(12), DIMS)
    assert ker.k == 0
    assert ker.matrix().shape == (0, 12)


@pytest.mark.parametrize("block", ["V_p", "W_f", "R_f"])
def test_kernel_rep_refuses_a_non_finite_entry(ref_kernel, block):
    ker = KernelRep.from_matrix(ref_kernel, DIMS)
    bad = np.array(getattr(ker, block))
    bad[1, 0] = np.inf
    with pytest.raises(ValueError) as err:
        replace(ker, **{block: bad})
    assert str(err.value) == f"{block}: row 1, column 0 is not finite (inf)"
    Psi = np.array(ref_kernel)
    Psi[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"^V_p: row 1, column 0 is not"):
        KernelRep.from_matrix(Psi, DIMS)


def test_kernel_of_a_non_finite_window_matrix_is_refused():
    # It used to end in numpy's "SVD did not converge".
    G = np.ones((12, 20))
    G[2, 7] = np.nan
    with pytest.raises(ValueError) as err:
        kernel_representation(G, DIMS)
    assert str(err.value) == "window matrix: row 2, column 7 is not finite (nan)"


def test_kernel_of_consistency_matrix(ref_model, ref_kernel):
    Gamma = consistency_matrix(ref_model)
    ker = kernel_representation(Gamma, DIMS)
    assert ker.k == 5
    Psi = ker.matrix()
    assert np.max(np.abs(Psi @ Gamma)) < 1e-12 * np.linalg.norm(Psi, 2)
    # Synthesis coordinates: V_f = [I; 0] exactly, the rows without x+ are
    # orthonormal, and the top rows are orthogonal to them.
    assert ker.rank_V_f == 3
    assert np.array_equal(ker.V_f, np.eye(5, 3))
    top, bottom = Psi[:3], Psi[3:]
    assert_allclose(bottom @ bottom.T, np.eye(2), atol=1e-12)
    assert np.max(np.abs(top @ bottom.T)) < 1e-12 * np.linalg.norm(top, 2)
    assert np.max(rowspace_angles(Psi, ref_kernel)) < 1e-8


def test_kernel_reproduces_bundled_annihilator_row_space(ref_kernel):
    # feed the orthogonal complement of the bundled annihilator back in
    G = left_null_basis(ref_kernel.T).T
    ker = kernel_representation(G, DIMS)
    assert ker.k == 5
    assert np.max(rowspace_angles(ker.matrix(), ref_kernel)) < 1e-8


def test_kernel_rejects_wrong_row_count():
    with pytest.raises(ValueError, match="rows"):
        kernel_representation(np.eye(10), DIMS)


def test_kernel_rep_matrix_round_trip(ref_kernel):
    # A bare basis gets its rank(V_f) from an SVD of V_f, and with rank n
    # its rows change to synthesis coordinates: the same row space.
    ker = KernelRep.from_matrix(ref_kernel, DIMS)
    assert np.max(rowspace_angles(ker.matrix(), ref_kernel)) < 1e-8
    assert (ker.k, ker.n, ker.m, ker.p) == (5, 3, 1, 2)
    assert ker.V_f.shape == (5, 3)
    assert ker.W_f.shape == (5, 1)
    assert ker.R_f.shape == (5, 2)
    assert ker.rank_V_f == 3
    # Below rank n the rows stay as they are.
    Psi = ref_kernel.copy()
    Psi[:, 3] = 0.0  # first column of V_f
    deficient = KernelRep.from_matrix(Psi, DIMS)
    assert deficient.rank_V_f == 2
    assert np.array_equal(deficient.matrix(), Psi)


def test_kernel_rep_refuses_rank_n_outside_synthesis_coordinates(ref_kernel):
    # `synthesize` reads A_bar and C_bar off the rows, so a kernel that says
    # rank n must carry V_f = [I; 0] exactly; 1e-17 off its zeros is refused.
    ker = KernelRep.from_matrix(ref_kernel, DIMS)
    with pytest.raises(ValueError, match=r"rank_V_f = n needs V_f = \[I; 0\]"):
        replace(ker, V_f=ker.V_f + 1e-17)


def test_kernel_records_scale_aware_future_rank(ref_model, no_uio_model):
    # rank(V_f) restricted to the kernel of G equals
    # rank([G, |G| * S]) - rank(G) with S selecting the successor-state
    # coordinates; deciding it that way keeps the verdict tied to the
    # generating matrix instead of to a basis whose small singular values
    # are pure round-off
    ker = kernel_representation(consistency_matrix(ref_model), DIMS)
    assert ker.rank_V_f == 3
    ker_no = kernel_representation(consistency_matrix(no_uio_model), DIMS)
    assert ker_no.rank_V_f == 2


# (n, m, p, r, hidden mode, seed) for the `rotated_hidden_mode` recipe: even
# seeds have F = 0, a mode at 1.3 leaves no observer, r = 0 has no
# disturbance and p = 1 < r = 2 has too few outputs.
_LADDER = [
    (n, max(1, n // 5), p, r, mode, seed)
    for n in (2, 5, 20, 60, 100)
    for seed in (0, 1)
    for p, r, mode in ((max(2, n // 3), max(1, n // 10), 1.3),
                       (max(2, n // 3), max(1, n // 10), 0.5),
                       (max(2, n // 3), 0, 0.5),
                       (1, 2, 0.5))
]
_DEMO_MODELS = ("reference_model", "counterexample_model", "convergence_model")


@pytest.mark.parametrize(
    "case", _LADDER + list(_DEMO_MODELS),
    ids=[f"n{n}-m{m}-p{p}-r{r}-mode{mode}-s{seed}"
         for n, m, p, r, mode, seed in _LADDER] + list(_DEMO_MODELS),
)
def test_model_kernel_matches_the_gamma_oracle(case, rotated_hidden_mode):
    model = (getattr(demo, case)() if isinstance(case, str)
             else rotated_hidden_mode(*case))
    eps = np.finfo(float).eps
    Gamma = consistency_matrix(model)
    oracle = kernel_representation(Gamma, (model.n, model.m, model.p))
    ker = model_kernel(model)
    Psi = ker.matrix()
    c = max(Psi.shape)
    assert ker.k == oracle.k
    assert ker.rank_V_f == rank(ker.V_f) == oracle.rank_V_f
    # Synthesis coordinates: the top rank(V_f) rows carry V_f = Z_v, with
    # orthonormal rows (the identity when rank(V_f) = n); the bottom rows
    # have V_f = 0, are orthonormal, and the top rows are orthogonal to them.
    top, bottom = Psi[:ker.rank_V_f], Psi[ker.rank_V_f:]
    Z_v = ker.V_f[:ker.rank_V_f]
    assert not ker.V_f[ker.rank_V_f:].any()
    if ker.rank_V_f == ker.n:
        assert (Z_v == np.eye(ker.n)).all()
    else:
        assert np.abs(Z_v @ Z_v.T - np.eye(len(Z_v))).max() <= c * eps
    assert np.abs(bottom @ bottom.T - np.eye(len(bottom))).max(
        initial=0.0) <= c * eps
    assert np.abs(top @ bottom.T).max(initial=0.0) <= (
        c * eps * np.linalg.norm(top, 2))
    g = np.linalg.svd(Gamma, compute_uv=False)
    assert np.linalg.norm(Psi @ Gamma, 2) <= (
        c * eps * g[0] * np.linalg.norm(Psi, 2))
    # Either basis is accurate to eps over the gap of Gamma's spectrum.
    gap = g[rank(Gamma) - 1]
    assert rowspace_angles(Psi, oracle.matrix()).max(initial=0.0) <= (
        c * eps * g[0] / gap)

    outcomes = []
    for basis in (oracle, ker):
        try:
            outcomes.append(synthesize(basis))
        except NoUio as exc:
            outcomes.append(exc.cause)
    if any(isinstance(o, str) for o in outcomes):
        assert outcomes[0] == outcomes[1]
        return
    (uio_o, diag_o), (uio_k, diag_k) = outcomes
    assert verify_uio(model, uio_o).is_uio and verify_uio(model, uio_k).is_uio
    # The oracle's rows, changed to synthesis coordinates, are the kernel's
    # up to an orthogonal T on the rows with V_f = 0, which cancels from
    # A_bar and from C_bar' C_bar; those differ only by the left inverse's
    # rounding.  Both kernels now store V_f = [I; 0], so cond(oracle.V_f)
    # is 1 and the bound is eps-relative; the orthonormal basis the oracle
    # was changed from had cond(V_f) up to 14 on this ladder.  The
    # Riccati stage amplifies that by the conditioning of the closed loop;
    # on this ladder the condition number of A_uio's eigenvector matrix
    # bounds the amplification about tenfold.
    norm = lambda M: np.linalg.norm(M, 2)
    rel = 4 * max(ker.k, ker.n) * eps * np.linalg.cond(oracle.V_f)
    assert norm(diag_o.A_bar - diag_k.A_bar) <= rel * norm(diag_o.A_bar)
    gram_o, gram_k = (d.C_bar.T @ d.C_bar for d in (diag_o, diag_k))
    assert norm(gram_o - gram_k) <= rel * max(norm(gram_o), 1.0)
    loop_cond = np.linalg.cond(np.linalg.eig(uio_k.A_uio)[1])
    assert norm(uio_o.A_uio - uio_k.A_uio) <= (
        rel * loop_cond * norm(uio_o.A_uio))



def test_model_kernel_orthonormalizes_only_the_rows_without_x_plus(
        monkeypatch):
    # An n = 60 plant of the benchmark's corpus recipe with an observer and
    # F != 0.  The kernel comes out with V_f = [I; 0], so no basis of all k
    # rows is formed: the widest QR is of the 2p - rank N rows with V_f = 0.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    model = workloads.corpus_model(60, 12, 20, 6, seed=1)
    n, p, r = model.n, model.p, model.r
    ker = model_kernel(model)
    assert (ker.V_f == np.vstack([np.eye(n), np.zeros((ker.k - n, n))])).all()
    N = np.block([[model.F, np.zeros((p, r))], [model.C @ model.E, model.F]])
    widths = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        widths.append(np.shape(a)[1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    design_from_model(model)
    assert max(widths) == 2 * p - rank(N) == 28

# ------------------------------------------------------------ synthesize


def test_synthesize_bundled_kernel_with_placement(ref_model, ref_kernel):
    ker = KernelRep.from_matrix(ref_kernel, DIMS)
    uio, diag = synthesize(ker, PLACE)
    err = eig_assignment_error(diag.spectrum.eigenvalues,
                               np.array([0.0, 0.0, 0.5], dtype=complex))
    assert err < 1e-6
    assert verify_uio(ref_model, uio).is_uio
    assert np.array_equal(ker.V_f, np.eye(ker.k, 3))
    assert diag.residuals["sign_identity"] < 1e-10


def test_synthesize_intermediates_match_printed_values(
        ref_kernel, ref_intermediates):
    # the published A_bar / C_bar were produced by the same left-inverse
    # convention; four-decimal rounding bounds the gap
    _, diag = synthesize(KernelRep.from_matrix(ref_kernel, DIMS), PLACE)
    assert np.max(np.abs(diag.A_bar - ref_intermediates["A_bar"])) < 1e-3
    assert np.max(np.abs(diag.C_bar - ref_intermediates["C_bar"])) < 1e-3


def test_synthesize_requires_full_rank_future_block(ref_kernel):
    Psi = ref_kernel.copy()
    Psi[:, 3] = 0.0  # first column of V_f
    with pytest.raises(NoUio) as exc_info:
        synthesize(KernelRep.from_matrix(Psi, DIMS), PLACE)
    assert exc_info.value.cause == VF_RANK_DEFICIENT
    assert exc_info.value.evidence["rank_V_f"] == 2


def test_kernel_rep_vf_rank_disagreement_is_a_numerical_failure(no_uio_model):
    # The extraction-time rank says n = 3, the SVD of V_f finds 2: the
    # contradiction is a typed refusal, not a bare ValueError.
    ker = kernel_representation(consistency_matrix(no_uio_model), DIMS)
    assert ker.rank_V_f == 2
    with pytest.raises(NumericalFailure, match="has rank 2 < 3"):
        KernelRep.from_matrix(ker.matrix(), DIMS, rank_V_f=3)


def test_synthesize_empty_kernel_is_refused():
    ker = kernel_representation(np.eye(12), DIMS)
    with pytest.raises(NoUio) as exc_info:
        synthesize(ker)
    assert exc_info.value.cause == VF_RANK_DEFICIENT


def test_synthesize_rejects_unstable_pole_request(ref_kernel):
    # The options refuse the request when they are built.
    for pole in (1.5, float("nan")):
        with pytest.raises(ValueError, match="pole"):
            options = SynthesisOptions(gain="place", poles=(0.0, 0.0, pole))
            synthesize(KernelRep.from_matrix(ref_kernel, DIMS), options)


def test_riccati_gain_refuses_a_pole_request(ref_kernel):
    # The options refuse the request when they are built.
    with pytest.raises(ValueError, match='"riccati" takes no poles'):
        options = SynthesisOptions(poles=(0.0, 0.0, 0.5))
        synthesize(KernelRep.from_matrix(ref_kernel, DIMS), options)


@pytest.mark.parametrize("kwargs, message", [
    ({"schur_margin": -1.0}, r"schur_margin must lie in \[0, 1\)"),
    ({"schur_margin": float("nan")}, r"schur_margin must lie in \[0, 1\)"),
    ({"schur_margin": 1.0}, r"schur_margin must lie in \[0, 1\)"),
    ({"gain": "bogus"}, "unknown gain method 'bogus'"),
    ({"poles": (0.0, 0.0, 0.5)}, 'gain "riccati" takes no poles'),
    ({"gain": "place"}, 'gain "place" needs a pole multiset'),
    ({"gain": "place", "poles": (0.0, 0.0, 1.5)}, "modulus below"),
    ({"gain": "place", "poles": (0.0, 0.0, 0.6), "schur_margin": 0.5},
     "modulus below 1 - schur_margin = 0.5"),
], ids=["margin-1", "margin-nan", "margin1", "bogus-gain", "riccati-poles",
        "place-no-poles", "pole1.5", "pole-past-margin"])
def test_synthesis_options_refuse_an_invalid_request(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SynthesisOptions(**kwargs)


def test_riccati_synthesis_runs_one_detectability_test(
        ref_kernel, rotated_hidden_mode, monkeypatch):
    # The verified Schur loop certifies detectability (its P rules out a
    # mode below the zero cut), so a design runs no staircase; a refusal
    # runs exactly one, to name the hidden mode.
    calls = []
    original = numkit.undetectable_modes

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(numkit, "undetectable_modes", counting)
    synthesize(KernelRep.from_matrix(ref_kernel, DIMS))
    assert len(calls) == 0
    with pytest.raises(NoUio):
        design_from_model(rotated_hidden_mode(4, 1, 2, 1, 1.3, 1))
    assert len(calls) == 1


@pytest.mark.parametrize("options, reductions",
                         [(SynthesisOptions(), 0), (PLACE, 1)],
                         ids=["riccati", "place"])
def test_each_design_runs_one_zero_reduction(ref_model, options, reductions,
                                             monkeypatch):
    # Placement decides observability of (A_bar, C_bar), and from its modes
    # detectability, by one `invariant_zeros` reduction.  The Riccati gain
    # needs none: its verified Schur loop and its P prove the pair
    # detectable.
    calls = []
    original = numkit.invariant_zeros

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(numkit, "invariant_zeros", counting)
    design_from_model(ref_model, options)
    assert len(calls) == reductions


@pytest.mark.parametrize(
    "options",
    [SynthesisOptions(), SynthesisOptions(gain="place", poles=(0.1, 0.2))],
    ids=["riccati", "place"],
)
def test_undetectable_pair_is_refused_on_both_gain_paths(options):
    # The mode at 2 never reaches the output and no disturbance hides it.
    model = StateSpaceModel(
        A=np.diag([0.5, 2.0]), B=np.ones((2, 1)),
        C=np.array([[1.0, 0.0]]), D=np.zeros((1, 1)),
        E=np.zeros((2, 0)), F=np.zeros((1, 0)),
    )
    with pytest.raises(NoUio) as exc_info:
        design_from_model(model, options)
    assert exc_info.value.cause == NOT_DETECTABLE
    evidence = exc_info.value.evidence
    assert set(evidence) == {"undetectable_modes", "A_bar_eigenvalues"}
    assert len(evidence["undetectable_modes"]) == 1
    assert abs(abs(evidence["undetectable_modes"][0]) - 2.0) < 1e-9


@pytest.mark.parametrize(
    "options",
    [SynthesisOptions(), SynthesisOptions(gain="place", poles=(0, 0, 0, 0.5))],
    ids=["riccati", "place"],
)
def test_undetectable_modes_are_reported_as_the_plants_modes(
        options, rotated_hidden_mode):
    # The plant hides its mode 1.3; A_bar carries it as -1.3, the sign of
    # A_uio = -(A_bar + L C_bar).  The refusal names the plant's mode, as
    # condition (a) does, and keeps A_bar's eigenvalues as they are.
    with pytest.raises(NoUio) as exc_info:
        design_from_model(rotated_hidden_mode(4, 1, 2, 1, 1.3, 1), options)
    evidence = exc_info.value.evidence
    (mode,) = evidence["undetectable_modes"]
    assert abs(mode - 1.3) < 1e-9
    assert min(abs(np.array(evidence["A_bar_eigenvalues"]) + 1.3)) < 1e-9
    assert exc_info.value.detail == "undetectable unstable modes of the plant: 1.3+0j"


@pytest.mark.parametrize("options", [SynthesisOptions(), PLACE],
                         ids=["riccati", "place"])
def test_model_route_takes_the_closed_loop_spectrum_once(
    ref_model, options, monkeypatch
):
    # The gain stage verifies the spectrum of A_bar + L C_bar and hands the
    # loop back; A_uio is that very array negated, so the model route's
    # certificate needs no second eigenvalue solve.
    seen = []

    def recording(solver):
        def solve(M, *args, **kwargs):
            seen.append(np.array(M))
            return solver(M, *args, **kwargs)
        return solve

    monkeypatch.setattr(np.linalg, "eigvals", recording(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eig", recording(np.linalg.eig))
    uio, diag = design_from_model(ref_model, options)
    monkeypatch.undo()
    loops = [M for M in seen if M.shape == uio.A_uio.shape
             and min(np.abs(M - uio.A_uio).max(),
                     np.abs(M + uio.A_uio).max()) < 1e-12]
    assert len(loops) == 1
    assert np.array_equal(uio.A_uio, -loops[0])
    assert np.array_equal(diag.spectrum.eigenvalues,
                          np.sort_complex(-np.linalg.eigvals(loops[0])))
    assert diag.spectrum.is_schur


def _corpus_plant(n, seed, rotated_hidden_mode):
    """Random plant with (m, p, r) ~ (n/5, n/3, n/10); every third seed
    hides an unstable mode at 1.3 from C, so no observer exists."""
    m, p, r = max(1, round(n / 5)), max(1, round(n / 3)), max(1, round(n / 10))
    if seed % 3 == 0:
        return rotated_hidden_mode(n, m, p, r, 1.3, seed)
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((p, r)) if seed % 2 else np.zeros((p, r))
    return StateSpaceModel(
        A=(0.2, 0.35, 0.5)[seed % 3] * rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)), C=rng.standard_normal((p, n)),
        D=rng.standard_normal((p, m)), E=rng.standard_normal((n, r)), F=F,
    )


@pytest.mark.parametrize("n", [8, 20, 60])
@pytest.mark.parametrize("seed", range(6))
def test_model_route_designs_verify_and_report_their_own_spectrum(
        n, seed, rotated_hidden_mode):
    model = _corpus_plant(n, seed, rotated_hidden_mode)
    gains = [SynthesisOptions(), SynthesisOptions(
        gain="place", poles=tuple(np.linspace(-0.6, 0.6, n)))]
    for options in gains:
        if seed % 3 == 0:
            with pytest.raises(NoUio):
                design_from_model(model, options)
            continue
        uio, diag = design_from_model(model, options)
        check = verify_uio(model, uio)
        assert check.is_uio, check.failures
        assert check.spectrum.spectral_radius == pytest.approx(
            diag.spectrum.spectral_radius, rel=1e-12)


@pytest.mark.parametrize("n", [20, 40])
def test_placement_designs_every_corpus_plant_that_has_an_observer(
        n, rotated_hidden_mode):
    options = SynthesisOptions(gain="place",
                               poles=tuple(np.linspace(-0.6, 0.6, n)))
    for seed in range(12):
        model = _corpus_plant(n, seed, rotated_hidden_mode)
        if seed % 3 == 0:
            with pytest.raises(NoUio):
                design_from_model(model, options)
            continue
        uio, diag = design_from_model(model, options)
        assert verify_uio(model, uio).is_uio
        assert eig_assignment_error(
            diag.spectrum.eigenvalues, np.asarray(options.poles, complex)
        ) < 1e-6


@pytest.mark.parametrize("options", [SynthesisOptions(), PLACE],
                         ids=["riccati", "place"])
def test_model_route_factors_no_v_f_and_no_gamma_sized_matrix(
    ref_model, options, monkeypatch
):
    # The kernel comes from the (n + 2p) x 2r disturbance block, already in
    # synthesis coordinates, so `synthesize` takes no SVD of the k x n V_f.
    svd = np.linalg.svd
    seen = []

    def recording(M, *args, **kwargs):
        seen.append(np.shape(M))
        return svd(M, *args, **kwargs)

    k_by_n = model_kernel(ref_model).V_f.shape
    monkeypatch.setattr(np.linalg, "svd", recording)
    design_from_model(ref_model, options)
    monkeypatch.undo()
    rows = 2 * (ref_model.n + ref_model.m + ref_model.p)
    assert seen and not [s for s in seen if s[0] == rows or s == k_by_n]


def _svd_formula_observer(ker, options):
    """The observer by the SVD-of-V_f formula, for any kernel basis whose
    V_f has rank n: V_f = U S V', Omega_bar = V S^-1 U_1', Delta_f = U_2',
    A_bar = Omega_bar V_p, C_bar = Delta_f V_p, and Omega = Omega_bar +
    L Delta_f in the observer blocks."""
    n = ker.n
    U, s, Vt = np.linalg.svd(ker.V_f)
    Omega_bar, Delta_f = (Vt.T / s) @ U[:, :n].T, U[:, n:].T
    A_bar, C_bar = Omega_bar @ ker.V_p, Delta_f @ ker.V_p
    if options.gain == "riccati":
        L, loop, _ = numkit.stabilizing_gain(A_bar, C_bar,
                                             margin=options.schur_margin)
    else:
        L, loop, _ = numkit.place_poles(
            A_bar, C_bar, -np.asarray(options.poles, dtype=complex))
    Omega = Omega_bar + L @ Delta_f
    A_uio = -loop
    D_u, D_y = -(Omega @ ker.W_f), -(Omega @ ker.R_f)
    return UioRealization(A_uio, A_uio @ D_u - Omega @ ker.W_p,
                          A_uio @ D_y - Omega @ ker.R_p, D_u, D_y)


@pytest.mark.parametrize("gain", ["riccati", "place"])
def test_model_route_observers_equal_the_svd_formula(gain, rotated_hidden_mode):
    # On the model route V_f = [I; 0], whose SVD is U = I, S = I, V = I, so
    # the SVD formula selects rows exactly and both give the same bits.
    # Every ladder plant hides a mode, which placement cannot move, so the
    # place gain is checked on the corpus plants too.
    designed = 0
    models = [rotated_hidden_mode(*case) for case in _LADDER] + [
        _corpus_plant(n, seed, rotated_hidden_mode)
        for n in (8, 20, 60) for seed in range(6)]
    for model in models:
        options = SynthesisOptions() if gain == "riccati" else SynthesisOptions(
            gain="place", poles=tuple(np.linspace(-0.6, 0.6, model.n)))
        try:
            uio, _ = design_from_model(model, options)
        except (NoUio, numkit.NotObservable):
            continue
        oracle = _svd_formula_observer(model_kernel(model), options)
        for name in ("A_uio", "B_u", "B_y", "D_u", "D_y"):
            assert np.array_equal(getattr(uio, name), getattr(oracle, name))
        designed += 1
    assert designed == {"riccati": 32, "place": 12}[gain]


def test_riccati_refusals_agree_with_the_staircase(rotated_hidden_mode,
                                                   monkeypatch):
    # The gain stage skips the staircase when its loop is Schur and P rules
    # out a mode below the zero cut; a pair where such a loop met a
    # non-empty staircase would have been refused before.  So on every
    # kernel with rank(V_f) = n, the refusal is NotDetectable exactly when
    # the staircase finds modes, and names the same ones.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    models = [rotated_hidden_mode(*case) for case in _LADDER] + [
        workloads.corpus_model(n, *workloads.corpus_dims(n), seed=seed)
        for n in (8, 20) for seed in range(40)]
    outcomes = {"designed": 0, "refused": 0}
    for model in models:
        ker = model_kernel(model)
        if ker.rank_V_f < ker.n:
            continue
        A_bar, C_bar = ker.V_p[:ker.n], ker.V_p[ker.n:]
        modes = numkit.undetectable_modes(A_bar, C_bar)
        try:
            numkit.stabilizing_gain(A_bar, C_bar)
        except numkit.NotDetectable as exc:
            assert exc.modes == modes
            outcomes["refused"] += 1
        else:
            assert modes == []
            outcomes["designed"] += 1
    assert outcomes == {"designed": 72, "refused": 38}


# ------------------------------------------------------- design routes


def test_design_from_model_bundled(ref_model):
    uio, diag = design_from_model(ref_model, PLACE)
    verdict = verify_uio(ref_model, uio)
    assert verdict.is_uio
    assert verdict.acceptor.max_residual < 1e-8
    err = eig_assignment_error(diag.spectrum.eigenvalues,
                               np.array([0.0, 0.0, 0.5], dtype=complex))
    assert err < 1e-6


def test_design_from_model_classical_observer_regime():
    model = StateSpaceModel(
        A=np.array([[0.0, 1.0], [-0.3, 0.4]]), B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]), D=np.array([[0.0]]),
        E=np.zeros((2, 0)), F=np.zeros((1, 0)),
    )
    uio, _ = design_from_model(model)
    assert verify_uio(model, uio).is_uio


def test_design_from_model_blind_unstable_plant():
    model = StateSpaceModel(
        A=np.diag([2.0, 3.0]), B=np.array([[1.0], [1.0]]),
        C=np.zeros((1, 2)), D=np.zeros((1, 1)),
        E=np.array([[1.0], [0.0]]), F=np.array([[1.0]]),
    )
    with pytest.raises(NoUio):
        design_from_model(model)


def test_design_from_data_bundled(ref_model):
    data = collect(ref_model, 11, input_policy=Uniform(-4, 4),
                   disturbance_policy=Uniform(-3, 3), x0=Uniform(-1, 1),
                   seed=0)
    blocks = build_blocks(data)
    uio, _ = design_from_data(blocks, options=PLACE)
    assert verify_uio(ref_model, uio).is_uio


def test_both_routes_agree_with_deterministic_gain(ref_model):
    data = collect(ref_model, 11, input_policy=Uniform(-4, 4),
                   disturbance_policy=Uniform(-3, 3), x0=Uniform(-1, 1),
                   seed=3)
    _, from_data = design_from_data(build_blocks(data))
    _, from_model = design_from_model(ref_model)
    diff = eig_assignment_error(from_data.spectrum.eigenvalues,
                                from_model.spectrum.eigenvalues)
    assert diff < 1e-6


def test_design_from_zero_data_never_emits_a_bad_observer(ref_model):
    blocks = build_blocks(collect(ref_model, 11))  # all-zero signals
    with pytest.raises(NumericalFailure,
                       match="data route refused: excitation assumption FAILS"):
        design_from_data(blocks)


@pytest.mark.parametrize("seed", range(6))
def test_design_from_data_counterexample_is_refused(no_uio_model, seed):
    # The counterexample plant is unstable, so its records are badly
    # scaled and a computed kernel basis carries O(eps * cond) leakage in
    # the V_f block.  The rank decision has to stay correct at the data's
    # own scale for every draw, not just the tame ones.
    data = collect(no_uio_model, 11, input_policy=Uniform(-4, 4),
                   disturbance_policy=Uniform(-3, 3), x0=Uniform(-1, 1),
                   seed=seed)
    blocks = build_blocks(data)
    assert blocks.Phi.shape == (12, 10)
    with pytest.raises(NoUio) as exc_info:
        design_from_data(blocks)
    assert exc_info.value.cause == VF_RANK_DEFICIENT


def test_spectra_invariant_under_subspace_rescaling(ref_model):
    # any basis of the same column space must lead to the same outcome when
    # the kernel basis is recomputed and the gain is deterministic
    Gamma = consistency_matrix(ref_model)
    rng = np.random.default_rng(11)
    M = rng.normal(size=(7, 7)) + 7 * np.eye(7)
    ker_a = kernel_representation(Gamma, DIMS)
    ker_b = kernel_representation(Gamma @ M, DIMS)
    assert np.max(rowspace_angles(ker_a.matrix(), ker_b.matrix())) < 1e-9
    _, diag_a = synthesize(ker_a)
    _, diag_b = synthesize(ker_b)
    diff = eig_assignment_error(diag_a.spectrum.eigenvalues,
                                diag_b.spectrum.eigenvalues)
    assert diff < 1e-9


# ------------------------------------------------------------ verifiers


def test_printed_observer_is_an_acceptor(ref_model, ref_uio):
    report = verify_acceptor(ref_model, ref_uio, tol=1e-3)
    assert report.is_acceptor
    assert report.max_residual < 1e-3
    assert set(report.residuals) == {"acc1", "acc2", "acc3"}


def test_printed_observer_decouples_output_disturbance(ref_model, ref_uio):
    # D_y F = 0 is the disturbance-rejection identity; the printed values
    # satisfy it exactly (the four-decimal entries cancel in pairs)
    assert np.max(np.abs(ref_uio.D_y @ ref_model.F)) < 1e-12


def test_printed_feedthrough_identity(ref_model, ref_uio):
    assert_allclose(-ref_uio.D_y @ ref_model.D, ref_uio.D_u, atol=1e-12)


def test_perturbed_observer_fails_acc2(ref_model, ref_uio):
    A_bad = ref_uio.A_uio.copy()
    A_bad[0, 0] += 1.0
    bad = UioRealization(A_bad, ref_uio.B_u, ref_uio.B_y,
                         ref_uio.D_u, ref_uio.D_y)
    report = verify_acceptor(ref_model, bad, tol=1e-3)
    assert not report.is_acceptor
    assert report.residuals["acc2"] > 0.9


def test_verify_acceptor_rejects_dimension_mismatch(ref_uio):
    small = StateSpaceModel(
        A=np.zeros((2, 2)), B=np.zeros((2, 1)),
        C=np.zeros((1, 2)), D=np.zeros((1, 1)),
        E=np.zeros((2, 0)), F=np.zeros((1, 0)),
    )
    with pytest.raises(ValueError):
        verify_acceptor(small, ref_uio)


def test_verify_uio_accepts_printed_fixture(ref_model, ref_uio):
    verdict = verify_uio(ref_model, ref_uio, tol=1e-3)
    assert verdict.is_uio
    assert verdict.failures == ()


def test_verify_uio_flags_non_schur_acceptor():
    # identity dynamics observed directly: A_uio = I is an acceptor for the
    # disturbance-free identity plant but can never converge
    model = StateSpaceModel(
        A=np.eye(3), B=np.zeros((3, 0)),
        C=np.eye(3), D=np.zeros((3, 0)),
        E=np.zeros((3, 0)), F=np.zeros((3, 0)),
    )
    uio = UioRealization(
        A_uio=np.eye(3), B_u=np.zeros((3, 0)), B_y=np.zeros((3, 3)),
        D_u=np.zeros((3, 0)), D_y=np.zeros((3, 3)),
    )
    verdict = verify_uio(model, uio)
    assert verdict.acceptor.is_acceptor
    assert not verdict.is_uio
    assert any("Schur" in f for f in verdict.failures)


def test_verify_uio_names_failed_residuals(ref_model):
    rng = np.random.default_rng(0)
    junk = UioRealization(
        A_uio=rng.normal(size=(3, 3)) * 0.1, B_u=rng.normal(size=(3, 1)),
        B_y=rng.normal(size=(3, 2)), D_u=rng.normal(size=(3, 1)),
        D_y=rng.normal(size=(3, 2)),
    )
    verdict = verify_uio(ref_model, junk)
    assert not verdict.is_uio
    assert any("acc" in f for f in verdict.failures)


# ------------------------------------------------------------- file I/O


def test_uio_round_trip(tmp_path, ref_model):
    uio, diag = design_from_model(ref_model, PLACE)
    path = tmp_path / "observer.json"
    save_uio(path, uio, diag)
    loaded = load_uio(path)
    for key in ("A_uio", "B_u", "B_y", "D_u", "D_y"):
        assert_allclose(getattr(loaded, key), getattr(uio, key))


def test_uio_dict_echoes_diagnostics(ref_model):
    uio, diag = design_from_model(ref_model, PLACE)
    doc = uio_to_dict(uio, diag)
    assert doc["diagnostics"]["gain"] == "place"
    assert doc["diagnostics"]["schur"] is True
    assert doc["diagnostics"]["spectral_radius"] == pytest.approx(0.5, abs=1e-6)
    assert "sign_identity" in doc["diagnostics"]["residuals"]


def test_uio_from_dict_rejects_missing_and_malformed():
    with pytest.raises(UioFormatError, match="missing"):
        uio_from_dict({"A_uio": [[0.0]]})
    base = {
        "A_uio": [[0.0]], "B_u": [[0.0]], "B_y": [[0.0]],
        "D_u": [[0.0]], "D_y": [[0.0]],
    }
    bad = dict(base, A_uio=[[0.0, 1.0]])
    with pytest.raises(UioFormatError, match="square"):
        uio_from_dict(bad)
    bad = dict(base, B_u=[[0.0, 0.0]], D_u=[[0.0]])
    with pytest.raises(UioFormatError, match="width"):
        uio_from_dict(bad)
    with pytest.raises(UioFormatError):
        uio_from_dict([1, 2])


@pytest.mark.parametrize("key, value", [("A_uio", float("nan")),
                                        ("D_y", float("-inf"))])
def test_uio_from_dict_rejects_non_finite_entries(key, value):
    doc = {name: [[0.0]] for name in ("A_uio", "B_u", "B_y", "D_u", "D_y")}
    doc[key] = [[value]]
    with pytest.raises(UioFormatError, match=f'"{key}" has non-finite'):
        uio_from_dict(doc)


def test_load_uio_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(UioFormatError):
        load_uio(path)
