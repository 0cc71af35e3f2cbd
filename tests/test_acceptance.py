"""End-to-end acceptance checks against the bundled reference example.

Every test prints exactly one PASS/FAIL line (visible with ``pytest -rA``)
and then asserts, so a transcript of this module doubles as the project's
scorecard.  Numerical tolerances are stated inline next to each check; the
reference matrices are printed to four decimals, which caps how tightly
they can be reproduced.
"""

import numpy as np

from uiokit.datalog import Uniform, build_blocks, collect, excitation_report
from uiokit.existcheck import exists_uio
from uiokit.numkit import eig_assignment_error, rank, rowspace_angles
from uiokit.plant import StateSpaceModel, consistency_matrix
from uiokit.simlab import check_error_recursion, run
from uiokit.synth import (
    KernelRep,
    NoUio,
    SynthesisOptions,
    design_from_data,
    design_from_model,
    kernel_representation,
    synthesize,
    verify_acceptor,
    verify_uio,
)

PLACED_POLES = (0.0, 0.0, 0.5)


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_existence_on_reference_model(ref_model):
    report = exists_uio(ref_model)
    b = report.evidence["b"]
    ok = (report.exists
          and b["block_rank"] == 2
          and b["required"] == 2
          and b["rank_F"] + ref_model.r == 2)
    _criterion(
        1, ok,
        "exists_uio = "
        f"{str(report.exists).lower()}; rank [[CE, F], [F, 0]] = "
        f"{b['block_rank']}, rank(F) + r = {b['required']} (exact ranks)",
    )


def test_criterion_2_printed_observer_verifies(ref_model, ref_uio):
    acc = verify_acceptor(ref_model, ref_uio, tol=5e-3)
    eigs = np.linalg.eigvals(ref_uio.A_uio)
    moduli_err = eig_assignment_error(np.abs(eigs), [0.0, 0.0, 0.5])
    signed_err = eig_assignment_error(eigs, [0.0, 0.0, -0.5])
    ok = acc.is_acceptor and moduli_err < 5e-3
    _criterion(
        2, ok,
        f"printed matrices: max acceptor residual {acc.max_residual:.2e} "
        f"< 5e-3; |eig(A*)| match {{0, 0, 0.5}} within {moduli_err:.2e} "
        f"(signed spectrum {{0, 0, -0.5}} within {signed_err:.2e})",
    )


def test_criterion_3_printed_kernel_annihilates_model(ref_model, ref_kernel):
    Gamma = consistency_matrix(ref_model)
    worst = float(np.abs(ref_kernel @ Gamma).max())
    bound = 1e-9 * (1.0 + np.linalg.norm(Gamma))
    ok = worst < bound
    _criterion(
        3, ok,
        f"max |Psi @ Gamma| = {worst:.3g} < {bound:.3g} "
        "(the printed annihilator kills the exact consistency subspace)",
    )


def test_criterion_4_model_route_reproduction(
        ref_model, ref_kernel, ref_intermediates):
    options = SynthesisOptions(gain="place", poles=PLACED_POLES)
    uio, diag = design_from_model(ref_model, options)
    verification = verify_uio(ref_model, uio, tol=1e-8)
    acc_worst = verification.acceptor.max_residual
    spec_err = eig_assignment_error(
        verification.spectrum.eigenvalues, PLACED_POLES
    )
    # diagnostic (reported, not asserted): the printed intermediates are
    # tied to the bundled kernel basis, so re-synthesize from that exact
    # basis before comparing A_bar / C_bar against the rounded values
    _, bundled = synthesize(
        KernelRep.from_matrix(ref_kernel, (ref_model.n, ref_model.m,
                                           ref_model.p)),
        options,
    )
    dA = float(np.abs(bundled.A_bar - ref_intermediates["A_bar"]).max())
    dC = float(np.abs(bundled.C_bar - ref_intermediates["C_bar"]).max())
    ok = verification.is_uio and acc_worst < 1e-8 and spec_err < 1e-6
    _criterion(
        4, ok,
        f"designed observer: acc residuals {acc_worst:.2e} < 1e-8, "
        f"spectrum {{0, 0, 0.5}} within {spec_err:.2e} < 1e-6; "
        f"note: bundled-basis A_bar/C_bar vs printed differ by "
        f"{dA:.2e}/{dC:.2e} (expected < 1e-3 from four-decimal rounding)",
    )


def test_criterion_5_data_route_matches_model_route(ref_model):
    data = collect(ref_model, 11, input_policy=Uniform(-4, 4),
                   disturbance_policy=Uniform(-3, 3), x0=Uniform(-1, 1),
                   seed=0)
    blocks = build_blocks(data, (3, 1, 2, 1))
    excited = excitation_report(blocks).ok
    options = SynthesisOptions()  # riccati: deterministic on both routes
    uio_d, diag_d = design_from_data(blocks, options)
    uio_m, diag_m = design_from_model(ref_model, options)
    spec_gap = eig_assignment_error(
        diag_d.spectrum.eigenvalues, diag_m.spectrum.eigenvalues
    )
    ker_d = kernel_representation(blocks.Phi, (3, 1, 2))
    ker_m = kernel_representation(consistency_matrix(ref_model), (3, 1, 2))
    angle = float(np.max(rowspace_angles(ker_d.matrix(), ker_m.matrix())))
    ok = (excited and verify_uio(ref_model, uio_d).is_uio
          and spec_gap < 1e-6 and angle < 1e-8)
    _criterion(
        5, ok,
        f"assumption holds = {str(excited).lower()}; data-route spectrum "
        f"matches model route within {spec_gap:.2e} < 1e-6; kernel row "
        f"spaces agree to principal angle {angle:.2e} < 1e-8",
    )


def _error_runs(model, uio, T=51):
    """Criterion 6's 100 seeded runs: per seed, two traces of the same
    plant, input and starts under two disturbance sequences."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-0.01, 0.01, size=3)
        z0 = rng.uniform(-1.0, 1.0, size=3)
        u = rng.uniform(-0.01, 0.01, size=(T, 1))
        d1 = rng.uniform(-0.01, 0.01, size=(T, 1))
        d2 = rng.uniform(-0.01, 0.01, size=(T, 1))
        yield tuple(run(model, uio, T, input_policy=u, disturbance_policy=d,
                        x0=x0, z0=z0) for d in (d1, d2))


def _decay_quotient(trace) -> tuple[float, int]:
    """(worst ||e(k)|| / (2 * 0.5^(k-2) * ||e(2)||), last k checked) over
    k = 2, 3, ... while ||e(k)|| stays above the rounding floor of the
    state: T ulps of its largest norm, the most that one rounding of x per
    step can leave in e.  Below that floor ||e(k)|| is rounding, whatever
    the observer's decay."""
    e = np.linalg.norm(trace.e[2:], axis=1)
    floor = len(trace.e) * np.finfo(float).eps * np.linalg.norm(
        trace.x, axis=1).max()
    checked = int(np.logical_and.accumulate(e > floor).sum())
    quotient = e[:checked] / (2.0 * 0.5 ** np.arange(checked) * e[0])
    return float(quotient.max(initial=0.0)), checked + 1


def test_criterion_6_error_dynamics_over_100_runs(stable_model):
    # The bundled example plant has spectral radius ~2.4: over 50 steps its
    # state reaches ~1e18, and eps-level rounding on the error trace then
    # dwarfs 0.5^48, so the decay bound is measured on this stable
    # strong*-detectable plant with matching signal dimensions instead.
    # The bound is checked at every step until ||e|| reaches the rounding
    # floor of x (`_decay_quotient`); the worst seed gets there near k = 43,
    # and every run must be checked for 25 steps or more.
    uio, _ = design_from_model(
        stable_model, SynthesisOptions(gain="place", poles=PLACED_POLES)
    )
    worst_residual = 0.0
    worst_swap = 0.0
    worst_ratio = 0.0
    horizon = 50
    for t1, t2 in _error_runs(stable_model, uio):
        ok_rec, residual = check_error_recursion(t1, uio)
        assert ok_rec
        worst_residual = max(worst_residual, residual)
        worst_swap = max(worst_swap, float(np.abs(t1.e - t2.e).max()))
        ratio, last = _decay_quotient(t1)
        worst_ratio = max(worst_ratio, ratio)
        horizon = min(horizon, last)
    ok = (worst_residual < 1e-10 and worst_swap < 1e-10
          and worst_ratio <= 1.0 and horizon >= 25)
    _criterion(
        6, ok,
        f"100 runs, T = 51: recursion residual <= {worst_residual:.2e} "
        f"< 1e-10; disturbance-swap trace difference <= {worst_swap:.2e} "
        f"< 1e-10; ||e(k)|| <= 2 * 0.5^(k-2) * ||e(2)|| above the rounding "
        f"floor of x, k = 2..{horizon} or further (>= 25), with worst "
        f"quotient {worst_ratio:.4f} <= 1",
    )


def test_criterion_6_decay_check_fails_for_a_pole_at_0_6(stable_model):
    # An error decaying as 0.6^k leaves the bound 2 * 0.5^(k-2) * ||e(2)||
    # within a few steps, long before it reaches the rounding floor.
    uio, _ = design_from_model(
        stable_model, SynthesisOptions(gain="place", poles=(0.0, 0.0, 0.6))
    )
    worst = max(_decay_quotient(t1)[0]
                for t1, _ in _error_runs(stable_model, uio))
    assert worst > 1.0


def test_criterion_7_counterexample_three_way_agreement(no_uio_model):
    report = exists_uio(no_uio_model)

    model_refuses = False
    try:
        design_from_model(no_uio_model)
    except NoUio:
        model_refuses = True

    data = collect(no_uio_model, 11, input_policy=Uniform(-4, 4),
                   disturbance_policy=Uniform(-3, 3), x0=Uniform(-1, 1),
                   seed=0)
    blocks = build_blocks(data)
    excited = excitation_report(blocks).ok
    data_refuses = False
    try:
        design_from_data(blocks)
    except NoUio:
        data_refuses = True

    ok = ((not report.exists) and model_refuses and excited and data_refuses)
    _criterion(
        7, ok,
        f"counterexample: exists_uio = {str(report.exists).lower()}, "
        f"model route refuses = {str(model_refuses).lower()}, data route "
        f"refuses on excited data = {str(data_refuses).lower()} "
        "(all three verdicts agree: no observer)",
    )


def _corpus_model(idx: int) -> StateSpaceModel:
    """Seeded small model for the agreement corpus.

    Three flavours in rotation: generic random draws (existence varies with
    the invariant zeros the draw happens to produce), plants with an
    unstable mode hidden from the output (condition (a) must fail), and
    plants whose disturbance is invisible at the output (condition (b) must
    fail).  Every model is valid: [E; F] has full column rank.
    """
    rng = np.random.default_rng(10_000 + idx)
    kind = idx % 5

    if kind == 3:
        # r = 0, A has an unstable eigenvalue whose eigenvector C ignores
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, 3))
        p = int(rng.integers(1, 4))
        A = np.zeros((n, n))
        A[0, 0] = 1.0 + rng.uniform(0.2, 1.0)
        A[1:, 1:] = 0.3 * rng.standard_normal((n - 1, n - 1))
        return StateSpaceModel(
            A=A,
            B=rng.standard_normal((n, m)),
            C=np.hstack([np.zeros((p, 1)), rng.standard_normal((p, n - 1))]),
            D=rng.standard_normal((p, m)),
            E=np.zeros((n, 0)),
            F=np.zeros((p, 0)),
        )

    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 3))
    p = int(rng.integers(1, 4))

    if kind == 4 and n > p:
        # disturbance along a kernel direction of C with no feedthrough
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((p, n))
        _, _, Vt = np.linalg.svd(C)
        E = Vt[-1:].T  # unit vector with C @ E = 0
        return StateSpaceModel(
            A=A,
            B=rng.standard_normal((n, m)),
            C=C,
            D=rng.standard_normal((p, m)),
            E=E,
            F=np.zeros((p, 1)),
        )

    r = int(rng.integers(0, min(p, 2) + 1))
    while True:
        E = rng.standard_normal((n, r))
        F = rng.standard_normal((p, r))
        if rank(np.vstack([E, F])) == r:
            return StateSpaceModel(
                A=rng.standard_normal((n, n)),
                B=rng.standard_normal((n, m)),
                C=rng.standard_normal((p, n)),
                D=rng.standard_normal((p, m)),
                E=E,
                F=F,
            )


def test_criterion_8_rank_and_constructive_verdicts_agree():
    total = 200
    positives = 0
    disagreements = []
    for idx in range(total):
        # Construction refuses an invalid model, so every one is valid.
        model = _corpus_model(idx)
        report = exists_uio(model)
        positives += report.exists
        if not report.agreement:
            disagreements.append(
                (idx, report.exists, report.constructive_detail)
            )
    ok = not disagreements
    _criterion(
        8, ok,
        f"{total} seeded models ({positives} exist / "
        f"{total - positives} do not): rank-condition and constructive "
        f"verdicts agree in {total - len(disagreements)}/{total} cases"
        + (f"; disagreements: {disagreements[:3]}" if disagreements else ""),
    )
