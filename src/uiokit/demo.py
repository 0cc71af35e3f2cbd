"""Bundled reference example and the end-to-end demonstration run.

This module carries one fully worked example as package data: a small
unstable plant with a scalar disturbance in both equations, the
integer-entry annihilator of its one-step behaviour, the intermediate
pair/gain of the synthesis pipeline, and the resulting observer rounded to
four decimals.  The demonstration (`run_demo`, wired to the ``demo-paper``
subcommand) replays the whole toolchain against these frozen values:

  * existence check (both rank conditions plus the constructive cross-check),
  * model-route kernel vs. the bundled annihilator (principal angles),
  * the bundled observer's acceptor residuals and eigenvalue moduli,
  * the observer the existence check designed, verified, plus a synthesis
    in the bundled kernel basis compared against the bundled intermediates,
  * the data route on freshly collected trajectories, compared to the model
    route (a refusal of the data is the check's FAIL detail),
  * a closed-loop simulation with error-recursion and decay checks.

Every check reports a pass/fail line; the run as a whole passes only if all
of them do.  The fixtures argument exists so tests can feed deliberately
corrupted references and observe the failure path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simlab
from .datalog import Uniform, build_blocks, collect
from .existcheck import exists_uio
from .numkit import (NumericalFailure, eig_assignment_error, rowspace_angles,
                     spectrum)
from .plant import StateSpaceModel, UioRealization
from .synth import (
    KernelRep,
    SynthesisOptions,
    design_from_data,
    design_from_model,
    kernel_representation,
    model_kernel,
    synthesize,
    verify_acceptor,
    verify_uio,
)

__all__ = [
    "reference_model",
    "reference_kernel_matrix",
    "reference_uio",
    "reference_intermediates",
    "REFERENCE_POLES",
    "counterexample_model",
    "convergence_model",
    "DemoFixtures",
    "DemoReport",
    "default_fixtures",
    "run_demo",
]

#: Requested observer poles for the bundled example.
REFERENCE_POLES = (0.0, 0.0, 0.5)


def reference_model() -> StateSpaceModel:
    """The bundled example plant (n=3, m=1, p=2, r=1; unstable)."""
    return StateSpaceModel(
        A=[[1.0, 1.0, -1.0], [2.0, 1.0, 1.0], [1.0, 0.0, -1.0]],
        B=[[-1.0], [1.0], [1.0]],
        C=[[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]],
        D=[[2.0], [1.0]],
        E=[[1.0], [0.0], [1.0]],
        F=[[1.0], [1.0]],
        name="bundled-example",
    )


def reference_kernel_matrix() -> np.ndarray:
    """Integer annihilator of the bundled plant's one-step behaviour (5 x 12).

    Columns follow the window order (x, x+, u, u+, y, y+); the product with
    the plant's consistency matrix is exactly zero.
    """
    return np.array([
        [4, 3, 2, -1, -2, 1, 0, 0, 0, 0, 0, 0],
        [2, 1, 1, 0, -1, 0, 1, 0, 0, 0, 0, 0],
        [6, 3, 2, -1, -3, 0, 0, 0, 1, 0, 0, 0],
        [4, 4, 0, -1, -2, 0, 0, 0, 0, 1, 0, 0],
        [4, 3, 2, -1, 0, 0, 0, 1, 0, 0, -1, 1],
    ], dtype=float)


def reference_uio() -> UioRealization:
    """The bundled observer, rounded to four decimals.

    Its A_uio has eigenvalues {0, 0, -0.5}: the moduli are the advertised
    {0, 0, 0.5}, the sign coming from A_uio = -(A_bar + L C_bar).
    """
    return UioRealization(
        A_uio=[[0.3721, -0.2326, -0.4651],
               [0.2791, -0.1744, -0.3488],
               [0.5581, -0.3488, -0.6977]],
        B_u=[[-2.9070], [-0.1802], [-0.3605]],
        B_y=[[1.0930, -0.1860], [0.3198, 0.1105], [0.6395, 0.2209]],
        D_u=[[0.0930], [-0.4302], [0.1395]],
        D_y=[[-0.0930, 0.0930], [0.4302, -0.4302], [-0.1395, 0.1395]],
    )


def reference_intermediates() -> dict:
    """Rounded pair (A_bar, C_bar) of the bundled synthesis run.

    The gain is not part of the reference: with several outputs many gains
    share one spectrum.
    """
    return {
        "A_bar": np.array([[-3.2941, -2.9412, -1.2353],
                           [-0.8235, -0.2353, -0.0588],
                           [-0.9412, -0.4118, 0.6471]]),
        "C_bar": np.array([[-0.9378, 0.8800, -1.4951],
                           [1.3943, 0.7607, 1.1882]]),
    }


def counterexample_model() -> StateSpaceModel:
    """A valid plant for which no unknown-input observer exists.

    Same A, B, C, D as the bundled example, but the disturbance enters the
    state equation along a kernel direction of C with no output feedthrough:
    rank [[CE, F], [F, 0]] = 0 < rank(F) + r = 1, so the feedthrough rank
    condition fails.
    """
    base = reference_model()
    return StateSpaceModel(
        A=base.A, B=base.B, C=base.C, D=base.D,
        E=[[1.0], [-1.0], [-2.0]], F=[[0.0], [0.0]],
        name="no-observer-counterexample",
    )


def convergence_model() -> StateSpaceModel:
    """A stable plant used for long-horizon error-decay experiments.

    The bundled example plant is strongly unstable (spectral radius ~2.4),
    so on 50-step horizons its state reaches ~1e18 and the error trace's
    floating-point noise floor (proportional to eps * ||x||) swamps the
    geometric decay being measured.  This plant is strong*-detectable with
    the same signal dimensions but spectral radius ~0.37, keeping 50-step
    traces clean down to ~1e-15.
    """
    return StateSpaceModel(
        A=[[0.2, 0.4, 0.0], [-0.3, 0.1, 0.2], [0.0, 0.25, -0.2]],
        B=[[1.0], [0.0], [0.5]],
        C=[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
        D=[[0.0], [0.5]],
        E=[[0.5], [1.0], [0.0]],
        F=[[1.0], [0.2]],
        name="stable-decay-example",
    )


@dataclass(frozen=True)
class DemoFixtures:
    """Frozen reference values the demonstration replays against."""

    model: StateSpaceModel
    kernel_matrix: np.ndarray
    uio: UioRealization
    poles: tuple


def default_fixtures() -> DemoFixtures:
    return DemoFixtures(
        model=reference_model(),
        kernel_matrix=reference_kernel_matrix(),
        uio=reference_uio(),
        poles=REFERENCE_POLES,
    )


@dataclass(frozen=True)
class DemoReport:
    """Outcome of one demonstration run."""

    checks: tuple
    trace: simlab.RunTrace
    notes: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def render(self) -> str:
        lines = [
            f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
            for name, ok, detail in self.checks
        ]
        lines += [f"       {note}" for note in self.notes]
        lines.append(
            f"demo {'passed' if self.passed else 'FAILED'} "
            f"({sum(ok for _, ok, _ in self.checks)}/{len(self.checks)} checks)"
        )
        return "\n".join(lines)


def run_demo(
    gain: str = "place",
    seed: int = 0,
    T: int = 12,
    fixtures: DemoFixtures | None = None,
) -> DemoReport:
    """Replay the full toolchain against the bundled reference values."""
    fx = fixtures or default_fixtures()
    model = fx.model
    checks: list[tuple[str, bool, str]] = []
    notes: list[str] = []
    options = SynthesisOptions(
        gain=gain,
        poles=fx.poles if gain == "place" else None,
    )

    # 1. Existence.
    report = exists_uio(model, options)
    checks.append((
        "existence",
        report.exists and report.agreement,
        f"conditions (a)={report.condition_a} (b)={report.condition_b}, "
        f"constructive agreement={report.agreement}",
    ))

    # 2. Model-route kernel vs. bundled annihilator.
    ker = model_kernel(model)
    angles = rowspace_angles(ker.matrix(), fx.kernel_matrix)
    worst_angle = float(angles.max()) if angles.size else 0.0
    checks.append((
        "kernel row space",
        ker.k == fx.kernel_matrix.shape[0] and worst_angle < 1e-8,
        f"k={ker.k}, max principal angle {worst_angle:.3e} rad",
    ))

    # 3. Bundled observer against the model.
    acc = verify_acceptor(model, fx.uio, tol=5e-3)
    moduli = spectrum(fx.uio.A_uio).moduli()
    want = np.sort(np.abs(np.asarray(fx.poles, dtype=float)))
    moduli_ok = (moduli.shape == want.shape
                 and np.max(np.abs(moduli - want)) < 5e-3)
    checks.append((
        "bundled observer",
        acc.is_acceptor and moduli_ok,
        f"max acceptor residual {acc.max_residual:.3e}, eigenvalue moduli "
        + np.array2string(moduli, precision=4),
    ))

    # 4. Fresh model-route synthesis: the observer the existence check
    # designed and certified.  Without one, designing again raises the
    # typed refusal the check recorded.
    uio = report.uio or design_from_model(model, options)[0]
    verdict = verify_uio(model, uio)
    fresh_ok = verdict.is_uio
    detail = (
        f"acceptor residual {verdict.acceptor.max_residual:.3e}, spectral "
        f"radius {verdict.spectrum.spectral_radius:.6g}"
    )
    if gain == "place":
        err = eig_assignment_error(
            verdict.spectrum.eigenvalues, np.asarray(fx.poles, dtype=complex)
        )
        fresh_ok = fresh_ok and err < 1e-6
        detail += f", pole placement error {err:.3e}"
    checks.append(("fresh synthesis", fresh_ok, detail))
    # The reference intermediates are tied to the bundled kernel basis, so
    # re-run the synthesis in that basis before comparing.  The gain itself
    # is not compared: with several outputs many gains share one spectrum.
    ref = reference_intermediates()
    _, bundled_diag = synthesize(
        KernelRep.from_matrix(fx.kernel_matrix, (model.n, model.m, model.p)),
        options,
    )
    notes.append(
        "bundled-basis intermediates vs rounded reference values: "
        f"|A_bar| diff {np.abs(bundled_diag.A_bar - ref['A_bar']).max():.2e}, "
        f"|C_bar| diff {np.abs(bundled_diag.C_bar - ref['C_bar']).max():.2e}"
    )

    # 5. Data route on fresh trajectories.
    data = collect(
        model, T=11,
        input_policy=Uniform(-4.0, 4.0),
        disturbance_policy=Uniform(-3.0, 3.0),
        x0=Uniform(-1.0, 1.0),
        seed=seed + 1,
    )
    blocks = build_blocks(data)
    try:
        uio_d, _ = design_from_data(blocks, options=options)
    except NumericalFailure as exc:  # refused, e.g. by the excitation check
        data_ok, detail = False, str(exc)
    else:
        spec_err = eig_assignment_error(
            np.linalg.eigvals(uio_d.A_uio), np.linalg.eigvals(uio.A_uio)
        )
        data_angles = rowspace_angles(
            kernel_representation(blocks.Phi, (model.n, model.m, model.p)).matrix(),
            ker.matrix(),
        )
        worst_data_angle = float(data_angles.max()) if data_angles.size else 0.0
        data_ok = (verify_uio(model, uio_d).is_uio
                   and spec_err < 1e-6 and worst_data_angle < 1e-8)
        detail = (
            f"route spectra differ by {spec_err:.3e}, kernel angle "
            f"{worst_data_angle:.3e} rad"
        )
    checks.append(("data route", data_ok, detail))

    # 6. Closed-loop simulation on the fresh observer.
    trace = simlab.run(
        model, uio, T=T,
        input_policy=Uniform(-4.0, 4.0),
        disturbance_policy=Uniform(-3.0, 3.0),
        x0=Uniform(-1.0, 1.0),
        z0=Uniform(-1.0, 1.0),
        seed=seed + 2,
    )
    rec_ok, rec_residual = simlab.check_error_recursion(trace, uio)
    stats = simlab.convergence_stats(trace)
    norms = np.linalg.norm(trace.e, axis=1)
    # Scale-aware decay bound: kappa absorbs the transient of A_uio powers.
    radius = max(verdict.spectrum.spectral_radius, 0.1)
    powers = [np.eye(model.n)]
    for _ in range(T - 1):
        powers.append(uio.A_uio @ powers[-1])
    kappa = max(np.linalg.norm(Pk, 2) / radius ** k
                for k, Pk in enumerate(powers))
    bound = 2.0 * kappa * radius ** (T - 1) * norms[0] + 1e-12
    sim_ok = rec_ok and norms[-1] <= bound
    detail = (
        f"recursion residual {rec_residual:.3e}, final error {norms[-1]:.3e} "
        f"within bound {bound:.3e}"
    )
    if gain == "place" and stats.decay_rate is not None:
        slope_ok = abs(stats.decay_rate - np.log(0.5)) < 1e-2
        sim_ok = sim_ok and slope_ok
        detail += f", fitted decay rate {stats.decay_rate:.6f} (ln 0.5 expected)"
    checks.append(("simulation", sim_ok, detail))

    return DemoReport(checks=tuple(checks), trace=trace, notes=tuple(notes))
