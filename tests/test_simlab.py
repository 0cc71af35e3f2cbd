"""Plant/observer co-simulation and the error-dynamics checks."""

import csv
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uiokit.datalog import Uniform
from uiokit.plant import StateSpaceModel, UioRealization, step
from uiokit.simlab import (
    RunTrace,
    check_error_recursion,
    convergence_stats,
    exact_observer_init,
    render_trace,
    run,
    save_trace,
)
from uiokit.synth import SynthesisOptions, design_from_model


@pytest.fixture(scope="module")
def ref_observer(ref_model):
    uio, _ = design_from_model(
        ref_model, SynthesisOptions(gain="place", poles=(0.0, 0.0, 0.5))
    )
    return uio


def test_matched_initialization_gives_zero_error(ref_model, ref_observer):
    rng = np.random.default_rng(8)
    T = 8
    u = rng.uniform(-1.0, 1.0, size=(T, 1))
    d = rng.uniform(-1.0, 1.0, size=(T, 1))
    x0 = rng.uniform(-1.0, 1.0, size=3)
    z0 = exact_observer_init(ref_model, ref_observer, x0, u[0], d[0])
    trace = run(ref_model, ref_observer, T, input_policy=u,
                disturbance_policy=d, x0=x0, z0=z0)
    assert np.max(np.abs(trace.e)) < 1e-8


def test_error_contracts_at_the_placed_rate(ref_model, ref_observer):
    trace = run(ref_model, ref_observer, 12,
                input_policy=Uniform(-1, 1), disturbance_policy=Uniform(-1, 1),
                x0=Uniform(-1, 1), seed=4)
    norms = np.linalg.norm(trace.e, axis=1)
    # two deadbeat steps, then the 0.5 mode carries the error
    assert norms[11] <= 2.0 * 0.5 ** 9 * norms[2] + 1e-12


def test_error_trace_ignores_the_disturbance(ref_model, ref_observer):
    rng = np.random.default_rng(12)
    T = 10
    u = rng.uniform(-1.0, 1.0, size=(T, 1))
    x0 = rng.uniform(-1.0, 1.0, size=3)
    z0 = rng.uniform(-1.0, 1.0, size=3)
    d1 = rng.uniform(-1.0, 1.0, size=(T, 1))
    d2 = rng.uniform(-1.0, 1.0, size=(T, 1))
    t1 = run(ref_model, ref_observer, T, input_policy=u,
             disturbance_policy=d1, x0=x0, z0=z0)
    t2 = run(ref_model, ref_observer, T, input_policy=u,
             disturbance_policy=d2, x0=x0, z0=z0)
    assert not np.allclose(t1.x, t2.x)  # the plant does react
    assert np.max(np.abs(t1.e - t2.e)) < 1e-10


def test_recursion_check_accepts_designed_observer(ref_model, ref_observer):
    trace = run(ref_model, ref_observer, 10,
                input_policy=Uniform(-1, 1), disturbance_policy=Uniform(-1, 1),
                x0=Uniform(-1, 1), seed=2)
    ok, residual = check_error_recursion(trace, ref_observer)
    assert ok
    assert residual < 1e-10 * (1.0 + np.max(np.abs(trace.e)))


def test_recursion_check_rejects_non_acceptor(ref_model, ref_observer):
    B_bad = ref_observer.B_y.copy()
    B_bad[0, 0] += 0.5
    bad = UioRealization(ref_observer.A_uio, ref_observer.B_u, B_bad,
                         ref_observer.D_u, ref_observer.D_y)
    trace = run(ref_model, bad, 10,
                input_policy=Uniform(-1, 1), disturbance_policy=Uniform(-1, 1),
                x0=Uniform(-1, 1), seed=2)
    ok, residual = check_error_recursion(trace, bad)
    assert not ok
    assert residual > 1e-3


def test_recursion_check_is_vacuous_on_single_sample(ref_model, ref_observer):
    trace = run(ref_model, ref_observer, 1)
    ok, residual = check_error_recursion(trace, ref_observer)
    assert ok
    assert residual == 0.0


def _stats_trace(e):
    T, n = e.shape
    zeros = np.zeros((T, n))
    return RunTrace(x=e, u=np.zeros((T, 0)), d=np.zeros((T, 0)),
                    y=np.zeros((T, 0)), z=zeros, x_hat=zeros, e=e)


def test_convergence_stats_geometric_decay():
    t = np.arange(20)
    e = (0.5 ** t)[:, None] * np.array([1.0, -2.0, 0.5])
    stats = convergence_stats(_stats_trace(e))
    assert stats.decay_rate == pytest.approx(np.log(0.5), abs=1e-6)
    assert stats.final_error_norm == pytest.approx(np.linalg.norm(e[-1]))


def test_convergence_stats_zero_trace():
    stats = convergence_stats(_stats_trace(np.zeros((10, 3))))
    assert stats.final_error_norm == 0.0
    assert stats.decay_rate is None


def test_run_defaults(ref_model, ref_observer):
    trace = run(ref_model, ref_observer, 3)
    assert trace.T == 3
    assert_allclose(trace.z[0], np.zeros(3))  # z0 defaults to rest
    assert_allclose(trace.u, np.zeros((3, 1)))


def test_run_estimate_identity(ref_model, ref_observer):
    trace = run(ref_model, ref_observer, 6, input_policy=Uniform(-1, 1),
                disturbance_policy=Uniform(-1, 1), x0=Uniform(-1, 1), seed=9)
    xh = trace.z + trace.u @ ref_observer.D_u.T + trace.y @ ref_observer.D_y.T
    assert_allclose(trace.x_hat, xh, atol=1e-13)
    assert_allclose(trace.e, trace.x - trace.x_hat, atol=1e-13)


def test_run_rejects_bad_arguments(ref_model, ref_observer):
    with pytest.raises(ValueError):
        run(ref_model, ref_observer, 0)
    other = UioRealization(np.zeros((2, 2)), np.zeros((2, 1)),
                           np.zeros((2, 2)), np.zeros((2, 1)),
                           np.zeros((2, 2)))
    with pytest.raises(ValueError, match="dims"):
        run(ref_model, other, 3)


def test_run_refuses_an_observer_that_leaves_the_float64_range(
        ref_model, ref_observer):
    # Every entry stays finite; z(t) leaves the float64 range at t = 3.
    huge = UioRealization(ref_observer.A_uio * 1e308, ref_observer.B_u,
                          ref_observer.B_y, ref_observer.D_u,
                          ref_observer.D_y)
    with pytest.raises(ValueError,
                       match="simulating the observer overflowed at sample 3"):
        run(ref_model, huge, 5, input_policy=Uniform(-1.0, 1.0),
            disturbance_policy=Uniform(-1.0, 1.0), x0=Uniform(-1.0, 1.0))


@pytest.mark.parametrize("signal, message", [
    ("input_policy", "input sequence: sample 3 (entry 0) is not finite (nan)"),
    ("disturbance_policy",
     "disturbance sequence: sample 3 (entry 0) is not finite (nan)"),
    ("x0", "x0: entry 1 is not finite (nan)"),
    ("z0", "z0: entry 1 is not finite (nan)"),
])
def test_run_refuses_a_non_finite_explicit_signal(ref_model, ref_observer,
                                                  signal, message):
    # Named as the caller's value, not as an overflow of plant or observer.
    value = np.zeros(3) if signal in ("x0", "z0") else np.zeros((5, 1))
    value[(1,) if value.ndim == 1 else (3, 0)] = np.nan
    with pytest.raises(ValueError) as err:
        run(ref_model, ref_observer, 5, **{signal: value})
    assert str(err.value) == message


def test_exact_observer_init_formula(ref_model, ref_observer):
    x0 = np.array([0.4, -1.0, 2.0])
    u0 = np.array([0.3])
    d0 = np.array([-0.7])
    y0 = ref_model.C @ x0 + ref_model.D @ u0 + ref_model.F @ d0
    z0 = exact_observer_init(ref_model, ref_observer, x0, u0, d0)
    assert_allclose(
        z0, x0 - ref_observer.D_u @ u0 - ref_observer.D_y @ y0, atol=1e-14
    )


def test_exact_observer_init_rejects_dimension_mismatch(ref_model):
    # A 2-state observer for the 3-state plant used to end in numpy's
    # "operands could not be broadcast together".
    small = UioRealization(A_uio=np.zeros((2, 2)), B_u=np.zeros((2, 1)),
                           B_y=np.zeros((2, 2)), D_u=np.zeros((2, 1)),
                           D_y=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"observer dims \(n, m, p\) = "
                       r"\(2, 1, 2\) do not match model dims \(3, 1, 2\)"):
        exact_observer_init(ref_model, small, np.zeros(3), np.zeros(1),
                            np.zeros(1))


def test_trace_file_layout(tmp_path, ref_model, ref_observer):
    trace = run(ref_model, ref_observer, 5, input_policy=Uniform(-1, 1),
                disturbance_policy=Uniform(-1, 1), x0=Uniform(-1, 1), seed=1)
    path = tmp_path / "trace.csv"
    save_trace(path, trace)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("t,x_1,x_2,x_3,u_1,y_1,y_2,d_1,"
                        "z_1,z_2,z_3,xhat_1,xhat_2,xhat_3,e_1,e_2,e_3")
    assert len(lines) == 6
    # values are shortest round-trip decimals
    cell = lines[1].split(",")[1]
    assert float(cell) == trace.x[0, 0]
    assert render_trace(trace) == render_trace(trace)


def test_trace_render_equals_csv_writer_text():
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal((4, k)) * 10.0 ** rng.integers(-30, 30, (4, k))
              for k in (2, 1, 1, 1, 2, 2, 2)]
    blocks[0][1, 0] = -0.0
    trace = RunTrace(**dict(zip(("x", "u", "y", "d", "z", "x_hat", "e"),
                                blocks)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x_1", "x_2", "u_1", "y_1", "d_1", "z_1", "z_2",
                     "xhat_1", "xhat_2", "e_1", "e_2"])
    for t in range(4):
        writer.writerow([str(t)] + [repr(float(v)) for b in blocks for v in b[t]])
    assert render_trace(trace) == buf.getvalue()


def test_run_matches_step_recursion_on_unstable_n40(rotated_hidden_mode):
    # Plant with a hidden mode at 1.3 and an arbitrary (not acceptor)
    # observer; each signal is compared on the scale of the terms that
    # form it.
    model = rotated_hidden_mode(40, 8, 13, 4, 1.3, seed=3)
    rng = np.random.default_rng(3)
    uio = UioRealization(
        A_uio=0.1 * rng.standard_normal((40, 40)),
        B_u=rng.standard_normal((40, 8)), B_y=rng.standard_normal((40, 13)),
        D_u=rng.standard_normal((40, 8)), D_y=rng.standard_normal((40, 13)),
    )
    T = 60
    trace = run(model, uio, T, input_policy=Uniform(-4.0, 4.0),
                disturbance_policy=Uniform(-3.0, 3.0), x0=Uniform(-1.0, 1.0),
                z0=Uniform(-1.0, 1.0), seed=3)

    def close(got, want, gain, *terms):
        scale = gain * max(np.abs(v).max() for v in terms)
        assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    y_gain = np.abs(np.hstack([model.C, model.D, model.F])).sum(1).max()
    z_gain = np.abs(np.hstack([uio.A_uio, uio.B_u, uio.B_y])).sum(1).max()
    xh_gain = 1.0 + np.abs(np.hstack([uio.D_u, uio.D_y])).sum(1).max()
    x, z = trace.x[0], trace.z[0]
    for t in range(T):
        u, d = trace.u[t], trace.d[t]
        x_next, y = step(model, x, u, d)
        x_hat = z + uio.D_u @ u + uio.D_y @ y
        close(trace.x[t], x, 1.0, x)
        close(trace.y[t], y, y_gain, x, u, d)
        close(trace.z[t], z, 1.0, z)
        close(trace.x_hat[t], x_hat, xh_gain, z, u, y)
        close(trace.e[t], x - x_hat, 1.0, x, x_hat)
        z = uio.A_uio @ z + uio.B_u @ u + uio.B_y @ y
        x = x_next
    assert np.abs(trace.x[-1]).max() > 1e4
