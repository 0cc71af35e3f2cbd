"""Validity is decided once, when a model, observer or trajectory is built.

The routes trust what exists: none of them re-checks a model's own content.
At the library level, models scaled to the edges of the float64 range may
only be refused with a typed cause (`NoUio`, `NumericalFailure`, or a
ValueError that is not numpy's `LinAlgError`); pytest turns a leaked
RuntimeWarning into an error.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uiokit import plant
from uiokit.datalog import (HistoricalData, Uniform, build_blocks, collect,
                            excitation_report)
from uiokit.existcheck import condition_b, exists_uio
from uiokit.numkit import NumericalFailure
from uiokit.simlab import run
from uiokit.synth import (NoUio, SynthesisOptions, design_from_data,
                          design_from_model, model_kernel)


@pytest.fixture
def validity_checks(monkeypatch):
    """Counts of the two things only a model's validity check does: build
    a model, and decide the rank of its [E; F]."""
    counts = {"models": 0, "ranks": 0}
    post_init = plant.StateSpaceModel.__post_init__
    rank = plant.balanced_rank

    def counting_post_init(self):
        counts["models"] += 1
        post_init(self)

    def counting_rank(*args, **kwargs):
        counts["ranks"] += 1
        return rank(*args, **kwargs)

    monkeypatch.setattr(plant.StateSpaceModel, "__post_init__",
                        counting_post_init)
    monkeypatch.setattr(plant, "balanced_rank", counting_rank)
    return counts


def test_routes_run_no_validity_check_of_their_own(ref_model, ref_uio,
                                                  validity_checks):
    exists_uio(ref_model)
    design_from_model(ref_model)
    collect(ref_model, 12, input_policy=Uniform(-1.0, 1.0),
            disturbance_policy=Uniform(-1.0, 1.0), x0=Uniform(-1.0, 1.0))
    run(ref_model, ref_uio, 12, input_policy=Uniform(-1.0, 1.0),
        disturbance_policy=Uniform(-1.0, 1.0), x0=Uniform(-1.0, 1.0))
    assert validity_checks == {"models": 0, "ranks": 0}


def test_a_model_is_checked_once_when_it_is_built(ref_model, validity_checks):
    plant.StateSpaceModel(ref_model.A, ref_model.B, ref_model.C, ref_model.D,
                          ref_model.E, ref_model.F)
    assert validity_checks == {"models": 1, "ranks": 1}


def test_nan_sample_is_refused_before_any_route_runs(ref_model):
    data = collect(ref_model, 12, input_policy=Uniform(-4.0, 4.0),
                   disturbance_policy=Uniform(-3.0, 3.0),
                   x0=Uniform(-1.0, 1.0))
    x = np.array(data.x)
    x[3, 1] = np.nan
    # Built by hand, this trajectory used to reach the kernel SVD and end
    # in numpy's "SVD did not converge".
    with pytest.raises(ValueError) as err:
        design_from_data(build_blocks(HistoricalData(x=x, u=data.u, y=data.y,
                                                     d=data.d)))
    assert not isinstance(err.value, np.linalg.LinAlgError)
    assert str(err.value) == "row 3, column 'x_2': non-finite sample nan"


def test_nan_observer_cannot_reach_verify_uio(ref_uio):
    # A NaN acc3 residual lost every comparison, so verify_uio called this
    # observer a UIO with no failures.
    B_u = np.array(ref_uio.B_u)
    B_u[0, 0] = np.nan
    with pytest.raises(ValueError, match='field "B_u" has non-finite'):
        replace(ref_uio, B_u=B_u)


# ------------------------------------------------------ scale sweep


SCALES = (1e100, 1e-100, 1e150, 1e-150)


def _typed(call, *args):
    """``call(*args)``, or None when it refuses with a typed cause."""
    try:
        return call(*args)
    except np.linalg.LinAlgError:
        raise
    except (NoUio, NumericalFailure, ValueError):
        return None


@pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"{s:.0e}")
@pytest.mark.parametrize("n, seed", [(4, 0), (4, 1), (8, 2), (8, 3),
                                     (20, 4), (20, 5)])
def test_scaled_models_end_in_typed_refusals(rotated_hidden_mode, n, seed,
                                            scale):
    # Odd seeds hide an unstable mode, so both verdicts occur.  Agreement
    # of the two routes is not asserted: it fails on scaled models.
    base = rotated_hidden_mode(n, 2, 3, 1, 1.3 if seed % 2 else 0.5, seed)
    model = _typed(plant.StateSpaceModel, *(getattr(base, key) * scale
                                            for key in "ABCDEF"))
    if model is None:
        return
    observers = []
    report = _typed(exists_uio, model)
    if report is not None and report.uio is not None:
        observers.append(report.uio)
    designed = _typed(design_from_model, model)
    if designed is not None:
        observers.append(designed[0])
    T = 3 * (model.n + 2 * model.m + 2 * model.r)
    data = _typed(lambda: collect(
        model, T, input_policy=Uniform(-4.0, 4.0),
        disturbance_policy=Uniform(-3.0, 3.0), x0=Uniform(-1.0, 1.0),
        seed=seed))
    if data is not None:
        blocks = build_blocks(data)
        excitation_report(blocks)
        designed = _typed(design_from_data, blocks)
        if designed is not None:
            observers.append(designed[0])
    for uio in observers:
        _typed(lambda: run(model, uio, 20, input_policy=Uniform(-1.0, 1.0),
                           disturbance_policy=Uniform(-1.0, 1.0),
                           x0=Uniform(-1.0, 1.0)))


# ------------------------------------------------- power-of-two scales


UNSCALED_RANK_CUTS = pytest.mark.xfail(
    strict=True, reason="the gain stage reads against the largest block: at "
    "2**332 the kernel is right (k = 5, and condition (b) holds), but the "
    "zero staircase reads modes near 1e100 as undetectable; at 2**-332 "
    "placement calls modes below 1e-49 unobservable")


@pytest.mark.parametrize("power, gain", [
    pytest.param(332, "riccati", marks=UNSCALED_RANK_CUTS),
    pytest.param(332, "place", marks=UNSCALED_RANK_CUTS),
    pytest.param(-332, "place", marks=UNSCALED_RANK_CUTS),
    (-332, "riccati"),
])
def test_reference_model_scaled_by_a_power_of_two_agrees(ref_model, power,
                                                        gain):
    # Scaling every matrix by 2**power is exact in binary: the plant is the
    # same system, it has an observer, and both verdicts must say so.
    options = SynthesisOptions(gain=gain, poles=(0.0, 0.0, 0.5)
                               if gain == "place" else None)
    model = plant.StateSpaceModel(*(getattr(ref_model, key) * 2.0 ** power
                                    for key in "ABCDEF"))
    report = exists_uio(model, options)
    assert report.exists and report.agreement


def _in_units(model, K: int, rng):
    """``model`` after x = T x', u = S_u u', y = S_y y', d = S_d d', each
    diagonal entry 2**k with k uniform in [-K, K]: the same plant, exactly."""
    t, su, sy, sd = (np.ldexp(1.0, rng.integers(-K, K + 1, size=size))
                     for size in (model.n, model.m, model.p, model.r))
    return plant.StateSpaceModel(
        A=model.A * t / t[:, None], B=model.B * su / t[:, None],
        C=model.C * t / sy[:, None], D=model.D * su / sy[:, None],
        E=model.E * sd / t[:, None], F=model.F * sd / sy[:, None])


@pytest.mark.parametrize("K", [10, 20, 40])
def test_disturbance_decisions_do_not_depend_on_units(monkeypatch, K):
    # Condition (b) and the kernel's rank(V_f) read the disturbance
    # structure in whatever units the plant comes in; a cut against the
    # largest entry moved them once units spread by 2**20.  Condition (a)
    # and the gain stage are not covered here.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = np.random.default_rng([20261020, K])
    for n in (8, 20, 40):
        for seed in range(40):
            model = workloads.corpus_model(n, *workloads.corpus_dims(n), seed)
            scaled = _in_units(model, K, rng)
            assert condition_b(scaled) == condition_b(model), (n, seed)
            ker, scaled_ker = model_kernel(model), model_kernel(scaled)
            assert (scaled_ker.k, scaled_ker.rank_V_f) == (ker.k,
                                                           ker.rank_V_f)
