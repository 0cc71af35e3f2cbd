"""The benchmark's span tracer resolves every target it wraps.

`perfbench/tracing.py` wraps named public functions of the package.  A
function it names that is removed or renamed only fails a traced benchmark
run, so this installs and uninstalls the tracer here, and checks that the
gain stage of a design shows up as its own span.  The same spans count how
often the demonstration designs each route.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from uiokit.demo import run_demo
from uiokit.synth import SynthesisOptions, design_from_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _resolve(module_name, func_name):
    return getattr(importlib.import_module(f"uiokit.{module_name}"), func_name)


def test_every_target_resolves_and_is_restored(tracing):
    originals = {target: _resolve(*target) for target in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert _resolve(*target).__wrapped__ is original
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _resolve(*target) is original


@pytest.mark.parametrize("gain, poles, stage", [
    ("riccati", None, "numkit.stabilizing_gain"),
    ("place", (0.0, 0.0, 0.5), "numkit.place_poles"),
])
def test_gain_stage_is_a_span_under_synthesize(tracing, ref_model, gain,
                                               poles, stage):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        design_from_model(ref_model, SynthesisOptions(gain=gain, poles=poles))
    finally:
        tracer.uninstall()
    names = {span[0]: span[3] for span in tracer.spans}
    parents = [names[span[1]] for span in tracer.spans if span[3] == stage]
    assert parents == ["synth.synthesize"]


@pytest.mark.parametrize("gain", ["place", "riccati"])
def test_demo_designs_each_route_once(tracing, gain):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run_demo(gain=gain).passed
    finally:
        tracer.uninstall()
    calls = Counter(span[3] for span in tracer.spans)
    # One model-route design (inside exists_uio), one data-route design
    # with its one excitation check, and one synthesis in the bundled basis.
    assert calls["synth.design_from_model"] == 1
    assert calls["synth.design_from_data"] == 1
    assert calls["datalog.excitation_report"] == 1
    assert calls["synth.synthesize"] == 3
