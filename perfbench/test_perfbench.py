"""Self-test of the benchmark at toy size.

Run from the root of a checkout:  python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is printed with its unit
(end-to-end without tracing, per-layer with tracing), that the output checks
can fail (a perturbed reference observer is counted as unverified), and that
the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from uiokit import demo, plant  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class ToyCli(workloads.CliSession):
    def __init__(self):
        super().__init__(T=40)


TOYS = {
    "model-n60": lambda: workloads.ModelN60(n=6, dims=(2, 3, 1)),
    "data-corpus": lambda: workloads.DataCorpus(sizes=(4,), seeds=3),
    "cli-session": ToyCli,
}


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(run.os.environ, "PYTHONPATH", str(run.SRC))

    def use(name):
        monkeypatch.setitem(workloads.WORKLOADS, name, TOYS[name])
    return use


def _printed(capsys) -> tuple[str, dict]:
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TOYS))
def test_every_metric_printed_with_its_unit(toy, capsys, name, trace):
    toy(name)
    run.run_workload(name, seed=1, seconds=0.01, trace=trace)
    out, result = _printed(capsys)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert f"{metric['name']}" in out
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    if not trace:
        for metric in expected:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_perturbed_reference_observer_is_unverified(monkeypatch):
    model = demo.reference_model()
    good = demo.reference_uio()
    bad = plant.UioRealization(A_uio=good.A_uio + 0.05 * np.eye(3),
                               B_u=good.B_u, B_y=good.B_y,
                               D_u=good.D_u, D_y=good.D_y)
    monkeypatch.setattr(workloads.synth, "design_from_model",
                        lambda m, options=None: (bad, None))
    op = workloads._timed(tracing.Tracer(), 0, "model",
                          workloads.ModelN60._op, model)
    assert op.checks["unverified"] is True
    assert op.failed
    assert run.tally([op])["unverified"] == [1, 1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model-n60",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert pct == pytest.approx(90.0)
