"""The verification tools' comparisons, on hand-made records and runs.

`tools/parity.py` and `tools/bench_pairs.py` run git and child processes
to collect what they compare; the comparisons themselves are plain
functions, tested here without either.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tools():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "tools"))
        return (importlib.import_module("parity"),
                importlib.import_module("bench_pairs"))


def _record(case, **fields):
    return {"case": case, **fields}


def test_parity_names_each_case_that_differs(tools):
    parity, _ = tools
    parent = {"a": _record("a", design="x", exists_uio="y"),
              "b": _record("b", design="x"),
              "c": _record("c", design="x")}
    change = {"a": _record("a", design="x", exists_uio="z"),
              "c": _record("c", design="x"),
              "d": _record("d", design="x")}
    assert parity.differences(parent, change) == [
        "a: exists_uio differ",
        "b: only in the parent",
        "d: only in the change",
    ]


def test_parity_names_the_sub_fields_that_differ(tools):
    parity, _ = tools
    report = {"report": "r", "text": "t", "observer": None}
    parent = {"a": _record("a", design={"refusal": "NoUio", "message": "m"},
                           exists_uio=report)}
    change = {"a": _record("a", design={"refusal": "NoUio", "message": "m"},
                           exists_uio=dict(report, report="r2", text="t2"))}
    assert parity.differences(parent, change) == [
        "a: exists_uio.report, exists_uio.text differ"]
    # A field that is a record on one side only differs as a whole.
    change["a"]["design"] = "x"
    assert parity.differences(parent, change) == [
        "a: design, exists_uio.report, exists_uio.text differ"]
    # So does a sub-field present on one side only.
    change["a"]["design"] = {"refusal": "NoUio"}
    assert parity.differences(parent, change) == [
        "a: design.message, exists_uio.report, exists_uio.text differ"]


def test_parity_finds_no_difference_between_equal_records(tools):
    parity, _ = tools
    records = {"a": _record("a", design={"observer": "0123"}),
               "b": _record("b", design={"refusal": "NoUio"})}
    same = json.loads(json.dumps(records))
    assert parity.differences(records, same) == []
    assert parity.differences({}, {}) == []


def test_parity_designs_a_fresh_copy_of_each_model(tools, monkeypatch):
    # exists_uio keeps the stages of its model, so a direct design of the
    # same object would read them; parity compares a design of its own.
    parity, _ = tools
    from uiokit import existcheck, synth
    from uiokit.numkit import SCHUR_MARGIN

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    seen = {}

    def recording(name, original):
        def spy(model, *args):
            seen[name] = model
            return original(model, *args)
        return spy

    for module, name in ((existcheck, "exists_uio"),
                         (synth, "design_from_model")):
        monkeypatch.setattr(module, name,
                            recording(name, getattr(module, name)))
    record = next(parity._model_records((SCHUR_MARGIN,)))
    checked, designed = seen["exists_uio"], seen["design_from_model"]
    assert record["case"] == f"model n=60 seed=0 margin={SCHUR_MARGIN}"
    assert designed is not checked
    assert all(np.array_equal(getattr(designed, key), getattr(checked, key))
               for key in "ABCDEF")


def _runs(values):
    """Benchmark runs of one workload "w", one per value of ops_per_s and
    op_p50_ms."""
    return [{"w": {"ops_per_s": v, "op_p50_ms": t}} for v, t in values]


def test_bench_pairs_counts_wins_and_not_ties(tools):
    _, bench_pairs = tools
    parent = _runs([(100, 5.0), (100, 5.0), (100, 5.0), (100, 5.0)])
    change = _runs([(110, 4.0), (100, 5.0), (90, 5.0), (120, 6.0)])
    table = bench_pairs.compare(
        parent, change, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    rate, p50 = table["w"]["ops_per_s"], table["w"]["op_p50_ms"]
    # One tie each, which counts for neither side.
    assert rate["change_wins"] == 2 and rate["better"] == "higher"
    assert p50["change_wins"] == 1 and p50["better"] == "lower"
    assert rate["parent"] == {"runs": [100] * 4, "median": 100,
                              "q1": 100, "q3": 100}
    assert rate["change"]["runs"] == [110, 100, 90, 120]
    assert rate["change"]["median"] == 105.0


def test_bench_pairs_summary_gives_the_percent_and_the_wins(tools):
    _, bench_pairs = tools
    parent = _runs([(100, 5.0), (98, 5.0), (102, 5.0), (100, 5.0)])
    change = _runs([(110, 5.0), (110, 5.0), (110, 5.0), (100, 5.0)])
    table = bench_pairs.compare(
        parent, change, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    assert bench_pairs.summary_lines(table, 4) == [
        "w ops_per_s: 100 -> 110 (+10.0%) [parent 99.5-100.5], 3/4",
        "w op_p50_ms: 5 -> 5 (+0.0%) [parent 5-5], 0/4",
    ]
    zero = bench_pairs.compare(_runs([(0, 1.0)] * 2), _runs([(1, 1.0)] * 2),
                               {"ops_per_s": "higher"})
    assert bench_pairs.summary_lines(zero, 2) == [
        "w ops_per_s: 0 -> 1 (n/a) [parent 0-0], 2/2"]


def test_bench_pairs_takes_its_workloads_from_the_benchmark(tools, capsys):
    _, bench_pairs = tools
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with pytest.raises(SystemExit) as exc_info:
        bench_pairs.main(["--out", "unused.json", "--workload", "none"])
    assert exc_info.value.code == 2
    error = capsys.readouterr().err
    for workload in spec["workloads"]:
        assert repr(workload["name"]) in error
