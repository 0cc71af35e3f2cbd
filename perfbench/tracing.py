"""Spans around uiokit's public functions, recorded from outside the package.

`Tracer.install` replaces selected public functions of the uiokit modules
with wrappers that record one span per call: name, start, end, the span that
called it and the operation it belongs to.  Every module that imported the
function by name gets the wrapper too, so nested calls (exists_uio ->
design_from_model -> synthesize -> stabilizing_gain) nest as spans.
`uninstall` puts the originals back.  Nothing under src/ is modified.

Spans stay in memory as lists ``[id, parent, op, name, t0, t1, error]`` and
are written out once, by `dump`, when the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are
sequential, so the children never overlap.

Some spans also feed counters (SVD-backed PBH checks, condition (a)
candidates, kernel rows, CSV bytes, ...).  Counters that need extra numerics
are evaluated after the run, so they never add to any span's time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

#: (module, function) pairs wrapped in traced runs.
TARGETS = (
    ("numkit", "undetectable_modes"),
    ("numkit", "stabilizing_gain"),
    ("numkit", "place_poles"),
    ("numkit", "left_null_basis"),
    ("existcheck", "exists_uio"),
    ("existcheck", "condition_a"),
    ("existcheck", "condition_b"),
    ("synth", "design_from_model"),
    ("synth", "design_from_data"),
    ("synth", "kernel_representation"),
    ("synth", "synthesize"),
    ("synth", "verify_uio"),
    ("plant", "step"),
    ("plant", "consistency_matrix"),
    ("plant", "load_model"),
    ("datalog", "collect"),
    ("datalog", "save_trajectory"),
    ("datalog", "load_trajectory"),
    ("datalog", "build_blocks"),
    ("datalog", "excitation_report"),
    ("simlab", "run"),
    ("simlab", "check_error_recursion"),
    ("simlab", "save_trace"),
    ("demo", "run_demo"),
    ("cli", "main"),
)

#: Modules whose self time is reported as ``<module>.self_ms``.
MODULES = ("numkit", "existcheck", "synth", "plant", "datalog", "simlab",
           "cli", "demo")


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _schur_margin():
    from uiokit.numkit import SCHUR_MARGIN
    return SCHUR_MARGIN


def _pbh_checks(args, kwargs, result):
    # One SVD per eigenvalue on or outside the 1 - margin circle.
    import numpy as np
    Abar = np.asarray(args[0])
    if Abar.size == 0:
        return 0
    margin = _arg(args, kwargs, 3, "margin", _schur_margin())
    return int(np.count_nonzero(np.abs(np.linalg.eigvals(Abar)) >= 1.0 - margin))


def _candidate_counts(args, kwargs, result):
    margin = _arg(args, kwargs, 2, "margin", _schur_margin())
    completions = result[1].get("completions", [])
    found = sum(len(c["candidates"]) for c in completions)
    checked = sum(
        sum(abs(z) >= 1.0 - margin for z in c["candidates"])
        - len(c["near_infinity_candidates"])
        for c in completions
    )
    return {"existcheck.candidates": found,
            "existcheck.candidate_rank_checks": checked}


#: span name -> (deferred, counter).  A counter returns a count or a dict
#: of counts; deferred counters run in `finish`, after all timing is done.
COUNTERS = {
    "numkit.undetectable_modes":
        (True, lambda a, k, r: {"numkit.pbh_checks": _pbh_checks(a, k, r)}),
    "existcheck.condition_a": (False, _candidate_counts),
    "existcheck.exists_uio":
        (False, lambda a, k, r: {"existcheck.disagree": int(not r.agreement)}),
    "synth.kernel_representation":
        (False, lambda a, k, r: {"synth.kernel_rows": r.k}),
    "synth.verify_uio":
        (False, lambda a, k, r: {"synth.unverified": int(not r.is_uio)}),
    "datalog.save_trajectory":
        (False, lambda a, k, r: {
            "datalog.csv_bytes": os.path.getsize(_arg(a, k, 0, "path", None))}),
    "simlab.run":
        (False, lambda a, k, r: {"simlab.steps": int(_arg(a, k, 2, "T", 0))}),
}


class Tracer:
    """In-memory span recorder; inactive until `install` is called."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._deferred: list = []
        self._stack: list[int] = []
        self._patched: list = []
        self.op = -1

    @property
    def active(self) -> bool:
        return bool(self._patched)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self.op, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of a new operation (a no-op while not installed)."""
        if not self.active:
            yield None
            return
        self.op += 1
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span[6] = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _add(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)

    def _wrap(self, name: str, fn):
        deferred, counter = COUNTERS.get(name, (False, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counter is not None:
                if deferred:
                    self._deferred.append((counter, args, kwargs, result))
                else:
                    self._add(counter(args, kwargs, result))
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every uiokit module that references it."""
        import sys
        for module_name, func_name in TARGETS:
            importlib.import_module(f"uiokit.{module_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "uiokit" or key.startswith("uiokit.")]
        for module_name, func_name in TARGETS:
            home = sys.modules[f"uiokit.{module_name}"]
            original = getattr(home, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def finish(self) -> None:
        """Evaluate the deferred counters (outside every timed region)."""
        for counter, args, kwargs, result in self._deferred:
            self._add(counter(args, kwargs, result))
        self._deferred.clear()

    # -- child processes ---------------------------------------------------

    def adopt(self, spans: list, counts: dict, parent: int) -> None:
        """Graft spans recorded in a child process under span ``parent``."""
        offset = len(self.spans)
        for sid, sparent, _op, name, t0, t1, err in spans:
            self.spans.append([
                sid + offset,
                parent if sparent is None else sparent + offset,
                self.op, name, t0, t1, err,
            ])
        self._add(counts)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class SpanStats:
    """Per-name call counts, inclusive and self times of a span list.

    ``speed[op]`` scales the spans of operation ``op`` from wall time to the
    benchmark's reference time (see workloads.py).
    """

    def __init__(self, spans: list, speed: list):
        child_time: dict[int, float] = {}
        for _sid, parent, _op, _name, t0, t1, _err in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for sid, _parent, op, name, t0, t1, err in spans:
            scale = speed[op]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.errors[name] = self.errors.get(name, 0) + (err is not None)
            self.incl[name] = self.incl.get(name, 0.0) + scale * (t1 - t0)
            self.self_time[name] = (self.self_time.get(name, 0.0) + scale
                                    * (t1 - t0 - child_time.get(sid, 0.0)))

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.incl[name] / calls if calls else 0.0

    def module_self_s(self, module: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == module)


class LayerInputs:
    """What the per-layer metrics are computed from, for one traced phase."""

    def __init__(self, tracer: Tracer, ops: list, cli_p50_ms: dict,
                 python_start_ms: float, overhead_ops_per_s: float):
        speed = [op.latency_s / op.wall_s if op.wall_s else 1.0 for op in ops]
        self.stats = SpanStats(tracer.spans, speed)
        self.counts = tracer.counts
        self.ops = max(len(ops), 1)
        self.cli_p50_ms = cli_p50_ms
        self.python_start_ms = python_start_ms
        self.overhead_ops_per_s = overhead_ops_per_s


def _call_ms(name):
    return lambda c: c.stats.mean_ms(name)


def _self_ms(module):
    return lambda c: 1e3 * c.stats.module_self_s(module) / c.ops


def _per_op(counter):
    return lambda c: c.counts.get(counter, 0) / c.ops


def _cli_ms(call):
    return lambda c: c.cli_p50_ms.get(call, 0.0)


def _per_step_us(c):
    steps = c.counts.get("simlab.steps", 0)
    return 1e6 * c.stats.incl.get("simlab.run", 0.0) / steps if steps else 0.0


def _csv_bytes(c):
    files = c.stats.calls.get("datalog.save_trajectory", 0)
    return c.counts.get("datalog.csv_bytes", 0) / files if files else 0.0


_P50_N60 = "op_p50_ms on model-n60"
_CLI = "ops_per_s on cli-session"
_DATA_IO = "ops_per_s on cli-session, op_p50_ms on data-corpus"
_CLI_CALL = "ops_per_s and op_tail_ms on cli-session"

#: Per-layer metrics: (name, unit, better, end-to-end metric it should move,
#: how it is computed).  `_ms` metrics are mean inclusive time per call,
#: `self_ms` is a module's self time per operation, counts are per
#: operation, and `cli.*_ms` are medians of untraced CLI child wall times.
LAYER_METRICS = (
    ("numkit.undetectable_modes_ms", "ms", "lower", _P50_N60,
     _call_ms("numkit.undetectable_modes")),
    ("numkit.pbh_checks", "count/op", "lower", _P50_N60,
     _per_op("numkit.pbh_checks")),
    ("numkit.stabilizing_gain_ms", "ms", "lower",
     "op_tail_ms on data-corpus, op_p50_ms on model-n60",
     _call_ms("numkit.stabilizing_gain")),
    ("numkit.gain_failures", "count/op", "lower", "ok_share on data-corpus",
     lambda c: c.stats.errors.get("numkit.stabilizing_gain", 0) / c.ops),
    ("numkit.left_null_basis_ms", "ms", "lower",
     "ops_per_s and peak_rss_mb on cli-session",
     _call_ms("numkit.left_null_basis")),
    ("numkit.self_ms", "ms/op", "lower", _P50_N60, _self_ms("numkit")),
    ("existcheck.exists_uio_ms", "ms", "lower", _P50_N60,
     _call_ms("existcheck.exists_uio")),
    ("existcheck.condition_a_ms", "ms", "lower", _P50_N60,
     _call_ms("existcheck.condition_a")),
    ("existcheck.condition_b_ms", "ms", "lower", "nothing (control)",
     _call_ms("existcheck.condition_b")),
    ("existcheck.candidates", "count/op", "lower", "existcheck.condition_a_ms",
     _per_op("existcheck.candidates")),
    ("existcheck.candidate_rank_checks", "count/op", "lower",
     "existcheck.condition_a_ms", _per_op("existcheck.candidate_rank_checks")),
    ("existcheck.disagree", "count/op", "lower", "ok_share on data-corpus",
     _per_op("existcheck.disagree")),
    ("existcheck.self_ms", "ms/op", "lower", _P50_N60, _self_ms("existcheck")),
    ("synth.kernel_representation_ms", "ms", "lower",
     "op_p50_ms on model-n60, ops_per_s on cli-session",
     _call_ms("synth.kernel_representation")),
    ("synth.synthesize_ms", "ms", "lower", _P50_N60,
     _call_ms("synth.synthesize")),
    ("synth.verify_uio_ms", "ms", "lower", _P50_N60,
     _call_ms("synth.verify_uio")),
    ("synth.kernel_rows", "count/op", "lower", "nothing (kernel size)",
     _per_op("synth.kernel_rows")),
    ("synth.unverified", "count/op", "lower", "ok_share on data-corpus",
     _per_op("synth.unverified")),
    ("synth.self_ms", "ms/op", "lower", _P50_N60, _self_ms("synth")),
    ("plant.step_us", "us", "lower", _CLI + " (collect, simulate)",
     lambda c: 1e3 * c.stats.mean_ms("plant.step")),
    ("plant.consistency_matrix_ms", "ms", "lower", _P50_N60,
     _call_ms("plant.consistency_matrix")),
    ("plant.self_ms", "ms/op", "lower", _CLI, _self_ms("plant")),
    ("datalog.collect_ms", "ms", "lower", _DATA_IO,
     _call_ms("datalog.collect")),
    ("datalog.save_trajectory_ms", "ms", "lower", _DATA_IO,
     _call_ms("datalog.save_trajectory")),
    ("datalog.load_trajectory_ms", "ms", "lower", _DATA_IO,
     _call_ms("datalog.load_trajectory")),
    ("datalog.excitation_report_ms", "ms", "lower", _DATA_IO,
     _call_ms("datalog.excitation_report")),
    ("datalog.csv_bytes", "B", "lower", "datalog.save_trajectory_ms",
     _csv_bytes),
    ("datalog.self_ms", "ms/op", "lower", _DATA_IO, _self_ms("datalog")),
    ("simlab.run_ms", "ms", "lower", _CLI, _call_ms("simlab.run")),
    ("simlab.us_per_step", "us", "lower", _CLI, _per_step_us),
    ("simlab.save_trace_ms", "ms", "lower", _CLI,
     _call_ms("simlab.save_trace")),
    ("simlab.self_ms", "ms/op", "lower", _CLI, _self_ms("simlab")),
    ("cli.python_start_ms", "ms", "lower", "nothing (interpreter floor)",
     lambda c: c.python_start_ms),
    ("cli.check_ms", "ms", "lower", _CLI_CALL, _cli_ms("check")),
    ("cli.check_noobs_ms", "ms", "lower", _CLI_CALL, _cli_ms("check_noobs")),
    ("cli.design_model_ms", "ms", "lower", _CLI_CALL,
     _cli_ms("design_model")),
    ("cli.collect_ms", "ms", "lower", _CLI_CALL, _cli_ms("collect")),
    ("cli.design_data_ms", "ms", "lower", _CLI_CALL, _cli_ms("design_data")),
    ("cli.simulate_ms", "ms", "lower", _CLI_CALL, _cli_ms("simulate")),
    ("cli.demo_ms", "ms", "lower", _CLI_CALL, _cli_ms("demo")),
    ("cli.self_ms", "ms/op", "lower", _CLI_CALL, _self_ms("cli")),
    ("demo.run_demo_ms", "ms", "lower", "cli.demo_ms",
     _call_ms("demo.run_demo")),
    ("demo.self_ms", "ms/op", "lower", "cli.demo_ms", _self_ms("demo")),
    ("trace.overhead_ops_per_s", "1/s", "lower",
     "nothing (cost of tracing itself)", lambda c: c.overhead_ops_per_s),
    ("trace.spans_per_op", "count/op", "lower", "trace.overhead_ops_per_s",
     lambda c: sum(c.stats.calls.values()) / c.ops),
)


def layer_metrics(inputs: LayerInputs) -> dict:
    """Every per-layer metric by name, as ``(value, unit)``."""
    return {name: (float(get(inputs)), unit)
            for name, unit, _better, _moves, get in LAYER_METRICS}
