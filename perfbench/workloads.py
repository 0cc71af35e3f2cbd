"""The benchmark's three workloads and the checks on their outputs.

A workload runs in *units*: one model for model-n60, one pass over the fixed
corpus for data-corpus, one CLI session for cli-session.  ``units()`` names
them (from the workload seed) and ``run_unit(key, tracer)`` runs one; the
same key always runs the same operations on the same inputs.

An operation's outcome is a dict of checks, cause -> failed, holding only
the checks that applied to it:

  escaped              an exception other than NoUio / NumericalFailure
                       escaped (base: operations)
  unverified           an emitted observer failed verify_uio against the
                       true plant (base: emitted observers)
  disagree             exists_uio's rank verdict and the constructive route
                       disagree, or an observer was emitted although the
                       rank verdict says none exists (base: rank verdicts)
  refused_when_exists  an observer exists (and, on the data route, the data
                       is exciting) but none came back (base: such cases)
  bad_exit             a CLI call exited with another code than documented
                       (base: CLI calls)
  bad_output           a CLI call's output failed its check, or a trajectory
                       file did not round-trip exactly (base: checked outputs)

An operation fails when any of its checks failed.

Latencies are reported in *reference time*.  Other tenants of the host slow
identical work by up to ~1.6x, in phases that last from milliseconds to
minutes, so raw wall times of one workload drift by 25-30% from one run
to the next.  A fixed probe kernel (small SVDs plus a Python loop) is timed
just before and just after every operation, on the same CPU (the benchmark
pins itself and its children to one CPU), and the operation's wall time is
scaled by REFERENCE_PROBE_S over the mean probe time.  A child process is
scaled the same way by a child probe (a fresh interpreter importing numpy
and summing 32 MB) timed just before it.  The slowdown hits the probe and
the operation alike, so the scaled time is what the operation takes at the
reference speed.  Raw wall times are kept too.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from uiokit import datalog, demo, existcheck, plant, synth
from uiokit.datalog import Uniform
from uiokit.numkit import NumericalFailure
from uiokit.synth import NoUio

#: The typed refusals a design call may raise instead of returning.
REFUSALS = (NoUio, NumericalFailure)

CAUSES = ("escaped", "unverified", "disagree", "refused_when_exists",
          "bad_exit", "bad_output")

#: Wall time of one `probe` on an uncontended core of the development host
#: (2 vCPUs at 2.1 GHz, scipy-openblas 0.3.31): the reference speed.
REFERENCE_PROBE_S = 0.0019

#: Wall time of one `child_probe` there.
REFERENCE_CHILD_PROBE_S = 0.13

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
CHILD_PROBE = (sys.executable, "-c", "import numpy; numpy.ones(1 << 22).sum()")

#: Wall-clock limit for one CLI child; a child over it is killed and
#: counted as bad_exit.
CHILD_TIMEOUT_S = 60.0


def probe() -> float:
    """Wall seconds of a fixed kernel that stands in for the machine's speed."""
    t0 = time.perf_counter()
    for _ in range(8):
        np.linalg.svd(_PROBE_MATRIX)
    total = 0
    for i in range(16000):
        total += i * i
    return time.perf_counter() - t0


def child_probe() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and sums 32 MB.

    Stands in for the speed of process start-up, imports and fresh memory,
    which the in-process probe tracks poorly: scaled by it, the wall times
    of one CLI call still spread by ~12% between 10 s windows, against ~5%
    when scaled by a child probe.
    """
    t0 = time.perf_counter()
    subprocess.run(CHILD_PROBE, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def to_reference(wall_s: float, probes: list,
                 reference_s: float = REFERENCE_PROBE_S) -> float:
    """Scale a wall time by the probe times taken around it."""
    return wall_s * reference_s * len(probes) / sum(probes)


def child_to_reference(wall_s: float, probe_s: float) -> float:
    """`to_reference` for a child process timed after a `child_probe`."""
    return to_reference(wall_s, [probe_s], REFERENCE_CHILD_PROBE_S)


@dataclass
class Op:
    """One measured operation; latency_s is in reference seconds.

    ``key`` names the operation: executions with the same key do the same
    work (a corpus model in another pass, a CLI call in another session).
    """

    key: object
    latency_s: float
    wall_s: float
    checks: dict
    label: str
    escaped_type: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(self.checks.values())


def corpus_model(n: int, m: int, p: int, r: int,
                 seed: int) -> plant.StateSpaceModel:
    """The seeded random-model recipe of the scale corpus.

    A = randn * {0.2, 0.35, 0.5}[seed % 3]; B, C, D, E are randn; F is randn
    for odd seeds and 0 for even ones.  Every third seed hides an unstable
    mode at 1.3 from C (an eigenvector of A in the kernel of C, rotated by a
    random orthogonal basis change), so no observer exists for it.
    """
    rng = np.random.default_rng(seed)
    A = (0.2, 0.35, 0.5)[seed % 3] * rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    E = rng.standard_normal((n, r))
    F = rng.standard_normal((p, r)) if seed % 2 else np.zeros((p, r))
    if seed % 3 == 0:
        A[:, 0] = 0.0
        A[0, 0] = 1.3
        C[:, 0] = 0.0
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A, B, C, E = Q @ A @ Q.T, Q @ B, C @ Q.T, Q @ E
    return plant.StateSpaceModel(A=A, B=B, C=C, D=D, E=E, F=F,
                                 name=f"corpus-n{n}-s{seed}")


def corpus_dims(n: int) -> tuple[int, int, int]:
    """(m, p, r) ~ (n/5, n/3, n/10), at least 1 each."""
    return max(1, round(n / 5)), max(1, round(n / 3)), max(1, round(n / 10))


def peak_rss_mb(ops: list) -> float:
    """Largest CLI child's peak RSS if the ops ran children, else our own."""
    children = [op.extra["rss_mb"] for op in ops if "rss_mb" in op.extra]
    if children:
        return max(children)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_observer(checks: dict, model, uio) -> None:
    checks["unverified"] = not synth.verify_uio(model, uio).is_uio


def _timed(tracer, key, label: str, fn, *args) -> Op:
    """Run one operation ``fn(checks, extra, *args)`` and time it.

    The operation fills ``checks`` as it goes, so the checks it completed
    before an exception escaped still count.
    """
    checks: dict = {}
    extra: dict = {}
    escaped = None
    before = probe()
    t0 = time.perf_counter()
    with tracer.operation("op"):
        try:
            fn(checks, extra, *args)
        except Exception as exc:  # the benchmark's boundary: record, go on
            escaped = type(exc).__name__
    wall = time.perf_counter() - t0
    checks["escaped"] = escaped is not None
    return Op(key, to_reference(wall, [before, probe()]), wall, checks, label,
              escaped, extra)


# --------------------------------------------------------------------------
# model-n60


class ModelN60:
    """Existence check, then model-route design + verification, at n = 60."""

    name = "model-n60"

    def __init__(self, n: int = 60, dims: tuple = (12, 20, 6)):
        self.n, self.dims = n, dims

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def units(self):
        return (1000 * self.seed + i for i in itertools.count())

    def run_unit(self, model_seed: int, tracer) -> list[Op]:
        model = corpus_model(self.n, *self.dims, seed=model_seed)
        return [_timed(tracer, model_seed, "model", self._op, model)]

    @staticmethod
    def _op(checks: dict, extra: dict, model) -> None:
        try:
            report = existcheck.exists_uio(model)
        except REFUSALS:
            return
        extra["exists"] = report.exists
        checks["disagree"] = not report.agreement
        if report.exists:
            try:
                uio, _ = synth.design_from_model(model)
            except REFUSALS:
                checks["refused_when_exists"] = True
            else:
                checks["refused_when_exists"] = False
                _check_observer(checks, model, uio)


# --------------------------------------------------------------------------
# data-corpus


class DataCorpus:
    """The fixed scale-correctness corpus, one data-route pipeline per model.

    Models are seeds 0..seeds-1 at each size and the trajectory seed is the
    model seed, so the corpus and its failure counts are the same in every
    run; the workload seed only sets the order of the operations in a pass.
    """

    name = "data-corpus"

    def __init__(self, sizes: tuple = (8, 20, 40), seeds: int = 40):
        self.cases = [(n, s) for s in range(seeds) for n in sizes]

    def prepare(self, seed: int, workdir: str) -> None:
        order = np.random.default_rng(seed).permutation(len(self.cases))
        self.order = [self.cases[i] for i in order]
        self.models = {(n, s): corpus_model(n, *corpus_dims(n), seed=s)
                       for n, s in self.cases}
        self.path = os.path.join(workdir, "trajectory.csv")

    def units(self):
        return itertools.repeat("pass")

    def run_unit(self, _key, tracer) -> list[Op]:
        return [_timed(tracer, (n, s), f"n={n}", self._op, n, s)
                for n, s in self.order]

    def _op(self, checks: dict, extra: dict, n: int, seed: int) -> None:
        model = self.models[(n, seed)]
        m, p, r = corpus_dims(n)
        extra.update(n=n, seed=seed)
        try:
            report = existcheck.exists_uio(model)
        except REFUSALS:
            report = None
        data = datalog.collect(
            model, 3 * (n + 2 * m + 2 * r),
            input_policy=Uniform(-4.0, 4.0),
            disturbance_policy=Uniform(-3.0, 3.0),
            x0=Uniform(-1.0, 1.0), seed=seed,
        )
        datalog.save_trajectory(self.path, data)
        loaded = datalog.load_trajectory(self.path)
        checks["bad_output"] = not all(
            np.array_equal(getattr(data, k), getattr(loaded, k))
            for k in ("x", "u", "y", "d"))
        blocks = datalog.build_blocks(loaded)
        excitation = datalog.excitation_report(blocks)
        try:
            uio, _ = synth.design_from_data(blocks)
        except REFUSALS:
            uio = None
        if uio is not None:
            _check_observer(checks, model, uio)
        if report is not None:
            checks["disagree"] = (not report.agreement
                                  or (uio is not None and not report.exists))
            if report.exists and excitation.ok:
                checks["refused_when_exists"] = uio is None
        extra.update(
            exists=None if report is None else report.exists,
            agreement=None if report is None else report.agreement,
            emitted=uio is not None,
        )


# --------------------------------------------------------------------------
# cli-session


def run_child(argv: list, cwd: str,
              timeout: float = CHILD_TIMEOUT_S) -> tuple[int, str, float, float]:
    """Run one child to completion; returns (exit code, stdout, wall s, peak MB).

    The child is reaped with wait4, so its peak RSS is its own.  A child
    still running after ``timeout`` seconds is killed (exit code -9).
    """
    out_path = os.path.join(cwd, "child.out")
    with open(out_path, "w+", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    os.remove(out_path)
    return proc.returncode, text, wall, usage.ru_maxrss / 1024.0


class CliSession:
    """Sequential ``python -m uiokit`` children, one session per unit."""

    name = "cli-session"

    def __init__(self, T: int = 5000):
        self.T = T

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.models = {
            "ref.json": demo.reference_model(),
            "noobs.json": demo.counterexample_model(),
            "conv.json": demo.convergence_model(),
        }
        for fname, model in self.models.items():
            plant.save_model(os.path.join(workdir, fname), model)

    def calls(self, session_seed: int) -> list:
        """(name, arguments, expected exit code, output check) per call."""
        T = str(self.T)
        return [
            ("check", ["check", "--from-model", "ref.json"], 0, None),
            ("check_noobs", ["check", "--from-model", "noobs.json"], 2, None),
            ("design_model",
             ["design", "--from-model", "ref.json", "--gain", "place",
              "--poles", "0,0,0.5", "--out", "uio_model.json"], 0,
             self._observer_check("uio_model.json", "ref.json")),
            ("collect",
             ["collect", "--from-model", "conv.json", "--T", T,
              "--seed", str(session_seed), "--out", "log.csv"], 0,
             lambda out, checks: f"wrote {T} samples" in out),
            ("design_data",
             ["design", "--from-data", "log.csv", "--dims", "3,1,2",
              "--out", "uio_data.json"], 0,
             self._observer_check("uio_data.json", "conv.json")),
            ("simulate",
             ["simulate", "--from-model", "conv.json", "--uio",
              "uio_data.json", "--T", T, "--seed", str(session_seed),
              "--out", "trace.csv"], 0,
             lambda out, checks: "error recursion check: ok" in out),
            ("demo", ["demo-paper"], 0,
             lambda out, checks: "demo passed" in out),
        ]

    def _observer_check(self, uio_file: str, model_file: str):
        def check(out, checks):
            uio = synth.load_uio(os.path.join(self.workdir, uio_file))
            _check_observer(checks, self.models[model_file], uio)
            return True
        return check

    def units(self):
        return (1000 * self.seed + i for i in itertools.count())

    def run_unit(self, session_seed: int, tracer) -> list[Op]:
        return [self._call(tracer, *call) for call in self.calls(session_seed)]

    def _call(self, tracer, name, args, expected, check) -> Op:
        checks: dict = {}
        speed = child_probe()
        with tracer.operation(f"child.{name}") as span:
            argv = self.child_argv(tracer, args)
            code, out, wall, rss = run_child(argv, self.workdir)
        latency = child_to_reference(wall, speed)
        if span is not None:
            self.adopt_child_spans(tracer, span[0])
        checks["bad_exit"] = code != expected
        if not checks["bad_exit"] and check is not None:
            try:
                checks["bad_output"] = not check(out, checks)
            except (OSError, ValueError):
                checks["bad_output"] = True
        checks["escaped"] = False
        return Op(name, latency, wall, checks, name, None, {"rss_mb": rss})

    def child_argv(self, tracer, args: list) -> list:
        if not tracer.active:
            return [sys.executable, "-m", "uiokit"] + args
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "cli_child.py")
        return [sys.executable, child, self.spans_path] + args

    @property
    def spans_path(self) -> str:
        return os.path.join(self.workdir, "child_spans.json")

    def adopt_child_spans(self, tracer, parent: int) -> None:
        try:
            with open(self.spans_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return
        os.remove(self.spans_path)
        tracer.adopt(doc["spans"], doc["counts"], parent)


WORKLOADS = {w.name: w for w in (ModelN60, DataCorpus, CliSession)}
