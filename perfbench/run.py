"""uiokit benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads (see workloads.py): model-n60, data-corpus, cli-session; ``all``
(the default) runs the three in turn.  Each workload runs a closed loop with
one client (the next operation starts when the previous one returned) for
at least ``--seconds`` of reference time (see workloads.py), in whole units
so every run measures the same mix.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the first
half of the time untraced and the second half with spans around uiokit's
public functions, and prints the per-layer metrics, including the tracing
overhead (untraced minus traced ops_per_s).  The last line of the output is
one JSON object: correct, attempted, failed and metrics.

The package is imported from the checkout's src/; without it the benchmark
exits with code 2 and prints no result.  BLAS is pinned to one thread here,
before numpy loads, and in every child process.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch files of a run and the span dumps of traced runs (git-ignored).
RUN_DIR = ROOT / ".perfbench_run"

#: Fresh interpreters timed for setup_s; one more runs first, untimed, so
#: bytecode is cached and files are in the page cache.
SETUP_REPEATS = 5

IMPORT_PROBE = ("import time; t = time.perf_counter(); import uiokit.cli; "
                "print(time.perf_counter() - t)")


def measure_setup() -> tuple[float, float]:
    """Median seconds a fresh interpreter spends in ``import uiokit.cli``,
    as (reference, wall)."""
    from workloads import child_probe, child_to_reference
    ref, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        speed = child_probe()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        seconds = float(out.stdout.strip().splitlines()[-1])
        if i:
            wall.append(seconds)
            ref.append(child_to_reference(seconds, speed))
    return statistics.median(ref), statistics.median(wall)


def measure_python_start() -> float:
    """Median ms of ``python -c pass``: the floor under every CLI call."""
    from workloads import child_probe, child_to_reference
    times = []
    for _ in range(SETUP_REPEATS):
        speed = child_probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        wall = time.perf_counter() - t0
        times.append(1e3 * child_to_reference(wall, speed))
    return statistics.median(times)


def environment(seed: int) -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"environment: python {platform.python_version()}, numpy "
            f"{numpy.__version__}, scipy {scipy.__version__}, BLAS "
            f"{blas.get('name')} {blas.get('version')}, nproc "
            f"{os.cpu_count()} (running on CPUs "
            f"{sorted(os.sched_getaffinity(0))}), {threads}, workload seed "
            f"{seed}")


class Phase:
    """A closed loop with one client over whole units.

    Units run until the operations' reference time (see workloads.py) adds
    up to ``seconds``; counting reference time rather than wall time keeps
    the number of units, and so the operation mix, the same in every run.
    """

    def __init__(self, workload, tracer, seconds: float):
        t0 = time.perf_counter()
        self.ops = []
        busy = 0.0
        for key in workload.units():
            unit = workload.run_unit(key, tracer)
            self.ops.extend(unit)
            busy += sum(op.latency_s for op in unit)
            if busy >= seconds:
                break
        self.busy = busy
        self.elapsed = time.perf_counter() - t0
        self.failed = sum(op.failed for op in self.ops)

    @property
    def ops_per_s(self) -> float:
        return len(self.ops) / self.busy

    def latencies(self) -> list[float]:
        """One latency per distinct operation: the median of its repeats.

        A corpus model recurs in every pass and a CLI call in every
        session; counting each once keeps one noisy sample of a recurring
        operation from deciding a percentile on its own.
        """
        repeats: dict = {}
        for op in self.ops:
            repeats.setdefault(op.key, []).append(op.latency_s)
        return [statistics.median(v) for v in repeats.values()]

    def describe(self) -> str:
        wall = sum(op.wall_s for op in self.ops)
        return (f"{len(self.ops)} operations in {self.busy:.3f} reference s "
                f"({wall:.3f} s wall in operations, {self.elapsed:.3f} s "
                "wall in the loop)")


def tail(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile that
    has at least ten samples beyond it.

    With fewer than 11 samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def tally(ops: list) -> dict:
    """cause -> [failed, base] over the checks that applied."""
    from workloads import CAUSES
    counts = {cause: [0, 0] for cause in CAUSES}
    for op in ops:
        for cause, failed in op.checks.items():
            counts[cause][0] += bool(failed)
            counts[cause][1] += 1
    return counts


def _causes_text(ops: list) -> str:
    return ", ".join(f"{c} {f}/{b}" for c, (f, b) in tally(ops).items())


def breakdown(workload, phase: Phase) -> list[str]:
    """Per-label lines (operations, median latency, failed), first use first."""
    lines = []
    for label in dict.fromkeys(op.label for op in phase.ops):
        group = [op for op in phase.ops if op.label == label]
        p50 = statistics.median(op.latency_s for op in group)
        wall = statistics.median(op.wall_s for op in group)
        lines.append(f"  {label}: {len(group)} ops, p50 {1e3 * p50:.4g} ms "
                     f"({1e3 * wall:.4g} ms wall), failed "
                     f"{sum(op.failed for op in group)}")
    if workload.name == "data-corpus":
        lines += corpus_breakdown(phase.ops)
    escaped = sorted({op.escaped_type for op in phase.ops if op.escaped_type})
    if escaped:
        lines.append(f"  escaped exception types: {', '.join(escaped)}")
    return lines


def corpus_breakdown(ops: list) -> list[str]:
    """Per-size agreement and data-route verification, one entry per model."""
    from workloads import corpus_dims
    last = {(op.extra["n"], op.extra["seed"]): op
            for op in ops if "n" in op.extra}
    lines = ["  per size, over distinct models (ROADMAP baseline: agreement "
             "39/40, 39/40, 28/39; data route verified 19/20, 9/18, 0/18):"]
    for n in sorted({n for n, _ in last}):
        group = [op for (size, _), op in last.items() if size == n]
        decided = [op for op in group if op.extra.get("agreement") is not None]
        agree = sum(op.extra["agreement"] for op in decided)
        exists = [op for op in decided if op.extra["exists"]]
        verified = sum(op.extra.get("emitted", False)
                       and not op.checks.get("unverified", False)
                       for op in exists)
        m, p, r = corpus_dims(n)
        lines.append(
            f"    n={n} (m,p,r)=({m},{p},{r}): agreement {agree}/"
            f"{len(decided)}, data route verified {verified}/{len(exists)} "
            f"where an observer exists, failed {sum(op.failed for op in group)}"
            f"/{len(group)}; {_causes_text(group)}")
    return lines


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    # ``correct`` says the run completed and checked every operation's
    # outputs; what the checks found is in ``failed`` (and ok_share).
    return json.dumps({
        "correct": attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def end_to_end(workload, seed: int, seconds: float, workdir: Path) -> tuple:
    from tracing import Tracer
    from workloads import peak_rss_mb
    setup, setup_wall = measure_setup()
    workload.prepare(seed, str(workdir))
    phase = Phase(workload, Tracer(), seconds)
    latencies = phase.latencies()
    attempted = len(phase.ops)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "ok_share": (1.0 - phase.failed / attempted, "share"),
        "peak_rss_mb": (peak_rss_mb(phase.ops), "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh `import uiokit.cli`; "
                   f"{setup_wall:.4g} s wall",
        "ops_per_s": f"closed loop, 1 client; {phase.describe()}",
        "op_p50_ms": f"median of {len(latencies)} distinct operations",
        "op_tail_ms": (f"p{tail_pct:.1f}, {beyond} of {len(latencies)} "
                       "distinct operations beyond it" if beyond else
                       f"maximum: {len(latencies)} distinct operations are "
                       "fewer than 11"),
        "ok_share": f"1 - fail_share; fail_share {phase.failed}/{attempted}"
                    f" = {phase.failed / attempted:.4g}",
        "peak_rss_mb": "largest CLI child (wait4 rusage)"
                       if workload.name == "cli-session"
                       else "benchmark process",
    }
    lines = [f"operations: attempted {attempted}, failed {phase.failed}",
             f"failure causes (failed/base): {_causes_text(phase.ops)}",
             "breakdown:"] + breakdown(workload, phase) + ["end-to-end:"]
    lines += [f"  {name:<12} {value:.6g} {unit}  ({notes[name]})"
              for name, (value, unit) in metrics.items()]
    return lines, attempted, phase.failed, metrics


def per_layer(workload, seed: int, seconds: float, workdir: Path) -> tuple:
    from tracing import LAYER_METRICS, MODULES, LayerInputs, SpanStats, Tracer
    from tracing import layer_metrics
    workload.prepare(seed, str(workdir))
    plain = Phase(workload, Tracer(), seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Phase(workload, tracer, seconds / 2)
    finally:
        tracer.uninstall()
    tracer.finish()
    spans_file = RUN_DIR / f"spans-{workload.name}-seed{seed}.json"
    tracer.dump(spans_file)
    overhead = plain.ops_per_s - traced.ops_per_s
    cli_p50 = {label: 1e3 * statistics.median(
        op.latency_s for op in plain.ops if op.label == label)
        for label in {op.label for op in plain.ops}}
    inputs = LayerInputs(tracer, traced.ops, cli_p50,
                         measure_python_start(), overhead)
    metrics = layer_metrics(inputs)
    stats: SpanStats = inputs.stats
    ops = plain.ops + traced.ops
    lines = [
        f"untraced phase: {plain.describe()}, {plain.ops_per_s:.4g} ops/s; "
        f"traced phase: {traced.describe()}, {traced.ops_per_s:.4g} ops/s; "
        f"tracing overhead {overhead:.4g} ops/s",
        f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}",
        f"failure causes (failed/base, both phases): {_causes_text(ops)}",
        "spans by name (calls, mean inclusive ms/call, self ms/op):",
    ]
    for name in sorted(stats.calls):
        lines.append(
            f"  {name:<32} {stats.calls[name]:>7} calls  "
            f"{stats.mean_ms(name):10.4g} ms/call  "
            f"{1e3 * stats.self_time[name] / inputs.ops:10.4g} ms/op self")
    lines.append("module self time (ms/op): " + ", ".join(
        f"{m} {1e3 * stats.module_self_s(m) / inputs.ops:.4g}"
        for m in MODULES))
    lines.append("per-layer metrics (value, self time of its span, "
                 "end-to-end metric it should move):")
    for name, unit, _better, moves, _get in LAYER_METRICS:
        value = metrics[name][0]
        span = name[:-3] if name.endswith("_ms") else None
        self_ms = (f"self {1e3 * stats.self_time[span] / inputs.ops:.4g} ms/op"
                   if span in stats.self_time else "self -")
        lines.append(f"  {name:<34} {value:12.6g} {unit:<8} {self_ms:<22} "
                     f"moves {moves}")
    return lines, len(ops), plain.failed + traced.failed, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    from workloads import WORKLOADS
    workload = WORKLOADS[name]()
    workdir = RUN_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"== perfbench {name}: seed {seed}, {seconds:g} s, "
          f"trace {'on' if trace else 'off'} ==")
    print(environment(seed))
    try:
        measure = per_layer if trace else end_to_end
        lines, attempted, failed, metrics = measure(
            workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(result_line(attempted, failed, metrics), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "model-n60", "data-corpus",
                                 "cli-session"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=11.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uiokit" / "__init__.py").is_file():
        print(f"error: no uiokit package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark and its children, so the speed probes see
    # the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else []))
    names = (("model-n60", "data-corpus", "cli-session")
             if args.workload == "all" else (args.workload,))
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
