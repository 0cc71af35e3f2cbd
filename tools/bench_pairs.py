"""Alternating pairs of benchmark runs, parent commit against working tree.

Each pair runs ``python3 perfbench/run.py --seed S`` once in a checkout of
the parent commit and once in the working tree, with S = seed0 + i for
pair i.  Even pairs run the parent first, odd pairs the change, so a drift
in machine speed over the runs falls on both sides alike.  The parent
checkout is extracted with ``git archive`` into a temporary directory,
which leaves nothing registered in the repository, and is deleted at the
end.  ``--workload NAME``, which may be repeated, runs only the named
workloads of BENCHMARK.json, one ``run.py --workload NAME`` call each, so
one workload can get more pairs without the time of all of them.

The JSON written to ``--out`` holds, per workload and end-to-end metric of
BENCHMARK.json: each side's runs, median and quartiles (inclusive method),
the number of pairs the change wins (ties count for neither side) and the
direction that counts as better; and for the whole file the run.py calls
of one side of a pair (``command``), the seeds, the order of each pair, the
two revisions, the benchmark's environment line and the value of
PYTHONDONTWRITEBYTECODE (null when unset) that the runs inherited.  That
variable decides whether each fresh interpreter compiles the package from
source or reads cached bytecode, which moves ``setup_s`` and each
``cli-session`` call by tens of milliseconds.

After writing the JSON it prints one line per workload and metric to
stdout: the parent median -> the change median, the change in percent,
the parent's quartiles and the pairs the change won, e.g.

    model-n60 ops_per_s: 171.8 -> 195.4 (+13.7%) [parent 170.9-173.0], 10/10

Usage, from the root of a checkout:

    python tools/bench_pairs.py --out BENCH_N.json [--parent REV]
                                [--pairs K] [--seed0 S] [--workload NAME]...
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(r"^== perfbench (\S+):")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract(rev: str, into: Path) -> None:
    """Write the files of commit ``rev`` under ``into``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def run_args(workloads: list[str]) -> list[list[str]]:
    """The run.py arguments of one benchmark run, one list per call."""
    return [["--workload", name] for name in workloads] or [[]]


def run_benchmark(tree: Path, seed: int,
                  workloads: list[str]) -> tuple[dict, str]:
    """({workload: {metric: value}}, environment line) of one benchmark run."""
    out = "".join(subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--seed", str(seed)],
        cwd=tree, check=True, capture_output=True, text=True,
        timeout=1800).stdout for args in run_args(workloads))
    results, environment, workload = {}, "", None
    for line in out.splitlines():
        if match := HEADER.match(line):
            workload = match.group(1)
        elif line.startswith("environment:") and not environment:
            environment = line
        elif line.startswith("{") and workload is not None:
            metrics = json.loads(line)["metrics"]
            results[workload] = {name: m["value"] for name, m in metrics.items()}
    return results, environment


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict], better: dict) -> dict:
    """Per workload and metric: both sides' summaries and the change's wins."""
    table: dict = {}
    for workload in parent[0]:
        table[workload] = {}
        for metric, direction in better.items():
            old = [run[workload][metric] for run in parent]
            new = [run[workload][metric] for run in change]
            sign = 1.0 if direction == "higher" else -1.0
            table[workload][metric] = {
                "better": direction,
                "parent": summary(old),
                "change": summary(new),
                "change_wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
            }
    return table


def summary_lines(table: dict, pairs: int) -> list[str]:
    """One line per workload and metric of a `compare` table."""
    lines = []
    for workload, metrics in table.items():
        for metric, row in metrics.items():
            old, new = row["parent"]["median"], row["change"]["median"]
            change = f"{100 * (new - old) / old:+.1f}%" if old else "n/a"
            lines.append(
                f"{workload} {metric}: {old:.4g} -> {new:.4g} ({change}) "
                f"[parent {row['parent']['q1']:.4g}-{row['parent']['q3']:.4g}]"
                f", {row['change_wins']}/{pairs}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="JSON file to write, relative to the checkout")
    parser.add_argument("--parent", default="HEAD",
                        help="revision measured against the working tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--workload", action="append", default=[],
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload of BENCHMARK.json "
                             "(repeatable; default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs at least 2 for quartiles")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_rev = git("rev-parse", args.parent).decode().strip()
    seeds = [args.seed0 + i for i in range(args.pairs)]
    runs: dict = {"parent": [], "change": []}
    environment = ""
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        extract(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, env = run_benchmark(trees[side], seed, args.workload)
                runs[side].append(result)
                environment = environment or env
            print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) "
                  "done", file=sys.stderr, flush=True)
    doc = {
        "command": "; ".join(
            " ".join(["python3 perfbench/run.py", *a, "--seed S"])
            for a in run_args(args.workload)),
        "parent": parent_rev,
        "change": "working tree on " + git("rev-parse", "HEAD").decode().strip(),
        "seeds": seeds,
        "first": ["parent" if i % 2 == 0 else "change"
                  for i in range(args.pairs)],
        "environment": re.sub(r", workload seed \d+$", "", environment),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workloads": compare(runs["parent"], runs["change"], better),
    }
    (ROOT / args.out).write_text(json.dumps(doc, indent=1) + "\n",
                                 encoding="utf-8")
    print("\n".join(summary_lines(doc["workloads"], args.pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
