"""Byte-for-byte parity of uiokit's answers, parent commit against working tree.

A performance change should leave every answer as it was.  This runs the
same cases in a checkout of the parent commit and in the working tree, one
child process each, and compares what they record:

- ``model``: `corpus_model` at n = 60 with the ``model-n60`` dimensions
  (seeds 0-299) and at n = 8, 20, 40 with `corpus_dims` (seeds 0-39), at
  the default Schur margin and at margin 0.  For each, the `exists_uio`
  report (its fields, its evidence and `format_report` text) and three
  designs by `design_from_model`, each recorded as the observer's bytes,
  its spectrum and the `verify_uio` verdict, or the refusal's type,
  message and evidence as read:
  - ``design``, on a fresh copy of the model, so that it designs instead
    of reading the stages `exists_uio` kept for the model;
  - ``lookup``, on the same model object right after `exists_uio`, which
    reads the design that call kept;
  - ``place``, the `exists_uio` report and then the design of the place
    gain on that one object, with its poles given as a Python list of n
    distinct real values in (-0.5, 0.5).
- ``data``: the 120 ``data-corpus`` recordings (n = 8, 20, 40, seeds 0-39,
  recorded as that workload records them), through `design_from_data` at
  both margins, recorded the same way.

It prints each case whose records differ, with the fields that differ, named
down to the sub-field (``exists_uio.report``, ``design.message``), and exits
1 if any do, 0 otherwise.  The parent checkout is extracted with
``git archive`` (`bench_pairs.extract`) into a temporary directory that is
deleted at the end.  Each child gets its tree's ``src`` and ``perfbench``
on PYTHONPATH and one BLAS thread, as the benchmark runs.

Usage, from the root of a checkout:

    python tools/parity.py [--parent REV]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, extract, git  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for M in arrays:
        h.update(repr(M.shape).encode())
        h.update(M.tobytes())
    return h.hexdigest()[:16]


def _refusal(exc: Exception) -> dict:
    return {"refusal": type(exc).__name__, "message": str(exc),
            "evidence": repr(getattr(exc, "evidence", None))}


def _design(design, model, *args) -> dict:
    """The observer a design returns, its spectrum and verdict, or its
    refusal."""
    from uiokit import synth

    try:
        uio, diag = design(*args)
    except Exception as exc:  # a refusal is an answer to compare
        return _refusal(exc)
    verdict = synth.verify_uio(model, uio)
    return {
        "observer": _digest(uio.A_uio, uio.B_u, uio.B_y, uio.D_u, uio.D_y),
        "spectrum": [diag.spectrum.is_schur,
                     _digest(diag.spectrum.eigenvalues)],
        "verify_uio": [verdict.is_uio, list(verdict.failures),
                       verdict.spectrum.is_schur,
                       repr(verdict.acceptor.residuals)],
    }


def _report(model, options) -> dict:
    """The `exists_uio` report on ``model``: its fields, its text and the
    observer's bytes, or the refusal."""
    from uiokit import existcheck

    try:
        report = existcheck.exists_uio(model, options)
    except Exception as exc:  # a refusal is an answer to compare
        return _refusal(exc)
    return {
        "report": repr(report),
        "text": existcheck.format_report(report),
        "observer": None if report.uio is None else _digest(
            report.uio.A_uio, report.uio.B_u, report.uio.B_y,
            report.uio.D_u, report.uio.D_y),
    }


def _model_records(margins):
    import numpy as np
    from uiokit import synth
    from uiokit.plant import StateSpaceModel
    from workloads import corpus_dims, corpus_model

    plants = [(60, (12, 20, 6), seed) for seed in range(300)] + [
        (n, corpus_dims(n), seed) for n in (8, 20, 40) for seed in range(40)]
    for n, dims, seed in plants:
        model = corpus_model(n, *dims, seed=seed)
        poles = np.linspace(-0.45, 0.45, n).tolist()
        for margin in margins:
            options = synth.SynthesisOptions(schur_margin=margin)
            place = synth.SynthesisOptions(gain="place", poles=poles,
                                           schur_margin=margin)
            record = {"case": f"model n={n} seed={seed} margin={margin}",
                      "exists_uio": _report(model, options)}
            fresh = StateSpaceModel(A=model.A, B=model.B, C=model.C,
                                    D=model.D, E=model.E, F=model.F)
            record["design"] = _design(synth.design_from_model, fresh, fresh,
                                       options)
            record["lookup"] = _design(synth.design_from_model, model, model,
                                       options)
            record["place"] = {
                "exists_uio": _report(model, place),
                "design": _design(synth.design_from_model, model, model,
                                  place)}
            yield record


def _data_records(margins):
    from uiokit import datalog, synth
    from uiokit.datalog import Uniform
    from workloads import corpus_dims, corpus_model

    for n in (8, 20, 40):
        m, p, r = corpus_dims(n)
        for seed in range(40):
            model = corpus_model(n, m, p, r, seed=seed)
            data = datalog.collect(
                model, 3 * (n + 2 * m + 2 * r),
                input_policy=Uniform(-4.0, 4.0),
                disturbance_policy=Uniform(-3.0, 3.0),
                x0=Uniform(-1.0, 1.0), seed=seed)
            blocks = datalog.build_blocks(data)
            for margin in margins:
                options = synth.SynthesisOptions(schur_margin=margin)
                yield {"case": f"data n={n} seed={seed} margin={margin}",
                       "design": _design(synth.design_from_data, model,
                                         blocks, options)}


def dump() -> None:
    """Print one JSON record per case, for the uiokit on PYTHONPATH."""
    from uiokit.numkit import SCHUR_MARGIN

    margins = (SCHUR_MARGIN, 0.0)
    for records in (_model_records(margins), _data_records(margins)):
        for record in records:
            print(json.dumps(record, sort_keys=True))


def records(tree: Path) -> dict:
    """{case: record} of the cases run in ``tree``."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), str(tree / "perfbench")])
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--dump"],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
        timeout=3600).stdout
    return {r["case"]: r for r in map(json.loads, out.splitlines())}


def _differing(old, new, prefix: str = "") -> list[str]:
    """The dotted names of the fields of two records that differ, down to
    the sub-fields of a field that is a record in both."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [prefix[:-1]] if old != new else []
    return [name for key in sorted(old.keys() | new.keys())
            for name in _differing(old.get(key), new.get(key),
                                   f"{prefix}{key}.")]


def differences(parent: dict, change: dict) -> list[str]:
    """One line per case whose records differ, naming the fields and
    sub-fields that differ (``exists_uio.text``)."""
    lines = []
    for case in sorted(parent.keys() | change.keys()):
        old, new = parent.get(case), change.get(case)
        if old is None or new is None:
            lines.append(f"{case}: only in the "
                         f"{'parent' if new is None else 'change'}")
        elif old != new:
            lines.append(f"{case}: {', '.join(_differing(old, new))} differ")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="revision compared with the working tree")
    parser.add_argument("--dump", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump()
        return 0
    parent_rev = git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="parity-parent-") as tmp:
        extract(parent_rev, Path(tmp))
        parent = records(Path(tmp))
    change = records(ROOT)
    lines = differences(parent, change)
    for line in lines:
        print(line)
    print(f"{len(change)} cases, {len(lines)} differ "
          f"(parent {parent_rev[:12]} against the working tree)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
