"""Seeded fuzz of every numeric command-line flag and every input file, in process.

Each flag case calls `cli.main(argv)` on a valid base command with one
numeric flag replaced by a hostile value: NaN, +-Inf, +-1e308, empty,
negative or malformed text, and seeded LO,HI pairs of those.  Each file case
applies one seeded mutation to the model file, an observer file or a
collected trajectory (truncation, a non-finite or overflowing entry, every
entry scaled up to 1e308, a dropped or added column, a field of the wrong
shape, a document that is not an object) and runs every subcommand that
reads that file.  Whatever the input, the command must end with a
documented exit code (0, 2 or 4) and print no traceback or numpy message;
a file case must also print no NaN or Inf statistic.  pytest turns a leaked
RuntimeWarning into an error, so a silent overflow fails here too.
"""

import json
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from uiokit import cli
from uiokit.plant import save_model

SCALARS = ("nan", "inf", "-inf", "1e308", "-1e308", "", "-1", "abc", "1,2,3")
PAIRS = ("-inf,inf", "nan,1", "-1e308,1e308", "1e308,1e308", "0,inf", "1,")

#: subcommand -> numeric flags, each tagged "scalar" or "pair", or
#: "removed" for a flag the subcommand no longer takes: every value of it
#: must be refused as an unrecognized argument, with exit 4.
FLAGS = {
    "check": {"--tol-rank": "scalar", "--schur-margin": "scalar"},
    "design": {"--tol-rank": "scalar", "--schur-margin": "scalar",
               "--poles": "scalar", "--dims": "scalar"},
    "collect": {"--T": "scalar", "--seed": "scalar", "--tol-rank": "scalar",
                "--u-range": "pair", "--d-range": "pair",
                "--x0-range": "pair"},
    "simulate": {"--T": "scalar", "--seed": "scalar", "--tol-rank": "removed",
                 "--u-range": "pair", "--d-range": "pair",
                 "--x0-range": "pair"},
    "demo-paper": {"--T": "scalar", "--seed": "scalar"},
}

#: Flags that take a value without a ``type``: file paths.
PATHS = {"--from-model", "--from-data", "--uio", "--out"}

#: Text that only a leaked exception or a numpy message would print.
LEAKS = ("Traceback", "numpy", "did not converge", "encountered in",
         "Singular matrix", "high - low", "non-negative integer",
         "Unable to allocate")


def _values(kind: str, rng: np.random.Generator) -> list[str]:
    if kind in ("scalar", "removed"):
        return list(SCALARS)
    drawn = rng.choice(SCALARS[:5], size=(8, 2))
    pairs = list(PAIRS) + [f"{lo},{hi}" for lo, hi in drawn] + list(SCALARS)
    return list(dict.fromkeys(pairs))


def _cases():
    rng = np.random.default_rng(20261018)
    for command, flags in FLAGS.items():
        for flag, kind in flags.items():
            for value in _values(kind, rng):
                yield command, flag, value


@pytest.fixture(scope="module")
def files(tmp_path_factory, ref_model):
    root = tmp_path_factory.mktemp("fuzz")
    model = str(root / "model.json")
    save_model(model, ref_model)
    uio, traj = str(root / "uio.json"), str(root / "traj.csv")
    assert cli.main(["design", "--from-model", model, "--gain", "place",
                     "--poles", "0,0,0.5", "--out", uio]) == 0
    assert cli.main(["collect", "--from-model", model, "--T", "12",
                     "--out", traj]) == 0
    return {"model": model, "uio": uio, "traj": traj, "root": root}


def _base(command: str, flag: str, files) -> list[str]:
    out = str(files["root"] / "out")
    if command == "check":
        return ["check", "--from-model", files["model"]]
    if command == "design":
        if flag == "--dims":
            return ["design", "--from-data", files["traj"], "--out", out]
        if flag == "--poles":
            return ["design", "--from-model", files["model"], "--gain",
                    "place", "--out", out]
        return ["design", "--from-model", files["model"], "--out", out]
    if command == "collect":
        return ["collect", "--from-model", files["model"], "--T", "12",
                "--out", out]
    if command == "simulate":
        return ["simulate", "--from-model", files["model"], "--uio",
                files["uio"], "--T", "12", "--out", out]
    return ["demo-paper", "--out", out]


def test_every_typed_flag_is_fuzzed():
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "command").choices
    assert set(subparsers) == set(FLAGS)
    for command, flags in FLAGS.items():
        actions = [a for a in subparsers[command]._actions if a.option_strings]
        typed = {a.option_strings[0] for a in actions if a.type is not None}
        removed = {flag for flag, kind in flags.items() if kind == "removed"}
        assert typed == set(flags) - removed, command
        # Conversely, every flag that takes a value converts it where it is
        # parsed, unless it is a file path or a choice.
        untyped = {a.option_strings[0] for a in actions
                   if a.nargs != 0 and a.type is None and a.choices is None}
        assert untyped <= PATHS, command


@pytest.mark.parametrize("command, flag, value", list(_cases()))
def test_numeric_flag_value_ends_in_a_documented_exit(command, flag, value,
                                                      files, capsys):
    argv = _base(command, flag, files) + [f"{flag}={value}"]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 4), (argv, out, err)
    leaked = [text for text in LEAKS if text in out + err]
    assert not leaked, (argv, out, err)
    if FLAGS[command][flag] == "removed":
        assert code == 4 and "unrecognized arguments" in err, (argv, err)


# ------------------------------------------------------------ file mutations

#: Mutations of a JSON matrix document (model or observer file).
JSON_MUTATIONS = ("truncate", "empty", "NaN", "Infinity", "-Infinity",
                  "1e400", "scale", "drop-column", "add-column", "scalar",
                  "3-d", "empty-list", "not-an-object")

#: Mutations of a trajectory file; the JSON-only shapes have no CSV analogue.
CSV_MUTATIONS = ("truncate", "empty", "nan", "inf", "-inf", "1e400", "scale",
                 "drop-column", "add-column")


def _mutate_json(text: str, mutation: str, rng: np.random.Generator) -> str:
    if mutation == "truncate":
        return text[:int(rng.integers(1, len(text) - 1))]
    if mutation == "empty":
        return ""
    doc = json.loads(text)
    if mutation == "not-an-object":
        return json.dumps([doc])
    keys = [key for key, value in doc.items()
            if isinstance(value, list) and value and value[0]]
    key = keys[int(rng.integers(len(keys)))]
    if mutation == "scale":
        # Every matrix entry times one factor, so the largest is 1e308.
        big = max(abs(v) for k in keys for row in doc[k] for v in row)
        for k in keys:
            doc[k] = [[v * 1e308 / big for v in row] for row in doc[k]]
    elif mutation in ("NaN", "Infinity", "-Infinity", "1e400"):
        row = doc[key][int(rng.integers(len(doc[key])))]
        row[int(rng.integers(len(row)))] = "@"
        return json.dumps(doc).replace('"@"', mutation)
    elif mutation == "drop-column":
        doc[key] = [row[:-1] for row in doc[key]]
    elif mutation == "add-column":
        doc[key] = [row + [1.0] for row in doc[key]]
    else:
        doc[key] = {"scalar": 1.0, "3-d": [doc[key]],
                    "empty-list": []}[mutation]
    return json.dumps(doc)


def _mutate_csv(text: str, mutation: str, rng: np.random.Generator) -> str:
    if mutation == "truncate":
        return text[:int(rng.integers(1, len(text) - 1))]
    if mutation == "empty":
        return ""
    header, *rows = [line.split(",") for line in text.splitlines()]
    if mutation == "scale":
        big = max(abs(float(v)) for row in rows for v in row[1:])
        rows = [row[:1] + [repr(float(v) * 1e308 / big) for v in row[1:]]
                for row in rows]
    elif mutation == "drop-column":
        col = int(rng.integers(1, len(header)))
        header, *rows = [line[:col] + line[col + 1:]
                         for line in [header, *rows]]
    elif mutation == "add-column":
        header = header + [f"x_{len(header)}"]
        rows = [row + ["1.0"] for row in rows]
    else:
        t = int(rng.integers(len(rows)))
        rows[t][int(rng.integers(1, len(header)))] = mutation
    return "\n".join(",".join(line) for line in [header, *rows]) + "\n"


#: file kind -> the commands that read it; {bad} is the mutated file.
READERS = {
    "model": (["check", "--from-model", "{bad}"],
              ["design", "--from-model", "{bad}", "--out", "{out}"],
              ["collect", "--from-model", "{bad}", "--T", "12",
               "--out", "{out}"],
              ["simulate", "--from-model", "{bad}", "--uio", "{uio}",
               "--T", "12", "--out", "{out}"]),
    "uio": (["simulate", "--from-model", "{model}", "--uio", "{bad}",
             "--T", "12", "--out", "{out}"],),
    "traj": (["design", "--from-data", "{bad}", "--out", "{out}"],),
}


def _file_cases():
    for kind, mutations in (("model", JSON_MUTATIONS), ("uio", JSON_MUTATIONS),
                            ("traj", CSV_MUTATIONS)):
        for mutation in mutations:
            for argv in READERS[kind]:
                yield kind, mutation, argv


@pytest.mark.parametrize("kind, mutation, argv", list(_file_cases()),
                         ids=lambda value: (value[0] if isinstance(value, list)
                                            else value))
def test_mutated_file_ends_in_a_documented_exit(kind, mutation, argv, files,
                                                capsys):
    rng = np.random.default_rng(
        [20261018, zlib.crc32(f"{kind} {mutation}".encode())])
    text = Path(files[kind]).read_text(encoding="utf-8")
    mutate = _mutate_csv if kind == "traj" else _mutate_json
    bad = files["root"] / f"bad-{kind}-{mutation}"
    bad.write_text(mutate(text, mutation, rng), encoding="utf-8")
    argv = [arg.format(bad=bad, out=files["root"] / "out", **files)
            for arg in argv]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 4), (argv, out, err)
    leaked = [leak for leak in LEAKS if leak in out + err]
    assert not leaked, (argv, out, err)
    assert not re.search(r"\b(nan|inf)\b", out), (argv, out)
