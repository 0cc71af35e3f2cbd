"""Seeded fuzz of every numeric command-line flag, in process.

Each case calls `cli.main(argv)` on a valid base command with one numeric
flag replaced by a hostile value: NaN, +-Inf, +-1e308, empty, negative or
malformed text, and seeded LO,HI pairs of those.  Whatever the value, the
command must end with a documented exit code (0, 2 or 4) and print no
traceback or numpy message.  pytest turns a leaked RuntimeWarning into an
error, so a silent overflow fails here too.
"""

import numpy as np
import pytest

from uiokit import cli
from uiokit.plant import save_model

SCALARS = ("nan", "inf", "-inf", "1e308", "-1e308", "", "-1", "abc", "1,2,3")
PAIRS = ("-inf,inf", "nan,1", "-1e308,1e308", "1e308,1e308", "0,inf", "1,")

#: subcommand -> numeric flags, each tagged "scalar" or "pair".
FLAGS = {
    "check": {"--tol-rank": "scalar", "--schur-margin": "scalar"},
    "design": {"--tol-rank": "scalar", "--schur-margin": "scalar",
               "--poles": "scalar", "--dims": "scalar"},
    "collect": {"--T": "scalar", "--seed": "scalar", "--tol-rank": "scalar",
                "--u-range": "pair", "--d-range": "pair",
                "--x0-range": "pair"},
    "simulate": {"--T": "scalar", "--seed": "scalar", "--tol-rank": "scalar",
                 "--u-range": "pair", "--d-range": "pair",
                 "--x0-range": "pair"},
}

#: Text that only a leaked exception or a numpy message would print.
LEAKS = ("Traceback", "numpy", "did not converge", "encountered in",
         "Singular matrix", "high - low", "non-negative integer",
         "Unable to allocate")


def _values(kind: str, rng: np.random.Generator) -> list[str]:
    if kind == "scalar":
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
    return ["simulate", "--from-model", files["model"], "--uio",
            files["uio"], "--T", "12", "--out", out]


def test_every_typed_flag_is_fuzzed():
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "command").choices
    for command, flags in FLAGS.items():
        typed = {a.option_strings[0] for a in subparsers[command]._actions
                 if a.type is not None}
        assert typed <= set(flags), command


@pytest.mark.parametrize("command, flag, value", list(_cases()))
def test_numeric_flag_value_ends_in_a_documented_exit(command, flag, value,
                                                      files, capsys):
    argv = _base(command, flag, files) + [f"{flag}={value}"]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 4), (argv, out, err)
    leaked = [text for text in LEAKS if text in out + err]
    assert not leaked, (argv, out, err)
