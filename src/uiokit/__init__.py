"""Unknown-input observers for discrete-time linear systems.

The package designs state observers that reconstruct the full state of

    x(t+1) = A x(t) + B u(t) + E d(t)
    y(t)   = C x(t) + D u(t) + F d(t)

without measuring the disturbance d.  Observers can be synthesized from
the model matrices or directly from one recorded input/state/output
trajectory, existence can be decided exactly, and both plant and
observer can be simulated and cross-checked.

``import uiokit`` loads no submodule.  Each name of ``__all__`` and each
submodule is imported on first use (PEP 562), so a command-line call loads
only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: The public names of the package, by the submodule that defines them.
_EXPORTS = {
    "numkit": (
        "DEFAULT_TOL", "SCHUR_MARGIN", "RankTolerance", "SpectrumReport",
        "NumericalFailure", "NoUio", "NotDetectable",
        "NotObservable", "PlacementFailed",
        "rank", "spectrum", "stabilizing_gain", "place_poles",
    ),
    "plant": (
        "StateSpaceModel", "UioRealization", "ModelFormatError",
        "UioFormatError",
        "step", "consistency_matrix", "save_model", "load_model",
        "save_uio", "load_uio",
    ),
    "datalog": (
        "HistoricalData", "DataBlocks", "Uniform",
        "TrajectoryFormatError",
        "collect", "build_blocks", "excitation_report",
        "save_trajectory", "load_trajectory",
    ),
    "synth": (
        "KernelRep", "SynthesisOptions",
        "kernel_representation", "model_kernel", "synthesize",
        "design_from_model", "design_from_data", "verify_acceptor",
        "verify_uio",
    ),
    "existcheck": (
        "ExistenceReport",
        "condition_a", "condition_b", "exists_uio", "format_report",
    ),
    "simlab": (
        "RunTrace", "run", "exact_observer_init", "check_error_recursion",
        "convergence_stats", "save_trace",
    ),
    "demo": ("run_demo",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = (*_EXPORTS, "cli")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                        name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
