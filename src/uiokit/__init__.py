"""Unknown-input observers for discrete-time linear systems.

The package designs state observers that reconstruct the full state of

    x(t+1) = A x(t) + B u(t) + E d(t)
    y(t)   = C x(t) + D u(t) + F d(t)

without measuring the disturbance d.  Observers can be synthesized from
the model matrices or directly from one recorded input/state/output
trajectory, existence can be decided exactly, and both plant and
observer can be simulated and cross-checked.
"""

__version__ = "0.1.0"

from .numkit import (
    DEFAULT_TOL,
    SCHUR_MARGIN,
    NotDetectable,
    NotObservable,
    NumericalFailure,
    PlacementFailed,
    RankTolerance,
    SpectrumReport,
    place_poles,
    rank,
    spectrum,
    stabilizing_gain,
)
from .plant import (
    ModelFormatError,
    StateSpaceModel,
    UioRealization,
    consistency_matrix,
    load_model,
    save_model,
    step,
    validate,
)
from .datalog import (
    DataBlocks,
    HistoricalData,
    TrajectoryFormatError,
    Uniform,
    build_blocks,
    collect,
    excitation_report,
    load_trajectory,
    save_trajectory,
)
from .synth import (
    KernelRep,
    NoUio,
    SynthesisOptions,
    UioFormatError,
    design_from_data,
    design_from_model,
    kernel_representation,
    load_uio,
    model_kernel,
    save_uio,
    synthesize,
    verify_acceptor,
    verify_uio,
)
from .existcheck import (
    ExistenceReport,
    condition_a,
    condition_b,
    exists_uio,
    format_report,
)
from .simlab import (
    RunTrace,
    check_error_recursion,
    convergence_stats,
    exact_observer_init,
    run,
    save_trace,
)
from .demo import run_demo

__all__ = [
    "__version__",
    # numkit
    "DEFAULT_TOL", "SCHUR_MARGIN", "RankTolerance", "SpectrumReport",
    "NumericalFailure", "NotDetectable",
    "NotObservable", "PlacementFailed",
    "rank", "spectrum", "stabilizing_gain", "place_poles",
    # plant
    "StateSpaceModel", "UioRealization", "ModelFormatError",
    "validate", "step", "consistency_matrix", "save_model", "load_model",
    # datalog
    "HistoricalData", "DataBlocks", "Uniform",
    "TrajectoryFormatError",
    "collect", "build_blocks", "excitation_report",
    "save_trajectory", "load_trajectory",
    # synth
    "KernelRep", "SynthesisOptions", "NoUio", "UioFormatError",
    "kernel_representation", "model_kernel", "synthesize", "design_from_model",
    "design_from_data", "verify_acceptor", "verify_uio",
    "save_uio", "load_uio",
    # existcheck
    "ExistenceReport",
    "condition_a", "condition_b", "exists_uio", "format_report",
    # simlab
    "RunTrace", "run", "exact_observer_init", "check_error_recursion",
    "convergence_stats", "save_trace",
    # demo
    "run_demo",
]
