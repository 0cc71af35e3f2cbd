"""Shared fixtures: the bundled example system and its companions."""

import numpy as np
import pytest

from uiokit.demo import (
    convergence_model,
    counterexample_model,
    reference_intermediates,
    reference_kernel_matrix,
    reference_model,
    reference_uio,
)
from uiokit import synth
from uiokit.plant import StateSpaceModel


@pytest.fixture(autouse=True)
def _no_kept_stages(monkeypatch):
    """Each test starts with no model's stages kept (see `synth._stage`).

    The session fixtures share model objects, so a stage one test ran with
    a patched function would otherwise be what the next test reads."""
    monkeypatch.setattr(synth, "_record", (None, {}))


@pytest.fixture(scope="session")
def ref_model():
    return reference_model()


@pytest.fixture(scope="session")
def ref_kernel():
    return reference_kernel_matrix()


@pytest.fixture(scope="session")
def ref_uio():
    return reference_uio()


@pytest.fixture(scope="session")
def ref_intermediates():
    return reference_intermediates()


@pytest.fixture(scope="session")
def no_uio_model():
    return counterexample_model()


@pytest.fixture(scope="session")
def stable_model():
    return convergence_model()


def _rotated_hidden_mode(n, m, p, r, mode, seed) -> StateSpaceModel:
    """Seeded random plant with a mode at ``mode`` hidden from C.

    The mode's eigenvector lies in the kernel of C, and the whole plant is
    expressed in a random orthogonal basis.  F is random for odd seeds and
    zero for even ones.
    """
    rng = np.random.default_rng(seed)
    A = (0.2, 0.35, 0.5)[seed % 3] * rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    E = rng.standard_normal((n, r))
    F = rng.standard_normal((p, r)) if seed % 2 else np.zeros((p, r))
    A[:, 0] = 0.0
    A[0, 0] = mode
    C[:, 0] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return StateSpaceModel(A=Q @ A @ Q.T, B=Q @ B, C=C @ Q.T, D=D,
                           E=Q @ E, F=F)


@pytest.fixture(scope="session")
def rotated_hidden_mode():
    """The recipe ``(n, m, p, r, mode, seed) -> model`` of `_rotated_hidden_mode`."""
    return _rotated_hidden_mode
