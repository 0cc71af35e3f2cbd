"""Float rank decisions against exact ranks, on seeded integer plants.

Every rank here is of a matrix with small integer entries, which float64
holds exactly, so `exact_rank.bareiss_rank` gives its true rank.  The
decisions checked are the ones that read a plant's disturbance structure:
condition (b)'s two ranks, the [E; F] rank `StateSpaceModel` reads, the
kernel row count k = n + 2p - rank M of `synth.model_kernel`, and the
rank(V_f) = n - rank M + rank N it records, with N = [[F, 0], [CE, F]],
which decides the model route's `VfRankDeficient` refusal, and the data
route's k = 2(n+m+p) - rank Gamma and rank(V_f) on the consistency matrix
Gamma, whose integer entries make it an exact record of the plant.
"""

import importlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from exact_rank import bareiss_rank
from uiokit.existcheck import condition_b, exists_uio
from uiokit.numkit import NoUio, NumericalFailure, balanced_rank
from uiokit.plant import StateSpaceModel, consistency_matrix
from uiokit.synth import (VF_RANK_DEFICIENT, design_from_model,
                          kernel_representation, model_kernel)

#: Plant families, in rotation: generic, F = 0, one disturbance column
#: exactly decoupled (C e = 0 and f = 0), CE = 0, rank-one F, and a
#: repeated disturbance column, whose [E; F] is rank deficient.
KINDS = ("generic", "F = 0", "decoupled column", "CE = 0", "rank-one F",
         "repeated column")


def _fraction_rank(M) -> int:
    """Rank by Gaussian elimination over the rationals: the slow oracle."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(M)]
    rank_ = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank_, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for i in range(rank_ + 1, len(rows)):
            ratio = rows[i][c] / rows[rank_][c]
            rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[rank_])]
        rank_ += 1
    return rank_


def test_bareiss_rank_matches_rational_elimination():
    rng = np.random.default_rng(20261019)
    for trial in range(200):
        rows, cols = rng.integers(1, 9, size=2)
        k = int(rng.integers(0, min(rows, cols) + 1))
        # A product of integer factors has rank at most k; wide entries
        # (up to 40 bits) make the exact divisions do real work.
        bits = 40 if trial % 4 == 0 else 3
        M = (rng.integers(-2 ** bits, 2 ** bits, size=(rows, k))
             @ rng.integers(-3, 4, size=(k, cols)))
        if trial % 5 == 0:
            M[:, 0] = 0
        assert bareiss_rank(M) == _fraction_rank(M)
    assert bareiss_rank(np.zeros((0, 3))) == 0
    with pytest.raises(ValueError, match="integer"):
        bareiss_rank([[0.5]])


def _integer_plant(seed: int):
    """Integer (A, B, C, D, E, F) of family ``KINDS[seed % 6]``."""
    rng = np.random.default_rng([20261019, seed])
    kind = KINDS[seed % len(KINDS)]
    p = int(rng.integers(1, 4))
    r = 2 if kind == "repeated column" else int(rng.integers(0, 3))
    r = max(r, 1) if kind in ("decoupled column", "CE = 0") else r
    n = int(rng.integers(r + 1, 13))
    ints = lambda *shape: rng.integers(-3, 4, size=shape)
    A, B, C, D, E = ints(n, n), ints(n, 1), ints(p, n), ints(p, 1), ints(n, r)
    F = ints(p, r)
    if kind == "F = 0":
        F[:] = 0
    elif kind == "rank-one F":
        F = ints(p, 1) @ ints(1, r)
    elif kind == "repeated column":
        E[:, 1], F[:, 1] = E[:, 0], F[:, 0]
    elif kind == "decoupled column":
        # C e = 0 for e = E[:, 0] with e_0 = 1, and f = 0: the disturbance
        # reaches no output one step on.
        E[0, 0] = 1
        C[:, 0] = -(C[:, 1:] @ E[1:, 0])
        F[:, 0] = 0
    elif kind == "CE = 0":
        # E = [I; X] and C = [-Y X, Y] give CE = 0 exactly.
        E[:r] = np.eye(r, dtype=int)
        C[:, :r] = -(C[:, r:] @ E[r:])
    order = rng.permutation(n)
    E, A = E[order], A[np.ix_(order, order)]
    B, C = B[order], C[:, order]
    return kind, A, B, C, D, E, F


@pytest.mark.parametrize("seed", range(180))
def test_disturbance_ranks_match_exact_ranks(seed):
    kind, A, B, C, D, E, F = _integer_plant(seed)
    (n, r), p = E.shape, len(C)
    CE = C @ E
    if kind == "decoupled column":
        assert not CE[:, 0].any() and not F[:, 0].any()
    if kind == "CE = 0":
        assert not CE.any()
    EF = np.vstack([E, F])
    exact_EF = bareiss_rank(EF)
    assert balanced_rank(EF.astype(float), np.abs(EF))[0] == exact_EF
    args = [M.astype(float) for M in (A, B, C, D, E, F)]
    if exact_EF < r:
        # The constructor reads the same rank and refuses the plant.
        with pytest.raises(ValueError, match="rank-deficient"):
            StateSpaceModel(*args)
        return
    model = StateSpaceModel(*args)
    _, evidence = condition_b(model)
    block = np.block([[CE, F], [F, np.zeros((p, r), dtype=int)]])
    assert evidence["block_rank"] == bareiss_rank(block)
    assert evidence["rank_F"] == bareiss_rank(F)
    # model_kernel sets rho_E = r + rank(F) - rho_N by identity, with no
    # check of its own that it is not negative.
    assert evidence["block_rank"] <= r + evidence["rank_F"]
    M = np.block([[E, np.zeros((n, r), dtype=int)],
                  [F, np.zeros((p, r), dtype=int)], [CE, F]])
    ker = model_kernel(model)
    assert ker.k == n + 2 * p - bareiss_rank(M)
    # block is N with its two row blocks swapped.
    rank_vf = n - bareiss_rank(M) + bareiss_rank(block)
    assert ker.rank_V_f == rank_vf
    # The data route on the exact consistency matrix decides the same ranks,
    # and both kernels come in synthesis coordinates.
    Gamma = consistency_matrix(model)
    data_ker = kernel_representation(Gamma, (n, model.m, p))
    assert data_ker.k == 2 * (n + model.m + p) - bareiss_rank(Gamma)
    assert data_ker.rank_V_f == rank_vf
    for kernel in (ker, data_ker):
        if kernel.rank_V_f == n:
            assert np.array_equal(kernel.V_f, np.eye(kernel.k, n))
    try:
        design_from_model(model)
    except (NoUio, NumericalFailure) as exc:
        cause = getattr(exc, "cause", None)
    else:
        cause = None
    assert (cause == VF_RANK_DEFICIENT) == (rank_vf < n)


def test_exists_uio_reads_the_disturbance_structure_through_one_block(
        monkeypatch):
    # Condition (b) and the kernel decide two ranks, of F and of the
    # 2p x 2r block N, at the scale of their entries, once: the kernel
    # reads the ranks condition (b) decided, so N is factored exactly once.
    # Neither route takes an SVD or a norm of the (n + 2p) x 2r block
    # [[E, 0], N], of C or of E.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    model = workloads.corpus_model(60, 12, 20, 6, seed=1)
    n, p, r = model.n, model.p, model.r
    seen = []
    for name in ("svd", "norm"):
        original = getattr(np.linalg, name)

        def spy(a, *args, _original=original, _name=name, **kwargs):
            seen.append((_name, np.array(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    report = exists_uio(model)
    assert report.exists and report.agreement
    assert [name for name, a in seen if a.shape == (2 * p, 2 * r)].count(
        "svd") == 1
    for _, a in seen:
        assert a.shape != (n + 2 * p, 2 * r)
        assert not any(a.shape == M.shape and np.array_equal(a, M)
                       for M in (model.C, model.E))
