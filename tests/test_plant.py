"""Model and observer containers, their validation at construction,
stepping, and the consistency matrix."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uiokit.numkit import rank
from uiokit.plant import (
    _UIO_KEYS,
    ModelFormatError,
    StateSpaceModel,
    UioRealization,
    _require_same_dims,
    consistency_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    step,
)


def _random_model(seed: int) -> StateSpaceModel:
    """Random valid model with mixed dimensions (including m = 0, r = 0)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 3))
    p = int(rng.integers(1, 4))
    r = int(rng.integers(0, min(p, 2) + 1))
    while True:
        E = rng.normal(size=(n, r))
        F = rng.normal(size=(p, r))
        if rank(np.vstack([E, F])) == r:
            break
    return StateSpaceModel(
        A=rng.normal(size=(n, n)),
        B=rng.normal(size=(n, m)),
        C=rng.normal(size=(p, n)),
        D=rng.normal(size=(p, m)),
        E=E,
        F=F,
    )


# ------------------------------------------- validation at construction
# A model checks itself once, when it is built; the refusal lists the
# violations after "invalid model: ".


def test_validate_accepts_bundled_model(ref_model):
    assert replace(ref_model).n == 3


def test_validate_flags_rank_deficient_disturbance_map(ref_model):
    with pytest.raises(ValueError, match=r"^invalid model: disturbance map "
                       r"rank-deficient: rank \[E; F\] = 0 < r = 1$"):
        replace(ref_model, E=np.zeros((3, 1)), F=np.zeros((2, 1)))


def test_validate_flags_dimension_mismatch(ref_model):
    with pytest.raises(ValueError, match=r"^invalid model: dimension "
                       r"mismatch: B must be 3x1, got \(2, 1\)$"):
        replace(ref_model, B=np.zeros((2, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_flags_non_finite_entries_matrix_by_matrix(ref_model, bad):
    A = ref_model.A.copy()
    F = ref_model.F.copy()
    A[1, 2] = bad
    F[0, 0] = bad
    # Reported before, and instead of, any rank decision on [E; F].
    with pytest.raises(ValueError) as err:
        replace(ref_model, A=A, F=F)
    assert str(err.value) == ("invalid model: non-finite entries in A; "
                              "non-finite entries in F")


def test_validate_flags_entries_whose_products_overflow(ref_model):
    # Every entry is finite, but C @ E is not.
    with pytest.raises(ValueError) as err:
        replace(ref_model, C=ref_model.C * 1e300, E=ref_model.E * 1e10)
    assert str(err.value) == (
        "invalid model: entries too large: the squared Frobenius norm of "
        "[[A, B, E], [C, D, F]] overflows, and so can products such as CA "
        "and CE; rescale the model"
    )
    scaled = StateSpaceModel(*(getattr(ref_model, key) * 1e150
                               for key in ("A", "B", "C", "D", "E", "F")))
    assert scaled.n == 3


def test_construction_raises_with_all_violations(ref_model):
    with pytest.raises(ValueError) as err:
        replace(ref_model, B=np.zeros((2, 1)), D=np.zeros((2, 2)))
    assert str(err.value) == (
        "invalid model: dimension mismatch: B must be 3x1, got (2, 1); "
        "dimension mismatch: D must be 2x1, got (2, 2)")


def test_model_keeps_read_only_copies(ref_model):
    mats = {key: getattr(ref_model, key).copy() for key in "ABCDEF"}
    model = StateSpaceModel(**mats)
    for key, given in mats.items():
        stored = getattr(model, key)
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, given)
        assert given.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0
    mats["A"][0, 0] = 99.0
    assert model.A[0, 0] == ref_model.A[0, 0]


@pytest.mark.parametrize("key", _UIO_KEYS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_observer_refuses_non_finite_entries(ref_uio, key, bad):
    M = getattr(ref_uio, key).copy()
    M.flat[0] = bad
    with pytest.raises(ValueError,
                       match=f'^field "{key}" has non-finite entries$'):
        replace(ref_uio, **{key: M})


@pytest.mark.parametrize("fields, message", [
    ({"A_uio": np.zeros((3, 2))}, "A_uio must be square"),
    ({"B_u": np.zeros((2, 1))}, 'field "B_u" must have 3 rows'),
    ({"D_y": np.zeros((4, 2))}, 'field "D_y" must have 3 rows'),
    ({"D_u": np.zeros((3, 2))}, "B_u and D_u must have equal width"),
    ({"B_y": np.zeros((3, 1))}, "B_y and D_y must have equal width"),
    ({"B_u": np.zeros(3)}, r"B_u must be a 2-D matrix, got shape \(3,\)"),
], ids=["square", "rows-B_u", "rows-D_y", "width-u", "width-y", "ndim"])
def test_observer_refuses_inconsistent_shapes(ref_uio, fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(ref_uio, **fields)


def test_observer_keeps_read_only_copies(ref_uio):
    mats = {key: getattr(ref_uio, key).copy() for key in _UIO_KEYS}
    uio = UioRealization(**mats)
    for key, given in mats.items():
        assert not getattr(uio, key).flags.writeable
        assert given.flags.writeable
        assert not np.shares_memory(getattr(uio, key), given)


def test_same_dims_check_names_both_triples(ref_model, ref_uio):
    _require_same_dims(ref_model, ref_uio)
    small = UioRealization(A_uio=np.zeros((2, 2)), B_u=np.zeros((2, 1)),
                           B_y=np.zeros((2, 2)), D_u=np.zeros((2, 1)),
                           D_y=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"observer dims \(n, m, p\) = "
                       r"\(2, 1, 2\) do not match model dims \(3, 1, 2\)"):
        _require_same_dims(ref_model, small)


# ---------------------------------------------------------------- step


def test_step_zero_everything(ref_model):
    x_next, y = step(ref_model, np.zeros(3), np.zeros(1), np.zeros(1))
    assert_allclose(x_next, np.zeros(3))
    assert_allclose(y, np.zeros(2))


def test_step_reads_first_columns(ref_model):
    x_next, y = step(ref_model, np.array([1.0, 0.0, 0.0]), np.zeros(1),
                     np.zeros(1))
    assert_allclose(x_next, np.array([1.0, 2.0, 1.0]))
    assert_allclose(y, np.array([1.0, 1.0]))


def test_step_disturbance_columns(ref_model):
    x_next, y = step(ref_model, np.zeros(3), np.zeros(1), np.array([1.0]))
    assert_allclose(x_next, ref_model.E[:, 0])
    assert_allclose(y, ref_model.F[:, 0])


def test_step_rejects_wrong_lengths(ref_model):
    with pytest.raises(ValueError):
        step(ref_model, np.zeros(2), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        step(ref_model, np.zeros(3), np.zeros(2), np.zeros(1))


# ------------------------------------------------- consistency matrix


def test_consistency_matrix_zero_model():
    model = StateSpaceModel(
        A=np.zeros((1, 1)), B=np.zeros((1, 1)),
        C=np.zeros((1, 1)), D=np.zeros((1, 1)),
        E=np.zeros((1, 1)), F=np.ones((1, 1)),
    )
    Gamma = consistency_matrix(model)
    assert Gamma.shape == (6, 5)
    assert_allclose(Gamma[0], [1.0, 0.0, 0.0, 0.0, 0.0])   # x row
    assert_allclose(Gamma[1], np.zeros(5))                  # x+ row
    assert_allclose(Gamma[2], [0.0, 1.0, 0.0, 0.0, 0.0])   # u row
    assert_allclose(Gamma[3], [0.0, 0.0, 1.0, 0.0, 0.0])   # u+ row
    assert_allclose(Gamma[4], [0.0, 0.0, 0.0, 1.0, 0.0])   # y = F d
    assert_allclose(Gamma[5], [0.0, 0.0, 0.0, 0.0, 1.0])   # y+ = F d+


def test_consistency_matrix_bundled_blocks(ref_model):
    A, B, C, D = ref_model.A, ref_model.B, ref_model.C, ref_model.D
    E, F = ref_model.E, ref_model.F
    Gamma = consistency_matrix(ref_model)
    assert Gamma.shape == (12, 7)
    z31 = np.zeros((3, 1))
    z21 = np.zeros((2, 1))
    expected = np.vstack([
        np.hstack([np.eye(3), z31, z31, z31, z31]),
        np.hstack([A, B, z31, E, z31]),
        np.hstack([np.zeros((1, 3)), [[1.0]], [[0.0]], [[0.0]], [[0.0]]]),
        np.hstack([np.zeros((1, 3)), [[0.0]], [[1.0]], [[0.0]], [[0.0]]]),
        np.hstack([C, D, z21, F, z21]),
        np.hstack([C @ A, C @ B, D, C @ E, F]),
    ])
    assert_allclose(Gamma, expected)
    assert rank(Gamma) == 7


@pytest.mark.parametrize("seed", range(100))
def test_consistency_matrix_rank_formula(seed):
    # generator map is injective exactly on states, inputs, and the part of
    # the disturbance visible through [E; F]'s second copy: the second-step
    # disturbance enters only through F
    model = _random_model(seed)
    Gamma = consistency_matrix(model)
    expected = model.n + 2 * model.m + model.r + rank(model.F)
    assert rank(Gamma) == expected
    if rank(model.F) == model.r:
        assert rank(Gamma) == model.n + 2 * model.m + 2 * model.r


@pytest.mark.parametrize("seed", range(100))
def test_generated_windows_lie_in_consistency_image(seed):
    rng = np.random.default_rng(seed)
    model = _random_model(seed % 17)
    Gamma = consistency_matrix(model)
    x = rng.normal(size=model.n)
    u, u_next = rng.normal(size=model.m), rng.normal(size=model.m)
    d, d_next = rng.normal(size=model.r), rng.normal(size=model.r)
    x_next, y = step(model, x, u, d)
    y_next = model.C @ x_next + model.D @ u_next + model.F @ d_next
    w = np.concatenate([x, x_next, u, u_next, y, y_next])
    coeff, *_ = np.linalg.lstsq(Gamma, w, rcond=None)
    resid = np.linalg.norm(Gamma @ coeff - w)
    assert resid < 1e-9 * (1.0 + np.linalg.norm(w))


# -------------------------------------------------------- persistence


def test_model_round_trip(tmp_path, ref_model):
    path = tmp_path / "model.json"
    save_model(path, ref_model)
    loaded = load_model(path)
    for key in ("A", "B", "C", "D", "E", "F"):
        assert_allclose(getattr(loaded, key), getattr(ref_model, key))
    assert loaded.name == ref_model.name


def test_model_dict_round_trip(ref_model):
    again = model_from_dict(model_to_dict(ref_model))
    assert_allclose(again.A, ref_model.A)


def test_model_from_dict_rejects_missing_field(ref_model):
    doc = model_to_dict(ref_model)
    del doc["C"]
    with pytest.raises(ModelFormatError, match="C"):
        model_from_dict(doc)


def test_model_from_dict_rejects_ragged_rows(ref_model):
    doc = model_to_dict(ref_model)
    doc["A"] = [[1.0, 2.0], [3.0]]
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


def test_model_from_dict_rejects_non_numeric(ref_model):
    doc = model_to_dict(ref_model)
    doc["B"] = [["x"], [0.0], [1.0]]
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


@pytest.mark.parametrize("entry, message", [
    ("1.5", "non-numeric entries"), (True, "non-numeric entries"),
    (10 ** 400, "integer beyond the float64 range"),
], ids=["string", "bool", "huge-int"])
def test_model_from_dict_takes_only_json_numbers(ref_model, entry, message):
    # numpy would turn "1.5" and true into numbers and overflow on the int.
    doc = model_to_dict(ref_model)
    doc["A"][0][0] = entry
    with pytest.raises(ModelFormatError, match=f'field "A" has .*{message}'):
        model_from_dict(doc)


def test_model_from_dict_rejects_invalid_model(ref_model):
    doc = model_to_dict(ref_model)
    doc["E"] = [[0.0], [0.0], [0.0]]
    doc["F"] = [[0.0], [0.0]]
    with pytest.raises(ModelFormatError, match="rank"):
        model_from_dict(doc)


def test_model_from_dict_rejects_non_finite_model(ref_model):
    doc = model_to_dict(ref_model)
    doc["A"][0][0] = float("nan")
    with pytest.raises(ModelFormatError, match="non-finite entries in A"):
        model_from_dict(doc)


def test_model_from_dict_rejects_non_object():
    with pytest.raises(ModelFormatError):
        model_from_dict([1, 2, 3])
