"""Model container, validation, stepping, and the consistency matrix."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uiokit.numkit import rank
from uiokit.plant import (
    ModelFormatError,
    StateSpaceModel,
    consistency_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    require_valid,
    save_model,
    step,
    validate,
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


# ----------------------------------------------------------- validate


def test_validate_accepts_bundled_model(ref_model):
    assert validate(ref_model) == []


def test_validate_flags_rank_deficient_disturbance_map(ref_model):
    bad = StateSpaceModel(ref_model.A, ref_model.B, ref_model.C, ref_model.D,
                          E=np.zeros((3, 1)), F=np.zeros((2, 1)))
    messages = validate(bad)
    assert any("disturbance map rank-deficient" in msg for msg in messages)


def test_validate_flags_dimension_mismatch(ref_model):
    bad = StateSpaceModel(ref_model.A, np.zeros((2, 1)), ref_model.C,
                          ref_model.D, ref_model.E, ref_model.F)
    messages = validate(bad)
    assert any("dimension mismatch" in msg for msg in messages)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_flags_non_finite_entries_matrix_by_matrix(ref_model, bad):
    A = ref_model.A.copy()
    F = ref_model.F.copy()
    A[1, 2] = bad
    F[0, 0] = bad
    model = StateSpaceModel(A, ref_model.B, ref_model.C, ref_model.D,
                            ref_model.E, F)
    # Reported before, and instead of, any rank decision on [E; F].
    assert validate(model) == ["non-finite entries in A",
                               "non-finite entries in F"]


def test_validate_flags_entries_whose_products_overflow(ref_model):
    # Every entry is finite, but C @ E is not.
    big = StateSpaceModel(A=ref_model.A, B=ref_model.B, C=ref_model.C * 1e300,
                          D=ref_model.D, E=ref_model.E * 1e10, F=ref_model.F)
    assert validate(big) == [
        "entries too large: the squared Frobenius norm of "
        "[[A, B, E], [C, D, F]] overflows, and so can products such as CA "
        "and CE; rescale the model"
    ]
    scaled = StateSpaceModel(*(getattr(ref_model, key) * 1e150
                               for key in ("A", "B", "C", "D", "E", "F")))
    assert validate(scaled) == []


def test_require_valid_raises_with_all_violations(ref_model):
    bad = StateSpaceModel(ref_model.A, np.zeros((2, 1)), ref_model.C,
                          ref_model.D, np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        require_valid(bad)


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
