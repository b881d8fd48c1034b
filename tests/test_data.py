import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jse.data import (
    GROUPS,
    LabeledEmbeddings,
    SubspaceBasis,
    group_counts,
    orthonormal_check,
    project_onto,
    project_out,
)

from conftest import random_orthonormal


def group_ids(y_mt, y_sp) -> np.ndarray:
    """The group ids LabeledEmbeddings derives from the label pair."""
    return LabeledEmbeddings(np.zeros((len(y_mt), 1)), y_mt, y_sp).group


def test_group_encoding():
    y_mt = np.array([0, 0, 1, 1])
    y_sp = np.array([0, 1, 0, 1])
    assert group_ids(y_mt, y_sp).tolist() == [1, 2, 3, 4]


def test_group_all_zero():
    assert group_ids(np.zeros(5, int), np.zeros(5, int)).tolist() == [1] * 5


def test_group_counts_partition():
    rng = np.random.default_rng(0)
    y_mt = rng.integers(0, 2, 1000)
    y_sp = rng.integers(0, 2, 1000)
    g = group_ids(y_mt, y_sp)
    assert int(np.bincount(g, minlength=5)[1:].sum()) == 1000


def test_groups_table_names_each_group_code():
    """GROUPS[g - 1] is the label pair of group g, for all four pairs."""
    y_mt, y_sp = (np.array(col) for col in zip(*GROUPS))
    assert group_ids(y_mt, y_sp).tolist() == [1, 2, 3, 4]
    assert sorted(GROUPS) == [(a, b) for a in (0, 1) for b in (0, 1)]


@pytest.mark.parametrize("weighted", [False, True])
def test_group_counts_equal_the_mask_sums(weighted):
    rng = np.random.default_rng(3)
    g = group_ids(rng.integers(0, 2, 500), rng.integers(0, 2, 500))
    # 0/1 weights, as evaluate's hit counts pass, so every sum is exact
    w = rng.random(500) < 0.7 if weighted else np.ones(500, bool)
    got = group_counts(g, w if weighted else None)
    assert len(got) == len(GROUPS)
    for i, (y_mt, y_sp) in enumerate(GROUPS):
        assert got[i] == np.sum(w[g == 1 + 2 * y_mt + y_sp])
    assert group_counts(np.array([4, 4, 1])).tolist() == [1, 0, 0, 2]


@given(st.integers(0, 1), st.integers(0, 1))
def test_group_encoding_bijection(a, b):
    g = group_ids(np.array([a]), np.array([b]))[0]
    assert g == 1 + 2 * a + b
    assert 1 <= g <= 4


def test_group_errors():
    with pytest.raises(ValueError, match="labels must match"):
        group_ids(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError, match="non-binary"):
        group_ids(np.array([0, 2]), np.array([0, 1]))


def test_group_is_not_an_argument():
    with pytest.raises(TypeError):
        LabeledEmbeddings(np.zeros((2, 2)), [0, 1], [0, 1], group=np.array([9, 9]))


def test_labeled_embeddings_validation():
    with pytest.raises(ValueError):
        LabeledEmbeddings(np.zeros((0, 3)), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        LabeledEmbeddings(np.zeros((2, 3)), np.array([0]), np.array([0, 1]))
    data = LabeledEmbeddings(np.eye(2), np.array([0, 1]), np.array([1, 1]))
    assert data.group.tolist() == [2, 4]
    assert data.n == 2 and data.d == 2
    assert data.source == ""  # built in memory, not read from a file


@pytest.mark.parametrize("y_mt,y_sp,msg", [
    ([0.5, 1.0, 1.7], [0, 1, 0], "non-binary entry 0.5 in y_mt"),
    ([1.0, 0.0, 1.7], [0, 1, 0], "non-binary entry 1.7 in y_mt"),
    ([np.nan, 0, 1], [0, 1, 0], "non-binary entry nan in y_mt"),
    ([0, 1, 0], [0, 1, np.inf], "non-binary entry inf in y_sp"),
    ([0, 1, 0], [0, 2, 1], "non-binary entry 2 in y_sp"),
    ([0, -1, 0], [0, 1, 1], "non-binary entry -1 in y_mt"),
    (["0", "1", "1"], [0, 1, 0], "non-binary entry '0' in y_mt"),
])
def test_labeled_embeddings_rejects_non_binary_labels(y_mt, y_sp, msg):
    """Labels are checked before the int64 cast, so 0.5 or NaN is an error that
    names the field, not a truncated label."""
    with pytest.raises(ValueError) as exc:
        LabeledEmbeddings(np.zeros((3, 2)), y_mt, y_sp)
    assert str(exc.value) == msg


@pytest.mark.parametrize("y_mt,y_sp", [
    ([0.0, 1.0, 1.0], [1.0, 0.0, 1.0]),
    ([False, True, True], [True, False, True]),
    (np.array([0, 1, 1], dtype=np.uint8), np.array([1, 0, 1], dtype=np.int32)),
])
def test_labeled_embeddings_casts_binary_labels_to_int64(y_mt, y_sp):
    data = LabeledEmbeddings(np.zeros((3, 2)), y_mt, y_sp)
    for y in (data.y_mt, data.y_sp, data.group):
        assert y.dtype == np.int64
    assert data.y_mt.tolist() == [0, 1, 1] and data.y_sp.tolist() == [1, 0, 1]
    assert data.group.tolist() == [2, 3, 4]


def test_with_Z_equals_a_fresh_instance_bit_for_bit():
    rng = np.random.default_rng(5)
    data = LabeledEmbeddings(rng.standard_normal((30, 4)), rng.integers(0, 2, 30),
                             rng.integers(0, 2, 30), "train.csv")
    # a strided int view: with_Z must convert it to C-contiguous float64; d may change
    Z = rng.integers(-5, 5, (30, 12))[:, ::2]
    got = data.with_Z(Z)
    want = LabeledEmbeddings(Z, data.y_mt, data.y_sp)
    for name in ("Z", "y_mt", "y_sp", "group"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.Z.flags.c_contiguous and got.d == 6
    assert got.group is data.group  # the labels are shared, not validated again
    assert got.source == "train.csv"  # with_Z keeps the source
    with pytest.raises(ValueError, match="rows"):
        data.with_Z(np.zeros((29, 4)))
    with pytest.raises(ValueError, match="2-d"):
        data.with_Z(np.zeros(30))


def test_project_out_empty_basis_is_identity():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((4, 6))
    np.testing.assert_array_equal(project_out(Z, np.zeros((6, 0))), Z)


def test_project_out_coordinate():
    V = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(project_out(np.array([[3.0, 4.0]]), V), [[0.0, 4.0]])
    np.testing.assert_allclose(project_onto(np.array([[3.0, 4.0]]), V), [[3.0, 0.0]])


def test_project_onto_full_basis():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((5, 4))
    np.testing.assert_allclose(project_onto(Z, np.eye(4)), Z, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 50), st.data())
def test_projection_properties(seed, d, data):
    k = data.draw(st.integers(0, d))
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((8, d))
    V = random_orthonormal(rng, d, k)
    out = project_out(Z, V)
    on = project_onto(Z, V)
    # idempotence, additive decomposition, rows orthogonal to the basis
    np.testing.assert_allclose(project_out(out, V), out, atol=1e-10)
    np.testing.assert_allclose(out + on, Z, atol=1e-10)
    if k:
        assert np.max(np.abs(out @ V)) < 1e-6
    # removal never increases a row norm
    assert np.all(np.linalg.norm(out, axis=1) <= np.linalg.norm(Z, axis=1) + 1e-12)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_projections_bitwise_equal_matmul_chain(k):
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((200, 20))
    V = random_orthonormal(rng, 20, k)
    on = (Z @ V) @ V.T
    assert project_onto(Z, V).tobytes() == on.tobytes()
    assert project_out(Z, V).tobytes() == (Z - on).tobytes()


def test_projection_errors():
    Z = np.zeros((2, 3))
    with pytest.raises(ValueError, match="orthonormal"):
        project_out(Z, np.ones((3, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        project_out(Z, np.eye(4))


def test_orthonormal_check():
    assert orthonormal_check(np.eye(3)[:, :2], 1e-8)
    dup = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0]])
    assert not orthonormal_check(dup, 1e-6)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    assert orthonormal_check(q, 1e-8)
    gram = q.T @ q
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-8


def test_subspace_basis_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        SubspaceBasis(np.ones((3, 2)))
    b = SubspaceBasis(np.zeros((5, 0)))
    assert b.k == 0
