"""Haar sampling, group element validation, actions, rotation derivative."""

import numpy as np
import pytest

from gte.groups import (
    GroupElement,
    act,
    act_dense,
    flavor_for_class,
    givens_rotation,
    haar_sample,
    symplectic_form,
    theta_derivative,
    _GROUPS,
    _act_stack,
    _check_members,
    _haar_matrices,
    _leg_matrices,
    _sweep_sizes,
)
from conftest import (oracle_act_stack, oracle_haar_embed, oracle_leg_matrices,
                      oracle_symplectic_form, random_tensor)
from gte.ensembles import EnsembleSpec, sample
from gte.tensor import (
    CLASS_TAGS,
    CanonicalTensor,
    ClassViolationError,
    canonical_indices,
    class_count,
    densify,
    frobenius_norm_sq,
    identity_tensor,
    _class_info,
)


def test_flavor_for_class():
    assert flavor_for_class("sym") == "orthogonal"
    assert flavor_for_class("antisym") == "orthogonal"
    assert flavor_for_class("herm") == "unitary"
    assert flavor_for_class("selfdual") == "symplectic"
    with pytest.raises(ValueError):
        flavor_for_class("nope")


def test_haar_orthogonal_properties():
    rng = np.random.default_rng(0)
    for N in (1, 2, 3, 5):
        g = haar_sample("orthogonal", N, rng)
        M = g.matrix
        assert M.dtype == np.float64
        assert np.allclose(M.T @ M, np.eye(N), atol=1e-12)


def test_haar_unitary_properties():
    rng = np.random.default_rng(1)
    for N in (1, 2, 4):
        M = haar_sample("unitary", N, rng).matrix
        assert np.allclose(M.conj().T @ M, np.eye(N), atol=1e-12)


def test_haar_symplectic_properties():
    rng = np.random.default_rng(2)
    for N in (1, 2, 3):
        M = haar_sample("symplectic", N, rng).matrix
        J = symplectic_form(N)
        assert M.shape == (2 * N, 2 * N)
        assert np.allclose(M.conj().T @ M, np.eye(2 * N), atol=1e-10)
        assert np.allclose(M.T @ J @ M, J, atol=1e-10)


def test_haar_orthogonal_rotation_invariance_of_first_column():
    """The first column should be uniform on the sphere: its first coordinate
    has mean 0 and variance 1/N."""
    rng = np.random.default_rng(3)
    N = 3
    xs = np.array([haar_sample("orthogonal", N, rng).matrix[0, 0]
                   for _ in range(4000)])
    assert abs(xs.mean()) < 4.0 / np.sqrt(4000)
    assert abs(xs.var() - 1.0 / N) < 0.03


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement("orthogonal", np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GroupElement("unitary", np.array([[2.0 + 0j]]))
    ok = GroupElement("orthogonal", np.eye(3))
    assert ok.N == 3
    sp = GroupElement("symplectic", np.eye(4, dtype=complex))
    assert sp.N == 2  # quaternionic dimension, not matrix size
    with pytest.raises(ValueError):
        GroupElement("symplectic", np.eye(3, dtype=complex))  # odd size


def test_orthogonal_element_refuses_imaginary_parts():
    with pytest.raises(ValueError, match="imaginary"):
        GroupElement("orthogonal", np.array([[1 + 0.5j, 0], [0, 1 - 3j]]))
    real = GroupElement("orthogonal", np.eye(2, dtype=complex)).matrix
    assert real.dtype == float and np.array_equal(real, np.eye(2))


def test_givens_rotation_block():
    g = givens_rotation(0.3, 3, "orthogonal")
    c, s = np.cos(0.3), np.sin(0.3)
    expect = np.eye(3)
    expect[:2, :2] = [[c, s], [-s, c]]
    assert np.allclose(g.matrix, expect)
    u = givens_rotation(0.3, 3, "unitary")
    assert np.allclose(u.matrix, expect)


def test_givens_rotation_symplectic_embeds_quaternion_block():
    # cos(theta)*1 - sin(theta)*e2 acting on the first quaternionic coordinate
    g = givens_rotation(0.5, 1, "symplectic")
    c, s = np.cos(0.5), np.sin(0.5)
    assert np.allclose(g.matrix, np.array([[c, s], [-s, c]], dtype=complex))
    J = symplectic_form(1)
    assert np.allclose(g.matrix.T @ J @ g.matrix, J, atol=1e-12)
    g2 = givens_rotation(0.5, 2, "symplectic")
    assert g2.matrix.shape == (4, 4)
    assert np.allclose(g2.matrix[2:, 2:], np.eye(2))


def test_group_elements_compare_and_hash_by_identity():
    g = GroupElement("orthogonal", np.eye(2))
    h = GroupElement("orthogonal", np.eye(2))
    assert g == g and g != h
    assert len({g, h}) == 2 and g in {g}


# -- the group records, against the classes and the hand-written oracles ---


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_group_record_matches_its_classes(tag):
    info = _class_info(tag)
    group = _GROUPS[info.group]
    assert group.dim_factor == info.dim_factor
    assert densify(random_tensor(tag, 2, 2, np.random.default_rng(0))).dtype == group.units.dtype


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_symplectic_form_is_byte_identical_to_the_loop(N):
    J = symplectic_form(N)
    assert J.dtype == float and J.tobytes() == oracle_symplectic_form(N).tobytes()


@pytest.mark.parametrize("flavor", ["orthogonal", "unitary", "symplectic"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("B", [1, 64])
def test_haar_embedding_is_byte_identical_to_the_hand_written_blocks(flavor, N, B):
    group = _GROUPS[flavor]
    normals = np.random.default_rng(N * B).standard_normal((B, len(group.units), N, N))
    expect = oracle_haar_embed(flavor, normals)
    got = group.embed(normals)
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("flavor", ["orthogonal", "unitary", "symplectic"])
@pytest.mark.parametrize("p", [2, 4, 6])
def test_leg_matrices_are_byte_identical_to_the_per_flavor_rule(flavor, p):
    group = _GROUPS[flavor]
    normals = np.random.default_rng(p).standard_normal((8, len(group.units), 3, 3))
    mats = _haar_matrices(flavor, normals)
    _check_members(flavor, mats)
    got, expect = _leg_matrices(flavor, mats, p), oracle_leg_matrices(flavor, mats, p)
    assert [m.tobytes() for m in got] == [m.tobytes() for m in expect]


# -- basic action properties ------------------------------------------------


def test_act_p1_is_matrix_action():
    rng = np.random.default_rng(4)
    t = random_tensor("sym", 1, 3, rng)
    g = haar_sample("orthogonal", 3, rng)
    out = act(g, t)
    assert np.allclose(out.values, g.matrix.T @ t.values) or np.allclose(
        out.values, g.matrix @ t.values)


def test_act_p2_sym_is_congruence():
    rng = np.random.default_rng(5)
    t = random_tensor("sym", 2, 3, rng)
    g = haar_sample("orthogonal", 3, rng)
    M = densify(t)
    out = densify(act(g, t))
    U = g.matrix
    assert np.allclose(out, U.T @ M @ U, atol=1e-12) or np.allclose(
        out, U @ M @ U.T, atol=1e-12)


def test_act_composition():
    rng = np.random.default_rng(6)
    t = random_tensor("sym", 3, 2, rng)
    g1 = haar_sample("orthogonal", 2, rng)
    g2 = haar_sample("orthogonal", 2, rng)
    lhs = act(g2, act(g1, t))
    prod = GroupElement("orthogonal", g1.matrix @ g2.matrix)
    rhs = act(prod, t)
    assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_act_identity_element_is_identity():
    rng = np.random.default_rng(7)
    for class_tag, N in [("sym", 2), ("antisym", 3), ("herm", 2), ("selfdual", 2)]:
        p = {"sym": 3, "antisym": 2, "herm": 2, "selfdual": 2}[class_tag]
        t = random_tensor(class_tag, p, N, rng)
        flavor = flavor_for_class(class_tag)
        size = 2 * N if flavor == "symplectic" else N
        dtype = float if flavor == "orthogonal" else complex
        e = GroupElement(flavor, np.eye(size, dtype=dtype))
        out = act(e, t)
        for key in t.data:
            assert np.allclose(out.component(key), t.component(key))


def test_act_dense_preserves_frobenius_norm():
    """Each flavor's dense action is an isometry of the ambient space."""
    rng = np.random.default_rng(8)
    cases = [("sym", 3, 2), ("antisym", 2, 3), ("herm", 4, 2), ("selfdual", 6, 2)]
    for class_tag, p, N, in cases:
        t = random_tensor(class_tag, p, N, rng)
        g = haar_sample(flavor_for_class(class_tag), N, rng)
        d = act_dense(g, t)
        assert float(np.sum(np.abs(d) ** 2)) == pytest.approx(
            frobenius_norm_sq(t), rel=1e-10)


def test_act_orthogonal_preserves_sym_class_all_orders():
    rng = np.random.default_rng(9)
    for p in (1, 2, 3, 4, 5):
        t = random_tensor("sym", p, 3, rng)
        g = haar_sample("orthogonal", 3, rng)
        act(g, t)  # canonicalize inside would raise on violation


def test_act_orthogonal_preserves_antisym_class():
    rng = np.random.default_rng(10)
    t = random_tensor("antisym", 3, 3, rng)
    g = haar_sample("orthogonal", 3, rng)
    act(g, t)


def test_act_unitary_preserves_herm_at_p2():
    rng = np.random.default_rng(11)
    t = random_tensor("herm", 2, 3, rng)
    g = haar_sample("unitary", 3, rng)
    out = act(g, t)
    M = densify(t)
    U = g.matrix
    got = densify(out)
    assert np.allclose(got, U.conj().T @ M @ U, atol=1e-12) or np.allclose(
        got, U.T @ M @ U.conj(), atol=1e-12)


def test_act_symplectic_preserves_selfdual_at_p2():
    rng = np.random.default_rng(12)
    for N in (1, 2, 3):
        t = random_tensor("selfdual", 2, N, rng)
        g = haar_sample("symplectic", N, rng)
        act(g, t)


def test_unitary_action_leaves_herm_class_at_p4():
    """The alternating-conjugation action does not preserve full hermitian
    symmetry beyond matrices; the strict action must say so rather than
    silently project."""
    rng = np.random.default_rng(13)
    t = random_tensor("herm", 4, 2, rng)
    g = haar_sample("unitary", 2, rng)
    with pytest.raises(ClassViolationError):
        act(g, t)
    # the dense action is still well-defined and isometric
    d = act_dense(g, t)
    assert float(np.sum(np.abs(d) ** 2)) == pytest.approx(
        frobenius_norm_sq(t), rel=1e-10)


def test_symplectic_action_leaves_selfdual_class_at_p6():
    rng = np.random.default_rng(14)
    t = random_tensor("selfdual", 6, 2, rng)
    g = haar_sample("symplectic", 2, rng)
    with pytest.raises(ClassViolationError):
        act(g, t)


def test_unitary_action_keeps_slot_pair_exchange_symmetry_at_p4():
    """What survives at p=4: invariance under swapping the two slot pairs
    (legs 1,2 with legs 3,4)."""
    rng = np.random.default_rng(15)
    t = random_tensor("herm", 4, 2, rng)
    g = haar_sample("unitary", 2, rng)
    d = act_dense(g, t)
    assert np.allclose(d, np.transpose(d, (2, 3, 0, 1)), atol=1e-10)


def test_act_flavor_and_dimension_mismatch():
    rng = np.random.default_rng(16)
    t = random_tensor("sym", 2, 2, rng)
    with pytest.raises(ValueError):
        act(haar_sample("unitary", 2, rng), t)
    with pytest.raises(ValueError):
        act(haar_sample("orthogonal", 3, rng), t)


def test_act_dense_shape_check():
    g = GroupElement("orthogonal", np.eye(2))
    with pytest.raises(ValueError):
        act_dense(g, np.zeros((3, 3)), 2)


# -- theta derivative -------------------------------------------------------


@pytest.mark.parametrize("kind,p,N,tiled", [
    ("GOTE", 6, 8, True), ("GOTE", 7, 6, True), ("GOTE", 8, 5, True), ("GOTE", 2, 400, False),
    ("GUTE", 6, 8, False), ("GSTE", 6, 4, False),
], ids=lambda v: str(v))
def test_act_dense_matches_the_one_leg_oracle_byte_for_byte(kind, p, N, tiled):
    rng = np.random.default_rng(p * 1000 + N)
    t = sample(EnsembleSpec(kind, p, N), rng)
    g = haar_sample(flavor_for_class(t.class_tag), N, rng)
    d = densify(t)
    assert (len(_sweep_sizes(p, len(g.matrix), np.result_type(d, g.matrix))) < p) == tiled
    want = oracle_act_stack(g.flavor, g.matrix[None], d[None], p)[0]
    assert act_dense(g, t).tobytes() == want.tobytes()


def test_tiled_action_matches_the_oracle_on_transposed_inputs_and_stacks():
    rng = np.random.default_rng(3)
    mats = np.stack([haar_sample("orthogonal", 8, rng).matrix for _ in range(2)])
    dense = rng.standard_normal((2,) + (8,) * 6)
    dense[0, 0] = -0.0
    transposed = dense[0].T
    assert not transposed.flags.c_contiguous
    want = oracle_act_stack("orthogonal", mats[:1], transposed[None], 6)[0]
    assert act_dense(GroupElement("orthogonal", mats[0]), transposed, 6).tobytes() == want.tobytes()
    want = oracle_act_stack("orthogonal", mats, dense, 6)
    assert _act_stack("orthogonal", mats, dense, 6).tobytes() == want.tobytes()


def test_theta_derivative_p1_oracle():
    # d/dtheta at 0 of the plane rotation sends (x, y, z) -> (-y, x, 0)
    t = CanonicalTensor("sym", 1, 3, {(): np.array([2.0, 5.0, -1.0])})
    d = theta_derivative(t)
    got = d.values
    assert np.allclose(got, [-5.0, 2.0, 0.0]) or np.allclose(got, [5.0, -2.0, 0.0])


def test_theta_derivative_matches_finite_difference():
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(40):
        p = int(rng.integers(1, 5))
        N = int(rng.integers(2, 4))
        t = random_tensor("sym", p, N, rng)
        analytic = densify(theta_derivative(t))
        up = act_dense(givens_rotation(h, N, "orthogonal"), t)
        dn = act_dense(givens_rotation(-h, N, "orthogonal"), t)
        assert np.max(np.abs(analytic - (up - dn) / (2 * h))) <= 1e-6


def test_theta_derivative_vanishes_off_rotation_plane():
    # support away from coordinates 1,2 is untouched by the rotation
    K = class_count(2, 3)
    vals = np.zeros(K)
    idx = list(canonical_indices(2, 3))
    vals[idx.index((2, 2))] = 3.0
    t = CanonicalTensor("sym", 2, 3, {(): vals})
    assert np.allclose(densify(theta_derivative(t)), 0.0)


def test_theta_derivative_identity_tensor_is_zero():
    # the order-2 identity is rotation invariant
    assert np.allclose(densify(theta_derivative(identity_tensor(2, 3))), 0.0,
                       atol=1e-12)


def test_theta_derivative_rejects_other_classes():
    rng = np.random.default_rng(18)
    with pytest.raises(ValueError):
        theta_derivative(random_tensor("herm", 2, 2, rng))
