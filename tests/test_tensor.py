"""Canonical storage, multiplicities, dense forms, class projections."""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import (component_is_symmetric, is_paired, multiplicity, random_tensor,
                      sort_with_sign)
from gte.tensor import (
    CLASS_TAGS,
    CanonicalTensor,
    ClassViolationError,
    MAX_DENSE_ENTRIES,
    QUATERNION_UNITS,
    canonical_indices,
    canonicalize,
    class_count,
    densify,
    flatten_isometry,
    frobenius_norm_sq,
    identity_tensor,
    multiplicities,
    paired_mask,
    shifted_by_identity,
    unflatten_isometry,
    zeros,
    _canonical_flat,
    _check_dense_size,
    _class_info,
    _dense_tables,
    _repeated_mask,
)
from gte.cli import run
from gte.ensembles import EnsembleSpec, sample_batch
from gte.serialize import dumps_tensor, loads_tensor


# -- combinatorics ---------------------------------------------------------


def test_multiplicity_values():
    assert multiplicity((0, 0)) == 1
    assert multiplicity((0, 1)) == 2
    assert multiplicity((0, 0, 1, 1)) == 6
    assert multiplicity((0, 1, 2)) == 6
    assert multiplicity((2, 2, 2)) == 1


def test_multiplicities_sum_to_dense_size():
    for p in range(1, 6):
        for N in range(1, 4):
            assert multiplicities(p, N).sum() == N ** p
            assert class_count(p, N) == math.comb(N + p - 1, p)
            assert len(canonical_indices(p, N)) == class_count(p, N)


def test_canonical_indices_sorted_unique():
    idx = canonical_indices(3, 3)
    assert all(tuple(sorted(m)) == m for m in idx)
    assert len(set(idx)) == len(idx)
    assert idx == tuple(sorted(idx))


def test_is_paired():
    assert is_paired((0, 0))
    assert is_paired((1, 1, 0, 0))
    assert not is_paired((0, 1))
    assert not is_paired((0, 0, 0))  # odd count


def test_sort_with_sign():
    assert sort_with_sign((0, 1)) == ((0, 1), 1)
    assert sort_with_sign((1, 0)) == ((0, 1), -1)
    assert sort_with_sign((2, 1, 0)) == ((0, 1, 2), -1)
    assert sort_with_sign((0, 2, 1)) == ((0, 1, 2), -1)
    # repeated indices report sign 0: antisymmetric entries vanish there
    assert sort_with_sign((1, 1, 0)) == ((0, 1, 1), 0)


def _dense_tables_loop(p, N):
    """Reference: the tables built one dense position at a time."""
    positions = {m: k for k, m in enumerate(canonical_indices(p, N))}
    cls = np.empty(N**p, dtype=np.int64)
    sgn = np.empty(N**p, dtype=np.int8)
    for flat, tup in enumerate(itertools.product(range(N), repeat=p)):
        srt, s = sort_with_sign(tup)
        cls[flat] = positions[srt]
        sgn[flat] = s
    rep = np.array([np.ravel_multi_index(m, (N,) * p) for m in canonical_indices(p, N)],
                   dtype=np.int64)
    return cls, sgn, rep


@pytest.mark.parametrize("p,N", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 4),
                                 (5, 3), (6, 2), (6, 5), (6, 8)])
def test_dense_tables_match_the_loop(p, N):
    head, cls, sgn = _dense_tables(p, N)
    # row head[a] of the factored tables is the tail of every dense
    # position whose head is a; the class rows are not repeated for the sign
    expanded = (cls[head % len(cls)].reshape(-1), sgn[head].reshape(-1), _canonical_flat(p, N))
    for got, want in zip(expanded, _dense_tables_loop(p, N)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for table in (head, cls, sgn, _canonical_flat(p, N)):
        assert not table.flags.writeable


def _class_tables_loop(p, N):
    """Reference: the class vectors built one canonical tuple at a time from
    the per-tuple oracles."""
    idx = tuple(itertools.combinations_with_replacement(range(N), p))
    return idx, [
        np.array([multiplicity(m) for m in idx], dtype=float),
        np.array([is_paired(m) for m in idx]),
        np.array([len(set(m)) < len(m) for m in idx]),
    ]


@pytest.mark.parametrize("p,N", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 4),
                                 (5, 3), (6, 2), (6, 5), (6, 8),
                                 (1, 50), (2, 40), (12, 2), (63, 1)])
def test_class_tables_match_the_per_tuple_oracle(p, N):
    idx, want = _class_tables_loop(p, N)
    assert canonical_indices(p, N) == idx
    assert all(type(i) is int for m in canonical_indices(p, N) for i in m)
    got = [multiplicities(p, N), paired_mask(p, N), _repeated_mask(p, N)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
        assert not g.flags.writeable


def test_class_tables_closed_form_at_order_two():
    N = 1024
    K = class_count(2, N)
    # class (i, i) sits after the N - a classes (a, a..N-1) of every a < i
    diag = np.zeros(K, dtype=bool)
    diag[[i * N - i * (i - 1) // 2 for i in range(N)]] = True
    assert np.array_equal(multiplicities(2, N), np.where(diag, 1.0, 2.0))
    assert np.array_equal(paired_mask(2, N), diag)
    assert np.array_equal(_repeated_mask(2, N), diag)


def test_dense_size_guard_is_arithmetic():
    # exact at the limit, refused one step past it, and refused at sizes
    # that could never be allocated without computing them
    _check_dense_size(24, 2)
    _check_dense_size(12, 2, dim_factor=2)
    _check_dense_size(1, MAX_DENSE_ENTRIES)
    _check_dense_size(63, 1)
    for args in [(25, 2), (13, 2, 2), (1, MAX_DENSE_ENTRIES + 1), (10**9, 2),
                 (2, 10**40)]:
        with pytest.raises(ValueError, match="above the limit"):
            _check_dense_size(*args)
    # one dense entry at N = 1, but a stack of order-p tensors has p + 1 axes
    for p in (64, 10**9):
        with pytest.raises(ValueError, match=f"p={p} is above 63"):
            _check_dense_size(p, 1)
    # a class with unit factors splits each leg in two: 2p + 1 axes
    _check_dense_size(31, 1, units=True)
    with pytest.raises(ValueError, match="p=32 is above 31"):
        _check_dense_size(32, 1, units=True)


def test_oversized_configurations_are_refused_before_allocating():
    with pytest.raises(ValueError, match="above the limit"):
        EnsembleSpec("GOTE", 25, 2)
    # self-dual tensors are dense in dimension 2N: N^p = 1 here, (2N)^p is not
    EnsembleSpec("GSTE", 22, 1)
    with pytest.raises(ValueError, match="above the limit"):
        EnsembleSpec("GSTE", 26, 1)
    with pytest.raises(ValueError, match="above the limit"):
        canonical_indices(3, 10**6)
    with pytest.raises(ValueError, match="above the limit"):
        CanonicalTensor("sym", 3, 10**6, {})
    # 4^31 self-dual component keys would be built before any other check
    with pytest.raises(ValueError, match="above the limit"):
        loads_tensor(json.dumps({"class": "selfdual", "p": 62, "N": 1, "entries": []}))


@pytest.mark.parametrize("p", [64, 10**9])
def test_orders_above_63_are_refused_at_dimension_one(p):
    # (1)^p = 1 dense entry, but numpy cannot hold the p + 1 axes of a stack
    with pytest.raises(ValueError, match=f"p={p} is above 63"):
        EnsembleSpec("GOTE", p, 1)
    with pytest.raises(ValueError, match=f"p={p} is above 63"):
        EnsembleSpec("GUTE", p, 1)
    with pytest.raises(ValueError, match=f"p={p} is above 63"):
        CanonicalTensor("sym", p, 1, {})
    with pytest.raises(ValueError, match=f"p={p} is above 63"):
        loads_tensor(json.dumps({"class": "sym", "p": p, "N": 1, "entries": []}))


def test_unit_classes_refuse_orders_above_31_at_dimension_one(capsys):
    # the hermitian kernels reshape a stack to 2p + 1 axes
    EnsembleSpec("GUTE", 30, 1)
    with pytest.raises(ValueError, match="p=32 is above 31"):
        EnsembleSpec("GUTE", 32, 1)
    with pytest.raises(ValueError, match="p=32 is above 31"):
        CanonicalTensor("herm", 32, 1, {})
    assert run(["sample", "--kind", "gute", "--p", "32", "--dim", "1", "--seed", "0"]) == 2
    assert "p=32 is above 31" in capsys.readouterr().err


def test_selfdual_unit_table_is_refused_before_it_is_built(capsys):
    # (2N)^p = 16 384 dense entries pass the guard, but the unit table of
    # 4^7 components by 2^14 unit entries would hold 4^14
    EnsembleSpec("GSTE", 14, 1)
    with pytest.raises(ValueError, match="unit table of 16384 x 16384"):
        densify(zeros("selfdual", 14, 1))
    args = ["verify", "--suite", "invariance", "--kind", "gste", "--p", "14", "--dim", "1",
            "--samples", "100", "--seed", "0"]
    assert run(args) == 2
    assert "above the limit" in capsys.readouterr().err


@pytest.mark.parametrize("class_tag,p,N,D", [
    ("sym", 2, 2, 2), ("antisym", 3, 3, 3), ("herm", 2, 2, 2),
    ("selfdual", 2, 2, 4),  # dense in dimension 2N
])
def test_entry_refuses_out_of_range_indices(class_tag, p, N, D):
    t = random_tensor(class_tag, p, N, np.random.default_rng(0))
    t.entry((D - 1,) * p)
    for bad in (D, -1):
        with pytest.raises(ValueError, match=rf"index {bad} outside \[0, {D}\)"):
            t.entry((0,) * (p - 1) + (bad,))


# -- storage semantics -----------------------------------------------------


def test_sym_entry_lookup():
    t = CanonicalTensor("sym", 2, 2, {(): np.array([1.0, 2.0, 3.0])})
    assert t.entry((0, 0)) == 1.0
    assert t.entry((0, 1)) == t.entry((1, 0)) == 2.0
    assert t.entry((1, 1)) == 3.0


def test_antisym_entry_signs_and_repeats():
    vals = np.zeros(class_count(2, 2))
    vals[list(canonical_indices(2, 2)).index((0, 1))] = 5.0
    t = CanonicalTensor("antisym", 2, 2, {(): vals})
    assert t.entry((0, 1)) == 5.0
    assert t.entry((1, 0)) == -5.0
    assert t.entry((0, 0)) == 0.0


def test_antisym_rejects_repeated_class_payload():
    vals = np.ones(class_count(2, 2))
    with pytest.raises(ValueError, match="repeated-index"):
        CanonicalTensor("antisym", 2, 2, {(): vals})


def test_herm_entry_is_conjugate_under_swap():
    rng = np.random.default_rng(0)
    t = random_tensor("herm", 2, 3, rng)
    for i in range(3):
        for j in range(3):
            assert t.entry((i, j)) == np.conj(t.entry((j, i)))


def test_class_and_order_validation():
    with pytest.raises(ValueError):
        CanonicalTensor("herm", 3, 2, {})  # odd order
    with pytest.raises(ValueError):
        CanonicalTensor("selfdual", 4, 2, {})  # order must be 2 mod 4
    with pytest.raises(ValueError):
        CanonicalTensor("nope", 2, 2, {})
    with pytest.raises(ValueError):
        CanonicalTensor("sym", 2, 2, {(): np.zeros(5)})  # wrong length


def test_arithmetic():
    rng = np.random.default_rng(1)
    a = random_tensor("sym", 3, 2, rng)
    b = random_tensor("sym", 3, 2, rng)
    c = a + 2.0 * b
    assert np.allclose(c.values, a.values + 2.0 * b.values)
    d = c - b * 2.0
    assert np.allclose(d.values, a.values)
    with pytest.raises(ValueError):
        a + random_tensor("sym", 2, 2, rng)


SHAPES = {"sym": (2, 2), "antisym": (3, 3), "herm": (2, 2), "selfdual": (2, 2)}
SOURCES = ("zeros", "sample_batch", "loads_tensor", "canonicalize")


def _tensor_from(source, tag):
    p, N = SHAPES[tag]
    rng = np.random.default_rng(0)
    if source == "zeros":
        return zeros(tag, p, N)
    if source == "sample_batch":
        return sample_batch(EnsembleSpec(_class_info(tag).ensemble, p, N, beta=0.5), 1)[0]
    if source == "loads_tensor":
        return loads_tensor(dumps_tensor(random_tensor(tag, p, N, rng)))
    return canonicalize(densify(random_tensor(tag, p, N, rng)), tag)


@pytest.mark.parametrize("tag,source", [
    (tag, source) for tag in CLASS_TAGS for source in SOURCES
    if source != "sample_batch" or _class_info(tag).ensemble is not None])
def test_data_is_read_only(tag, source):
    t = _tensor_from(source, tag)
    keys = _class_info(tag).keys(t.p)
    # every component is stored, in storage order, as a row of one array
    assert list(t.data) == list(keys)
    assert t.array.shape == (len(keys), class_count(t.p, t.N))
    for c, key in enumerate(keys):
        row = t.data[key]
        assert row.base is t.array
        assert np.array_equal(row, t.array[c])
        with pytest.raises(ValueError):
            row[0] = 1.0
    with pytest.raises(ValueError):
        t.array[0, 0] = 1.0
    with pytest.raises(TypeError):
        t.data[keys[0]] = t.array[0]
    with pytest.raises(AttributeError):
        t.array = np.zeros_like(t.array)
    if _class_info(tag).units is None:
        with pytest.raises(ValueError):
            t.values[0] = 1.0


# -- identity tensor -------------------------------------------------------


def test_identity_tensor_p4_N2_values():
    t = identity_tensor(4, 2)
    assert t.entry((0, 0, 0, 0)) == 1.0
    assert t.entry((0, 0, 1, 1)) == pytest.approx(1.0 / 6.0)
    assert t.entry((1, 1, 1, 1)) == 1.0
    assert t.entry((0, 0, 0, 1)) == 0.0
    assert frobenius_norm_sq(t) == pytest.approx(13.0 / 6.0, rel=1e-14)


def test_identity_tensor_p2_is_identity_matrix():
    for N in (1, 2, 3):
        assert np.allclose(densify(identity_tensor(2, N)), np.eye(N))


def test_identity_tensor_odd_order_is_zero():
    assert frobenius_norm_sq(identity_tensor(3, 2)) == 0.0


def test_shifted_by_identity():
    rng = np.random.default_rng(7)
    t = random_tensor("sym", 4, 2, rng)
    s = shifted_by_identity(t, 0.5)
    assert np.allclose(densify(s), densify(t) + 0.5 * densify(identity_tensor(4, 2)))
    h = random_tensor("herm", 2, 2, rng)
    sh = shifted_by_identity(h, -1.0)
    assert np.allclose(densify(sh), densify(h) - np.eye(2))


# -- dense round trips -----------------------------------------------------


@pytest.mark.parametrize("class_tag,ps", [
    ("sym", (1, 2, 3, 4)),
    ("antisym", (2, 3)),
    ("herm", (2, 4)),
    ("selfdual", (2,)),
])
def test_densify_canonicalize_round_trip(class_tag, ps):
    rng = np.random.default_rng(11)
    for p in ps:
        for N in (1, 2, 3):
            if class_tag == "antisym" and N < p:
                continue  # identically zero, nothing to check
            t = random_tensor(class_tag, p, N, rng)
            back = canonicalize(densify(t), class_tag)
            for key in t.data:
                assert np.allclose(back.component(key), t.component(key), atol=1e-12)


def test_densify_sym_matches_entries():
    # entry sorts one tuple with the rule densify's tables are built from,
    # for every class; the antisymmetric cases include repeated indices
    rng = np.random.default_rng(3)
    for class_tag, p, N in [("sym", 3, 2), ("antisym", 3, 3), ("antisym", 4, 3),
                            ("herm", 4, 2), ("selfdual", 2, 2), ("selfdual", 6, 1)]:
        t = random_tensor(class_tag, p, N, rng)
        d = densify(t)
        for idx in itertools.product(range(d.shape[0]), repeat=p):
            assert d[idx] == t.entry(idx), (class_tag, p, N, idx)


def test_frobenius_matches_dense():
    rng = np.random.default_rng(5)
    for class_tag, p in [("sym", 3), ("antisym", 2), ("herm", 4), ("selfdual", 2)]:
        t = random_tensor(class_tag, p, 3, rng)
        dense = densify(t)
        assert frobenius_norm_sq(t) == pytest.approx(
            float(np.sum(np.abs(dense) ** 2)), rel=1e-12)


def test_canonicalize_rejects_off_class():
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((2, 2, 2))
    with pytest.raises(ClassViolationError):
        canonicalize(dense, "sym")


def test_class_check_is_relative_to_the_largest_entry():
    rng = np.random.default_rng(10)
    dense = densify(random_tensor("sym", 3, 3, rng)) * 1e6
    assert np.array_equal(densify(canonicalize(dense, "sym")), dense)
    # one entry off by 1e-9 of the largest entry is still refused
    bad = dense.copy()
    bad[0, 2, 1] += 1e-9 * np.max(np.abs(dense))
    with pytest.raises(ClassViolationError, match=r"entry at \(1, 3, 2\)"):
        canonicalize(bad, "sym")
    # the bound shrinks with the entries: a tiny array gets no free pass
    tiny = np.zeros((2, 2))
    tiny[0, 1] = 1e-300
    with pytest.raises(ClassViolationError):
        canonicalize(tiny, "sym")
    assert not canonicalize(np.zeros((2, 2)), "sym").array.any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_canonicalize_refuses_non_finite_entries(bad):
    # a NaN at the representative once hid the off-class entry (2, 1)
    with pytest.raises(ValueError, match=r"entry at \(1, 1\) is not finite") as exc:
        canonicalize(np.array([[bad, 0.0], [5.0, 0.0]]), "sym")
    assert not isinstance(exc.value, ClassViolationError)
    dense = densify(random_tensor("herm", 2, 2, np.random.default_rng(3))).copy()
    dense[1, 0] = complex(0.0, bad)
    with pytest.raises(ValueError, match=r"entry at \(2, 1\) is not finite"):
        canonicalize(dense, "herm")


@pytest.mark.parametrize("class_tag,p,N", [("sym", 2, 2), ("antisym", 3, 3),
                                           ("herm", 2, 2), ("selfdual", 2, 2)])
def test_tensor_refuses_non_finite_values(class_tag, p, N):
    arr = random_tensor(class_tag, p, N, np.random.default_rng(4)).array.copy()
    for bad in (np.nan, np.inf):
        arr[-1, -1] = bad
        with pytest.raises(ValueError, match=f"{class_tag} values must be finite"):
            CanonicalTensor(class_tag, p, N, arr)
    with pytest.raises(ValueError, match="must be finite"):
        CanonicalTensor(class_tag, p, N, {_class_info(class_tag).keys(p)[0]:
                                          np.full(class_count(p, N), np.nan)})


def test_tensors_compare_and_hash_by_identity():
    t = zeros("sym", 2, 2)
    assert t == t
    assert len({t, t}) == 1
    assert t != zeros("sym", 2, 2)
    assert np.array_equal(t.array, zeros("sym", 2, 2).array)


def test_canonicalize_error_mentions_one_based_indices():
    dense = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ClassViolationError, match="1-based"):
        canonicalize(dense, "sym")


# -- self-dual structure ---------------------------------------------------


def test_quaternion_units_algebra():
    e0, e1, e2, e3 = QUATERNION_UNITS
    assert np.allclose(e1 @ e1, -e0)
    assert np.allclose(e2 @ e2, -e0)
    assert np.allclose(e3 @ e3, -e0)
    assert np.allclose(e1 @ e2, e3)
    assert np.allclose(e2 @ e3, e1)
    assert np.allclose(e3 @ e1, e2)
    for k in range(4):
        assert np.allclose(np.trace(QUATERNION_UNITS[k].conj().T
                                    @ QUATERNION_UNITS[k]), 2.0)


def test_component_symmetry_rule():
    # symmetric components carry an even number of nonzero labels; the
    # antisymmetric class flips every one
    assert _class_info("sym").components(1) == {(): True}
    assert _class_info("antisym").components(1) == {(): False}
    assert _class_info("herm").components(2) == {(0,): True, (1,): False}
    for p in (2, 6):
        comps = _class_info("selfdual").components(p)
        assert list(comps) == list(itertools.product(range(4), repeat=p // 2))
        assert all(comps[key] == component_is_symmetric(key) for key in comps)
    comps = _class_info("selfdual").components(6)
    assert comps[(0, 0, 0)] and comps[(1, 2, 0)] and comps[(2, 2, 0)]
    assert not comps[(1, 2, 3)] and not comps[(0, 0, 1)]


def test_selfdual_dense_shape_and_norm_factor():
    rng = np.random.default_rng(13)
    t = random_tensor("selfdual", 2, 2, rng)
    d = densify(t)
    assert d.shape == (4, 4)
    # each quaternion unit has squared Hilbert-Schmidt norm 2, one per slot
    gam = multiplicities(2, 2)
    canonical_sq = sum(float(np.sum(gam * t.component(eps) ** 2))
                       for eps in [(0,), (1,), (2,), (3,)])
    assert float(np.sum(np.abs(d) ** 2)) == pytest.approx(2.0 * canonical_sq)


def test_selfdual_slot_pair_hermiticity():
    """Swapping the two dense legs of every slot conjugates the tensor."""
    rng = np.random.default_rng(17)
    for N in (1, 2):
        t = random_tensor("selfdual", 2, N, rng)
        d = densify(t)
        assert np.allclose(d.T, np.conj(d), atol=1e-12)


def test_selfdual_p2_diagonal_spinor_structure():
    # paired coordinate classes carry no antisymmetric component, so the
    # (0,1) spinor entry at equal coordinates vanishes
    rng = np.random.default_rng(19)
    t = random_tensor("selfdual", 2, 3, rng)
    d = densify(t)
    for i in range(3):
        assert d[2 * i, 2 * i + 1] == 0.0


# -- isometry --------------------------------------------------------------


def test_flatten_isometry_preserves_norm():
    rng = np.random.default_rng(23)
    for p in (1, 2, 3, 4):
        for N in (1, 2, 3):
            t = random_tensor("sym", p, N, rng)
            v = flatten_isometry(t)
            assert abs(float(v @ v) - frobenius_norm_sq(t)) <= 1e-12 * max(
                1.0, frobenius_norm_sq(t))
            back = unflatten_isometry(v, p, N)
            assert np.allclose(back.values, t.values, atol=1e-12)


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValueError):
        unflatten_isometry(np.zeros(4), 2, 2)
