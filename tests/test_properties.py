"""Property tests over generated tensors, graphs and group elements.

The settings profile in ``conftest.py`` makes every run draw the same
examples.  Values are bounded so that the class checks' absolute tolerances
and the oracles' summation errors stay far below what is compared.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import direct_sum, live_mask
from gte.ensembles import KINDS, EnsembleSpec, _moments
from gte.groups import GroupElement, act, haar_sample
from gte.invariants import TraceGraph, evaluate
from gte.serialize import dumps_tensor, loads_tensor
from gte.tensor import (
    CLASS_TAGS,
    CanonicalTensor,
    canonicalize,
    class_count,
    densify,
    multiplicities,
    _class_info,
)

VALUES = st.floats(-4.0, 4.0)
SEEDS = st.integers(0, 2**32 - 1)
# each class draws its own examples, so every class is covered
per_class = pytest.mark.parametrize("tag", CLASS_TAGS)


@st.composite
def tensors(draw, tag, max_dense=1024):
    """A tensor of the class, order p <= 6 and N <= 3 with at most
    ``max_dense`` dense entries, with drawn canonical values and a drawn set
    of absent components (zero, or missing for a self-dual tensor)."""
    info = _class_info(tag)
    m, r = info.order
    p = draw(st.sampled_from([p for p in range(1, 7) if p % m == r]))
    N = draw(st.sampled_from([N for N in range(1, 4) if (info.dim_factor * N) ** p <= max_dense]))
    K = class_count(p, N)
    repeated = multiplicities(p, N) < math.factorial(p)
    components = info.components(p)
    absent = draw(st.sets(st.sampled_from(list(components)), max_size=len(components)))
    data = {}
    for key, symmetric in components.items():
        if key not in absent:
            vals = draw(hnp.arrays(np.float64, K, elements=VALUES, fill=st.nothing()))
            if not symmetric:
                vals[repeated] = 0.0
            data[key] = vals
    return CanonicalTensor(tag, p, N, data)


def _components(t: CanonicalTensor) -> np.ndarray:
    """Every component in storage order, absent ones as zeros."""
    return np.array([t.component(key) for key in _class_info(t.class_tag).keys(t.p)])


def _assert_close(got: CanonicalTensor, want: CanonicalTensor, rel: float) -> None:
    a, b = _components(got), _components(want)
    np.testing.assert_allclose(a, b, rtol=0, atol=rel * max(1.0, np.max(np.abs(b))))


@per_class
@settings(max_examples=25)
@given(data=st.data())
def test_canonicalize_inverts_densify(tag, data):
    t = data.draw(tensors(tag))
    # a self-dual entry sums 2^(p/2) unit products, so equality is to rounding
    _assert_close(canonicalize(densify(t), t.class_tag), t, 1e-13)


@per_class
@settings(max_examples=25)
@given(data=st.data())
def test_wire_round_trip(tag, data):
    t = data.draw(tensors(tag))
    wire = dumps_tensor(t)
    back = loads_tensor(wire)
    assert (back.class_tag, back.p, back.N) == (t.class_tag, t.p, t.N)
    assert np.array_equal(_components(back), _components(t))
    assert np.array_equal(back.array, t.array)
    assert dumps_tensor(back) == wire


def _shapes(tag, max_dense=1024):
    """Every (p, N) of the class that ``tensors`` can draw."""
    info = _class_info(tag)
    m, r = info.order
    return [(p, N) for p in range(1, 7) if p % m == r
            for N in range(1, 4) if (info.dim_factor * N) ** p <= max_dense]


@per_class
@settings(max_examples=25)
@given(data=st.data())
def test_frobenius_weights_give_the_dense_norm(tag, data):
    t = data.draw(tensors(tag))
    live, w = _class_info(tag).coordinates(t.p, t.N)
    dense = float(np.sum(np.abs(densify(t)) ** 2))
    assert np.sum((w * t.array ** 2)[live]) == pytest.approx(dense, rel=1e-12)


@per_class
def test_live_mask_is_the_per_tuple_rule(tag):
    for p, N in _shapes(tag):
        live, w = _class_info(tag).coordinates(p, N)
        assert np.array_equal(live, live_mask(tag, p, N)), (p, N)
        assert not live.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("kind", KINDS)
def test_variance_times_weight_is_the_scale(kind):
    for gamma in (1.0, 0.3, 2.5):
        for p, N in _shapes(EnsembleSpec(kind, 2, 1).class_tag):
            spec = EnsembleSpec(kind, p, N, beta=-0.4, gamma=gamma)
            # s from the density exponents, -||H - beta I||_F^2 / (2 s)
            s = gamma * p * {"GOTE": 1.0, "GUTE": 0.5, "GSTE": 2.0 ** (p // 2) / 4}[kind]
            live, w = _class_info(spec.class_tag).coordinates(p, N)
            _, var = _moments(spec)
            np.testing.assert_allclose((var * w)[live], s, rtol=1e-15, atol=0)
            assert np.all(var[~live] == 0.0), (p, N)


@st.composite
def graphs_with_tensors(draw, tag, max_terms=4096, max_n=8):
    """A tensor of the class and a valid trace graph of its flavor on at
    most ``max_n`` vertices, with dim**edges <= ``max_terms``."""
    t = draw(tensors(tag))
    info = _class_info(tag)
    p, dim = t.p, info.dim_factor * t.N
    sizes = [n for n in range(1, max_n + 1) if n * p % 2 == 0 and dim ** (n * p // 2) <= max_terms]
    n = draw(st.sampled_from(sizes))
    slots = [(v, k) for v in range(n) for k in range(1, p + 1)]
    if info.graph == "real":
        order = draw(st.permutations(slots))
        edges = tuple(zip(order[::2], order[1::2]))
    else:
        odd = [s for s in slots if s[1] % 2]
        even = draw(st.permutations([s for s in slots if s[1] % 2 == 0]))
        edges = tuple(zip(odd, even))
    return TraceGraph(p, n, info.graph, edges), t


@per_class
@settings(max_examples=10)
@given(data=st.data())
def test_planned_contraction_equals_direct_sum(tag, data):
    g, t = data.draw(graphs_with_tensors(tag))
    got, want = evaluate(g, t), direct_sum(g, t)
    # the same sum taken over |entries| bounds every term's contribution
    bound = abs(evaluate(g, np.abs(densify(t))))
    assert abs(got - want) <= 1e-12 * max(1.0, bound)


def _class_keeping_element(tag, p, N, seed) -> GroupElement:
    """A Haar element of the acting group where its action keeps the class
    (every p for the real classes, p = 2 for the complex ones), else of the
    subgroup that does: O(N) as unitary matrices on herm at p >= 4, and
    O(N) (x) I_2 on selfdual at p = 6."""
    rng = np.random.default_rng(seed)
    flavor = _class_info(tag).group
    if flavor == "orthogonal" or p == 2:
        return haar_sample(flavor, N, rng)
    O = haar_sample("orthogonal", N, rng).matrix
    return GroupElement(flavor, O if flavor == "unitary" else np.kron(O, np.eye(2)))


@per_class
@settings(max_examples=25)
@given(data=st.data(), seed_u=SEEDS, seed_v=SEEDS)
def test_action_composes(tag, data, seed_u, seed_v):
    t = data.draw(tensors(tag))
    U = _class_keeping_element(t.class_tag, t.p, t.N, seed_u)
    V = _class_keeping_element(t.class_tag, t.p, t.N, seed_v)
    UV = GroupElement(U.flavor, U.matrix @ V.matrix)
    _assert_close(act(V, act(U, t)), act(UV, t), 1e-12)
