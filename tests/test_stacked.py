"""The stacked kernels against the single-tensor API they generalize.

Every suite runs its samples as arrays over a leading sample axis; the
public single-tensor functions are the one-sample calls of the same kernels.
These tests hold the stacked forms to the single-tensor ones on each tensor
class (bit for bit, except invariants with self-loops, which agree to
rounding), and check the planner's greedy path against the brute-force
oracle.
"""

import numpy as np
import pytest

from conftest import direct_sum, random_tensor
from gte.ensembles import EnsembleSpec, _spec_law, sample
from gte.groups import (
    act_dense,
    flavor_for_class,
    haar_sample,
    _act_stack,
    _check_members,
    _haar_matrices,
    _haar_shape,
)
from gte.invariants import (
    TraceGraph,
    bouquet_graph,
    enumerate_rank2,
    evaluate,
    melon_graph,
    _evaluate_stack,
    _plan,
)
from gte.tensor import _class_info, _densify_stack, densify

CONFIGS = [("GOTE", 3, 2), ("GOTE", 4, 3), ("GUTE", 2, 3), ("GUTE", 4, 2),
           ("GSTE", 2, 2), ("GSTE", 6, 1)]
B = 7


def _streams(seed=11):
    return [np.random.default_rng(np.random.SeedSequence((seed, i))) for i in range(B)]


def _graphs(tag, p):
    info = _class_info(tag)
    return [melon_graph(p, info.melon), bouquet_graph(p, info.graph),
            *enumerate_rank2(p, info.graph)] if p % 2 == 0 else \
        [melon_graph(p, info.melon), *enumerate_rank2(p, info.graph)]


@pytest.mark.parametrize("kind,p,N", CONFIGS)
def test_stacked_draw_densify_haar_act_evaluate_match_single(kind, p, N):
    spec = EnsembleSpec(kind, p, N, beta=0.5)
    law = _spec_law(spec)
    info = _class_info(spec.class_tag)
    flavor = flavor_for_class(spec.class_tag)
    normals, haar, singles = [], [], []
    for rng in _streams():
        normals.append(rng.standard_normal(law.width))
        haar.append(rng.standard_normal(_haar_shape(flavor, N)))
    for rng in _streams():
        t = sample(spec, rng)
        singles.append((t, haar_sample(flavor, N, rng)))

    vals = law.values(np.stack(normals))
    for row, (t, _) in zip(vals, singles):
        assert np.array_equal(row, t.array)

    dense = _densify_stack(info, p, N, vals)
    for d, (t, _) in zip(dense, singles):
        assert np.array_equal(d, densify(t))

    mats = _haar_matrices(flavor, np.stack(haar))
    _check_members(flavor, mats)
    for m, (_, g) in zip(mats, singles):
        assert np.array_equal(m, g.matrix)

    rotated = _act_stack(flavor, mats, dense, p)
    for r, d, (_, g) in zip(rotated, dense, singles):
        assert np.array_equal(r, act_dense(g, d, p))

    # einsum may order a self-loop trace differently over a batch axis, so
    # graphs with self-loops agree to rounding; the melon agrees exactly
    for k, gph in enumerate(_graphs(spec.class_tag, p)):
        for stack in (dense, rotated):
            vals = _evaluate_stack(gph, stack)
            single = [evaluate(gph, d) for d in stack]
            assert vals.shape == (B,)
            if k == 0:
                assert np.array_equal(vals, single)
            np.testing.assert_allclose(vals, single, rtol=1e-13, atol=0)


@pytest.mark.parametrize("tag,p,N", [("sym", 3, 2), ("antisym", 3, 3), ("herm", 4, 2),
                                     ("selfdual", 2, 2), ("selfdual", 6, 1)])
def test_stacked_densify_matches_single_for_every_class(tag, p, N):
    rng = np.random.default_rng(5)
    ts = [random_tensor(tag, p, N, rng) for _ in range(B)]
    dense = _densify_stack(_class_info(tag), p, N, np.stack([t.array for t in ts]))
    for d, t in zip(dense, ts):
        assert np.array_equal(d, densify(t))


@pytest.mark.parametrize("flavor", ["orthogonal", "unitary", "symplectic"])
def test_stacked_membership_check_rejects_one_bad_element(flavor):
    N = 2
    normals = np.stack([rng.standard_normal(_haar_shape(flavor, N)) for rng in _streams()])
    mats = _haar_matrices(flavor, normals)
    mats[3] = mats[3] * 1.001
    with pytest.raises(ValueError, match="deviation"):
        _check_members(flavor, mats)


def _cube_graph() -> TraceGraph:
    """The 3-cube: 8 vertices, each joined to the three differing in one bit;
    the edge along bit k uses position k + 1 at both ends."""
    edges = tuple(((v, k + 1), (v ^ (1 << k), k + 1))
                  for v in range(8) for k in range(3) if v < v ^ (1 << k))
    return TraceGraph(3, 8, "real", edges)


def _parity_ring() -> TraceGraph:
    """Eight order-2 vertices in a ring, position 2 of each vertex joined to
    position 1 of the next."""
    return TraceGraph(2, 8, "parity", tuple(((v, 2), ((v + 1) % 8, 1)) for v in range(8)))


@pytest.mark.parametrize("graph,tag,N", [(_cube_graph(), "sym", 2),
                                         (_parity_ring(), "herm", 2)],
                         ids=["cube-sym", "ring-herm"])
def test_eight_vertex_graph_matches_direct_sum(graph, tag, N):
    assert graph.is_connected()
    rng = np.random.default_rng(8)
    t = random_tensor(tag, graph.p, N, rng)
    assert _plan(graph, N)[0] == "greedy"
    want = direct_sum(graph, t)
    got = evaluate(graph, t)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
