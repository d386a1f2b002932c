"""Trace graphs, contraction planner, invariant values, exact invariance."""

from itertools import permutations

import numpy as np
import pytest

from conftest import direct_sum, oracle_contract, paired_trace, random_tensor
from gte.ensembles import EnsembleSpec, sample
from gte.groups import act_dense, flavor_for_class, haar_sample
from gte.invariants import (
    TraceGraph,
    bouquet_graph,
    enumerate_rank2,
    evaluate,
    melon_graph,
    validate,
    _evaluate_stack,
    _plan,
)
from gte.tensor import densify, frobenius_norm_sq, identity_tensor


# -- graph construction and validation --------------------------------------


def test_melon_graph_shape():
    g = melon_graph(4)
    assert g.n == 2 and g.p == 4 and g.flavor == "real"
    assert len(g.edges) == 4
    assert g.is_connected()
    assert validate(g) == []


def test_bouquet_graph_shape():
    g = bouquet_graph(4)
    assert g.n == 1 and len(g.edges) == 2
    assert validate(g) == []
    with pytest.raises(ValueError):
        bouquet_graph(3)


def test_parity_melons_are_valid():
    for p, conv in [(2, "hermitian"), (4, "hermitian"), (2, "selfdual"),
                    (6, "selfdual")]:
        g = melon_graph(p, conv)
        assert g.flavor == "parity"
        assert validate(g) == []


def test_validate_catches_broken_matchings():
    # slot used twice
    g = TraceGraph(2, 2, "real", (((0, 1), (1, 1)), ((0, 1), (1, 2))))
    assert validate(g)
    # unmatched slots
    g = TraceGraph(4, 1, "real", (((0, 1), (0, 2)),))
    assert validate(g)
    # slot matched to itself
    g = TraceGraph(2, 1, "real", (((0, 1), (0, 1)),))
    assert validate(g)
    # parity flavor: both endpoints odd
    g = TraceGraph(2, 2, "parity", (((0, 1), (1, 1)), ((0, 2), (1, 2))))
    assert any("parity" in msg or "odd" in msg or "even" in msg
               for msg in validate(g))


def test_enumerate_rank2_real():
    # cross-edge counts p, p-2, ..., down to 1 or 2
    for p in (2, 3, 4, 5):
        fam = enumerate_rank2(p)
        crosses = sorted(sum(1 for (a, b) in g.edges if a[0] != b[0])
                         for g in fam)
        want = sorted(range(p, 0, -2))
        assert crosses == want
        for g in fam:
            assert validate(g) == []
            assert g.is_connected()


def test_enumerate_rank2_parity_even_cross_only():
    for p in (2, 4, 6):
        fam = enumerate_rank2(p, "parity")
        crosses = [sum(1 for (a, b) in g.edges if a[0] != b[0]) for g in fam]
        assert all(c % 2 == 0 for c in crosses)
        assert sorted(crosses) == sorted(range(p, 0, -2))


def are_isomorphic(g1: TraceGraph, g2: TraceGraph) -> bool:
    """Exact isomorphism test for graphs of rank <= 2.

    Two diagrams are isomorphic when some relabeling of vertices and of
    positions within each vertex maps one matching onto the other; parity
    graphs only admit parity-preserving position relabelings.  Exhaustive
    over the at most 2 * (p!)^2 candidates, which is fine at rank <= 2 and
    the small p in scope.
    """
    if (g1.p, g1.n, g1.flavor) != (g2.p, g2.n, g2.flavor):
        return False
    if g1.n > 2:
        raise ValueError("isomorphism test implemented for rank <= 2 only")
    if g1.edges == g2.edges:
        return True
    p = g1.p
    if g1.flavor == "parity":
        odd = list(range(1, p + 1, 2))
        even = list(range(2, p + 1, 2))
        pos_maps = []
        for po in permutations(odd):
            for pe in permutations(even):
                m = dict(zip(odd, po)) | dict(zip(even, pe))
                pos_maps.append(m)
    else:
        pos_maps = [dict(zip(range(1, p + 1), pm)) for pm in permutations(list(range(1, p + 1)))]
    verts = [list(range(g1.n))] if g1.n == 1 else [[0, 1], [1, 0]]
    target = set(g2.edges)
    for vmap in verts:
        # position relabelings are independent per vertex; match vertex 0
        # first to prune, then vertex 1
        for m0 in pos_maps:
            maps = {0: m0}
            if g1.n == 1:
                if _relabel(g1.edges, vmap, maps) == target:
                    return True
                continue
            for m1 in pos_maps:
                maps[1] = m1
                if _relabel(g1.edges, vmap, maps) == target:
                    return True
    return False


def _relabel(edges, vmap, pos_maps):
    out = set()
    for (v, k), (w, l) in edges:
        a = (vmap[v], pos_maps[v][k])
        b = (vmap[w], pos_maps[w][l])
        out.add(tuple(sorted((a, b))))
    return out


def test_are_isomorphic_relabeling():
    g1 = melon_graph(3)
    # same melon with vertices and positions permuted
    g2 = TraceGraph(3, 2, "real", (((1, 3), (0, 3)), ((0, 1), (1, 2)),
                                   ((0, 2), (1, 1))))
    assert are_isomorphic(g1, g2)
    fam = enumerate_rank2(4)
    for i, a in enumerate(fam):
        for j, b in enumerate(fam):
            assert are_isomorphic(a, b) == (i == j)


# -- evaluation oracles ------------------------------------------------------


def test_melon_equals_frobenius_all_flavors():
    rng = np.random.default_rng(0)
    cases = [("sym", p, "real") for p in (1, 2, 3, 4, 5)]
    cases += [("antisym", 2, "real"), ("antisym", 3, "real")]
    cases += [("herm", p, "hermitian") for p in (2, 4)]
    cases += [("selfdual", p, "selfdual") for p in (2, 6)]
    for class_tag, p, conv in cases:
        for N in (1, 2, 3):
            t = random_tensor(class_tag, p, N, rng)
            val = evaluate(melon_graph(p, conv), t)
            ref = frobenius_norm_sq(t)
            val = complex(val).real if not isinstance(val, float) else val
            assert val == pytest.approx(ref, rel=1e-10, abs=1e-12), (class_tag, p, N)


def test_bouquet_equals_paired_trace():
    rng = np.random.default_rng(1)
    for class_tag, p in [("sym", 2), ("sym", 4), ("antisym", 2),
                         ("herm", 2), ("herm", 4), ("selfdual", 2)]:
        for N in (1, 2, 3):
            t = random_tensor(class_tag, p, N, rng)
            flavor = "real" if class_tag in ("sym", "antisym") else "parity"
            val = evaluate(bouquet_graph(p, flavor), t)
            val = complex(val).real if not isinstance(val, float) else val
            assert val == pytest.approx(paired_trace(t), rel=1e-10, abs=1e-12)


def test_antisym_paired_trace_is_zero():
    rng = np.random.default_rng(2)
    t = random_tensor("antisym", 2, 3, rng)
    assert paired_trace(t) == 0.0
    assert evaluate(bouquet_graph(2), t) == pytest.approx(0.0, abs=1e-12)


def test_identity_tensor_invariant_oracles():
    t = identity_tensor(4, 2)
    assert evaluate(melon_graph(4), t) == pytest.approx(13.0 / 6.0, rel=1e-12)
    assert paired_trace(t) == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_planner_matches_direct_sum_small_graphs():
    rng = np.random.default_rng(3)
    graphs = [melon_graph(2), melon_graph(3), melon_graph(4), bouquet_graph(4)]
    graphs += enumerate_rank2(4)
    for g in graphs:
        for N in (2, 3):
            t = random_tensor("sym", g.p, N, rng)
            fast = evaluate(g, t)
            slow = direct_sum(g, t)
            assert fast == pytest.approx(slow, rel=1e-10, abs=1e-12)


def test_three_vertex_chain_example():
    """Order 4 on three vertices: u4-w1, u2-v3, u3-v2, u1-v4 cyclic pattern
    with w closing the chain, checked against brute force."""
    edges = (((0, 1), (1, 4)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
             ((0, 4), (2, 1)), ((1, 1), (2, 2)), ((2, 3), (2, 4)))
    g = TraceGraph(4, 3, "real", edges)
    assert validate(g) == []
    assert g.is_connected()
    rng = np.random.default_rng(4)
    t = random_tensor("sym", 4, 2, rng)
    assert evaluate(g, t) == pytest.approx(direct_sum(g, t), rel=1e-10)


def test_evaluate_rejects_mismatched_tensor():
    rng = np.random.default_rng(5)
    t = random_tensor("sym", 3, 2, rng)
    with pytest.raises(ValueError):
        evaluate(melon_graph(2), t)
    with pytest.raises(ValueError):
        evaluate(melon_graph(2, "hermitian"), t)  # parity graph, real tensor


def test_evaluate_accepts_dense_arrays():
    rng = np.random.default_rng(6)
    t = random_tensor("sym", 3, 2, rng)
    assert evaluate(melon_graph(3), densify(t)) == pytest.approx(
        frobenius_norm_sq(t), rel=1e-12)


def test_graphs_with_more_than_52_edges_evaluate():
    # four disjoint melons: 56 edges, more labels than numpy's einsum takes
    # in one call, but each contraction step uses at most 15 of them
    p = 14
    t = random_tensor("sym", p, 2, np.random.default_rng(9))
    edges = tuple(((2 * k, i), (2 * k + 1, i)) for k in range(4) for i in range(1, p + 1))
    melon = evaluate(melon_graph(p), t)
    assert evaluate(TraceGraph(p, 8, "real", edges), t) == pytest.approx(melon**4, rel=1e-12)


def test_contraction_steps_above_52_labels_are_refused():
    rng = np.random.default_rng(10)
    t = random_tensor("sym", 51, 1, rng)
    assert evaluate(melon_graph(51), t) == pytest.approx(frobenius_norm_sq(t), rel=1e-12)
    # the melon at p = 52 contracts 52 legs over a batch label in one step
    with pytest.raises(ValueError, match="53 index labels"):
        evaluate(melon_graph(52), random_tensor("sym", 52, 1, rng))


def test_plan_reuse_across_tensors():
    g = melon_graph(4)
    rng = np.random.default_rng(7)
    for _ in range(5):
        t = random_tensor("sym", 4, 3, rng)
        assert evaluate(g, t) == pytest.approx(frobenius_norm_sq(t), rel=1e-10)


def _graphs_with_loops():
    graphs = [bouquet_graph(4), bouquet_graph(6, "parity")]
    for p in range(1, 7):
        graphs += enumerate_rank2(p, "real") + (enumerate_rank2(p, "parity") if p % 2 == 0 else [])
    # three vertices, each with a loop at positions (1, 4)
    graphs.append(TraceGraph(4, 3, "real", (((0, 1), (0, 4)), ((1, 1), (1, 4)), ((2, 1), (2, 4)),
                                            ((0, 2), (1, 2)), ((0, 3), (2, 2)), ((1, 3), (2, 3)))))
    # one loop at each vertex, at (1, 2) and at (3, 4): two patterns
    graphs.append(TraceGraph(4, 2, "real", (((0, 1), (0, 2)), ((1, 3), (1, 4)),
                                            ((0, 3), (1, 1)), ((0, 4), (1, 2)))))
    return graphs


def test_shared_partial_traces_match_one_trace_per_vertex_byte_for_byte():
    rng = np.random.default_rng(5)
    for g in _graphs_with_loops():
        for N, B in ((2, 3), (3, 2)):
            dense = rng.standard_normal((B,) + (N,) * g.p)
            if g.flavor == "parity":
                dense = dense + 1j * rng.standard_normal(dense.shape)
            assert _evaluate_stack(g, dense).tobytes() == oracle_contract(g, dense).tobytes(), (g, N)
    g = enumerate_rank2(6, "real")[1]     # r = 4: one loop at each vertex
    dense = densify(random_tensor("sym", 6, 8, rng))[None]
    assert _evaluate_stack(g, dense).tobytes() == oracle_contract(g, dense).tobytes()


def test_vertices_with_one_loop_pattern_share_one_partial_trace(monkeypatch):
    traces = []
    einsum = np.einsum

    def counting(*args):
        traces.append(len(args) == 3)
        return einsum(*args)

    monkeypatch.setattr(np, "einsum", counting)
    rng = np.random.default_rng(0)
    for r, want in ((6, 0), (4, 1), (2, 1)):
        traces.clear()
        _evaluate_stack(enumerate_rank2(6, "real")[(6 - r) // 2], rng.standard_normal((1,) + (2,) * 6))
        assert sum(traces) == want, r
    traces.clear()
    _evaluate_stack(_graphs_with_loops()[-1], rng.standard_normal((1,) + (2,) * 4))
    assert sum(traces) == 2


def _graph_families():
    """Every graph family, loop-free ones included, each at N = 2 and 3."""
    graphs = []
    for p in range(1, 7):
        graphs.append(melon_graph(p))
        graphs += enumerate_rank2(p, "real")
        if p % 2 == 0:
            graphs += [melon_graph(p, "hermitian"), melon_graph(p, "selfdual"),
                       bouquet_graph(p), bouquet_graph(p, "parity"), *enumerate_rank2(p, "parity")]
    graphs.append(_graphs_with_loops()[-2])         # three vertices with loops
    # three vertices without loops, and a ring of seven: the greedy planner
    graphs.append(TraceGraph(4, 3, "real", (((0, 1), (1, 1)), ((0, 2), (1, 2)), ((0, 3), (2, 1)),
                                            ((0, 4), (2, 2)), ((1, 3), (2, 3)), ((1, 4), (2, 4)))))
    graphs.append(TraceGraph(2, 7, "parity", tuple(((v, 2), ((v + 1) % 7, 1)) for v in range(7))))
    return [(g, N) for g in graphs for N in (2, 3)]


def _bits(x):
    return np.asarray(x, dtype=complex if isinstance(x, complex) else float).tobytes()


@pytest.mark.parametrize("g,N", _graph_families() + [(melon_graph(6), 8)])
def test_programs_match_the_oracle_contraction_byte_for_byte(g, N):
    rng = np.random.default_rng(31)
    if N == 8:      # the GOTE (6, 8) melon on its own draws
        dense = np.stack([densify(sample(EnsembleSpec("GOTE", 6, 8), rng)) for _ in range(3)])
    else:
        dense = rng.standard_normal((3,) + (N,) * g.p)
        if g.flavor == "parity":
            dense = dense + 1j * rng.standard_normal(dense.shape)
    assert _evaluate_stack(g, dense).tobytes() == oracle_contract(g, dense).tobytes()
    assert _bits(evaluate(g, dense[0])) == oracle_contract(g, dense[:1]).tobytes()


def test_a_refused_graph_is_refused_on_every_call():
    rng = np.random.default_rng(3)
    broken = TraceGraph(2, 2, "real", (((0, 1), (1, 1)),))
    t = random_tensor("sym", 2, 2, rng)
    wide = random_tensor("sym", 52, 1, rng)
    size = _plan.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid graph: 2 slots are unmatched"):
            evaluate(broken, t)
        with pytest.raises(ValueError, match="53 index labels"):
            evaluate(melon_graph(52), wide)
    assert _plan.cache_info().currsize == size


def test_each_graph_and_dimension_is_compiled_once(monkeypatch):
    checked = []
    monkeypatch.setattr("gte.invariants.validate", lambda g: checked.append(g) or validate(g))
    _plan.cache_clear()
    rng = np.random.default_rng(4)
    graphs = enumerate_rank2(4)
    for _ in range(5):
        for g in graphs:
            for N in (2, 3):
                evaluate(g, random_tensor("sym", 4, N, rng))
    assert len(checked) == 2 * len(graphs)


def test_repeated_calls_find_their_program_cached():
    # perfbench's invariants.plan_cache_hit_ratio reads these counts as
    # "evaluate calls that found their program cached"
    g, n = enumerate_rank2(6)[1], 9
    dense = np.random.default_rng(6).standard_normal((2,) * 6)
    _plan.cache_clear()
    for _ in range(n):
        evaluate(g, dense)
    info = _plan.cache_info()
    assert (info.hits, info.misses) == (n - 1, 1)


# -- exact invariance --------------------------------------------------------


@pytest.mark.parametrize("class_tag,p,N", [
    ("sym", 2, 3), ("sym", 3, 2), ("sym", 4, 2),
    ("antisym", 2, 3), ("antisym", 3, 3),
    ("herm", 2, 3), ("herm", 4, 2),
    ("selfdual", 2, 2), ("selfdual", 6, 2),
])
def test_trace_invariants_exactly_invariant(class_tag, p, N):
    """Every enumerated invariant is pointwise fixed by the matching dense
    action, including at the orders where the class itself is not preserved."""
    rng = np.random.default_rng(hash((class_tag, p, N)) % 2 ** 31)
    flavor = "real" if class_tag in ("sym", "antisym") else "parity"
    conv = {"sym": "real", "antisym": "real",
            "herm": "hermitian", "selfdual": "selfdual"}[class_tag]
    graphs = [melon_graph(p, conv)] + (enumerate_rank2(p, flavor) if p > 1 else [])
    for trial in range(10):
        t = random_tensor(class_tag, p, N, rng)
        g = haar_sample(flavor_for_class(class_tag), N, rng)
        d0 = densify(t)
        d1 = act_dense(g, t)
        for gph in graphs:
            v0 = complex(evaluate(gph, d0))
            v1 = complex(evaluate(gph, d1))
            assert abs(v1 - v0) <= 1e-8 * abs(v0) + 1e-10, (gph, trial)
