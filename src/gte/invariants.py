"""Trace invariants of symmetric/hermitian/self-dual tensors.

A trace invariant is encoded by a p-regular multigraph on n vertices, given
as a perfect matching on the n*p "slots" (vertex, position).  Every vertex
carries a copy of the tensor; every edge carries a summation index shared by
its two slots; the invariant is the sum over all index assignments of the
product of tensor entries.

Two flavors:

* ``real``    any perfect matching; invariant under the orthogonal action,
* ``parity``  every edge joins an odd position to an even one; invariant
              under the unitary and symplectic actions (each edge then
              contracts U against its conjugate, which telescopes away).

Vertices are numbered from 0, positions from 1 (so "odd position" means
k in {1, 3, ...}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import CanonicalTensor, densify, _class_info

__all__ = [
    "TraceGraph",
    "bouquet_graph",
    "enumerate_rank2",
    "evaluate",
    "melon_graph",
    "validate",
]

Slot = tuple[int, int]
Edge = tuple[Slot, Slot]


@dataclass(frozen=True)
class TraceGraph:
    """p-regular multigraph as a perfect matching on (vertex, position) slots."""

    p: int
    n: int
    flavor: str
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.flavor not in ("real", "parity"):
            raise ValueError(f"unknown graph flavor {self.flavor!r}")
        norm = tuple(sorted(tuple(sorted((tuple(a), tuple(b))))
                            for a, b in self.edges))
        object.__setattr__(self, "edges", norm)

    def is_connected(self) -> bool:
        """Whether the multigraph is connected (self-loops do not connect)."""
        if self.n <= 1:
            return True
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (v, _), (w, _) in self.edges:
            parent[find(v)] = find(w)
        return len({find(v) for v in range(self.n)}) == 1


def validate(g: TraceGraph) -> list[str]:
    """Check the perfect-matching and parity conditions.

    Returns a list of human-readable violations; an empty list means the
    graph is a valid trace-invariant diagram.  Connectivity is *not* a
    validity condition (disconnected graphs encode products of invariants);
    query it with ``g.is_connected()``.
    """
    out = []
    if g.p < 1 or g.n < 1:
        out.append("p and n must be positive")
        return out
    if (g.n * g.p) % 2:
        out.append(f"n*p = {g.n * g.p} is odd, no perfect matching exists")
    seen: dict[Slot, int] = {}
    for a, b in g.edges:
        for v, k in (a, b):
            if not (0 <= v < g.n):
                out.append(f"vertex {v} out of range 0..{g.n - 1}")
            elif not (1 <= k <= g.p):
                out.append(f"position {k} at vertex {v} out of range 1..{g.p}")
            else:
                seen[(v, k)] = seen.get((v, k), 0) + 1
        if a == b:
            out.append(f"slot {a} matched with itself")
        if g.flavor == "parity" and (a[1] + b[1]) % 2 == 0:
            out.append(f"parity: edge {a}-{b} joins positions of equal parity")
    for slot, cnt in seen.items():
        if cnt > 1:
            out.append(f"slot reuse: {slot} appears in {cnt} edges")
    missing = g.n * g.p - len(seen)
    if not out and missing:
        out.append(f"{missing} slots are unmatched")
    elif not out and len(g.edges) != g.n * g.p // 2:
        out.append(f"expected {g.n * g.p // 2} edges, got {len(g.edges)}")
    return out


#: Cross matching of each melon convention: on a two-vertex graph with r
#: cross edges, position t of vertex 0 joins position cross(t, r) of vertex 1.
_CROSS = {
    "real": lambda t, r: t,
    "hermitian": lambda t, r: t % r + 1,
    "selfdual": lambda t, r: t + 1 if t % 2 else t - 1,
}


def _loops(v: int, first: int, p: int) -> list[Edge]:
    """Self-loops at vertex v pairing positions (first+1, first+2), ..., (p-1, p)."""
    return [((v, k), (v, k + 1)) for k in range(first + 1, p, 2)]


def _two_vertex(p: int, r: int, convention: str) -> TraceGraph:
    """Two vertices joined by r cross edges under ``convention``, each
    vertex closing its other p - r positions with self-loops."""
    cross = _CROSS[convention]
    edges = [((0, t), (1, cross(t, r))) for t in range(1, r + 1)]
    flavor = "real" if convention == "real" else "parity"
    return TraceGraph(p, 2, flavor, tuple(edges + _loops(0, r, p) + _loops(1, r, p)))


def melon_graph(p: int, flavor: str = "real") -> TraceGraph:
    """Two vertices joined by all p edges; evaluates to the squared
    Frobenius norm on tensors of the matching class.

    ``flavor`` selects the matching convention: ``real`` joins equal
    positions, ``hermitian`` joins position t to t+1 cyclically, and
    ``selfdual`` swaps the two positions within each consecutive pair.
    The latter two produce parity graphs and need p even.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if flavor != "real" and p % 2:
        raise ValueError(f"{flavor} melon needs p even")
    if flavor not in _CROSS:
        raise ValueError(f"unknown melon flavor {flavor!r}")
    return _two_vertex(p, p, flavor)


def bouquet_graph(p: int, flavor: str = "real") -> TraceGraph:
    """One vertex, p/2 self-loops pairing positions (2t-1, 2t); needs p even.

    Each loop joins an odd position to an even one, so the same matching is
    valid for both flavors; evaluates to the paired trace.
    """
    if p < 2 or p % 2:
        raise ValueError("bouquet needs p even and positive")
    return TraceGraph(p, 1, flavor, tuple(_loops(0, 0, p)))


def enumerate_rank2(p: int, flavor: str = "real") -> list[TraceGraph]:
    """One connected two-vertex trace invariant per admissible number r of
    cross edges: r in {p, p-2, ..., >= 1} for the real flavor.

    With r cross edges each vertex is left with (p-r)/2 self-loops.  Two
    matchings with the same r differ by a relabeling of positions within
    the vertices, so the family is complete only for classes that every
    relabeling fixes (GOTE, GUTE); at GSTE (6,1) it spans 3 of the 22
    degree-2 invariants.  For the parity flavor a counting argument forces
    r to be even (each vertex must pair leftover odd positions with
    leftover even ones, and exactly r/2 cross edges leave from odd
    positions), so r in {p, p-2, ..., 2}; its cross edges swap the
    positions within each pair, as in the self-dual melon.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if flavor not in ("real", "parity"):
        raise ValueError(f"unknown graph flavor {flavor!r}")
    if flavor == "parity" and p % 2:
        raise ValueError("parity graphs need p even")
    convention = "real" if flavor == "real" else "selfdual"
    return [_two_vertex(p, r, convention) for r in range(p, 0, -2)]


def _check_compatible(g: TraceGraph, t) -> np.ndarray:
    bad = validate(g)
    if bad:
        raise ValueError("invalid graph: " + "; ".join(bad))
    if isinstance(t, CanonicalTensor):
        graph = _class_info(t.class_tag).graph
        if graph != g.flavor:
            raise ValueError(f"class {t.class_tag!r} evaluates on {graph} graphs, "
                             f"got a {g.flavor} graph")
        if t.p != g.p:
            raise ValueError(f"graph order {g.p} != tensor order {t.p}")
        return densify(t)
    dense = np.asarray(t)
    if dense.ndim != g.p:
        raise ValueError(f"graph order {g.p} != tensor order {dense.ndim}")
    return dense


def _slot_labels(g: TraceGraph) -> list[list[int]]:
    """Edge id carried by each (vertex, position), as labels[v][k-1]."""
    labels = [[-1] * g.p for _ in range(g.n)]
    for eid, ((v, k), (w, l)) in enumerate(g.edges):
        labels[v][k - 1] = eid
        labels[w][l - 1] = eid
    return labels


@lru_cache(maxsize=None)
def _plan(g: TraceGraph, dim: int) -> tuple[str, tuple[tuple[int, int], ...]]:
    """Contraction plan: ('dp'|'greedy', merge steps over node ids).

    Node ids 0..n-1 are the (self-loop-traced) vertices; each merge step
    (a, b) combines two live nodes into a fresh id n, n+1, ...  Exact
    subset dynamic programming when n <= 6, greedy otherwise: merge the
    pair sharing the most edges, ties broken by smaller resulting rank,
    then lexicographically.
    """
    labels = _slot_labels(g)
    free = []
    for v in range(g.n):
        lab = labels[v]
        free.append(frozenset(e for e in lab if lab.count(e) == 1))
    if g.n == 1:
        return ("dp", ())
    if g.n <= 6:
        return ("dp", _plan_dp(free, dim))
    return ("greedy", _plan_greedy(free, dim))


def _plan_dp(free: list[frozenset], dim: int) -> tuple[tuple[int, int], ...]:
    n = len(free)
    full = (1 << n) - 1

    def freeset(mask):
        s = frozenset()
        for v in range(n):
            if mask >> v & 1:
                s = s ^ free[v]          # labels interior to mask cancel
        return s

    fs = {1 << v: free[v] for v in range(n)}
    best: dict[int, tuple[float, int]] = {1 << v: (0.0, 0) for v in range(n)}
    order = sorted(range(1, full + 1), key=lambda m: bin(m).count("1"))
    for mask in order:
        if mask in best:
            continue
        fs[mask] = freeset(mask)
        choice = None
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub < rest:               # each split once
                ca, _ = best[sub]
                cb, _ = best[rest]
                step = float(dim) ** len(fs[sub] | fs[rest])
                total = ca + cb + step
                if choice is None or total < choice[0]:
                    choice = (total, sub)
            sub = (sub - 1) & mask
        best[mask] = choice

    steps = []
    next_id = [n]
    node_of = {1 << v: v for v in range(n)}

    def emit(mask):
        if mask in node_of:
            return node_of[mask]
        _, sub = best[mask]
        a = emit(sub)
        b = emit(mask ^ sub)
        steps.append((a, b))
        nid = next_id[0]
        next_id[0] += 1
        node_of[mask] = nid
        return nid

    emit(full)
    return tuple(steps)


def _plan_greedy(free: list[frozenset], dim: int) -> tuple[tuple[int, int], ...]:
    live = {v: free[v] for v in range(len(free))}
    steps = []
    nid = len(free)
    while len(live) > 1:
        ids = sorted(live)
        pick = None
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                shared = len(live[a] & live[b])
                rank = len(live[a] ^ live[b])
                key = (-shared, rank, a, b)
                if pick is None or key < pick[0]:
                    pick = (key, a, b)
        _, a, b = pick
        steps.append((a, b))
        live[nid] = live.pop(a) ^ live.pop(b)
        nid += 1
    return tuple(steps)


def evaluate(g: TraceGraph, t):
    """Value of the trace invariant on a tensor (canonical or dense).

    The sum over one index per edge of the product of vertex entries, run
    through a planned sequence of pairwise einsum contractions (self-loops
    are partial-traced inside each vertex first).  Real-flavor results are
    checked to be real, relative to their size, and returned as float;
    parity flavor returns complex.
    """
    val = _contract(g, _check_compatible(g, t)[None])[0]
    return float(val) if g.flavor == "real" else complex(val)


def _evaluate_stack(g: TraceGraph, dense: np.ndarray) -> np.ndarray:
    """Values of the invariant on a (B, D, ..., D) stack of dense tensors;
    the graph is checked once for the whole stack."""
    _check_compatible(g, dense[0])
    return _contract(g, dense)


def _renumbered_einsum(*args) -> np.ndarray:
    """``np.einsum`` in its interleaved form, this call's labels renumbered to
    0..k-1 in increasing order: numpy takes labels below 52 only."""
    *ops, out = args
    used = sorted(set(out).union(*ops[1::2]))
    if len(used) > 52:
        raise ValueError(f"a contraction step needs {len(used)} index labels, "
                         "above the 52 that numpy's einsum supports")
    new = {label: k for k, label in enumerate(used)}
    ops[1::2] = [[new[label] for label in labels] for labels in ops[1::2]]
    return np.einsum(*ops, [new[label] for label in out])


def _contract(g: TraceGraph, dense: np.ndarray) -> np.ndarray:
    """The planned contraction over a leading batch label."""
    labels = _slot_labels(g)
    batch = len(g.edges)            # a label no edge uses, the largest
    einsum = np.einsum if batch < 52 else _renumbered_einsum  # renumbering costs per call
    nodes: dict[int, tuple[list[int], np.ndarray]] = {}
    traced: dict[tuple[int, ...], np.ndarray] = {}  # one partial trace per loop pattern
    for v in range(g.n):
        lab = labels[v]
        keep = [e for e in lab if lab.count(e) == 1]
        pattern = tuple(map(lab.index, lab))
        if len(keep) < g.p and pattern not in traced:
            traced[pattern] = einsum(dense, [batch, *lab], [batch, *keep])
        nodes[v] = (keep, traced.get(pattern, dense))
    _, steps = _plan(g, dense.shape[1])
    nid = g.n
    for a, b in steps:
        la, ta = nodes.pop(a)
        lb, tb = nodes.pop(b)
        out = sorted(set(la) ^ set(lb))
        nodes[nid] = (out, einsum(ta, [batch, *la], tb, [batch, *lb], [batch, *out]))
        nid += 1
    (_, val), = nodes.values()
    return _real_part(val) if g.flavor == "real" else np.asarray(val, dtype=complex)


def _real_part(val: np.ndarray) -> np.ndarray:
    """Real values of a real-flavor invariant, after checking that every
    imaginary part is negligible relative to its value."""
    if not np.iscomplexobj(val):
        return val
    bad = np.abs(val.imag) > 1e-10 * np.abs(val)
    if np.any(bad):
        raise ValueError("real-flavor invariant has imaginary part "
                         f"{val.imag[bad][0]:.3e}")
    return val.real
