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
from itertools import combinations
from typing import NamedTuple

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


def _check_compatible(g: TraceGraph, t) -> tuple[_Program, np.ndarray]:
    """The program of ``g`` at the tensor's dimension, and the tensor's
    dense form checked against the graph's flavor and order."""
    if isinstance(t, CanonicalTensor):
        info = _class_info(t.class_tag)
        program, order, dense = _plan(g, info.dim_factor * t.N), t.p, None
        if info.graph != g.flavor:
            raise ValueError(f"class {t.class_tag!r} evaluates on {info.graph} graphs, "
                             f"got a {g.flavor} graph")
    else:
        dense = np.asarray(t)
        program, order = _plan(g, dense.shape[0] if dense.ndim else 0), dense.ndim
    if order != g.p:
        raise ValueError(f"graph order {g.p} != tensor order {order}")
    return program, densify(t) if dense is None else dense


def _slot_labels(g: TraceGraph) -> list[list[int]]:
    """Edge id carried by each (vertex, position), as labels[v][k-1]."""
    labels = [[-1] * g.p for _ in range(g.n)]
    for eid, ((v, k), (w, l)) in enumerate(g.edges):
        labels[v][k - 1] = eid
        labels[w][l - 1] = eid
    return labels


class _Program(NamedTuple):
    """One graph's contraction at one dimension, compiled once.

    ``kind`` and ``steps`` are the planner's ('dp'|'greedy', merge steps over
    node ids); ``traces`` holds one partial-trace einsum (labels, kept labels)
    per loop pattern, ``sources`` each vertex's operand (0 the dense stack, k
    the k-th trace) and ``merges`` each step's (a's, b's, output) labels.
    Labels lead with the batch label and are renumbered 0..k-1 in increasing
    order, below numpy's 52; the order, and so einsum's loops, are kept.
    """

    kind: str
    steps: tuple[tuple[int, int], ...]
    traces: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    sources: tuple[int, ...]
    merges: tuple[tuple[tuple[int, ...], ...], ...]
    real: bool

    def __call__(self, dense: np.ndarray) -> np.ndarray:
        """Values on a (B, D, ..., D) stack; real-flavor values are checked
        to be real, relative to their size."""
        einsum = np.einsum
        operands = [dense] + [einsum(dense, lab, keep) for lab, keep in self.traces]
        nodes = {v: operands[k] for v, k in enumerate(self.sources)}
        for nid, ((a, b), (la, lb, out)) in enumerate(zip(self.steps, self.merges), len(nodes)):
            nodes[nid] = einsum(nodes.pop(a), la, nodes.pop(b), lb, out)
        (val,) = nodes.values()
        return _real_part(val) if self.real else np.asarray(val, dtype=complex)


def _renumbered(*labels: list[int]) -> tuple[tuple[int, ...], ...]:
    """The label lists of one einsum call renumbered to 0..k-1 in increasing
    order: numpy takes labels below 52 only."""
    used = sorted(set().union(*labels))
    if len(used) > 52:
        raise ValueError(f"a contraction step needs {len(used)} index labels, "
                         "above the 52 that numpy's einsum supports")
    new = {label: k for k, label in enumerate(used)}
    return tuple(tuple(new[label] for label in lab) for lab in labels)


@lru_cache(maxsize=None)
def _plan(g: TraceGraph, dim: int) -> _Program:
    """The compiled contraction of a valid graph at dimension ``dim``.

    Node ids 0..n-1 are the (self-loop-traced) vertices; each merge step
    (a, b) combines two live nodes into a fresh id n, n+1, ...  Exact
    subset dynamic programming when n <= 6, greedy otherwise: merge the
    pair sharing the most edges, ties broken by smaller resulting rank,
    then lexicographically.  An invalid graph, or a step above 52 labels,
    raises, and lru_cache keeps no result of a call that raised.
    """
    if bad := validate(g):
        raise ValueError("invalid graph: " + "; ".join(bad))
    batch = len(g.edges)            # a label no edge uses
    free, sources, traces = [], [], {}  # one partial trace per loop pattern
    for lab in _slot_labels(g):
        keep = [e for e in lab if lab.count(e) == 1]
        free.append(keep)
        pattern = tuple(map(lab.index, lab))
        if len(keep) < g.p and pattern not in traces:
            traces[pattern] = _renumbered([batch, *lab], [batch, *keep])
        sources.append(list(traces).index(pattern) + 1 if pattern in traces else 0)
    kind, steps = ("dp", _plan_dp(free, dim)) if g.n <= 6 else ("greedy", _plan_greedy(free, dim))
    nodes, merges = dict(enumerate(free)), []
    for nid, (a, b) in enumerate(steps, g.n):
        la, lb = nodes.pop(a), nodes.pop(b)
        nodes[nid] = out = sorted(set(la) ^ set(lb))
        merges.append(_renumbered([batch, *la], [batch, *lb], [batch, *out]))
    return _Program(kind, steps, tuple(traces.values()), tuple(sources), tuple(merges),
                    g.flavor == "real")


def _plan_dp(free: list[list[int]], dim: int) -> tuple[tuple[int, int], ...]:
    n = len(free)
    fs = {1 << v: frozenset(free[v]) for v in range(n)}
    best: dict[int, tuple[float, int]] = {1 << v: (0.0, 0) for v in range(n)}
    for mask in sorted(range(1, 1 << n), key=lambda m: bin(m).count("1")):
        if mask in best:
            continue
        low = mask & -mask
        fs[mask] = fs[low] ^ fs[mask ^ low]     # labels interior to mask cancel
        choice = None
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub < rest:               # each split once
                total = best[sub][0] + best[rest][0] + float(dim) ** len(fs[sub] | fs[rest])
                if choice is None or total < choice[0]:
                    choice = (total, sub)
            sub = (sub - 1) & mask
        best[mask] = choice

    steps = []
    node_of = {1 << v: v for v in range(n)}

    def emit(mask):
        if mask not in node_of:
            sub = best[mask][1]
            steps.append((emit(sub), emit(mask ^ sub)))
            node_of[mask] = n + len(steps) - 1
        return node_of[mask]

    emit((1 << n) - 1)
    return tuple(steps)


def _plan_greedy(free: list[list[int]], dim: int) -> tuple[tuple[int, int], ...]:
    live = {v: frozenset(labels) for v, labels in enumerate(free)}
    steps = []
    for nid in range(len(free), 2 * len(free) - 1):
        a, b = min(combinations(sorted(live), 2),
                   key=lambda ab: (-len(live[ab[0]] & live[ab[1]]), len(live[ab[0]] ^ live[ab[1]]), ab))
        steps.append((a, b))
        live[nid] = live.pop(a) ^ live.pop(b)
    return tuple(steps)


def evaluate(g: TraceGraph, t):
    """Value of the trace invariant on a tensor (canonical or dense).

    The sum over one index per edge of the product of vertex entries, run
    through a planned sequence of pairwise einsum contractions (self-loops
    are partial-traced inside each vertex first), compiled once per graph
    and dimension.  Real-flavor results are checked to be real, relative
    to their size, and returned as float; parity flavor returns complex.
    """
    program, dense = _check_compatible(g, t)
    val = program(dense[None])[0]
    return float(val) if g.flavor == "real" else complex(val)


def _evaluate_stack(g: TraceGraph, dense: np.ndarray) -> np.ndarray:
    """Values of the invariant on a (B, D, ..., D) stack of dense tensors;
    the graph is checked once for the whole stack."""
    return _check_compatible(g, dense[0])[0](dense)


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
