"""JSON string codec for tensors, group elements, and trace graphs.

Each ``dumps_*`` writes one object as a one-line JSON string and each
``loads_*`` reads one back, refusing a malformed object with ``ValueError``.
A tensor file is NDJSON, ``dumps_tensor(t) + "\\n"`` per tensor, and
:func:`load_tensors` reads one back.  Strings use 1-based tensor indices (as
in standard index notation); the in-memory types are 0-based.  This module
is the only place where the shift happens.  All writers are deterministic:
fixed key order, canonical entry order, shortest-round-trip floats.

Formats
-------
tensor   {"class": ..., "p": ..., "N": ..., "entries": [
             {"idx": [i1..ip], "re": x, "im": y, "eps": [e1..e_{p/2}]}, ...]}
         A class whose components are the real and imaginary parts of one
         value (sym, antisym, herm) writes one entry per class, "im" omitted
         when zero; a self-dual tensor writes one entry per component and
         class, labeled by "eps".  Zero entries are omitted and absent
         classes read back as 0.
matrix   {"flavor": ..., "N": ..., "rows": [[[re, im], ...], ...]}
graph    {"p": ..., "n": ..., "flavor": ..., "edges": [[[v, k], [w, l]], ...]}
         with vertices 0-based and positions 1-based, as in TraceGraph.
"""

from __future__ import annotations

import json

import numpy as np

from .groups import FLAVORS, GroupElement
from .invariants import TraceGraph
from .tensor import CLASS_TAGS, CanonicalTensor, canonical_indices, _class_info, _class_positions

__all__ = [
    "dumps_graph",
    "dumps_matrix",
    "dumps_tensor",
    "load_tensors",
    "loads_graph",
    "loads_matrix",
    "loads_tensor",
]


def _ints(xs) -> bool:
    """True when every item is a JSON integer: not a float, not a bool."""
    return {int}.issuperset(map(type, xs))


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "), allow_nan=False)


def dumps_tensor(t: CanonicalTensor) -> str:
    info = _class_info(t.class_tag)
    keys = info.keys(t.p)
    entries = []
    classes = canonical_indices(t.p, t.N)
    if info.dim_factor == 1:
        # scalar units: the components are the real and imaginary parts
        re = t.component(keys[0]).tolist()
        im = t.component(keys[1]).tolist() if len(keys) > 1 else [0.0] * len(re)
        for m, x, y in zip(classes, re, im):
            if x == 0.0 and y == 0.0:
                continue
            e = {"idx": [i + 1 for i in m], "re": x}
            if y != 0.0:
                e["im"] = y
            entries.append(e)
    else:
        for eps in sorted(t.data):
            for m, x in zip(classes, t.data[eps].tolist()):
                if x != 0.0:
                    entries.append({"idx": [i + 1 for i in m], "re": x, "eps": list(eps)})
    return _dumps({"class": t.class_tag, "p": t.p, "N": t.N, "entries": entries})


def loads_tensor(s: str) -> CanonicalTensor:
    d = json.loads(s)
    try:
        tag, p, N = d["class"], d["p"], d["N"]
        raw_entries = d["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"tensor object must have class/p/N/entries: missing {exc}")
    if tag not in CLASS_TAGS:
        raise ValueError(f"unknown tensor class {tag!r}")
    if not (_ints((p, N)) and p >= 1 and N >= 1):
        raise ValueError(f"p and N must be positive integers, got p={p!r} N={N!r}")
    info = _class_info(tag)
    info.check_shape(p, N, f"{tag} tensors")
    keys = info.keys(p)
    pos = _class_positions(p, N)
    K = len(pos)
    data = {} if info.sparse else {key: np.zeros(K) for key in keys}

    for e in raw_entries:
        if not _ints(e["idx"]):
            raise ValueError(f"idx {e['idx']} must hold integers")
        idx = tuple(i - 1 for i in e["idx"])
        if idx not in pos:
            if tuple(sorted(idx)) in pos:
                raise ValueError(f"idx {e['idx']} is not sorted non-decreasingly")
            raise ValueError(f"idx {e['idx']} out of range for p={p}, N={N}")
        j = pos[idx]
        re = float(e.get("re", 0.0))
        im = float(e.get("im", 0.0))
        if info.dim_factor == 1:
            if len(keys) == 1 and im != 0.0:
                raise ValueError(f"{tag} tensors are real; drop the 'im' field")
            data[keys[0]][j] = re
            if len(keys) > 1:
                data[keys[1]][j] = im
            continue
        if im != 0.0:
            raise ValueError("self-dual components are real; drop the 'im' field")
        eps = tuple(e.get("eps", ()))
        if eps not in keys or not _ints(eps):
            raise ValueError(f"eps must be a length-{len(keys[0])} tuple over "
                             f"0..{len(info.units) - 1}, got {eps}")
        data.setdefault(eps, np.zeros(K))[j] = re
    return CanonicalTensor(tag, p, N, data)


def load_tensors(path) -> list[CanonicalTensor]:
    """Every tensor of an NDJSON file, one per nonblank line, in order."""
    with open(path, encoding="utf-8") as fh:
        return [loads_tensor(ln) for ln in fh.read().splitlines() if ln.strip()]


def dumps_matrix(g: GroupElement) -> str:
    rows = [[[float(z.real), float(z.imag)] for z in row]
            for row in np.atleast_2d(g.matrix).astype(complex)]
    return _dumps({"flavor": g.flavor, "N": g.N, "rows": rows})


def loads_matrix(s: str) -> GroupElement:
    d = json.loads(s)
    try:
        flavor, N, rows = d["flavor"], d["N"], d["rows"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix object must have flavor/N/rows: missing {exc}")
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if not _ints((N,)):
        raise ValueError(f"N must be an integer, got N={N!r}")
    mat = np.array([[complex(a, b) for a, b in row] for row in rows])
    size = 2 * N if flavor == "symplectic" else N
    if mat.shape != (size, size):
        raise ValueError(f"{flavor} with N={N} needs a {size}x{size} matrix, got {mat.shape}")
    if flavor == "orthogonal":
        mat = mat.real
    return GroupElement(flavor, mat)


def dumps_graph(g: TraceGraph) -> str:
    return _dumps({"p": g.p, "n": g.n, "flavor": g.flavor,
                   "edges": [[[v, k], [w, l]] for (v, k), (w, l) in g.edges]})


def loads_graph(s: str) -> TraceGraph:
    d = json.loads(s)
    try:
        p, n, flavor, edges = d["p"], d["n"], d["flavor"], d["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph object must have p/n/flavor/edges: missing {exc}")
    if not _ints((p, n)):
        raise ValueError(f"p and n must be integers, got p={p!r} n={n!r}")
    try:
        norm = tuple(((v, k), (w, l)) for (v, k), (w, l) in edges)
        ok = _ints(x for edge in norm for slot in edge for x in slot)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError("edges must be pairs of [vertex, position] integer pairs")
    return TraceGraph(p, n, flavor, norm)
