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


def _numbers(xs) -> bool:
    """True when every item is a JSON number: an integer or a float, not a bool."""
    return {int, float}.issuperset(map(type, xs))


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "), allow_nan=False)


def dumps_tensor(t: CanonicalTensor) -> str:
    info = _class_info(t.class_tag)
    entries = []
    classes = canonical_indices(t.p, t.N)
    if info.dim_factor == 1:
        # scalar units: the components are the real and imaginary parts
        re = t.array[0].tolist()
        im = t.array[1].tolist() if len(t.array) > 1 else [0.0] * len(re)
        for m, x, y in zip(classes, re, im):
            if x == 0.0 and y == 0.0:
                continue
            e = {"idx": [i + 1 for i in m], "re": x}
            if y != 0.0:
                e["im"] = y
            entries.append(e)
    else:
        # storage order is the sorted order of the labels
        for eps, row in zip(info.keys(t.p), t.array.tolist()):
            for m, x in zip(classes, row):
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
    rows = info.rows(p)
    pos = _class_positions(p, N)
    arr = np.zeros((len(rows), len(pos)))
    if not isinstance(raw_entries, list):
        raise ValueError(f"entries must be a list, got {raw_entries!r}")
    for e in raw_entries:
        one_based = e.get("idx") if isinstance(e, dict) else None
        if not (isinstance(one_based, list) and _ints(one_based)):
            raise ValueError(f"entry {e!r}: idx must hold integers")
        idx = tuple(i - 1 for i in one_based)
        if idx not in pos:
            if tuple(sorted(idx)) in pos:
                raise ValueError(f"idx {one_based} is not sorted non-decreasingly")
            raise ValueError(f"idx {one_based} out of range for p={p}, N={N}")
        j = pos[idx]
        re, im = e.get("re", 0.0), e.get("im", 0.0)
        if not _numbers((re, im)):
            raise ValueError(f"re and im must be numbers, got re={re!r} im={im!r}")
        if info.dim_factor == 1:
            if len(rows) == 1 and im != 0.0:
                raise ValueError(f"{tag} tensors are real; drop the 'im' field")
            arr[0, j] = re
            if len(rows) > 1:
                arr[1, j] = im
            continue
        if im != 0.0:
            raise ValueError("self-dual components are real; drop the 'im' field")
        eps = e.get("eps", [])
        if not (isinstance(eps, list) and _ints(eps) and tuple(eps) in rows):
            raise ValueError(f"eps must be a length-{info.slots(p)} list over "
                             f"0..{len(info.units) - 1}, got {eps!r}")
        arr[rows[tuple(eps)], j] = re
    if not np.isfinite(arr).all():
        c, j = np.argwhere(~np.isfinite(arr))[0]
        field = "im" if info.dim_factor == 1 and c == 1 else "re"
        idx = [i + 1 for i in canonical_indices(p, N)[j]]
        raise ValueError(f"entry with idx {idx}: {field} must be finite, "
                         f"got {float(arr[c, j])!r}")
    return CanonicalTensor(tag, p, N, arr)


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
    try:
        ok = all(len(cell) == 2 and _numbers(cell) for row in rows for cell in row)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError("rows must be lists of [re, im] number pairs")
    mat = np.array([[complex(a, b) for a, b in row] for row in rows])
    size = 2 * N if flavor == "symplectic" else N
    if mat.shape != (size, size):
        raise ValueError(f"{flavor} with N={N} needs a {size}x{size} matrix, got {mat.shape}")
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
