"""JSON string codec for tensors, group elements, and trace graphs.

Each ``dumps_*`` writes one object as a one-line JSON string and each
``loads_*`` reads one back, refusing a malformed object with ``ValueError``.
A tensor file is NDJSON, ``dumps_tensor(t) + "\\n"`` per tensor, and
:func:`load_tensors` reads one back.  Strings use 1-based tensor indices (as
in standard index notation); the in-memory types are 0-based.  This module
is the only place where the shift happens.  All writers are deterministic:
fixed key order, canonical entry order, shortest-round-trip floats.  The
tensor writer and reader work from per-(p, N) tables of the canonical
classes, and the reader checks each field on whole lists at once.

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
from functools import lru_cache
from itertools import chain, compress, count

import numpy as np

from .groups import GroupElement, _group
from .invariants import TraceGraph
from .tensor import (CLASS_TAGS, CanonicalTensor, canonical_indices, _canonical_flat,
                     _canonical_rows, _class_info)

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


def _doubles(xs: list) -> np.ndarray:
    """The JSON numbers ``xs`` as doubles.  An integer past the double range
    reads as +-inf, as json reads a float literal past it."""
    try:
        return np.array(xs, dtype=float)
    except OverflowError:  # float() refuses such an integer, not its digits
        return np.array([float(str(x)) for x in xs])


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "), allow_nan=False)


@lru_cache(maxsize=None)
def _class_table(p: int, N: int) -> tuple[str, ...]:
    """Per canonical class: the text of its entry up to the "re" value."""
    return tuple('{"idx": %s, "re": ' % m for m in (_canonical_rows(p, N).astype(int) + 1).tolist())


def dumps_tensor(t: CanonicalTensor) -> str:
    pre, arr, info = _class_table(t.p, t.N), t.array, _class_info(t.class_tag)
    if info.dim_factor == 1:
        # scalar units: the components are the real and imaginary parts
        k = np.flatnonzero(arr.any(axis=0))
        im = arr[1, k].tolist() if len(arr) > 1 else [0.0] * len(k)
        entries = [pre[j] + repr(x) + (', "im": %r}' % y if y else "}")
                   for j, x, y in zip(k.tolist(), arr[0, k].tolist(), im)]
    else:
        # storage order is the sorted order of the labels
        entries = []
        for row, eps in zip(arr, info.keys(t.p)):
            k, tail = np.flatnonzero(row), ', "eps": %s}' % list(eps)
            entries += [pre[j] + repr(x) + tail for j, x in zip(k.tolist(), row[k].tolist())]
    return '{"class": "%s", "p": %d, "N": %d, "entries": [%s]}' % (
        t.class_tag, t.p, t.N, ", ".join(entries))


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
    if not isinstance(raw_entries, list):
        raise ValueError(f"entries must be a list, got {raw_entries!r}")
    # Each check runs once over whole lists, in the order the checks apply to
    # one entry.  A failure keeps only the entries before it, so each check
    # sees entries that passed the earlier ones, and the first bad entry wins.
    n, error = len(raw_entries), None

    def refuse(ok: bool, bad, message) -> None:
        """Unless ``ok``, cut the entries at the first true item of ``bad``."""
        nonlocal n, error
        j = n if ok else next(compress(count(), bad), n)
        if j < n:
            n, error = j, message(j)

    def outside(j):
        return f"idx {idx[j]} out of range for p={p}, N={N}"

    idx = [e.get("idx") if type(e) is dict else None for e in raw_entries]
    refuse({list}.issuperset(map(type, idx)) and _ints(chain.from_iterable(idx)),
           (type(i) is not list or not _ints(i) for i in idx),
           lambda j: f"entry {raw_entries[j]!r}: idx must hold integers")
    idx = idx[:n]
    refuse({p}.issuperset(map(len, idx)), (len(i) != p for i in idx), outside)
    # an integer past int64 makes a float or object array, which compares alike
    a = np.array(list(chain.from_iterable(idx[:n]))).reshape(-1, p)
    refuse(False, ((a[:, 0] < 1) | (a[:, -1] > N) | (a[:, 1:] < a[:, :-1]).any(axis=1)).tolist(),
           lambda j: outside(j) if min(idx[j]) < 1 or max(idx[j]) > N
           else f"idx {idx[j]} is not sorted non-decreasingly")
    kept = raw_entries[:n]
    re, im = [e.get("re", 0.0) for e in kept], [e.get("im", 0.0) for e in kept]
    refuse(_numbers(re) and _numbers(im), (not _numbers(v) for v in zip(re, im)),
           lambda j: f"re and im must be numbers, got re={re[j]!r} im={im[j]!r}")
    re_rows = 0
    if len(rows) == 1:
        refuse(False, im, lambda j: f"{tag} tensors are real; drop the 'im' field")
    elif info.dim_factor != 1:
        refuse(False, im, lambda j: "self-dual components are real; drop the 'im' field")
        eps = [e.get("eps", []) for e in kept]
        re_rows = [rows.get(tuple(x)) if type(x) is list and _ints(x) else None for x in eps]
        refuse(False, (c is None for c in re_rows),
               lambda j: f"eps must be a length-{info.slots(p)} list over "
                         f"0..{len(info.units) - 1}, got {eps[j]!r}")
    if error is not None:
        raise ValueError(error)
    keys = _canonical_flat(p, N)
    k = np.searchsorted(keys, np.ravel_multi_index(tuple(a.astype(np.intp).T - 1), (N,) * p))
    arr = np.zeros((len(rows), len(keys)))
    # numpy assigns a repeated position in order, so the last entry wins
    arr[re_rows, k] = _doubles(re)
    if info.dim_factor == 1 and len(rows) > 1:
        arr[1, k] = _doubles(im)
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
    group = _group(flavor)
    if not _ints((N,)):
        raise ValueError(f"N must be an integer, got N={N!r}")
    try:
        ok = all(len(cell) == 2 and _numbers(cell) for row in rows for cell in row)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError("rows must be lists of [re, im] number pairs")
    mat = np.array([[complex(a, b) for a, b in row] for row in rows])
    size = group.dim_factor * N
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
