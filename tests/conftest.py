"""Shared helpers for the test suite."""

import itertools
import json
import math
import os
import tempfile
from collections import Counter

import numpy as np
from hypothesis import settings

from gte.harness import _Law
from gte.invariants import _check_compatible, _plan, _real_part, _slot_labels
from gte.tensor import (
    CLASS_TAGS,
    CanonicalTensor,
    canonical_indices,
    canonicalize,
    class_count,
    component_is_symmetric,
    multiplicities,
    shifted_by_identity,
    unflatten_isometry,
    _class_info,
    _class_positions,
)


# Property tests run a fixed sequence of examples and keep no example
# database, so tier-1 is deterministic.  Hypothesis still caches the
# constants it reads from the source; that cache goes to a directory removed
# after the run, so no .hypothesis directory is left in the checkout.
settings.register_profile("gte", derandomize=True, deadline=None, database=None)
settings.load_profile("gte")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="gte-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


# verdict lines recorded by the acceptance tests, printed after the run
# (a summary section is immune to output capture)
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def multiplicity(indices):
    """Number of distinct permutations of an index tuple, p! / prod(c_j!).

    The per-tuple oracle for :func:`gte.tensor.multiplicities`.
    """
    tup = tuple(indices)
    out = math.factorial(len(tup))
    for c in Counter(tup).values():
        out //= math.factorial(c)
    return out


def is_paired(indices):
    """True when the tuple is a permutation of (j1, j1, ..., j_{p/2}, j_{p/2}).

    Equivalently, every index value occurs an even number of times; always
    False for odd order.  The per-tuple oracle for
    :func:`gte.tensor.paired_mask`.
    """
    tup = tuple(indices)
    if len(tup) % 2:
        return False
    return all(c % 2 == 0 for c in Counter(tup).values())


def live_mask(class_tag, p, N):
    """The (C, K) canonical values a tensor of the class may hold nonzero:
    all but the repeated-index classes (multiplicity < p!) of its
    antisymmetric components.  The per-tuple oracle for the mask of
    :meth:`gte.tensor._TensorClass.coordinates`."""
    repeated = [multiplicity(m) < math.factorial(p) for m in canonical_indices(p, N)]
    anti = [component_is_symmetric(key) == (class_tag == "antisym")
            for key in _class_info(class_tag).keys(p)]
    return np.array([[not (a and r) for r in repeated] for a in anti])


def paired_trace(t):
    """Sum of the entries at (i1, i1, ..., i_{p/2}, i_{p/2}); 0 for p odd.

    The canonical-storage oracle for the bouquet invariant: each paired
    class contributes its entry times the number of half-index tuples
    hitting it, and only the symmetric lead component survives (the
    antisymmetric ones vanish on paired indices; for self-dual tensors the
    2x2 units trace to 2*delta_{e0}, giving a 2^{p/2} factor on Q^(0)).
    """
    info = _class_info(t.class_tag)
    if t.p % 2 or info.antisymmetric:
        return 0.0
    # a sorted paired tuple is (j1, j1, j2, j2, ...): every other index is its half
    half = [multiplicity(m[0::2]) if is_paired(m) else 0 for m in canonical_indices(t.p, t.N)]
    return float(info.norm_sq(t.p) * np.dot(half, t.array[0]))


def random_tensor(class_tag, p, N, rng):
    """A generic member of the class with standard-normal canonical entries
    (zeroed where the class forces zeros)."""
    K = class_count(p, N)
    if class_tag == "sym":
        return CanonicalTensor("sym", p, N, {(): rng.standard_normal(K)})
    if class_tag == "antisym":
        vals = rng.standard_normal(K)
        vals[multiplicities(p, N) < math.factorial(p)] = 0.0
        return CanonicalTensor("antisym", p, N, {(): vals})
    if class_tag == "herm":
        h1 = rng.standard_normal(K)
        h1[multiplicities(p, N) < math.factorial(p)] = 0.0
        return CanonicalTensor("herm", p, N, {(0,): rng.standard_normal(K), (1,): h1})
    comps = {}
    for eps in itertools.product(range(4), repeat=p // 2):
        v = rng.standard_normal(K)
        if not component_is_symmetric(eps):
            v[multiplicities(p, N) < math.factorial(p)] = 0.0
        comps[eps] = v
    return CanonicalTensor("selfdual", p, N, comps)


def direct_sum(g, t):
    """Brute-force evaluation: explicit sum over all edge-index assignments.

    Exponential in the number of edges.  :func:`gte.invariants.evaluate`
    never falls back to it; it is the oracle the contraction planner is
    tested against.
    """
    dense = _check_compatible(g, t)
    labels = _slot_labels(g)
    dim = dense.shape[0]
    total = 0.0 + 0.0j
    for assign in itertools.product(range(dim), repeat=len(g.edges)):
        term = 1.0 + 0.0j
        for v in range(g.n):
            term *= dense[tuple(assign[e] for e in labels[v])]
            if term == 0.0:
                break
        total += term
    if g.flavor == "real":
        return float(_real_part(np.array(total)))
    return total


# The hand-written symplectic form, quaternion embedding and per-leg
# matrices that the group records of :mod:`gte.groups` replaced, kept as
# their oracles: J, the Haar embeddings and the leg matrices must equal
# these byte for byte, -0.0 included.

def oracle_symplectic_form(N):
    J = np.zeros((2 * N, 2 * N))
    for k in range(N):
        J[2 * k, 2 * k + 1] = -1.0
        J[2 * k + 1, 2 * k] = 1.0
    return J


def oracle_haar_embed(flavor, normals):
    """The (B, D, D) matrices a Haar draw orthonormalizes, from (B, k, N, N) normals."""
    if flavor == "orthogonal":
        return normals[:, 0]
    if flavor == "unitary":
        return normals[:, 0] + 1j * normals[:, 1]
    a, b, c, d = normals.swapaxes(0, 1)
    B, N = a.shape[:2]
    out = np.empty((B, 2 * N, 2 * N), dtype=complex)
    out[:, 0::2, 0::2] = a + 1j * b
    out[:, 0::2, 1::2] = -c - 1j * d
    out[:, 1::2, 0::2] = c - 1j * d
    out[:, 1::2, 1::2] = a - 1j * b
    return out


def oracle_leg_matrices(flavor, mats, p):
    if flavor == "orthogonal":
        return [mats] * p
    if flavor == "unitary":
        return [mats if t % 2 == 0 else mats.conj() for t in range(p)]
    J = oracle_symplectic_form(mats.shape[-1] // 2)
    even = -J @ mats @ J
    return [mats if t % 2 == 0 else even for t in range(p)]


# The one-leg-at-a-time action and the one-trace-per-vertex contraction
# that the tiled sweeps of :func:`gte.groups._act_stack` and the shared
# partial traces of :func:`gte.invariants._contract` replaced, kept as their
# oracles: every output must equal these byte for byte.

def oracle_act_stack(flavor, mats, dense, p):
    B, dim = len(mats), mats.shape[-1]
    dtype = np.promote_types(dense.dtype, mats.dtype)
    bufs = [np.empty(dense.shape, dtype) for _ in range(min(p, 2))]
    for t, mat in enumerate(oracle_leg_matrices(flavor, mats, p)):
        out = bufs[(p - 1 - t) % 2]
        np.matmul(dense.reshape(B, dim, -1).swapaxes(1, 2), mat, out=out.reshape(B, -1, dim))
        dense = out
    return dense


def oracle_contract(g, dense):
    labels = _slot_labels(g)
    batch = len(g.edges)
    nodes = {}
    for v in range(g.n):
        lab = labels[v]
        keep = [e for e in lab if lab.count(e) == 1]
        arr = np.einsum(dense, [batch, *lab], [batch, *keep]) if len(keep) < g.p else dense
        nodes[v] = (keep, arr)
    nid = g.n
    for a, b in _plan(g, dense.shape[1])[1]:
        la, ta = nodes.pop(a)
        lb, tb = nodes.pop(b)
        out = sorted(set(la) ^ set(lb))
        nodes[nid] = (out, np.einsum(ta, [batch, *la], tb, [batch, *lb], [batch, *out]))
        nid += 1
    (_, val), = nodes.values()
    return _real_part(val) if g.flavor == "real" else np.asarray(val, dtype=complex)


def constant_sampler(t: CanonicalTensor):
    """The degenerate law at ``t``: it reads nothing from its stream."""
    return _Law(t.class_tag, t.p, t.N, 0,
                lambda z: np.broadcast_to(t.array, (len(z),) + t.array.shape))


# The per-draw designed laws that the block records of
# :mod:`gte.harness` replaced, kept as their oracles: a record's draws and
# the Haar normals read after them must equal these bit for bit.

def oracle_uniform_entry_sampler(p, N):
    K = class_count(p, N)

    def draw(rng):
        return CanonicalTensor("sym", p, N, {(): rng.uniform(0.0, 1.0, K)})

    return draw


def oracle_rotated_spike_sampler(p, N, beta=0.0, scale=1.0):
    def draw(rng):
        v = rng.standard_normal(N)
        v /= np.linalg.norm(v)
        dense = np.array(scale)
        for _ in range(p):
            dense = np.multiply.outer(dense, v)
        t = canonicalize(dense, "sym")
        return shifted_by_identity(t, beta) if beta else t

    return draw


def oracle_sphere_sampler(p, N):
    K = class_count(p, N)

    def draw(rng):
        u = rng.standard_normal(K)
        return unflatten_isometry(u / np.linalg.norm(u), p, N)

    return draw


# The per-entry tensor codec that :func:`gte.serialize.dumps_tensor` and
# :func:`gte.serialize.loads_tensor` replaced, kept as their oracle: the
# writer's bytes and the reader's arrays and error messages must equal these.

def _ints(xs) -> bool:
    """True when every item is a JSON integer: not a float, not a bool."""
    return {int}.issuperset(map(type, xs))


def _numbers(xs) -> bool:
    """True when every item is a JSON number: an integer or a float, not a bool."""
    return {int, float}.issuperset(map(type, xs))


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "), allow_nan=False)


def oracle_dumps_tensor(t: CanonicalTensor) -> str:
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


def oracle_loads_tensor(s: str) -> CanonicalTensor:
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
