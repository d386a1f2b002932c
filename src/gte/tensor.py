"""Symmetry-classed cubic tensors stored one value per canonical index class.

Storage model
-------------
A cubic tensor of order ``p`` and dimension ``N`` assigns a value to each of
the ``N**p`` index tuples.  Every symmetry class handled here is determined
by its values on the *canonical* tuples, the non-decreasing ones, of which
there are K = ``binom(N + p - 1, p)``.  A tensor holds one (C, K) array: one
row of K values per component, C components per class:

``sym`` / ``antisym``
    one real component; the dense entry is the entry at the sorted tuple,
    times the sign of the sorting permutation for ``antisym`` (so it
    vanishes whenever an index repeats).
``herm``
    a symmetric real part and an antisymmetric imaginary part; ``p`` even.
``selfdual``
    one real component per length ``p/2`` tuple over ``{0, 1, 2, 3}``, the
    coefficient of a product of quaternion basis matrices, symmetric when
    the tuple has an even number of nonzero slots and antisymmetric
    otherwise.  ``p % 4 == 2``, and the dense form lives in dimension ``2N``.

Each class is described once, by a :class:`_TensorClass` record in
``_CLASSES``; every class-dependent rule in the package reads that record.

Indices are 0-based throughout this module.  The 1-based convention of the
file formats is applied by the serializer and nowhere else.
"""

from __future__ import annotations

import itertools
import math
import mmap
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "CLASS_TAGS",
    "QUATERNION_UNITS",
    "CanonicalTensor",
    "ClassViolationError",
    "MAX_DENSE_ENTRIES",
    "canonical_indices",
    "canonicalize",
    "class_count",
    "densify",
    "flatten_isometry",
    "frobenius_norm_sq",
    "identity_tensor",
    "multiplicities",
    "paired_mask",
    "shifted_by_identity",
    "unflatten_isometry",
    "zeros",
]

#: Quaternion basis in its 2x2 complex representation.  Index 0 is the
#: identity; 1, 2, 3 square to minus the identity and anticommute.
QUATERNION_UNITS = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0j, 0.0], [0.0, -1.0j]],
        [[0.0, -1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [-1.0j, 0.0]],
    ]
)
QUATERNION_UNITS.setflags(write=False)


class ClassViolationError(ValueError):
    """Raised when a dense array fails its claimed symmetry class.

    ``pair`` holds the first offending pair of index tuples (0-based); the
    message renders them 1-based to match the documented convention.
    """

    def __init__(self, message: str, pair: tuple[tuple[int, ...], tuple[int, ...]]):
        super().__init__(message)
        self.pair = pair


#: Largest dense size ``(dim_factor * N)**p`` accepted, in entries.  Every
#: tensor, ensemble and index table is refused above it before anything is
#: allocated; GOTE p=6 N=8 has 262 144 entries.
MAX_DENSE_ENTRIES = 1 << 24

#: A dense array is in its class when no entry deviates from the class
#: reconstruction by more than this times its largest entry; the rounding
#: a Haar action leaves is below 1e-14 of the largest entry.
_CLASS_RTOL = 1e-12


def _check_dense_size(p: int, N: int, dim_factor: int = 1, units: bool = False) -> None:
    """Raise ValueError when ``(dim_factor * N)**p`` exceeds MAX_DENSE_ENTRIES
    or the stacked kernels would need more than numpy's 64 axes: a batch
    axis before the p legs, and with ``units`` each leg split in two."""
    D = dim_factor * N
    # exact below the limit; past bit_length() factors of D >= 2 it is above
    if D ** min(p, MAX_DENSE_ENTRIES.bit_length()) > MAX_DENSE_ENTRIES:
        raise ValueError(f"p={p}, N={N} needs a dense array of {D}^{p} entries, "
                         f"above the limit of {MAX_DENSE_ENTRIES}")
    if p > 63:
        raise ValueError(f"p={p} is above 63: a numpy array has at most 64 axes, "
                         "and a stack of tensors needs one more than its p legs")
    if units and p > 31:
        raise ValueError(f"p={p} is above 31 for a class with unit factors: its kernels "
                         "split each leg in two, so a stack needs 2p + 1 of numpy's 64 axes")


#: Arrays of at least this many bytes from ``_empty`` are views of recycled
#: anonymous mappings; smaller ones are plain ``np.empty``.
_SLAB_MIN_BYTES = 1 << 20
#: ``_act_stack`` contracts the legs of a real tensor of at least
#: ``_SLAB_MIN_BYTES`` in sweeps over column tiles of at most this many bytes,
#: so that the legs of one sweep run in cache
_TILE_BYTES = 1 << 18
#: Free slab bytes kept for reuse; a slab released above it is unmapped.
_SLAB_CAP_BYTES = 64 << 20
#: page-rounded slab size -> its free slabs
_free_slabs: dict[int, list[mmap.mmap]] = {}
#: bytes of slabs that live arrays hold: now, and the most at once
_slab_bytes = {"live": 0, "peak": 0}


def _empty(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """``np.empty(shape, dtype)``, but an array of ``_SLAB_MIN_BYTES`` or
    more is a view of an anonymous mapping that goes back to a free list
    when its last view dies, so the next array of its size reuses pages
    that are already mapped instead of faulting in fresh ones."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < _SLAB_MIN_BYTES or dtype.hasobject:
        return np.empty(shape, dtype)
    size = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
    # list.pop and list.append are atomic, so no slab is handed out twice
    # even across threads; the byte counts are diagnostics only
    try:
        slab = _free_slabs[size].pop()
    except (KeyError, IndexError):
        slab = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    # every view's .base is this array (numpy stops at a non-ndarray base),
    # so it dies, and the slab is released, with the last view
    whole = np.frombuffer(slab, np.uint8)
    weakref.finalize(whole, _release_slab, slab, size).atexit = False
    _slab_bytes["live"] += size
    _slab_bytes["peak"] = max(_slab_bytes["peak"], _slab_bytes["live"])
    return whole[:nbytes].view(dtype).reshape(shape)


def _release_slab(slab: mmap.mmap, size: int) -> None:
    """Keep a slab whose last view has died for reuse, up to the cap."""
    _slab_bytes["live"] -= size
    kept = sum(k * len(v) for k, v in _free_slabs.items())
    if kept + size <= _SLAB_CAP_BYTES:
        _free_slabs.setdefault(size, []).append(slab)


@lru_cache(maxsize=None)
def _canonical_rows(p: int, N: int) -> np.ndarray:
    """The (K, p) table whose row k is canonical tuple k: the non-decreasing
    index tuples in lexicographic order (read-only).  ``canonical_indices``
    and the per-class vectors below are derived from it."""
    _check_dense_size(p, N)
    flat = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(N), p))
    K = class_count(p, N)
    return _read_only(np.fromiter(flat, np.min_scalar_type(N - 1), K * p).reshape(K, p))


@lru_cache(maxsize=None)
def canonical_indices(p: int, N: int) -> tuple[tuple[int, ...], ...]:
    """All non-decreasing index tuples of length p over range(N), lex order."""
    return tuple(map(tuple, _canonical_rows(p, N).tolist()))


def class_count(p: int, N: int) -> int:
    """Number of canonical index classes, binom(N + p - 1, p)."""
    return math.comb(N + p - 1, p)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _permutation_counts(rows: np.ndarray) -> np.ndarray:
    """Per row of a table of sorted tuples, its number of distinct
    permutations, len! / prod(run length!).

    A running multinomial: after column j it holds that count for the first
    j + 1 columns, so every division is exact, and no intermediate value
    exceeds 64 * N**p <= 2**30 under the size guard.
    """
    out = np.ones(len(rows), dtype=np.int64)
    run = np.ones(len(rows), dtype=np.int64)
    for j in range(1, rows.shape[1]):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1)
        out = out * (j + 1) // run
    return out


@lru_cache(maxsize=None)
def multiplicities(p: int, N: int) -> np.ndarray:
    """Vector of class multiplicities in canonical order (read-only)."""
    return _read_only(_permutation_counts(_canonical_rows(p, N)).astype(float))


@lru_cache(maxsize=None)
def paired_mask(p: int, N: int) -> np.ndarray:
    """Boolean vector marking the paired canonical classes, those whose
    tuple is a permutation of (j1, j1, ..., j_{p/2}, j_{p/2}) (read-only)."""
    rows = _canonical_rows(p, N)
    return _read_only((p % 2 == 0) & (rows[:, :-1:2] == rows[:, 1::2]).all(axis=1))


@lru_cache(maxsize=None)
def _repeated_mask(p: int, N: int) -> np.ndarray:
    rows = _canonical_rows(p, N)
    return _read_only((rows[:, 1:] == rows[:, :-1]).any(axis=1))


@lru_cache(maxsize=None)
def _canonical_flat(p: int, N: int) -> np.ndarray:
    """Flat dense position of each canonical tuple, ascending (read-only)."""
    return _read_only(np.ravel_multi_index(tuple(_canonical_rows(p, N).T), (N,) * p))


def _sort_classes(tuples: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical class and sorting sign (0 on repeated indices) of each
    column of an (m, M) table of index tuples, m >= 1."""
    odd = np.zeros(tuples.shape[1], dtype=bool)
    for a, b in itertools.combinations(range(len(tuples)), 2):
        odd ^= tuples[a] > tuples[b]
    srt = np.sort(tuples, axis=0)
    sgn = np.where(odd, np.int8(-1), np.int8(1))
    sgn[(srt[1:] == srt[:-1]).any(axis=0)] = 0
    flat = np.ravel_multi_index(tuple(srt), (N,) * len(tuples))
    return np.searchsorted(_canonical_flat(len(tuples), N), flat), sgn


@lru_cache(maxsize=None)
def _dense_tables(p: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factored lookup tables from dense positions to canonical classes.

    A flat dense position is ``a * N**q + b``: a head ``a`` over the first h
    legs and a tail ``b`` over the last q.  Returns ``(head, cls, sgn)``:
    ``head[a] = k + K' * odd``, where k is the canonical class of head a
    among the K' canonical h-tuples and odd the parity of its sorting
    permutation.  ``cls[k, b]`` is the canonical class of the whole tuple
    and ``sgn[head[a], b]`` its sorting sign (0 on repeated indices): rows
    K' and up of ``sgn`` are rows 0..K'-1 negated, so a dense sign is one
    table entry.  The tables hold N**h + 3 K' N**q entries, about
    3 N**p / h! at large N, where one dense table held N**p.
    """
    _check_dense_size(p, N)
    # about a third of the legs in the tail keeps both tables small; the
    # head keeps at least one leg
    q = min(p - 1, max(1, p // 3))
    h = p - q
    heads = _canonical_rows(h, N).T                                 # (h, K')
    tails = np.indices((N,) * q, heads.dtype).reshape(q, N ** q)    # (q, N**q)
    code, head_sgn = _sort_classes(np.indices((N,) * h, heads.dtype).reshape(h, N ** h), N)
    code[head_sgn < 0] += heads.shape[1]
    # column k * N**q + b: canonical head k followed by tail b
    cls, sgn = _sort_classes(np.concatenate([np.repeat(heads, tails.shape[1], axis=1),
                                             np.tile(tails, heads.shape[1])]), N)
    cls, sgn = cls.reshape(heads.shape[1], -1), sgn.reshape(heads.shape[1], -1)
    return _read_only(code), _read_only(cls), _read_only(np.concatenate([sgn, -sgn]))


@lru_cache(maxsize=None)
def _pair_signs(tag: str, p: int, N: int) -> np.ndarray:
    """Per component, the sign of each (head code, tail) pair of
    ``_dense_tables``: its ``sgn`` for an antisymmetric component, 1 for a
    symmetric one (read-only)."""
    anti = _class_info(tag).antisymmetric_rows(p)
    return _read_only(np.where(anti[:, None, None], _dense_tables(p, N)[2], np.int8(1)))


@dataclass(frozen=True, eq=False)
class _TensorClass:
    """Everything that tells one tensor class from the others.

    A component key is a tuple of ``slots(p)`` labels, each naming one of
    the ``units``.  The dense form, in dimension ``dim_factor * N``, is the
    sum over components of the signed payload times the Kronecker product
    of the units its key names; a real class (``units`` None) has the one
    key ``()`` and no unit factor.  A component is symmetric when its key
    has an even number of nonzero labels, the other way round for a class
    whose payload is ``antisymmetric``.  In a class that is not
    antisymmetric, the first component carries the identity direction.
    """

    tag: str
    units: np.ndarray | None
    dim_factor: int
    slots: Callable[[int], int]
    antisymmetric: bool
    order: tuple[int, int]      # (m, r): the order p must satisfy p % m == r
    group: str                  # flavor of the acting group
    graph: str                  # flavor of the trace graphs it evaluates on
    melon: str                  # matching convention of its melon graph
    ensemble: str | None        # Gaussian ensemble drawing this class

    @lru_cache(maxsize=None)
    def components(self, p: int) -> Mapping[tuple[int, ...], bool]:
        """Component keys at order p in storage order, each mapped to
        whether its component is symmetric: its key has an even number of
        nonzero labels, or an odd number in an antisymmetric class."""
        n = 1 if self.units is None else len(self.units)
        keys = itertools.product(range(n), repeat=self.slots(p))
        return MappingProxyType(
            {k: sum(map(bool, k)) % 2 == self.antisymmetric for k in keys})

    @lru_cache(maxsize=None)
    def keys(self, p: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self.components(p))

    @lru_cache(maxsize=None)
    def rows(self, p: int) -> Mapping[tuple[int, ...], int]:
        """Row of each component key in a tensor's (C, K) array."""
        return MappingProxyType({key: c for c, key in enumerate(self.keys(p))})

    @lru_cache(maxsize=None)
    def antisymmetric_rows(self, p: int) -> np.ndarray:
        """Boolean vector over the components: which are antisymmetric."""
        return _read_only(~np.fromiter(self.components(p).values(), dtype=bool))

    @lru_cache(maxsize=None)
    def dense_units(self, p: int) -> np.ndarray:
        """Row c is the flattened Kronecker product of the units of key c.

        The table has len(units)**slots(p) * dim_factor**p entries (4**p for
        the self-dual class), refused above MAX_DENSE_ENTRIES before any is
        built."""
        C, width = len(self.units) ** self.slots(p), self.dim_factor ** p
        if C * width > MAX_DENSE_ENTRIES:
            raise ValueError(f"{self.tag} p={p} needs a unit table of {C} x {width} "
                             f"entries, above the limit of {MAX_DENSE_ENTRIES}")
        rows = []
        for key in self.keys(p):
            u = np.ones((), dtype=complex)
            for k in key:
                u = np.multiply.outer(u, self.units[k])
            rows.append(u.reshape(-1))
        return _read_only(np.array(rows))

    def norm_sq(self, p: int) -> float:
        """Squared Hilbert-Schmidt norm of every dense unit product."""
        return float(self.dim_factor) ** self.slots(p)

    @lru_cache(maxsize=None)
    def coordinates(self, p: int, N: int) -> tuple[np.ndarray, np.ndarray]:
        """The Frobenius coordinate table at (p, N), read-only: the (C, K)
        mask of live canonical values, false on the repeated-index classes
        of the antisymmetric components, where every tensor is zero, and
        the (K,) weights w = norm_sq(p) * multiplicity, so that
        ``||t||_F^2 = sum(w * t.array**2)`` over the live values."""
        live = ~(self.antisymmetric_rows(p)[:, None] & _repeated_mask(p, N))
        return _read_only(live), _read_only(self.norm_sq(p) * multiplicities(p, N))

    def check_shape(self, p: int, N: int, what: str) -> None:
        """Refuse an order the class does not admit or an oversized dense form."""
        m, r = self.order
        if p % m != r:
            raise ValueError(f"{what} need p = {r} mod {m}, got p = {p}")
        _check_dense_size(p, N, self.dim_factor, self.units is not None)


_CLASSES = {c.tag: c for c in (
    _TensorClass("sym", units=None, dim_factor=1, slots=lambda p: 0,
                 antisymmetric=False, order=(1, 0), group="orthogonal",
                 graph="real", melon="real", ensemble="GOTE"),
    _TensorClass("antisym", units=None, dim_factor=1, slots=lambda p: 0,
                 antisymmetric=True, order=(1, 0), group="orthogonal",
                 graph="real", melon="real", ensemble=None),
    _TensorClass("herm", units=np.array([1.0, 1.0j]), dim_factor=1,
                 slots=lambda p: 1, antisymmetric=False, order=(2, 0),
                 group="unitary", graph="parity", melon="hermitian",
                 ensemble="GUTE"),
    _TensorClass("selfdual", units=QUATERNION_UNITS, dim_factor=2,
                 slots=lambda p: p // 2, antisymmetric=False, order=(4, 2),
                 group="symplectic", graph="parity", melon="selfdual",
                 ensemble="GSTE"),
)}

CLASS_TAGS = tuple(_CLASSES)


def _class_info(class_tag: str) -> _TensorClass:
    try:
        return _CLASSES[class_tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown class tag {class_tag!r}") from None


@dataclass(frozen=True, init=False, eq=False)
class CanonicalTensor:
    """Immutable tensor in canonical-class storage.

    ``array`` is a read-only (C, K) float array: row c is the component with
    key ``_class_info(class_tag).keys(p)[c]``, column k canonical class k.
    Every component is stored, the zero ones too.  Keys are ``()`` for the
    real classes, ``(0,)`` / ``(1,)`` for the hermitian real and imaginary
    parts, and quaternion labels for the self-dual class.  ``data`` is given
    as the (C, K) array or as a mapping from keys to length-K vectors, where
    a missing component is zero; either is copied.  Tensors compare and
    hash by identity; compare ``array`` for equal values.
    """

    class_tag: str
    p: int
    N: int
    array: np.ndarray

    def __init__(self, class_tag: str, p: int, N: int,
                 data: Mapping[tuple[int, ...], np.ndarray] | np.ndarray):
        info = _class_info(class_tag)
        if p < 1 or N < 1:
            raise ValueError("p and N must be at least 1")
        info.check_shape(p, N, f"{class_tag} tensors")
        rows, K = info.rows(p), class_count(p, N)
        if isinstance(data, np.ndarray):
            arr = np.array(data, dtype=float)
            if arr.shape != (len(rows), K):
                raise ValueError(f"{class_tag} values must have shape "
                                 f"({len(rows)}, {K}), got {arr.shape}")
        else:
            arr = np.zeros((len(rows), K))
            for key, vals in dict(data).items():
                key = tuple(int(k) for k in key)
                if key not in rows:
                    raise ValueError(f"component {key!r} invalid for {class_tag}")
                vals = np.asarray(vals, dtype=float)
                if vals.shape != (K,):
                    raise ValueError(f"component {key!r} must have shape ({K},)")
                arr[rows[key]] = vals
        if not np.isfinite(arr).all():
            raise ValueError(f"{class_tag} values must be finite")
        bad = np.argwhere((arr != 0.0) & ~info.coordinates(p, N)[0])
        if len(bad):
            m = canonical_indices(p, N)[bad[0, 1]]
            raise ValueError("antisymmetric component has a nonzero value on the "
                             f"repeated-index class {tuple(i + 1 for i in m)} (1-based)")
        for name, value in (("class_tag", class_tag), ("p", p), ("N", N),
                            ("array", _read_only(arr))):
            object.__setattr__(self, name, value)

    @cached_property
    def data(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """Read-only mapping from each component key to its row of ``array``."""
        return MappingProxyType(dict(zip(_class_info(self.class_tag).keys(self.p), self.array)))

    # -- convenience ----------------------------------------------------

    def component(self, key: tuple[int, ...]) -> np.ndarray:
        """Component vector for ``key``, a row of ``array``."""
        key = tuple(int(k) for k in key)
        if key not in self.data:
            raise KeyError(f"component {key!r} invalid for {self.class_tag}")
        return self.data[key]

    @property
    def values(self) -> np.ndarray:
        """Payload of a single-component (sym or antisym) tensor."""
        if _class_info(self.class_tag).units is not None:
            raise AttributeError("values is defined for sym and antisym only")
        return self.array[0]

    def entry(self, indices: Iterable[int]):
        """Dense entry at an index tuple (length p; 2N-dimensional for
        self-dual tensors, N-dimensional otherwise)."""
        info = _class_info(self.class_tag)
        f = info.dim_factor
        tup = tuple(int(i) for i in indices)
        if len(tup) != self.p:
            raise ValueError(f"expected {self.p} indices, got {len(tup)}")
        for i in tup:
            if not 0 <= i < f * self.N:
                raise ValueError(f"index {i} outside [0, {f * self.N})")
        (pos,), (sign,) = _sort_classes(np.array(tup)[:, None] // f, self.N)
        coeffs = self.array[:, pos] * np.where(info.antisymmetric_rows(self.p), sign, 1)
        if info.units is None:
            return float(coeffs[0])
        iota = int(np.ravel_multi_index(tuple(i % f for i in tup), (f,) * self.p))
        return complex(np.dot(coeffs, info.dense_units(self.p)[:, iota]))

    def __add__(self, other: "CanonicalTensor") -> "CanonicalTensor":
        if (self.class_tag, self.p, self.N) != (other.class_tag, other.p, other.N):
            raise ValueError("tensors differ in class, order, or dimension")
        return CanonicalTensor(self.class_tag, self.p, self.N, self.array + other.array)

    def __sub__(self, other: "CanonicalTensor") -> "CanonicalTensor":
        return self + other * (-1.0)

    def __mul__(self, scalar: float) -> "CanonicalTensor":
        return CanonicalTensor(self.class_tag, self.p, self.N, self.array * float(scalar))

    __rmul__ = __mul__


def zeros(class_tag: str, p: int, N: int) -> CanonicalTensor:
    """The zero tensor of a given class."""
    return CanonicalTensor(class_tag, p, N, {})


def identity_tensor(p: int, N: int) -> CanonicalTensor:
    """Symmetric tensor with entry 1/multiplicity on paired classes.

    Zero for odd order.  At order 2 this is the identity matrix.
    """
    if p < 1 or N < 1:
        raise ValueError("p and N must be at least 1")
    if p % 2:
        return zeros("sym", p, N)
    vals = np.where(paired_mask(p, N), 1.0 / multiplicities(p, N), 0.0)
    return CanonicalTensor("sym", p, N, {(): vals})


def shifted_by_identity(t: CanonicalTensor, coeff: float) -> CanonicalTensor:
    """Add ``coeff`` times the identity tensor to the first component."""
    coeff = float(coeff)
    if coeff == 0.0:
        return t
    if _class_info(t.class_tag).antisymmetric:
        raise ValueError("antisymmetric tensors admit no identity shift")
    shifted = t.array.copy()
    shifted[0] += coeff * identity_tensor(t.p, t.N).values
    return CanonicalTensor(t.class_tag, t.p, t.N, shifted)


# -- dense conversion ----------------------------------------------------


def densify(t: CanonicalTensor) -> np.ndarray:
    """Dense ndarray form: real for sym/antisym, complex for herm/selfdual.

    Self-dual tensors densify to dimension 2N; each leg index splits as
    ``2 * i + iota`` with ``i`` the component index and ``iota`` the row or
    column of the quaternion factor.
    """
    return _densify_stack(_class_info(t.class_tag), t.p, t.N, t.array[None])[0]


def _densify_stack(info: _TensorClass, p: int, N: int, vals: np.ndarray) -> np.ndarray:
    """Dense forms of a stack of tensors: (B, C, K) canonical values, the
    components of each in storage order, to (B, D, ..., D)."""
    head, cls, _ = _dense_tables(p, N)
    B, C, K = vals.shape
    # The value of every (canonical head, tail) pair, then one row of that
    # table per dense head.  Only antisymmetric rows need the signed rows
    # K' and up, a second copy of the first K'; without them, head codes
    # past K' wrap to the first K'.
    signed = info.antisymmetric_rows(p).any()
    rows = np.concatenate([cls, cls]) if signed else cls
    if B * C == 1:      # one row gathers fastest as a vector
        pairs = vals[0, 0][rows][None]
    else:
        # complex classes are cast here, on the canonical values: the unit
        # product below would otherwise cast a dense-sized stack
        vals = vals.reshape(B * C, K).astype(float if info.units is None else complex, copy=False)
        pairs = vals.take(rows, 1, _empty((B * C,) + rows.shape, vals.dtype), "wrap")
    if signed:
        # one int8 product per value, 1 on symmetric rows; imaginary parts stay +0
        real = pairs.real.reshape((B, C) + rows.shape)
        np.multiply(real, _pair_signs(info.tag, p, N), out=real)
    parts = _empty((B, C, N ** p), pairs.dtype)
    # mode="wrap" also lets take write straight into out, not into a buffer
    pairs.take(head, 1, parts.reshape(B * C, len(head), -1), "wrap")
    if info.units is None:
        return parts.reshape((B,) + (N,) * p)
    # out[b, i, iota]: i runs over component positions, iota over unit
    # positions; interleave them so that leg t indexes as f * i_t + iota_t
    f = info.dim_factor
    out = np.matmul(parts.swapaxes(1, 2), info.dense_units(p),
                    out=_empty((B, N ** p, f ** p), complex))
    if f == 1:
        return out.reshape((B,) + (N,) * p)
    legs = [0] + [1 + axis for leg in range(p) for axis in (leg, p + leg)]
    del parts   # the dense array is its size, so it takes the freed slab
    dense = _empty((B,) + (N, f) * p, complex)
    np.copyto(dense, out.reshape((B,) + (N,) * p + (f,) * p).transpose(legs))
    return dense.reshape((B,) + (f * N,) * p)


def frobenius_norm_sq(t: CanonicalTensor) -> float:
    """Squared Frobenius norm: sum of |entry|^2 over all dense positions.

    Each canonical value counts with its Frobenius weight; see
    :meth:`_TensorClass.coordinates`.
    """
    _, w = _class_info(t.class_tag).coordinates(t.p, t.N)
    return float(np.sum(w * t.array**2))


def flatten_isometry(t: CanonicalTensor) -> np.ndarray:
    """Norm-preserving flattening of a symmetric tensor.

    Each canonical value is scaled by the square root of its Frobenius
    weight, so the Euclidean norm of the result matches the tensor's
    Frobenius norm.
    """
    if t.class_tag != "sym":
        raise ValueError("flatten_isometry expects a real-symmetric tensor")
    return np.sqrt(_CLASSES["sym"].coordinates(t.p, t.N)[1]) * t.values


def unflatten_isometry(vec: np.ndarray, p: int, N: int) -> CanonicalTensor:
    """Inverse of :func:`flatten_isometry`."""
    vec = np.asarray(vec, dtype=float)
    K = class_count(p, N)
    if vec.shape != (K,):
        raise ValueError(f"expected a vector of length {K}")
    _, w = _CLASSES["sym"].coordinates(p, N)
    return CanonicalTensor("sym", p, N, {(): vec / np.sqrt(w)})


# -- canonicalization ----------------------------------------------------


def canonicalize(dense: np.ndarray, class_tag: str) -> CanonicalTensor:
    """Recover canonical storage from a dense array.

    The array must satisfy its class symmetry: an entry that deviates from
    the class reconstruction by more than ``_CLASS_RTOL`` times the largest
    entry raises a :class:`ClassViolationError` naming the worst offending
    index pair.  A NaN or infinite entry raises a plain ``ValueError``.
    """
    info = _class_info(class_tag)
    dense = np.asarray(dense)
    if dense.ndim < 1:
        raise ValueError("expected at least one axis")
    D = dense.shape[0]
    if dense.shape != (D,) * dense.ndim:
        raise ValueError("expected equal axis lengths")
    p, f = dense.ndim, info.dim_factor
    if D % f:
        raise ValueError(f"{class_tag} dense arrays need a dimension divisible by {f}")
    N = D // f
    info.check_shape(p, N, f"{class_tag} tensors")
    if not np.isfinite(dense).all():
        at = tuple(int(i) + 1 for i in np.argwhere(~np.isfinite(dense))[0])
        raise ValueError(f"entry at {at} is not finite (indices 1-based)")
    if info.units is None:
        if np.iscomplexobj(dense):
            raise ValueError("real classes expect real dense arrays")
        dense = np.asarray(dense, dtype=float)
        parts = dense.reshape(1, -1)
    else:
        # Each unit product has squared norm norm_sq(p) and they are
        # orthogonal, so pairing with the conjugate units extracts the
        # components.
        dense = dense.astype(complex)
        legs = list(range(0, 2 * p, 2)) + list(range(1, 2 * p, 2))
        split = dense.reshape((N, f) * p).transpose(legs).reshape(N**p, f**p)
        parts = (split @ info.dense_units(p).conj().T / info.norm_sq(p)).T.real
    vals = parts[:, _canonical_flat(p, N)]
    vals[~info.coordinates(p, N)[0]] = 0.0
    out = CanonicalTensor(class_tag, p, N, vals)
    _check_class(dense, densify(out), f)
    return out


def _check_class(dense: np.ndarray, recon: np.ndarray, f: int) -> None:
    """Raise at the worst entry where ``dense`` leaves its class part by
    more than ``_CLASS_RTOL`` times its largest entry (exactly, when every
    entry is zero).

    The real and imaginary planes of a complex array in the component
    dimension (f = 1) are checked one after the other; a self-dual array
    (f = 2) is checked as a whole.
    """
    tol = _CLASS_RTOL * np.max(np.abs(dense))
    diff = dense - recon.reshape(dense.shape)
    if f == 1 and np.iscomplexobj(diff):
        planes = (("real part: ", diff.real), ("imaginary part: ", diff.imag))
    else:
        planes = (("", diff),)
    for label, plane in planes:
        dev = np.abs(plane).reshape(-1)
        worst = int(np.argmax(dev))
        if not dev[worst] > tol:
            continue
        bad = tuple(int(i) for i in np.unravel_index(worst, dense.shape))
        partner = tuple(sorted(i // f for i in bad))
        at, of = tuple(i + 1 for i in bad), tuple(i + 1 for i in partner)
        if f == 1:
            message = (f"{label}entry at {at} deviates from the value implied by "
                       f"{of} by {dev[worst]:.3e} (indices 1-based)")
        else:
            message = (f"entry at {at} is incompatible with the quaternion "
                       f"component structure implied by the class {of} "
                       f"(indices 1-based, deviation {dev[worst]:.3e})")
        raise ClassViolationError(message, (bad, partner))
