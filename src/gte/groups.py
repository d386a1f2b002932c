"""Compact matrix groups acting on symmetry-classed cubic tensors.

Flavors (one :class:`_Group` record each, in ``_GROUPS``) and their tensor classes:

* ``orthogonal``  real N x N matrices acting on real-symmetric tensors,
* ``unitary``     complex N x N matrices acting on hermitian tensors; the
                  matrix multiplies odd legs and its conjugate even legs,
* ``symplectic``  complex 2N x 2N matrices preserving the standard
                  antisymmetric form J, acting on densified self-dual
                  tensors; odd legs get U and even legs get -J U J.

The action contracts every leg:

    (U . H)[i_1 .. i_p] = sum_j H[j_1 .. j_p] prod_t M_t[j_t, i_t]

with M_t the per-leg matrix above.  It satisfies
``act(V, act(U, t)) == act(U @ V, t)``; at order 1 this is ``U.T @ h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .tensor import (QUATERNION_UNITS, CanonicalTensor, canonicalize, densify, _class_info, _empty,
                     _SLAB_MIN_BYTES, _TILE_BYTES)

__all__ = [
    "FLAVORS",
    "GroupElement",
    "act",
    "act_dense",
    "flavor_for_class",
    "givens_rotation",
    "haar_sample",
    "symplectic_form",
    "theta_derivative",
]


@dataclass(frozen=True, eq=False)
class _Group:
    """Everything that tells one compact group from the others.

    Its matrix entries lie in the field the ``units`` span, the reals, the
    complex numbers or the quaternions (Dyson's beta = 1, 2, 4), each unit
    a ``dim_factor`` x ``dim_factor`` block.  A Haar draw reads one (N, N)
    normal matrix per unit and orthonormalizes their ``embed``.  The even
    legs of the action get ``even_leg`` of the (B, D, D) stack; a group with
    ``form`` also preserves J; ``tol`` bounds a member's deviation.
    """

    flavor: str
    units: np.ndarray       # (k, d, d); a Haar draw reads k normal matrices
    tol: float
    even_leg: Callable[[np.ndarray], np.ndarray]
    form: bool

    @property
    def dim_factor(self) -> int:
        return self.units.shape[-1]

    @cached_property
    def _parts(self) -> list:
        """Per block entry (r, s) and part ("real", "imag"), the one unit k
        whose entry has that part nonzero, and whether it is -1."""
        return [(r, s, part, k, getattr(self.units[k, r, s], part) < 0)
                for r, s in np.ndindex(self.dim_factor, self.dim_factor)
                for part in ("real", "imag")
                for k in range(len(self.units)) if getattr(self.units[k, r, s], part)]

    def embed(self, normals: np.ndarray) -> np.ndarray:
        """(B, k, N, N) normals to the (B, dN, dN) matrices sum_k G_k (x) units[k].
        Each real or imaginary part of a unit entry is 0 or +-1, nonzero in
        one unit only, so every output part is one +-G_k, copied straight
        into it: exact.  The reals' one unit is 1, so their embedding is G_0."""
        (B, k, N, _), d = normals.shape, self.dim_factor
        if k == 1:
            return normals[:, 0]
        out = np.empty((B, d * N, d * N), self.units.dtype)
        blocks = out.reshape(B, N, d, N, d)
        # one negation for the whole call: numpy copies into a strided part
        # faster than it negates into one
        negated = -normals if any(part[-1] for part in self._parts) else None
        for r, s, part, k, neg in self._parts:
            np.copyto(getattr(blocks[:, :, r, :, s], part), (negated if neg else normals)[:, k])
        return out


def _group(flavor: str) -> _Group:
    try:
        return _GROUPS[flavor]
    except (KeyError, TypeError):
        raise ValueError(f"unknown flavor {flavor!r}") from None


def flavor_for_class(class_tag: str) -> str:
    """Group flavor acting on a tensor class."""
    return _class_info(class_tag).group


@lru_cache(maxsize=None)
def symplectic_form(N: int) -> np.ndarray:
    """Block-diagonal antisymmetric form I_N (x) e_2: N copies of [[0, -1], [1, 0]]."""
    # + 0.0 turns the -0.0 that kron leaves off the blocks into 0.0
    J = np.kron(np.eye(N), QUATERNION_UNITS[2].real) + 0.0
    J.setflags(write=False)
    return J


def _form_conjugate(mats: np.ndarray) -> np.ndarray:
    """-J U J for each U of a (B, 2N, 2N) stack: the conjugate of a member of USp(2N)."""
    J = symplectic_form(mats.shape[-1] // 2)
    return -J @ mats @ J


_GROUPS = {g.flavor: g for g in (
    _Group("orthogonal", units=np.ones((1, 1, 1)), tol=1e-12,
           even_leg=lambda mats: mats, form=False),
    _Group("unitary", units=np.array([[[1.0]], [[1.0j]]]), tol=1e-12,
           even_leg=np.conj, form=False),
    _Group("symplectic", units=QUATERNION_UNITS, tol=1e-10,
           even_leg=_form_conjugate, form=True),
)}

FLAVORS = tuple(_GROUPS)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A validated member of one of the three compact groups.

    ``N`` is the tensor dimension: orthogonal and unitary matrices are
    N x N, symplectic ones 2N x 2N over the complex numbers.  Elements
    compare and hash by identity; compare ``matrix`` for equal values.
    """

    flavor: str
    matrix: np.ndarray

    def __post_init__(self):
        group, mat = _group(self.flavor), self.matrix
        if not np.iscomplexobj(group.units) and np.iscomplexobj(mat):
            if np.any(np.imag(mat)):
                raise ValueError(f"{self.flavor} matrices must be real, got a nonzero imaginary part")
            mat = np.real(mat)
        mat = np.array(mat, dtype=group.units.dtype)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("group elements must be square matrices")
        if mat.shape[0] % group.dim_factor:
            raise ValueError(f"{self.flavor} matrices need even size")
        _check_members(self.flavor, mat[None])
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def N(self) -> int:
        return self.matrix.shape[0] // _GROUPS[self.flavor].dim_factor


def _check_members(flavor: str, mats: np.ndarray) -> None:
    """Raise unless every matrix of the (B, D, D) stack is in the group; the
    deviation reported is the largest over the stack."""
    group = _group(flavor)
    unitarity = mats.conj().swapaxes(-1, -2) @ mats - np.eye(mats.shape[-1])
    if group.form:
        J = symplectic_form(mats.shape[-1] // 2)
        _bound(mats.swapaxes(-1, -2) @ J @ mats - J, group.tol, "matrix does not preserve the form")
    # Unitarity is the membership test of O(N) and U(N), and only the compact
    # (unitary) part of the symplectic group keeps the sampled laws invariant.
    _bound(unitarity, group.tol,
           f"{flavor} matrix is not unitary" if group.form else f"matrix is not {flavor}")


def _bound(deviation: np.ndarray, tol: float, what: str) -> None:
    err = np.max(np.abs(deviation))
    if err > tol:
        raise ValueError(f"{what} (deviation {err:.3e})")


def haar_sample(flavor: str, N: int, rng: np.random.Generator) -> GroupElement:
    """Draw a Haar-distributed element.

    Orthogonal and unitary samples come from QR factorization of a Gaussian
    matrix with the diagonal sign (phase) correction that makes the
    distribution exactly uniform.  Symplectic samples orthonormalize the
    column pairs of a quaternionic Gaussian matrix in its 2N complex
    embedding, which keeps them in the compact symplectic group.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    normals = rng.standard_normal(_haar_shape(flavor, N))
    return GroupElement(flavor, _haar_matrices(flavor, normals[None])[0])


def _haar_shape(flavor: str, N: int) -> tuple[int, int, int]:
    """The shape (k, N, N) of one Haar draw's stream read."""
    return len(_group(flavor).units), N, N


def _haar_matrices(flavor: str, normals: np.ndarray) -> np.ndarray:
    """(B, k, N, N) normals to a (B, D, D) stack of unvalidated Haar draws."""
    group = _group(flavor)
    m = group.embed(normals)
    if group.dim_factor == 1:
        q, r = np.linalg.qr(m)
        d = np.diagonal(r, axis1=-2, axis2=-1).copy()
        d[d == 0] = 1.0
        return q * (d / np.abs(d)).conj()[:, None, :]
    # Gram-Schmidt over column pairs.  Each pair is a quaternionic column;
    # coefficients Q^H P are embeddings of quaternions, so subtracting
    # Q (Q^H P) and scaling by the real norm keep the quaternionic
    # structure while orthonormalizing in C^{2N}.
    for j in range(normals.shape[-1]):
        pair = m[:, :, 2 * j : 2 * j + 2]
        for k in range(j):
            prev = m[:, :, 2 * k : 2 * k + 2]
            pair -= prev @ (prev.conj().swapaxes(1, 2) @ pair)
        norm_sq = (pair.conj().swapaxes(1, 2) @ pair)[:, 0, 0].real
        pair /= np.sqrt(norm_sq)[:, None, None]
    return m


def givens_rotation(theta: float, N: int, flavor: str) -> GroupElement:
    """Rotation by ``theta`` in the plane of the first two coordinates.

    The same cosine/sine block serves all three flavors; for the symplectic
    flavor it sits in the first quaternionic coordinate pair of the 2N
    embedding (identity cos(theta) minus the second quaternion unit times
    sin(theta)) and the matrix has size 2N.
    """
    size = _group(flavor).dim_factor * N
    if size < 2:
        raise ValueError("plane rotations need two coordinates")
    c, s = np.cos(theta), np.sin(theta)
    mat = np.eye(size)
    mat[:2, :2] = [[c, s], [-s, c]]
    return GroupElement(flavor, mat)


def _leg_matrices(flavor: str, mats: np.ndarray, p: int) -> list[np.ndarray]:
    """Per-leg matrices of a (B, D, D) stack of group elements: the stack on
    odd legs (1, 3, ...), its ``even_leg`` image on even ones."""
    even = _GROUPS[flavor].even_leg(mats)
    return [mats if t % 2 == 0 else even for t in range(p)]


def act_dense(g: GroupElement, t: CanonicalTensor | np.ndarray, p: int | None = None) -> np.ndarray:
    """The action on the ambient tensor space, as a dense array.

    Always well defined: the per-leg contraction makes sense for any tensor
    of the right dimension, whether or not it lies in one of the symmetry
    classes.  Trace invariants with parity-matched edges are exactly
    invariant under this map (every edge contracts U against its conjugate,
    which telescopes to an identity), so the invariance machinery uses this
    entry point; ``act`` is the class-preserving wrapper.
    """
    if isinstance(t, CanonicalTensor):
        p = t.p
        dense = densify(t)
    else:
        dense = np.asarray(t)
        if p is None:
            p = dense.ndim
    if p == 0:
        return dense
    return _act_stack(g.flavor, g.matrix[None], dense[None], p)[0]


def _act_stack(flavor: str, mats: np.ndarray, dense: np.ndarray, p: int) -> np.ndarray:
    """(B, D, D) group elements acting on (B, D, ..., D) order-p tensors,
    element b on tensor b, leg by leg or in the tiled sweeps of ``_sweep``.
    Tiling keeps every bit: each output element is still the same chain of p
    dot products of length D, leg 1 first, each a row of the same BLAS
    product; a tile only changes how many rows one call sees."""
    B, dim = len(mats), mats.shape[-1]
    if dense.shape[1:] != (dim,) * p:
        raise ValueError(f"expected a tensor of shape {(dim,) * p}, got {dense.shape[1:]}")
    dtype = np.promote_types(dense.dtype, mats.dtype)
    legs, sizes = _leg_matrices(flavor, mats, p), _sweep_sizes(p, dim, dtype)
    # the legs (sweeps) alternate between two buffers, the last landing in bufs[0]
    bufs = [_empty(dense.shape, dtype) for _ in range(min(len(sizes), 2))]
    if len(sizes) == p:
        for t, mat in enumerate(legs):
            # Contracting the leading leg and appending the new one last
            # keeps the legs in order once all p contractions have run.
            out = bufs[(p - 1 - t) % 2]
            np.matmul(dense.reshape(B, dim, -1).swapaxes(1, 2), mat, out=out.reshape(B, -1, dim))
            dense = out
        return dense
    tile = _empty((_TILE_BYTES // dtype.itemsize,), dtype)
    for b in range(B):
        x, first = dense[b], 0
        for k, size in enumerate(sizes):
            out = bufs[(len(sizes) - 1 - k) % 2][b]
            _sweep(x, [leg[b] for leg in legs[first:first + size]], out, tile)
            x, first = out, first + size
    return bufs[0]


def _sweep_sizes(p: int, dim: int, dtype: np.dtype) -> tuple[int, ...]:
    """Legs per sweep: one, unless the tensor is real, of ``_SLAB_MIN_BYTES``
    or more, and a tile holds 32 columns of g >= 2 legs; then even sweeps of
    at most g.  Copying a tile costs about what one leg gains in cache, more
    in a narrower tile; complex legs are bound by arithmetic, and gain less."""
    if dtype.kind != "f" or dim ** p * dtype.itemsize < _SLAB_MIN_BYTES:
        return (1,) * p
    g = 1
    while dim ** (g + 1) * 32 * dtype.itemsize <= _TILE_BYTES:
        g += 1
    s = -(-p // g)
    return tuple(p // s + (k < p % s) for k in range(s))


def _sweep(x: np.ndarray, legs: list[np.ndarray], y: np.ndarray, tile: np.ndarray) -> None:
    """Contract the g leading legs of ``x`` into ``y``: w columns of x as a
    (D^g, rest) matrix are copied into ``tile``, and the legs alternate between
    it and the same w rows of y as a (rest, D^g) matrix, the last landing in y."""
    dim, g = len(legs[0]), len(legs)
    xv, yv = x.reshape(dim ** g, -1), y.reshape(-1, dim ** g)
    w = len(tile) // len(xv)
    for c in range(0, len(yv), w):
        cols = xv[:, c:c + w]
        pair = (yv[c:c + w].reshape(-1), tile[:cols.size])
        np.copyto(pair[g % 2].reshape(cols.shape), cols)
        for j, leg in enumerate(legs):
            np.matmul(pair[(g - j) % 2].reshape(dim, -1).T, leg,
                      out=pair[(g - 1 - j) % 2].reshape(-1, dim))


def act(g: GroupElement, t: CanonicalTensor) -> CanonicalTensor:
    """Apply a group element to a tensor of the matching class.

    The result goes through :func:`~gte.tensor.canonicalize` and its class
    check, so an action that moves the tensor out of its symmetry class
    surfaces as a :class:`~gte.tensor.ClassViolationError` instead of
    silently corrupted storage.  (The orthogonal action preserves its class
    for every p; the unitary and symplectic ones are only class-preserving
    at p = 2, where the tensors are matrices -- use :func:`act_dense`
    beyond that.)
    """
    if flavor_for_class(t.class_tag) != g.flavor:
        raise ValueError(f"flavor {g.flavor!r} does not act on class {t.class_tag!r}")
    if g.N != t.N:
        raise ValueError(f"dimension mismatch: element has N={g.N}, tensor N={t.N}")
    return canonicalize(act_dense(g, t), t.class_tag)


def theta_derivative(t: CanonicalTensor) -> CanonicalTensor:
    """Derivative of theta -> act(givens_rotation(theta), t) at theta = 0.

    For a real-symmetric tensor this is the sum over legs of the rotations'
    generator A (A[0, 1] = -1, A[1, 0] = 1) applied to that leg; the one-tensor
    call of ``_theta_derivative_stack``.
    """
    if t.class_tag != "sym":
        raise ValueError("theta_derivative expects a real-symmetric tensor")
    if t.N < 2:
        raise ValueError("plane rotations need N >= 2")
    return canonicalize(_theta_derivative_stack(densify(t)[None])[0], "sym")


def _theta_derivative_stack(dense: np.ndarray) -> np.ndarray:
    """The rotation derivative of each real tensor of a (B, N, ..., N) stack,
    dense: A applied to each leg, the terms summed in leg order into zeros.
    Each term entry of a finite tensor is +-1 times one of its entries plus
    exact zeros, so its bits do not depend on the stack it is in."""
    N = dense.shape[1]
    A = np.zeros((N, N))
    A[0, 1], A[1, 0] = -1.0, 1.0
    out = np.zeros_like(dense)
    for leg in range(1, dense.ndim):
        out += np.moveaxis(np.tensordot(dense, A, axes=([leg], [1])), -1, leg)
    return out
