"""Compact matrix groups acting on symmetry-classed cubic tensors.

Flavors and their tensor classes:

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
from functools import lru_cache

import numpy as np

from .tensor import (CanonicalTensor, canonicalize, densify, _class_info, _empty,
                     _SLAB_MIN_BYTES, _TILE_BYTES)

__all__ = [
    "FLAVORS",
    "GroupElement",
    "act",
    "act_dense",
    "flavor_for_class",
    "generator_matrix",
    "givens_rotation",
    "haar_sample",
    "symplectic_form",
    "theta_derivative",
]

FLAVORS = ("orthogonal", "unitary", "symplectic")

#: Maximum deviation tolerated when validating a group element.
ORTHOGONAL_TOL = 1e-12
UNITARY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-10


def flavor_for_class(class_tag: str) -> str:
    """Group flavor acting on a tensor class."""
    return _class_info(class_tag).group


@lru_cache(maxsize=None)
def symplectic_form(N: int) -> np.ndarray:
    """Block-diagonal antisymmetric form: N copies of [[0, -1], [1, 0]]."""
    J = np.zeros((2 * N, 2 * N))
    for k in range(N):
        J[2 * k, 2 * k + 1] = -1.0
        J[2 * k + 1, 2 * k] = 1.0
    J.setflags(write=False)
    return J


@dataclass(frozen=True)
class GroupElement:
    """A validated member of one of the three compact groups.

    ``N`` is the tensor dimension: orthogonal and unitary matrices are
    N x N, symplectic ones 2N x 2N over the complex numbers.
    """

    flavor: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        mat = self.matrix
        if self.flavor == "orthogonal" and np.iscomplexobj(mat):
            if np.any(np.imag(mat)):
                raise ValueError("orthogonal matrices must be real, got a nonzero imaginary part")
            mat = np.real(mat)
        mat = np.array(mat, dtype=float if self.flavor == "orthogonal" else complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("group elements must be square matrices")
        if self.flavor == "symplectic" and mat.shape[0] % 2:
            raise ValueError("symplectic matrices need even size")
        _check_members(self.flavor, mat[None])
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def N(self) -> int:
        size = self.matrix.shape[0]
        return size // 2 if self.flavor == "symplectic" else size


def _check_members(flavor: str, mats: np.ndarray) -> None:
    """Raise unless every matrix of the (B, D, D) stack is in the group; the
    deviation reported is the largest over the stack."""
    unitarity = mats.conj().swapaxes(-1, -2) @ mats - np.eye(mats.shape[-1])
    if flavor != "symplectic":
        _bound(unitarity, ORTHOGONAL_TOL if flavor == "orthogonal" else UNITARY_TOL,
               f"matrix is not {flavor}")
        return
    J = symplectic_form(mats.shape[-1] // 2)
    _bound(mats.swapaxes(-1, -2) @ J @ mats - J, SYMPLECTIC_TOL,
           "matrix does not preserve the form")
    # Only the compact (unitary) part of the symplectic group keeps the
    # sampled densities invariant, so membership is checked too.
    _bound(unitarity, SYMPLECTIC_TOL, "symplectic matrix is not unitary")


def _bound(deviation: np.ndarray, tol: float, what: str) -> None:
    err = np.max(np.abs(deviation))
    if err > tol:
        raise ValueError(f"{what} (deviation {err:.3e})")


def haar_sample(flavor: str, N: int, rng: np.random.Generator) -> GroupElement:
    """Draw a Haar-distributed element.

    Orthogonal and unitary samples come from QR factorization of a Gaussian
    matrix with the diagonal sign (phase) correction that makes the
    distribution exactly uniform.  Symplectic samples orthonormalize the
    column pairs of a quaternionic Gaussian matrix inside its 2N complex
    embedding, which stays in the quaternionic subalgebra and therefore
    lands in the compact symplectic group.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    return GroupElement(flavor, _haar_matrices(flavor, _haar_normals(flavor, N, rng)[None])[0])


#: the (N, N) standard normal matrices one Haar draw reads, by flavor
_HAAR_READS = {"orthogonal": 1, "unitary": 2, "symplectic": 4}


def _haar_shape(flavor: str, N: int) -> tuple[int, int, int]:
    """The shape (k, N, N) of one Haar draw's stream read, k from ``_HAAR_READS``."""
    if flavor not in _HAAR_READS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return _HAAR_READS[flavor], N, N


def _haar_normals(flavor: str, N: int, rng: np.random.Generator) -> np.ndarray:
    """The stream read of one Haar draw: (k, N, N) normals."""
    return rng.standard_normal(_haar_shape(flavor, N))


def _haar_matrices(flavor: str, normals: np.ndarray) -> np.ndarray:
    """(B, k, N, N) normals to a (B, D, D) stack of unvalidated Haar draws
    (Mezzadri's QR with the diagonal phase fix, or the symplectic
    Gram-Schmidt below)."""
    if flavor == "symplectic":
        return _haar_symplectic(normals)
    a = normals[:, 0] if flavor == "orthogonal" else normals[:, 0] + 1j * normals[:, 1]
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    phase = np.sign(d) if flavor == "orthogonal" else (d / np.abs(d)).conj()
    return q * phase[:, None, :]


def _quaternion_embed(a, b, c, d) -> np.ndarray:
    """(B, 2N, 2N) complex embeddings of (B, N, N) quaternion-coefficient matrices."""
    B, N = a.shape[:2]
    out = np.empty((B, 2 * N, 2 * N), dtype=complex)
    out[:, 0::2, 0::2] = a + 1j * b
    out[:, 0::2, 1::2] = -c - 1j * d
    out[:, 1::2, 0::2] = c - 1j * d
    out[:, 1::2, 1::2] = a - 1j * b
    return out


def _haar_symplectic(normals: np.ndarray) -> np.ndarray:
    m = _quaternion_embed(*normals.swapaxes(0, 1))
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
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    size = 2 * N if flavor == "symplectic" else N
    if size < 2:
        raise ValueError("plane rotations need two coordinates")
    c, s = np.cos(theta), np.sin(theta)
    mat = np.eye(size)
    mat[0, 0] = c
    mat[0, 1] = s
    mat[1, 0] = -s
    mat[1, 1] = c
    return GroupElement(flavor, mat)


def generator_matrix(N: int, flavor: str = "orthogonal") -> np.ndarray:
    """Derivative of the plane-rotation family at theta = 0.

    Returns A = (d U_theta^T / d theta) U_theta evaluated at any theta,
    which is the constant antisymmetric matrix with A[0, 1] = -1 and
    A[1, 0] = 1 (size 2N for the symplectic flavor).
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    size = 2 * N if flavor == "symplectic" else N
    if size < 2:
        raise ValueError("plane rotations need two coordinates")
    out = np.zeros((size, size))
    out[0, 1] = -1.0
    out[1, 0] = 1.0
    return out


def _leg_matrices(flavor: str, mats: np.ndarray, p: int) -> list[np.ndarray]:
    """Per-leg matrices of a (B, D, D) stack of group elements."""
    if flavor == "orthogonal":
        return [mats] * p
    if flavor == "unitary":
        return [mats if t % 2 == 0 else mats.conj() for t in range(p)]
    J = symplectic_form(mats.shape[-1] // 2)
    even = -J @ mats @ J
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

    For a real-symmetric tensor this is the sum over legs of the generator
    matrix applied to that leg.
    """
    if t.class_tag != "sym":
        raise ValueError("theta_derivative expects a real-symmetric tensor")
    if t.N < 2:
        raise ValueError("plane rotations need N >= 2")
    A = generator_matrix(t.N)
    dense = densify(t)
    out = np.zeros_like(dense)
    for leg in range(t.p):
        term = np.tensordot(dense, A, axes=([leg], [1]))
        out += np.moveaxis(term, -1, leg)
    return canonicalize(out, "sym")
