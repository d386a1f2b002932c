"""Gaussian tensor ensembles: GOTE (real symmetric), GUTE (hermitian),
GSTE (self-dual hermitian).

Sampling happens directly in canonical storage -- one Gaussian draw per
canonical index class and component, never by symmetrizing dense i.i.d.
entries -- so the independence-up-to-symmetry structure is exact.

Each ensemble is N(beta I, s P_V) on its tensor class V, with density
proportional to exp(-||H - beta I||_F^2 / (2 s)) and scale
s = gamma p norm_sq(p) / c, where c = 1, 2, 4 for GOTE, GUTE, GSTE.  One rule
follows: a live canonical value of Frobenius weight w (see
``_TensorClass.coordinates``) has variance s / w.  The exponents read
-||H - bI||^2 / (2 p gamma), -||H - bI||^2 / (p gamma) and
-2||H - bI||^2 / (p gamma), where for GSTE ||.||^2 is ||.||_F^2 / 2^(p/2),
the sum of the squared quaternion components.  The shift beta enters
through the identity tensor on the lead component (H^(0), resp. Q^(0)).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import (
    CLASS_TAGS,
    CanonicalTensor,
    class_count,
    frobenius_norm_sq,
    identity_tensor,
    shifted_by_identity,
    _class_info,
    _read_only,
)

__all__ = [
    "EnsembleSpec",
    "KINDS",
    "expected_frobenius_sq",
    "log_density_unnormalized",
    "sample",
    "sample_batch",
]

#: c of each kind in its scale s = gamma p norm_sq(p) / c
_C = {"GOTE": 1.0, "GUTE": 2.0, "GSTE": 4.0}

KINDS = tuple(_C)


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from, with its parameters and base seed."""

    kind: str
    p: int
    N: int
    beta: float = 0.0
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", str(self.kind).upper())
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.p < 1 or self.N < 1:
            raise ValueError("p and N must be positive")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        _class_info(self.class_tag).check_shape(self.p, self.N, f"{self.kind} tensors")

    @property
    def class_tag(self) -> str:
        return _class_of(self.kind)


@lru_cache(maxsize=None)
def _class_of(kind: str) -> str:
    return next(tag for tag in CLASS_TAGS if _class_info(tag).ensemble == kind)


def sample(spec: EnsembleSpec, rng: np.random.Generator) -> CanonicalTensor:
    """One draw.  The RNG is consumed in a fixed order (one length-K normal
    vector per component, symmetric first, then by quaternion label), so a
    given generator state always produces the same tensor.
    """
    values = _canonical_values(spec, _read_normals(spec, rng)[None])[0]
    return CanonicalTensor(spec.class_tag, spec.p, spec.N, values)


def sample_batch(spec: EnsembleSpec, count: int) -> list[CanonicalTensor]:
    """``count`` independent draws with a deterministic seed partition.

    Sample i uses the stream seeded by (spec.seed, i), so any contiguous or
    parallel evaluation of the batch yields identical tensors.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    C, K = _value_shape(spec)
    normals = _normal_block(_streams(spec.seed, 0, count), count, C * K)
    values = _canonical_values(spec, normals.reshape(count, C, K))
    return [CanonicalTensor(spec.class_tag, spec.p, spec.N, v) for v in values]


# -- seed streams ----------------------------------------------------------
# numpy's SeedSequence hash (O'Neill, "PCG", 2014) at its default pool size

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
#: streams whose seed words one numpy pass of :func:`_streams` computes
_STREAM_BLOCK = 1024


def _stream(seed: int, index: int) -> np.random.Generator:
    """The generator of draw ``index`` under base seed ``seed``, seeded by
    ``SeedSequence((seed, index))``, the stream :func:`_streams` yields."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _streams(seed: int, start: int, stop: int):
    """Yield the generator of each draw i in [start, stop) under base seed
    ``seed``: ``default_rng(SeedSequence((seed, i)))``, bit for bit.

    The seeding hash runs once per block of draws, over uint32 arrays.  No
    block crosses a multiple of 2**32, so within one the entropy words of
    (seed, i) differ only in the low word of i.
    """
    lead, seed_words = _uint32_words(seed), _seed_words_type()
    i = start
    while i < stop:
        end = min(stop, i + _STREAM_BLOCK, ((i >> 32) + 1) << 32)
        entropy = np.repeat(np.array([lead + _uint32_words(i)], dtype=np.uint32).T,
                            end - i, axis=1)
        entropy[len(lead)] += np.arange(end - i, dtype=np.uint32)
        for words in _seed_state(entropy):
            yield np.random.Generator(np.random.PCG64(seed_words(words)))
        i = end


def _uint32_words(n: int) -> list[int]:
    """The entropy words of a nonnegative integer, least significant first;
    0 is one word."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The multipliers of ``calls`` successive hashmix calls, (calls + 1, 1)
    uint32: call k xors with row k and multiplies by row k + 1."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return _read_only(np.array(out, dtype=np.uint32)[:, None])


def _hashmix(x: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix``, one call per row of ``consts[:-1]``."""
    value = (x ^ consts[:-1]) * consts[1:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> np.uint32(16))


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each column e of
    an (L, B) uint32 entropy array, as a read-only (B, 4) uint64 array.

    A port of numpy's ``mix_entropy`` and ``generate_state``.  The calls of
    one step that hash the same word run as one array operation.
    """
    L, B = entropy.shape
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + max(L - _POOL, 0)))
    pool = np.zeros((_POOL, B), dtype=np.uint32)
    pool[:L] = entropy[:_POOL]
    pool = _hashmix(pool, a[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        # every other pool word takes in a hash of this one
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, a[k:k + _POOL + 1]))
        k += _POOL
    # eight uint32 words from the pool read twice; words 2j and 2j + 1 are
    # the low and high halves of uint64 word j
    state = _hashmix(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL))
    words = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << np.uint64(32)
    return _read_only(np.ascontiguousarray(words.T))


@lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """A seed sequence holding only the four uint64 words PCG64 reads; made
    on first use, so that ``import gte`` does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("only the four uint64 words that seed PCG64 are stored")
            return self.words

    return SeedWords


def _value_shape(spec: EnsembleSpec) -> tuple[int, int]:
    """(C, K): the components and canonical classes of one draw's values."""
    return len(_class_info(spec.class_tag).keys(spec.p)), class_count(spec.p, spec.N)


def _read_normals(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """The stream read of one draw: a (C, K) array holding one length-K
    standard normal vector per component, in storage order."""
    return rng.standard_normal(_value_shape(spec))


def _normal_block(rngs, count: int, width: int, uniform: int = 0) -> np.ndarray:
    """The next ``count`` generators of ``rngs`` read into one (count, width)
    array: row b holds the first ``width`` standard normals of generator b,
    or first ``uniform`` uniform [0, 1) values and then normals.

    A row's normals are one read, whatever the row holds.  numpy's ziggurat
    keeps no state between calls, so one read of a + b normals gives bit for
    bit the values of a read of a followed by a read of b; a row can
    therefore hold a draw's tensor normals followed by its Haar element's.
    """
    out = np.empty((count, width))
    for row, rng in zip(out, rngs):     # ``out`` first: zip stops before an extra next()
        if uniform:
            rng.random(out=row[:uniform])
            row = row[uniform:]
        rng.standard_normal(out=row)
    return out


def _scale(spec: EnsembleSpec) -> float:
    """s: every live canonical value has variance s / w, w its Frobenius weight."""
    return spec.gamma * spec.p * _class_info(spec.class_tag).norm_sq(spec.p) / _C[spec.kind]


@lru_cache(maxsize=64)     # keyed by the whole spec, its seed too: bounded
def _moments(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (C, K) mean and variance of a draw's canonical values, read-only:
    beta*I on the lead row, and s / w on the live values, 0 elsewhere."""
    live, w = _class_info(spec.class_tag).coordinates(spec.p, spec.N)
    mean = np.zeros(live.shape)
    if spec.beta:
        mean[0] = spec.beta * identity_tensor(spec.p, spec.N).values
    return _read_only(mean), _read_only(np.where(live, _scale(spec) / w, 0.0))


def _canonical_values(spec: EnsembleSpec, normals: np.ndarray) -> np.ndarray:
    """(B, C, K) standard normals to the canonical values of B draws.  The
    +0.0 mean turns the -0.0 of a dead value's sqrt(0) * z into +0.0."""
    mean, var = _moments(spec)
    return np.sqrt(var) * normals + mean


def log_density_unnormalized(t: CanonicalTensor, spec: EnsembleSpec) -> float:
    """log f(t) up to the normalizing constant: -||t - beta I||_F^2 / (2 s),
    the density of the law :func:`sample` draws.

    The value is exactly 0 at the mode t = beta*I and strictly negative
    elsewhere.
    """
    if t.class_tag != spec.class_tag:
        raise ValueError(f"{spec.kind} density is defined on {spec.class_tag!r} "
                         f"tensors, got {t.class_tag!r}")
    if (t.p, t.N) != (spec.p, spec.N):
        raise ValueError(f"shape mismatch: spec has (p,N)=({spec.p},{spec.N}), "
                         f"tensor ({t.p},{t.N})")
    shifted = shifted_by_identity(t, -spec.beta) if spec.beta else t
    return -frobenius_norm_sq(shifted) / (2 * _scale(spec))


def expected_frobenius_sq(spec: EnsembleSpec) -> float:
    """Exact E||H||^2_F for the given ensemble (dense-form norm): s per live
    canonical value plus ||beta I||_F^2; for GOTE(0, gamma) this is
    gamma * p * C(N+p-1, p)."""
    p, N = spec.p, spec.N
    info = _class_info(spec.class_tag)
    mean_sq = spec.beta**2 * float(np.sum(identity_tensor(p, N).values))
    return _scale(spec) * int(info.coordinates(p, N)[0].sum()) + info.norm_sq(p) * mean_sq
