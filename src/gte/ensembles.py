"""Gaussian tensor ensembles: GOTE (real symmetric), GUTE (hermitian),
GSTE (self-dual hermitian).

Sampling happens directly in canonical storage -- one Gaussian draw per
canonical index class and component, never by symmetrizing dense i.i.d.
entries -- so the independence-up-to-symmetry structure is exact.  The
per-class standard deviations follow from the density exponents:

    kind    density exponent               entry variance
    GOTE    -||H - bI||^2 / (2 p gamma)    gamma p / Gamma
    GUTE    -||H - bI||^2 / (p gamma)      gamma p / (2 Gamma)   per part
    GSTE    -2||H - bI||^2 / (p gamma)     gamma p / (4 Gamma)   per component

where Gamma is the multiplicity of the class.  The shift beta enters through
the identity tensor on the symmetric real component (H^(0), resp. Q^(0));
antisymmetric parts are mean zero and live only on all-distinct classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import (
    CLASS_TAGS,
    CanonicalTensor,
    class_count,
    frobenius_norm_sq,
    identity_tensor,
    multiplicities,
    shifted_by_identity,
    _class_info,
    _repeated_mask,
)

__all__ = [
    "EnsembleSpec",
    "KINDS",
    "expected_frobenius_sq",
    "log_density_unnormalized",
    "sample",
    "sample_batch",
]

#: c in the per-entry variance gamma*p/(c*Gamma); the density exponent is
#: -kappa * ||H - beta*I||^2 / gamma with kappa = c/(2p)
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
    values = _canonical_values(spec, np.stack([
        _read_normals(spec, _stream(spec.seed, i)) for i in range(count)]))
    return [CanonicalTensor(spec.class_tag, spec.p, spec.N, v) for v in values]


def _stream(seed: int, index: int) -> np.random.Generator:
    """The generator of draw ``index`` under base seed ``seed``, seeded by
    ``SeedSequence((seed, index))``."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _read_normals(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """The stream read of one draw: a (C, K) array holding one length-K
    standard normal vector per component, in storage order."""
    return rng.standard_normal((len(_class_info(spec.class_tag).keys(spec.p)),
                                class_count(spec.p, spec.N)))


def _canonical_values(spec: EnsembleSpec, normals: np.ndarray) -> np.ndarray:
    """(B, C, K) standard normals to the canonical values of B draws: scaled
    by the class sigmas, shifted by beta*I on the first component, and zero
    on the repeated-index classes of the antisymmetric components."""
    p, N = spec.p, spec.N
    info = _class_info(spec.class_tag)
    out = np.sqrt(spec.gamma * p / (_C[spec.kind] * multiplicities(p, N))) * normals
    if spec.beta and not info.antisymmetric:
        out[:, 0] += spec.beta * identity_tensor(p, N).values
    anti = info.antisymmetric_rows(p)
    if anti.any():
        out[:, anti[:, None] & _repeated_mask(p, N)] = 0.0
    return out


def log_density_unnormalized(t: CanonicalTensor, spec: EnsembleSpec) -> float:
    """log f(t) up to the normalizing constant: -kappa ||t - beta I||^2 / gamma.

    The norm is the dense-form Frobenius norm, so the value is exactly 0 at
    the mode t = beta*I and strictly negative elsewhere.
    """
    if t.class_tag != spec.class_tag:
        raise ValueError(f"{spec.kind} density is defined on {spec.class_tag!r} "
                         f"tensors, got {t.class_tag!r}")
    if (t.p, t.N) != (spec.p, spec.N):
        raise ValueError(f"shape mismatch: spec has (p,N)=({spec.p},{spec.N}), "
                         f"tensor ({t.p},{t.N})")
    shifted = shifted_by_identity(t, -spec.beta) if spec.beta else t
    kappa = _C[spec.kind] / (2 * spec.p)
    return -kappa * frobenius_norm_sq(shifted) / spec.gamma


def expected_frobenius_sq(spec: EnsembleSpec) -> float:
    """Exact E||H||^2_F for the given ensemble (dense-form norm).

    Sums Gamma * (variance + squared mean) over classes and components; for
    GOTE(0, gamma) this collapses to gamma * p * C(N+p-1, p).
    """
    p, N = spec.p, spec.N
    info = _class_info(spec.class_tag)
    K = class_count(p, N)
    D = int(np.sum(~_repeated_mask(p, N)))
    var_unit = spec.gamma * p / _C[spec.kind]   # Gamma * variance
    mean_sq = spec.beta**2 * float(np.sum(identity_tensor(p, N).values))
    # antisymmetric components live only on the all-distinct classes
    n_anti = int(info.antisymmetric_rows(p).sum())
    n_sym = len(info.keys(p)) - n_anti
    return info.norm_sq(p) * (var_unit * (n_sym * K + n_anti * D) + mean_sq)
