"""Ensemble laws: per-class variances, means, energy, and the density."""

import sys

import numpy as np
import pytest

from conftest import live_mask
from gte.ensembles import (
    EnsembleSpec,
    expected_frobenius_sq,
    log_density_unnormalized,
    sample,
    sample_batch,
    _STREAM_BLOCK,
    _moments,
    _stream,
    _streams,
)
from gte.harness import _AUX
from gte.invariants import bouquet_graph, evaluate
from gte.tensor import (
    CanonicalTensor,
    canonical_indices,
    class_count,
    densify,
    frobenius_norm_sq,
    identity_tensor,
    multiplicities,
    shifted_by_identity,
    zeros,
    _class_info,
)


def _bouquet(t):
    """The bouquet invariant: the sum of the entries at (i1, i1, ..., i_{p/2}, i_{p/2})."""
    return complex(evaluate(bouquet_graph(t.p, _class_info(t.class_tag).graph), t)).real


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("GOTE", 2, 2, gamma=0.0)
    with pytest.raises(ValueError):
        EnsembleSpec("GOTE", 2, 2, gamma=-1.0)
    with pytest.raises(ValueError):
        EnsembleSpec("GUTE", 3, 2)  # odd order
    with pytest.raises(ValueError):
        EnsembleSpec("GSTE", 4, 2)  # order must be 2 mod 4
    with pytest.raises(ValueError):
        EnsembleSpec("GXTE", 2, 2)
    with pytest.raises(ValueError):
        EnsembleSpec("GOTE", 0, 2)
    assert EnsembleSpec("gote", 2, 2).kind == "GOTE"  # case-insensitive
    assert EnsembleSpec("GSTE", 6, 1).class_tag == "selfdual"


@pytest.mark.parametrize("kwargs,field", [
    ({"beta": float("nan")}, "beta"), ({"beta": float("inf")}, "beta"),
    ({"beta": -float("inf")}, "beta"), ({"gamma": float("inf")}, "gamma"),
    ({"gamma": float("nan")}, "gamma")])
def test_spec_refuses_non_finite_parameters(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        EnsembleSpec("GOTE", 2, 2, **kwargs)


def test_spec_refuses_a_gamma_whose_scale_overflows():
    # s = gamma p norm_sq / c: finite at p = 1, infinite at p = 6
    assert EnsembleSpec("GOTE", 1, 2, gamma=1e308).gamma == 1e308
    with pytest.raises(ValueError, match="gamma = 1e\\+308 overflows the scale"):
        EnsembleSpec("GOTE", 6, 2, gamma=1e308)


@pytest.mark.parametrize("kind,p,N,gamma", [("GOTE", 6, 2, 5e-324), ("GOTE", 2, 2, 1e-308),
                                             ("GUTE", 4, 2, 1e-308), ("GSTE", 2, 2, 5e-324)])
def test_spec_refuses_a_gamma_whose_variance_underflows(kind, p, N, gamma):
    # s / w is 0 or subnormal on the live value of largest weight w
    with pytest.raises(ValueError, match=f"gamma = {gamma} underflows the variance s / w"):
        EnsembleSpec(kind, p, N, gamma=gamma)
    # four times the smallest accepted gamma gives every live value a normal variance
    info = _class_info(EnsembleSpec(kind, p, N).class_tag)
    live, w = info.coordinates(p, N)
    c = {"GOTE": 1, "GUTE": 2, "GSTE": 4}[kind]
    ok = EnsembleSpec(kind, p, N, gamma=4 * sys.float_info.min * w.max() * c / (p * info.norm_sq(p)))
    assert _moments(ok)[1][live].min() >= sys.float_info.min


def test_samples_live_in_the_right_class():
    rng = np.random.default_rng(0)
    assert sample(EnsembleSpec("GOTE", 3, 2), rng).class_tag == "sym"
    assert sample(EnsembleSpec("GUTE", 4, 2), rng).class_tag == "herm"
    assert sample(EnsembleSpec("GSTE", 2, 3), rng).class_tag == "selfdual"


def test_seed_partition_is_deterministic():
    a = sample_batch(EnsembleSpec("GOTE", 3, 2, seed=11), 3)
    b = sample_batch(EnsembleSpec("GOTE", 3, 2, seed=11), 5)
    for t1, t2 in zip(a, b[:3]):
        assert np.array_equal(t1.values, t2.values)
    c = sample_batch(EnsembleSpec("GOTE", 3, 2, seed=12), 3)
    assert not np.array_equal(a[0].values, c[0].values)


# -- the stream contract: draw i reads default_rng(SeedSequence((seed, i))) ----

_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**130 + 17]


def _reference(seed, i):
    return np.random.default_rng(np.random.SeedSequence((seed, i)))


def _assert_same_stream(rng, seed, i):
    words = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
    assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), words)
    assert np.array_equal(rng.standard_normal(8), _reference(seed, i).standard_normal(8))


@pytest.mark.parametrize("seed", _SEEDS)
def test_streams_match_numpy_seed_sequence(seed):
    for i in (0, 1, 2**31, 2**32 - 1, 2**32, 2**64 + 9, _AUX, _AUX + 1):
        _assert_same_stream(_stream(seed, i), seed, i)
    for start, stop in [(0, 9), (2**32 - 4, 2**32 + 4),    # across a multiple of 2**32
                        (_AUX - 2, _AUX + 3),
                        (3, 3 + _STREAM_BLOCK + 2)]:      # across a block boundary
        rngs = list(_streams(seed, start, stop))
        assert len(rngs) == stop - start
        for k, rng in enumerate(rngs):
            _assert_same_stream(rng, seed, start + k)


def test_sample_batch_beyond_one_block_matches_per_draw_streams():
    spec = EnsembleSpec("GUTE", 2, 2, beta=0.5, seed=2**33 + 1)
    count = _STREAM_BLOCK + 3
    batch = sample_batch(spec, count)
    assert len(batch) == count
    for i, t in enumerate(batch):
        assert np.array_equal(t.array, sample(spec, _reference(spec.seed, i)).array)


def test_streams_refuse_a_negative_seed_with_numpys_message():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        _stream(-1, 0)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        sample_batch(EnsembleSpec("GOTE", 2, 2, seed=-1), 3)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.SeedSequence((-1, 0))
    assert list(_streams(3, 5, 5)) == []


def test_stream_seed_words_serve_pcg64_only():
    seq = next(_streams(1, 2, 3)).bit_generator.seed_seq
    assert not isinstance(seq, np.random.SeedSequence)
    with pytest.raises(ValueError):
        seq.generate_state(8, np.uint32)


def test_goe_reduction_at_p2():
    """Order 2 reduces to the classical real symmetric ensemble: diagonal
    variance 2*gamma, off-diagonal variance gamma."""
    spec = EnsembleSpec("GOTE", 2, 2, gamma=1.0, seed=5)
    M = np.array([densify(t) for t in sample_batch(spec, 4000)])
    assert np.allclose(M, np.swapaxes(M, 1, 2))
    assert abs(M[:, 0, 0].var() - 2.0) < 0.2
    assert abs(M[:, 1, 1].var() - 2.0) < 0.2
    assert abs(M[:, 0, 1].var() - 1.0) < 0.1


def test_gote_p1_components_iid():
    # odd order has no identity shift, so beta drops out of the mean
    spec = EnsembleSpec("GOTE", 1, 3, beta=0.7, gamma=2.0, seed=9)
    V = np.array([t.values for t in sample_batch(spec, 5000)])
    assert np.allclose(V.mean(axis=0), 0.0, atol=0.15)
    assert np.allclose(V.var(axis=0), 2.0, atol=0.25)


def test_entry_variances_scale_with_multiplicity():
    spec = EnsembleSpec("GOTE", 3, 2, gamma=1.0, seed=1)
    V = np.array([t.values for t in sample_batch(spec, 6000)])
    gam = multiplicities(3, 2)
    want = 3.0 / gam
    assert np.allclose(V.var(axis=0), want, rtol=0.15)


def test_gute_means_and_component_variances():
    spec = EnsembleSpec("GUTE", 2, 2, beta=1.0, gamma=1.0, seed=8)
    xs = sample_batch(spec, 6000)
    H0 = np.array([t.component((0,)) for t in xs])
    H1 = np.array([t.component((1,)) for t in xs])
    idx = list(canonical_indices(2, 2))
    # mean beta/Gamma on paired classes of the real part only
    assert np.allclose(H0.mean(axis=0), [1.0, 0.0, 1.0], atol=0.08)
    assert np.allclose(H1.mean(axis=0), 0.0, atol=0.08)
    # each part carries variance gamma*p/(2*Gamma)
    gam = multiplicities(2, 2)
    assert np.allclose(H0.var(axis=0), 1.0 / gam, rtol=0.15)
    # imaginary part exists only off the diagonal
    diag = idx.index((0, 0))
    off = idx.index((0, 1))
    assert H1[:, diag].std() == 0.0
    assert abs(H1[:, off].var() - 0.5) < 0.08


def test_gste_mean_sits_on_scalar_component():
    spec = EnsembleSpec("GSTE", 2, 2, beta=0.9, gamma=1.0, seed=12)
    xs = sample_batch(spec, 5000)
    for eps in [(0,), (1,), (2,), (3,)]:
        m = np.array([t.component(eps) for t in xs]).mean(axis=0)
        want = [0.9, 0.0, 0.9] if eps == (0,) else [0.0, 0.0, 0.0]
        assert np.allclose(m, want, atol=0.08), (eps, m)


def test_gste_paired_offdiagonal_spinor_vanishes_at_p2():
    spec = EnsembleSpec("GSTE", 2, 3, beta=0.5, gamma=1.0, seed=3)
    for t in sample_batch(spec, 20):
        d = densify(t)
        for i in range(3):
            assert d[2 * i, 2 * i + 1] == 0.0
            assert d[2 * i + 1, 2 * i] == 0.0


def test_expected_frobenius_sq_gote_formula():
    # E||H||^2 = gamma * p * C(N+p-1, p) at beta = 0
    for p, N, gamma in [(2, 2, 1.0), (3, 2, 1.0), (3, 2, 2.5), (2, 3, 0.5)]:
        spec = EnsembleSpec("GOTE", p, N, gamma=gamma)
        assert expected_frobenius_sq(spec) == pytest.approx(
            gamma * p * class_count(p, N))


@pytest.mark.parametrize("kind,p,N,beta", [
    ("GOTE", 3, 2, 0.0), ("GUTE", 2, 3, 0.4), ("GUTE", 4, 2, 0.0),
    ("GSTE", 2, 2, 0.3),
])
def test_expected_frobenius_sq_monte_carlo(kind, p, N, beta):
    spec = EnsembleSpec(kind, p, N, beta=beta, gamma=1.3, seed=7)
    want = expected_frobenius_sq(spec)
    est = np.mean([frobenius_norm_sq(t) for t in sample_batch(spec, 3000)])
    assert abs(est - want) / want < 0.1


def test_log_density_zero_at_mode_negative_elsewhere():
    spec = EnsembleSpec("GOTE", 2, 3, beta=0.8, gamma=1.5, seed=1)
    mode = 0.8 * identity_tensor(2, 3)
    assert log_density_unnormalized(mode, spec) == 0.0
    for t in sample_batch(spec, 5):
        assert log_density_unnormalized(t, spec) < 0.0


def test_log_density_kind_checks():
    spec = EnsembleSpec("GUTE", 2, 2)
    with pytest.raises(ValueError):
        log_density_unnormalized(zeros("sym", 2, 2), spec)
    with pytest.raises(ValueError):
        log_density_unnormalized(zeros("herm", 2, 3), spec)


@pytest.mark.parametrize("kind,N,kappa", [
    ("GOTE", 3, 1.0 / 4.0), ("GUTE", 2, 1.0 / 2.0), ("GSTE", 2, 1.0 / 2.0)])
def test_log_density_quadratic_expansion_at_p2(kind, N, kappa):
    """-kappa||t - beta I||^2/gamma = -a||t||^2 + b*Tr(t) + c with
    a = kappa/gamma, b = 2 kappa beta/gamma, c = -kappa beta^2 ||I||^2/gamma.
    The cross term matches the bouquet invariant because every paired class
    at order 2 has trivial half-multiplicity."""
    spec = EnsembleSpec(kind, 2, N, beta=0.6, gamma=0.9, seed=4)
    idn = shifted_by_identity(zeros(spec.class_tag, 2, N), 1.0)
    a = kappa / spec.gamma
    b = 2 * kappa * spec.beta / spec.gamma
    c = -kappa * spec.beta ** 2 * frobenius_norm_sq(idn) / spec.gamma
    for t in sample_batch(spec, 10):
        lhs = log_density_unnormalized(t, spec)
        rhs = -a * frobenius_norm_sq(t) + b * _bouquet(t) + c
        assert abs(lhs - rhs) < 1e-10


def test_log_density_quadratic_expansion_breaks_at_p4():
    """At order 4 the identity inner product weights paired classes by their
    half-multiplicity, which the bouquet invariant does not, so the same
    three-coefficient expansion no longer holds for beta != 0."""
    spec = EnsembleSpec("GOTE", 4, 2, beta=0.8, gamma=1.0, seed=6)
    kappa = 1.0 / 8.0
    a, b = kappa, 2 * kappa * 0.8
    c = -kappa * 0.8 ** 2 * frobenius_norm_sq(identity_tensor(4, 2))
    t = sample_batch(spec, 1)[0]
    lhs = log_density_unnormalized(t, spec)
    rhs = -a * frobenius_norm_sq(t) + b * _bouquet(t) + c
    assert abs(lhs - rhs) > 1e-6


@pytest.mark.parametrize("kind,p,N", [("GOTE", 3, 2), ("GUTE", 4, 2), ("GSTE", 2, 2),
                                      ("GSTE", 6, 1)])
def test_log_density_falls_by_half_per_standard_deviation(kind, p, N):
    """The log density is that of the law sample() draws: one standard
    deviation along any live canonical value lowers it by exactly 1/2.  The
    variance is the sampler's gamma p / (c * multiplicity)."""
    spec = EnsembleSpec(kind, p, N, beta=-0.7, gamma=1.3)
    c = {"GOTE": 1.0, "GUTE": 2.0, "GSTE": 4.0}[kind]
    sd = np.sqrt(spec.gamma * p / (c * multiplicities(p, N)))
    mode = shifted_by_identity(zeros(spec.class_tag, p, N), spec.beta)
    assert log_density_unnormalized(mode, spec) == 0.0
    for row, k in np.argwhere(live_mask(spec.class_tag, p, N)):
        x = mode.array.copy()
        x[row, k] += sd[k]
        step = CanonicalTensor(spec.class_tag, p, N, x)
        assert log_density_unnormalized(step, spec) == pytest.approx(-0.5, rel=1e-12)


def test_sampling_is_canonical_not_dense():
    # a GOTE draw at N=1 has exactly one degree of freedom per class
    spec = EnsembleSpec("GOTE", 4, 1, gamma=1.0, seed=2)
    t = sample_batch(spec, 1)[0]
    assert t.values.shape == (1,)


def test_batch_count_validation():
    with pytest.raises(ValueError):
        sample_batch(EnsembleSpec("GOTE", 2, 2), -1)
    assert sample_batch(EnsembleSpec("GOTE", 2, 2), 0) == []


def test_moments_are_built_once_per_spec_and_read_only():
    # at beta != 0 the mean holds beta * identity_tensor, a validated tensor
    # too slow to build per draw; equal specs share one read-only pair
    spec = EnsembleSpec("GOTE", 2, 2, beta=1.0)
    mean, var = _moments(spec)
    again = _moments(EnsembleSpec("GOTE", 2, 2, beta=1.0))
    assert again[0] is mean and again[1] is var
    assert not mean.flags.writeable and not var.flags.writeable
    assert np.array_equal(mean[0], identity_tensor(2, 2).values)
