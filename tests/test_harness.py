"""Statistical harness: invariance, gaussianity, derivative, isotropy."""

import json
import tracemalloc

import numpy as np
import pytest

from gte.ensembles import EnsembleSpec, sample, _STREAM_BLOCK
from gte.groups import FLAVORS, _GROUPS, flavor_for_class
import gte.harness
import gte.tensor
from gte.harness import (
    ALPHA,
    MIN_SAMPLES,
    Subtest,
    Z_BOUND,
    derivative_identity_test,
    gaussianity_independence_test,
    invariance_test,
    isotropy_test,
    report_to_dict,
    rotated_spike_sampler,
    sphere_sampler,
    uniform_entry_sampler,
    _CHUNK_BYTES,
    _draws,
    _finish,
)
from gte.tensor import (CanonicalTensor, ClassViolationError, frobenius_norm_sq,
                        shifted_by_identity, zeros)

from conftest import (constant_sampler, oracle_rotated_spike_sampler, oracle_sphere_sampler,
                      oracle_uniform_entry_sampler)


def test_derivative_identity_passes():
    rep = derivative_identity_test(n_trials=80, seed=0)
    assert rep.passed
    assert rep.test == "derivative-identity"
    assert len(rep.subtests) == 8  # p in 1..4 crossed with N in 2..3
    assert rep.statistic <= 1e-6


@pytest.mark.parametrize("n_trials", [-3, 0, 7])
def test_derivative_identity_refuses_untested_configurations(n_trials):
    # fewer trials than (p, N) configurations would report the untested
    # ones as passing with statistic 0
    with pytest.raises(ValueError, match="at least 8 trials"):
        derivative_identity_test(n_trials=n_trials, seed=0)
    rep = derivative_identity_test(n_trials=8, seed=0)
    assert rep.passed and rep.n_samples == 8 and len(rep.subtests) == 8


@pytest.mark.parametrize("n_trials", [8.0, 8.5, "8"])
def test_derivative_identity_refuses_a_non_integer_count_before_drawing(monkeypatch, n_trials):
    def no_streams(*args, **kwargs):
        raise AssertionError("read a stream before refusing")

    monkeypatch.setattr(gte.harness, "_streams", no_streams)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        derivative_identity_test(n_trials=n_trials, seed=0)


@pytest.mark.parametrize("trials_per_chunk", [1, 5])
def test_derivative_identity_report_does_not_depend_on_the_chunk(monkeypatch, trials_per_chunk):
    # a chunk holds _CHUNK_BYTES of dense tensors of the largest configuration,
    # p = 4, N = 3: 648 bytes each
    def text():
        return json.dumps(report_to_dict(derivative_identity_test(n_trials=100, seed=2)),
                          sort_keys=True)

    want = text()
    monkeypatch.setattr(gte.harness, "_CHUNK_BYTES", 648 * trials_per_chunk)
    assert text() == want


def test_derivative_identity_raises_canonicalize_error_on_an_off_class_derivative(monkeypatch):
    def skewed(dense):
        out = dense.copy()
        out.reshape(len(out), -1)[:, 1] += 1.0     # entry (1, ..., 1, 2) leaves its class at p >= 2
        return out

    monkeypatch.setattr(gte.harness, "_theta_derivative_stack", skewed)
    with pytest.raises(ClassViolationError, match="deviates from the value implied by"):
        derivative_identity_test(n_trials=8, seed=0)


@pytest.mark.parametrize("kind,p,N", [
    ("GOTE", 3, 2), ("GUTE", 2, 3), ("GSTE", 2, 2)])
def test_invariance_accepts_the_ensembles(kind, p, N):
    rep = invariance_test(EnsembleSpec(kind, p, N, seed=21), n_samples=600,
                          seed=21)
    assert rep.passed, [s for s in rep.subtests if not s.passed]


def test_invariance_rejects_uniform_entries():
    rep = invariance_test(uniform_entry_sampler(3, 2), n_samples=600, seed=3)
    assert not rep.passed
    # the dense coordinates carry the power, not the invariant values
    failed = [s.name for s in rep.subtests if not s.passed]
    assert any(n.startswith("coord") for n in failed)
    assert rep.p_value < 1e-6


def test_invariance_accepts_invariant_spike_law():
    rep = invariance_test(rotated_spike_sampler(2, 2), n_samples=600, seed=4)
    assert rep.passed


def test_invariance_on_fixed_point_short_circuits():
    # beta * identity is itself invariant; the rotated copy agrees to
    # roundoff, and index-paired KS comparisons report a clean pass
    t = shifted_by_identity(zeros("sym", 2, 3), 0.7)
    rep = invariance_test(constant_sampler(t), n_samples=200, seed=5)
    assert rep.passed
    assert all(s.p_value == 1.0 for s in rep.subtests)


def test_invariance_exact_invariant_subtests():
    rep = invariance_test(EnsembleSpec("GOTE", 2, 2, seed=9), n_samples=300, seed=9)
    inv = [s for s in rep.subtests if s.name.startswith("invariant")]
    assert len(inv) == 1
    assert inv[0].passed and inv[0].p_value == 1.0


def test_rotated_spike_sampler_draws_at_large_scale():
    # the spike's dense form is exactly symmetric up to rounding of its
    # 1e6-sized entries, which an absolute class bound refused
    draw = rotated_spike_sampler(3, 3, scale=1e6)
    for i in range(200):
        assert frobenius_norm_sq(draw(np.random.default_rng(i))) == pytest.approx(1e12, rel=1e-12)


def test_invariance_imaginary_invariant_is_compared_relative_to_its_size():
    # At GSTE p=6 N=2 the melon is about 2e3 and exactly real before the
    # rotation; after it, rounding leaves imaginary parts near 1e-12.  Judged
    # against an absolute 1e-12 that dust failed KS (statistic 0.505); judged
    # relative to |value| the pair counts as equal.  The overall verdict is
    # not asserted: the coordinates still reject at this order.
    rep = invariance_test(EnsembleSpec("GSTE", 6, 2), n_samples=200, seed=0)
    im = next(s for s in rep.subtests if s.name == "invariant[0].im")
    assert im.passed and im.statistic == 0.0


def test_invariance_memory_is_bounded_by_the_tested_columns():
    # 1000 dense GSTE p=6 N=2 samples before and after rotation take
    # 1000 * 2 * 4096 * 16 B = 131 MB; only 64 columns of them are tested.
    # tracemalloc does not see the recycled mappings the stacked kernels
    # write into, so their own peak of live bytes is added.  scipy.stats is
    # imported first: loading it takes about 39 MB of tracemalloc, which
    # counted only when this test ran before every other KS test.
    from scipy import stats  # noqa: F401
    slabs = gte.tensor._slab_bytes
    live = slabs["peak"] = slabs["live"]
    tracemalloc.start()
    try:
        invariance_test(EnsembleSpec("GSTE", 6, 2), n_samples=1000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak + (slabs["peak"] - live) < 64 * 2**20


def test_invariance_drops_each_chunk_before_densifying_the_next():
    # a GSTE p=6 N=2 chunk is 64 dense tensors, one 4 MiB slab each for the
    # draws, their rotations and the action's second buffer; the previous
    # chunk's stacks, kept alive, pushed the peak to 19.4 MB
    slabs = gte.tensor._slab_bytes
    live = slabs["peak"] = slabs["live"]
    invariance_test(EnsembleSpec("GSTE", 6, 2), n_samples=200, seed=0)
    assert slabs["peak"] - live <= 3 * _CHUNK_BYTES


def test_invariance_reports_are_reproducible_and_jsonable():
    spec = EnsembleSpec("GOTE", 2, 2, seed=13)
    r1 = invariance_test(spec, n_samples=200, seed=13)
    r2 = invariance_test(spec, n_samples=200, seed=13)
    d1, d2 = report_to_dict(r1), report_to_dict(r2)
    assert d1 == d2
    text = json.dumps(d1)  # every leaf must be a plain python scalar
    assert json.loads(text)["test"] == "invariance"


def test_minimum_sample_size_is_enforced():
    spec = EnsembleSpec("GOTE", 2, 2)
    with pytest.raises(ValueError):
        invariance_test(spec, n_samples=10)
    with pytest.raises(ValueError):
        gaussianity_independence_test(spec, n_samples=50)
    with pytest.raises(ValueError):
        isotropy_test(spec, n_samples=99)


@pytest.mark.parametrize("kind,p,N,beta", [
    ("GOTE", 3, 2, 0.0), ("GUTE", 2, 2, 0.5), ("GSTE", 2, 2, 0.0)])
def test_gaussianity_accepts_the_ensembles(kind, p, N, beta):
    spec = EnsembleSpec(kind, p, N, beta=beta, seed=31)
    rep = gaussianity_independence_test(spec, n_samples=1500, seed=31)
    assert rep.passed, [s for s in rep.subtests if not s.passed]


def test_gaussianity_rejects_constant_sampler():
    spec = EnsembleSpec("GOTE", 2, 2)
    rep = gaussianity_independence_test(constant_sampler(zeros("sym", 2, 2)),
                                        n_samples=400, seed=6, reference=spec)
    assert not rep.passed
    failed = {s.name for s in rep.subtests if not s.passed}
    assert any(n.endswith(".var") for n in failed)


def test_gaussianity_rejects_dependent_spike():
    # scale * v v^T with |v| = 1 forces t00 + t11 = scale exactly, so the
    # corresponding correlation statistic is sqrt(n)
    spec = EnsembleSpec("GOTE", 2, 2)
    rep = gaussianity_independence_test(rotated_spike_sampler(2, 2),
                                        n_samples=400, seed=7, reference=spec)
    assert not rep.passed
    corr = [s for s in rep.subtests if s.name.startswith("corr") and not s.passed]
    assert corr and max(s.statistic for s in corr) > 10.0


def test_gaussianity_callable_needs_reference():
    with pytest.raises(ValueError):
        gaussianity_independence_test(uniform_entry_sampler(2, 2),
                                      n_samples=200)


def test_gaussianity_detects_mean_shift():
    shifted = EnsembleSpec("GOTE", 2, 2, beta=5.0, seed=2)
    null = EnsembleSpec("GOTE", 2, 2, beta=0.0)
    rep = gaussianity_independence_test(shifted, n_samples=400, seed=2, reference=null)
    assert not rep.passed
    assert any(s.name.endswith(".mean") and not s.passed for s in rep.subtests)


@pytest.mark.parametrize("p,N", [(2, 2), (2, 3), (3, 2)])
def test_isotropy_accepts_centered_ensembles(p, N):
    rep = isotropy_test(EnsembleSpec("GOTE", p, N, seed=41), n_samples=1200,
                        seed=41)
    assert rep.passed, [s for s in rep.subtests if not s.passed]
    assert rep.test == "isotropy"


def test_isotropy_accepts_direct_sphere_law():
    rep = isotropy_test(sphere_sampler(2, 2), n_samples=800, seed=8)
    assert rep.passed


def test_isotropy_rejects_shifted_law():
    rep = isotropy_test(EnsembleSpec("GOTE", 2, 2, beta=1.0, seed=42),
                        n_samples=1200, seed=42)
    assert not rep.passed
    assert any(s.name.startswith("coord_sq") and not s.passed
               for s in rep.subtests)


def test_isotropy_needs_enough_coordinates():
    with pytest.raises(ValueError):
        isotropy_test(EnsembleSpec("GOTE", 1, 2), n_samples=200)  # K = 2


def test_isotropy_rejects_non_symmetric_samples():
    with pytest.raises(ValueError):
        isotropy_test(EnsembleSpec("GUTE", 2, 2), n_samples=200)


@pytest.mark.parametrize("suite", [invariance_test, gaussianity_independence_test,
                                   isotropy_test])
def test_every_suite_refuses_a_short_run_before_its_sampler(suite):
    message = f"^need at least {MIN_SAMPLES} samples, got {MIN_SAMPLES - 1}$"
    with pytest.raises(ValueError, match=message):
        suite(object(), n_samples=MIN_SAMPLES - 1)
    with pytest.raises(TypeError, match="sampler must be"):
        suite(object(), n_samples=MIN_SAMPLES)


@pytest.mark.parametrize("spec,message", [
    (EnsembleSpec("GOTE", 1, 2), "need at least 3 flattened components, got K=2"),
    (EnsembleSpec("GUTE", 2, 2), "isotropy_test expects real-symmetric samples"),
    # a designed law knows its class, p and N before it draws, as an ensemble does
    (uniform_entry_sampler(1, 2), "need at least 3 flattened components, got K=2"),
])
def test_isotropy_refuses_an_ensemble_before_drawing(monkeypatch, spec, message):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(gte.harness, "_draws", no_draws)
    with pytest.raises(ValueError, match=message):
        isotropy_test(spec, n_samples=10**6)


def test_resolve_sampler_type_error():
    with pytest.raises(TypeError):
        invariance_test(object(), n_samples=200)
    # a plain callable is no law: the suites read their streams in blocks
    # and hand no generator to user code
    spec = EnsembleSpec("GOTE", 3, 2)
    for suite, kwargs in ((invariance_test, {}), (isotropy_test, {}),
                          (gaussianity_independence_test, {"reference": spec})):
        with pytest.raises(TypeError, match="EnsembleSpec or a law from uniform_entry_sampler"):
            suite(lambda rng: sample(spec, rng), n_samples=200, **kwargs)


@pytest.mark.parametrize("sampler", [
    uniform_entry_sampler(2, 3), rotated_spike_sampler(3, 2), EnsembleSpec("GUTE", 2, 2)],
    ids=["N", "p", "class"])
def test_gaussianity_refuses_a_law_unlike_its_reference_before_drawing(monkeypatch, sampler):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(gte.harness, "_draws", no_draws)
    with pytest.raises(ValueError, match=r"reference sym at \(2, 2\)"):
        gaussianity_independence_test(sampler, n_samples=200,
                                      reference=EnsembleSpec("GOTE", 2, 2))


def test_subtest_tuple_shape():
    s = Subtest("x", 1.0, 2.0, 0.5, True)
    assert s.name == "x" and s.passed


def test_finish_passes_each_null_at_its_bound():
    tol = 1e-6
    rows = [("z", "z", Z_BOUND, None), (tol, "exact", tol, None),
            ("ks", "ks", 0.3, ALPHA)]
    rep = _finish("edges", rows, MIN_SAMPLES, 0)
    assert [(s.name, s.threshold, s.passed) for s in rep.subtests] == [
        ("z", Z_BOUND, True), ("exact", tol, True), ("ks", ALPHA, True)]
    assert rep.passed
    over = _finish("edges", [("z", "z", np.nextafter(Z_BOUND, 5.0), None),
                             (0.0, "exact", 1e-300, None),
                             ("ks", "ks", 0.3, np.nextafter(ALPHA, 0.0))], MIN_SAMPLES, 0)
    assert [s.passed for s in over.subtests] == [False, False, False]


def test_finish_splits_alpha_over_the_ks_rows_only():
    rows = [("z", f"coord_sq[{k}]", 1.0, None) for k in range(3)]
    rows += [("ks", f"projection[{j}]", 0.1, ALPHA / 10) for j in range(10)]
    rep = _finish("isotropy", rows, MIN_SAMPLES, 0)
    assert [s.threshold for s in rep.subtests] == [Z_BOUND] * 3 + [ALPHA / 10] * 10
    assert rep.passed and rep.p_value == ALPHA / 10


# -- the read order of _draws, pinned against numpy itself -----------------

_HAAR_READS = {"orthogonal": 1, "unitary": 2, "symplectic": 4}
_ACROSS_BLOCK = _STREAM_BLOCK + 3


def test_each_group_record_reads_its_haar_normals():
    assert FLAVORS == tuple(_HAAR_READS)
    assert {f: len(_GROUPS[f].units) for f in FLAVORS} == _HAAR_READS


@pytest.mark.parametrize("sampler,oracle,n,sizes", [
    (EnsembleSpec("GOTE", 3, 2, beta=0.5), None, _ACROSS_BLOCK, [_ACROSS_BLOCK]),
    (EnsembleSpec("GUTE", 4, 2, gamma=2.0), None, _ACROSS_BLOCK, [_ACROSS_BLOCK]),
    (EnsembleSpec("GSTE", 2, 2, beta=0.5), None, _ACROSS_BLOCK, [_ACROSS_BLOCK]),
    # a chunk holds two 2 MiB dense GOTE p=6 N=8 tensors
    (EnsembleSpec("GOTE", 6, 8), None, 5, [2, 2, 1]),
    (uniform_entry_sampler(3, 2), oracle_uniform_entry_sampler(3, 2),
     _ACROSS_BLOCK, [_ACROSS_BLOCK]),
    (uniform_entry_sampler(6, 8), oracle_uniform_entry_sampler(6, 8), 5, [2, 2, 1]),
    (rotated_spike_sampler(4, 2, beta=0.7), oracle_rotated_spike_sampler(4, 2, beta=0.7),
     _ACROSS_BLOCK, [_ACROSS_BLOCK]),
    (rotated_spike_sampler(6, 8), oracle_rotated_spike_sampler(6, 8), 5, [2, 2, 1]),
    (sphere_sampler(3, 3), oracle_sphere_sampler(3, 3), _ACROSS_BLOCK, [_ACROSS_BLOCK]),
    (sphere_sampler(6, 8), oracle_sphere_sampler(6, 8), 5, [2, 2, 1]),
], ids=["GOTE-3-2", "GUTE-4-2", "GSTE-2-2", "GOTE-6-8", "callable-3-2", "callable-6-8",
        "spike-4-2", "spike-6-8", "sphere-3-3", "sphere-6-8"])
@pytest.mark.parametrize("haar", [False, True])
def test_draws_read_each_stream_in_numpys_order(sampler, oracle, n, sizes, haar):
    # draw i reads default_rng(SeedSequence((seed, i))): the tensor first,
    # then with haar the Haar element's (k, N, N) normals, as two reads
    seed = 2**32 + 3
    chunks = list(_draws(sampler, seed, n, haar=haar))
    assert [len(vals) for vals, _ in chunks] == sizes
    draw = oracle or (lambda rng: sample(sampler, rng))
    k = _HAAR_READS[flavor_for_class(sampler.class_tag)]
    i = 0
    for vals, normals in chunks:
        assert (normals is None) != haar
        for b in range(len(vals)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
            t = draw(rng)
            assert np.array_equal(vals[b], t.array)
            if haar:
                assert np.array_equal(normals[b], rng.standard_normal((k, t.N, t.N)))
            i += 1
    assert i == n


_LAW_ORACLES = {
    "uniform": (uniform_entry_sampler, oracle_uniform_entry_sampler),
    "spike": (rotated_spike_sampler, oracle_rotated_spike_sampler),
    "sphere": (sphere_sampler, oracle_sphere_sampler),
}
_LAW_CASES = [("uniform", {}), ("sphere", {})] + [
    ("spike", {"beta": beta, "scale": scale}) for beta in (0.0, 0.7, -1.3) for scale in (1.0, 1e6)]


@pytest.mark.parametrize("p,N", [(1, 3), (2, 2), (2, 5), (3, 2), (3, 4), (4, 3), (6, 8)])
@pytest.mark.parametrize("name,kwargs", _LAW_CASES, ids=[
    name + "".join(f"-{k}={x:g}" for k, x in kwargs.items()) for name, kwargs in _LAW_CASES])
def test_laws_draw_their_oracles_bit_for_bit(p, N, name, kwargs):
    # the block records against the per-draw closures they replaced: canonical
    # values, and the Haar normals read after them, over several chunks at
    # p=6 N=8, beta at odd p too (where the identity tensor is zero)
    make, make_oracle = _LAW_ORACLES[name]
    law, oracle = make(p, N, **kwargs), make_oracle(p, N, **kwargs)
    for seed in (0, 11, 2**32 + 3):
        streams = [np.random.default_rng(np.random.SeedSequence((seed, i))) for i in range(5)]
        want = [oracle(rng).array for rng in streams]
        haar_want = [rng.standard_normal((1, N, N)) for rng in streams]
        for haar in (False, True):
            chunks = list(_draws(law, seed, 5, haar=haar))
            assert np.array_equal(np.concatenate([vals for vals, _ in chunks]), want)
            if haar:
                assert np.array_equal(np.concatenate([h for _, h in chunks]), haar_want)
        # one draw through the record's own call
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        t = law(rng)
        assert isinstance(t, CanonicalTensor) and np.array_equal(t.array, want[0])


def test_gaussianity_refuses_too_many_live_entries_before_drawing(monkeypatch):
    # GSTE p=14 N=1 has 8128 live entries: 33 million correlation pairs
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(gte.harness, "_draws", no_draws)
    with pytest.raises(ValueError, match=r"m = 8128 live entries .*limit of 1024"):
        gaussianity_independence_test(EnsembleSpec("GSTE", 14, 1), n_samples=100, seed=3)


@pytest.mark.parametrize("kind,p,N,live", [("GOTE", 2, 2, 3), ("GSTE", 10, 1, 496)])
def test_gaussianity_size_guard_admits_up_to_the_bound(monkeypatch, kind, p, N, live):
    class Drew(Exception):
        pass

    def drew(*args, **kwargs):
        raise Drew

    monkeypatch.setattr(gte.harness, "_draws", drew)
    spec = EnsembleSpec(kind, p, N)
    for bound in (gte.harness.MAX_LIVE_ENTRIES, live):
        monkeypatch.setattr(gte.harness, "MAX_LIVE_ENTRIES", bound)
        with pytest.raises(Drew):
            gaussianity_independence_test(spec, n_samples=100)
    monkeypatch.setattr(gte.harness, "MAX_LIVE_ENTRIES", live - 1)
    with pytest.raises(ValueError, match=f"m = {live} live entries"):
        gaussianity_independence_test(spec, n_samples=100)
