"""Acceptance suite: the headline guarantees, one verdict line per check.

Each test records one ``acceptance[...]`` verdict line -- printed in a
summary section at the end of the pytest run, and immediately when output
capture is off -- and then asserts it.  One check is a known failure kept
deliberately red: the per-slot sign relation for self-dual tensors at
order 6 -- see that test's docstring for the analysis and the companion
test for the all-slot relation that does hold.
"""

import itertools
import time
from collections import Counter

import numpy as np
import pytest

import conftest
from conftest import direct_sum, random_tensor
from gte.ensembles import EnsembleSpec, sample_batch
from gte.groups import act_dense, flavor_for_class, haar_sample
from gte.harness import (
    derivative_identity_test,
    gaussianity_independence_test,
    invariance_test,
    isotropy_test,
    rotated_spike_sampler,
    uniform_entry_sampler,
)
from gte.invariants import (
    TraceGraph,
    bouquet_graph,
    enumerate_rank2,
    evaluate,
    melon_graph,
    validate,
)
from gte.tensor import (
    canonical_indices,
    class_count,
    densify,
    flatten_isometry,
    frobenius_norm_sq,
)


def _verdict(tag: str, label: str, ok: bool, detail: str = "") -> bool:
    line = f"acceptance[{tag}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    return ok


# the flavor grid shared by the melon and rotation-invariance checks
_FLAVOR_CONFIGS = (
    [("sym", p, N) for p in (1, 2, 3, 4, 5) for N in (1, 2, 3)]
    + [("herm", p, N) for p in (2, 4) for N in (1, 2, 3)]
    + [("selfdual", p, N) for p in (2, 6) for N in (1, 2, 3)]
)


def test_order2_sampler_reduces_to_classical_symmetric_ensemble():
    """At order 2 the real ensemble is the classical symmetric matrix law:
    diagonal variance 2*gamma, off-diagonal variance gamma, mean zero."""
    n, gamma = 10_000, 1.0
    t0 = time.monotonic()
    M = np.array([densify(t) for t in
                  sample_batch(EnsembleSpec("GOTE", 2, 3, gamma=gamma, seed=100), n)])
    worst = 0.0
    for i in range(3):
        for j in range(i, 3):
            v = gamma * (2.0 if i == j else 1.0)
            z_mean = abs(M[:, i, j].mean()) / np.sqrt(v / n)
            z_var = abs(M[:, i, j].var(ddof=1) - v) / (v * np.sqrt(2.0 / (n - 1)))
            worst = max(worst, z_mean, z_var)
    elapsed = time.monotonic() - t0
    ok = worst <= 4.0 and elapsed < 10.0
    assert _verdict("1", "order-2 reduction to the classical symmetric ensemble",
                    ok, f"max |z|={worst:.2f}, {elapsed:.1f}s")


def test_melon_invariant_equals_squared_frobenius_norm():
    """evaluate(melon, t) == ||t||^2 to relative 1e-10, 100 random tensors
    for every flavor configuration, under 60 s total."""
    conv = {"sym": "real", "herm": "hermitian", "selfdual": "selfdual"}
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for class_tag, p, N in _FLAVOR_CONFIGS:
        g = melon_graph(p, conv[class_tag])
        for _ in range(100):
            t = random_tensor(class_tag, p, N, rng)
            fro = frobenius_norm_sq(t)
            rel = abs(evaluate(g, t) - fro) / fro
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    assert _verdict("2", "melon invariant equals the squared Frobenius norm",
                    ok, f"max rel err={worst:.1e}, {elapsed:.1f}s")


def test_trace_invariants_exactly_invariant_under_haar_rotations():
    """Every enumerated one- and two-vertex invariant is pointwise fixed by
    the dense group action: 50 (tensor, Haar element) pairs per flavor
    configuration, |value(U.t) - value(t)| <= 1e-8|value(t)| + 1e-10."""
    conv = {"sym": "real", "herm": "hermitian", "selfdual": "selfdual"}
    rng = np.random.default_rng(77)
    worst = 0.0
    for class_tag, p, N in _FLAVOR_CONFIGS:
        flavor = "real" if class_tag == "sym" else "parity"
        graphs = [melon_graph(p, conv[class_tag])]
        if p % 2 == 0:
            graphs.append(bouquet_graph(p, flavor))
        if p > 1:
            graphs.extend(enumerate_rank2(p, flavor))
        for _ in range(50):
            t = random_tensor(class_tag, p, N, rng)
            g = haar_sample(flavor_for_class(class_tag), N, rng)
            d0, d1 = densify(t), act_dense(g, t)
            for gph in graphs:
                v0, v1 = complex(evaluate(gph, d0)), complex(evaluate(gph, d1))
                dev = abs(v1 - v0) - 1e-8 * abs(v0)
                worst = max(worst, dev)
    ok = worst <= 1e-10
    assert _verdict("3", "trace invariants exactly invariant under rotation",
                    ok, f"max excess dev={worst:.1e}")


def test_rotation_derivative_matches_finite_difference():
    """Analytic derivative of the one-parameter rotation action vs the
    central difference at h=1e-5, max-abs error <= 1e-6, 100 tensors."""
    rep = derivative_identity_test(n_trials=100, seed=300)
    assert _verdict("4", "rotation derivative matches finite difference",
                    rep.passed, f"max err={rep.statistic:.1e}")


def test_sampler_energy_matches_closed_form():
    """E||H||^2 = gamma * p * C(N+p-1, p); at p=3, N=2, gamma=1 the value
    is 12, checked within 3 empirical standard errors at 10^4 samples."""
    n = 10_000
    spec = EnsembleSpec("GOTE", 3, 2, gamma=1.0, seed=500)
    e = np.array([frobenius_norm_sq(t) for t in sample_batch(spec, n)])
    want = 1.0 * 3 * class_count(3, 2)
    z = abs(e.mean() - want) / (e.std(ddof=1) / np.sqrt(n))
    ok = want == 12.0 and z <= 3.0
    assert _verdict("5", "sampler energy matches the closed form", ok,
                    f"mean={e.mean():.3f}, target 12, |z|={z:.2f}")


def test_planned_contraction_equals_brute_force():
    """Planned evaluation equals explicit direct summation (relative 1e-10)
    on every enumerated graph with at most 8 edges at N <= 3, plus the
    three-vertex order-4 chain."""
    graphs = []
    for p in range(1, 9):
        graphs.append(melon_graph(p, "real"))
        if p % 2 == 0:
            graphs.append(bouquet_graph(p, "real"))
            graphs.append(melon_graph(p, "hermitian"))
            graphs.append(bouquet_graph(p, "parity"))
        graphs.extend(enumerate_rank2(p, "real"))
        if p % 2 == 0:
            graphs.extend(enumerate_rank2(p, "parity"))
    chain = TraceGraph(4, 3, "real", (
        ((0, 1), (1, 4)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
        ((0, 4), (2, 1)), ((1, 1), (2, 2)), ((2, 3), (2, 4))))
    assert validate(chain) == []
    graphs = [g for g in graphs if len(g.edges) <= 8] + [chain]

    rng = np.random.default_rng(600)
    worst = 0.0
    checked = 0
    for g in graphs:
        class_tag = "sym" if g.flavor == "real" else "herm"
        for N in (2, 3):
            t = random_tensor(class_tag, g.p, N, rng)
            fast, slow = complex(evaluate(g, t)), complex(direct_sum(g, t))
            worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-12))
            checked += 1
    ok = worst <= 1e-10
    assert _verdict("6", "planned contraction equals brute-force summation",
                    ok, f"{checked} graph evals, max rel dev={worst:.1e}")


@pytest.mark.slow
def test_distribution_checks_accept_ensembles_and_reject_counterexamples():
    """Invariance and gaussianity/independence suites accept all three
    ensembles and reject the designed counterexamples (uniform-entry product
    law fails invariance; unit-spike law fails independence): 10 seeds,
    5000 samples each, level 0.01, zero flakes."""
    flakes = []
    for s in range(10):
        runs = [
            ("invariance GOTE(3,2)", True, invariance_test(
                EnsembleSpec("GOTE", 3, 2, seed=s), n_samples=5000, seed=s)),
            ("invariance GUTE(2,3)", True, invariance_test(
                EnsembleSpec("GUTE", 2, 3, seed=s), n_samples=5000, seed=s)),
            ("invariance GSTE(2,2)", True, invariance_test(
                EnsembleSpec("GSTE", 2, 2, seed=s), n_samples=5000, seed=s)),
            ("invariance uniform-entry", False, invariance_test(
                uniform_entry_sampler(3, 2), n_samples=5000, seed=s)),
            ("gaussianity GOTE(3,2)", True, gaussianity_independence_test(
                EnsembleSpec("GOTE", 3, 2, seed=s), n_samples=5000, seed=s)),
            ("gaussianity GUTE(4,2)", True, gaussianity_independence_test(
                EnsembleSpec("GUTE", 4, 2, seed=s), n_samples=5000, seed=s)),
            ("gaussianity GSTE(2,2)", True, gaussianity_independence_test(
                EnsembleSpec("GSTE", 2, 2, seed=s), n_samples=5000, seed=s)),
            ("independence unit-spike", False, gaussianity_independence_test(
                rotated_spike_sampler(2, 2), n_samples=5000, seed=s,
                reference=EnsembleSpec("GOTE", 2, 2))),
        ]
        flakes += [f"seed {s}: {name}" for name, want, rep in runs
                   if rep.passed is not want]
    ok = not flakes
    assert _verdict("7", "distribution checks accept ensembles, reject "
                    "counterexamples", ok,
                    "80 runs, 0 flakes" if ok else "; ".join(flakes))


@pytest.mark.slow
def test_normalized_samples_uniform_on_sphere():
    """Centered ensembles pass the sphere-uniformity check at (p,N) in
    {(2,2),(2,3),(3,2)}; the identity-shifted law at p=2 fails it: 10 seeds,
    zero flakes."""
    flakes = []
    for s in range(10):
        for p, N in [(2, 2), (2, 3), (3, 2)]:
            rep = isotropy_test(EnsembleSpec("GOTE", p, N, seed=s),
                                n_samples=5000, seed=s)
            if not rep.passed:
                flakes.append(f"seed {s}: ({p},{N}) flagged")
        rep = isotropy_test(EnsembleSpec("GOTE", 2, 2, beta=1.0, seed=s),
                            n_samples=5000, seed=s)
        if rep.passed:
            flakes.append(f"seed {s}: shifted law not flagged")
    ok = not flakes
    assert _verdict("8", "normalized samples uniform on the sphere", ok,
                    "40 runs, 0 flakes" if ok else "; ".join(flakes))


def test_antisymmetric_entries_vanish_on_paired_classes():
    """For even order, every index class whose counts are all even contains
    a repeat, so antisymmetric entries there are exactly zero."""
    rng = np.random.default_rng(900)
    worst = 0.0
    for p, N in [(2, 2), (2, 3), (4, 4), (4, 5)]:
        t = random_tensor("antisym", p, N, rng)
        for m in canonical_indices(p, N):
            if all(c % 2 == 0 for c in Counter(m).values()):
                worst = max(worst, abs(t.entry(m)))
    ok = worst == 0.0
    assert _verdict("9a", "antisymmetric entries vanish on paired classes",
                    ok, f"max |entry|={worst:.1e}")


def _slot_flip_dev(d: np.ndarray, p: int, slots) -> float:
    """Max deviation of d[i] - sign * conj(d[i with spinor bits flipped on
    the given slots]), sign = -1 per flipped slot with unequal spinor bits."""
    worst = 0.0
    for idx in itertools.product(range(d.shape[0]), repeat=p):
        flipped = list(idx)
        sign = 1.0
        for s in slots:
            a, b = 2 * s, 2 * s + 1
            if idx[a] % 2 != idx[b] % 2:
                sign = -sign
            flipped[a] ^= 1
            flipped[b] ^= 1
        worst = max(worst, abs(d[idx] - sign * np.conj(d[tuple(flipped)])))
    return worst


def test_selfdual_per_slot_sign_relations():
    """KNOWN RED.  The per-slot relation q_i = +/- conj(q_(slot s flipped))
    (sign + when the slot's two spinor bits agree, - otherwise) holds at
    order 2 -- it is the classical self-dual matrix condition -- but it is
    not a symmetry of the order-6 class: a tensor whose only nonzero
    components are the scalar one and a doubly-antisymmetric one satisfies
    every class constraint yet violates the relation by O(1) (the relation
    would force that component to zero).  Only the all-slot composite
    relation survives (next test).  Kept failing rather than weakened."""
    rng = np.random.default_rng(901)
    worst = {}
    for p, N in [(2, 1), (2, 2), (6, 1), (6, 2)]:
        dev = 0.0
        for _ in range(3):
            d = densify(random_tensor("selfdual", p, N, rng))
            scale = max(1.0, np.abs(d).max())
            for s in range(p // 2):
                dev = max(dev, _slot_flip_dev(d, p, [s]) / scale)
        worst[(p, N)] = dev
    ok = all(v <= 1e-10 for v in worst.values())
    detail = ", ".join(f"p={p},N={N}: {v:.1e}" for (p, N), v in worst.items())
    assert _verdict("9b", "self-dual per-slot sign relations", ok, detail)


def test_selfdual_all_slot_sign_relation():
    """Flipping the spinor bits of *every* slot at once, with one factor of
    -1 per slot whose two bits disagree, conjugates the entry exactly; this
    is the composite symmetry the order-6 class actually has."""
    rng = np.random.default_rng(902)
    worst = 0.0
    for p, N in [(2, 1), (2, 2), (6, 1), (6, 2)]:
        for _ in range(3):
            d = densify(random_tensor("selfdual", p, N, rng))
            scale = max(1.0, np.abs(d).max())
            worst = max(worst, _slot_flip_dev(d, p, range(p // 2)) / scale)
    ok = worst <= 1e-10
    assert _verdict("9c", "self-dual all-slot sign relation", ok,
                    f"max dev={worst:.1e}")


def test_flatten_isometry_preserves_norm():
    rng = np.random.default_rng(903)
    worst = 0.0
    for p in (1, 2, 3, 4):
        for N in (1, 2, 3):
            t = random_tensor("sym", p, N, rng)
            fro = frobenius_norm_sq(t)
            worst = max(worst, abs(np.sum(flatten_isometry(t) ** 2) - fro) / fro)
    ok = worst <= 1e-12
    assert _verdict("9d", "isometric flattening preserves the norm", ok,
                    f"max rel dev={worst:.1e}")
