"""Statistical verification harness.

Four sample-level checks of what the ensembles are supposed to look like:

* ``invariance_test`` -- the law is unchanged by a Haar group element,
* ``gaussianity_independence_test`` -- canonical entries are independent
  Gaussians with the advertised means and variances,
* ``derivative_identity_test`` -- the analytic rotation derivative matches a
  finite difference of the one-parameter action,
* ``isotropy_test`` -- the flattened, normalized real-symmetric sample is
  uniform on the unit sphere.

Every test consumes randomness through a deterministic per-sample seed
partition (seed, sample index), so reports are bit-reproducible.  A suite
hands its statistics to ``_finish``, the one place they become verdicts, each
with its null: a z statistic passes at most ``Z_BOUND`` (4 standard errors), a
Kolmogorov-Smirnov p-value passes at least ``ALPHA`` over the number of KS
subtests in the report (Bonferroni), and an exact deviation passes at most its
stated tolerance.

Note on power: trace invariants are *pointwise* fixed by the matching group
action, so comparing their before/after distributions can never reject.  The
invariance test therefore also compares the distributions of the dense tensor
coordinates themselves, which do move under the action; that is what gives
the test power against non-invariant laws (e.g. i.i.d. uniform entries),
while the melon subtest doubles as an exact-invariance sanity check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .ensembles import (EnsembleSpec, _Law, _moments, _normal_block, _spec_law, _stream,
                        _streams)
from .groups import (givens_rotation, _act_stack, _check_members, _haar_matrices, _haar_shape,
                     _theta_derivative_stack)
from .invariants import melon_graph, _evaluate_stack
from .tensor import (canonicalize, class_count, identity_tensor, _canonical_flat, _canonical_rows,
                     _class_info, _densify_stack, _CLASS_RTOL)

__all__ = [
    "ALPHA",
    "MIN_SAMPLES",
    "Subtest",
    "VerificationReport",
    "derivative_identity_test",
    "gaussianity_independence_test",
    "invariance_test",
    "isotropy_test",
    "report_to_dict",
    "rotated_spike_sampler",
    "sphere_sampler",
    "uniform_entry_sampler",
]

ALPHA = 0.01
MIN_SAMPLES = 100
Z_BOUND = 4.0
MAX_COORDS = 64
#: gaussianity refuses more live (nonzero-variance) canonical entries than
#: this, before any draw: its pairwise correlation family has m(m - 1)/2
#: subtests, 523 776 at the bound
MAX_LIVE_ENTRIES = 1024
#: bytes of dense tensors one chunk of the stacked pipeline holds
_CHUNK_BYTES = 1 << 22
#: paired values closer than this, relative to their size, count as equal
_PAIR_RTOL = 1e-9


@dataclass(frozen=True)
class Subtest:
    name: str
    statistic: float
    threshold: float
    p_value: float | None
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification suite.

    The headline ``statistic``/``p_value`` summarize the worst subtest; the
    verdict is the conjunction of all subtest verdicts.
    """

    test: str
    statistic: float
    threshold: float
    p_value: float | None
    passed: bool
    n_samples: int
    seed: int
    subtests: tuple[Subtest, ...]


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "test": report.test,
        "statistic": float(report.statistic),
        "threshold": float(report.threshold),
        "p_value": None if report.p_value is None else float(report.p_value),
        "passed": bool(report.passed),
        "n_samples": int(report.n_samples),
        "seed": int(report.seed),
        "subtests": [
            {"name": s.name, "statistic": float(s.statistic),
             "threshold": float(s.threshold),
             "p_value": None if s.p_value is None else float(s.p_value),
             "passed": bool(s.passed)}
            for s in report.subtests
        ],
    }


# index offsets for auxiliary streams, far above any sample count
_AUX = 1 << 40


def _law(sampler, n_samples: int | None = None) -> _Law:
    """The law a suite draws from: an ``EnsembleSpec``'s, or the law itself.
    A suite passes its ``n_samples``, refused first when below MIN_SAMPLES."""
    if n_samples is not None and n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    if isinstance(sampler, _Law):
        return sampler
    if not isinstance(sampler, EnsembleSpec):
        raise TypeError("sampler must be an EnsembleSpec or a law from uniform_entry_sampler, "
                        f"rotated_spike_sampler or sphere_sampler, got {type(sampler)!r}")
    return _spec_law(sampler)


def _draws(sampler, seed: int, n_samples: int, flavor: str | None = None, haar: bool = False):
    """Read stream i of ``_streams(seed, 0, n_samples)`` for each sample,
    once, into row i of a ``_normal_block``: first the law's ``width``
    values, then with ``haar`` one Haar element's normals (``flavor``
    defaults to the class's group).  Yield ``(values, normals)`` in chunks
    of ``_CHUNK_BYTES`` of dense tensors: (B, C, K) canonical values and
    (B, k, N, N) Haar normals, or None.
    """
    law = _law(sampler)
    info = _class_info(law.class_tag)
    haar_shape = _haar_shape(flavor or info.group, law.N) if haar else (0,)
    width = law.width + int(np.prod(haar_shape))
    # as many dense tensors of the law per chunk as fit in _CHUNK_BYTES, at least one
    dense_bytes = (info.dim_factor * law.N) ** law.p * (8 if info.units is None else 16)
    rngs, size = _streams(seed, 0, n_samples), max(1, _CHUNK_BYTES // dense_bytes)
    for start in range(0, n_samples, size):
        block = _normal_block(rngs, min(size, n_samples - start), width, law.width * law.uniform)
        normals = block[:, law.width:].reshape((-1,) + haar_shape) if haar else None
        yield law.values(block[:, :law.width]), normals


def _ks_2samp(a: np.ndarray, b: np.ndarray):
    from scipy import stats     # on first use: only the KS suites load scipy
    return stats.ks_2samp(a, b, method="asymp")


def _finish(name, rows, n_samples, seed):
    """The report of a suite from its ``(null, name, statistic, p_value)``
    rows, in report order.  The null sets each row's bound: ``"z"`` passes a
    statistic at most ``Z_BOUND``; ``"ks"`` passes a p-value at least
    ``ALPHA`` over the number of KS rows; a number passes an exact deviation
    at most that number."""
    n_ks = sum(null == "ks" for null, *_ in rows)
    subtests = []
    for null, sub, stat, p in rows:
        stat, p = float(stat), None if p is None else float(p)
        if null == "ks":
            bound = ALPHA / n_ks
            passed = p >= bound
        else:
            bound = Z_BOUND if null == "z" else float(null)
            passed = stat <= bound
        subtests.append(Subtest(sub, stat, bound, p, passed))
    # headline = the worst subtest (failing ones first, then largest statistic)
    worst = max(subtests, key=lambda s: (not s.passed, s.statistic),
                default=None)
    pvals = [s.p_value for s in subtests if s.p_value is not None]
    return VerificationReport(
        test=name,
        statistic=worst.statistic if worst else 0.0,
        threshold=worst.threshold if worst else 0.0,
        p_value=min(pvals) if pvals else None,
        passed=all(s.passed for s in subtests),
        n_samples=n_samples,
        seed=seed,
        subtests=tuple(subtests),
    )


def _coord_matrix(dense: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The tested real columns of a dense stack (capped, deterministic): its
    raveled entries, then their imaginary parts for a complex stack."""
    flat = dense.reshape(len(dense), -1)
    size = flat.shape[1]
    if np.iscomplexobj(flat):
        flat = np.concatenate([flat.real, flat.imag], axis=1)
    keep = np.arange(flat.shape[1])
    if len(keep) > MAX_COORDS:
        keep = np.unique(np.linspace(0, len(keep) - 1, MAX_COORDS).astype(int))
    return flat[:, keep], [f"coord[{j % size}]" + (".im" if j >= size else "") for j in keep]


def invariance_test(sampler, flavor: str | None = None,
                    n_samples: int = 5000, seed: int = 0) -> VerificationReport:
    """Two-sample comparison of {t} against {U.t}, one Haar U per draw.

    Subtests: a KS test of the class's melon invariant (exact invariance
    makes this an identical-sample comparison) and a KS test per dense
    coordinate, which carries the actual power.  Pass iff every p-value
    clears alpha/(number of subtests).
    """
    law = _law(sampler, n_samples)
    info, p = _class_info(law.class_tag), law.p
    flavor, melon = flavor or info.group, melon_graph(p, info.melon)
    paired: dict[str, list] = {}    # subtest -> chunks of (before, after, scale)
    for vals, normals in _draws(law, seed, n_samples, flavor, True):
        d0 = _densify_stack(info, p, law.N, vals)
        mats = _haar_matrices(flavor, normals)
        _check_members(flavor, mats)
        d1 = _act_stack(flavor, mats, d0, p)
        v0, v1 = _evaluate_stack(melon, d0), _evaluate_stack(melon, d1)
        scale = np.maximum(np.abs(v0), np.abs(v1))
        if np.iscomplexobj(v0) or np.iscomplexobj(v1):
            paired.setdefault("invariant[0].re", []).append((v0.real, v1.real, scale))
            paired.setdefault("invariant[0].im", []).append((v0.imag, v1.imag, scale))
        else:
            paired.setdefault("invariant[0]", []).append((v0, v1, scale))
        (X0, tags), (X1, _) = _coord_matrix(d0), _coord_matrix(d1)
        norms = np.linalg.norm(d0.reshape(len(d0), -1), axis=1)
        for j, name in enumerate(tags):
            paired.setdefault(name, []).append((X0[:, j], X1[:, j], norms))
        del d0, d1, mats    # before the next chunk is densified

    rows = []
    for name, chunks in paired.items():
        a, b, scale = (np.concatenate(part) for part in zip(*chunks))
        # The samples are index-paired (same tensor before/after rotation), so
        # pointwise agreement at numerical precision, relative to the size of
        # what is compared, means the distributions are identical; skipping KS
        # there keeps rounding dust from turning a degenerate-but-invariant
        # law into a rejection.
        if np.all(np.abs(a - b) <= _PAIR_RTOL * scale):
            rows.append(("ks", name, 0.0, 1.0))
        else:
            res = _ks_2samp(a, b)
            rows.append(("ks", name, res.statistic, res.pvalue))
    return _finish("invariance", rows, n_samples, seed)


def gaussianity_independence_test(sampler, n_samples: int = 5000, seed: int = 0,
                                  *, reference: EnsembleSpec | None = None
                                  ) -> VerificationReport:
    """Moments 1-4 of every canonical entry against the Gaussian values the
    ensemble prescribes, plus pairwise correlations against 0.

    All bands are 4 standard errors under the null; the null standard errors
    use the theoretical variance, so a degenerate sampler fails cleanly.  A
    designed law needs ``reference=``, an ensemble of its class, p and N, to
    supply the theory.
    """
    law = _law(sampler, n_samples)
    if reference is None and isinstance(sampler, EnsembleSpec):
        reference = sampler
    if reference is None:
        raise ValueError("a designed law needs reference= for theoretical moments")
    if (law.class_tag, law.p, law.N) != (reference.class_tag, reference.p, reference.N):
        raise ValueError(f"sampler draws {law.class_tag} tensors at (p, N) = ({law.p}, "
                         f"{law.N}), reference {reference.class_tag} at ({reference.p}, "
                         f"{reference.N})")
    mu, var = (a.ravel() for a in _moments(reference))
    m = int(np.count_nonzero(var))
    if m > MAX_LIVE_ENTRIES:
        raise ValueError(f"gaussianity would test m = {m} live entries ({m * (m - 1) // 2} "
                         f"correlation pairs), above the limit of {MAX_LIVE_ENTRIES}")

    X = np.concatenate([vals.reshape(len(vals), -1) for vals, _ in _draws(law, seed, n_samples)])
    n = n_samples
    rows = []
    live = []   # (j, centered column, sample std) of each live entry
    for j in range(mu.size):
        name = f"entry[{j}]"
        if var[j] == 0.0:
            dev = float(np.max(np.abs(X[:, j] - mu[j])))
            rows.append((0.0, f"{name}.const", dev, None))
            continue
        sd = np.sqrt(var[j])
        centered = X[:, j] - np.mean(X[:, j])
        live.append((j, centered, np.std(X[:, j])))
        checks = [
            ("mean", abs(np.mean(X[:, j]) - mu[j]) / (sd / np.sqrt(n))),
            ("var", abs(np.var(X[:, j], ddof=1) - var[j])
             / (var[j] * np.sqrt(2.0 / (n - 1)))),
            ("skew", abs(np.mean(centered ** 3)) / np.sqrt(6.0 * sd ** 6 / n)),
            ("kurt", abs(np.mean(centered ** 4) - 3.0 * var[j] ** 2)
             / np.sqrt(96.0 * sd ** 8 / n)),
        ]
        rows += [("z", f"{name}.{tag}", z, None) for tag, z in checks]
    for a, (ja, xa_c, sa) in enumerate(live):
        for jb, xb_c, sb in live[a + 1:]:
            if sa == 0.0 or sb == 0.0:
                continue  # the variance subtest already failed for that entry
            r = float(np.mean(xa_c * xb_c) / (sa * sb))
            rows.append(("z", f"corr[{ja},{jb}]", abs(r) * np.sqrt(n), None))
    return _finish("gaussianity-independence", rows, n_samples, seed)


def derivative_identity_test(n_trials: int = 100, seed: int = 0) -> VerificationReport:
    """Analytic rotation derivative vs the central finite difference of the
    one-parameter action at theta = 0, step h = 1e-5, on random symmetric
    tensors with p <= 4, N <= 3; each (p, N) passes when its largest error
    is at most 1e-6.  Trial i draws configuration i % 8 from stream i, and
    each chunk of trials runs as one stack per configuration."""
    h, tol = 1e-5, 1e-6
    configs = [(p, N) for p in (1, 2, 3, 4) for N in (2, 3)]
    n_trials = operator.index(n_trials)
    if n_trials < len(configs):
        raise ValueError(f"need at least {len(configs)} trials, one per (p, N) "
                         f"configuration, got {n_trials}")
    info, worst = _class_info("sym"), {c: 0.0 for c in configs}
    steps = {(p, N): [givens_rotation(s, N, "orthogonal").matrix for s in (h, -h)]
             for p, N in configs}
    # as many trials per chunk as dense tensors of the largest configuration fit
    size = max(1, _CHUNK_BYTES // (8 * max(N ** p for p, N in configs)))
    rngs, period = _streams(seed, 0, n_trials), len(configs)
    for start in range(0, n_trials, size):
        stop = min(start + size, n_trials)
        # trial i reads its normals into row (i - start) // 8 of its configuration's block
        blocks = [np.empty((len(range(start + (k - start) % period, stop, period)), 1,
                            class_count(p, N))) for k, (p, N) in enumerate(configs)]
        for i in range(start, stop):
            next(rngs).standard_normal(out=blocks[i % period][(i - start) // period, 0])
        for (p, N), vals in zip(configs, blocks):
            if not len(vals):
                continue
            if not np.isfinite(vals).all():
                raise ValueError("sym values must be finite")
            dense = _densify_stack(info, p, N, vals)
            deriv = _theta_derivative_stack(dense).reshape(len(dense), -1)
            analytic = _densify_stack(info, p, N, deriv[:, None, _canonical_flat(p, N)])
            # canonicalize's class check, per tensor (the bound is finite iff the
            # tensor is); canonicalize raises the error of a tensor that fails it
            bound = _CLASS_RTOL * np.max(np.abs(deriv), axis=1)
            dev = np.max(np.abs(deriv - analytic.reshape(deriv.shape)), axis=1)
            ok = np.isfinite(bound) & (dev <= bound)
            if not ok.all():
                canonicalize(deriv[np.argmin(ok)].reshape(dense.shape[1:]), "sym")
            up, dn = (_act_stack("orthogonal", np.broadcast_to(mat, (len(dense), N, N)), dense, p)
                      for mat in steps[(p, N)])
            up -= dn
            up /= 2.0 * h
            worst[(p, N)] = max(worst[(p, N)], float(np.max(np.abs(analytic - up))))
    rows = [(tol, f"p={p},N={N}", e, None) for (p, N), e in worst.items()]
    return _finish("derivative-identity", rows, n_trials, seed)


def isotropy_test(sampler, n_samples: int = 5000, seed: int = 0) -> VerificationReport:
    """Uniformity on the unit sphere of the flattened, normalized samples.

    Subtests: each squared coordinate has mean 1/K (4 standard errors, using
    the exact sphere variance of u_k^2), and projections onto 10 fixed random
    directions agree with the same projections of a directly sampled uniform
    sphere cloud (KS at alpha/10).  A law that is not real-symmetric or has
    K < 3 is refused before it is drawn.
    """
    law = _law(sampler, n_samples)
    if law.class_tag != "sym":
        raise ValueError("isotropy_test expects real-symmetric samples")
    K = class_count(law.p, law.N)
    if K < 3:
        raise ValueError(f"need at least 3 flattened components, got K={K}")
    w = _class_info("sym").coordinates(law.p, law.N)[1]
    X = np.sqrt(w) * np.concatenate([vals[:, 0] for vals, _ in _draws(law, seed, n_samples)])
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero sample")
    U = X / norms[:, None]

    var_coord = 3.0 / (K * (K + 2)) - 1.0 / K ** 2
    se = np.sqrt(var_coord / n_samples)
    rows = [("z", f"coord_sq[{k}]", abs(np.mean(U[:, k] ** 2) - 1.0 / K) / se, None)
            for k in range(K)]

    rng_dir = _stream(seed, _AUX)
    rng_sph = _stream(seed, _AUX + 1)
    V = rng_sph.standard_normal((n_samples, K))
    V /= np.linalg.norm(V, axis=1)[:, None]
    for j in range(10):
        w = rng_dir.standard_normal(K)
        w /= np.linalg.norm(w)
        res = _ks_2samp(U @ w, V @ w)
        rows.append(("ks", f"projection[{j}]", res.statistic, res.pvalue))
    return _finish("isotropy", rows, n_samples, seed)


# -- designed counterexample and oracle samplers ---------------------------


def uniform_entry_sampler(p: int, N: int) -> _Law:
    """i.i.d. uniform[0,1) canonical entries: a product law that is *not*
    orthogonally invariant."""
    return _Law("sym", p, N, class_count(p, N), lambda u: u[:, None], uniform=True)


def rotated_spike_sampler(p: int, N: int, beta: float = 0.0, scale: float = 1.0) -> _Law:
    """beta*identity + scale * v^(tensor p) with v uniform on the sphere.

    The law is orthogonally invariant for p <= 2 (and for beta = 0, any p)
    but its entries are strongly dependent -- the designed counterexample for
    the independence test.
    """

    def values(z: np.ndarray) -> np.ndarray:
        # v as np.linalg.norm normalizes one vector; canonical value k is the
        # dense outer product's entry at canonical tuple k, multiplied in the
        # same order: scale * v[i1] * ... * v[ip]
        v, rows = z / np.sqrt(np.vecdot(z, z))[:, None], _canonical_rows(p, N)
        vals = scale * v[:, rows[:, 0]]
        for t in range(1, p):
            vals *= v[:, rows[:, t]]
        if beta:
            vals += beta * identity_tensor(p, N).values
        return vals[:, None]

    return _Law("sym", p, N, N, values)


def sphere_sampler(p: int, N: int) -> _Law:
    """Uniform on the flattened unit sphere, pushed back through the inverse
    isometry -- passes isotropy by construction."""

    def values(z: np.ndarray) -> np.ndarray:
        u = z / np.sqrt(np.vecdot(z, z))[:, None]
        return (u / np.sqrt(_class_info("sym").coordinates(p, N)[1]))[:, None]

    return _Law("sym", p, N, class_count(p, N), values)
