"""Per-layer metrics of the gte benchmark (the ``--trace 1`` run).

``TARGETS`` lists the library functions the tracer wraps, one span name per
layer function, named ``<module>.<function>``.  The counts marked
``computed`` are derived from array sizes, not measured:

* ``act_dense`` does p contractions of a dim^p array with a dim x dim
  matrix: p * dim^(p+1) multiply-adds, and each contraction reads and writes
  one dim^p array of the result's dtype;
* ``densify`` writes its output array once.

Besides the spans, the traced run measures in fresh interpreters the
interpreter start, ``import gte.cli`` and the ``-X importtime`` split of
``import gte`` into scipy and the rest, and it times each layer at the
five rows of the ROADMAP re-anchor table.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import gte
import gte.harness

from spans import Tracer


def _densify_hook(counters, args, kwargs, out):
    counters["bytes_computed"] = counters.get("bytes_computed", 0) + out.nbytes


def _act_dense_hook(counters, args, kwargs, out):
    p, dim = out.ndim, (out.shape[0] if out.ndim else 1)
    counters["madds_computed"] = counters.get("madds_computed", 0) + p * dim ** (p + 1)
    counters["bytes_computed"] = counters.get("bytes_computed", 0) + 2 * p * out.nbytes


def _report_hook(counters, args, kwargs, report):
    counters["subtests"] = counters.get("subtests", 0) + len(report.subtests)
    counters["subtests_failed"] = (counters.get("subtests_failed", 0)
                                   + sum(not s.passed for s in report.subtests))


def _dumps_hook(counters, args, kwargs, out):
    counters["bytes"] = counters.get("bytes", 0) + len(out)


def _loads_hook(counters, args, kwargs, out):
    counters["bytes"] = counters.get("bytes", 0) + len(args[0])


TARGETS = [
    ("gte.tensor", "densify", "tensor.densify", _densify_hook),
    ("gte.tensor", "canonicalize", "tensor.canonicalize", None),
    ("gte.ensembles", "sample", "ensembles.sample", None),
    ("gte.groups", "haar_sample", "groups.haar_sample", None),
    ("gte.groups", "act_dense", "groups.act_dense", _act_dense_hook),
    ("gte.groups", "act", "groups.act", None),
    ("gte.invariants", "evaluate", "invariants.evaluate", None),
    ("gte.harness", "_stream", "harness.stream", None),
    ("scipy.stats", "ks_2samp", "harness.ks_2samp", None),
    ("gte.serialize", "dumps_tensor", "serialize.dumps_tensor", _dumps_hook),
    ("gte.serialize", "loads_tensor", "serialize.loads_tensor", _loads_hook),
    ("gte.cli", "run", "cli.run", None),
] + [("gte.harness", suite, "harness.suite", _report_hook)
     for suite in ("invariance_test", "gaussianity_independence_test",
                   "isotropy_test", "derivative_identity_test")]


def span_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer values from the spans of ``passes`` traced passes, by metric
    name.  Counts and seconds are per pass; ratios are over all passes."""
    out = {}

    def put(span, prefix, *stats):
        s = tracer.span(span)
        calls = s["calls"]
        for stat in stats:
            if stat == "calls":
                out[f"{prefix}.calls"] = calls / passes
            elif stat == "self_s":
                out[f"{prefix}.self_s"] = s["self"] / passes
            elif stat == "us_per_call":
                out[f"{prefix}.us_per_call"] = 1e6 * s["self"] / calls if calls else 0.0
            else:
                out[f"{prefix}.{stat}"] = s["counters"].get(stat, 0) / passes

    put("tensor.densify", "tensor.densify", "calls", "self_s", "us_per_call", "bytes_computed")
    put("tensor.canonicalize", "tensor.canonicalize", "calls", "self_s", "us_per_call")
    out["tensor.cache_hit_ratio"] = tracer.hit_ratio("tensor.cache")
    put("ensembles.sample", "ensembles.sample", "calls", "self_s", "us_per_call")
    put("groups.haar_sample", "groups.haar_sample", "calls", "self_s", "us_per_call")
    put("groups.act_dense", "groups.act_dense", "calls", "self_s", "us_per_call",
        "madds_computed", "bytes_computed")
    put("groups.act", "groups.act", "calls", "self_s")
    out["groups.act.class_violations"] = tracer.span("groups.act")["errors"].get(
        "ClassViolationError", 0) / passes
    put("invariants.evaluate", "invariants.evaluate", "calls", "self_s", "us_per_call")
    out["invariants.plan_cache_hit_ratio"] = tracer.hit_ratio("invariants.plan_cache")
    put("harness.stream", "harness.stream", "calls", "self_s", "us_per_call")
    put("harness.ks_2samp", "harness.ks_2samp", "calls", "self_s")
    put("harness.suite", "harness", "self_s", "subtests", "subtests_failed")
    put("serialize.dumps_tensor", "serialize.dumps_tensor", "calls", "self_s", "us_per_call")
    put("serialize.loads_tensor", "serialize.loads_tensor", "calls", "self_s", "us_per_call")
    out["serialize.bytes"] = sum(tracer.span(f"serialize.{fn}")["counters"].get("bytes", 0)
                                 for fn in ("dumps_tensor", "loads_tensor")) / passes
    out["cli.self_s"] = tracer.span("cli.run")["self"] / passes
    return out


# -- import cost of the CLI -------------------------------------------------

_TIMED_IMPORT = ("import time; t = time.perf_counter(); import gte.cli; "
                 "print(time.perf_counter() - t)")


def _child(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=True)


def _importtime_split(stderr: str) -> tuple[float, float]:
    """(scipy, rest) seconds of the ``gte`` imports in ``-X importtime`` output.

    Lines are printed child-first; a line's parent is the next line one
    level shallower.  A scipy module counts once, at its outermost entry.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue                      # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))
    gte_us = scipy_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, cum, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if depth == 0 and (name == "gte" or name.startswith("gte.")):
            gte_us += cum
        if is_scipy and not any(a[1] == "scipy" or a[1].startswith("scipy.")
                                for a in ancestors):
            scipy_us += cum
        ancestors.append((depth, name))
    return scipy_us / 1e6, (gte_us - scipy_us) / 1e6


def import_metrics(repeats: int = 3) -> dict:
    interp, imp = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        _child(["-c", "pass"])
        interp.append(perf_counter() - t0)
        imp.append(float(_child(["-c", _TIMED_IMPORT]).stdout))
    scipy_s, rest_s = _importtime_split(
        _child(["-X", "importtime", "-c", "import gte"]).stderr)
    return {"cli.import_s": statistics.median(imp),
            "cli.import.scipy_stats_s": scipy_s,
            "cli.import.rest_s": rest_s,
            "cli.interpreter_s": statistics.median(interp)}


# -- the ROADMAP re-anchor table ---------------------------------------------

REANCHOR_ROWS = (("GOTE", 3, 2), ("GOTE", 4, 4), ("GUTE", 4, 2),
                 ("GSTE", 2, 2), ("GSTE", 6, 2))
_CONVENTION = {"sym": "real", "herm": "hermitian", "selfdual": "selfdual"}


def reanchor_metrics(seed: int, calls: int = 120) -> dict:
    """Median microseconds per call of each layer at each re-anchor row.

    Each layer runs over ``calls`` inputs in a loop of its own, feeding the
    next layer, and every call is timed on its own."""
    out = {}
    for kind, p, N in REANCHOR_ROWS:
        spec = gte.EnsembleSpec(kind, p, N, seed=seed)
        flavor = gte.flavor_for_class(spec.class_tag)
        melon = gte.melon_graph(p, _CONVENTION[spec.class_tag])
        n = calls if p < 6 else calls // 4

        def timed(layer, fn, inputs):
            results, times = [], []
            for args in inputs:
                t0 = perf_counter()
                results.append(fn(*args))
                times.append(perf_counter() - t0)
            out[f"reanchor.{kind}_{p}_{N}.{layer}.us_per_call"] = 1e6 * statistics.median(times)
            return results

        rngs = timed("stream", gte.harness._stream, [(seed, i) for i in range(n)])
        tensors = timed("sample", gte.sample, [(spec, rng) for rng in rngs])
        dense = timed("densify", gte.densify, [(t,) for t in tensors])
        groups = timed("haar", gte.haar_sample, [(flavor, N, rng) for rng in rngs])
        rotated = timed("act_dense", gte.act_dense, [(g, d, p) for g, d in zip(groups, dense)])
        timed("melon", gte.evaluate, [(melon, d) for d in rotated])
    return out


def environment(workload: str, seed: int, root, pinned_cpu: int) -> dict:
    """Versions, BLAS, thread settings, CPU and source revision of a run."""
    import platform
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu": cpu,
        "git_sha": _git_sha(root),
        "workload": workload,
        "seed": seed,
    }


def _git_sha(root) -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
