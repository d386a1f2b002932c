"""The gte benchmark.

    python3 perfbench/run.py --workload suites|large-order|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One client runs closed-loop passes of the workload (see
``workloads.py``) for about ``--seconds`` seconds, always at least one pass.
All BLAS thread counts are pinned to 1, and the benchmark and its children
to one CPU.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
median of three fresh-interpreter set-ups, then medians over the passes.
Their times are calibrated seconds (see ``calibrate.py``); the measured
seconds are printed beside them.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``layers.py``), including the traced against the
untraced pass time.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts every failed operation, statistical verdicts included.  ``correct``
is false when an output that does not depend on chance is wrong (an
exception, a wrong value, a failed command), or when two passes of the run
drew different values or gave different verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["suites", "large-order", "cli"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def closed_loop(one_round, seconds: float) -> list:
    """Passes from rounds of ``one_round()`` until the next round would end
    after ``seconds``; at least one round."""
    done, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        done += one_round()
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return done


def setup_spans(workload: str, seed: int, work: Path, clock) -> list:
    """Spans of fresh interpreters doing the workload's set-up, one after
    the other."""
    spans = []
    clock.start()
    for k in range(SETUP_REPEATS):
        subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")), "setup",
                        workload, str(seed), str(work / f"setup{k}")],
                       check=True, timeout=150, stdout=subprocess.DEVNULL)
        spans.append(clock.lap())
    return spans


def measure(w, args, work: Path) -> tuple[dict, list]:
    """End-to-end metrics; the keys not in BENCHMARK.json are printed only."""
    from calibrate import Clock

    setup_clock = Clock(("interpreter",))
    setups = setup_spans(args.workload, args.seed, work, setup_clock)
    clock = Clock(*w.CALIBRATION)
    w.warm()
    passes = closed_loop(lambda: [w.run_pass(clock)], args.seconds)
    sec = clock.seconds
    walls = [sec(p.spans) for p in passes]
    ops = [op for p in passes for op in p.ops]
    metrics = {
        "setup_s": statistics.median(setup_clock.seconds([sp]) for sp in setups),
        "wall_s": statistics.median(walls),
        "ok_frac": sum(op.ok for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(w.RSS_OF).ru_maxrss / 1024.0,
        "tensors_per_s": statistics.median(p.items / t for p, t in zip(passes, walls)),
    }
    for k, step in enumerate(w.STEPS, start=1):
        metrics[f"step{k}_s"] = statistics.median(sec(p.steps[step]) for p in passes)
    for name in passes[0].rates:
        metrics[name] = statistics.median(n / sec(spans) for n, spans in
                                          (p.rates[name] for p in passes))
    metrics["measured setup_s"] = statistics.median(sp.measured for sp in setups)
    metrics["measured wall_s"] = statistics.median(p.wall for p in passes)
    metrics["calibration unit ms"] = 1e3 * statistics.median(clock.units)
    metrics["nominal unit ms"] = 1e3 * clock.nominal
    return metrics, passes


def trace(w, args, work: Path) -> tuple[dict, list]:
    import layers
    from calibrate import Clock
    from spans import Tracer

    tracer = Tracer(layers.TARGETS)
    clock = Clock(*w.CALIBRATION)
    w.warm()
    # even passes untraced, odd passes traced
    passes = closed_loop(lambda: [w.run_pass(clock), w.run_pass(clock, tracer)],
                         args.seconds)
    plain = statistics.median(p.wall for p in passes[0::2])
    traced = statistics.median(p.wall for p in passes[1::2])
    metrics = layers.span_metrics(tracer, len(passes) // 2)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics.update(layers.import_metrics())
    metrics.update(layers.reanchor_metrics(args.seed))
    return metrics, passes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gte" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no gte sources under {SRC} or no BENCHMARK.json in {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    import gte
    import layers
    from workloads import WORKLOADS

    if not Path(gte.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported gte from {gte.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](args.seed, work)
        metrics, passes = (trace if args.trace else measure)(w, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"run.py: metrics not computed: {missing}", file=sys.stderr)
        return 1

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    same = len({p.draws for p in passes}) == 1 and len({p.verdicts for p in passes}) == 1
    correct = same and not any(op.wrong for op in ops)

    print(f"gte benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={len(passes)}")
    print("env " + json.dumps(layers.environment(args.workload, args.seed, ROOT, cpu)))
    print(f"fingerprint draws=sha256:{passes[0].draws} verdicts=sha256:{passes[0].verdicts}"
          + ("" if same else "  (passes differ)"))
    print("pass walls (s): " + " ".join(f"{p.wall:.3f}" for p in passes))
    print(f"attempted={len(ops)} failed={len(failed)} correct={correct}")
    distinct = list({op.name: op for op in failed}.values())
    for op in distinct[:10]:
        print(f"  failed: {op.name}: {op.detail}")
    if len(distinct) > 10:
        print(f"  ... and {len(distinct) - 10} more failed operations")
    alias = {f"step{k}_s": step for k, step in enumerate(w.STEPS, start=1)}
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:>16.6g} {m['unit']:<5} "
              f"{alias.get(m['name'], '')}".rstrip())
    if not args.trace:
        print(f"  {'failed_frac':<44} {1.0 - metrics['ok_frac']:>16.6g} frac")
        for name in passes[0].rates:
            print(f"  {name:<44} {metrics[name]:>16.6g} 1/s")
        for name in ("measured setup_s", "measured wall_s"):
            print(f"  {name:<44} {metrics[name]:>16.6g} s     not calibrated")
        for name in ("calibration unit ms", "nominal unit ms"):
            print(f"  {name:<44} {metrics[name]:>16.6g} ms")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
