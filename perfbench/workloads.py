"""The three workloads of the gte benchmark: ``suites``, ``large-order``, ``cli``.

Each workload is a closed loop driven by one client: a pass starts when the
previous pass has finished.  For a given seed every pass does the same work
on the same inputs, so all passes of one run must give the same draws and
the same verdicts; ``run.py`` checks that from the fingerprints.

A workload object has

* ``warm()``         the first call at each of its configurations (what
                     ``setup_s`` times in a fresh interpreter),
* ``run_pass(clock, tracer)`` one pass, returning a :class:`Pass`; its spans
                     are timed with ``clock`` (see ``calibrate.py``); with a
                     tracer the ``cli`` workload runs its children with spans
                     on,
* ``STEPS``          the names of its three timed steps, reported as
                     ``step1_s`` .. ``step3_s``,
* ``RSS_OF``         whose peak resident set ``peak_rss_mb`` reports: the
                     benchmark process, or the largest of its children,
* ``CALIBRATION``    the parts and repeats of its calibration unit, work of
                     the same kind as its own (see ``calibrate.py``).

An operation fails when it raises, when a statistical verdict differs from
the paper's claim (the true law passes, a designed counterexample fails),
when a melon value differs from ``frobenius_norm_sq`` by more than a
relative 1e-10, when a rotated invariant differs from the unrotated one by
more than 1e-8 relative plus 1e-10 absolute, or when a ``gte`` command exits
nonzero or writes a CSV that does not check out.  Only the verdict failures
are statistical; every other failure is a wrong output (``Op.wrong``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gte
import gte.harness

from calibrate import Span

HERE = Path(__file__).resolve().parent

MELON_RTOL = 1e-10
INVARIANT_RTOL = 1e-8
INVARIANT_ATOL = 1e-10


@dataclass
class Op:
    name: str
    ok: bool
    wrong: bool = False   # a deterministic output was wrong, or the call raised
    detail: str = ""


@dataclass
class Pass:
    """One pass.  Its times are :class:`calibrate.Span` lists, turned into
    seconds by the run's clock once the run is over."""
    spans: list                                 # every timed span of the pass
    steps: dict                                 # step name -> its spans
    rates: dict                                 # rate name -> (tensors, spans)
    items: int                                  # tensors drawn in the pass
    ops: list = field(default_factory=list)
    draws: str = ""                             # sha256 of the drawn values
    verdicts: str = ""                          # sha256 of the verdict list

    @property
    def wall(self) -> float:
        """Measured seconds of the timed spans."""
        return sum(sp.measured for sp in self.spans)


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def hash_tensors(tensors, h=None):
    """sha256 over canonical values: each tensor's components in key order."""
    h = h or hashlib.sha256()
    for t in tensors:
        for key in sorted(t.data):
            h.update(np.ascontiguousarray(t.data[key], dtype=np.float64).tobytes())
    return h


def _failed(name: str, exc: Exception) -> Op:
    return Op(name, False, True, f"{type(exc).__name__}: {exc}")


# -- suites -----------------------------------------------------------------


@dataclass(frozen=True)
class SuiteCall:
    name: str
    step: str | None
    suite: str
    kind: str = "GOTE"
    p: int = 2
    N: int = 2
    beta: float = 0.0
    n: int = 5000
    expect_pass: bool = True


SUITE_CALLS = (
    SuiteCall("invariance GOTE p=3 N=2", "invariance_s", "invariance", "GOTE", 3, 2),
    SuiteCall("invariance GSTE p=2 N=2", "invariance_s", "invariance", "GSTE", 2, 2),
    # ROADMAP 2c: the true law fails here at this commit; it is counted.
    SuiteCall("invariance GUTE p=4 N=2 n=1000", "invariance_s", "invariance",
              "GUTE", 4, 2, n=1000),
    SuiteCall("gaussianity GUTE p=4 N=2", "gaussianity_s", "gaussianity", "GUTE", 4, 2),
    SuiteCall("isotropy GOTE p=3 N=2", "isotropy_s", "isotropy", "GOTE", 3, 2),
    SuiteCall("isotropy shifted GOTE p=2 N=2 beta=1", "isotropy_s", "isotropy",
              "GOTE", 2, 2, beta=1.0, expect_pass=False),
    SuiteCall("derivative identity", None, "derivative", n=100),
)


class Suites:
    """One library call per verification suite at its default n."""

    STEPS = ("invariance_s", "gaussianity_s", "isotropy_s")
    RSS_OF = resource.RUSAGE_SELF
    CALIBRATION = (("rng", "kernel"), 3)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self._draws = None

    def _spec(self, call: SuiteCall):
        return gte.EnsembleSpec(call.kind, call.p, call.N, beta=call.beta, seed=self.seed)

    def _run(self, call: SuiteCall, n: int):
        h = gte.harness
        if call.suite == "derivative":
            return h.derivative_identity_test(n_trials=n, seed=self.seed)
        suite = {"invariance": h.invariance_test,
                 "gaussianity": h.gaussianity_independence_test,
                 "isotropy": h.isotropy_test}[call.suite]
        return suite(self._spec(call), n_samples=n, seed=self.seed)

    def warm(self):
        for call in SUITE_CALLS:
            small = 8 if call.suite == "derivative" else gte.harness.MIN_SAMPLES
            self._run(call, small)

    def run_pass(self, clock, tracer=None) -> Pass:
        steps = {step: [] for step in self.STEPS}
        ops, verdicts, items, spans = [], [], 0, []
        clock.start()
        for call in SUITE_CALLS:
            try:
                with tracer or nullcontext():
                    report = self._run(call, call.n)
            except Exception as exc:
                ops.append(_failed(call.name, exc))
                verdicts.append([call.name, "error"])
                continue
            finally:
                spans.append(clock.lap())
                if call.step:
                    steps[call.step].append(spans[-1])
            items += call.n
            ok = report.passed == call.expect_pass
            word = {True: "PASS", False: "FAIL"}
            ops.append(Op(call.name, ok, False, "" if ok else
                          f"verdict {word[report.passed]}, paper claims "
                          f"{word[call.expect_pass]}"))
            verdicts.append([call.name, report.passed,
                             [s.name for s in report.subtests if not s.passed]])
        return Pass(spans, steps, {"samples_per_s": (items, spans)}, items, ops,
                    self.draws_sha(), sha256_json(verdicts))

    def draws_sha(self) -> str:
        """The ensemble draws the suites consume, drawn again afterwards
        through the public batch contract (stream i is SeedSequence((seed, i)))."""
        if self._draws is None:
            h = hashlib.sha256()
            for call in SUITE_CALLS:
                if call.suite != "derivative":
                    hash_tensors(gte.sample_batch(self._spec(call), call.n), h)
            self._draws = h.hexdigest()
        return self._draws


# -- large-order ------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    label: str
    kind: str
    p: int
    N: int
    convention: str
    family: str
    count: int


PHASES = (
    Phase("selfdual", "GSTE", 6, 2, "selfdual", "parity", 64),
    Phase("dense", "GOTE", 6, 8, "real", "real", 160),
)
CHUNK = 16      # tensors per calibrated span


class LargeOrder:
    """draw -> densify -> haar_sample -> act_dense -> melon and rank-2
    invariants of the tensor and of its rotation, per tensor."""

    STEPS = ("draw_densify_s", "haar_act_s", "invariants_s")
    RSS_OF = resource.RUSAGE_SELF
    CALIBRATION = (("rng", "kernel"), 3)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.phases = []
        for ph in PHASES:
            spec = gte.EnsembleSpec(ph.kind, ph.p, ph.N, seed=seed)
            graphs = [gte.melon_graph(ph.p, ph.convention)] + gte.enumerate_rank2(ph.p, ph.family)
            self.phases.append((ph, spec, gte.flavor_for_class(spec.class_tag), graphs))

    def _one(self, spec, flavor, graphs, i, stage):
        a = perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, i)))
        t = gte.sample(spec, rng)
        d0 = gte.densify(t)
        b = perf_counter()
        g = gte.haar_sample(flavor, spec.N, rng)
        d1 = gte.act_dense(g, d0, spec.p)
        c = perf_counter()
        v0 = [gte.evaluate(gr, d0) for gr in graphs]
        v1 = [gte.evaluate(gr, d1) for gr in graphs]
        stage[0] += b - a
        stage[1] += c - b
        stage[2] += perf_counter() - c
        return t, v0, v1

    def warm(self):
        for ph, spec, flavor, graphs in self.phases:
            self._one(spec, flavor, graphs, 0, [0.0, 0.0, 0.0])

    def run_pass(self, clock, tracer=None) -> Pass:
        steps = {step: [] for step in self.STEPS}
        spans, rates, results = [], {}, []
        clock.start()
        for ph, spec, flavor, graphs in self.phases:
            phase = []
            with tracer or nullcontext():
                for first in range(0, ph.count, CHUNK):
                    stage = [0.0, 0.0, 0.0]
                    for i in range(first, min(first + CHUNK, ph.count)):
                        name = f"{ph.kind} p={ph.p} N={ph.N} tensor {i}"
                        try:
                            results.append((name, *self._one(spec, flavor, graphs, i, stage)))
                        except Exception as exc:
                            results.append((name, exc, None, None))
                    phase.append(clock.lap())
                    for step, seconds in zip(self.STEPS, stage):
                        steps[step].append(Span(seconds, phase[-1].before))
            spans += phase
            rates[f"{ph.label}_tensors_per_s"] = (ph.count, phase)
        ops = [self._check(*r) for r in results]
        draws = hash_tensors(r[1] for r in results if r[2] is not None).hexdigest()
        return Pass(spans, steps, rates, len(results), ops, draws,
                    sha256_json([[op.name, op.ok] for op in ops]))

    @staticmethod
    def _check(name, t, v0, v1) -> Op:
        if v0 is None:
            return _failed(name, t)
        fro = gte.frobenius_norm_sq(t)
        if not abs(v0[0] - fro) <= MELON_RTOL * abs(fro):
            return Op(name, False, True, f"melon {v0[0]!r} != frobenius_norm_sq {fro!r}")
        for k, (x, y) in enumerate(zip(v0, v1)):
            if not abs(x - y) <= INVARIANT_RTOL * abs(x) + INVARIANT_ATOL:
                return Op(name, False, True, f"invariant {k}: {x!r} before, {y!r} after rotation")
        return Op(name, True)


# -- cli --------------------------------------------------------------------


CLI_KIND, CLI_P, CLI_DIM, CLI_COUNT = "gote", 6, 5, 100


def cli_commands(seed: int, work: Path, count: int = CLI_COUNT):
    """(step, argv) of one pass: sample, rotate, and rank-2 invariants of both."""
    draws, rotated = work / "draws.ndjson", work / "rotated.ndjson"
    return [
        ("sample_cmd_s", ["sample", "--kind", CLI_KIND, "--p", str(CLI_P),
                          "--dim", str(CLI_DIM), "--seed", str(seed),
                          "--count", str(count), "--out", str(draws)]),
        ("act_cmd_s", ["act", "--tensor", str(draws), "--haar", "--seed", str(seed),
                       "--out", str(rotated)]),
        ("invariant_cmd_s", ["invariant", "--rank2", "--tensor", str(draws),
                             "--out", str(work / "draws.csv")]),
        ("invariant_cmd_s", ["invariant", "--rank2", "--tensor", str(rotated),
                             "--out", str(work / "rotated.csv")]),
    ]


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row[1:]] for row in rows[1:]]


def _multiplicity(idx) -> int:
    out = math.factorial(len(idx))
    for c in Counter(idx).values():
        out //= math.factorial(c)
    return out


class Cli:
    """Fresh ``gte`` processes, one at a time: sample -> act --haar ->
    invariant --rank2 on the draws and on the rotated file."""

    STEPS = ("sample_cmd_s", "act_cmd_s", "invariant_cmd_s")
    RSS_OF = resource.RUSAGE_CHILDREN
    CALIBRATION = (("interpreter",), 1)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.commands = cli_commands(seed, work)

    def warm(self):
        pass    # every command starts a fresh interpreter

    def run_pass(self, clock, tracer=None) -> Pass:
        steps = {step: [] for step in self.STEPS}
        ops, spans = [], []
        stats = self.work / "spans.json"
        for stale in [*self.work.glob("*.ndjson"), *self.work.glob("*.csv")]:
            stale.unlink()
        clock.start()
        for step, argv in self.commands:
            if tracer is None:
                cmd = [sys.executable, "-m", "gte.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "child.py"), "gte", str(stats), *argv]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=150)
            spans.append(clock.lap())
            steps[step].append(spans[-1])
            ok = proc.returncode == 0
            ops.append(Op(f"gte {argv[0]} ({step})", ok, not ok,
                          "" if ok else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"))
            if tracer is not None and ok:
                tracer.merge(json.loads(stats.read_text()))
        # a step reports the mean of its commands (invariant_cmd_s runs twice)
        steps = {step: [Span(sp.measured / len(v), sp.before) for sp in v]
                 for step, v in steps.items()}
        draws, check = self._check()
        ops.append(check)
        return Pass(spans, steps, {}, CLI_COUNT, ops, draws,
                    sha256_json([[op.name, op.ok] for op in ops]))

    def _check(self):
        """Hash the drawn values; check both CSVs against each other and the
        melon column against the Frobenius norm computed from the NDJSON."""
        name = "invariant CSV check"
        try:
            values, fro = [], []
            with open(self.work / "draws.ndjson", encoding="utf-8") as fh:
                for line in fh:
                    entries = json.loads(line)["entries"]
                    values += [e["re"] for e in entries]
                    fro.append(math.fsum(_multiplicity(e["idx"]) * e["re"] ** 2
                                         for e in entries))
            draws = hashlib.sha256(array("d", values).tobytes()).hexdigest()
            head0, base = _read_csv(self.work / "draws.csv")
            head1, rot = _read_csv(self.work / "rotated.csv")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return "", _failed(name, exc)
        melon = f"rank2[r={CLI_P}]"
        if (head0 != head1 or melon not in head0
                or not len(base) == len(rot) == len(fro) == CLI_COUNT):
            return draws, Op(name, False, True,
                             f"CSV shape: {head0} {head1} rows {len(base)} {len(rot)}")
        col = head0.index(melon) - 1
        for i, (r0, r1, f) in enumerate(zip(base, rot, fro)):
            if not abs(r0[col] - f) <= MELON_RTOL * abs(f):
                return draws, Op(name, False, True, f"row {i}: melon {r0[col]!r} != {f!r}")
            for x, y in zip(r0, r1):
                if not abs(x - y) <= INVARIANT_RTOL * abs(x) + INVARIANT_ATOL:
                    return draws, Op(name, False, True, f"row {i}: {x!r} before, {y!r} after")
        return draws, Op(name, True)


WORKLOADS = {"suites": Suites, "large-order": LargeOrder, "cli": Cli}
