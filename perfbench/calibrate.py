"""Calibrated time: spans of the program scaled by the machine's current speed.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds to minutes (frequency changes and neighbours on the
same cores; the process's CPU time drifts with it, so CPU time does not
help).  Two runs of a fixed 30 s of the same code can read 40 % apart.

So every timed span is bracketed by a *calibration unit*: a fixed piece of
work that does not touch ``gte`` and is of the same kind as the workload's
own work, so that a slow moment of the host slows both alike.  The units
are built from these parts:

* ``rng``          per-draw numpy work: a ``SeedSequence`` stream, a small
                   normal draw, a 3x3 QR and an einsum, as the library does
                   for every sample,
* ``kernel``       two numpy contractions of a 2 MiB array with an 8x8
                   matrix, the shape of work of ``act_dense`` at large order,
* ``interpreter``  a fresh interpreter that imports numpy, for spans that
                   are fresh interpreters themselves.

A span's calibrated time is

    measured seconds * (nominal unit seconds) / (median unit seconds around it)

that is, the span's time on a machine on which the unit takes its nominal
time.  A change to ``gte`` moves the span and not the units, so it shows in
full; a slower or faster moment of the host moves both and cancels.  The
nominal times are the parts' times on the 2-vCPU Xeon the benchmark was
written on, so calibrated seconds read close to wall seconds there.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_BIG = np.linspace(-1.0, 1.0, 8 ** 6).reshape((8,) * 6)      # 2 MiB of doubles
_MAT = np.eye(8) * 0.5 + np.full((8, 8), 0.0625)


def _rng_part() -> float:
    total = 0.0
    for i in range(60):
        rng = np.random.default_rng(np.random.SeedSequence((7, i)))
        a = rng.standard_normal((3, 3))
        q, r = np.linalg.qr(a)
        total += float(np.einsum("ia,jb,ab->ij", q, q, a)[0, 0]) + float(r[0, 0])
    return total


def _kernel_part() -> float:
    out = np.tensordot(_MAT, _BIG, axes=([1], [0]))
    out = np.tensordot(_MAT, out, axes=([1], [1]))
    return float(out[0, 0, 0, 0, 0, 0])


def _interpreter_part() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


#: part -> (function, its nominal seconds)
PARTS = {
    "rng": (_rng_part, 0.0035),
    "kernel": (_kernel_part, 0.0050),
    "interpreter": (_interpreter_part, 0.190),
}


@dataclass(frozen=True)
class Span:
    """``measured`` seconds of work timed between units ``before`` and
    ``before + 1`` of a :class:`Clock`."""
    measured: float
    before: int


class Clock:
    """Times spans between calibration units and scales them to calibrated
    seconds.

    A unit runs each part of ``parts`` in turn, ``repeat`` times.
    ``start()`` runs a unit and starts a span; ``lap()`` ends the span, runs
    a unit, returns the span as a :class:`Span` and starts the next one, so
    that one unit lies between two spans.  The machine's speed for a span is
    read from the median of the ``WINDOW`` units on either side of it, after
    the run, so that the jitter of single units averages out while a change
    of speed within the run is followed.
    """

    WINDOW = 3

    def __init__(self, parts: tuple[str, ...], repeat: int = 1):
        self.fns = [PARTS[p][0] for p in parts] * repeat
        self.nominal = repeat * sum(PARTS[p][1] for p in parts)
        self.units: list[float] = []
        self._t0 = 0.0
        for _ in range(3):      # warm-up, not recorded
            self._unit()

    def _unit(self) -> float:
        t0 = perf_counter()
        for fn in self.fns:
            fn()
        return perf_counter() - t0

    def start(self) -> None:
        self.units.append(self._unit())
        self._t0 = perf_counter()

    def lap(self) -> Span:
        span = Span(perf_counter() - self._t0, len(self.units) - 1)
        self.units.append(self._unit())
        self._t0 = perf_counter()
        return span

    def seconds(self, spans) -> float:
        """Calibrated seconds of ``spans``, summed."""
        total = 0.0
        for sp in spans:
            lo = max(0, sp.before + 1 - self.WINDOW)
            speed = statistics.median(self.units[lo:sp.before + 1 + self.WINDOW])
            total += sp.measured * self.nominal / speed
        return total
