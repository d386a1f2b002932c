"""Shared helpers for the test suite."""

import itertools
import math
import os
import tempfile
from collections import Counter

import numpy as np
from hypothesis import settings

from gte.invariants import _check_compatible, _real_part, _slot_labels
from gte.tensor import (
    CanonicalTensor,
    class_count,
    component_is_symmetric,
    multiplicities,
)


# Property tests run a fixed sequence of examples and keep no example
# database, so tier-1 is deterministic.  Hypothesis still caches the
# constants it reads from the source; that cache goes to a directory removed
# after the run, so no .hypothesis directory is left in the checkout.
settings.register_profile("gte", derandomize=True, deadline=None, database=None)
settings.load_profile("gte")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="gte-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


# verdict lines recorded by the acceptance tests, printed after the run
# (a summary section is immune to output capture)
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def multiplicity(indices):
    """Number of distinct permutations of an index tuple, p! / prod(c_j!).

    The per-tuple oracle for :func:`gte.tensor.multiplicities`.
    """
    tup = tuple(indices)
    out = math.factorial(len(tup))
    for c in Counter(tup).values():
        out //= math.factorial(c)
    return out


def is_paired(indices):
    """True when the tuple is a permutation of (j1, j1, ..., j_{p/2}, j_{p/2}).

    Equivalently, every index value occurs an even number of times; always
    False for odd order.  The per-tuple oracle for
    :func:`gte.tensor.paired_mask`.
    """
    tup = tuple(indices)
    if len(tup) % 2:
        return False
    return all(c % 2 == 0 for c in Counter(tup).values())


def random_tensor(class_tag, p, N, rng):
    """A generic member of the class with standard-normal canonical entries
    (zeroed where the class forces zeros)."""
    K = class_count(p, N)
    if class_tag == "sym":
        return CanonicalTensor("sym", p, N, {(): rng.standard_normal(K)})
    if class_tag == "antisym":
        vals = rng.standard_normal(K)
        vals[multiplicities(p, N) < math.factorial(p)] = 0.0
        return CanonicalTensor("antisym", p, N, {(): vals})
    if class_tag == "herm":
        h1 = rng.standard_normal(K)
        h1[multiplicities(p, N) < math.factorial(p)] = 0.0
        return CanonicalTensor("herm", p, N, {(0,): rng.standard_normal(K), (1,): h1})
    comps = {}
    for eps in itertools.product(range(4), repeat=p // 2):
        v = rng.standard_normal(K)
        if not component_is_symmetric(eps):
            v[multiplicities(p, N) < math.factorial(p)] = 0.0
        comps[eps] = v
    return CanonicalTensor("selfdual", p, N, comps)


def direct_sum(g, t):
    """Brute-force evaluation: explicit sum over all edge-index assignments.

    Exponential in the number of edges.  :func:`gte.invariants.evaluate`
    never falls back to it; it is the oracle the contraction planner is
    tested against.
    """
    dense = _check_compatible(g, t)
    labels = _slot_labels(g)
    dim = dense.shape[0]
    total = 0.0 + 0.0j
    for assign in itertools.product(range(dim), repeat=len(g.edges)):
        term = 1.0 + 0.0j
        for v in range(g.n):
            term *= dense[tuple(assign[e] for e in labels[v])]
            if term == 0.0:
                break
        total += term
    if g.flavor == "real":
        return float(_real_part(np.array(total)))
    return total


def constant_sampler(t: CanonicalTensor):
    """Always returns the same tensor (degenerate law)."""

    def draw(rng: np.random.Generator) -> CanonicalTensor:
        return t

    return draw
