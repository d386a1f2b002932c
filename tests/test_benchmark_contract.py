"""The benchmark's tracer reaches into the library by name.

``perfbench/layers.py`` lists the functions it wraps (``TARGETS``) and
``perfbench/spans.py`` the lru-cached functions whose hit counts it reads
(``CACHES``).  A rename or an un-cached rewrite would only show when the
traced benchmark runs; these tests show it in the ordinary suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

from gte.ensembles import EnsembleSpec
from gte.harness import MIN_SAMPLES, isotropy_test

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import TARGETS  # noqa: E402
from spans import CACHES  # noqa: E402

LIBRARY_TARGETS = sorted({(mod, attr) for mod, attr, *_ in TARGETS
                          if mod == "gte" or mod.startswith("gte.")})


@pytest.mark.parametrize("module,attr", LIBRARY_TARGETS,
                         ids=[f"{m}.{a}" for m, a in LIBRARY_TARGETS])
def test_traced_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,attr,label", CACHES, ids=[c[2] for c in CACHES])
def test_cached_target_exposes_cache_info(module, attr, label):
    fn = getattr(importlib.import_module(module), attr)
    info = fn.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_ks_tests_go_through_scipy_stats_attribute(monkeypatch):
    # the tracer's harness.ks_2samp span patches scipy.stats.ks_2samp; the
    # harness imports scipy lazily and must still call it through that name
    import scipy.stats

    calls = []
    real = scipy.stats.ks_2samp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.stats, "ks_2samp", counting)
    isotropy_test(EnsembleSpec("GOTE", 3, 2, seed=0), n_samples=MIN_SAMPLES, seed=0)
    assert len(calls) == 10   # one per projection
