"""Recycled dense buffers: views stay valid, the free lists stay capped, and
the large-order kernels stop faulting in fresh pages."""

import copy
import pickle
import resource
import tracemalloc

import numpy as np
import pytest

import gte.harness
import gte.tensor
from gte.ensembles import EnsembleSpec, sample
from gte.harness import invariance_test
from gte.groups import act_dense, haar_sample
from gte.tensor import (densify, _dense_tables, _empty, _SLAB_CAP_BYTES, _SLAB_MIN_BYTES,
                        _TILE_BYTES)


def _gote_6_8(seed):
    rng = np.random.default_rng(seed)
    return sample(EnsembleSpec("GOTE", 6, 8), rng), haar_sample("orthogonal", 8, rng)


def _free_bytes():
    return sum(size * len(slabs) for size, slabs in gte.tensor._free_slabs.items())


def test_views_of_a_pooled_array_outlive_it():
    t, _ = _gote_6_8(0)
    d = densify(t)
    assert d.nbytes >= _SLAB_MIN_BYTES and not d.flags.owndata
    want = d.copy()
    views = {"slice": d[1:3, :, 2], "transpose": d.T, "strided": d.reshape(-1)[::7]}
    kept = {name: v.copy() for name, v in views.items()}
    del d
    other, h = _gote_6_8(1)
    for _ in range(10):
        act_dense(h, densify(other), 6)
    for name, v in views.items():
        assert np.array_equal(v, kept[name]), name
    assert np.array_equal(views["transpose"].T, want)


def test_free_lists_stay_under_the_cap():
    t, _ = _gote_6_8(0)
    for _ in range(25):
        # 40 live outputs are 80 MiB, more than the cap, all released at once
        live = [densify(t) for _ in range(40)]
        del live
        assert _free_bytes() <= _SLAB_CAP_BYTES


@pytest.mark.parametrize("clone", [pickle.loads, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_pooled_arrays_round_trip(clone):
    t, g = _gote_6_8(0)
    for arr in (densify(t), act_dense(g, t)):
        back = clone(pickle.dumps(arr)) if clone is pickle.loads else clone(arr)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back, arr)
        assert not np.shares_memory(back, arr)


def test_small_arrays_are_plain_and_own_their_data():
    small = _empty((_SLAB_MIN_BYTES // 8 - 1,))
    assert type(small) is np.ndarray and small.flags.owndata
    big = _empty((_SLAB_MIN_BYTES // 8,))
    assert not big.flags.owndata and isinstance(big.base.base, memoryview)
    t = sample(EnsembleSpec("GOTE", 3, 2), np.random.default_rng(0))
    assert densify(t).base.flags.owndata


def test_large_order_kernels_take_no_page_faults():
    # without recycling, each pass faults in fresh 2 MiB arrays: about
    # 30 000 minor faults for these 20 calls of each
    t, g = _gote_6_8(0)
    act_dense(g, densify(t), 6)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        act_dense(g, densify(t), 6)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256


def test_act_dense_holds_two_dense_buffers_and_one_tile():
    t, g = _gote_6_8(0)
    d = densify(t)
    act_dense(g, d, 6)
    slabs = gte.tensor._slab_bytes
    live = slabs["peak"] = slabs["live"]
    tracemalloc.start()
    try:
        act_dense(g, d, 6)
        _, traced = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert slabs["peak"] - live <= 2 * d.nbytes
    assert slabs["peak"] - live + traced <= 2 * d.nbytes + _TILE_BYTES + 2**16


def test_invariance_releases_each_chunk_before_the_next():
    # GSTE (6,2) dense tensors are 64 KiB, so a chunk holds 64 of them and
    # n = 200 runs four chunks; one chunk's dense stack, its rotation and
    # the densify intermediate are live at once, the previous chunk's none
    spec = EnsembleSpec("GSTE", 6, 2)
    slabs = gte.tensor._slab_bytes
    live = slabs["peak"] = slabs["live"]
    invariance_test(spec, n_samples=200, seed=0)
    assert slabs["peak"] - live <= 3 * gte.harness._CHUNK_BYTES


def test_dense_tables_build_in_small_memory():
    # the unfactored tables took about 26 B per dense entry, 10 MB here
    t = sample(EnsembleSpec("GOTE", 8, 5), np.random.default_rng(0))
    _dense_tables.cache_clear()
    tracemalloc.start()
    try:
        densify(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
