"""Golden values: draws, wire strings and class-violation reports.

These pin behaviour bit for bit, so a refactor of the tensor classes or of
the sampler can show that it changes nothing:

* the sha256 of the canonical values of ``sample_batch`` (50 draws, seed 0,
  beta 0.5) at four (kind, p, N), hashed per tensor as each component key
  followed by its float64 bytes, keys in sorted order;
* the exact ``dumps_tensor`` string of one tensor per class, including a
  self-dual tensor whose zero and absent components write no entries;
* the ``ClassViolationError`` pair and message for one off-class dense
  array per class;
* the sha256 of ``json.dumps(report_to_dict(report), sort_keys=True)`` for
  the verification suites (seed 0, n = 200), so every subtest statistic,
  p-value and verdict is pinned, on the ensemble path and on the block path
  of the designed counterexample laws.
"""

import hashlib
import json

import numpy as np
import pytest

from gte import CanonicalTensor, ClassViolationError, EnsembleSpec, canonicalize, sample_batch
from gte.harness import (
    gaussianity_independence_test,
    invariance_test,
    isotropy_test,
    report_to_dict,
    uniform_entry_sampler,
)
from gte.serialize import dumps_tensor, loads_tensor

DRAW_SHA256 = {
    ("GOTE", 3, 2): "3a73b3bb3e4485a9607707f9201c43be9e5ab831522da5e67302d1a0146109f1",
    ("GUTE", 4, 2): "f1420d42dc871b45845f365471d5eb7f04d8aac6fa1a73ca8397ccee1273532b",
    ("GSTE", 2, 2): "9994595c58309cf803c1f1615084e74d7aa6bb2a8f4fb7704c52b63ad54fea24",
    ("GSTE", 6, 2): "390ad7a6c5e913ba5dec9710f0cab196272da5d60b53ebc1a37d089f56fb00c2",
}


@pytest.mark.parametrize("kind,p,N", sorted(DRAW_SHA256))
def test_sample_batch_draws_are_pinned(kind, p, N):
    h = hashlib.sha256()
    for t in sample_batch(EnsembleSpec(kind, p, N, beta=0.5, seed=0), 50):
        for key in sorted(t.data):
            h.update(repr(key).encode())
            h.update(np.ascontiguousarray(t.data[key], dtype=np.float64).tobytes())
    assert h.hexdigest() == DRAW_SHA256[(kind, p, N)]


WIRE = [
    (CanonicalTensor("sym", 3, 2, {(): [1.5, 0.0, -2.25, 1e-17]}),
     '{"class": "sym", "p": 3, "N": 2, "entries": [{"idx": [1, 1, 1], "re": 1.5}, '
     '{"idx": [1, 2, 2], "re": -2.25}, {"idx": [2, 2, 2], "re": 1e-17}]}'),
    (CanonicalTensor("antisym", 3, 3, {(): [0.0] * 4 + [-0.75] + [0.0] * 5}),
     '{"class": "antisym", "p": 3, "N": 3, "entries": [{"idx": [1, 2, 3], "re": -0.75}]}'),
    (CanonicalTensor("herm", 2, 2, {(0,): [1.0, 0.5, -3.0], (1,): [0.0, 0.25, 0.0]}),
     '{"class": "herm", "p": 2, "N": 2, "entries": [{"idx": [1, 1], "re": 1.0}, '
     '{"idx": [1, 2], "re": 0.5, "im": 0.25}, {"idx": [2, 2], "re": -3.0}]}'),
    (CanonicalTensor("selfdual", 2, 2, {(0,): [2.0, 0.0, 1.0 / 3.0],
                                        (2,): [0.0, -1.25, 0.0],
                                        (3,): [0.0, 0.0, 0.0]}),
     '{"class": "selfdual", "p": 2, "N": 2, "entries": [{"idx": [1, 1], "re": 2.0, "eps": [0]}, '
     '{"idx": [2, 2], "re": 0.3333333333333333, "eps": [0]}, '
     '{"idx": [1, 2], "re": -1.25, "eps": [2]}]}'),
]


@pytest.mark.parametrize("t,wire", WIRE, ids=[t.class_tag for t, _ in WIRE])
def test_dumps_tensor_is_pinned(t, wire):
    assert dumps_tensor(t) == wire
    back = loads_tensor(wire)
    assert np.array_equal(back.array, t.array)
    for key in t.data:
        assert np.array_equal(back.component(key), t.component(key))


VIOLATIONS = [
    ("sym", np.array([[1.0, 2.0], [3.0, 4.0]]), ((1, 0), (0, 1)),
     "entry at (2, 1) deviates from the value implied by (1, 2) by 1.000e+00 "
     "(indices 1-based)"),
    ("antisym", np.array([[0.0, 1.0], [2.0, 0.0]]), ((1, 0), (0, 1)),
     "entry at (2, 1) deviates from the value implied by (1, 2) by 3.000e+00 "
     "(indices 1-based)"),
    # the imaginary part deviates more, at (3, 2), but the real part is checked first
    ("herm", np.array([[1.0, 2.0, 0.0], [2.5, 1.0, 1j], [0.0, 5j, 1.0]]), ((1, 0), (0, 1)),
     "real part: entry at (2, 1) deviates from the value implied by (1, 2) by 5.000e-01 "
     "(indices 1-based)"),
    ("selfdual", np.arange(16.0).reshape(4, 4) * (1.0 + 0.5j), ((3, 0), (0, 1)),
     "entry at (4, 1) is incompatible with the quaternion component structure implied "
     "by the class (1, 2) (indices 1-based, deviation 1.582e+01)"),
]


@pytest.mark.parametrize("tag,dense,pair,message", VIOLATIONS,
                         ids=[v[0] for v in VIOLATIONS])
def test_class_violation_report_is_pinned(tag, dense, pair, message):
    with pytest.raises(ClassViolationError) as exc:
        canonicalize(dense, tag)
    assert exc.value.pair == pair
    assert str(exc.value) == message


REPORT_SHA256 = {
    "invariance GOTE 3/2":
        "a0673fe8f812b13e24fd5d5896d61af020c73cc53eedbb1205f17a9ffc97510c",
    "invariance GSTE 2/2":
        "f1fa71466bf7620e094c784c60c11e6e225aea96b1b8b0967410b5090e1ccab6",
    "invariance GUTE 4/2":
        "801058deb96603cb97348615c755168e01890f07802287c4ace2b157ff4bece4",
    "invariance uniform 3/2":
        "c9fc0afd6bfa6a6db51c2ea51c3dc179da7cae5940b7d7841f897899700b49bc",
    "gaussianity GUTE 4/2":
        "9f4f24d0fa03c7933b039d28d82e5e287ef46d1b713741796c1d4589719dc646",
    "isotropy GOTE 3/2":
        "c1d60d93943d84e53a74e5a7af5f19d08cc93487f493baff234a01cb4869e392",
    "isotropy shifted GOTE 2/2":
        "b7f65d721f11d8803709fe9b7c66adbc480fbd2052bd27eba2fdead052bd6488",
}

SUITE_CALLS = {
    "invariance GOTE 3/2": (invariance_test, EnsembleSpec("GOTE", 3, 2)),
    "invariance GSTE 2/2": (invariance_test, EnsembleSpec("GSTE", 2, 2)),
    "invariance GUTE 4/2": (invariance_test, EnsembleSpec("GUTE", 4, 2)),
    "invariance uniform 3/2": (invariance_test, uniform_entry_sampler(3, 2)),
    "gaussianity GUTE 4/2": (gaussianity_independence_test, EnsembleSpec("GUTE", 4, 2)),
    "isotropy GOTE 3/2": (isotropy_test, EnsembleSpec("GOTE", 3, 2)),
    "isotropy shifted GOTE 2/2": (isotropy_test, EnsembleSpec("GOTE", 2, 2, beta=1.0)),
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_suite_reports_are_pinned(name):
    suite, sampler = SUITE_CALLS[name]
    report = suite(sampler, n_samples=200, seed=0)
    text = json.dumps(report_to_dict(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]
