"""JSON wire formats: tensors, group elements, trace graphs."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import oracle_dumps_tensor, oracle_loads_tensor, random_tensor
from gte.cli import run
from gte.ensembles import EnsembleSpec, sample_batch
from gte.groups import haar_sample
from gte.invariants import TraceGraph, evaluate, melon_graph
from gte.serialize import (
    dumps_graph,
    dumps_matrix,
    dumps_tensor,
    load_tensors,
    loads_graph,
    loads_matrix,
    loads_tensor,
)
from gte.tensor import (
    CanonicalTensor,
    class_count,
    identity_tensor,
    multiplicities,
    zeros,
    _class_info,
)


@pytest.mark.parametrize("class_tag,p,N", [
    ("sym", 3, 2), ("antisym", 3, 3), ("herm", 2, 3), ("herm", 4, 2),
    ("selfdual", 2, 2), ("selfdual", 6, 1),
])
def test_tensor_round_trip(class_tag, p, N):
    rng = np.random.default_rng(0)
    t = random_tensor(class_tag, p, N, rng)
    back = loads_tensor(dumps_tensor(t))
    assert back.class_tag == t.class_tag and (back.p, back.N) == (t.p, t.N)
    for key in t.data:
        assert np.array_equal(back.component(key), t.component(key))


def test_tensor_json_structure_one_based_and_sparse():
    d = json.loads(dumps_tensor(identity_tensor(4, 2)))
    assert d["class"] == "sym" and d["p"] == 4 and d["N"] == 2
    entries = {tuple(e["idx"]): e["re"] for e in d["entries"]}
    # 1-based sorted index classes; zero entries omitted
    assert entries[(1, 1, 2, 2)] == pytest.approx(1.0 / 6.0)
    assert entries[(1, 1, 1, 1)] == 1.0
    assert (1, 1, 1, 2) not in entries
    for e in d["entries"]:
        assert list(e["idx"]) == sorted(e["idx"])
        assert "im" not in e  # real class never writes an imaginary part


def test_zero_tensor_serializes_to_empty_entries():
    wire = dumps_tensor(zeros("herm", 2, 2))
    assert json.loads(wire)["entries"] == []
    t = loads_tensor(wire)
    assert np.array_equal(t.component((0,)), np.zeros(3))


BAD_TENSORS = [
    {"class": "sym", "p": 2, "N": 2, "entries": [{"idx": [2, 1], "re": 1.0}]},  # unsorted
    {"class": "wat", "p": 2, "N": 2, "entries": []},
    {"class": "sym", "p": 2, "N": 2, "entries": [{"idx": [1, 1], "re": 0.0, "im": 2.0}]},
    {"class": "selfdual", "p": 2, "N": 2,
     "entries": [{"idx": [1, 1], "re": 1.0, "eps": [7]}]},
    {"class": "sym", "p": 2, "N": 2, "entries": [{"re": 1.0}]},  # no idx
    {"class": "sym", "p": 2, "N": 2, "entries": [5]},  # entry not an object
    {"class": "sym", "p": 2, "N": 2, "entries": 5},
    {"class": "sym", "p": 2, "N": 2, "entries": [{"idx": [1, 1], "re": [1]}]},
    {"class": "sym", "p": 2, "N": 2, "entries": [{"idx": 5, "re": 1.0}]},
    {"class": "selfdual", "p": 2, "N": 2,
     "entries": [{"idx": [1, 1], "re": 1.0, "eps": 5}]},
]


def test_tensor_dict_validation():
    for bad in BAD_TENSORS:
        with pytest.raises(ValueError):
            loads_tensor(json.dumps(bad))
    for cell in ([1.0], [1.0, 0.0, 0.0], 1.0, "10", ["1", "0"]):
        bad = {"flavor": "orthogonal", "N": 1, "rows": [[cell]]}
        with pytest.raises(ValueError, match="rows"):
            loads_matrix(json.dumps(bad))


def test_tensor_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    t = random_tensor("herm", 4, 2, rng)
    wire = dumps_tensor(t)
    assert "\n" not in wire  # one line per tensor in a file
    path = tmp_path / "t.json"
    path.write_text(wire + "\n")
    (back,) = load_tensors(path)
    assert np.array_equal(back.component((1,)), t.component((1,)))


def test_ndjson_reader_reads_what_sample_writes(tmp_path):
    path = tmp_path / "draws.ndjson"
    assert run(["sample", "--kind", "gste", "--p", "2", "--dim", "2", "--seed", "3",
                "--count", "3", "--out", str(path)]) == 0
    got = load_tensors(path)
    want = sample_batch(EnsembleSpec("GSTE", 2, 2, seed=3), 3)
    assert len(got) == 3
    for a, b in zip(got, want):
        assert sorted(a.data) == sorted(b.data)
        for key in b.data:
            assert np.array_equal(a.component(key), b.component(key))
    path.write_text("\n")
    assert load_tensors(path) == []


def test_matrix_round_trip_all_flavors():
    rng = np.random.default_rng(2)
    for flavor, N in [("orthogonal", 3), ("unitary", 2), ("symplectic", 2)]:
        g = haar_sample(flavor, N, rng)
        back = loads_matrix(dumps_matrix(g))
        assert back.flavor == flavor
        assert np.allclose(back.matrix, g.matrix, atol=1e-15)


def test_matrix_json_structure():
    rng = np.random.default_rng(3)
    d = json.loads(dumps_matrix(haar_sample("unitary", 2, rng)))
    assert d["flavor"] == "unitary" and d["N"] == 2
    assert len(d["rows"]) == 2 and len(d["rows"][0]) == 2
    assert len(d["rows"][0][0]) == 2  # [re, im] pairs
    with pytest.raises((ValueError, KeyError)):
        loads_matrix(json.dumps({"flavor": "unitary", "N": 2,
                                 "rows": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}))
    # imaginary parts of an orthogonal matrix are refused, not dropped
    with pytest.raises(ValueError, match="imaginary"):
        loads_matrix(json.dumps({"flavor": "orthogonal", "N": 2,
                                 "rows": [[[1, 0.5], [0, 0]], [[0, 0], [1, -3]]]}))


def test_graph_round_trip_and_structure():
    g = melon_graph(4, "hermitian")
    d = json.loads(dumps_graph(g))
    assert d["flavor"] == "parity"
    # vertices stay 0-based, positions 1-based
    flat = [pos for edge in d["edges"] for (_, pos) in edge]
    assert min(flat) == 1 and max(flat) == 4
    verts = [v for edge in d["edges"] for (v, _) in edge]
    assert min(verts) == 0
    assert loads_graph(json.dumps(d)) == g


@pytest.mark.parametrize("field,value", [
    ("p", "x"), ("p", 2.0), ("p", True), ("n", "2"), ("n", None),
])
def test_graph_refuses_non_integer_order_and_size(field, value):
    d = json.loads(dumps_graph(melon_graph(2)))
    d[field] = value
    with pytest.raises(ValueError, match="p and n must be integers"):
        loads_graph(json.dumps(d))


def test_tensor_refuses_boolean_order_and_dimension():
    d = {"class": "sym", "p": True, "N": True, "entries": [{"idx": [1], "re": 1.0}]}
    with pytest.raises(ValueError, match="p and N must be positive integers"):
        loads_tensor(json.dumps(d))


@pytest.mark.parametrize("idx", [[True, 1.0], [1, 1.0], [True, 1]])
def test_tensor_refuses_non_integer_indices(idx):
    d = {"class": "sym", "p": 2, "N": 2, "entries": [{"idx": idx, "re": 1.0}]}
    with pytest.raises(ValueError, match="must hold integers"):
        loads_tensor(json.dumps(d))


def test_tensor_refuses_non_integer_component_labels():
    d = {"class": "selfdual", "p": 2, "N": 1,
         "entries": [{"idx": [1, 1], "re": 1.0, "eps": [0.0]}]}
    with pytest.raises(ValueError, match="eps must be"):
        loads_tensor(json.dumps(d))


@pytest.mark.parametrize("edge", [[0.9, 1.7], [True, 1], ["0", "1"]])
def test_graph_refuses_non_integer_edge_slots(edge):
    d = json.loads(dumps_graph(melon_graph(2)))
    d["edges"][0][0] = edge
    with pytest.raises(ValueError, match="integer pairs"):
        loads_graph(json.dumps(d))


@pytest.mark.parametrize("N", [True, 1.0])
def test_matrix_refuses_non_integer_dimension(N):
    d = json.loads(dumps_matrix(haar_sample("orthogonal", 1, np.random.default_rng(0))))
    d["N"] = N
    with pytest.raises(ValueError, match="N must be an integer"):
        loads_matrix(json.dumps(d))


@pytest.mark.parametrize("class_tag,entry,field", [
    ("sym", '{"idx": [1, 2], "re": NaN}', "re"),
    ("antisym", '{"idx": [1, 2, 3], "re": -Infinity}', "re"),
    ("herm", '{"idx": [1, 2], "re": 1.0, "im": NaN}', "im"),
    ("herm", '{"idx": [1, 2], "re": Infinity}', "re"),
    ("selfdual", '{"idx": [1, 2], "re": NaN, "eps": [0]}', "re"),
    ("sym", '{"idx": [1, 2], "re": 1e400}', "re"),
])
def test_tensor_refuses_non_finite_values(class_tag, entry, field):
    p = 3 if class_tag == "antisym" else 2
    line = f'{{"class": "{class_tag}", "p": {p}, "N": 3, "entries": [{entry}]}}'
    with pytest.raises(ValueError, match=rf"idx \[1, 2(, 3)?\]: {field} must be finite"):
        loads_tensor(line)


def test_json_is_strict():
    # output must parse as standard JSON (no NaN/Infinity)
    rng = np.random.default_rng(4)
    t = random_tensor("selfdual", 2, 2, rng)
    json.loads(dumps_tensor(t))
    g = melon_graph(2)
    json.loads(dumps_graph(g))


def _line(tag, p, N, *entries):
    """A tensor line with the given entries, written as raw JSON text."""
    return f'{{"class": "{tag}", "p": {p}, "N": {N}, "entries": [{", ".join(entries)}]}}'


_OK = '{"idx": [1, 1], "re": 1.0}'
_OK_EPS = '{"idx": [1, 1], "re": 1.0, "eps": [0]}'
_BIG = "1" + "0" * 400  # a 401-digit integer, past the double range

READER_ERRORS = {f"dict-validation-{i}": json.dumps(bad) for i, bad in enumerate(BAD_TENSORS)}
READER_ERRORS.update({
    "bool-idx": _line("sym", 2, 2, '{"idx": [true, 1], "re": 1.0}'),
    "float-idx": _line("sym", 2, 2, '{"idx": [1, 1.0], "re": 1.0}'),
    "nested-idx": _line("sym", 2, 2, '{"idx": [[1], 1], "re": 1.0}'),
    "string-entry": _line("sym", 2, 2, _OK, '"x"'),
    "unsorted-idx": _line("sym", 3, 3, '{"idx": [1, 3, 2], "re": 1.0}'),
    "idx-zero": _line("sym", 2, 2, '{"idx": [0, 1], "re": 1.0}'),
    "idx-past-N": _line("sym", 2, 2, '{"idx": [1, 3], "re": 1.0}'),
    "idx-unsorted-and-past-N": _line("sym", 2, 2, '{"idx": [3, 1], "re": 1.0}'),
    "idx-short": _line("sym", 2, 2, '{"idx": [1], "re": 1.0}'),
    "idx-long": _line("sym", 2, 2, '{"idx": [1, 1, 1], "re": 1.0}'),
    "idx-empty": _line("sym", 2, 2, '{"idx": [], "re": 1.0}'),
    "idx-2^63": _line("sym", 2, 2, f'{{"idx": [1, {2**63}], "re": 1.0}}'),
    "idx-2^64": _line("sym", 2, 2, f'{{"idx": [1, {2**64}], "re": 1.0}}'),
    "idx-minus-2^70": _line("sym", 2, 2, f'{{"idx": [{-2**70}, 1], "re": 1.0}}'),
    "idx-401-digits": _line("herm", 2, 2, f'{{"idx": [1, {_BIG}], "re": 1.0}}'),
    "re-list": _line("sym", 2, 2, '{"idx": [1, 2], "re": [1.0]}'),
    "re-bool": _line("sym", 2, 2, '{"idx": [1, 2], "re": true}'),
    "re-string": _line("herm", 2, 2, '{"idx": [1, 2], "re": "1.0"}'),
    "re-null": _line("sym", 2, 2, '{"idx": [1, 2], "re": null}'),
    "im-string": _line("herm", 2, 2, '{"idx": [1, 2], "re": 1.0, "im": "0"}'),
    "im-on-sym": _line("sym", 2, 2, '{"idx": [1, 2], "re": 1.0, "im": 0.5}'),
    "im-nan-on-antisym": _line("antisym", 2, 2, '{"idx": [1, 2], "re": 1.0, "im": NaN}'),
    "im-on-selfdual": _line("selfdual", 2, 2, '{"idx": [1, 2], "re": 1.0, "im": 1, "eps": [2]}'),
    "eps-out-of-range": _line("selfdual", 2, 2, '{"idx": [1, 2], "re": 1.0, "eps": [4]}'),
    "eps-negative": _line("selfdual", 2, 2, '{"idx": [1, 2], "re": 1.0, "eps": [-1]}'),
    "eps-float": _line("selfdual", 2, 2, '{"idx": [1, 2], "re": 1.0, "eps": [0.0]}'),
    "eps-bool": _line("selfdual", 2, 2, '{"idx": [1, 2], "re": 1.0, "eps": [true]}'),
    "eps-long": _line("selfdual", 2, 2, '{"idx": [1, 2], "re": 1.0, "eps": [0, 0]}'),
    "eps-string": _line("selfdual", 2, 2, '{"idx": [1, 2], "re": 1.0, "eps": "0"}'),
    "eps-missing": _line("selfdual", 2, 2, _OK_EPS, '{"idx": [1, 2], "re": 1.0}'),
    "re-nan": _line("sym", 2, 2, '{"idx": [1, 2], "re": NaN}'),
    "re-inf": _line("sym", 2, 2, '{"idx": [2, 2], "re": Infinity}'),
    "re-minus-inf": _line("antisym", 3, 3, '{"idx": [1, 2, 3], "re": -Infinity}'),
    "re-1e400": _line("sym", 2, 2, '{"idx": [1, 2], "re": 1e400}'),
    "re-nan-herm": _line("herm", 2, 2, '{"idx": [1, 2], "re": NaN, "im": 1.0}'),
    "im-nan-herm": _line("herm", 2, 2, '{"idx": [1, 2], "re": 1.0, "im": NaN}'),
    "im-inf-herm": _line("herm", 2, 2, '{"idx": [1, 2], "re": 1.0, "im": -Infinity}'),
    "re-nan-selfdual": _line("selfdual", 2, 2, '{"idx": [1, 2], "re": NaN, "eps": [3]}'),
    # the first non-finite value in storage order is named, not the first in the file
    "im-then-re-nan-herm": _line("herm", 2, 2, '{"idx": [1, 2], "re": 1.0, "im": NaN}',
                                 '{"idx": [2, 2], "re": NaN}'),
    "nan-overwritten-then-inf": _line("sym", 2, 2, '{"idx": [1, 1], "re": NaN}',
                                      '{"idx": [1, 2], "re": Infinity}', _OK),
    # entries 2 and 5 are both bad: the message names entry 2
    "2-re-string-5-unsorted": _line("sym", 2, 2, _OK, '{"idx": [1, 2], "re": "x"}', _OK, _OK,
                                    '{"idx": [2, 1], "re": 1.0}', _OK),
    "2-unsorted-5-not-object": _line("sym", 2, 2, _OK, '{"idx": [2, 1], "re": 1.0}', _OK, _OK,
                                     "[1, 1]", _OK),
    "2-im-on-sym-5-float-idx": _line("sym", 2, 2, _OK, '{"idx": [1, 2], "re": 1.0, "im": 1.0}',
                                     _OK, _OK, '{"idx": [1.0, 2], "re": 1.0}', _OK),
    "2-past-N-5-re-list": _line("herm", 2, 2, _OK, '{"idx": [1, 9], "re": 1.0}', _OK, _OK,
                                '{"idx": [1, 2], "re": [1]}', _OK),
    "2-bad-eps-5-short-idx": _line("selfdual", 2, 2, _OK_EPS,
                                   '{"idx": [1, 2], "re": 1.0, "eps": [9]}', _OK_EPS, _OK_EPS,
                                   '{"idx": [1], "re": 1.0, "eps": [0]}', _OK_EPS),
    "2-short-idx-5-bad-eps": _line("selfdual", 2, 2, _OK_EPS,
                                   '{"idx": [2], "re": 1.0, "eps": [0]}', _OK_EPS, _OK_EPS,
                                   '{"idx": [1, 2], "re": 1.0, "eps": [9]}', _OK_EPS),
    "2-no-idx-5-nan": _line("sym", 2, 2, _OK, '{"re": 1.0}', _OK, _OK,
                            '{"idx": [1, 2], "re": NaN}', _OK),
})


@pytest.mark.parametrize("line", list(READER_ERRORS.values()), ids=list(READER_ERRORS))
def test_reader_messages_equal_the_per_entry_oracle(line):
    with pytest.raises(ValueError) as want:
        oracle_loads_tensor(line)
    with pytest.raises(ValueError) as got:
        loads_tensor(line)
    assert str(got.value) == str(want.value)


def test_reader_names_the_first_of_two_bad_entries():
    line = READER_ERRORS["2-re-string-5-unsorted"]
    with pytest.raises(ValueError, match=r"^re and im must be numbers, got re='x' im=0.0$"):
        loads_tensor(line)


@pytest.mark.parametrize("line", [
    _line("sym", 2, 2),
    _line("sym", 2, 2, '{"idx": [1, 2], "re": 3}', '{"idx": [2, 2], "re": -7, "im": 0}'),
    _line("sym", 2, 2, '{"idx": [1, 1], "re": NaN}', '{"idx": [1, 1], "re": 2.0}'),
    _line("herm", 2, 2, '{"idx": [1, 2], "re": 1.0, "im": 2}', '{"idx": [1, 2], "re": 0.5}'),
    _line("selfdual", 2, 2, '{"idx": [1, 2], "re": -1.5, "eps": [1]}', _OK_EPS,
          '{"idx": [1, 2], "re": 4.0, "eps": [1]}', '{"idx": [1, 2], "im": 0, "eps": [3]}'),
    _line("sym", 2, 2, f'{{"idx": [1, 2], "re": {10**307}}}'),
])
def test_reader_arrays_equal_the_per_entry_oracle(line):
    assert np.array_equal(loads_tensor(line).array, oracle_loads_tensor(line).array)


def test_duplicated_idx_keeps_the_last_value():
    line = _line("sym", 2, 2, '{"idx": [1, 2], "re": 1.0}', '{"idx": [1, 2], "re": 5.0}')
    assert loads_tensor(line).array.tolist() == [[0.0, 5.0, 0.0]]
    assert evaluate(melon_graph(2), loads_tensor(line)) == 50.0


@pytest.mark.parametrize("tag,entry,field,value", [
    ("sym", f'{{"idx": [1, 2], "re": {_BIG}}}', "re", "inf"),
    ("antisym", f'{{"idx": [1, 2], "re": -{_BIG}}}', "re", "-inf"),
    ("herm", f'{{"idx": [1, 2], "re": 1.0, "im": {_BIG}}}', "im", "inf"),
    ("selfdual", f'{{"idx": [1, 2], "re": {_BIG}, "eps": [0]}}', "re", "inf"),
])
def test_integer_past_the_double_range_is_refused_as_not_finite(tag, entry, field, value):
    # json reads the float literal 1e400 as inf; the integer 10**400 reads alike
    with pytest.raises(ValueError, match=rf"^entry with idx \[1, 2\]: {field} must be "
                                         rf"finite, got {value}$"):
        loads_tensor(_line(tag, 2, 2, entry))


#: Values the writer must spell as the per-entry writer did: signed zeros
#: (omitted), subnormals, the edges of the exponent range and of exact
#: integers, and repeating fractions.
WRITER_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e16,
                                 -1e16, 9007199254740993.0, 1e-300, 1e300, 1.7976931348623157e308,
                                 -1 / 3, 0.1, 1.0, 2.5]) | st.floats(allow_nan=False,
                                                                     allow_infinity=False)


@pytest.mark.parametrize("tag,p,N", [
    ("sym", 1, 3), ("sym", 3, 2), ("sym", 6, 2), ("antisym", 2, 4), ("antisym", 3, 3),
    ("herm", 2, 3), ("herm", 4, 2), ("selfdual", 2, 2), ("selfdual", 6, 1),
])
@settings(max_examples=25)
@given(data=st.data())
def test_writer_bytes_equal_the_per_entry_oracle(tag, p, N, data):
    info = _class_info(tag)
    shape = (len(info.keys(p)), class_count(p, N))
    arr = data.draw(hnp.arrays(np.float64, shape, elements=WRITER_VALUES))
    # the antisymmetric components vanish on repeated-index classes
    arr[np.ix_(info.antisymmetric_rows(p), multiplicities(p, N) < math.factorial(p))] = 0.0
    t = CanonicalTensor(tag, p, N, arr)
    wire = dumps_tensor(t)
    assert wire == oracle_dumps_tensor(t)
    assert np.array_equal(loads_tensor(wire).array, oracle_loads_tensor(wire).array)


@pytest.mark.parametrize("t", [
    zeros("sym", 3, 2), zeros("antisym", 3, 3), zeros("herm", 2, 2), zeros("selfdual", 6, 1),
    identity_tensor(2, 3), identity_tensor(4, 2), identity_tensor(6, 5), identity_tensor(3, 2),
    CanonicalTensor("sym", 2, 2, {(): [-0.0, 5e-324, -0.0]}),
    # re zero or negative zero with a nonzero im writes "re" and "im"
    CanonicalTensor("herm", 2, 2, {(0,): [0.0, -0.0, 0.0], (1,): [0.0, -2.5, 0.0]}),
    CanonicalTensor("herm", 2, 3, {(0,): [0.0, 1e16, -0.0, 0.0, 0.0, 0.0],
                                   (1,): [0.0, 0.0, 1e-300, 0.0, -0.0, 0.0]}),
], ids=lambda t: f"{t.class_tag}-{t.p}-{t.N}")
def test_writer_bytes_equal_the_per_entry_oracle_on_edge_tensors(t):
    assert dumps_tensor(t) == oracle_dumps_tensor(t)
