"""JSON wire formats: tensors, group elements, trace graphs."""

import json

import numpy as np
import pytest

from conftest import random_tensor
from gte.cli import run
from gte.ensembles import EnsembleSpec, sample_batch
from gte.groups import haar_sample
from gte.invariants import TraceGraph, melon_graph
from gte.serialize import (
    dumps_graph,
    dumps_matrix,
    dumps_tensor,
    load_tensors,
    loads_graph,
    loads_matrix,
    loads_tensor,
)
from gte.tensor import identity_tensor, zeros


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


def test_tensor_dict_validation():
    for bad in [
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
    ]:
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
