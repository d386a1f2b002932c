"""Command-line interface: argument handling, output formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gte.tensor
from gte.cli import run
from gte.ensembles import EnsembleSpec
from gte.groups import GroupElement, act, haar_sample
from gte.harness import (MIN_SAMPLES, derivative_identity_test, gaussianity_independence_test,
                         invariance_test, isotropy_test, report_to_dict)
from gte.invariants import bouquet_graph, evaluate, melon_graph
from gte.serialize import dumps_graph, dumps_matrix, load_tensors, loads_tensor
from gte.tensor import frobenius_norm_sq, identity_tensor


def _identity_file(tmp_path, p, N):
    path = str(tmp_path / f"id_{p}_{N}.ndjson")
    assert run(["identity", "--p", str(p), "--dim", str(N), "--out", path]) == 0
    return path


def test_identity_command_writes_the_right_entries(tmp_path, capsys):
    path = _identity_file(tmp_path, 4, 2)
    (t,) = load_tensors(path)
    assert t.entry((0, 0, 1, 1)) == pytest.approx(1.0 / 6.0)
    assert t.entry((0, 0, 0, 0)) == 1.0
    assert t.entry((0, 0, 0, 1)) == 0.0
    assert run(["identity", "--p", "4", "--dim", "2"]) == 0
    assert capsys.readouterr().out == Path(path).read_text()


def test_melon_invariant_single_value(tmp_path, capsys):
    path = _identity_file(tmp_path, 4, 2)
    assert run(["invariant", "--melon", "--tensor", path]) == 0
    out = capsys.readouterr().out
    # squared norm of the order-4 identity tensor, 13/6 up to summation order
    assert float(out) == pytest.approx(13.0 / 6.0, rel=1e-12)
    assert out == "2.166666666666666\n"


def test_bouquet_invariant_single_value(tmp_path, capsys):
    path = _identity_file(tmp_path, 4, 2)
    assert run(["invariant", "--bouquet", "--tensor", path]) == 0
    assert capsys.readouterr().out == "2.3333333333333335\n"


def test_rank2_family_csv(tmp_path, capsys):
    path = str(tmp_path / "batch.ndjson")
    assert run(["sample", "--kind", "gote", "--p", "3", "--dim", "2",
                "--seed", "17", "--count", "2", "--out", path]) == 0
    assert run(["invariant", "--rank2", "--tensor", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,rank2[r=3],rank2[r=1]"
    assert len(lines) == 3
    # cross-check one cell against the library
    tensors = [loads_tensor(ln) for ln in open(path)]
    from gte.invariants import enumerate_rank2
    g3 = enumerate_rank2(3, "real")[0]
    assert float(lines[1].split(",")[1]) == pytest.approx(
        evaluate(g3, tensors[0]), rel=1e-12)


def test_sample_is_reproducible(capsys):
    argv = ["sample", "--kind", "gute", "--p", "2", "--dim", "3",
            "--seed", "5", "--count", "4"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert len(lines) == 4
    for ln in lines:
        d = json.loads(ln)
        assert d["class"] == "herm" and d["p"] == 2 and d["N"] == 3


def test_act_with_fixed_matrix_matches_library(tmp_path, capsys):
    tpath = str(tmp_path / "t.ndjson")
    assert run(["sample", "--kind", "gote", "--p", "3", "--dim", "2",
                "--seed", "3", "--out", tpath]) == 0
    (t,) = load_tensors(tpath)
    g = haar_sample("orthogonal", 2, np.random.default_rng(44))
    mpath = str(tmp_path / "g.json")
    Path(mpath).write_text(dumps_matrix(g) + "\n")
    assert run(["act", "--tensor", tpath, "--matrix", mpath]) == 0
    got = loads_tensor(capsys.readouterr().out.strip())
    want = act(g, t)
    assert np.allclose(got.values, want.values)


def test_act_haar_is_seeded_per_line(tmp_path):
    tpath = str(tmp_path / "t.ndjson")
    assert run(["sample", "--kind", "gote", "--p", "2", "--dim", "2",
                "--seed", "1", "--count", "2", "--out", tpath]) == 0
    out1 = str(tmp_path / "a.ndjson")
    out2 = str(tmp_path / "b.ndjson")
    assert run(["act", "--tensor", tpath, "--haar", "--seed", "7",
                "--out", out1]) == 0
    assert run(["act", "--tensor", tpath, "--haar", "--seed", "7",
                "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()
    a, b = [loads_tensor(ln) for ln in open(out1)]
    assert not np.allclose(a.values, b.values)  # distinct rotations per line


def test_act_refuses_class_breaking_rotation(tmp_path, capsys):
    tpath = str(tmp_path / "h4.ndjson")
    assert run(["sample", "--kind", "gute", "--p", "4", "--dim", "2",
                "--seed", "2", "--out", tpath]) == 0
    assert run(["act", "--tensor", tpath, "--haar", "--seed", "0"]) == 1
    assert "gte:" in capsys.readouterr().err


def test_act_haar_keeps_large_gste_order_two_tensors(tmp_path, capsys):
    # entries near 100: rounding of the symplectic action exceeds an
    # absolute 1e-12 but stays far below 1e-12 of the largest entry
    tpath = str(tmp_path / "g.ndjson")
    assert run(["sample", "--kind", "gste", "--p", "2", "--dim", "30", "--gamma", "1e4",
                "--count", "10", "--seed", "1", "--out", tpath]) == 0
    assert run(["act", "--tensor", tpath, "--haar", "--seed", "2"]) == 0
    rotated = [loads_tensor(ln) for ln in capsys.readouterr().out.splitlines()]
    for t, u in zip(load_tensors(tpath), rotated, strict=True):
        assert frobenius_norm_sq(u) == pytest.approx(frobenius_norm_sq(t), rel=1e-12)


def test_act_refuses_orthogonal_matrix_with_imaginary_parts(tmp_path, capsys):
    tpath = str(tmp_path / "t.ndjson")
    assert run(["sample", "--kind", "gote", "--p", "2", "--dim", "2",
                "--seed", "1", "--out", tpath]) == 0
    mpath = str(tmp_path / "g.json")
    Path(mpath).write_text(json.dumps({"flavor": "orthogonal", "N": 2,
                                       "rows": [[[1, 0.5], [0, 0]], [[0, 0], [1, -3]]]}))
    assert run(["act", "--tensor", tpath, "--matrix", mpath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"gte: bad matrix file {mpath}: ")
    assert "imaginary" in captured.err


def test_act_haar_requires_seed(tmp_path, capsys):
    tpath = str(tmp_path / "t.ndjson")
    run(["sample", "--kind", "gote", "--p", "2", "--dim", "2",
         "--seed", "1", "--out", tpath])
    with pytest.raises(SystemExit) as exc:
        run(["act", "--tensor", tpath, "--haar"])
    assert exc.value.code == 2


def test_graphs_emit_and_check_round_trip(tmp_path, capsys):
    gpath = str(tmp_path / "g.ndjson")
    assert run(["graphs", "--melon", "--p", "4", "--out", gpath]) == 0
    assert run(["graphs", "--check", gpath]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_graphs_check_accepts_multi_line_family(tmp_path, capsys):
    gpath = str(tmp_path / "family.ndjson")
    assert run(["graphs", "--rank2", "--p", "4", "--out", gpath]) == 0
    assert len(open(gpath).read().splitlines()) > 1
    assert run(["graphs", "--check", gpath]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_graphs_check_flags_bad_line_in_family(tmp_path, capsys):
    good = dumps_graph(melon_graph(2, "real"))
    d = json.loads(good)
    d["edges"] = d["edges"][:1]
    gpath = str(tmp_path / "mixed.ndjson")
    with open(gpath, "w") as fh:
        fh.write(good + "\n" + json.dumps(d) + "\n")
    assert run(["graphs", "--check", gpath]) == 1
    out = capsys.readouterr().out
    assert out.startswith("line 2: ")


def test_graphs_check_rejects_bad_graph(tmp_path, capsys):
    bad = melon_graph(2, "real")
    d = json.loads(dumps_graph(bad))
    d["edges"] = d["edges"][:1]  # drop an edge: two legs left unmatched
    gpath = str(tmp_path / "bad.json")
    with open(gpath, "w") as fh:
        fh.write(json.dumps(d) + "\n")
    assert run(["graphs", "--check", gpath]) == 1
    assert capsys.readouterr().out != "ok\n"


def test_graphs_check_missing_file(capsys):
    assert run(["graphs", "--check", "/nonexistent/graph.json"]) == 2
    assert "gte:" in capsys.readouterr().err


def test_invariant_from_graph_file(tmp_path, capsys):
    gpath = str(tmp_path / "bouquet.json")
    assert run(["graphs", "--bouquet", "--p", "4", "--out", gpath]) == 0
    tpath = _identity_file(tmp_path, 4, 2)
    assert run(["invariant", "--graph", gpath, "--tensor", tpath]) == 0
    assert capsys.readouterr().out == "2.3333333333333335\n"


@pytest.mark.parametrize("field,value", [("p", "x"), ("p", 2.0), ("n", "2"), ("n", False)])
def test_non_integer_graph_order_or_size_is_an_input_error(tmp_path, capsys, field, value):
    d = json.loads(dumps_graph(melon_graph(2)))
    d[field] = value
    gpath = str(tmp_path / "g.json")
    Path(gpath).write_text(json.dumps(d) + "\n")
    tpath = _identity_file(tmp_path, 2, 2)
    assert run(["graphs", "--check", gpath]) == 2
    assert run(["invariant", "--graph", gpath, "--tensor", tpath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"gte: bad graph file {gpath}: line 1: p and n must be "
                            f"integers, got p={d['p']!r} n={d['n']!r}\n"
                            f"gte: bad graph file {gpath}: p and n must be "
                            f"integers, got p={d['p']!r} n={d['n']!r}\n")


_INPUT_ERRORS = [
    (["act", "--haar", "--seed", "1", "--tensor", "{missing}"],
     "gte: cannot read tensor file {missing}: No such file or directory\n"),
    (["invariant", "--melon", "--tensor", "{junk}"],
     "gte: bad tensor file {junk}: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)\n"),
    (["invariant", "--melon", "--tensor", "{empty}"], "gte: bad tensor file {empty}: no tensors\n"),
    (["act", "--tensor", "{tensor}", "--matrix", "{missing}"],
     "gte: cannot read matrix file {missing}: No such file or directory\n"),
    (["act", "--tensor", "{tensor}", "--matrix", "{junk}"],
     "gte: bad matrix file {junk}: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)\n"),
    (["act", "--tensor", "{tensor}", "--matrix", "{tensor}"],
     "gte: bad matrix file {tensor}: matrix object must have flavor/N/rows: "
     "missing 'flavor'\n"),
    (["invariant", "--tensor", "{tensor}", "--graph", "{missing}"],
     "gte: cannot read graph file {missing}: No such file or directory\n"),
    (["invariant", "--tensor", "{tensor}", "--graph", "{family}"],
     "gte: bad graph file {family}: Extra data: line 2 column 1 (char 118)\n"),
    (["graphs", "--check", "{missing}"],
     "gte: cannot read graph file {missing}: No such file or directory\n"),
    (["graphs", "--check", "{empty}"], "gte: bad graph file {empty}: no graphs\n"),
    (["graphs", "--check", "{tensor}"],
     "gte: bad graph file {tensor}: line 1: graph object must have p/n/flavor/edges: "
     "missing 'n'\n"),
]


@pytest.mark.parametrize("argv,err", _INPUT_ERRORS,
                         ids=[f"{a[0]}-{a[-1][1:-1]}" for a, _ in _INPUT_ERRORS])
def test_unreadable_and_malformed_input_files_are_named(tmp_path, capsys, argv, err):
    paths = {"missing": str(tmp_path / "missing.json"), "junk": str(tmp_path / "junk.json"),
             "empty": str(tmp_path / "empty.json"), "family": str(tmp_path / "family.json"),
             "tensor": _identity_file(tmp_path, 2, 2)}
    Path(paths["junk"]).write_text("{not json}\n")
    Path(paths["empty"]).write_text("\n")
    assert run(["graphs", "--rank2", "--p", "4", "--out", paths["family"]]) == 0
    assert run([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err.format(**paths)


_MISTYPED_TENSORS = {
    "bool-p-N": {"class": "sym", "p": True, "N": True, "entries": [{"idx": [1], "re": 1.0}]},
    "bool-float-idx": {"class": "sym", "p": 2, "N": 2,
                       "entries": [{"idx": [True, 1.0], "re": 1.0}]},
}


@pytest.mark.parametrize("case", sorted(_MISTYPED_TENSORS))
def test_mistyped_tensor_fields_are_input_errors(tmp_path, capsys, case):
    path = str(tmp_path / "t.ndjson")
    Path(path).write_text(json.dumps(_MISTYPED_TENSORS[case]) + "\n")
    assert run(["act", "--haar", "--seed", "1", "--tensor", path]) == 2
    assert run(["invariant", "--melon", "--tensor", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert all(ln.startswith(f"gte: bad tensor file {path}: ") for ln in lines)


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_tensor_values_are_input_errors(tmp_path, capsys, value):
    path = str(tmp_path / "t.ndjson")
    Path(path).write_text('{"class": "sym", "p": 2, "N": 2, "entries": '
                          f'[{{"idx": [1, 1], "re": {value}}}, {{"idx": [1, 2], "re": 5.0}}]}}\n')
    assert run(["act", "--haar", "--seed", "1", "--tensor", path]) == 2
    assert run(["invariant", "--melon", "--tensor", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    msg = (f"gte: bad tensor file {path}: entry with idx [1, 1]: re must be finite, "
           f"got {value.lower()[:3]}\n")
    assert captured.err == 2 * msg


@pytest.mark.parametrize("entry,msg", [
    # a 401-digit integer: json reads it exactly, past the double range
    ('{"idx": [1, 2], "re": 1' + "0" * 400 + "}",
     "entry with idx [1, 2]: re must be finite, got inf"),
    ('{"idx": [1, 99999999999999999999], "re": 1.0}',
     "idx [1, 99999999999999999999] out of range for p=2, N=2"),
])
def test_oversized_integers_are_input_errors(tmp_path, capsys, entry, msg):
    path = str(tmp_path / "t.ndjson")
    Path(path).write_text(f'{{"class": "sym", "p": 2, "N": 2, "entries": [{entry}]}}\n')
    assert run(["act", "--haar", "--seed", "1", "--tensor", path]) == 2
    assert run(["invariant", "--melon", "--tensor", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 2 * f"gte: bad tensor file {path}: {msg}\n"


def test_graph_check_refuses_fractional_edge_slots(tmp_path, capsys):
    d = json.loads(dumps_graph(melon_graph(2)))
    d["edges"][0][0] = [0.9, 1.7]
    path = str(tmp_path / "g.json")
    Path(path).write_text(json.dumps(d) + "\n")
    assert run(["graphs", "--check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"gte: bad graph file {path}: line 1: edges must be pairs "
                            "of [vertex, position] integer pairs\n")


def test_invariant_rejects_garbage_tensor_file(tmp_path, capsys):
    path = str(tmp_path / "junk.ndjson")
    with open(path, "w") as fh:
        fh.write("{not json}\n")
    assert run(["invariant", "--melon", "--tensor", path]) == 2
    assert "gte:" in capsys.readouterr().err


def test_verify_derivative_passes(capsys):
    assert run(["verify", "--suite", "derivative", "--seed", "0",
                "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("derivative-identity: PASS")


@pytest.mark.parametrize("samples", ["-3", "0", "7"])
def test_verify_derivative_refuses_fewer_trials_than_configurations(samples, capsys):
    assert run(["verify", "--suite", "derivative", "--seed", "0",
                "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 8 trials" in captured.err


@pytest.mark.parametrize("flags", [["--kind", "gste"], ["--p", "6", "--dim", "9"],
                                   ["--beta", "0"], ["--gamma", "1", "--kind", "gote"]])
def test_verify_derivative_refuses_ensemble_flags(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "derivative", "--seed", "0", "--samples", "8"] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = ", ".join(f for f in ("--kind", "--p", "--dim", "--beta", "--gamma") if f in flags)
    assert captured.err.endswith(f"takes no {named}\n")


def test_verify_defaults_equal_the_explicit_ensemble(capsys):
    base = ["verify", "--suite", "gaussianity", "--seed", "3", "--samples", "200"]
    outs = []
    for extra in ([], ["--kind", "gote", "--p", "2", "--dim", "2", "--beta", "0",
                       "--gamma", "1"]):
        assert run(base + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("gaussianity-independence: PASS")


def test_negative_seed_message_is_numpys(capsys):
    assert run(["sample", "--kind", "gote", "--p", "2", "--dim", "2", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gte: expected non-negative integer\n"


def test_size_guard_refuses_sample_and_act(tmp_path, monkeypatch, capsys):
    draws = str(tmp_path / "draws.ndjson")
    assert run(["sample", "--kind", "gote", "--p", "3", "--dim", "2",
                "--seed", "1", "--count", "2", "--out", draws]) == 0
    monkeypatch.setattr(gte.tensor, "MAX_DENSE_ENTRIES", 7)   # 2^3 = 8 entries
    out = str(tmp_path / "refused.ndjson")
    assert run(["sample", "--kind", "gote", "--p", "3", "--dim", "2",
                "--seed", "1", "--out", out]) == 2
    assert run(["act", "--haar", "--seed", "2", "--tensor", draws, "--out", out]) == 2
    # self-dual tensors are dense in dimension 2N: (2*2)^2 = 16 > 15
    monkeypatch.setattr(gte.tensor, "MAX_DENSE_ENTRIES", 15)
    assert run(["sample", "--kind", "gste", "--p", "2", "--dim", "2",
                "--seed", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("above the limit") == 3
    assert not (tmp_path / "refused.ndjson").exists()


@pytest.mark.parametrize("p", ["64", str(10**9)])
def test_sample_refuses_orders_above_63(tmp_path, capsys, p):
    out = tmp_path / "refused.ndjson"
    assert run(["sample", "--kind", "gote", "--p", p, "--dim", "1",
                "--seed", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"gte: p={p} is above 63: a numpy array has at most 64 "
                            "axes, and a stack of tensors needs one more than its p legs\n")
    assert not out.exists()


_COLD_START = """
import sys
import gte, gte.cli

work = sys.argv[1]
def gte_ok(*argv):
    code = gte.cli.main(list(argv))
    assert code == 0, (argv, code)

gte_ok("identity", "--p", "2", "--dim", "2", "--out", work + "/id.ndjson")
gte_ok("sample", "--kind", "gote", "--p", "3", "--dim", "2", "--count", "3",
       "--seed", "1", "--out", work + "/draws.ndjson")
gte_ok("act", "--haar", "--seed", "2", "--tensor", work + "/draws.ndjson",
       "--out", work + "/rotated.ndjson")
gte_ok("invariant", "--rank2", "--tensor", work + "/rotated.ndjson",
       "--out", work + "/rotated.csv")
print(",".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
gte_ok("verify", "--suite", "isotropy", "--p", "3", "--dim", "2",
       "--samples", "100", "--seed", "0")
print("scipy.stats" in sys.modules)
"""


def test_only_verify_imports_scipy(tmp_path):
    # not a timing gate: the commands that need no KS test load no scipy
    src = str(Path(gte.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scipy_modules, verify_line, loaded = proc.stdout.splitlines()
    assert scipy_modules == ""
    assert verify_line.startswith("isotropy: PASS")
    assert loaded == "True"


def test_verify_json_output_parses(capsys):
    code = run(["verify", "--suite", "gaussianity", "--kind", "gote",
                "--p", "2", "--dim", "2", "--samples", "400",
                "--seed", "11", "--json"])
    assert code == 0
    d = json.loads(capsys.readouterr().out)
    assert d["test"] == "gaussianity-independence"
    assert d["passed"] is True
    assert isinstance(d["subtests"], list) and d["subtests"]


def test_verify_isotropy_shifted_law_fails(capsys):
    assert run(["verify", "--suite", "isotropy", "--kind", "gote", "--p", "2",
                "--dim", "2", "--beta", "1.0", "--samples", "800", "--seed", "4"]) == 1
    assert "isotropy: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["invariance", "gaussianity", "derivative", "isotropy"])
def test_verify_has_no_centered_flag(capsys, suite):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", suite, "--seed", "0", "--samples", "200", "--centered"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("unrecognized arguments: --centered\n")


_ENSEMBLE_ARGV = ["--kind", "gote", "--p", "3", "--dim", "2", "--beta", "0.5", "--gamma", "2.0"]


@pytest.mark.parametrize("suite,test", [
    ("invariance", invariance_test),
    ("gaussianity", gaussianity_independence_test),
    ("derivative", derivative_identity_test),
    ("isotropy", isotropy_test),
])
def test_verify_json_is_the_library_report(capsys, suite, test):
    # the dispatch table routes each suite to its function with the
    # ensemble, the count and the seed that argv gives
    if suite == "derivative":
        argv, report = ["--samples", "8"], test(n_trials=8, seed=6)
    else:
        argv = _ENSEMBLE_ARGV + ["--samples", str(MIN_SAMPLES)]
        spec = EnsembleSpec("gote", 3, 2, beta=0.5, gamma=2.0, seed=6)
        report = test(spec, n_samples=MIN_SAMPLES, seed=6)
    code = run(["verify", "--suite", suite, "--seed", "6", "--json"] + argv)
    assert capsys.readouterr().out == json.dumps(report_to_dict(report),
                                                 separators=(", ", ": ")) + "\n"
    assert code == (0 if report.passed else 1)


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--kind", "gote", "--p", "2", "--dim", "2"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "gte" in capsys.readouterr().out


def test_console_script_matches_in_process(tmp_path, capsys):
    assert run(["identity", "--p", "2", "--dim", "2"]) == 0
    want = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "gte.cli", "identity",
                           "--p", "2", "--dim", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == want


def test_verify_gaussianity_refuses_oversized_families(capsys):
    code = run(["verify", "--suite", "gaussianity", "--kind", "gste", "--p", "14",
                "--dim", "1", "--seed", "3", "--samples", "100"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m = 8128 live entries" in captured.err and "limit of 1024" in captured.err
