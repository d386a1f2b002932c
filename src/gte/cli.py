"""Command-line entry point.

Subcommands: ``sample`` (ensemble draws as newline-delimited tensor JSON),
``act`` (apply a group element to tensors), ``invariant`` (evaluate trace
invariants, CSV for batches), ``graphs`` (emit or check trace graphs),
``identity`` (the identity tensor), and ``verify`` (the statistical suites).

Exit codes: 0 success or verification pass, 1 verification/computation
failure, 2 usage or input errors.  Every randomized subcommand takes an
explicit ``--seed``, and identical argv produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, FORMAT_VERSION
from .ensembles import EnsembleSpec, sample_batch, _streams
from .groups import act, flavor_for_class, haar_sample
from .harness import (
    derivative_identity_test,
    gaussianity_independence_test,
    invariance_test,
    isotropy_test,
    report_to_dict,
)
from .invariants import (
    TraceGraph,
    bouquet_graph,
    enumerate_rank2,
    evaluate,
    melon_graph,
    validate,
)
from .serialize import dumps_graph, dumps_tensor, load_tensors, loads_graph, loads_matrix
from .tensor import ClassViolationError, identity_tensor, _class_info


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gte",
        description="Gaussian tensor ensembles, group actions, trace invariants.",
    )
    top.add_argument("--version", action="version",
                     version=f"gte {__version__} (format {FORMAT_VERSION})")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sample", help="draw ensemble tensors (NDJSON)")
    p.add_argument("--kind", required=True, choices=["gote", "gute", "gste"])
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--dim", required=True, type=int, metavar="N")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("act", help="apply a group element to tensors")
    p.add_argument("--tensor", required=True, metavar="PATH")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", metavar="PATH")
    src.add_argument("--haar", action="store_true",
                     help="draw a fresh Haar element per input tensor")
    p.add_argument("--seed", type=int, help="required with --haar")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("invariant", help="evaluate trace invariants")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--graph", metavar="PATH")
    which.add_argument("--melon", action="store_true")
    which.add_argument("--bouquet", action="store_true")
    which.add_argument("--rank2", action="store_true",
                       help="the whole two-vertex family")
    p.add_argument("--tensor", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("graphs", help="emit or check trace graphs")
    p.add_argument("--p", type=int)
    p.add_argument("--flavor", choices=["real", "parity"], default="real")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--melon", action="store_true")
    which.add_argument("--bouquet", action="store_true")
    which.add_argument("--rank2", action="store_true")
    which.add_argument("--check", metavar="PATH",
                       help="validate a graph file instead of emitting")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("identity", help="write the identity tensor")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--dim", required=True, type=int, metavar="N")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("verify", help="run a statistical verification suite")
    p.add_argument("--suite", required=True, choices=list(_SUITES))
    # None marks a flag not given: derivative refuses these, and the other
    # suites fill in _ENSEMBLE_DEFAULTS
    p.add_argument("--kind", choices=["gote", "gute", "gste"])
    p.add_argument("--p", type=int)
    p.add_argument("--dim", type=int, metavar="N")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (default 5000; 100 trials for derivative)")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--json", action="store_true", dest="as_json")
    return top


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(what: str, path: str, load):
    """``load(path)``, with a file that cannot be read or parsed reported as
    an input error that names the file."""
    try:
        return load(path)
    except OSError as e:
        raise _InputError(f"cannot read {what} file {path}: {e.strerror}")
    except (ValueError, KeyError, TypeError) as e:
        raise _InputError(f"bad {what} file {path}: {e}")


def _text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graph_lines(path: str) -> list[TraceGraph]:
    """The graphs of a file, one per nonblank line, as the emit side writes."""
    lines = [ln for ln in _text(path).splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no graphs")
    graphs = []
    for i, ln in enumerate(lines, start=1):
        try:
            graphs.append(loads_graph(ln))
        except (ValueError, KeyError, TypeError) as e:
            raise ValueError(f"line {i}: {e}") from e
    return graphs


class _InputError(Exception):
    pass


def _fmt(x) -> str:
    """Full double-precision decimal."""
    return repr(float(x))


def _cmd_sample(args) -> int:
    spec = EnsembleSpec(args.kind, args.p, args.dim, beta=args.beta,
                        gamma=args.gamma, seed=args.seed)
    lines = [dumps_tensor(t) for t in sample_batch(spec, args.count)]
    _write("".join(ln + "\n" for ln in lines), args.out)
    return 0


def _cmd_act(args) -> int:
    tensors = _load("tensor", args.tensor, load_tensors)
    if args.haar and args.seed is None:
        raise _UsageError("--haar requires --seed")
    g_fixed = None
    if args.matrix:
        g_fixed = _load("matrix", args.matrix, lambda path: loads_matrix(_text(path)))
    rngs = _streams(args.seed, 0, len(tensors)) if args.haar else None
    out_lines = []
    for t in tensors:
        if g_fixed is not None:
            g = g_fixed
        else:
            g = haar_sample(flavor_for_class(t.class_tag), t.N, next(rngs))
        out_lines.append(dumps_tensor(act(g, t)))
    _write("".join(ln + "\n" for ln in out_lines), args.out)
    return 0


def _graphs_for(args, t) -> list[tuple[str, TraceGraph]]:
    info = _class_info(t.class_tag)
    if args.graph:
        return [("graph", _load("graph", args.graph, lambda path: loads_graph(_text(path))))]
    if args.melon:
        return [("melon", melon_graph(t.p, info.melon))]
    if args.bouquet:
        return [("bouquet", bouquet_graph(t.p, info.graph))]
    fam = enumerate_rank2(t.p, info.graph)
    return [(f"rank2[r={_cross_edges(g)}]", g) for g in fam]


def _cross_edges(g: TraceGraph) -> int:
    return sum(1 for (a, b) in g.edges if a[0] != b[0])


def _cmd_invariant(args) -> int:
    tensors = _load("tensor", args.tensor, load_tensors)
    if not tensors:
        raise _InputError(f"bad tensor file {args.tensor}: no tensors")
    graphs = _graphs_for(args, tensors[0])
    table = [[evaluate(g, t) for _, g in graphs] for t in tensors]
    if len(tensors) == 1 and len(graphs) == 1:
        v = table[0][0]
        text = _fmt(v) if not isinstance(v, complex) \
            else f"{_fmt(v.real)} {_fmt(v.imag)}"
        _write(text + "\n", args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    complex_any = any(isinstance(v, complex) for row in table for v in row)
    header = ["index"]
    for name, _ in graphs:
        header += [f"{name}.re", f"{name}.im"] if complex_any else [name]
    writer.writerow(header)
    for i, row in enumerate(table):
        cells = [str(i)]
        for v in row:
            if complex_any:
                c = complex(v)
                cells += [_fmt(c.real), _fmt(c.imag)]
            else:
                cells.append(_fmt(v))
        writer.writerow(cells)
    _write(buf.getvalue(), args.out)
    return 0


def _cmd_graphs(args) -> int:
    if args.check:
        graphs = _load("graph", args.check, _graph_lines)
        problems = []
        for i, g in enumerate(graphs, start=1):
            prefix = f"line {i}: " if len(graphs) > 1 else ""
            problems += [prefix + p for p in validate(g)]
        if problems:
            _write("".join(p + "\n" for p in problems), args.out)
            return 1
        _write("ok\n", args.out)
        return 0
    if args.p is None:
        raise _UsageError("--p is required unless --check is given")
    conv = {"real": "real", "parity": "hermitian"}[args.flavor]
    if args.melon:
        gs = [melon_graph(args.p, conv)]
    elif args.bouquet:
        gs = [bouquet_graph(args.p, args.flavor)]
    else:
        gs = enumerate_rank2(args.p, args.flavor)
    _write("".join(dumps_graph(g) + "\n" for g in gs), args.out)
    return 0


def _cmd_identity(args) -> int:
    _write(dumps_tensor(identity_tensor(args.p, args.dim)) + "\n", args.out)
    return 0


#: the ensemble ``gte verify`` tests when a flag is not given
_ENSEMBLE_DEFAULTS = {"kind": "gote", "p": 2, "dim": 2, "beta": 0.0, "gamma": 1.0}

#: ``gte verify --suite`` name -> (library suite, keyword of its sample
#: count, and for a suite that runs a fixed grid instead of the ensemble the
#: flags describe, why it takes no ensemble flags)
_SUITES = {
    "invariance": (invariance_test, "n_samples", None),
    "gaussianity": (gaussianity_independence_test, "n_samples", None),
    "derivative": (derivative_identity_test, "n_trials",
                   "runs its fixed grid of symmetric tensors (p <= 4, N <= 3)"),
    "isotropy": (isotropy_test, "n_samples", None),
}


def _cmd_verify(args) -> int:
    suite, count, fixed_grid = _SUITES[args.suite]
    given = {name: getattr(args, name) for name in _ENSEMBLE_DEFAULTS
             if getattr(args, name) is not None}
    if fixed_grid and given:
        flags = ", ".join(f"--{name}" for name in given)
        raise _UsageError(f"--suite {args.suite} {fixed_grid} and takes no {flags}")
    ens = {**_ENSEMBLE_DEFAULTS, **given}
    sampler = () if fixed_grid else (EnsembleSpec(
        ens["kind"], ens["p"], ens["dim"], beta=ens["beta"], gamma=ens["gamma"],
        seed=args.seed),)
    counts = {} if args.samples is None else {count: args.samples}
    report = suite(*sampler, seed=args.seed, **counts)
    if args.as_json:
        sys.stdout.write(json.dumps(report_to_dict(report),
                                    separators=(", ", ": ")) + "\n")
    else:
        head = (f"{report.test}: {'PASS' if report.passed else 'FAIL'} "
                f"statistic={_fmt(report.statistic)} "
                f"threshold={_fmt(report.threshold)} "
                f"n={report.n_samples} seed={report.seed}")
        if report.p_value is not None:
            head += f" min_p={_fmt(report.p_value)}"
        lines = [head]
        lines += [f"  failed: {s.name} statistic={_fmt(s.statistic)}"
                  for s in report.subtests if not s.passed]
        sys.stdout.write("".join(ln + "\n" for ln in lines))
    return 0 if report.passed else 1


class _UsageError(Exception):
    pass


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "sample": _cmd_sample,
        "act": _cmd_act,
        "invariant": _cmd_invariant,
        "graphs": _cmd_graphs,
        "identity": _cmd_identity,
        "verify": _cmd_verify,
    }[args.cmd]
    try:
        return handler(args)
    except _UsageError as e:
        parser.error(str(e))  # exits 2
    except _InputError as e:
        print(f"gte: {e}", file=sys.stderr)
        return 2
    except ClassViolationError as e:
        print(f"gte: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"gte: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        path = getattr(e, "filename", None)
        print(f"gte: cannot write {path}: {e.strerror}" if path
              else f"gte: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
