"""The public names of the package: what each module exports exists, and
the serializer exports the string codec and the one tensor-file reader."""

import importlib
import pkgutil

import pytest

import gte
import gte.invariants
import gte.serialize
import gte.tensor

MODULES = ["gte"] + [f"gte.{m.name}" for m in pkgutil.iter_modules(gte.__path__)]


def test_serialize_exports_the_string_codec():
    assert sorted(gte.serialize.__all__) == [
        "dumps_graph", "dumps_matrix", "dumps_tensor", "load_tensors",
        "loads_graph", "loads_matrix", "loads_tensor",
    ]


def test_per_tuple_helpers_are_not_exported():
    # the class tables replace them: multiplicities(p, N)[k], paired_mask(p, N)[k];
    # the paired trace is the bouquet invariant, evaluate(bouquet_graph(p), t);
    # sorting a tuple is densify's _sort_classes, a component's symmetry
    # _class_info(tag).components(p)
    for mod in (gte, gte.invariants, gte.tensor):
        for name in ("multiplicity", "is_paired", "paired_trace", "paired_half_multiplicities",
                     "sort_with_sign", "component_is_symmetric"):
            assert not hasattr(mod, name), (mod.__name__, name)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
