"""The public surface: the package's exact names, and the names the benchmark's tracer patches.

``bench/spans.py`` wraps the functions listed in its ``TRACED`` table by
``getattr``; a public name deleted from ``lueders`` would make every traced
benchmark run fail.  The table is read from the file, nothing is patched.
The package's own ``__all__`` is pinned name by name, so adding or removing
a public name is a deliberate edit here.  Every error class must have a
``raise`` in the package source, so a class nothing raises cannot linger.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import lueders
from lueders import errors

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = tuple(sorted(info.name for info in pkgutil.iter_modules(lueders.__path__)))


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name,attr,label", _traced())
def test_traced_entry_resolves(module_name, attr, label):
    obj = importlib.import_module(f"lueders.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj) or isinstance(obj, property), label


@pytest.mark.parametrize("module_name", ("",) + MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(f"lueders.{module_name}" if module_name else "lueders")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _exported_callables():
    for module_name in MODULES:
        module = importlib.import_module(f"lueders.{module_name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                yield pytest.param(obj, id=f"{module_name}.{name}")


@pytest.mark.parametrize("obj", _exported_callables())
def test_no_exported_callable_takes_a_tolerance(obj):
    # The thresholds are the constants of lueders.tolerances; no caller picks its own.
    assert not {"tol", "drop_tol"} & set(inspect.signature(obj).parameters)


# The paper's objects, the typed errors and the file format; kernel primitives live in lueders.matkernel.
PUBLIC = [
    "ChannelNormCertificate", "CommutesNoWitness", "ContractionReport", "DimensionMismatch",
    "Effect", "EffectSet", "InvalidArgument", "JointBlock", "LuedersError",
    "LuedersOperation", "NagySolution", "Normalization", "NotHermitian", "NotSquare", "NotSubnormalized",
    "OperatorSubspace", "ParseError", "RefinementVanished", "ResolutionExhausted",
    "SpectrumAboveOne", "SpectrumBelowZero", "TheoremReport", "Undecided", "WitnessCertificate",
    "build_contractive_block", "build_effect_set", "channel_norm", "commutant",
    "contraction_bound", "contraction_threshold", "dump_effect_set", "dump_operator",
    "effect_set_to_json", "fixed_point_space", "generate_commuting_resolution",
    "generate_commuting_subnormalized", "generate_noncommuting_resolution",
    "is_undisturbed_state", "joint_eigenspaces", "load_effect_set", "load_operator",
    "nagy_solve", "operator_to_json", "parse_effect_set", "parse_operator", "spectral_window",
    "validate_effect", "verify_resolution_fixed_points", "verify_subnormalized_fixed_points",
    "witness_search",
]
KERNEL = ["SubspaceComparison", "hermitian_eigendecompose", "nullspace", "operator_norm",
          "orthonormalize", "subspaces_equal"]


def test_package_exports_exactly_the_pinned_names():
    assert len(PUBLIC) == 50
    assert sorted(lueders.__all__) == PUBLIC
    assert set(KERNEL) <= set(importlib.import_module("lueders.matkernel").__all__)


def _raised_names():
    for path in Path(lueders.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised():
    classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.LuedersError) and obj is not errors.LuedersError
    }
    assert classes - set(_raised_names()) == set()
    assert len(classes) == 12
