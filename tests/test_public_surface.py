"""The public surface: each module's ``__all__`` is the one list of its public
names, and the package re-exports every one of them."""

import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import crowdreg

ROOT = Path(__file__).resolve().parents[1]

# every library module; the command line lives apart and exports nothing
MODULES = [importlib.import_module(f"crowdreg.{info.name}")
           for info in pkgutil.iter_modules(crowdreg.__path__)
           if info.name != "cli"]


def test_every_listed_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_no_name_is_in_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_lists_the_sorted_union():
    union = {name for module in MODULES for name in module.__all__}
    assert crowdreg.__all__ == sorted(union)
    for name in crowdreg.__all__:
        assert hasattr(crowdreg, name)


def test_star_import_binds_exactly_the_package_list():
    namespace = {}
    exec("from crowdreg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(crowdreg.__all__)


def test_predictive_is_the_one_variance_name():
    assert not hasattr(crowdreg, "instance_score")
    assert not hasattr(crowdreg.active, "instance_score")
    assert not hasattr(crowdreg.WeightPosterior, "quadform")


@pytest.mark.parametrize("make", [
    lambda: crowdreg.CrowdDataset(np.ones((2, 1)), [0], [0], [1.0], 1),
    lambda: crowdreg.WeightPosterior(np.zeros(2), np.eye(2)),
    lambda: crowdreg.PrecisionPosterior([1.0, 2.0], [1.0, 1.0]),
    lambda: crowdreg.TransformSpec(np.zeros((2, 1)), 1.0),
    lambda: crowdreg.RegretLedger([0.0, 1.0], [0, 0]),
], ids=["CrowdDataset", "WeightPosterior", "PrecisionPosterior",
        "TransformSpec", "RegretLedger"])
def test_array_holding_dataclasses_compare_by_identity(make):
    # field-wise == would compare arrays, whose truth value is ambiguous
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert crowdreg.__version__ == tomllib.load(fh)["project"]["version"]
