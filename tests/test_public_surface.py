"""The public surface: each module's ``__all__`` is the one list of its public
names, and the package re-exports every one of them."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import crowdreg
from crowdreg import InvalidInputError

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


# One row per argument that a public callable used to accept, repair or fail
# on with a bare numpy error: (callable, valid keyword arguments, the
# argument, a bad value).  The call with the bad value must raise
# InvalidInputError naming the argument.
_DATA = crowdreg.CrowdDataset(np.eye(2), [0, 1], [0, 0], [1.0, 2.0], 1)
_FIT = dict(dataset=_DATA, weight_prior=crowdreg.default_weight_prior(2),
            precision_priors=crowdreg.default_precision_priors(1))
_POPULATION = dict(m=3, good=1, interval_good=(0.1, 1.0),
                   interval_bad=(1.0, 2.0), seed=0)
_POINTS = np.arange(8.0).reshape(4, 2)
_CENTERS = np.zeros((1, 2))
_SCHEME = crowdreg.PaymentScheme(1.0, 1.0, 2.0)
_WORKER = crowdreg.AnnotatorProfile(4.0,
                                    crowdreg.CostFunction("linear", (1.0,)))
_WITH_NAN = [[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]]
_HOUSING = dict(seed=0, n=20, d=2)
# a seed is an integer >= 0 or a sequence of them: numpy would raise its own
# error on the first three, read True as 1 and seed None from the system
_BAD_SEEDS = [-1, 1.5, "a", True, None, [3, -1]]

BOUNDARY_ROWS = [
    (crowdreg.fit_variational, _FIT, "max_sweeps", 1.5),
    (crowdreg.fit_variational, _FIT, "max_sweeps", True),
    (crowdreg.fit_variational, _FIT, "tolerance", np.inf),
    (crowdreg.make_annotators, _POPULATION, "m", True),
    (crowdreg.make_annotators, _POPULATION, "good", 1.5),
    (crowdreg.fit_centers, dict(X=_POINTS, k=2, seed=0), "k", 2.5),
    (crowdreg.fit_centers, dict(X=_POINTS, k=2, seed=0), "k", True),
    (crowdreg.fit_centers, dict(X=_POINTS, k=2, seed=0), "X", _WITH_NAN),
    # a cost given by family name, not as a CostFunction
    (crowdreg.AnnotatorProfile, dict(best_precision=1.0), "cost", "linear"),
    (crowdreg.RegretLedger.from_precisions, dict(precisions=[1.0, 2.0]),
     "precisions", []),
    (crowdreg.AnnotatorProfile, dict(best_precision=1.0), "best_precision",
     True),
    (crowdreg.TransformSpec, dict(centers=_CENTERS, scale=1.0), "scale", True),
    (crowdreg.TransformSpec, dict(centers=_CENTERS, scale=1.0), "centers",
     [[np.nan, 0.0]]),
    (crowdreg.PaymentScheme, dict(budget=1.0, beta_lower=1.0, beta_upper=2.0),
     "budget", True),
    (crowdreg.label_value,
     dict(profile=_WORKER, true_value=1.0, effort=1.0, noise=0.5),
     "effort", True),
    (crowdreg.label_value,
     dict(profile=_WORKER, true_value=np.ones(2), effort=1.0,
          noise=np.full(2, 0.5)),
     "noise", np.full(3, 0.5)),
    (crowdreg.label_value,
     dict(profile=_WORKER, true_value=1.0, effort=1.0, noise=0.5),
     "noise", "a"),
    # unequal shapes are not broadcast into a grid of labels
    (crowdreg.label_value,
     dict(profile=_WORKER, true_value=np.ones((2, 1)), effort=1.0,
          noise=np.ones((2, 1))),
     "noise", np.ones(3)),
    (crowdreg.label_value,
     dict(profile=_WORKER, true_value=1.0, effort=1.0, noise=0.5),
     "true_value", ["a"]),
    (crowdreg.CostFunction("linear", (1.0,)).__call__, dict(effort=1.0),
     "effort", "a"),
    (crowdreg.payment, dict(beta_hat=1.0, scheme=_SCHEME), "beta_hat", "a"),
    # a count is an integer >= 0: a fraction is not truncated to one
    (crowdreg.RegretLedger, dict(gaps=[0.0, 1.0], pulls=[0, 1]), "pulls",
     [0.5, 1.7]),
    (crowdreg.RegretLedger, dict(gaps=[0.0, 1.0], pulls=[0, 1]), "pulls",
     [-1, 3]),
    (crowdreg.RegretLedger, dict(gaps=[0.0, 1.0], pulls=[0, 1]), "pulls",
     ["a", 3]),
    # a count above int64's range would wrap negative in the ledger
    (crowdreg.RegretLedger, dict(gaps=[0.0, 1.0], pulls=[0, 1]), "pulls",
     np.array([0, 2**63], dtype=np.uint64)),
    (crowdreg.PrecisionPosterior, dict(shape=[1.0], rate=[1.0]), "shape",
     ["a"]),
    (crowdreg.PrecisionPosterior, dict(shape=[1.0], rate=[1.0]), "rate",
     ["b"]),
    (crowdreg.record_outcome,
     dict(state=crowdreg.BanditState(2, 1.0, 10), j=1, residual_sq=0.5),
     "residual_sq", "a"),
    (crowdreg.CostFunction, dict(kind="threshold", params=(1, 1, 1)),
     "params", (1, np.nan, 1)),
    (crowdreg.BanditState, dict(num_annotators=3, u=1.0, horizon=10),
     "u", np.inf),
    # 32 u log(horizon) overflows, so every UCB index would be +inf
    (crowdreg.BanditState, dict(num_annotators=3, u=1.0, horizon=10),
     "u", 1e308),
    # u * horizon overflows, so the cutoff would read inf by t = horizon
    (crowdreg.BanditState, dict(num_annotators=2, u=1.0, horizon=10000),
     "u", 1e305),
    (crowdreg.regret_bound, dict(gaps=[0.0, 1.0], u=1.0, horizon=10),
     "horizon", np.inf),
    (crowdreg.regret_bound, dict(gaps=[0.0, 1.0], u=1.0, horizon=10),
     "horizon", np.nan),
    (crowdreg.regret_bound, dict(gaps=[0.0, 1.0], u=1.0, horizon=10),
     "horizon", True),
    (crowdreg.normalize, dict(X=_POINTS), "X", _WITH_NAN),
    (crowdreg.transform,
     dict(x=_POINTS, spec=crowdreg.TransformSpec(_CENTERS, 1.0)),
     "x", _WITH_NAN),
    (crowdreg.truncated_mean, dict(samples=[0.5, 1.0], threshold=2.0),
     "samples", [np.nan, 1.0]),
    (crowdreg.regret_bound, dict(gaps=[0.0, 1.0], u=1.0, horizon=10),
     "gaps", [np.nan, 1.0]),
    (crowdreg.RegretLedger.from_precisions, dict(precisions=[1.0, 2.0]),
     "precisions", [np.inf, 1.0]),
    (crowdreg.default_weight_prior, dict(d=2), "d", True),
    (crowdreg.default_precision_priors, dict(m=2), "m", 2.5),
    (crowdreg.apply_normalization,
     dict(X=_POINTS, params=crowdreg.normalize(_POINTS)[1]), "X", _WITH_NAN),
    (crowdreg.det_shrinkage,
     dict(weights=crowdreg.default_weight_prior(2), x=[1.0, 0.0], beta=1.0),
     "beta", np.inf),
    *[(call, valid, "seed", bad)
      for call, valid in ((crowdreg.make_annotators, _POPULATION),
                          (crowdreg.fit_centers, dict(X=_POINTS, k=2, seed=0)),
                          (crowdreg.synthetic_housing_like, _HOUSING))
      for bad in _BAD_SEEDS],
    # numpy would fail on a fraction, and X on an empty draw, naming neither
    *[(crowdreg.synthetic_housing_like, _HOUSING, name, bad)
      for name in ("n", "d") for bad in (2.5, True, 0)],
]


@pytest.mark.parametrize("call, valid, name, bad", BOUNDARY_ROWS,
                         ids=[f"{row[0].__qualname__}-{row[2]}-{row[3]!r}"
                              for row in BOUNDARY_ROWS])
def test_a_bad_argument_fails_naming_it(call, valid, name, bad):
    call(**valid)
    with pytest.raises(InvalidInputError) as info:
        call(**dict(valid, **{name: bad}))
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)
