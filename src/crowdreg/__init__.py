"""Active learning for linear regression from noisy, strategic crowd
annotators: variational model, instance scoring, robust annotator selection,
payment mechanism, and an experiment harness.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them."""

from . import active, bandit, crowd, errors, features, harness, mechanism, model
from .active import *
from .bandit import *
from .crowd import *
from .errors import *
from .features import *
from .harness import *
from .mechanism import *
from .model import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (active, bandit, crowd, errors, features,
                                      harness, mechanism, model)
                  for name in module.__all__})
