"""Bias, efficiency, and power of exposure tests in 2x2x2 case-control data.

The package compares three estimators of the exposure log odds ratio when
a binary covariate independent of exposure is marginalized over, adjusted
for, or adjusted for under a known-prevalence constraint: closed-form
asymptotics (``asymptotics``), finite-sample fitting (``estimators``),
exact expected tables and seeded Monte Carlo (``simulate``), and a CLI
(``cli``).

The package's public names are those listed in the ``__all__`` of
``errors``, ``model``, ``estimators``, ``asymptotics`` and ``simulate``,
plus ``__version__``; each is declared once, in its module's list.
"""

__version__ = "0.1.0"

from . import errors, model, estimators, asymptotics, simulate
from .errors import *
from .model import *
from .estimators import *
from .asymptotics import *
from .simulate import *

__all__ = [
    "__version__",
    *errors.__all__,
    *model.__all__,
    *estimators.__all__,
    *asymptotics.__all__,
    *simulate.__all__,
]
