"""Trapezoidal-rule convolution quadrature (TRCQ) toolkit.

Weight generation for Laplace-domain symbols, discrete causal convolution
engines, evaluation of the fully explicit a-priori error bound with its
complete constant chain, and numerical verification of every inequality the
error analysis rests on.

The package namespace is the union of the library modules' ``__all__``
lists: each public name is declared once, in its own module.
"""

__version__ = "0.1.0"

from . import bounds, convolution, functions, kernels, quadrature
from . import report, symbols, trmap, verify, weights
from .bounds import *  # noqa: F403
from .convolution import *  # noqa: F403
from .functions import *  # noqa: F403
from .kernels import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .report import *  # noqa: F403
from .symbols import *  # noqa: F403
from .trmap import *  # noqa: F403
from .verify import *  # noqa: F403
from .weights import *  # noqa: F403

__all__ = ["__version__"]
for _module in (
    bounds, convolution, functions, kernels, quadrature, report, symbols, trmap, verify, weights
):
    __all__ += _module.__all__
del _module
