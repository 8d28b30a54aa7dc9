"""Boundary attainment tests for one-dimensional stochastic Volterra equations.

The library decides whether solutions of

    X_t = x0 + int_0^t K(t-s) b(X_s) ds + int_0^t K(t-s) sigma(X_s) dW_s

reach the endpoints of their state interval, for nonsingular convolution
kernels K with K(0) finite.  It provides the kernel data (``kernels``), the
resolvent of the first kind used to validate the standing hypotheses
(``resolvent``), scale and test functions (``scale``), the verdict logic
(``feller``), exponential-sum approximations of the fractional kernel
(``fracapprox``), Monte Carlo cross checks (``simulate``) and a command line
front end (``cli``).
"""

from . import kernels, resolvent, scale, feller, fracapprox
from . import simulate as _simulate  # the package's ``simulate`` is the function
from .kernels import *
from .resolvent import *
from .scale import *
from .feller import *
from .fracapprox import *
from .simulate import *

__all__ = [name for module in (kernels, resolvent, scale, feller, fracapprox, _simulate)
           for name in module.__all__]

__version__ = "0.1.0"
