"""Error types shared across the library, and its checks of counts and reals.

``ValueError`` covers malformed inputs (bad parameters, out-of-domain
arguments).  The two classes below separate the remaining failure modes so
callers can tell a violated mathematical precondition from a numerical
routine that did not converge.

Every count a caller passes goes through :func:`check_count`: an integer or
integral float in range is used as an ``int``; anything else, inf, nan,
strings, complex numbers and None included, raises ``ValueError`` with a
message starting with its name.  Every scalar real parameter goes through
:func:`check_real` the same way: a finite real number inside the
parameter's bounds is returned as it came, anything else raises.
"""

import math
import numbers


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    The ``details`` mapping carries diagnostics (achieved residuals,
    subdivision counts) for error reports.
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = dict(details)


def check_count(name, value, low, high=math.inf):
    """``value`` as an int, if it is a real number, integral and in
    [low, high]; else a ``ValueError`` naming ``name``."""
    real = isinstance(value, numbers.Real)
    if not (real and float(value).is_integer() and low <= value <= high):
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_real(name, value, gt=None, ge=None, lt=None, le=None):
    """``value`` unchanged, if it is a finite real number with gt < value,
    ge <= value, value < lt and value <= le for each bound given; else a
    ``ValueError`` naming ``name``, the domain and the value."""
    if (isinstance(value, numbers.Real) and -math.inf < value < math.inf
            and (gt is None or value > gt) and (ge is None or value >= ge)
            and (lt is None or value < lt) and (le is None or value <= le)):
        return value
    bounds = ((">", gt), (">=", ge), ("<", lt), ("<=", le))
    domain = "".join(f" and {sign} {bound}" for sign, bound in bounds if bound is not None)
    raise ValueError(f"{name} must be finite{domain}, got {value!r}")
