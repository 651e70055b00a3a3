"""Exception types shared across the package, and the one input contract
every numeric argument goes through."""

import math
import numbers
import operator


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NoConvergenceError(RuntimeError):
    """An iterative computation hit its term budget before its stop rule."""


class BoundNotApplicableError(RuntimeError):
    """The truncation bound requires an alternating, monotonically decaying
    tail, and the inspected terms do not satisfy that."""


class QuadratureError(RuntimeError):
    """Panel refinement failed to reach the requested quadrature tolerance."""


def as_int(v, low: int, what: str) -> int:
    """v as a Python int >= low, or DomainError("<what>, got v").

    Python ints and numpy integer scalars pass; bool, floats and
    non-numbers do not.
    """
    try:
        i = None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        i = None
    if i is None or i < low:
        raise DomainError(f"{what}, got {v!r}")
    return i


def as_real(v, what: str, *, ge=None, gt=None, le=None) -> float:
    """v as a finite Python float with v >= ge, v > gt and v <= le (each
    bound optional), or DomainError("<what>, got v").

    Python and numpy integer and float scalars pass, and the float is
    returned widened, so np.float32 input enters no arithmetic in single
    precision; bool, NaN, +-inf and non-numbers do not pass.
    """
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            f = float(v)
        except OverflowError:  # an int beyond the float range
            f = math.inf
        if (math.isfinite(f) and (ge is None or f >= ge) and (gt is None or f > gt)
                and (le is None or f <= le)):
            return f
    raise DomainError(f"{what}, got {v!r}")
