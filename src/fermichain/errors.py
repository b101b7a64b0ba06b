"""Exception types shared across the package, and the argument checks that raise one."""

from numbers import Integral, Real

import numpy as np


class ParameterError(ValueError):
    """Invalid argument or violated precondition."""


class ConfigError(ParameterError):
    """Invalid scenario/sweep configuration; the message lists the offending fields."""


class CapacityError(ParameterError):
    """Problem size exceeds a configured capacity limit."""


class NumericalError(RuntimeError):
    """Propagator failure, with diagnostic context attached."""

    def __init__(self, message: str, **diagnostics):
        if diagnostics:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(diagnostics.items()))
            message = f"{message} ({detail})"
        super().__init__(message)
        self.diagnostics = diagnostics


def check_type(name: str, value, kind=Real) -> None:
    """Refuse, naming it, a value that is not a real number (kind Real) or an
    integer (kind Integral); a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParameterError(f"{name}={value!r} must be "
                             f"{'an integer' if kind is Integral else 'a real number'}")


def real_array(name: str, value) -> np.ndarray:
    """A float64 copy of value, refused, naming it, unless it is a rectangular array of reals."""
    try:
        if np.iscomplexobj(value):  # the cast would drop the imaginary part
            raise TypeError
        return np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must hold real numbers, got {value!r}") from None
