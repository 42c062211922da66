"""Two kinds of failure: ConfigurationError for input outside its documented
range, shape or contract, NumericalError for a computation that diverged or
missed its accuracy (QuadraturePointError: one bad integrand point).

Two guards own the float-edge rule, so every module words it alike and no
other module catches OverflowError (tests/test_error_contract.py holds this):
`require_positive` refuses an input that is not positive and finite with
ConfigurationError, and `within_floats` forms a derived scalar (a power of
the user's constants, in Python floats, whose overflow raises instead of
warning) and refuses one that leaves the floats with NumericalError, naming
the keys it came from."""

import math


class ConfigurationError(ValueError):
    """An argument lies outside its documented range, shape or contract."""


class NumericalError(RuntimeError):
    """A computation diverged or missed its accuracy; carries any measured residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class QuadraturePointError(NumericalError):
    """An integrand returned a non-finite value or overflowed; names the abscissa."""

    def __init__(self, abscissa: float):
        super().__init__(f"integrand returned a non-finite value at x={abscissa!r}")
        self.abscissa = abscissa


def require_positive(name: str, value: float) -> None:
    """ConfigurationError "<name> must be positive, got <value>" unless 0 < value < inf."""
    if not (0.0 < value < math.inf):
        raise ConfigurationError(f"{name} must be positive, got {value}")


def within_floats(what: str, compute, *, positive: bool = False, **keys) -> float:
    """compute(), a Python-float quantity of the keys (OverflowError reads as inf), or
    NumericalError "<what> leaves the floats at k=v, ..." when it is not finite, or
    with `positive` (a scale) not above 0.  No numpy error state is touched."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not (0.0 < value < math.inf if positive else math.isfinite(value)):
        named = ", ".join(f"{k}={v}" for k, v in keys.items())
        raise NumericalError(f"{what} leaves the floats at {named}")
    return value
