"""Two kinds of failure: ConfigurationError for input outside its documented
range, shape or contract, NumericalError for a computation that diverged or
missed its accuracy (QuadraturePointError: one bad integrand point)."""


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
