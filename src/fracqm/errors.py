"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid construction parameters (grid sizes, physics constants, configs)."""


class GridMismatchError(ValueError):
    """A field's values and its grid, or two fields' grids, differ in shape."""


class ContractError(ValueError):
    """A documented precondition was violated (e.g. unnormalized state, mu >= nu)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge; carries the residual estimate."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class QuadraturePointError(NumericalError):
    """An integrand returned a non-finite value or overflowed; names the abscissa."""

    def __init__(self, abscissa: float):
        super().__init__(f"integrand returned a non-finite value at x={abscissa!r}")
        self.abscissa = abscissa


class DomainTooSmallError(ValueError):
    """Too much probability mass lies beyond the configured domain."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(message)
        self.tail_mass = tail_mass
