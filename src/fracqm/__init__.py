"""Fractional quantum and statistical mechanics in one dimension."""

__version__ = "0.1.0"

from .numerics import (
    ComplexField,
    GridSpec,
    PhysicalParams,
    adaptive_quadrature,
    make_grid,
    to_momentum_space,
    to_position_space,
)

__all__ = [
    "__version__",
    "ComplexField",
    "GridSpec",
    "PhysicalParams",
    "adaptive_quadrature",
    "make_grid",
    "to_momentum_space",
    "to_position_space",
]
