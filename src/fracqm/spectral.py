"""The fractional Hamiltonian on a periodic grid, and split-operator evolution.

The Riesz derivative (hbar nabla)^alpha is diagonal in momentum space with
symbol -|p|^alpha (note the leading minus), so the kinetic half of
H = -D_alpha (hbar nabla)^alpha + V(x) has the positive symbol D_alpha |p|^alpha.
`kinetic_symbol` is it on the grid momenta, the one grid kinetic symbol, which
`evolve`, `energy_expectation` and `statmech` read; `Potential` is the other
half.  `evolve` integrates i hbar dpsi/dt = H psi in real time; the thermal
kernel equation -drho/dbeta = H rho is `statmech.bloch_density_matrix`'s.

Stepping is symmetric Strang splitting: a half potential factor, the exact
kinetic factor in momentum space, and another half potential factor.  Each
factor is unit-modulus, so the per-step L2 norm is conserved exactly up to
round-off, and a finite state stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericalError
from .numerics import ComplexField, GridSpec, PhysicalParams, apply_symbol, grid_momenta

__all__ = [
    "Potential",
    "EvolverConfig",
    "evolve",
    "energy_expectation",
    "refine_time_step",
]

# refine_time_step's acceptance level and its halving budget
_DEFECT_TOL = 1e-8
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class Potential:
    """External potential V(x), and its quadratic coefficient when it has one.

    `q2`, when set, is V's coefficient in V(x) = q2 x^2: `free` sets 0, and
    `harmonic` builds `func` from it, so the two agree.  `kind` is read from
    q2, so a trap at omega = 0 is the free particle for every consumer.
    """

    func: Callable[[np.ndarray], np.ndarray]
    q2: float | None = None

    def __post_init__(self):
        if self.q2 is not None and not (isinstance(self.q2, float) and np.isfinite(self.q2)):
            raise ConfigurationError(f"q2 must be None or a finite float, got {self.q2!r}")

    @property
    def kind(self) -> str:
        """V's shape, from q2: "custom" without it, "free" at 0, else "harmonic"."""
        return "custom" if self.q2 is None else "free" if self.q2 == 0.0 else "harmonic"

    @staticmethod
    def free() -> "Potential":
        return Potential(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0)

    @staticmethod
    def harmonic(mass: float, omega: float) -> "Potential":
        """V = (m omega^2 / 2) x^2; a mass or omega that is not finite, or a
        coefficient that overflows, raises ConfigurationError."""
        for name, value in (("mass", mass), ("omega", omega)):
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        try:
            q2 = float(0.5 * mass * omega**2)  # a float, as Potential requires
        except OverflowError:  # a float's square past the largest double
            q2 = np.inf
        if not np.isfinite(q2):
            raise ConfigurationError(
                f"mass {mass} and omega {omega} give a coefficient m omega^2 / 2 that overflows")

        def v(x):
            sq = np.square(np.asarray(x, dtype=float))  # one temporary, scaled in place
            sq *= q2
            return sq

        return Potential(v, q2)

    def on_grid(self, grid: GridSpec) -> np.ndarray:
        """V at the grid nodes; a V that overflows there raises ConfigurationError."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.asarray(self.func(grid.positions), dtype=float)
        if v.shape != grid.positions.shape:
            raise ConfigurationError("potential must map the grid to a same-shape array")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError(
                f"potential is not finite on the grid domain of length {grid.length}")
        return v


@dataclass(frozen=True)
class EvolverConfig:
    """Real-time stepping schedule: n_steps steps of dt seconds."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (0 < self.dt < np.inf):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ConfigurationError(f"n_steps must be >= 0, got {self.n_steps}")


def kinetic_symbol(grid: GridSpec, params: PhysicalParams) -> np.ndarray:
    """D_alpha |p|^alpha on the grid momenta (Nyquist included by magnitude).

    Its top is at the Nyquist momentum pi hbar / spacing; one past the
    largest double raises NumericalError naming the keys it comes from."""
    with np.errstate(over="ignore"):
        symbol = params.d_alpha * np.abs(grid_momenta(grid, params)) ** params.alpha
    if not np.isfinite(symbol[grid.n_points // 2]):
        raise NumericalError(
            f"kinetic symbol D |p|^alpha overflows at the Nyquist momentum pi hbar / spacing: "
            f"hbar={params.hbar}, d_alpha={params.d_alpha}, alpha={params.alpha}, "
            f"length={grid.length}, n_points={grid.n_points}")
    return symbol


def evolve(
    field: ComplexField,
    potential: Potential,
    params: PhysicalParams,
    config: EvolverConfig,
) -> ComplexField:
    """Real-time split-operator evolution of `field` through n_steps of size
    dt; a new field even at zero steps.  Raises ConfigurationError when the
    field or a phase factor is not finite (dt V or dt D |p|^alpha overflows)."""
    grid = field.grid
    v = potential.on_grid(grid)
    kin = kinetic_symbol(grid, params)
    with np.errstate(over="ignore", invalid="ignore"):
        half_v = np.exp(-0.5j * v * config.dt / params.hbar)
        kin_fac = np.exp(-1j * kin * config.dt / params.hbar)
    if not all(np.isfinite(f).all() for f in (half_v, kin_fac, field.values)):
        raise ConfigurationError("phase factors or initial field not finite")
    psi = field.values.copy()
    for _ in range(config.n_steps):
        np.multiply(half_v, psi, out=psi)
        psi = apply_symbol(psi, kin_fac)
        np.multiply(half_v, psi, out=psi)
    return ComplexField(psi, grid)


def energy_expectation(
    field: ComplexField, potential: Potential, params: PhysicalParams
) -> float:
    """<psi| H |psi> for a unit-normalized state (erg), from the two real arrays
    `evolve` steps with, `kinetic_symbol` and V on the grid."""
    nrm = field.norm()
    if not abs(nrm - 1.0) <= 1e-6:
        raise ConfigurationError(f"state must be normalized to 1, got norm {nrm}")
    v = potential.on_grid(field.grid)
    h_psi = apply_symbol(field.values, kinetic_symbol(field.grid, params)) + v * field.values
    return float(np.vdot(field.values, h_psi).real * field.grid.spacing)


def refine_time_step(
    field: ComplexField,
    potential: Potential,
    params: PhysicalParams,
    dt0: float,
) -> float:
    """Halve dt, at most 30 times (`_MAX_HALVINGS`), until the Strang defect
    on `field` drops below 1e-8 (`_DEFECT_TOL`).

    The defect compares one full step against two half steps, in L2 norm
    relative to the state norm.  A zero field raises ConfigurationError, and
    an unmet defect after the last halving raises NumericalError.
    """
    dt = dt0
    ref = field.norm()
    if ref == 0.0:
        raise ConfigurationError("cannot calibrate dt on a zero field")
    for _ in range(_MAX_HALVINGS):
        one = evolve(field, potential, params, EvolverConfig(dt, 1))
        two = evolve(field, potential, params, EvolverConfig(dt / 2.0, 2))
        defect = np.sqrt(
            np.sum(np.abs(one.values - two.values) ** 2) * field.grid.spacing
        ) / ref
        if defect < _DEFECT_TOL:
            return dt
        dt /= 2.0
    raise NumericalError(
        f"could not meet splitting defect {_DEFECT_TOL} within {_MAX_HALVINGS} halvings",
        residual=defect,
    )
