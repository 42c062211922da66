"""Levy wave packet: states, densities, observables, uncertainty relation.

The packet is the plane-wave superposition with stretched-exponential
momentum weight

    phi(p, t) = exp{-|p - p0|^nu l^nu / 2 hbar^nu} exp{-i D |p|^alpha t / hbar}
    psi(x, t) = (A_nu / 2 pi hbar) integral dp phi(p, t) e^{i p x / hbar}
    A_nu      = sqrt(pi nu l / Gamma(1/nu))

which normalizes the position density to one.  Closed-form observables:
<x> = alpha D p0^(alpha-1) t (group-velocity drift), <p> = p0, and the
momentum moment <|p - p0|^mu> = (hbar/l)^mu Gamma((mu+1)/nu) / Gamma(1/nu).

The position moment reduces, in the dimensionless variables
eta0 = p0 l / (2^(1/nu) hbar) and tau = (D t / hbar)(2^(1/nu) hbar / l)^alpha,
to a spread factor

    N = (2^(1/nu) nu / 4 pi Gamma(1/nu)) integral dsigma |sigma|^mu |g(sigma)|^2
    g(sigma) = integral deta exp{i eta (sigma + alpha tau eta0^(alpha-1))}
               exp{-i tau |eta|^alpha - |eta - eta0|^nu}

via <|x - <x>|^mu> = (l / 2^(1/nu))^mu N; the inner double integral collapses
to |g|^2 because the two factors are complex conjugates.  Note the moment
prefactor: the mu = 0 normalization <1> = 1 forces (l/2^(1/nu))^mu, which a
naive reading of the product form (matching only at mu = nu) would miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, require_positive, within_floats
from .numerics import (
    ComplexField,
    GridSpec,
    PhysicalParams,
    adaptive_quadrature,
    grid_momenta,
    make_grid,
    to_position_space,
)

__all__ = [
    "PacketParams",
    "UncertaintyReport",
    "normalization_constant",
    "packet_momentum_state",
    "momentum_density",
    "packet_position_state",
    "suggest_grid",
    "tail_mass_estimate",
    "reduced_time",
    "reduced_carrier",
    "observable_means",
    "drift_velocity",
    "momentum_deviation",
    "gamma_ratio_deviation",
    "packet_spread_factor",
    "uncertainty_report",
]

# suggest_grid's wrapped-tail budget (a share of the norm) and point cap
_NORM_TOL = 1e-9
_N_MAX = 1 << 20
# packet_position_state's largest allowed off-grid probability mass
_TAIL_TOL = 1e-6
# packet_spread_factor's sigma residues per batched inverse FFT, and the
# reach of its cusp Gaussian in widths
_RESIDUES = 4
_GAUSS_REACH = 39


@dataclass(frozen=True)
class PacketParams:
    """Space scale l (cm), carrier momentum p0 > 0 (g cm/s), weight exponent nu."""

    l: float
    p0: float
    nu: float

    def __post_init__(self):
        require_positive("l", self.l)
        require_positive("p0", self.p0)
        if not (1.0 < self.nu <= 2.0):
            raise ConfigurationError(f"nu must lie in (1, 2], got {self.nu}")


@dataclass(frozen=True)
class UncertaintyReport:
    dx_mu: float
    dp_mu: float
    product: float
    bound: float
    n_factor: float
    eta0: float


def _check_nu(packet: PacketParams, params: PhysicalParams) -> None:
    if packet.nu > params.alpha:
        raise ConfigurationError(
            f"packet weight exponent nu={packet.nu} must not exceed alpha={params.alpha}"
        )


def normalization_constant(packet: PacketParams) -> float:
    """The packet's A_nu = sqrt(pi nu l / Gamma(1/nu)); scales as sqrt(l)."""
    return math.sqrt(math.pi * packet.nu * packet.l / math.gamma(1.0 / packet.nu))


def packet_momentum_state(p, t: float, packet: PacketParams, params: PhysicalParams):
    """phi(p, t); |phi| is t-independent and phi(p, 0) is real positive.  A
    weight scale l^nu or hbar^nu that leaves the floats raises NumericalError."""
    _check_nu(packet, params)
    p = np.asarray(p, dtype=float)
    l_nu, hbar_nu = (within_floats("momentum weight scale (l / hbar)^nu", lambda: x**packet.nu,
                                   positive=True, l=packet.l, hbar=params.hbar, nu=packet.nu)
                     for x in (packet.l, params.hbar))
    weight = np.exp(-np.abs(p - packet.p0) ** packet.nu * l_nu / (2.0 * hbar_nu))
    phase = np.exp(
        -1j * params.d_alpha * np.abs(p) ** params.alpha * t / params.hbar
    )
    out = weight * phase
    return complex(out) if out.ndim == 0 else out


def momentum_density(p, packet: PacketParams, params: PhysicalParams):
    """w(p) = (nu l / 2 hbar Gamma(1/nu)) exp{-|p-p0|^nu l^nu / hbar^nu}.

    Time independent and even about p0; integrates to one.
    """
    _check_nu(packet, params)
    p = np.asarray(p, dtype=float)
    pref = packet.nu * packet.l / (2.0 * params.hbar * math.gamma(1.0 / packet.nu))
    out = pref * np.exp(
        -np.abs(p - packet.p0) ** packet.nu
        * (packet.l / params.hbar) ** packet.nu
    )
    return float(out) if out.ndim == 0 else out


def reduced_carrier(packet: PacketParams, params: PhysicalParams) -> float:
    """eta0 = p0 l / (2^(1/nu) hbar)."""
    return packet.p0 * packet.l / (2.0 ** (1.0 / packet.nu) * params.hbar)


def reduced_time(t: float, packet: PacketParams, params: PhysicalParams) -> float:
    """tau = (D t / hbar) (2^(1/nu) hbar / l)^alpha; a tau that is not finite
    raises NumericalError naming the keys it comes from, as `thermal_law` does."""
    return within_floats("reduced time", lambda: params.d_alpha * t / params.hbar
                         * (2.0 ** (1.0 / packet.nu) * params.hbar / packet.l) ** params.alpha,
                         t=t, hbar=params.hbar, d_alpha=params.d_alpha, l=packet.l)


def suggest_grid(packet: PacketParams, params: PhysicalParams, t: float) -> GridSpec:
    """Grid sized so the packet's wrapped tails stay below 1e-9 of its norm
    (`_NORM_TOL`), with at most 2^20 points (`_N_MAX`).

    For nu < 2 the position density has |x|^(-2-2nu) power tails, so the
    domain length comes from the image-mass bound; the momentum reach covers
    the stretched-exponential weight.  At nu = 2 that bound is below the
    floor of 40 l (1 + |tau|) on each side of the drift, which then decides.
    The domain is snapped so that p0 falls exactly on the momentum grid,
    which makes grid momentum averages of the (p0-even) densities cancel
    symmetrically.  A non-finite t raises ConfigurationError, and a length
    or point count that leaves the floats raises NumericalError.
    """
    if not math.isfinite(t):
        raise ConfigurationError(f"t must be finite, got {t}")
    hbar, l, nu = params.hbar, packet.l, packet.nu
    s = 2.0 ** (1.0 / nu) * l  # conservative image scale of |phi|^2 in x (cm)
    c_nu = math.gamma(1.0 + nu) * math.sin(math.pi * nu / 2.0) / math.gamma(1.0 + 1.0 / nu)
    length_norm = s * (2.0 * c_nu / _NORM_TOL) ** (1.0 / (1.0 + nu))
    drift = abs(drift_velocity(packet, params) * t)
    tau = abs(reduced_time(t, packet, params))
    length = max(length_norm, 2.0 * (drift + 40.0 * l * (1.0 + tau)))
    # snap so p0 is a momentum-grid point
    dp_unit = 2.0 * math.pi * hbar / packet.p0
    length = max(1.0, round(length / dp_unit, 0)) * dp_unit  # a float: inf stays inf
    q_max = (hbar / l) * math.log(1e18) ** (1.0 / nu)
    p_need = packet.p0 + q_max + 6.0 * hbar / l
    dx_target = math.pi * hbar / p_need
    count = within_floats(f"packet grid of length {length:.3g} and spacing {dx_target:.3g}",
                          lambda: length / dx_target, l=l, p0=packet.p0, hbar=hbar, t=t)
    n = 1 << max(8, int(math.ceil(count)) - 1).bit_length()
    return make_grid(min(n, _N_MAX), length)


def tail_mass_estimate(
    psi: ComplexField, packet: PacketParams, params: PhysicalParams
) -> float:
    """Probability mass of psi beyond its grid, from w(p) past the momentum
    reach plus a power-law extrapolation of the position density at the edges."""
    grid = psi.grid
    mom_tail = adaptive_quadrature(
        lambda q: momentum_density(q, packet, params)
        + momentum_density(-q, packet, params),
        math.pi * params.hbar / grid.spacing, np.inf, rel_tol=1e-6, abs_tol=1e-14,
    )
    rho = np.abs(psi.values[[0, -1]]) ** 2
    # rho ~ C |x|^(-2-2nu): integral past the edge is rho_edge * |x| / (1+2nu)
    pos_tail = (rho[0] + rho[1]) * (grid.length / 2.0) / (1.0 + 2.0 * packet.nu)
    return float(mom_tail + pos_tail)


def packet_position_state(
    t: float,
    packet: PacketParams,
    params: PhysicalParams,
    grid: GridSpec | None = None,
) -> tuple[ComplexField, float]:
    """(psi, tail): psi_L(., t) on the grid, unit-normalized by construction,
    the state the observables (`observable_means`, `tail_mass_estimate`)
    take, and its estimated off-grid probability mass (`tail_mass_estimate`).

    Raises ConfigurationError for a non-finite t, and NumericalError (residual:
    the mass) when that mass exceeds 1e-6 (`_TAIL_TOL`) or is not a number.
    """
    if not math.isfinite(t):
        raise ConfigurationError(f"t must be finite, got {t}")
    if grid is None:
        grid = suggest_grid(packet, params, t)
    a_nu = normalization_constant(packet)
    phi = a_nu * np.asarray(packet_momentum_state(grid_momenta(grid, params), t, packet, params))
    psi = to_position_space(ComplexField(phi, grid))
    tail = tail_mass_estimate(psi, packet, params)
    if not tail <= _TAIL_TOL:
        raise NumericalError(
            f"estimated off-grid probability mass {tail:.3e} exceeds {_TAIL_TOL:.1e} at t={t}, "
            f"l={packet.l}, p0={packet.p0}, hbar={params.hbar}, d_alpha={params.d_alpha}; "
            "enlarge the domain", residual=tail,
        )
    return psi, tail


def drift_velocity(
    packet: PacketParams, params: PhysicalParams, *, exact: bool = False
) -> float:
    """Packet drift rate d<x>/dt.

    The group-velocity form alpha D p0^(alpha-1) is the sharp-packet limit;
    with exact=True the full momentum average alpha D <|p|^(alpha-1) sgn p>_w
    is taken by quadrature (the two differ at order (hbar / l p0)^2 and
    coincide for alpha = 2).
    """
    _check_nu(packet, params)
    a, d = params.alpha, params.d_alpha
    if not exact or a == 2.0:
        return a * d * packet.p0 ** (a - 1.0)
    mean = adaptive_quadrature(
        lambda p: p ** (a - 1.0)
        * (momentum_density(p, packet, params) - momentum_density(-p, packet, params)),
        0.0, np.inf, rel_tol=1e-11, points=[packet.p0],
    )
    return a * d * mean


def observable_means(
    psi: ComplexField, packet: PacketParams, params: PhysicalParams
) -> tuple[float, float]:
    """(<x>, <p>) of the packet state psi: self-normalized grid averages of
    the position density |psi|^2 and the momentum density w(p).

    Their closed forms are drift_velocity(packet, params) * t and p0.
    """
    rho = np.abs(psi.values) ** 2
    mean_x = float(np.sum(psi.grid.positions * rho) / np.sum(rho))
    p = grid_momenta(psi.grid, params)
    w = momentum_density(p, packet, params)
    mean_p = float(np.sum(p * w) / np.sum(w))
    return mean_x, mean_p


def momentum_deviation(mu: float, packet: PacketParams, params: PhysicalParams) -> float:
    """mu-root of the mean-mu momentum deviation <|p - p0|^mu>^(1/mu).

    Integrates the analytic, time-independent w(p) by adaptive quadrature.
    Requires mu < nu strictly, else the moment may diverge.
    """
    _check_nu(packet, params)
    if not (0.0 < mu < packet.nu):
        raise ConfigurationError(f"need 0 < mu < nu, got mu={mu}, nu={packet.nu}")
    pref = packet.nu * packet.l / (2.0 * params.hbar * math.gamma(1.0 / packet.nu))
    scale = packet.l / params.hbar
    moment = adaptive_quadrature(
        lambda q: 2.0 * pref * q**mu * np.exp(-((q * scale) ** packet.nu)),
        0.0, np.inf, rel_tol=1e-11,
    )
    return moment ** (1.0 / mu)


def gamma_ratio_deviation(mu: float, packet: PacketParams, params: PhysicalParams) -> float:
    """Closed form of `momentum_deviation`: (hbar/l) (Gamma((mu+1)/nu) / Gamma(1/nu))^(1/mu)."""
    return (params.hbar / packet.l) * (
        math.gamma((mu + 1.0) / packet.nu) / math.gamma(1.0 / packet.nu)
    ) ** (1.0 / mu)


def packet_spread_factor(
    alpha: float,
    mu: float,
    nu: float,
    tau: float,
    eta0: float,
) -> float:
    """The dimensionless position-spread factor N(alpha, mu, nu; tau, eta0).

    Evaluates g(sigma) on the sigma grid of a zero-padded n_fft-point inverse
    FFT of the eta window (n_fft from 2^18 to 2^23; sigma reach 1024 past the
    drift), without forming it: with m = 2^ceil(log2 n_phys) >= n_phys window
    points and p = n_fft / m >= 2, node k = r + p q is node q of an m-point
    inverse FFT of the window tilted by e^{2 pi i j r / n_fft}, so residues
    are transformed `_RESIDUES` at a time (a pruned FFT, Markel 1971) and
    |sigma|^mu |g|^2 is summed as they come.  The midpoint sums take the cusp
    at sigma = 0 out by subtracting h(0) times a Gaussian whose |sigma|^mu
    integral is closed form, h = |g|^2 and h(0) the sigma = 0 node's own value;
    the grid-moment oracle in tests/oracles.py uses the same subtraction.
    The result is self-normalized by the mu = 0 sum, which equals one exactly
    in the continuum.  A non-finite tau raises ConfigurationError, and a phase
    tau |eta|^alpha past the floats at the window's reach, or an FFT past 2^23
    points (|tau| > 3.0e5 at alpha = nu = 1.8, eta0 = 1.36), NumericalError
    before any array is allocated.
    """
    if not math.isfinite(tau):
        raise ConfigurationError(f"tau must be finite, got {tau}")
    if not (0.0 < mu < nu <= alpha <= 2.0):
        raise ConfigurationError(
            f"need 0 < mu < nu <= alpha <= 2, got mu={mu}, nu={nu}, alpha={alpha}"
        )
    half_width = math.log(1e16) ** (1.0 / nu) + 2.0
    within_floats("spread factor's phase tau |eta|^alpha at the eta window's reach",
                  lambda: abs(tau) * (abs(eta0) + half_width) ** alpha,  # nan: tau = 0 times inf
                  tau=tau, eta0=eta0, alpha=alpha)
    c0 = alpha * tau * eta0 ** (alpha - 1.0)
    d_eta = math.pi / (1024.0 + abs(c0))
    if not 2.0 * half_width <= d_eta * (1 << 22):  # 2^23 padded points, as in `_kernel_ray`
        need = 4.0 * half_width * (1024.0 + abs(c0)) / math.pi
        raise NumericalError(f"spread factor at tau={tau} needs {need:.3g} FFT points, past 2^23")
    n_phys = int(math.ceil(2.0 * half_width / d_eta))
    n_fft = max(1 << 18, 1 << (2 * n_phys - 1).bit_length())
    eta = eta0 - half_width + d_eta * np.arange(n_phys)
    f = np.exp(
        1j * eta * c0
        - 1j * tau * np.abs(eta) ** alpha
        - np.abs(eta - eta0) ** nu
    )
    d_sigma = 2.0 * math.pi / (n_fft * d_eta)
    m = 1 << (n_phys - 1).bit_length()
    p = n_fft // m
    rows = min(_RESIDUES, p)
    phase = (2.0 * math.pi / n_fft) * np.arange(n_phys)
    tilted = (d_eta * m) * f * np.exp(1j * np.outer(np.arange(rows), phase))
    step = np.exp(1j * rows * phase)
    sigma_q = (p * d_sigma) * np.fft.fftfreq(m, 1.0 / m)  # sigma at r = 0
    h0 = total = weighted = 0.0
    for r in range(0, p, rows):
        h = np.abs(np.fft.ifft(tilted, m)) ** 2
        if r == 0:
            h0 = float(h[0, 0])
        sigma = d_sigma * np.arange(r, r + rows)[:, None] + sigma_q
        total += float(np.sum(h))
        weighted += float(np.vdot(np.abs(sigma) ** mu, h))
        tilted *= step

    # the cusp Gaussian exp(-sigma^2 / 2 w^2) is exactly 0 past |sigma| = 38.6 w
    w = 16.0 * d_sigma
    u = d_sigma * np.arange(-16 * _GAUSS_REACH, 16 * _GAUSS_REACH + 1)
    gauss = np.exp(-(u * u) / (2.0 * w * w))

    def moment(k, plain, subtracted):
        closed = h0 * (math.sqrt(2.0) * w) ** (k + 1.0) * math.gamma((k + 1.0) / 2.0)
        return (plain - h0 * subtracted) * d_sigma + closed

    return moment(mu, weighted, float(np.vdot(np.abs(u) ** mu, gauss))) / moment(
        0.0, total, float(np.sum(gauss))
    )


def uncertainty_report(
    mu: float, tau: float, packet: PacketParams, params: PhysicalParams
) -> UncertaintyReport:
    """Uncertainty product against the fractional lower bound hbar/(2 alpha)^(1/mu)
    at reduced time tau (`reduced_time` of t).

    dx comes from the spread-factor route, dp from the closed gamma-ratio
    form; the bound comparison presumes nu = alpha.  NumericalError names l,
    p0 and hbar when the spread factor cannot be formed, and mu when dx_mu or
    the bound leaves the floats.
    """
    _check_nu(packet, params)
    nu, l, alpha, hbar = packet.nu, packet.l, params.alpha, params.hbar
    eta0 = reduced_carrier(packet, params)
    try:
        n_factor = packet_spread_factor(alpha, mu, nu, tau, eta0)
    except NumericalError as exc:
        raise NumericalError(f"{exc}; eta0 = p0 l / (2^(1/nu) hbar) at l={l}, "
                             f"p0={packet.p0}, hbar={hbar}") from exc
    keys = {"mu": mu, "l": l, "hbar": hbar}
    dx_mu = within_floats("dx_mu", lambda: (l / 2.0 ** (1.0 / nu)) * n_factor ** (1.0 / mu),
                          positive=True, **keys)
    bound = within_floats("bound hbar / (2 alpha)^(1/mu)",
                          lambda: hbar / (2.0 * alpha) ** (1.0 / mu), positive=True, **keys)
    dp_mu = gamma_ratio_deviation(mu, packet, params)
    product = dx_mu * dp_mu
    return UncertaintyReport(
        dx_mu=dx_mu,
        dp_mu=dp_mu,
        product=product,
        bound=bound,
        n_factor=n_factor,
        eta0=eta0,
    )
