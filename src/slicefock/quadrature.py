"""Gaussian-weighted quadrature on a complex plane inside the quaternions (2D)
and on the whole algebra (4D).

Both rules substitute s = scale * r^2 radially and use Gauss-Laguerre nodes,
so integrands decaying like exp(-scale |q|^2) times polynomials are captured
with near-spectral accuracy.  The plane rule pairs that with a uniform
angular grid on [0, 2pi) (trapezoid, exact for trigonometric polynomials of
degree below the node count).  The 4D rule writes q = rho (cos t + u sin t)
with t in [0, pi] and u on the imaginary sphere, where the volume element is
rho^3 sin^2(t) drho dt dsigma(u); the polar factor is handled by the
Gauss-Chebyshev rule of the second kind (nodes uniform in t) and the sphere
by a Gauss-Legendre (polar) times uniform (azimuth) product rule.  That
sphere rule serves :func:`integrate_volume` for a generic g(q) and sizes the
grid; norms and inner products of slice-regular series integrate the sphere
exactly through the representation formula (see :mod:`slicefock.spaces`)
and read only the radial and polar nodes.

Both angular rules sit on a uniform circle: plane node j is 2 pi j / N, and
volume node j is pi j / (N + 1) = 2 pi j / (2 (N + 1)), half of a circle
whose other half holds the conjugates.  ``circle_size`` and
``circle_index`` name that circle, so series values on a grid come from one
FFT per radius and column of the rows, in any basis (the plane kernel
:func:`slicefock.spaces._weighted_plane`), and the nodes themselves are
built only here (:func:`slice_points`).  The Laguerre,
Legendre and sphere rules are cached per node count and returned
read-only; every grid's arrays are read-only too.

Integrands must be assembled with their Gaussian decay included, e.g.
(|f(q)| e^{-alpha |q|^2 / 2})^p as one expression, never as a huge factor
times a tiny weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import IntegrandOverflowError

DEFAULT_RADIAL = 64
DEFAULT_ANGULAR = 128
DEFAULT_VOLUME_ANGULAR = 64
DEFAULT_SPHERE = 64

#: Laguerre weights underflow past this many radial nodes.
MAX_RADIAL = 192


@dataclass(frozen=True)
class QuadratureGrid:
    """Radial x angular (plane) or radial x angular x sphere (volume) rule.

    ``radial_weights`` already contain the Laguerre weight rescaled by the
    substitution Jacobian, so a plain weighted sum of integrand samples
    approximates the integral.
    """

    mode: str                      # "slice" | "volume"
    scale: float                   # s = scale * r^2
    radial_nodes: np.ndarray       # r values
    radial_weights: np.ndarray
    angular_nodes: np.ndarray
    angular_weights: np.ndarray
    sphere_units: np.ndarray | None = None     # (m, 3) rows on the sphere
    sphere_weights: np.ndarray | None = None

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def max_radius(self) -> float:
        return float(self.radial_nodes[-1])

    @property
    def sizes(self) -> tuple[int, ...]:
        if self.mode == "slice":
            return (self.radial_nodes.size, self.angular_nodes.size)
        return (self.radial_nodes.size, self.angular_nodes.size,
                self.sphere_units.shape[0])

    @property
    def circle_size(self) -> int:
        """Node count of the uniform circle holding the angular nodes."""
        n = self.angular_nodes.size
        return n if self.mode == "slice" else 2 * (n + 1)

    @property
    def circle_index(self) -> np.ndarray:
        """Position of each angular node on that circle: angular node j is
        2 pi circle_index[j] / circle_size."""
        n = self.angular_nodes.size
        return np.arange(n) if self.mode == "slice" else np.arange(1, n + 1)

    @property
    def plane_weights(self) -> np.ndarray:
        """(radial, angular) product weights of the plane or half-plane rule."""
        return np.outer(self.radial_weights, self.angular_weights)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=64)
def _scaled_laguerre(n: int, order: float):
    """Nodes s_i and weights w_i e^{s_i} for integrating s^order e^{-s} h(s)
    written as plain int h(s) s^order ... with the decay inside h."""
    from scipy.special import roots_genlaguerre, roots_laguerre

    if n > MAX_RADIAL:
        raise ValueError(
            f"radial node count {n} exceeds {MAX_RADIAL}; Laguerre weights "
            "underflow beyond that")
    if order == 0.0:
        s, w = roots_laguerre(n)
    else:
        s, w = roots_genlaguerre(n, order)
    return _read_only(s, np.exp(np.log(w) + s))


@functools.lru_cache(maxsize=64)
def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    from scipy.special import roots_legendre

    return _read_only(*roots_legendre(n))


def _check_counts(**counts: int) -> None:
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} node count must be at least 1, got {n}")


def slice_grid(scale: float, n_radial: int = DEFAULT_RADIAL,
               n_angular: int = DEFAULT_ANGULAR) -> QuadratureGrid:
    """Rule for integrals over one complex plane against the area element."""
    if scale <= 0.0:
        raise ValueError("radial scale must be positive")
    _check_counts(radial=n_radial, angular=n_angular)
    s, w = _scaled_laguerre(n_radial, 0.0)
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    return QuadratureGrid(
        mode="slice",
        scale=scale,
        radial_nodes=np.sqrt(s / scale),
        radial_weights=w / (2.0 * scale),
        angular_nodes=theta,
        angular_weights=np.full(n_angular, 2.0 * math.pi / n_angular),
    )


@functools.lru_cache(maxsize=64)
def _sphere_rule(n_sphere: int):
    n_polar = max(1, int(round(math.sqrt(n_sphere / 2.0))))
    n_azimuth = max(2, int(math.ceil(n_sphere / n_polar)))
    x, w = _legendre_rule(n_polar)
    psi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    sin_phi = np.sqrt(1.0 - x * x)
    units = np.empty((n_polar * n_azimuth, 3))
    units[:, 0] = np.outer(sin_phi, np.cos(psi)).ravel()
    units[:, 1] = np.outer(sin_phi, np.sin(psi)).ravel()
    units[:, 2] = np.repeat(x, n_azimuth)
    weights = np.repeat(w, n_azimuth) * (2.0 * math.pi / n_azimuth)
    return _read_only(units, weights)          # weights sum to 4 pi


def volume_grid(scale: float, n_radial: int = DEFAULT_RADIAL,
                n_angular: int = DEFAULT_VOLUME_ANGULAR,
                n_sphere: int = DEFAULT_SPHERE) -> QuadratureGrid:
    """Rule for integrals over the whole algebra against the 4D volume element.

    First-kind norms and operator errors read it only at p outside
    {2, 4, 6, 8}, where they integrate the sphere in closed form; at those
    p they, and the inner products, are coefficient sums that read no grid.
    The sphere rule it carries serves :func:`integrate_volume`.
    """
    if scale <= 0.0:
        raise ValueError("radial scale must be positive")
    if not 0.5 / scale / scale < math.inf:
        raise ValueError(f"radial scale {scale:g} too small: 1 / (2 scale^2) overflows")
    _check_counts(radial=n_radial, angular=n_angular, sphere=n_sphere)
    s, w = _scaled_laguerre(n_radial, 1.0)
    theta = math.pi * np.arange(1, n_angular + 1) / (n_angular + 1)
    ang_w = (math.pi / (n_angular + 1)) * np.sin(theta) ** 2
    units, sw = _sphere_rule(n_sphere)
    return QuadratureGrid(
        mode="volume",
        scale=scale,
        radial_nodes=np.sqrt(s / scale),
        radial_weights=w / (2.0 * scale * scale),
        angular_nodes=theta,
        angular_weights=ang_w,
        sphere_units=units,
        sphere_weights=sw,
    )


def refined(grid: QuadratureGrid) -> QuadratureGrid:
    """Same rule with every node count doubled."""
    if grid.mode == "slice":
        return slice_grid(grid.scale, 2 * grid.radial_nodes.size,
                          2 * grid.angular_nodes.size)
    return volume_grid(grid.scale, 2 * grid.radial_nodes.size,
                       2 * grid.angular_nodes.size,
                       2 * grid.sphere_units.shape[0])


def slice_points(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Flattened complex nodes r e^{i theta} and matching weights."""
    z = np.outer(grid.radial_nodes, np.exp(1j * grid.angular_nodes)).ravel()
    return z, grid.plane_weights.ravel()


def _check_finite(values: np.ndarray, nodes) -> None:
    """Refuse the first node whose row of ``values`` (one row per node) holds
    a non-finite number, named as a plain Python number."""
    bad = ~np.all(np.isfinite(values.reshape(len(values), -1)), axis=1)
    if np.any(bad):
        node = nodes[int(np.flatnonzero(bad)[0])]
        raise IntegrandOverflowError(
            f"integrand overflow at node {np.asarray(node).tolist()!r}", node=node)


def integrate_volume(g, grid: QuadratureGrid) -> float:
    """Integral over the algebra of a scalar field g(q), q an (n, 4) array.

    Points are visited slice by slice (per sphere node) in a fixed order, so
    results are deterministic.
    """
    if grid.mode != "volume":
        raise ValueError("integrate_volume needs a volume-mode grid")
    rho = grid.radial_nodes
    re = np.outer(rho, np.cos(grid.angular_nodes)).ravel()
    im = np.outer(rho, np.sin(grid.angular_nodes)).ravel()
    wq = grid.plane_weights.ravel()
    total = 0.0
    q = np.empty((re.size, 4))
    q[:, 0] = re
    for u, wu in zip(grid.sphere_units, grid.sphere_weights):
        q[:, 1:] = im[:, None] * u
        vals = np.asarray(g(q), dtype=float)
        _check_finite(vals, q)
        total += wu * float(np.dot(wq, vals))
    return total


def circle_average(h, n_nodes: int) -> float:
    """Trapezoid rule for int_{-pi}^{pi} h(t) dt on the periodic interval.

    Spectrally accurate for smooth 2pi-periodic h and exact for trigonometric
    polynomials of degree below ``n_nodes``; a pure mode at the node count
    aliases to its mean (documented failure mode).
    """
    t = -math.pi + 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    vals = np.asarray(h(t), dtype=float)
    return float(vals.sum() * (2.0 * math.pi / n_nodes))


def circle_nodes(n_nodes: int) -> np.ndarray:
    return -math.pi + 2.0 * math.pi * np.arange(n_nodes) / n_nodes
