"""Gaussian-weighted integral norms of slice-regular series, of two kinds.

The first kind weighs |f|^p e^{-p alpha |q|^2 / 2} over the whole algebra
with prefactor (alpha p / 2 pi)^2; the second kind weighs the same density
over a single complex plane with prefactor alpha p / 2 pi, optionally taking
the sup over planes (realized as a max over a deterministic sphere sample).
On a fixed plane the monomials are orthogonal, with
|| q^k ||^2 = k! / alpha^k at p = 2; over the whole algebra they are not:
powers whose degrees differ by exactly two overlap.

Every sphere integral is exact.  On q = x + u y the representation formula
gives f(q) = a + u b for every unit u, with (a, b) = (Re S, Im S) for the
componentwise sum S(z) = sum_k z^k a_k at z = x + i y
(:func:`slice_components`).  So |f|^2 = A + u.w is
affine in u and the sphere integral of its p/2-th power has a closed form,
while conj(f) g integrates to 4 pi (conj(a_f) a_g + conj(b_f) b_g).
First-kind norms and inner products thus evaluate one plane per grid; the
sphere rule a volume grid carries serves only generic integrands
(:func:`integrate_volume`).  The sup over planes reads each sampled plane
from the same (a, b).

Every grid evaluation goes through :func:`slicefock.series.eval_polar`, one
FFT per radius: plane norms and inner products read the grid's circle
directly, and (a, b) on a plane or volume grid are Re S and Im S on the
same circle (:func:`slicefock.series.polar_components`).

Membership is decided numerically: the radial profile of the weighted
integrand must decay toward the grid boundary and the value must be stable
under grid refinement, otherwise the function is reported as outside the
space.  A generator whose closed-form max-modulus type exceeds the weight's
alpha / 2 (gauss:<beta> with |beta| > alpha / 2) is reported outside the
space before its tail is certified, because its tail cannot be certified
on a grid that reaches where the weighted integrand grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInSpaceError, RefinementError, TruncationError
from .prng import SplitMix64
from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    UNIT_I,
    quat_conj_array,
    quat_mul_array,
    sphere_grid,
    units_array,
)
from .quadrature import (
    DEFAULT_ANGULAR,
    DEFAULT_RADIAL,
    DEFAULT_SPHERE,
    DEFAULT_VOLUME_ANGULAR,
    QuadratureGrid,
    _check_finite,
    _legendre_rule,
    refined,
    slice_grid,
    slice_points,
    volume_grid,
)
from .series import (
    SliceSeries,
    _polar_sum,
    eval_on_slice,  # noqa: F401  (kept in this namespace for its importers)
    eval_polar,
    max_modulus_type,
    polar_components,
    prepared_for_radius,
    slice_components,
    underflow_drop_logs,
)

#: A certified truncation or underflow tail may contribute at most this
#: relative amount to a reported norm.
NORM_TAIL_BUDGET = 1e-10

#: Sphere sample size used to realize the sup over planes.
DEFAULT_SUP_SAMPLES = 32

#: Relative change under grid refinement beyond which a norm is rejected:
#: as divergent when it grows, as unresolved by the grid otherwise.
DIVERGENCE_GROWTH = 1e-2

#: Area of the imaginary unit sphere: the sphere integral of a constant.
SPHERE_AREA = 4.0 * math.pi

#: Gauss-Legendre node count of the zonal underflow integral (first kind).
_ZONAL_NODES = 16


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class NormSpec:
    """Which weighted norm to evaluate.

    kind "first" integrates over the whole algebra; kind "second" over one
    plane, identified by ``slice_unit``, or as a max over ``sup_samples``
    sampled planes when that is set instead.
    """

    kind: str
    p: float
    alpha: float
    slice_unit: ImaginaryUnit | None = None
    sup_samples: int | None = None

    def __post_init__(self):
        if self.kind not in ("first", "second"):
            raise ValueError(f"kind must be 'first' or 'second', got {self.kind!r}")
        _check_positive("exponent p", self.p)
        _check_positive("weight parameter alpha", self.alpha)
        if self.kind == "second":
            if self.slice_unit is not None and self.sup_samples is not None:
                raise ValueError("give either a slice unit or a sup sampling count")
            if self.slice_unit is None and self.sup_samples is None:
                object.__setattr__(self, "slice_unit", UNIT_I)
        else:
            if self.slice_unit is not None or self.sup_samples is not None:
                raise ValueError("first-kind norms take no slice policy")

    @property
    def scale(self) -> float:
        """Radial decay rate of the weighted integrand, alpha p / 2."""
        return self.alpha * self.p / 2.0

    def slice_label(self) -> str | None:
        if self.kind == "first":
            return None
        if self.sup_samples is not None:
            return f"sup:{self.sup_samples}"
        u = self.slice_unit
        for name, ref in (("i", (1, 0, 0)), ("j", (0, 1, 0)), ("k", (0, 0, 1))):
            if (u.x, u.y, u.z) == ref:
                return name
        return f"{u.x!r},{u.y!r},{u.z!r}"


@dataclass(frozen=True)
class NormReport:
    """Norm value with the numerical evidence behind it."""

    value: float
    kind: str
    p: float
    alpha: float
    slice_label: str | None
    grid_sizes: tuple[int, ...]
    tail_bound: float
    stability: float

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "alpha": self.alpha,
            "slice": self.slice_label,
            "value": self.value,
            "grid": list(self.grid_sizes),
            "tail_bound": self.tail_bound,
        }


def default_grid(spec: NormSpec, n_radial: int | None = None,
                 n_angular: int | None = None,
                 n_sphere: int | None = None) -> QuadratureGrid:
    """Library default rule for ``spec``; a count left as None takes its
    default.  ``n_sphere`` only sizes the sphere rule a volume grid carries
    for :func:`integrate_volume` (norms integrate the sphere exactly)."""
    n_radial = DEFAULT_RADIAL if n_radial is None else n_radial
    if spec.kind == "second":
        return slice_grid(spec.scale, n_radial,
                          DEFAULT_ANGULAR if n_angular is None else n_angular)
    return volume_grid(spec.scale, n_radial,
                       DEFAULT_VOLUME_ANGULAR if n_angular is None else n_angular,
                       DEFAULT_SPHERE if n_sphere is None else n_sphere)


def _half_weight(grid: QuadratureGrid, alpha: float) -> np.ndarray:
    """e^{-alpha r^2 / 2} per radial node, shaped to scale (R, n, 4) values."""
    return np.exp(-0.5 * alpha * grid.radial_nodes ** 2)[:, None, None]


def _plane_values(f: SliceSeries, unit: ImaginaryUnit,
                  grid: QuadratureGrid) -> np.ndarray:
    """Values of a prepared f at the grid's (radial, angular) nodes on the
    plane of ``unit``, shape (R, n, 4)."""
    return eval_polar(f, unit, grid.radial_nodes,
                      grid.circle_size)[:, grid.circle_index]


def _weighted_components(f: SliceSeries, grid: QuadratureGrid, alpha: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of :func:`slice_components` for a prepared f at the
    grid's nodes, each (R, n, 4) and carrying the weight
    e^{-alpha |z|^2 / 2}."""
    a, b = polar_components(f, grid.radial_nodes, grid.circle_size,
                            grid.circle_index)
    half = _half_weight(grid, alpha)
    return a * half, b * half


def _check_grid_finite(values: np.ndarray, grid: QuadratureGrid) -> None:
    """:func:`_check_finite` on (radial, angular) samples; the nodes are
    built only to name a failing one."""
    if not np.all(np.isfinite(values)):
        _check_finite(values.ravel(), slice_points(grid)[0])


def _check_tail_budget(raw: float, delta: float, p: float) -> None:
    """The evaluation-error contribution ``delta`` to the raw p-th power must
    stay below NORM_TAIL_BUDGET of the result (norm scale: raw / p)."""
    if not math.isfinite(delta) or delta > NORM_TAIL_BUDGET * max(raw, 1e-300) * p:
        raise TruncationError(
            "truncated-tail contribution bound exceeds "
            f"{NORM_TAIL_BUDGET:g} of the result")


def _plane_raw_power(amp: np.ndarray, grid: QuadratureGrid,
                     p: float, alpha: float, err_logs: np.ndarray | None
                     ) -> tuple[float, np.ndarray, float]:
    """Raw integral of amp^p over the plane grid, its radial profile and the
    underflow contribution, from the (radial, angular) weighted amplitude."""
    with np.errstate(over="ignore"):       # reported as a non-finite sample
        integ = amp ** p
    _check_grid_finite(integ, grid)
    shell = integ @ grid.angular_weights
    profile = grid.radial_weights * shell
    raw = float(np.sum(profile))
    delta_total = 0.0
    if err_logs is not None and np.any(err_logs > -math.inf):
        damped = np.exp(err_logs - 0.5 * alpha * grid.radial_nodes ** 2)
        delta = ((amp + damped[:, None]) ** p - integ) @ grid.angular_weights
        delta_total = float(np.dot(grid.radial_weights, delta))
    return raw, profile, delta_total


def _slice_raw_power(f: SliceSeries, unit: ImaginaryUnit, grid: QuadratureGrid,
                     p: float, alpha: float,
                     err_logs: np.ndarray | None = None
                     ) -> tuple[float, np.ndarray, float]:
    """Raw integral of (|f| w_alpha)^p over the plane plus its radial profile.

    ``err_logs`` optionally bounds (log scale, per radial node) the pointwise
    evaluation error of f; its weighted contribution is checked against the
    norm tail budget.
    """
    # |f| times the weight before any power, so growth-bounded f never overflows
    vals = _plane_values(f, unit, grid) * _half_weight(grid, alpha)
    with np.errstate(over="ignore"):       # reported as a non-finite sample
        amp = np.sqrt(np.sum(np.square(vals), axis=-1))
    return _plane_raw_power(amp, grid, p, alpha, err_logs)


def _affine_square(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|a + u b|^2 = A + u.w for every unit u: returns A and the (..., 3) w,
    inf or nan past the float range (reported as a non-finite sample)."""
    with np.errstate(over="ignore", invalid="ignore"):
        amp_sq = np.sum(a * a, axis=-1) + np.sum(b * b, axis=-1)
        return amp_sq, 2.0 * quat_mul_array(a, quat_conj_array(b))[..., 1:]


def _sphere_power(amp_sq: np.ndarray, wnorm: np.ndarray, p: float) -> np.ndarray:
    """int over the unit sphere of (A + u.w)^(p/2) d sigma(u), in closed form
    2 pi (b^s - a^s) / (s |w|) with s = p/2 + 1, a = A - |w|, b = A + |w|.

    b^s - a^s is taken as a^s expm1(s log1p(2|w|/a)) while a > b/2, so no
    digits cancel when |w| is small against A; |w| = 0 gives 4 pi A^(p/2).
    """
    s = 0.5 * p + 1.0
    b = amp_sq + wnorm
    a = np.maximum(amp_sq - wnorm, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        close = a > 0.5 * b
        diff = np.where(close, a ** s * np.expm1(s * np.log1p(2.0 * wnorm / a)),
                        b ** s - a ** s)
        value = 2.0 * math.pi * diff / (s * wnorm)
    return np.where(wnorm > 0.0, value, SPHERE_AREA * amp_sq ** (0.5 * p))


def _sphere_underflow(amp_sq: np.ndarray, wnorm: np.ndarray, damped: np.ndarray,
                      p: float) -> np.ndarray:
    """int over the unit sphere of (sqrt(A + u.w) + d)^p - (A + u.w)^(p/2).

    The integrand depends on u only through t = u.w/|w|, so the sphere
    integral is 2 pi int_{-1}^{1} G(sqrt(A + |w| t)) dt with
    G(v) = (v + d)^p - v^p.  With v = sqrt(A + |w| t) that is
    2 pi (2 / (sqrt(a) + sqrt(b))) int_{sqrt a}^{sqrt b} G(v) v dv, whose
    integrand is smooth (a polynomial for integer p), taken by Gauss-Legendre.
    """
    ra = np.sqrt(np.maximum(amp_sq - wnorm, 0.0))[..., None]
    rb = np.sqrt(amp_sq + wnorm)[..., None]
    d = damped[..., None]
    x, weights = _legendre_rule(_ZONAL_NODES)
    v = 0.5 * (rb + ra) + 0.5 * (rb - ra) * x
    zonal = (((v + d) ** p - v ** p) * v) @ weights
    span = (ra + rb)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        zonal = np.where(span > 0.0, 2.0 * zonal / span, 2.0 * damped ** p)
    return 2.0 * math.pi * zonal


def _volume_raw_power(f: SliceSeries, grid: QuadratureGrid,
                      p: float, alpha: float,
                      err_logs: np.ndarray | None = None
                      ) -> tuple[float, np.ndarray, float]:
    """Raw whole-algebra integral of (|f| w_alpha)^p, its radial profile and
    the underflow contribution, from one plane evaluation: on q = x + u y,
    |f|^2 w_alpha^2 = A + u.w, so each sphere integral is closed-form."""
    amp_sq, w = _affine_square(*_weighted_components(f, grid, alpha))
    wnorm = np.sqrt(np.sum(w * w, axis=-1))
    integ = _sphere_power(amp_sq, wnorm, p)
    _check_grid_finite(integ, grid)
    profile = grid.radial_weights * (integ @ grid.angular_weights)
    raw = float(np.sum(profile))
    delta_total = 0.0
    if err_logs is not None and np.any(err_logs > -math.inf):
        damped = np.exp(err_logs - 0.5 * alpha * grid.radial_nodes ** 2)
        delta = _sphere_underflow(amp_sq, wnorm, damped[:, None], p)
        delta_total = float(grid.radial_weights @ (delta @ grid.angular_weights))
    return raw, profile, delta_total


def _profile_rising(profile: np.ndarray) -> bool:
    """A weighted radial profile whose largest shell sits at the boundary
    signals a divergent integral (members decay toward the boundary)."""
    if profile.size < 4 or not np.any(profile > 0.0):
        return False
    return int(np.argmax(profile)) >= profile.size - 2


def _norm_value(f: SliceSeries, spec: NormSpec, grid: QuadratureGrid
                ) -> tuple[float, bool, float]:
    """Returns (value, boundary_flag, tail_bound)."""
    sigma = max_modulus_type(f)
    if sigma > spec.alpha / 2.0:
        raise NotInSpaceError(
            f"max-modulus type {sigma:g} exceeds alpha / 2 = "
            f"{spec.alpha / 2.0:g}: not in the space")
    fe, tail = prepared_for_radius(f, grid.max_radius, drop_ok=True)
    err_logs = underflow_drop_logs(fe, grid.radial_nodes)
    # each kind is a list of (raw, profile, delta) and its prefactor
    pref = spec.alpha * spec.p / (2.0 * math.pi)
    if spec.kind == "first":
        pref *= pref
        planes = [_volume_raw_power(fe, grid, spec.p, spec.alpha, err_logs)]
    elif spec.sup_samples is None:
        planes = [_slice_raw_power(fe, spec.slice_unit, grid, spec.p, spec.alpha,
                                   err_logs)]
    else:
        # every sampled plane's amplitude comes from one shared evaluation
        amp_sq, w = _affine_square(*_weighted_components(fe, grid, spec.alpha))
        planes = [_plane_raw_power(np.sqrt(np.maximum(amp_sq + w @ u.vector(), 0.0)),
                                   grid, spec.p, spec.alpha, err_logs)
                  for u in sphere_grid(spec.sup_samples)]
    rising = any(_profile_rising(profile) for _, profile, _ in planes)
    if not rising:
        # a diverging integrand outranks the tail budget
        for raw, _, delta in planes:
            _check_tail_budget(raw, delta, spec.p)
    return max((pref * raw) ** (1.0 / spec.p) for raw, _, _ in planes), rising, tail


def norm(f: SliceSeries, spec: NormSpec, grid: QuadratureGrid | None = None) -> float:
    """Weighted norm of f under ``spec`` on the given (or default) grid.

    Raises :class:`NotInSpaceError` when the radial profile of the weighted
    integrand rises toward the grid boundary, the signature of a divergent
    integral.  Use :func:`norm_report` for the refinement-stability gate.
    """
    grid = grid or default_grid(spec)
    value, rising, _ = _norm_value(f, spec, grid)
    if rising or not math.isfinite(value):
        raise NotInSpaceError(
            "weighted integrand grows toward the grid boundary: not in the space")
    return value


def norm_report(f: SliceSeries, spec: NormSpec,
                grid: QuadratureGrid | None = None) -> NormReport:
    """Norm with divergence and grid-stability checks.

    Evaluates on the base grid and once more with all node counts doubled;
    reports the refined value and the relative deviation.  A rising radial
    profile or growth beyond ``DIVERGENCE_GROWTH`` under refinement raises
    :class:`NotInSpaceError`; any other relative deviation beyond it raises
    :class:`RefinementError`, since the base grid does not resolve the
    integral.
    """
    grid = grid or default_grid(spec)
    v1, rising, tail1 = _norm_value(f, spec, grid)
    if rising or not math.isfinite(v1):
        raise NotInSpaceError(
            "weighted integrand grows toward the grid boundary: not in the space")
    fine = refined(grid)
    v2, rising2, tail2 = _norm_value(f, spec, fine)
    if rising2 or not math.isfinite(v2):
        raise NotInSpaceError(
            "weighted integrand grows toward the refined grid boundary: "
            "not in the space")
    if v2 > v1 * (1.0 + DIVERGENCE_GROWTH):
        raise NotInSpaceError(
            f"norm grows under grid refinement ({v1:.6g} -> {v2:.6g}): "
            "not in the space")
    stability = abs(v2 - v1) / max(abs(v2), 1e-300)
    if stability > DIVERGENCE_GROWTH:
        raise RefinementError(
            f"norm moves by {stability:.3g} relative under grid refinement "
            f"({v1:.6g} -> {v2:.6g}): refine the grid")
    return NormReport(
        value=v2,
        kind=spec.kind,
        p=spec.p,
        alpha=spec.alpha,
        slice_label=spec.slice_label(),
        grid_sizes=fine.sizes,
        tail_bound=max(tail1, tail2),
        stability=stability,
    )


# ---------------------------------------------------------------------------
# inner products (p = 2)

def inner_second(f: SliceSeries, g: SliceSeries, alpha: float,
                 unit: ImaginaryUnit = UNIT_I,
                 grid: QuadratureGrid | None = None) -> Quaternion:
    """Plane inner product (alpha/pi) int conj(f) g e^{-alpha |z|^2} dm.

    Normalized so that <f, f> equals the squared second-kind norm at p = 2;
    the rescaled monomials e_k = sqrt(alpha^k / k!) q^k come out orthonormal.
    """
    grid = grid or slice_grid(alpha)
    fe, _ = prepared_for_radius(f, grid.max_radius)
    ge, _ = prepared_for_radius(g, grid.max_radius)
    half = _half_weight(grid, alpha)
    fv = _plane_values(fe, unit, grid) * half
    gv = _plane_values(ge, unit, grid) * half
    prod = quat_mul_array(quat_conj_array(fv), gv)
    comps = grid.plane_weights.ravel() @ prod.reshape(-1, 4)
    return Quaternion.from_array(comps * (alpha / math.pi))


def inner_first(f: SliceSeries, g: SliceSeries, alpha: float,
                grid: QuadratureGrid | None = None) -> Quaternion:
    """Whole-algebra inner product (alpha/pi)^2 int conj(f) g e^{-alpha |q|^2} dm.

    Monomials q^m, q^n are orthogonal here only when |m - n| is odd or at
    least 4; degrees differing by two genuinely overlap.  With f = a_f + u b_f
    and g = a_g + u b_g on q = x + u y, the sphere integral of conj(f) g is
    4 pi (conj(a_f) a_g + conj(b_f) b_g) exactly.
    """
    grid = grid or volume_grid(alpha)
    fe, _ = prepared_for_radius(f, grid.max_radius)
    ge, _ = prepared_for_radius(g, grid.max_radius)
    af, bf = _weighted_components(fe, grid, alpha)
    ag, bg = _weighted_components(ge, grid, alpha)
    prod = (quat_mul_array(quat_conj_array(af), ag)
            + quat_mul_array(quat_conj_array(bf), bg))
    comps = SPHERE_AREA * (grid.plane_weights.ravel() @ prod.reshape(-1, 4))
    return Quaternion.from_array(comps * (alpha / math.pi) ** 2)


# ---------------------------------------------------------------------------
# growth bound, norm equivalence, embedding

@dataclass(frozen=True)
class GrowthBoundReport:
    constant: float
    norm_value: float
    max_ratio: float
    worst_point: Quaternion
    violations: tuple[Quaternion, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def growth_constant(spec: NormSpec) -> float:
    """Pointwise growth constant: 4 (2 pi / alpha p)^(1/p) over the whole
    algebra, plain 4 for the sup-over-planes norm."""
    if spec.kind == "first":
        return 4.0 * (2.0 * math.pi / (spec.alpha * spec.p)) ** (1.0 / spec.p)
    return 4.0


def growth_bound_check(f: SliceSeries, spec: NormSpec, samples,
                       grid: QuadratureGrid | None = None) -> GrowthBoundReport:
    """Check |f(q)| <= c e^{alpha |q|^2 / 2} ||f|| on the sample points.

    Reports the largest observed ratio |f(q)| e^{-alpha |q|^2 / 2} / ||f||
    and every violating point.  All samples come from one plane evaluation:
    with q = x + u y, f(q) = a + u b for (a, b) of :func:`slice_components`
    at x + i y, the series prepared once for the largest |q|.
    """
    nval = norm(f, spec, grid)
    c = growth_constant(spec)
    if nval == 0.0:
        return GrowthBoundReport(c, 0.0, 0.0, Quaternion(), ())
    samples = list(samples)
    if not samples:
        return GrowthBoundReport(c, nval, -1.0, Quaternion(), ())
    qs = np.array([q.to_array() for q in samples])
    y = np.sqrt(np.sum(qs[:, 1:] ** 2, axis=1))
    a, b = slice_components(f, qs[:, 0] + 1j * y)
    units = np.zeros_like(qs)
    units[:, 1:] = qs[:, 1:] / np.where(y > 0.0, y, 1.0)[:, None]
    values = a + quat_mul_array(units, b)
    ratio = (np.sqrt(np.sum(values * values, axis=1))
             * np.exp(-0.5 * spec.alpha * np.sum(qs * qs, axis=1)) / nval)
    worst = int(np.argmax(ratio))
    bad = tuple(q for q, r in zip(samples, ratio) if r > c * (1.0 + 1e-12))
    return GrowthBoundReport(c, nval, float(ratio[worst]), samples[worst], bad)


def sample_ball(count: int, radius: float, seed: int) -> list[Quaternion]:
    """Deterministic uniform sample of the closed 4-ball (rejection from the
    cube, SplitMix64 stream)."""
    gen = SplitMix64(seed)
    out = []
    while len(out) < count:
        c = [gen.next_symmetric() for _ in range(4)]
        if sum(v * v for v in c) <= 1.0:
            out.append(Quaternion(*(radius * v for v in c)))
    return out


def slice_norm_ratio(f: SliceSeries, p: float, alpha: float,
                     unit_i: ImaginaryUnit, unit_j: ImaginaryUnit,
                     grid: QuadratureGrid | None = None) -> float:
    """||f||_{p,alpha,I} / ||f||_{p,alpha,J}.

    Bounded by 2 for p >= 1 and by 2^(1/p) for 0 < p < 1; identically 1 for
    series with real coefficients and for p = 2.
    """
    spec_i = NormSpec("second", p, alpha, slice_unit=unit_i)
    spec_j = NormSpec("second", p, alpha, slice_unit=unit_j)
    num = norm(f, spec_i, grid)
    den = norm(f, spec_j, grid)
    if den == 0.0:
        raise ZeroDivisionError("slice norm ratio undefined: f has zero norm")
    return num / den


def embedding_check(h: SliceSeries, beta: float, alpha: float, p: float,
                    grid: QuadratureGrid | None = None,
                    ref_grid: QuadratureGrid | None = None) -> float:
    """Ratio ||h||_{p,alpha} / ||h||_{2,beta} over the whole algebra, the
    quantity bounded by the embedding constant for 0 < beta < alpha."""
    if not 0.0 < beta < alpha:
        raise ValueError("embedding requires 0 < beta < alpha")
    num = norm(h, NormSpec("first", p, alpha), grid)
    den = norm(h, NormSpec("first", 2.0, beta), ref_grid)
    if den == 0.0:
        raise ZeroDivisionError("embedding ratio undefined: f has zero norm")
    return num / den


# ---------------------------------------------------------------------------
# order and type

@dataclass(frozen=True)
class GrowthReport:
    """Entire-function growth estimates from max-modulus sampling."""

    order_estimate: float
    type_estimate: float | None
    radii: np.ndarray
    log_max_modulus: np.ndarray
    residual: float


def log_max_modulus(f: SliceSeries, radius: float, units=None,
                    n_theta: int = 64) -> float:
    """log max |f| over sampled directions at the given radius: the points
    radius (cos t + u sin t) for every sampled unit u (default the first 8
    of :func:`sphere_grid`) and n_theta angles t evenly spaced in [0, pi].

    The angles t_j = pi j / (n_theta - 1) are nodes j of a uniform circle of
    2 (n_theta - 1) nodes (one node, t = 0, when n_theta = 1), so one
    log-scaled FFT (:func:`_polar_sum`) gives the representation-formula
    (a, b) = (Re S, Im S) at every angle.  Then
    |f|^2 = A + u.w for every unit (:func:`_affine_square`), and all sampled
    units are one (units x n_theta) product, taken in log space so that no
    radius overflows.
    """
    if n_theta < 1:
        raise ValueError("need at least one sampled angle")
    units = units if units is not None else sphere_grid(8)
    fe, _ = prepared_for_radius(f, radius)
    n_circle = max(2 * (n_theta - 1), 1)
    s, top = _polar_sum(fe, np.array([radius]), n_circle)
    amp_sq, w = _affine_square(s[0, :n_theta].real, s[0, :n_theta].imag)
    sq = amp_sq + units_array(units).reshape(-1, 3) @ w.T
    peak = float(np.max(sq, initial=0.0))
    return float(top[0]) + 0.5 * math.log(peak) if peak > 0.0 else -math.inf


def order_type(f: SliceSeries, radii=None, units=None,
               n_theta: int = 64) -> GrowthReport:
    """Estimate growth order and (near order 2) type from a radius sweep.

    The order comes from the least-squares slope of log log M(r) against
    log r on the outer half of the radius grid, a limsup-flavored window
    estimate; the type is the median of log M(r) / r^2 there and is only
    reported when the estimated order is within 0.1 of 2.
    """
    radii = np.asarray(radii if radii is not None else np.geomspace(2.0, 16.0, 10),
                       dtype=float)
    logs = []
    used = []
    for r in radii:
        try:
            logs.append(log_max_modulus(f, float(r), units, n_theta))
            used.append(float(r))
        except TruncationError:
            continue
    if len(used) < 4:
        raise ValueError("radius grid too large: tail control failed at nearly "
                         "all radii")
    used = np.asarray(used)
    logm = np.asarray(logs)
    half = len(used) // 2
    x = np.log(used[half:])
    if not np.all((logm[half:] > 0.0) & np.isfinite(logm[half:])):
        raise ValueError("max modulus not positive enough for a growth fit")
    y = np.log(logm[half:])
    a = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    fit_residual = float(np.sqrt(np.mean((a @ sol - y) ** 2)))
    rho = float(sol[0])
    sigma = None
    if abs(rho - 2.0) <= 0.1:
        sigma = float(np.median(logm[half:] / used[half:] ** 2))
    return GrowthReport(rho, sigma, used, logm, fit_residual)
