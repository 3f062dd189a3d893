"""Gaussian-weighted integral norms of slice-regular series, of two kinds.

The first kind weighs |f|^p e^{-p alpha |q|^2 / 2} over the whole algebra
with prefactor (alpha p / 2 pi)^2; the second kind weighs the same density
over a single complex plane with prefactor alpha p / 2 pi, optionally taking
the sup over planes (realized as a max over a deterministic sphere sample).
On a fixed plane the monomials are orthogonal, with
|| q^k ||^2 = k! / alpha^k at p = 2; over the whole algebra they are not:
powers whose degrees differ by exactly two overlap.

So every second-kind number at p = 2 is a coefficient sum and reads no
grid: the squared norm of f on every plane (hence also its sup over planes)
is sum_k t_k over the Parseval terms t_k = |a_k|^2 k! / alpha^k, and that of
a multiplier image sum_k m_k^2 t_k.  :func:`_parseval_terms` is their one
certificate (:class:`ParsevalTerms`), and :func:`_parseval_power` the one
sum, which charges f's tail and underflowed rows.  Everything below about
grids concerns p != 2 and the first kind.

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

Every grid consumer reads one kernel, :func:`_weighted_plane`: the
weighted (a, b) = (Re v, Im v) 2^e at the grid's nodes, so nothing
overflows for a member whose weighted integrand is finite.  Each consumer
multiplies 2^e back once, and a result past the float range raises
:class:`IntegrandOverflowError`.

Every series the library builds is a polynomial or an exponential
generator of order-2 type sigma, in the spaces of weight alpha (both kinds,
every p) exactly when sigma < alpha / 2: at sigma = alpha / 2 the weighted
integrand of e(c q^2) does not decay along the ray where Re(c z^2) peaks.
:func:`prepared_for_grid`, the one preparation of every consumer that
reads a grid, decides membership so and bounds the mass of generator rows
that underflowed in storage; each consumer adds it, times the largest
factor it puts on those rows, to the amplitudes it integrates
(:func:`_drop_delta`), charged through :func:`_check_tail_budget`, as the
coefficient sums charge theirs (:func:`_parseval_power`).  Every quadrature
power refuses a grid whose weighted radial profile peaks in its last two
shells (:class:`RefinementError`): the grid does not reach the integrand's
mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IntegrandOverflowError, NotInSpaceError, RefinementError, TruncationError
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
    refined,
    slice_grid,
    slice_points,
    volume_grid,
)
from .series import (
    SliceSeries,
    _certified,
    _lift,
    _log_scaled_terms,
    _polar_sum,
    _radius_certificate,
    eval_on_slice,  # noqa: F401  (kept in this namespace for its importers)
    max_modulus_type,
    prepared_for_radius,
    slice_components,
)

#: A certified truncation or underflow tail may contribute at most this
#: relative amount to a reported norm.
NORM_TAIL_BUDGET = 1e-10

#: Relative change under grid refinement beyond which a norm is rejected as
#: unresolved by the grid.
DIVERGENCE_GROWTH = 1e-2

#: Relative tail tolerance at which the Parseval terms are first certified.
PARSEVAL_TAIL_TOL = 1e-30

#: Area of the imaginary unit sphere: the sphere integral of a constant.
SPHERE_AREA = 4.0 * math.pi


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

    @property
    def parseval(self) -> bool:
        """Whether the norm is a coefficient sum read from no grid: the
        second kind at p = 2, the same on every plane."""
        return self.kind == "second" and self.p == 2.0

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


def _check_tail_budget(raw: float, delta: float, p: float) -> float:
    """The evaluation-error contribution ``delta`` to the raw p-th power must
    stay below NORM_TAIL_BUDGET of the result (norm scale: raw / p); returns
    it relative to the result, delta / (p raw)."""
    if not math.isfinite(delta) or delta > NORM_TAIL_BUDGET * max(raw, 1e-300) * p:
        raise TruncationError(
            "truncated-tail or underflowed-row contribution bound exceeds "
            f"{NORM_TAIL_BUDGET:g} of the result")
    return delta / (max(raw, 1e-300) * p)


def _check_in_space(f: SliceSeries, alpha: float) -> None:
    """Refuse f of order-2 type sigma >= alpha / 2 (:class:`NotInSpaceError`)."""
    sigma = max_modulus_type(f)
    if sigma >= alpha / 2.0:
        raise NotInSpaceError(
            f"max-modulus type {sigma:g} is not below alpha / 2 = "
            f"{alpha / 2.0:g}: not in the space")


class Prepared(NamedTuple):
    """f prepared on one grid (:func:`prepared_for_grid`): the extended
    series, its relative tail, the bound on its underflowed rows per radial
    node (None without any) and k0, the first of those rows (-1)."""

    series: SliceSeries
    tail: float
    drop: np.ndarray | None
    k0: int


def prepared_for_grid(f: SliceSeries, alpha: float, grid: QuadratureGrid
                      ) -> Prepared:
    """The one preparation of f for a Gaussian-weighted consumer on ``grid``:
    refused outside the spaces of weight ``alpha`` (:class:`NotInSpaceError`),
    its tail at the grid's radius certified as by :func:`prepared_for_radius`,
    and the mass of its generator rows from k0, the first that underflowed
    in storage, bounded per radial node times e^{-alpha r^2 / 2} instead of
    refused."""
    _check_in_space(f, alpha)
    fe, _, log_tail, _, k0 = _radius_certificate(f, grid.max_radius)
    tail = math.exp(log_tail)          # at most TAIL_TOL
    if k0 < 0:
        return Prepared(fe, tail, None, k0)
    g, r = fe.generator, grid.radial_nodes
    ratio = g.term_ratio(r, k0)
    # geometric from k0 where the terms decay, else the whole series' bound
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = np.where(ratio < 1.0, g.log_coeff(k0) + k0 * np.log(r)
                        - np.log(1.0 - ratio), g.log_total(r))
        return Prepared(fe, tail, np.exp(logs - 0.5 * alpha * r * r), k0)


# ---------------------------------------------------------------------------
# second kind at p = 2: coefficient sums

def _parseval_log_terms(log_sq, k, alpha: float):
    """log of |a_k|^2 k! / alpha^k from log |a_k|^2: k! / alpha^k is the
    squared plane norm of q^k at p = 2."""
    from scipy.special import gammaln

    return log_sq + gammaln(k + 1.0) - k * math.log(alpha)


class ParsevalTerms(NamedTuple):
    """f's certified Parseval terms t_k = |a_k|^2 k! / alpha^k
    (:func:`_parseval_terms`): the extended series, log t_k (log 0 for a
    vanishing row), and, relative to the sum of the stored terms, the log of
    the bound on the terms past the stored degree and the log of the bound
    on those of generator rows that underflowed in storage."""

    series: SliceSeries
    logw: np.ndarray
    log_tail: float
    log_drop: float


def _parseval_terms(f: SliceSeries, alpha: float,
                    log_tol: float = math.log(PARSEVAL_TAIL_TOL)) -> ParsevalTerms:
    """The one Parseval certificate: f refused outside the spaces of weight
    ``alpha`` (:class:`NotInSpaceError`), then extended until its terms'
    tail is below e^log_tol relative (:func:`slicefock.series._certified`).
    Its underflowed rows are bounded, not refused: :func:`_parseval_power`
    charges them with the tail."""
    _check_in_space(f, alpha)
    return ParsevalTerms(*_certified(
        f, lambda log_mags, k: _parseval_log_terms(2.0 * log_mags, k, alpha),
        lambda deg: f.generator.parseval_ratio(alpha, deg), log_tol, -math.inf,
        f"alpha = {alpha:g}")[:4])


def _log_sum(logs: np.ndarray) -> np.ndarray:
    """log sum_k e^{logs[..., k]} over the last axis, each row scaled by its
    largest entry; -inf for a row of -inf."""
    top = logs.max(axis=-1, keepdims=True)
    np.maximum(top, -1e308, out=top)      # a row of -inf sums to 0: log -inf
    with np.errstate(divide="ignore"):
        return top[..., 0] + np.log(np.exp(logs - top).sum(axis=-1))


def _parseval_power(terms: ParsevalTerms, alpha: float, log_mult=None,
                    log_bound: float = 0.0) -> tuple[float, float]:
    """log of the largest p = 2 power sum_k m_k^2 t_k of f's Parseval terms
    over the rows of log m_k^2 = ``log_mult(k)`` (one row, or one per
    candidate, for the stored degrees k; m_k = 1 when None), and the charge
    of f's tail and underflowed rows relative to the value.

    Every |m_k|, past the stored rows too, is at most e^log_bound, so those
    rows add at most (tail + drop) e^{2 log_bound} sum_k t_k to the power,
    charged through :func:`_check_tail_budget` from their logs.  Where the
    tail alone misses its half of the budget, f's terms are certified once
    more at the tail that power needs (the smallest float if it is 0)."""
    def weighted(terms):
        log_total = float(_log_sum(terms.logw))
        log_sq = log_total if log_mult is None else float(np.max(_log_sum(
            log_mult(np.arange(terms.logw.size)) + terms.logw)))
        # log of what a unit of relative tail adds to the power, relative to it
        gap = log_total + 2.0 * log_bound - log_sq

        def charge(log_x):
            if log_x == -math.inf:
                return 0.0
            y = log_x + gap
            return math.exp(y) if y < 709.0 else math.inf   # inf is refused
        return log_sq, gap, charge

    log_sq, gap, charge = weighted(terms)
    if charge(terms.log_tail) > NORM_TAIL_BUDGET >= charge(terms.log_drop):
        terms = _parseval_terms(terms.series, alpha, math.log(NORM_TAIL_BUDGET) - gap
                                if gap < math.inf else math.log(5e-324))
        log_sq, _, charge = weighted(terms)
    log_bounds = float(np.logaddexp(terms.log_tail, terms.log_drop))
    return log_sq, _check_tail_budget(1.0, charge(log_bounds), 2.0)


def _checked_exp(log_value: float, what: str) -> float:
    """e^log_value; past the float range :class:`IntegrandOverflowError`."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise IntegrandOverflowError(f"{what} exceeds the float range") from None


def _checked_ldexp(x: float, e: int, what: str) -> float:
    """x 2^e (the kernel's scale, :func:`_weighted_plane`); a result past the
    float range raises :class:`IntegrandOverflowError`."""
    try:
        value = math.ldexp(x, e)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise IntegrandOverflowError(f"{what} exceeds the float range")
    return value


def _weighted_plane(f: SliceSeries, grid: QuadratureGrid, alpha: float
                    ) -> tuple[np.ndarray, int]:
    """The one plane-evaluation kernel: S e^{-alpha |z|^2 / 2} at the grid's
    nodes for a prepared f, S(z) = sum_k z^k a_k componentwise, as a complex
    (R, n, 4) array v and an integer e; f(q) e^{-alpha |q|^2 / 2} is
    (Re v + u Im v) 2^e on q = x + u y.  S comes from one FFT per radius of
    its log-scaled terms (:func:`slicefock.series._polar_sum`), each radius's
    terms scaled by e^{top - alpha r^2 / 2 - e ln 2} before the transform, e
    the integer nearest the largest exponent over ln 2.  So v is finite
    where the weighted values are, and no square of it overflows."""
    scaled, top, dirs = _log_scaled_terms(f.coeffs, grid.radial_nodes)
    lam = top - 0.5 * alpha * grid.radial_nodes ** 2
    e = int(np.rint(np.max(lam) / math.log(2.0)))
    scaled *= np.exp(lam - e * math.log(2.0))[:, None]
    return _polar_sum(scaled, dirs, grid.circle_size)[:, grid.circle_index], e


def _scaled_drop(drop: np.ndarray | None, e: int) -> np.ndarray | None:
    """A per-radius drop bound on the scale of the kernel's v: drop 2^-e."""
    if drop is None:
        return None
    with np.errstate(over="ignore"):       # inf is refused by the budget
        return np.ldexp(drop, -e)


def _drop_delta(amp: np.ndarray, drop: np.ndarray | None, grid: QuadratureGrid,
                p: float) -> float:
    """What adding the per-radius bound ``drop`` to the (radial, angular)
    amplitude ``amp`` can add to the grid sum of amp^p (0 without one):
    the sum of (amp + d)^p - amp^p, taken as amp^p expm1(p log1p(d / amp))
    where d < amp, so that no digit of a bound far below amp cancels."""
    if drop is None:
        return 0.0
    d = drop[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        extra = np.where(d < amp, amp ** p * np.expm1(p * np.log1p(d / amp)),
                         (amp + d) ** p - amp ** p)
        return float(grid.radial_weights @ (extra @ grid.angular_weights))


def _grid_sum(integ: np.ndarray, grid: QuadratureGrid) -> float:
    """Grid sum of a (radial, angular) integrand.  A non-finite sample is
    named by :func:`_check_finite` (the nodes are built only then), and a
    radial profile that peaks in the last two of four or more shells raises
    :class:`RefinementError`: the grid does not reach the integrand's mass."""
    if not np.all(np.isfinite(integ)):
        _check_finite(integ.ravel(), slice_points(grid)[0])
    with np.errstate(over="ignore"):       # a non-finite norm
        profile = grid.radial_weights * (integ @ grid.angular_weights)
        raw = float(np.sum(profile))
    if math.isfinite(raw) and raw > 0.0 and 4 <= profile.size <= np.argmax(profile) + 2:
        raise RefinementError(
            "weighted integrand peaks at the grid's outermost radial nodes: "
            "refine the grid")
    return raw


def _plane_raw_power(amp: np.ndarray, grid: QuadratureGrid, p: float,
                     drop: np.ndarray | None) -> tuple[float, float]:
    """Raw integral of amp^p over the plane grid from the (radial, angular)
    weighted amplitude, and what adding the per-radius bound ``drop`` to
    amp adds to it (:func:`_drop_delta`)."""
    with np.errstate(over="ignore"):       # a non-finite sample
        integ = amp ** p
    return _grid_sum(integ, grid), _drop_delta(amp, drop, grid, p)


def _slice_raw_power(f: SliceSeries, unit: ImaginaryUnit, grid: QuadratureGrid,
                     p: float, alpha: float, drop: np.ndarray | None = None
                     ) -> tuple[float, float, int]:
    """:func:`_plane_raw_power` of |f| w_alpha on the plane of ``unit``, from
    |Re v + u Im v| of the kernel's v (:func:`_weighted_plane`): (raw,
    delta, e), the true raw power and delta being 2^{e p} times these."""
    v, e = _weighted_plane(f, grid, alpha)
    amp = np.sqrt(np.sum(np.square(_lift(v, unit)), axis=-1))
    return (*_plane_raw_power(amp, grid, p, _scaled_drop(drop, e)), e)


def _affine_square(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|a + u b|^2 = A + u.w for every unit u: returns A and the (..., 3) w."""
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


def _volume_raw_power(f: SliceSeries, grid: QuadratureGrid, p: float,
                      alpha: float, drop: np.ndarray | None = None
                      ) -> tuple[float, float, int]:
    """(raw, delta, e) as :func:`_slice_raw_power` returns them, over the
    whole algebra from one plane: on q = x + u y, |f|^2 w_alpha^2 is
    (A + u.w) 4^e for (a, b) = (Re v, Im v), so the power's sphere integral
    is closed-form, and that of G(x) = (x + d)^p - x^p, monotone in x, is at
    most 4 pi G at the largest x = sqrt(A + u.w) for p >= 1, the smallest
    below: exact at p = 1 and for w = 0."""
    v, e = _weighted_plane(f, grid, alpha)
    amp_sq, w = _affine_square(v.real, v.imag)
    wnorm = np.sqrt(np.sum(w * w, axis=-1))
    raw = _grid_sum(_sphere_power(amp_sq, wnorm, p), grid)
    if drop is None:
        return raw, 0.0, e
    x = np.sqrt(amp_sq + wnorm if p >= 1.0 else np.maximum(amp_sq - wnorm, 0.0))
    return raw, SPHERE_AREA * _drop_delta(x, _scaled_drop(drop, e), grid, p), e


def _charged_norm(fe: SliceSeries, drop: np.ndarray | None, spec: NormSpec,
                  grid: QuadratureGrid) -> tuple[float, float]:
    """Norm of a prepared f under ``spec`` and the charge of its ``drop``
    (see :func:`prepared_for_grid`) relative to it."""
    # each kind is a list of (raw, delta) on one scale 2^{e p}, and its prefactor
    pref = spec.alpha * spec.p / (2.0 * math.pi)
    if spec.kind == "first":
        pref *= pref
        *plane, e = _volume_raw_power(fe, grid, spec.p, spec.alpha, drop)
        planes = [plane]
    elif spec.sup_samples is None:
        *plane, e = _slice_raw_power(fe, spec.slice_unit, grid, spec.p, spec.alpha, drop)
        planes = [plane]
    else:
        # every sampled plane's amplitude comes from one shared evaluation
        v, e = _weighted_plane(fe, grid, spec.alpha)
        amp_sq, w = _affine_square(v.real, v.imag)
        planes = [_plane_raw_power(np.sqrt(np.maximum(amp_sq + w @ u.vector(), 0.0)),
                                   grid, spec.p, _scaled_drop(drop, e))
                  for u in sphere_grid(spec.sup_samples)]
    charge = max(_check_tail_budget(raw, delta, spec.p) for raw, delta in planes)
    value = max((pref * raw) ** (1.0 / spec.p) for raw, _ in planes)
    return _checked_ldexp(value, e, "weighted norm"), charge


def prepared_for_spec(f: SliceSeries, spec: NormSpec, grid: QuadratureGrid,
                      prepared: Prepared | ParsevalTerms | None = None
                      ) -> Prepared | ParsevalTerms:
    """The one preparation of f for the numbers of ``spec``: its Parseval
    terms where they are coefficient sums (:attr:`NormSpec.parseval`), else
    f prepared on ``grid`` (:func:`prepared_for_grid`).  Its consumers
    dispatch on the record's type.  A given ``prepared`` is returned as it
    is when it is of the kind ``spec`` needs, else refused
    (:func:`_check_prepared`)."""
    if prepared is not None:
        return _check_prepared(prepared, spec)
    if spec.parseval:
        return _parseval_terms(f, spec.alpha)
    return prepared_for_grid(f, spec.alpha, grid)


def _check_prepared(prepared: Prepared | ParsevalTerms, spec: NormSpec
                   ) -> Prepared | ParsevalTerms:
    """``prepared``, when it is the kind of preparation ``spec`` needs
    (:func:`prepared_for_spec`); else :class:`ValueError`."""
    if isinstance(prepared, ParsevalTerms) != spec.parseval:
        need = "Parseval terms" if spec.parseval else "a grid preparation"
        raise ValueError(f"the {spec.kind}-kind p = {spec.p:g} numbers need "
                         f"{need} of f, not {type(prepared).__name__}")
    return prepared


def _norm_value(f: SliceSeries, spec: NormSpec, grid: QuadratureGrid | None
                ) -> tuple[float, float]:
    """(value, the larger of f's relative tail and its charged drop), on
    ``grid`` or the default one where a grid is read."""
    grid = grid or default_grid(spec)
    prepared = prepared_for_spec(f, spec, grid)
    if isinstance(prepared, ParsevalTerms):
        log_sq, charge = _parseval_power(prepared, spec.alpha)
        return _checked_exp(0.5 * log_sq, "weighted norm"), charge
    value, charge = _charged_norm(prepared.series, prepared.drop, spec, grid)
    return value, max(prepared.tail, charge)


def norm(f: SliceSeries, spec: NormSpec, grid: QuadratureGrid | None = None) -> float:
    """Weighted norm of f under ``spec`` on the given (or default) grid.

    At p = 2 in the second kind (:attr:`NormSpec.parseval`), on a plane or
    as a sup over planes, it is the coefficient sum sqrt(sum_k t_k) and
    ``grid`` is not read; f's tail and underflowed rows are charged against
    ``NORM_TAIL_BUDGET`` of it (:func:`_parseval_power`).  Raises
    :class:`NotInSpaceError` when f is not in the space (type at least
    alpha / 2), :class:`RefinementError` when the grid stops short of the
    integrand's mass and :class:`IntegrandOverflowError` for a value past
    the float range.  Use :func:`norm_report` for the refinement check.
    """
    return _norm_value(f, spec, grid)[0]


def norm_report(f: SliceSeries, spec: NormSpec,
                grid: QuadratureGrid | None = None) -> NormReport:
    """Norm with its evidence and a grid-stability check.

    Evaluates on the base grid and once more with all node counts doubled;
    reports the refined value, the relative deviation and the larger tail
    bound.  A relative deviation beyond ``DIVERGENCE_GROWTH`` raises
    :class:`RefinementError`: the base grid does not resolve the integral.
    A coefficient sum (:attr:`NormSpec.parseval`) is evaluated once and
    reads no grid: its report has stability 0.0 and no grid sizes.
    """
    if spec.parseval:
        value, tail = _norm_value(f, spec, grid)
        return NormReport(value, spec.kind, spec.p, spec.alpha,
                          spec.slice_label(), (), tail, 0.0)
    grid = grid or default_grid(spec)
    v1, tail1 = _norm_value(f, spec, grid)
    fine = refined(grid)
    v2, tail2 = _norm_value(f, spec, fine)
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

def _inner(f: SliceSeries, g: SliceSeries, alpha: float, grid: QuadratureGrid,
           unit: ImaginaryUnit | None = None) -> Quaternion:
    """int conj(f) g e^{-alpha |q|^2} over the plane of ``unit`` times
    alpha / pi, or without one over the algebra times 4 pi (alpha / pi)^2,
    from the kernel's v of each factor (:func:`_weighted_plane`).  With fa
    the root sum of squares of f's parts and df its drop bound, both on the
    scale of its v, the underflowed rows move the value by at most the
    integral of fa dg + df (ga + dg)."""
    parts, drops, e = [], [], 0
    for h in (f, g):
        prep = prepared_for_grid(h, alpha, grid)
        v, eh = _weighted_plane(prep.series, grid, alpha)
        parts.append((v.real, v.imag) if unit is None else (_lift(v, unit),))
        drops.append(_scaled_drop(prep.drop, eh))
        e += eh
    if any(d is not None for d in drops):
        fa, ga = (np.sqrt(sum(np.sum(x * x, axis=-1) for x in ps)) for ps in parts)
        df, dg = (0.0 if d is None else d[:, None] for d in drops)
        w = grid.plane_weights
        with np.errstate(over="ignore", invalid="ignore"):   # refused as non-finite
            _check_tail_budget(float(np.sum(w * fa * ga)),
                               float(np.sum(w * (fa * dg + df * (ga + dg)))), 1.0)
    prod = sum(quat_mul_array(quat_conj_array(a), b) for a, b in zip(*parts))
    pref = SPHERE_AREA * (alpha / math.pi) ** 2 if unit is None else alpha / math.pi
    comps = pref * (grid.plane_weights.ravel() @ prod.reshape(-1, 4))
    return Quaternion(*(_checked_ldexp(float(c), e, "inner product") for c in comps))


def inner_second(f: SliceSeries, g: SliceSeries, alpha: float,
                 unit: ImaginaryUnit = UNIT_I,
                 grid: QuadratureGrid | None = None) -> Quaternion:
    """Plane inner product (alpha/pi) int conj(f) g e^{-alpha |z|^2} dm.

    Normalized so that <f, f> equals the squared second-kind norm at p = 2;
    the rescaled monomials e_k = sqrt(alpha^k / k!) q^k come out orthonormal.
    """
    return _inner(f, g, alpha, grid or slice_grid(alpha), unit)


def inner_first(f: SliceSeries, g: SliceSeries, alpha: float,
                grid: QuadratureGrid | None = None) -> Quaternion:
    """Whole-algebra inner product (alpha/pi)^2 int conj(f) g e^{-alpha |q|^2} dm.

    Monomials q^m, q^n are orthogonal here only when |m - n| is odd or at
    least 4; degrees differing by two genuinely overlap.  With f = a_f + u b_f
    and g = a_g + u b_g on q = x + u y, the sphere integral of conj(f) g is
    4 pi (conj(a_f) a_g + conj(b_f) b_g) exactly.
    """
    return _inner(f, g, alpha, grid or volume_grid(alpha))


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
    scaled, top, dirs = _log_scaled_terms(fe.coeffs, np.array([radius]))
    s = _polar_sum(scaled, dirs, n_circle)
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
