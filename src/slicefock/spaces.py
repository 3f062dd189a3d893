"""Gaussian-weighted integral norms of slice-regular series, of two kinds.

The first kind weighs |f|^p e^{-p alpha |q|^2 / 2} over the whole algebra
with prefactor (alpha p / 2 pi)^2; the second kind weighs the same density
over a single complex plane with prefactor alpha p / 2 pi, optionally taking
the sup over planes (realized as a max over a deterministic sphere sample).

Every p = 2 number of either kind is a coefficient sum over f's Parseval
terms t_k = |a_k|^2 k! / alpha^k, read from no grid, :func:`_parseval_terms`
their one certificate (:class:`ParsevalTerms`).  On a plane the monomials
are orthogonal, ||q^k||^2 = k! / alpha^k, and the norm of a multiplier image
sum_k q^k m_k a_k (m_k = 1, 1 - rho_k, (e^{I j h} - 1)^k, or 1 past degree n
for E_n) is (sum_k |m_k|^2 t_k)^{1/2} (:func:`_parseval_power`).  Over the
algebra powers two degrees apart overlap, the Gram of the monomials is
banded, and norms, best approximations and inner products are sums of
squares through its bidiagonal Cholesky factor (:func:`_first_images`,
:func:`_inner`).  Each charges f's tail past its stored degree against
the value it reports, by one rule (:func:`_charged`); every norm, operator
error and modulus, and every sweep of them over n, is one call of
:func:`_multiplier_norm`, one value per group of multiplier images.

Every even p = 2m up to ``EVEN_P_CAP`` is a coefficient sum over the same
certificate (:func:`_even_power`), on one plane and over the algebra: with
f = F + G J on the plane of I, |f|^2 = |F|^2 + |G|^2, so ||f||_{2m}^{2m}
= sum_j C(m, j) sum_k |s_k^(j)|^2 on one plane and the mean over planes of
sum_j C(m, j) ||L^T s^(j)||^2 over the algebra (y^2 = (2|z|^2 - z^2 -
zbar^2) / 4 weighs the plane by the first kind's banded Gram, L its
factor), s_k^(j) = c_k^(j) (k! / (m alpha)^k)^(1/2) for the coefficients
c^(j) of F^j G^{m-j}, formed by direct convolution.  The mean over planes
is an even form of degree at most 4 in the unit, exact on a spherical
design (:data:`_PLANE_DESIGNS`).  f's tail is charged by Minkowski and the
convolutions' rounding through their majorants.  Everything below concerns
the other p, and the sup over planes: those of a grid.

Every sphere integral is exact.  On q = x + u y the representation formula
gives f(q) = a + u b for every unit u, with (a, b) = (Re S, Im S) for the
componentwise sum S(z) = sum_k z^k a_k at z = x + i y
(:func:`slice_components`).  So |f|^2 = A + u.w is affine in u, the
sphere integral of its p/2-th power has a closed form, and first-kind norms
evaluate one plane per grid; the sphere rule a volume grid carries serves
only generic integrands (:func:`integrate_volume`).  The sup over planes
reads each sampled plane from the same (a, b).

Every grid consumer reads one kernel, :func:`_weighted_plane`: the
weighted sums S 2^e at the grid's nodes, from the rows in log-polar form
(directions and log sizes) in any basis, for one image or a batch of
them, so nothing overflows for a member whose weighted integrand is
finite.  A number on one plane reads the rows'
split (F_k, G_k) there (:func:`_plane_splits`), two complex columns whose
sums are F and G, its amplitude (|F|^2 + |G|^2)^(1/2); the sphere and the
first kind read the 4 real components, (a, b) = (Re v, Im v).  Each
consumer multiplies 2^e back once, and a nonzero result past the float
range, above or below, raises :class:`IntegrandOverflowError`.

Every series the library builds is a polynomial or an exponential
generator of order-2 type sigma, in the spaces of weight alpha (both kinds,
every p) exactly when sigma < alpha / 2: at sigma = alpha / 2 the weighted
integrand of e(c q^2) does not decay along the ray where Re(c z^2) peaks.
:func:`prepared_for_grid`, the one preparation of every consumer that
reads a grid, decides membership so and certifies f's tail at the grid's
radius.  Every consumer, grid or coefficient sum, reads f's rows in
log-polar form (:attr:`SliceSeries.log_row_norms`,
:attr:`SliceSeries.directions`): a generator row stored below the smallest
normal float comes from its closed form, so no row's mass is lost in
storage and none is charged.  Every quadrature power refuses a grid whose
weighted radial profile peaks in its last two shells
(:class:`RefinementError`): the grid does not reach the integrand's mass.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IntegrandOverflowError, NotInSpaceError, RefinementError, TruncationError
from .prng import SplitMix64
from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    perpendicular_unit,
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
    _check_mode,
    refined,
    slice_grid,
    slice_points,
    volume_grid,
)
from .series import (
    DEGREE_CAP,
    TAIL_TOL,
    ExpGenerator,
    SliceSeries,
    _certified,
    _check_certified,
    _log_scaled_terms,
    _polar_sum,
    _radius_certificate,
    _read_only,
    eval_on_slice,  # noqa: F401  (kept in this namespace for its importers)
    max_modulus_type,
    prepared_for_radius,
    slice_components,
)

#: A certified truncation tail may contribute at most this relative amount
#: to a reported norm.
NORM_TAIL_BUDGET = 1e-10

#: Relative change under grid refinement beyond which a norm is rejected as
#: unresolved by the grid.
DIVERGENCE_GROWTH = 1e-2

#: Relative tail tolerance at which the Parseval terms are first certified.
PARSEVAL_TAIL_TOL = 1e-30

#: Largest even p whose first-kind numbers and second-kind numbers on one
#: plane are coefficient sums (:attr:`NormSpec.coefficient_sum`): the
#: products F^j G^{m-j}, m = p / 2, have degree at most m DEGREE_CAP.
EVEN_P_CAP = 8

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
    def coefficient_sum(self) -> bool:
        """Whether the norm is a coefficient sum over f's Parseval terms,
        read from no grid: p = 2 in either kind (the same on every plane in
        the second), and even p up to ``EVEN_P_CAP`` in the first kind or on
        one plane of the second (:func:`_even_power`).  Every other p and a
        sup over planes at p != 2 read a grid."""
        return self.p == 2.0 or (self.sup_samples is None and self.p <= EVEN_P_CAP
                                 and self.p % 2.0 == 0.0)

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


def _check_tail_budget(rel: float) -> float:
    """``rel``, a charge relative to the result, where it lies within
    NORM_TAIL_BUDGET; else (inf and nan too) :class:`TruncationError`."""
    if not rel <= NORM_TAIL_BUDGET:
        raise TruncationError(
            f"truncated-tail contribution bound exceeds {NORM_TAIL_BUDGET:g} "
            "of the result")
    return rel


def _check_in_space(f: SliceSeries, alpha: float) -> None:
    """Refuse f of order-2 type sigma >= alpha / 2 (:class:`NotInSpaceError`)."""
    sigma = max_modulus_type(f)
    if sigma >= alpha / 2.0:
        raise NotInSpaceError(
            f"max-modulus type {sigma:g} is not below alpha / 2 = "
            f"{alpha / 2.0:g}: not in the space")


class Prepared(NamedTuple):
    """f prepared on one grid (:func:`prepared_for_grid`): the extended
    series and its relative tail."""

    series: SliceSeries
    tail: float


def prepared_for_grid(f: SliceSeries, alpha: float, grid: QuadratureGrid
                      ) -> Prepared:
    """The one preparation of f for a Gaussian-weighted consumer on ``grid``:
    refused outside the spaces of weight ``alpha`` (:class:`NotInSpaceError`)
    and extended until its tail at the grid's radius is certified below
    ``TAIL_TOL`` relative (:func:`slicefock.series._radius_certificate`).
    Where ``DEGREE_CAP`` stops that short, the tail is certified as the
    consumers read it, weighted: at every radial node r its bound times
    e^{-alpha r^2 / 2} must lie below ``TAIL_TOL`` of the largest weighted
    sum of the terms (at least 1).  The consumers read the rows in
    log-polar form, so generator rows stored below the float range keep
    their closed-form sizes."""
    _check_in_space(f, alpha)
    fe, _, log_tail = _radius_certificate(f, grid.max_radius)
    if log_tail > math.log(TAIL_TOL):        # at the degree cap
        log_tail = _check_certified(_weighted_tail(fe, alpha, grid.radial_nodes),
                                    TAIL_TOL, f"radius {grid.max_radius:g}")
    return Prepared(fe, math.exp(log_tail))


def _weighted_tail(fe: SliceSeries, alpha: float, r: np.ndarray) -> float:
    """log of the largest bound on sum_{k > D} |a_k| r^k e^{-alpha r^2 / 2}
    over the radii r, relative to the largest weighted sum of the stored
    terms (at least 1): geometric from the last two stored terms where the
    generator's ratio bound is below 1, else its whole series' bound."""
    g, deg = fe.generator, fe.degree
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = fe.log_row_norms + np.multiply.outer(np.log(r), np.arange(deg + 1))
        rho = g.term_ratio(r, deg)
        tail = np.where(rho < 1.0, np.max(logs[:, -2:], axis=1) + np.log(rho / (1.0 - rho)),
                        g.log_total(r)) - 0.5 * alpha * r * r
        ref = max(0.0, float(np.max(_log_sum(logs) - 0.5 * alpha * r * r)))
    return float(np.max(tail)) - ref


# ---------------------------------------------------------------------------
# p = 2: coefficient sums

@functools.lru_cache(maxsize=2)
def _log_factorials(size: int) -> np.ndarray:
    """log k! for k < size in extended precision, read-only, built on first
    use (:func:`_log_factorial_table` sizes it): the sums of log j, so that
    its consumers round once, each within about half an ulp of a float
    (gammaln's float values lie several ulps off, most of them high)."""
    logs = np.log(np.arange(1, max(size, 1), dtype=np.longdouble))
    return _read_only(np.concatenate([np.zeros(1, np.longdouble), np.cumsum(logs)]))


def _log_factorial_table(top: int) -> np.ndarray:
    """log k! for k <= ``top`` at least: one table up to ``DEGREE_CAP`` for
    every series' rows, one up to EVEN_P_CAP / 2 times it for the even-p
    products (past them only for a polynomial stored beyond the cap)."""
    if top <= DEGREE_CAP:
        return _log_factorials(DEGREE_CAP + 1)
    return _log_factorials(max(top, EVEN_P_CAP // 2 * DEGREE_CAP) + 1)


@functools.lru_cache(maxsize=64)
def _log_weights(beta: float, size: int) -> np.ndarray:
    """log k! - k log beta for k < size, each rounded once from extended
    precision, read-only: k! / beta^k is the squared plane norm of q^k at
    p = 2 (beta = alpha), and the weight of a product's coefficient at even
    p (:func:`_even_images`)."""
    k = np.arange(size)
    return _read_only(np.asarray(_log_factorials(size) - k * np.log(np.longdouble(beta)),
                                 float))


@functools.lru_cache(maxsize=64)
def _closed_log_terms(g: ExpGenerator, alpha: float, size: int) -> np.ndarray:
    """log t_k of the generator's rows a_{sj} = c^j / j! (stride s) for
    k < size from the closed form, j log(|c|^2 / alpha^s) + log (sj)! -
    2 log j!, each rounded once from extended precision, so that the large
    logs of |c|^2 and alpha^s cancel without loss (-inf off the stride),
    read-only."""
    k = np.arange(size)
    j = k // g.stride
    c = np.array(g.c, np.longdouble)
    ratio = np.log(np.sum(c * c)) - g.stride * np.log(np.longdouble(alpha))
    table = _log_factorials(size)
    out = np.asarray(j * ratio + table - 2.0 * table[j], float)
    out[k % g.stride != 0] = -math.inf
    return _read_only(out)


def _parseval_log_terms(log_sq, count: int, alpha: float, g: ExpGenerator | None = None):
    """log of |a_k|^2 k! / alpha^k for k < ``count`` from log |a_k|^2
    (:func:`_log_weights`; with log_sq = 0 the weights alone).  A generator
    ``g``'s rows come from its closed form (:func:`_closed_log_terms`)
    instead, so no large logs cancel; a row that overflowed storage stays
    +inf, refused."""
    size = _log_factorial_table(count - 1).size
    out = log_sq + _log_weights(alpha, size)[:count]
    if g is not None and g.size > 0.0:     # c = 0: every row past a_0 is 0
        out = np.where(out < math.inf, _closed_log_terms(g, alpha, size)[:count], math.inf)
    return out


class ParsevalTerms(NamedTuple):
    """f's certified Parseval terms t_k = |a_k|^2 k! / alpha^k
    (:func:`_parseval_terms`): the extended series, log t_k (log 0 for a
    vanishing row), and the log of the bound on the terms past the stored
    degree relative to the sum of the stored terms."""

    series: SliceSeries
    logw: np.ndarray
    log_tail: float


def _parseval_terms(f: SliceSeries, alpha: float,
                    log_tol: float = math.log(PARSEVAL_TAIL_TOL)) -> ParsevalTerms:
    """The one Parseval certificate: f refused outside the spaces of weight
    ``alpha`` (:class:`NotInSpaceError`), then extended until its terms'
    tail is below e^log_tol relative (:func:`slicefock.series._certified`),
    or up to ``DEGREE_CAP`` with the tail bound it leaves there, which every
    consumer charges; its rows' sizes are read from
    :attr:`SliceSeries.log_row_norms`, so a generator row stored below the
    float range counts with its closed form."""
    _check_in_space(f, alpha)
    return ParsevalTerms(*_certified(
        f, lambda log_mags, k: _parseval_log_terms(2.0 * log_mags, k.size, alpha, f.generator),
        lambda deg: f.generator.parseval_ratio(alpha, deg), log_tol, -math.inf,
        f"alpha = {alpha:g}"))


def _log_sum(logs: np.ndarray) -> np.ndarray:
    """log sum_k e^{logs[..., k]} over the last axis, each row scaled by its
    largest entry; -inf for a row of -inf."""
    top = logs.max(axis=-1, keepdims=True)
    np.maximum(top, -1e308, out=top)      # a row of -inf sums to 0: log -inf
    with np.errstate(divide="ignore"):
        return top[..., 0] + np.log(np.exp(logs - top).sum(axis=-1))


def _real_multipliers(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Real multipliers m in the form :func:`_multiplier_norm` takes:
    (log |m|, sign m, theta = 0)."""
    with np.errstate(divide="ignore"):   # a multiplier 0 drops its row
        return np.log(np.abs(m)), np.sign(m), 0.0


def _multipliers(mult, size: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One group of ``mult`` (as :func:`_multiplier_norm` takes it) over the
    degrees 0..size-1 as (log |m|, sign, theta), each of shape (images,
    size); for f itself (None), one image of multiplier 1, all three None."""
    if mult is None:
        return None, None, None
    log_r, sign, theta = mult(np.arange(size))
    log_r = np.atleast_2d(log_r)
    zero = np.zeros(log_r.shape)    # cheaper than two broadcast views of sign and theta
    return log_r, sign + zero, theta + zero


#: Largest count of values one block of multiplier images holds at once:
#: grid values in :func:`_multiplier_norm`, multipliers in the coefficient
#: sums.
_IMAGE_BLOCK = 1 << 16


def _over_images(mults: list, size: int, per_image: int, evaluate
                 ) -> tuple[list[np.ndarray], list[int]]:
    """``evaluate(log_r, sign, theta)`` over the images of the groups
    ``mults`` (each read once by :func:`_multipliers` over the degrees
    0..size-1; None, f itself, only alone), in blocks of at most
    ``_IMAGE_BLOCK // per_image`` images (at least one) that may span
    groups: each of its per-image results concatenated over the blocks,
    and the index of each group's first image (:func:`_group_max`).  One
    block of images is held at a time, besides the group being read."""
    limit = max(1, _IMAGE_BLOCK // per_image)
    starts, out, pending = [], [], []
    held = total = 0

    def flush():
        out.append(evaluate(*pending[0]) if len(pending) == 1 else evaluate(
            *(None if parts[0] is None else np.concatenate(parts) for parts in zip(*pending))))
        pending.clear()

    for mult in mults:
        images = _multipliers(mult, size)
        count = 1 if images[0] is None else len(images[0])
        if count <= limit and len(mults) == 1:       # one group in one block
            return list(evaluate(*images)), [0]
        starts.append(total)
        total += count
        lo = 0
        while lo < count:
            hi = min(count, lo + limit - held)
            pending.append(images if hi - lo == count else [x[lo:hi] for x in images])
            held += hi - lo
            lo = hi
            if held == limit:
                flush()
                held = 0
    if pending:
        flush()
    return list(out[0]) if len(out) == 1 else [np.concatenate(r) for r in zip(*out)], starts


def _group_max(values: np.ndarray, starts: list[int]) -> list[float]:
    """The largest of each group's entries of ``values``, the groups
    starting at ``starts`` (:func:`_over_images`)."""
    if len(starts) == 1:
        return [float(values.max())]
    return np.maximum.reduceat(values, starts).tolist()


def _relative(log_err: float, log_value: float) -> float:
    """e^{log_err - log_value}: 0 with nothing to charge, inf (refused) past
    the float range, for nan, or with a charge on a value of 0."""
    if log_err == -math.inf:
        return 0.0
    y = log_err - log_value
    return math.exp(y) if y < 709.0 else math.inf


def _charged(evaluate, terms: ParsevalTerms, alpha: float) -> tuple:
    """The one charge rule of every coefficient sum.  ``evaluate(terms)``
    (:func:`_parseval_power`, :func:`_even_power`, :func:`_first_images`)
    gives per group of images the log of its power, the charges of f's
    tail and of the rounding relative to its norm, then what else its
    caller reads.  Where the largest tail charge x exceeds half the budget,
    f's terms are certified once more, for every group, at a tail smaller
    by (16 x / (NORM_TAIL_BUDGET / 2))^2 (the smallest float at least), as
    every charge shrinks at least as fast as the tail's square root.
    Returns the log powers, the groups' charges checked against the budget
    (:func:`_check_tail_budget`), the terms read, and the rest."""
    log_pow, tails, roundings, *rest = evaluate(terms)
    x = max(tails)
    if x > 0.5 * NORM_TAIL_BUDGET:
        log_tol = max(terms.log_tail - 2.0 * math.log(16.0 * x / (0.5 * NORM_TAIL_BUDGET)),
                      math.log(5e-324))
        if log_tol < terms.log_tail:
            terms = _parseval_terms(terms.series, alpha, log_tol)
            log_pow, tails, roundings, *rest = evaluate(terms)
    return (log_pow, [_check_tail_budget(t + r) for t, r in zip(tails, roundings)], terms,
            *rest)


def _parseval_power(terms: ParsevalTerms, mults=(None,), bounds=(1.0,)
                    ) -> tuple[list[float], list[float], list[float]]:
    """Per group of ``mults`` (as :func:`_multiplier_norm` takes them; None
    for f itself) the log of the largest p = 2 power sum_k |m_k|^2 t_k of
    f's Parseval terms over its images, the charge of f's tail relative to
    its norm, and no rounding charge (:func:`_charged`): with |m_k| <= the
    group's entry of ``bounds`` past the stored degree the tail adds at
    most tail bound^2 sum_k t_k to the power, charged from its log.  Three
    lists, one entry per group."""
    log_total = float(_log_sum(terms.logw))
    if mults[0] is None:        # f itself
        log_sq = [log_total]
    else:
        (log_sq,), starts = _over_images(
            mults, terms.logw.size, terms.logw.size,
            lambda log_r, sign, theta: (_log_sum(2.0 * log_r + terms.logw),))
        log_sq = _group_max(log_sq, starts)
    # a unit of relative tail adds e^gap of each power to it, half that to its norm
    gaps = [log_total + 2.0 * math.log(b) - s for b, s in zip(bounds, log_sq)]
    return log_sq, [0.5 * _relative(terms.log_tail, -g) for g in gaps], [0.0] * len(gaps)


# ---------------------------------------------------------------------------
# even p = 2m.  With f = F + G J on the plane of I (F, G holomorphic,
# :func:`slicefock.series.split`), |f|^2 = |F|^2 + |G|^2, so |f|^{2m} =
# sum_j C(m, j) |F^j G^{m-j}|^2.  For h = sum_k c_k z^k, beta = m alpha and
# s_k = c_k (k! / beta^k)^(1/2), the integral of |h|^2 e^{-beta |z|^2} over
# a plane is (pi / beta) ||s||^2, and the prefactor beta / pi leaves
# ||s||^2.  Over the algebra dV = y^2 dx dy dsigma(u) on y > 0, and on each
# plane y^2 = (2 |z|^2 - z^2 - zbar^2) / 4 makes the integral of y^2 |h|^2
# e^{-beta |z|^2} (pi / (2 beta^2)) s^H H s = (pi / (2 beta^2)) ||L^T s||^2,
# H = L L^T the first kind's Gram below.  The prefactor (beta / pi)^2 and
# the half sphere's 2 pi cancel it: ||f||_{2m, first}^{2m} is the mean over
# units u of sum_j C(m, j) ||L^T s_u^(j)||^2, an even form in u of degree
# 2 floor(m / 2), A being even in y and u.w odd (:func:`_affine_square`).

#: Unit roundoff of a float.
_UNIT_ROUNDOFF = 2.0 ** -53

_GOLDEN = 0.5 * (1.0 + math.sqrt(5.0))

#: The planes whose mean is the first kind's mean over the sphere of units
#: at p = 2m, and how far their units may lie from the exact ones: the
#: octahedron's axes i, j, k (exact), a spherical 3-design, for the
#: quadratic forms of m <= 3, and the icosahedron's six axes (0, 1, +-phi)
#: and their cyclic shifts (within 8 u), a 5-design, for the quartic of
#: m = 4 (P. Delsarte, J. M. Goethals and J. J. Seidel, Spherical codes and
#: designs, Geom. Dedicata 6, 1977).  An even form takes one value at u
#: and -u, so one unit per axis.
_PLANE_DESIGNS = (((UNIT_I, UNIT_J, UNIT_K), 0.0),
                  (tuple(ImaginaryUnit.from_vector(v) for v in (
                      (0.0, 1.0, _GOLDEN), (0.0, 1.0, -_GOLDEN), (1.0, _GOLDEN, 0.0),
                      (-1.0, _GOLDEN, 0.0), (_GOLDEN, 0.0, 1.0), (-_GOLDEN, 0.0, 1.0))),
                   8.0 * _UNIT_ROUNDOFF))


@functools.lru_cache(maxsize=16)
def _plane_splits(units: tuple[ImaginaryUnit, ...]) -> np.ndarray:
    """(4, 2n) complex P with d @ P = (F_1, G_1, ..., F_n, G_n) for
    d = F + G J on the plane of each of the n ``units``, F and G read in the
    basis {1, I} and J perpendicular to I
    (:func:`slicefock.quaternion.perpendicular_unit`), read-only."""
    to_fg = np.array([[1.0, 0.0], [1j, 0.0], [0.0, 1.0], [0.0, 1j]])
    blocks = []
    for unit in units:
        i = unit.as_quaternion()
        j = perpendicular_unit(unit).as_quaternion()
        basis = np.array([[1.0, 0.0, 0.0, 0.0], i.to_array(), j.to_array(), (i * j).to_array()])
        blocks.append(basis.T @ to_fg)
    return _read_only(np.hstack(blocks))


#: Largest count of product coefficients :func:`_even_images` holds at once.
_PRODUCT_BLOCK = 1 << 18


@functools.lru_cache(maxsize=64)
def _even_weights(m: int, deg: int) -> tuple[np.ndarray, ...]:
    """The tables of :func:`_even_images` at p = 2m for a stored degree D:
    log k! / (k0 / m)^k for k <= D, whose difference with f's log t_k
    swaps the weights k! / alpha^k for the dilation's; the products'
    log k! / k0^k, k <= mD; C(m, j); log C(m, j) k! / k0^k per row j and
    its size in ulps (k0 = m max(D, 1) / 2, each rounded once,
    :func:`_log_weights`)."""
    half_k0 = 0.5 * max(deg, 1)                          # k0 / m
    size = _log_factorial_table(m * deg).size
    log_w = _log_weights(m * half_k0, size)[:m * deg + 1]
    binom = np.array([math.comb(m, j) for j in range(m + 1)], float)
    log_cw = log_w + np.log(binom)[:, None]
    return tuple(_read_only(x) for x in (
        _log_weights(half_k0, size)[:deg + 1], log_w, binom, log_cw, np.abs(log_cw) + 4.0))


def _band(x: np.ndarray, diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """diag_k x_k + sub_k x_{k+2} along the last axis: L^T x for the first
    kind's factor (:func:`_first_factor`, sub_k = m_{k+2}), |L^T| x with
    -sub for its sizes."""
    out = diag * x
    out[..., :-2] += sub[:-2] * x[..., 2:]
    return out


def _even_images(terms: ParsevalTerms, spec: NormSpec, log_r: np.ndarray | None = None,
                 sign: np.ndarray | None = None, theta: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per image of f under the multipliers sign e^{log_r} e^{I theta}
    (each of shape (images, D + 1), as :func:`_multipliers` gives them; f
    itself without) at p = 2m: log P, P the prefactored p-th power on the
    plane of ``spec``'s unit in the second kind, the mean over the planes of
    a design (:data:`_PLANE_DESIGNS`) in the first, and the log of a bound
    on the rounding of its norm P^(1/p).  The planes are an axis of one
    pass next to the images, in blocks of ``_PRODUCT_BLOCK`` coefficients;
    for f with real rows, whose |f(x + u y)| does not depend on u, the
    plane of i alone.

    F and G are read from f's rows in log-polar form (:func:`_plane_splits`),
    dilated by R, R^2 = k0 / (m alpha) with k0 = m max(D, 1) / 2 for f's
    stored degree D, and each image scaled by e^{-s}, s its largest log row
    size: row k has size (log t_k - log k! + k log(k0 / m)) / 2 + log |m_k|
    - s and direction sign_k e^{I theta_k} dir_k.  The products'
    coefficients are then c_k R^k e^{-m s}, their weights w_k = k! / k0^k
    (:func:`_log_weights`) lie in [e^{-k0}, 1] over the degrees 0..mD, and
    the coefficients that bear on P stay inside the float range.  On a plane
    P sums C(m, j) w_k |c_k^(j)|^2 in log space; over the algebra the
    scaled s_k^(j) = (C(m, j) w_k)^(1/2) c_k^(j) pass through L^T
    (:func:`_first_factor`).

    Rounding: the rows are off by delta of their sizes A_k (their logs, the
    split, the phases), one direct convolution by gamma_{D+3} of its
    majorant, so every product by eps = (1 + delta)^m (1 + gamma)^(m-1) - 1
    of A^{*m} (its float value taken 1 + 2 eps larger), plus eta, the
    underflow of m (D + 1)^m products.  With e_k that bound, P moves by at
    most sum_k w_k e_k sum_j C(m, j) (2 |c_k^(j)| + e_k) on a plane, and
    the sum adds each term's rounding in log space.  Over the algebra row k
    of L^T s^(j) moves by at most d_k = |L^T| of the bound (C(m, j)
    w_k)^(1/2) e_k plus the rounding of each term s_k and of the band (the
    entries of L are within an ulp), and P by sum d_k (2 |(L^T s)_k| +
    d_k).  Both add gamma_N of the sum and the rounding of log P.  The mean
    over planes averages their charges, and adds its own rounding and, for
    units d off the exact design's, 4 2^p d of the mean: the form has
    degree at most 4 (Bernstein's inequality on the sphere) and lies at
    most 2^p above its value at any plane (the representation formula gives
    |f(x + J y)| <= |f(x + I y)| + |f(x - I y)|).  A relative error r < 1/2
    of P moves the norm by r / (p (1 - r)) of it, a larger one E by
    E^(1/p)."""
    u, p = _UNIT_ROUNDOFF, spec.p
    m = int(p) // 2
    first = spec.kind == "first"
    fe = terms.series
    deg = fe.degree
    dilated, log_w, binom, log_cw, cw_ulps = _even_weights(m, deg)
    rows = 0.5 * (terms.logw - dilated)
    if log_r is None:
        log_r = np.zeros((1, deg + 1))
    gamma = (deg + 3) * u / (1.0 - (deg + 3) * u)
    eta = math.exp(math.log(m) + m * math.log(deg + 1.0) - 1072.0 * math.log(2.0))
    units, off = _PLANE_DESIGNS[m > 3] if first else ((spec.slice_unit,), 0.0)
    if first and not fe.directions[:, 1:].any():
        units, off = (UNIT_I,), 0.0      # real rows: |f(x + u y)| is the same on every plane
    n, size = len(units), log_w.size
    split = (fe.directions @ _plane_splits(units)).T     # (F, G) of each row on each plane
    if first:
        diag, sub = _first_factor(size)
        diag, sub, root_binom = diag[:size], sub[2:size + 2], np.sqrt(binom)[:, None]
        abs_sub, half_log_w = -sub, 0.5 * log_w
    block = max(1, _PRODUCT_BLOCK // ((m + 1) * size * n))
    log_pow, rel = np.empty(len(log_r)), np.empty(len(log_r))
    for lo in range(0, len(log_r), block):
        at = slice(lo, lo + block)
        logs = log_r[at] + rows
        shift = logs.max(axis=1)
        zero = shift == -math.inf                        # an image of zeros, exactly 0
        shift[zero] = 0.0
        a = np.exp(logs - shift[:, None])
        phased = a if sign is None else a * sign[at] * np.exp(1j * theta[at])
        # each image's rows are off by delta of their sizes: their logs' sizes in ulps
        ulps = np.where(a > 0.0, np.abs(logs) + np.abs(terms.logw), 0.0)
        delta = 4.0 * u * (ulps.max(axis=1) + np.abs(shift) + 4.0)
        ep = ((1.0 + delta) ** m * (1.0 + gamma) ** (m - 1) - 1.0)[:, None]
        sh = 2.0 * m * shift[:, None]
        c = np.empty((len(a), n, m + 1, size), complex)
        maj = np.empty((len(a), size))
        for i, (row, mag) in enumerate(zip(phased, a)):
            mj = mag
            for _ in range(m - 1):
                mj = np.convolve(mj, mag)
            maj[i] = mj
            for out, (f1, g1) in zip(c[i], (split * row).reshape(n, 2, -1)):
                pf = [None, f1]                                  # F^j from j = 1
                for _ in range(m - 1):
                    pf.append(np.convolve(pf[-1], f1))
                out[m] = pf[m]
                if not g1.any():         # G = 0, as for real rows: F^m alone
                    out[:m] = 0.0
                    continue
                pg = [None, g1]
                for _ in range(m - 1):
                    pg.append(np.convolve(pg[-1], g1))
                out[0] = pg[m]
                for j in range(1, m):
                    out[j] = np.convolve(pf[j], pg[m - j])
        size_c = np.abs(c)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_c = np.log(size_c)
            logs = 2.0 * log_c + log_cw
            top = np.maximum(logs.max(axis=(2, 3)), -1e308)[..., None, None]
            scaled = np.exp(logs - top)
            # each term's rounding: its logs' sizes in ulps
            term_ulps = np.where(scaled > 0.0, 2.0 * np.abs(log_c) + cw_ulps + (top - logs), 0.0)
            e = ep * (1.0 + 2.0 * ep) * maj + eta
            top = top[..., 0, 0]
            if first:
                mags = np.sqrt(scaled)
                r = np.where(size_c > 0.0, size_c, 1.0)[..., None]   # phases by real division
                s = (c.view(float).reshape(*c.shape, 2) / r).view(complex)[..., 0] * mags
                y = np.abs(_band(s, diag, sub))
                total = (y * y).sum(axis=(2, 3))
                # rows of L^T s move by |L^T| of each term's rounding (and the
                # band's own) and of the products' bound, (C(m, j) w_k)^(1/2) e_k
                # on the scale of s
                d = mags * (4.0 * u * term_ulps + 9.0 * u) + root_binom * np.exp(
                    half_log_w - 0.5 * top[..., None] + np.log(e)[:, None])[:, :, None]
                d = _band(d, diag, abs_sub)
                moved = (d * (y + y + d)).sum(axis=(2, 3)) + 3.0 * u * total
            else:
                total = scaled.sum(axis=(2, 3))
                spread = 2.0 * (binom @ size_c) + 2.0 ** m * e[:, None]
                moved = np.exp(log_w + np.log(e[:, None]) + np.log(spread) - top[..., None]).sum(
                    axis=-1) + np.sum(scaled * term_ulps, axis=(2, 3)) * 4.0 * u
            log_v = top + np.log(total)
            summed = total * ((m + 1) * size * u + 4.0 * u * (np.abs(log_v) + np.abs(sh) + 2.0))
            err = moved + np.where(total > 0.0, summed, 0.0)
            lp, rl = log_v + sh, err / total
            if n > 1:                # the mean over the planes
                peak = lp.max(axis=1)
                share = np.exp(lp - peak[:, None])
                mean = share.sum(axis=1)
                rl = (share * rl).sum(axis=1) / mean
                lp = peak + np.log(mean / n)
                rl += 4.0 * u * (n + np.abs(lp) + 2.0) + 4.0 * 2.0 ** p * off
            log_pow[at] = np.where(zero, -math.inf, lp.ravel())
            rel[at] = np.where(zero, 0.0, rl.ravel())
    with np.errstate(divide="ignore", invalid="ignore"):
        # -inf where nothing is charged
        return log_pow, log_pow / p + np.where(rel < 0.5, np.log(rel / (p * (1.0 - rel))),
                                               np.log(rel) / p)


def _first_tail(terms: ParsevalTerms, spec: NormSpec) -> float:
    """log of a bound on the first-kind p-norm, p = 2m, of f's tail T past
    its stored degree D, by Minkowski over its monomials: ||T|| <= sum_{k>D}
    |a_k| ||q^k||, ||q^k||^p = Gamma(k m + 2) / (m alpha)^{k m} (the radial
    integral over the algebra).  There |a_k| ||q^k|| = t_k^(1/2) g_k with
    g_k^{2m} = Gamma(k m + 2) / (m^{k m} k!^m), free of alpha, and
    g_{k+1} / g_k <= (1 + 1 / (m (k + 1)))^{1/(2m)}; with the ratio bound
    rho >= t_{k+s} / t_k (stride s) behind the tail bound the sum is
    geometric from the last two stored rows, of ratio rho^(1/2)
    (1 + 1 / (m max(D, 1)))^{s/(2m)}."""
    if not -math.inf < terms.log_tail < math.inf:      # no tail, or none certified
        return terms.log_tail
    deg, g = terms.series.degree, terms.series.generator
    m = int(spec.p) // 2
    log_x = 0.5 * math.log(g.parseval_ratio(spec.alpha, deg)) \
        + g.stride / (2.0 * m) * math.log1p(1.0 / (m * max(deg, 1)))
    if not log_x < 0.0:
        return math.inf
    top = max(0.5 * terms.logw[k] - 0.5 * math.lgamma(k + 1.0)
              + (math.lgamma(k * m + 2.0) - k * m * math.log(m)) / (2.0 * m)
              for k in range(max(deg - 1, 0), deg + 1))
    return float(top) + log_x - math.log(-math.expm1(log_x))


def _even_power(terms: ParsevalTerms, spec: NormSpec, mults=(None,), bounds=(1.0,)
                ) -> tuple[list[float], list[float], list[float]]:
    """Per group of ``mults`` (as :func:`_multiplier_norm` takes them; None
    for f itself) the log of the largest prefactored p-th power of its
    images at even p (:func:`_even_images`), and the charges of f's tail
    and of the images' rounding relative to its norm (:func:`_charged`).
    f's tail T past the stored degree moves each image's norm by at most
    ||T'||_p, T' its image, with |m_k| <= the group's entry of ``bounds``
    past the degree.  On a plane that is at most ||T'||_2 <= bound (tau
    sum_k t_k)^(1/2), tau the relative tail: Minkowski, then the embedding
    ||h||_{q, alpha} <= ||h||_{p, alpha} for p <= q in this normalization
    (K. Zhu, Analysis on Fock Spaces, Thm 2.10).  Over the algebra it is
    Minkowski over the monomials (:func:`_first_tail`).  Three lists, one
    entry per group."""
    p = spec.p
    (log_pow, log_err), starts = _over_images(
        mults, terms.series.degree + 1, terms.series.degree + 1,
        functools.partial(_even_images, terms, spec))
    best, worst = _group_max(log_pow, starts), _group_max(log_err, starts)
    log_tail = _first_tail(terms, spec) if spec.kind == "first" \
        else 0.5 * (terms.log_tail + float(_log_sum(terms.logw)))
    return best, [_relative(math.log(b) + log_tail, v / p) for b, v in zip(bounds, best)], \
        [_relative(w, v / p) for w, v in zip(worst, best)]


# ---------------------------------------------------------------------------
# first kind at p = 2: <q^m, q^m> = (m+1)! / alpha^m, <q^m, q^{m+2}> =
# -(m+2)! / (2 alpha^{m+1}), 0 otherwise.  On the scaled rows s_k = a_k
# sqrt(k! / alpha^k) the Gram is H, free of alpha: k + 1 on the diagonal and
# -sqrt((k+1)(k+2)) / 2 at (k, k+2).  With D its diagonal, D^{-1/2} H D^{-1/2}
# = I + O has two entries below 1/2 per row off the diagonal, so
# (Gershgorin) it lies in (0, 2) and ||O|| < 1.

def _first_factor(rows: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """H = L L^T on at least ``rows`` rows: l_k = L[k, k] and m_k =
    L[k, k-2] (0 below 2, two more past the end).  One table serves every
    series and E_n (DEGREE_CAP + 3 rows), one the even-p products (EVEN_P_CAP
    / 2 times as many; past them only a polynomial stored beyond the cap)."""
    base = DEGREE_CAP + 3
    return _factor_table(base if rows <= base else max(rows, EVEN_P_CAP // 2 * base))


@functools.lru_cache(maxsize=4)
def _factor_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_first_factor` on ``size`` rows, read-only.  Even and odd
    degrees decouple, so each parity is one tridiagonal chain; it runs in
    extended precision and is rounded once, so each entry lies within an
    ulp of its exact value."""
    diag, sub = np.empty(size, np.longdouble), np.zeros(size + 2, np.longdouble)
    for k in range(size):
        if k >= 2:
            sub[k] = -np.sqrt(np.longdouble((k - 1) * k)) / (2.0 * diag[k - 2])
        diag[k] = np.sqrt(k + 1.0 - sub[k] * sub[k])
    return _read_only(diag.astype(float)), _read_only(sub.astype(float))


def _gram_rows(x: np.ndarray) -> np.ndarray:
    """L^T x for scaled rows x (..., K, 4), row k l_k x_k + m_{k+2} x_{k+2}:
    the first-kind p = 2 power is ||L^T x||^2, a sum of squares, and <x, y>
    is sum_k conj((L^T x)_k) (L^T y)_k."""
    k = x.shape[-2]
    diag, sub = _first_factor(k)
    return _band(np.swapaxes(x, -1, -2), diag[:k], sub[2:k + 2]).swapaxes(-1, -2)


def _scaled_rows(terms: ParsevalTerms, size: int = 0, log_r: np.ndarray | None = None,
                 sign: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f's rows m_k s_k for each image of real multipliers sign e^{log_r}
    (each of shape (images, K), as :func:`_multipliers` gives them; f
    itself without), each image times e^{-top/2}, top its largest log m_k^2
    t_k: (x of shape (images, K, 4), zero past f's rows up to ``size``,
    top, and the rows' sizes, of shape (images, K)).  Directions come from
    the series' log-polar rows (:attr:`SliceSeries.directions`) and sizes
    from the certified log t_k, so no row leaves the float range before its
    scale."""
    dirs, logw = terms.series.directions, terms.logw[None]
    if log_r is not None:
        logw = 2.0 * log_r + logw
    top = np.maximum(logw.max(axis=-1), -1e308)    # an image of zeros stays 0
    x = np.zeros((top.size, max(size, dirs.shape[0]), 4))
    mag = np.exp(0.5 * (logw - top[:, None]))
    x[:, :dirs.shape[0]] = dirs * mag[..., None]
    if sign is not None:
        x[:, :dirs.shape[0]] *= sign[..., None]
    return x, top, mag


def _charged_bound(terms: ParsevalTerms, alpha: float, first: bool) -> tuple[int, float]:
    """(K, log W): K = D + 1, the first of f's rows past its stored degree
    D, and W >= sum_{k >= K} w_k t_k over them, w_k = 1 on a plane and
    k + 1 over the algebra, where the ratio bound rho on t_{k+s} / t_k
    (stride s) behind the tail bound weighs them by D + 1 + s / (1 - rho)."""
    deg, g, log_w = terms.series.degree, terms.series.generator, terms.log_tail
    if -math.inf < log_w < math.inf:
        if first:
            log_w += math.log(deg + 1 + g.stride / (1.0 - g.parseval_ratio(alpha, deg)))
        log_w += float(_log_sum(terms.logw))
    return deg + 1, log_w


def _first_rows(terms: ParsevalTerms, n: int, log_r: np.ndarray | None = None,
                sign: np.ndarray | None = None, theta: np.ndarray | None = None) -> tuple:
    """Per image of f under the real multipliers sign e^{log_r} (each of
    shape (images, K), as :func:`_multipliers` gives them; f itself
    without) for :func:`_first_images`: log P, P the image's first-kind
    p = 2 power, or with n >= 0 its residual's past the best degree-n
    approximation, the log of b, the log of a bound on the rounding of
    P^(1/2) (:func:`_root_rounding`), the rows r and their scale e^{top/2}
    (:func:`_scaled_rows`)."""
    x, top, mag = _scaled_rows(terms, n + 3, log_r, sign)
    size = x.shape[1]
    diag, sub = _first_factor(size)
    for k in range(n, -1, -1):
        x[:, k] = -sub[k + 2] / diag[k] * x[:, k + 2]
    total = np.sum(np.square(_gram_rows(x)[:, n + 1:]), axis=(-2, -1))
    log_p = top + np.log(total)
    deg = terms.series.degree + 1
    lo = max(deg - 2, 0)
    weight = np.arange(1.0, deg + 1.0)          # k + 1
    sized = np.square(mag) * weight
    log_b = top + np.log(sized[:, lo:].sum(axis=-1)) if n < 0 or deg >= n + 3 \
        else math.log(2.0) + log_p
    logw = terms.logw
    ulps = np.abs(logw) + np.abs(terms.series.log_row_norms) \
        + np.abs(logw if log_r is None else 2.0 * log_r + logw)
    np.minimum(ulps, 1e300, out=ulps)           # a row of zeros (logs -inf) has no error
    spread = np.square(mag * ulps)[:, n + 1:] @ weight[n + 1:]
    log_e = np.array([_root_rounding(
        4.0 * _UNIT_ROUNDOFF * math.sqrt(2.0) * (math.sqrt(a) + (abs(t) + 4.75) * math.sqrt(b)),
        s, lp, abs(t), 4 * (size - n - 1), size) for a, b, s, lp, t in zip(
            spread.tolist(), sized[:, n + 1:].sum(axis=-1).tolist(), total.tolist(),
            log_p.tolist(), top.tolist())])
    return log_p, log_b, log_e, x, top


def _root_rounding(dev: float, total: float, log_p: float, top: float, count: int,
                   rows: int) -> float:
    """log of a bound on the rounding of P^(1/2), P = e^{log_p} = ``total``
    e^top a sum of ``count`` squares of the entries of L^T r, r of ``rows``
    rows, -inf for a sum of 0 (an image of zeros, exactly 0).  Row k of r,
    of size A_k, is off by at most e_k = 4 u (U_k + |top| + 4.75) A_k, U_k
    = |log m_k^2 t_k| + |log t_k| + |log |a_k|| its logs' sizes in ulps,
    3 u A_k of it for the band's own rounding (L's entries are within an
    ulp).  P reads only the rows k > n, the image's own, and row k of L^T r
    moves by at most l_k e_k + |m_{k+2}| e_{k+2}, so (l_k^2 + m_k^2 = k +
    1) L^T r moves by at most ``dev`` = 4 u (2 sum_{k>n} (k + 1) (U_k +
    |top| + 4.75)^2 A_k^2)^(1/2), taken by Minkowski, and the root by at
    most ``dev`` and the rows' underflow.  gamma_N, the squares' underflow
    and the rounding of log P, 4 u (|log P| + |top| + 2), move P by a
    relative e, the root by e / (2 (1 - e)) for e < 1/2, by e^(1/2) else."""
    if not total > 0.0:
        return -math.inf
    u = _UNIT_ROUNDOFF
    rel = count * u / (1.0 - count * u) + 4.0 * u * (abs(log_p) + top + 2.0) \
        + count * 2.0 ** -1075 / total
    root = math.sqrt(total)
    return 0.5 * log_p + math.log((dev + (rows + 2.0) * 2.0 ** -1074) / root + (
        rel / (2.0 * (1.0 - rel)) if rel < 0.5 else math.sqrt(rel)))


def _first_images(terms: ParsevalTerms, alpha: float, n: int = -1, mults=(None,),
                  bounds=(1.0,)) -> tuple:
    """Per group of ``mults`` (as :func:`_multiplier_norm` takes them; None
    for f itself) the largest first-kind p = 2 power of its images under
    real multipliers (:func:`_scaled_rows`), or with n >= 0 of their
    residuals r past the best degree-n approximation: (L^T r)_k = 0 for k
    <= n makes r_k = -m_{k+2} r_{k+2} / l_k down from the rows past n, and
    the power is sum_{k>n} |(L^T r)_k|^2 (:func:`_first_rows`).  f's rows
    past its stored degree, from K, bounded by W (:func:`_charged_bound`)
    and their multipliers by the group's entry of ``bounds``, add at most 2
    bound^2 W (H <= 2 D) + 2 bound sqrt(W b) (||O|| < 1 across disjoint
    rows), b the image's weighted rows K - 2 and K - 1, or twice the power
    where they reach row n + 2.  Returns (log power, the charges of f's
    tail and of the rounding relative to the norm (:func:`_charged`), and
    the rows r and their scales of every image); the first three are
    lists, one entry per group."""
    log_bounds = [math.log(b) if b > 0.0 else -math.inf for b in bounds]
    # an image of zeros has log -inf, and nan is refused
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        (log_p, log_b, log_e, x, top), starts = _over_images(
            mults, terms.logw.size, 4 * max(n + 3, terms.logw.size),
            functools.partial(_first_rows, terms, n))
        best, log_b, worst = (_group_max(v, starts) for v in (log_p, log_b, log_e))
        _, log_w = _charged_bound(terms, alpha, True)
        tails = [0.5 * _relative(float(np.logaddexp(
            math.log(2.0) + 2.0 * lb + log_w, math.log(2.0) + lb + 0.5 * (log_w + b))), v)
            for lb, b, v in zip(log_bounds, log_b, best)]
    return best, tails, [_relative(w, 0.5 * v) for w, v in zip(worst, best)], x, top


def _checked_exp(log_value: float, what: str) -> float:
    """e^log_value (0 for log 0), checked as by :func:`_checked_ldexp`."""
    try:
        x = math.exp(log_value)
    except OverflowError:
        x = math.inf
    return _checked_ldexp(x, 0, what, log_value > -math.inf)


def _checked_ldexp(x: float, e: int, what: str, nonzero: bool | None = None) -> float:
    """x 2^e (the kernel's scale, :func:`_weighted_plane`), a value nonzero
    in exact arithmetic where x is (or as ``nonzero`` says): past the float
    range, or below its smallest normal number, :class:`IntegrandOverflowError`."""
    try:
        value = math.ldexp(x, e)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise IntegrandOverflowError(f"{what} exceeds the float range")
    if (x != 0.0 if nonzero is None else nonzero) and abs(value) < sys.float_info.min:
        raise IntegrandOverflowError(f"{what} is nonzero and below the float range")
    return value


def _weighted_plane(dirs: np.ndarray, log_mags: np.ndarray, grid: QuadratureGrid,
                    alpha: float) -> tuple[np.ndarray, int | np.ndarray]:
    """The one plane-evaluation kernel: S e^{-alpha |z|^2 / 2} at the grid's
    nodes for the rows a_k = dirs[k] e^{log_mags[k]} of a prepared series
    (:attr:`SliceSeries.directions`, :attr:`SliceSeries.log_row_norms`) or
    of a multiplier image, in any basis: ``dirs`` of shape (K, c), real or
    complex, and S(z) = sum_k z^k a_k per column, as a complex (R, n, c)
    array v and an integer e.  With a leading image axis, ``dirs`` of shape
    (I, K, c) and ``log_mags`` (I, K), it is v of shape (I, R, n, c) and
    one exponent per image, each image's v and e those it has alone.  On
    the 4 real components f(q) e^{-alpha |q|^2 / 2} is (Re v + u Im v) 2^e
    on q = x + u y; on the split columns (F_k, G_k) of the plane of I
    (:func:`_plane_splits`) it is (F + G J) 2^e there, so its size is |v|
    2^e.  S comes from one FFT for every image and radius of its log-scaled
    terms (:func:`slicefock.series._polar_sum`), each radius's terms scaled
    by e^{top - alpha r^2 / 2 - e ln 2} before the transform, e the integer
    nearest the image's largest exponent over ln 2.  So v is finite where
    the weighted values are, no square of it overflows, and a row below the
    float range keeps its size."""
    scaled, top = _log_scaled_terms(log_mags, grid.radial_nodes)
    lam = top - 0.5 * alpha * grid.radial_nodes ** 2
    e = np.rint(np.max(lam, axis=-1) / math.log(2.0))
    scaled *= np.exp(lam - e[..., None] * math.log(2.0))[..., None]
    # the angular nodes are consecutive on the circle: a view, which keeps
    # each column one contiguous block
    start = int(grid.circle_index[0])
    v = _polar_sum(scaled, dirs, grid.circle_size)[..., start:start + grid.angular_nodes.size, :]
    return v, int(e) if e.ndim == 0 else e.astype(int)


def _grid_sum(integ: np.ndarray, grid: QuadratureGrid) -> float | np.ndarray:
    """Grid sum of a (radial, angular) integrand, or one per image of an
    (images, radial, angular) one.  A non-finite sample is named by
    :func:`_check_finite` (the nodes are built only then), and a radial
    profile that peaks in the last two of four or more shells raises
    :class:`RefinementError`: the grid does not reach the integrand's mass."""
    if not np.all(np.isfinite(integ)):
        _check_finite(integ.reshape(-1, grid.plane_weights.size).T, slice_points(grid)[0])
    with np.errstate(over="ignore"):       # a non-finite norm
        profile = grid.radial_weights * (integ @ grid.angular_weights)
        raw = np.sum(profile, axis=-1)
    shells = profile.shape[-1]
    late = np.argmax(profile, axis=-1) >= shells - 2
    if shells >= 4 and late.any() and np.any(late & (raw > 0.0) & (raw < math.inf)):
        raise RefinementError(
            "weighted integrand peaks at the grid's outermost radial nodes: "
            "refine the grid")
    return float(raw) if raw.ndim == 0 else raw


def _plane_raw_power(amp: np.ndarray, grid: QuadratureGrid, p: float) -> float | np.ndarray:
    """Raw integral of amp^p over the plane grid from the (radial, angular)
    weighted amplitude, or one per image (:func:`_grid_sum`)."""
    with np.errstate(over="ignore"):       # a non-finite sample
        integ = amp ** p
    return _grid_sum(integ, grid)


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


def _volume_raw_power(v: np.ndarray, grid: QuadratureGrid, p: float) -> float | np.ndarray:
    """The raw power over the whole algebra from the kernel's v on one plane
    (:func:`_weighted_plane`; the true one is 4^{e p / 2} times it), one
    per image with a leading image axis: on q = x + u y, |f|^2 w_alpha^2 is
    (A + u.w) 4^e for (a, b) = (Re v, Im v), so the power's sphere integral
    is closed-form."""
    amp_sq, w = _affine_square(v.real, v.imag)
    return _grid_sum(_sphere_power(amp_sq, np.sqrt(np.sum(w * w, axis=-1)), p), grid)


def _multiplier_norm(prepared: Prepared | ParsevalTerms, spec: NormSpec,
                     grid: QuadratureGrid | None, mults=(None,), bounds=(1.0,),
                     prefactors=(True,), whats=("weighted norm",)
                     ) -> tuple[list[float], list[float]]:
    """Per group of multiplier images, the largest ``spec``-norm of sum_k
    q^k m_k a_k over its images, and f's relative tail or charge, f
    ``prepared`` as ``spec`` needs (:func:`prepared_for_spec`; else
    :class:`ValueError`): two lists, one entry per group.  Group g has m_k = sign_k e^{log_r_k} e^{I theta_k},
    (log_r, sign, theta) = ``mults[g](k)`` of shape (images, K), its own
    count of images (theta 0 for real m, :func:`_real_multipliers`; None
    for f itself, only alone), its prefactor left out unless
    ``prefactors[g]``, and is named ``whats[g]`` where its value leaves the
    float range.  Each group's value is charged against itself, and f's
    terms are certified again at most once for all of them, as deep as the
    group that needs the deepest needs.

    At p = 2 a coefficient sum, :func:`_parseval_power` on a plane and
    :func:`_first_images` over the algebra, and at the other even p up to
    ``EVEN_P_CAP`` :func:`_even_power`, f's tail charged at ``bounds[g]``
    >= |m_k| past its stored degree by the one rule of :func:`_charged`; else the largest power of a group's
    images on every plane ``spec`` reads, on the scale of its largest
    exponent.  Each image is formed in log-polar form, row k of size log
    |m_k| + log |a_k|, so a row below the float range keeps its size.  On
    one plane its direction is the split (F_k, G_k) of dir_k, d = F + G J
    (:func:`_plane_splits`), times the scalar sign_k e^{i theta_k}, and the
    amplitude is (|F|^2 + |G|^2)^(1/2); the sphere and the first kind read
    the 4 real components.  The images of every group go through the plane
    kernel together, in blocks of at most ``_IMAGE_BLOCK`` grid values
    (:func:`_over_images`).  A rotation e^{I theta} names the plane of one
    unit, so a complex multiplier on a spec that reads more planes is
    refused (:class:`ValueError`).  A value past the float range, or
    nonzero below it, raises :class:`IntegrandOverflowError` naming its
    group."""
    if isinstance(prepared, ParsevalTerms) != spec.coefficient_sum:
        raise ValueError(f"the {spec.kind}-kind p = {spec.p:g} numbers need " + (
            "Parseval terms" if spec.coefficient_sum else "a grid preparation")
            + f" of f, not {type(prepared).__name__}")
    if spec.slice_unit is None:
        mults = [m if m is None else _real_only(m, spec) for m in mults]
    first = spec.kind == "first"
    if spec.coefficient_sum:
        evaluate = functools.partial(_even_power, spec=spec) if spec.p != 2.0 else \
            functools.partial(_first_images, alpha=spec.alpha) if first else _parseval_power
        log_pow, charges, *_ = _charged(functools.partial(evaluate, mults=mults, bounds=bounds),
                                        prepared, spec.alpha)
        # less the prefactor's log where a group leaves it out
        values = [_checked_exp((lp if pf else lp + (2.0 if first else 1.0) * (
            math.log(math.pi) - math.log(spec.scale))) / spec.p, w)
                  for lp, pf, w in zip(log_pow, prefactors, whats)]
    else:
        values = _grid_norms(prepared, spec, grid, mults, prefactors, whats)
        charges = [prepared.tail] * len(mults)
    return values, charges


def _grid_norms(prepared: Prepared, spec: NormSpec, grid: QuadratureGrid, mults: list,
                prefactors: list, whats: list) -> list[float]:
    """Each group's value in the grid path of :func:`_multiplier_norm`: its
    images' raw powers with one exponent e per image, each group's largest
    on the scale of its largest e."""
    first, one_plane = spec.kind == "first", spec.slice_unit is not None
    _check_mode(grid, "volume" if first else "slice", f"a {spec.kind}-kind norm")
    fe = prepared.series
    dirs, log_mags = fe.directions, fe.log_row_norms
    if one_plane:
        dirs = dirs @ _plane_splits((spec.slice_unit,))      # (F, G) of each row
    units = None if first or one_plane else [u.vector() for u in sphere_grid(spec.sup_samples)]

    def raw_powers(log_r, sign, theta):
        if log_r is None:       # f itself, one image: the kernel's form without the axis
            v, e = _weighted_plane(dirs, log_mags, grid, spec.alpha)
        else:   # e^{I theta} (F + G J) = e^{i theta} F + e^{i theta} G J
            phase = sign * np.exp(1j * theta) if np.any(theta) else sign
            v, e = _weighted_plane(phase[..., None] * dirs, log_r + log_mags, grid, spec.alpha)
        if first:
            raw = _volume_raw_power(v, grid, spec.p)
        elif one_plane:
            amp = np.sqrt(np.sum(np.square(v.real) + np.square(v.imag), axis=-1))
            raw = _plane_raw_power(amp, grid, spec.p)
        else:   # every sampled plane from one evaluation
            amp_sq, lin = _affine_square(v.real, v.imag)
            raw = np.max([_plane_raw_power(np.sqrt(np.maximum(amp_sq + lin @ u, 0.0)), grid,
                                           spec.p) for u in units], axis=0)
        return raw, e

    pref = spec.alpha * spec.p / (2.0 * math.pi)
    if first:
        pref *= pref
    if mults[0] is None:        # f itself, one image on its own scale
        raw, e = raw_powers(None, None, None)
        return [_checked_ldexp(((pref if prefactors[0] else 1.0) * float(raw)) ** (1.0 / spec.p),
                               e, whats[0])]
    per_image = grid.radial_nodes.size * grid.circle_size * dirs.shape[1]
    (raw, e), starts = _over_images(mults, log_mags.size, per_image, raw_powers)
    values = []
    for lo, hi, pf, w in zip(starts, starts[1:] + [e.size], prefactors, whats):
        top = int(e[lo:hi].max())
        best = float(np.max(raw[lo:hi] * 2.0 ** (spec.p * (e[lo:hi] - top))))
        values.append(_checked_ldexp(((pref if pf else 1.0) * best) ** (1.0 / spec.p), top, w))
    return values


def _real_only(mult, spec: NormSpec):
    """``mult`` (one group, as :func:`_multiplier_norm` takes it), refused
    with :class:`ValueError` naming ``spec`` where a theta is nonzero."""
    def checked(k):
        log_r, sign, theta = mult(k)
        if np.any(theta):
            raise ValueError(
                f"a complex multiplier acts on the plane of one unit, not on the "
                f"{spec.slice_label() or 'first-kind'} p = {spec.p:g} norm")
        return log_r, sign, theta
    return checked


def prepared_for_spec(f: SliceSeries, spec: NormSpec, grid: QuadratureGrid
                      ) -> Prepared | ParsevalTerms:
    """The one preparation of f for the numbers of ``spec``: its Parseval
    terms where they are coefficient sums (:attr:`NormSpec.coefficient_sum`),
    else f prepared on ``grid`` (:func:`prepared_for_grid`)."""
    if spec.coefficient_sum:
        return _parseval_terms(f, spec.alpha)
    return prepared_for_grid(f, spec.alpha, grid)


def _norm_value(f: SliceSeries, spec: NormSpec, grid: QuadratureGrid | None
                ) -> tuple[float, float]:
    """(value, f's relative tail or its charge), on ``grid`` or the default
    one where a grid is read."""
    grid = grid or (None if spec.coefficient_sum else default_grid(spec))
    (value,), (tail,) = _multiplier_norm(prepared_for_spec(f, spec, grid), spec, grid)
    return value, tail


def norm(f: SliceSeries, spec: NormSpec, grid: QuadratureGrid | None = None) -> float:
    """Weighted norm of f under ``spec`` on the given (or default) grid.

    It is :func:`_multiplier_norm` of f itself (a coefficient sum that
    reads no ``grid`` where :attr:`NormSpec.coefficient_sum` says so:
    sqrt(sum_k t_k) on a plane at p = 2), f's tail charged
    against ``NORM_TAIL_BUDGET`` of it.  Raises
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
    A coefficient sum (:attr:`NormSpec.coefficient_sum`) is evaluated once and
    reads no grid: its report has stability 0.0 and no grid sizes.
    """
    if spec.coefficient_sum:
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
    return NormReport(v2, spec.kind, spec.p, spec.alpha, spec.slice_label(),
                      fine.sizes, max(tail1, tail2), stability)


# ---------------------------------------------------------------------------
# inner products (p = 2)

def _inner(f: SliceSeries, g: SliceSeries, alpha: float, first: bool) -> Quaternion:
    """sum_k conj(y_k^f) y_k^g over the scaled rows x of f and g
    (:func:`_scaled_rows`), y = L^T x over the algebra and x on a plane,
    times their scales.  With f = f' + d, d its rows from K_f bounded by W_f
    (:func:`_charged_bound`), <d, g'> is at most c sqrt(W_f A_g), A_g the
    weighted mass of g' from K_f - 2 (from K_f on a plane) and c = 2
    (|H| <= 2 D; 1 on a plane); with the same for g's rows, and
    c sqrt(W_f W_g) for both, it is charged against ||f|| ||g||."""
    terms = [_parseval_terms(h, alpha) for h in (f, g)]
    size = max(t.logw.size for t in terms) + 2
    (xf, tf), (xg, tg) = ((x[0], top[0]) for x, top, _ in
                          (_scaled_rows(t, size=size) for t in terms))
    yf, yg = (_gram_rows(x) if first else x for x in (xf, xg))
    m = yf.T @ yg                     # sum_k conj(y_k^f) y_k^g from its 4 x 4 moments
    comps = np.array([np.trace(m), m[0, 1] - m[1, 0] - m[2, 3] + m[3, 2],
                      m[0, 2] - m[2, 0] - m[3, 1] + m[1, 3], m[0, 3] - m[3, 0] - m[1, 2] + m[2, 1]])
    weight, reach = (np.arange(1.0, size + 1.0), 2) if first else (np.ones(size), 0)
    (kf, wf), (kg, wg) = (_charged_bound(t, alpha, first) for t in terms)
    with np.errstate(divide="ignore", invalid="ignore"):   # nan is refused
        ag, af = (top + np.log(weight[lo:] @ np.sum(np.square(x[lo:]), axis=-1))
                  for x, top, lo in ((xg, tg, max(kf - reach, 0)), (xf, tf, max(kg - reach, 0))))
        log_err = math.log(2.0 if first else 1.0) + np.logaddexp.reduce(
            [0.5 * (wf + ag), 0.5 * (af + wg), 0.5 * (wf + wg)])
        log_ref = 0.5 * (tf + tg + np.log(np.sum(yf * yf)) + np.log(np.sum(yg * yg)))
        logs = np.log(np.abs(comps)) + 0.5 * (tf + tg)
    _check_tail_budget(_relative(float(log_err), float(log_ref)))
    return Quaternion(*(math.copysign(_checked_exp(x, "inner product"), c)
                        for x, c in zip(logs, comps)))


def inner_second(f: SliceSeries, g: SliceSeries, alpha: float,
                 unit: ImaginaryUnit = UNIT_I,
                 grid: QuadratureGrid | None = None) -> Quaternion:
    """Plane inner product (alpha/pi) int conj(f) g e^{-alpha |z|^2} dm.

    Normalized so that <f, f> equals the squared second-kind norm at p = 2;
    the rescaled monomials e_k = sqrt(alpha^k / k!) q^k come out orthonormal.
    It is sum_k conj(a_k) b_k k! / alpha^k, the same on every plane, from
    the Parseval certificates of f and g; neither ``unit`` nor ``grid`` is
    read.
    """
    return _inner(f, g, alpha, False)


def inner_first(f: SliceSeries, g: SliceSeries, alpha: float,
                grid: QuadratureGrid | None = None) -> Quaternion:
    """Whole-algebra inner product (alpha/pi)^2 int conj(f) g e^{-alpha |q|^2} dm.

    Monomials q^m, q^n are orthogonal here only when |m - n| is odd or at
    least 4; degrees differing by two genuinely overlap:
    <q^m, q^{m+2}> = -(m+2)! / (2 alpha^{m+1}).  It is sum_mn G_mn
    conj(a_m) b_n over that banded Gram G, from the Parseval certificates of
    f and g; ``grid`` is not read.
    """
    return _inner(f, g, alpha, True)


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


#: The default units of :func:`log_max_modulus`, as one (8, 3) array.
_DEFAULT_UNITS = _read_only(units_array(sphere_grid(8)).reshape(-1, 3))


def log_max_modulus(f: SliceSeries, radius: float, units=None,
                    n_theta: int = 64) -> float:
    """log max |f| over sampled directions at the given radius: the points
    radius (cos t + u sin t) for every sampled unit u (default the 8 units
    of ``sphere_grid(8)``, built once) and n_theta angles t evenly spaced in
    [0, pi].

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
    units = _DEFAULT_UNITS if units is None else units_array(units).reshape(-1, 3)
    fe, _ = prepared_for_radius(f, radius)
    n_circle = max(2 * (n_theta - 1), 1)
    scaled, top = _log_scaled_terms(fe.log_row_norms, np.array([radius]))
    s = _polar_sum(scaled, fe.directions, n_circle)
    amp_sq, w = _affine_square(s[0, :n_theta].real, s[0, :n_theta].imag)
    sq = amp_sq + units @ w.T
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
