"""Moduli of smoothness, best polynomial approximation, and the quantitative
error estimates tying them to the convolution operators.

The k-th rotational difference of a series on a plane has the closed
coefficient form a_j -> (e^{I j h} - 1)^k a_j, since rotating the argument
by h multiplies the degree-j coefficient by e^{I j h}.  The modulus of
smoothness is the sup over step sizes of the weighted L^p size of that
difference; following its definition it carries no normalization prefactor,
unlike the norms (any constant ends up inside the reported ratios).  It,
every operator error and the plane E_n at p = 2 are each one group of
images of :func:`slicefock.spaces._multiplier_norm`, the one
multiplier-image norm: a coefficient sum at p = 2 and at even p up to
:data:`slicefock.spaces.EVEN_P_CAP` (operator errors in both kinds), a
quadrature at every other p.  A sweep over n (:func:`operator_errors`,
:func:`vdp_sweep`, :func:`jackson_sweep`) is one call for all its groups,
both sides of the vdp and Jackson checks together where both are norms;
the single-n functions are its one-element case.

Best approximation at p = 2 is exact from coefficients in both kinds: on a
plane the monomials are orthogonal, so the minimizer is the Taylor
truncation and the error a weighted coefficient tail; over the whole
algebra, where monomials two degrees apart overlap, one recurrence per
parity on the banded Gram's bidiagonal factor gives the residual, whose norm
is the value.  For general p >= 1 on a plane a Newton solve of the
discretized convex problem stops only on a certified duality gap: its
result carries a lower bound on the minimum from weak duality next to the
value it attains.  It works in f's split F + G J on the plane, and builds
each Newton system from one angular FFT of per-node fields on the polar
grid.  :func:`least_squares` is the kernel-section fit's
solver, and the one place ``COND_LIMIT`` is checked.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConditioningError,
    IntegrandOverflowError,
    SolverError,
)
from .memo import memoized
from .operators import MultiplierOperator, jackson_op, jackson_rule_r, vdp_op
from .quaternion import ImaginaryUnit, Quaternion, UNIT_I, slice_unit
from .quadrature import QuadratureGrid, _check_mode, slice_grid
from .series import (
    SliceSeries,
    _at_points,
    extended,
    taylor_truncate,
)
from .spaces import (
    NormSpec,
    NORM_TAIL_BUDGET,
    ParsevalTerms,
    Prepared,
    _Keyed,
    _charged,
    _check_positive,
    _checked_exp,
    _checked_ldexp,
    _first_images,
    _grid_sum,
    _multiplier_norm,
    _parseval_log_terms,
    _parseval_power,
    _parseval_terms,
    _plane_splits,
    _real_multipliers,
    _weighted_plane,
    default_grid,
    prepared_for_grid,
    prepared_for_spec,
)

#: Condition number past which a Gram matrix is refused rather than solved.
COND_LIMIT = 1e12

#: The descent's default relative tolerance on its duality gap
#: (:func:`best_approx_lp`).
DESCENT_TOL = 1e-8


# ---------------------------------------------------------------------------
# rotational differences and the modulus of smoothness

@dataclass(frozen=True)
class ModulusQuery:
    """Parameters of a smoothness modulus: order k, step bound delta, the
    weighted L^p data, and how many step sizes sample the sup."""

    k: int
    delta: float
    p: float
    alpha: float
    unit: ImaginaryUnit = UNIT_I
    h_grid: int = 16

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("difference order must be at least 1")
        _check_positive("exponent p", self.p)
        _check_positive("weight parameter alpha", self.alpha)
        if not 0.0 <= self.delta <= math.pi:
            raise ValueError("step bound must lie in [0, pi]")
        if self.h_grid < 8:
            raise ValueError("need at least 8 step samples")


def finite_difference(f: SliceSeries, k: int, h: float, z: Quaternion,
                      unit: ImaginaryUnit | None = None) -> Quaternion:
    """Alternating binomial sum sum_s (-1)^{k+s} C(k,s) f(z e^{u s h}).

    ``unit`` is the rotation axis; by default the axis of z itself.
    Annihilates constants for every k >= 1; k = 0 gives f(z), and a
    negative k raises ``ValueError``.  Every point has modulus |z|, so all
    k + 1 values come from one plane sum (:func:`slicefock.series._at_points`).
    """
    if k < 0:
        raise ValueError(f"difference order must be nonnegative, got {k!r}")
    if unit is None:
        unit, _ = slice_unit(z)
    t = h * np.arange(k + 1)           # z e^{u t} = z cos t + (z u) sin t
    points = (np.multiply.outer(np.cos(t), z.to_array())
              + np.multiply.outer(np.sin(t), (z * unit.as_quaternion()).to_array()))
    values = _at_points(f, points)
    signs = np.array([(-1.0) ** (k + j) * math.comb(k, j) for j in range(k + 1)])
    return Quaternion.from_array(signs @ values)


def _difference_multipliers(k: int, steps, degrees: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^{I j h} - 1)^k for steps h (rows) and degrees j as (log |r|, sign
    r, theta), r = (2 sin(j h / 2))^k and theta = k (j h + pi) / 2, so no
    digit cancels at a small step; where r leaves the normal float range,
    log |r| is k log |2 sin(j h / 2)|, so a multiplier below it keeps its
    size."""
    half = 0.5 * np.outer(steps, degrees)
    base = 2.0 * np.sin(half)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        r = np.abs(base ** k)
        log_r = np.where((r >= sys.float_info.min) & (r < math.inf), np.log(r),
                         k * np.log(np.abs(base)))
    return log_r, np.sign(base) ** k, k * (half + 0.5 * math.pi)


def modulus(f: SliceSeries, query: ModulusQuery,
            grid: QuadratureGrid | None = None) -> float:
    """Weighted modulus of smoothness: sup over 0 <= h <= delta of the raw
    weighted L^p size of the k-th rotational difference.

    The sup is a max over ``h_grid`` uniform steps including the endpoint,
    nondecreasing in delta and 0 at delta = 0, where nothing is charged.
    f is prepared as :func:`slicefock.spaces.prepared_for_spec` returns it
    for the second-kind p-norm.  The max over the steps' multiplier images
    is one group of :func:`slicefock.spaces._multiplier_norm`
    (:func:`_modulus_images`), f's tail charged at 2^k: exact at p = 2,
    reading neither ``grid`` nor ``query.unit``; at even p up to
    ``EVEN_P_CAP`` coefficient convolutions on the plane of ``query.unit``
    per step, reading no ``grid``; else the steps' images on the plane
    through one batch of the plane kernel."""
    spec = NormSpec("second", query.p, query.alpha, slice_unit=query.unit)
    grid = grid or default_grid(spec)
    prepared = prepared_for_spec(f, spec, grid)
    if query.delta == 0.0:
        return 0.0      # every difference is 0, past the stored rows too
    return _norms(prepared, spec, grid, [_modulus_images(query)])[0]


class _Images(NamedTuple):
    """One group of multiplier images for :func:`_norms`: ``mult`` as
    :func:`slicefock.spaces._multiplier_norm` takes it, the bound on |m_k|
    past f's stored degree, whether the prefactor is in, and what the value
    is called where it leaves the float range."""

    mult: Callable
    bound: float
    prefactor: bool = True
    what: str = "weighted norm"


def _norms(prepared: Prepared | ParsevalTerms, spec: NormSpec,
           grid: QuadratureGrid | None, groups: list[_Images]) -> list[float]:
    """The value of each group, all from one
    :func:`slicefock.spaces._multiplier_norm` call (none for no group)."""
    if not groups:
        return []
    return _multiplier_norm(prepared, spec, grid, *zip(*groups))[0]


# The images of each group below depend only on the query, the operator or
# n, so their tables are built once per size (spaces._Keyed).

def _modulus_images(query: ModulusQuery) -> _Images:
    """The k-th differences at the modulus's steps, charged at 2^k (inf
    past the float range) without the prefactor."""
    return _Images(_Keyed(_step_differences, (query.k, query.delta, query.h_grid)),
                   2.0 ** query.k if query.k < 1024 else math.inf, False,
                   f"order-{query.k} modulus")


def _step_differences(k: int, delta: float, h_grid: int, degrees: np.ndarray):
    return _difference_multipliers(k, np.linspace(0.0, delta, h_grid)[1:], degrees)


def _error_images(op: MultiplierOperator, prepared: Prepared | ParsevalTerms) -> _Images:
    """op(f) - f, the multipliers 1 - rho_k (rho_k = 0 past the operator),
    charged at the largest |1 - rho_k| past f's stored degree."""
    m = _error_multipliers(op)
    bound = float(np.max(np.abs(m[min(prepared.series.degree + 1, m.size - 1):])))
    return _Images(_Keyed(_operator_differences, (op,)), bound)


@memoized
def _error_multipliers(op: MultiplierOperator) -> np.ndarray:
    """1 - rho_k, then 1 for every degree past the operator's length."""
    return np.append(1.0 - op.rho, 1.0)


def _operator_differences(op: MultiplierOperator, k: np.ndarray):
    m = _error_multipliers(op)
    return _real_multipliers(m[np.minimum(k, m.size - 1)])


def _tail_images(n: int) -> _Images:
    """f past degree n, whose p = 2 plane norm is E_n."""
    return _Images(_Keyed(_past_degree, (n,)), 1.0)


def _past_degree(n: int, k: np.ndarray):
    return _real_multipliers((k > n).astype(float))


# ---------------------------------------------------------------------------
# plane Parseval data (p = 2)

def parseval_norm_sq(f: SliceSeries, alpha: float) -> float:
    """Squared plane norm at p = 2 from coefficients: sum |a_k|^2 k! / alpha^k,
    with f's tail charged against it (:func:`slicefock.spaces._charged`)."""
    (log_sq,), *_ = _charged(_parseval_power, _parseval_terms(f, alpha), alpha)
    return _checked_exp(log_sq, "squared weighted norm")


# ---------------------------------------------------------------------------
# best approximation

@dataclass(frozen=True)
class BestApproxResult:
    """Best degree-n approximation: the error attained by ``minimizer`` and,
    where the method certifies one, a lower bound.  The descent's ``lower``
    bounds the minimum of its sampled problem, sum_i mu_i |(f - P)(z_i)
    w_i|^p over f's values on the grid nodes, not E_n(f) itself: once E_n
    falls to the rounding of those values (about 1e-16 ||f||), ``lower``
    can lie above E_n."""

    n: int
    value: float
    minimizer: SliceSeries
    method: str
    lower: float | None = None


def best_approx_second(f: SliceSeries, n: int, alpha: float) -> BestApproxResult:
    """Best degree-n approximation in the plane Hilbert norm (p = 2).

    Monomials are orthogonal there, so the minimizer is the Taylor
    truncation and the error is the weighted coefficient tail
    (sum_{k>n} |a_k|^2 k! / alpha^k)^(1/2); no quadrature enters, and the
    value is the same on every plane: the norm of the multiplier image 0
    up to degree n and 1 past it.
    """
    terms = _parseval_terms(f, alpha)
    value = _norms(terms, NormSpec("second", 2.0, alpha), None, [_tail_images(n)])[0]
    return BestApproxResult(n, value, taylor_truncate(terms.series, n), "projection")


def least_squares(design: np.ndarray, data: np.ndarray
                  ) -> tuple[np.ndarray, float, float]:
    """x minimizing ||design @ x - data|| (Frobenius, by SVD), that norm, and
    cond = (s_max / s_min)^2, the condition number of design^T design; past
    ``COND_LIMIT`` raises :class:`ConditioningError`, never regularizes."""
    sol, _, _, sv = np.linalg.lstsq(design, data, rcond=None)
    ratio = float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else math.inf
    cond = ratio * ratio                   # Python floats: inf past the range, no warning
    if not cond <= COND_LIMIT:
        raise ConditioningError(
            f"least-squares design nearly rank deficient (normal-equations "
            f"cond {cond:.3g})", condition=cond)
    resid = design @ sol - data
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(resid))
    if not math.isfinite(norm):            # its square overflowed: scale first
        top = float(np.max(np.abs(resid)))
        norm = top * float(np.linalg.norm(resid / top))
    return sol, norm, cond


def best_approx_first(f: SliceSeries, n: int, alpha: float,
                      grid: QuadratureGrid | None = None) -> BestApproxResult:
    """Best degree-n approximation in the whole-algebra Hilbert norm (p = 2),
    exact from f's Parseval terms; ``grid`` is not read.  Monomials two
    degrees apart overlap, so the projection mixes degrees, but even and odd
    ones decouple: the Gram is L L^T with L bidiagonal in each parity, the
    residual r = f - P has (L^T r)_k = 0 for k <= n, and the value is the
    norm of the residual's coefficients through the factor, a sum of
    squares past n, not ||f||^2 minus the projection
    (:func:`slicefock.spaces._first_images`, whose charges on it
    :func:`slicefock.spaces._charged` checks)."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    (log_p,), _, terms, x, top = _charged(functools.partial(_first_images, alpha=alpha, n=n),
                                          _parseval_terms(f, alpha), alpha)
    # P = f - r up to degree n, r_k = x_k e^{top/2} / sqrt(k! / alpha^k)
    coeffs = extended(terms.series, max(n, terms.series.degree)).coeffs[:n + 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = np.exp(0.5 * (top[0] - _parseval_log_terms(0.0, n + 1, alpha)))
        minimizer = coeffs - np.where(x[0, :n + 1] != 0.0, x[0, :n + 1] * scale[:, None], 0.0)
    if not np.all(np.isfinite(minimizer)):
        raise IntegrandOverflowError("best approximation coefficients exceed the float range")
    return BestApproxResult(n, _checked_exp(0.5 * log_p, "weighted norm"),
                            SliceSeries(minimizer), "gram")


class _PolarColumns(NamedTuple):
    """The weighted monomials z^k e^{-alpha |z|^2 / 2} of degree k < K on a
    plane grid's nodes z = r_a e^{i theta_b}, each column scaled by an exact
    power of two, as the descent reads them."""

    cols: np.ndarray    # (K, N) complex: T_ak e^{i k theta_b}, node-major
    cols_h: np.ndarray  # (N, K): the conjugate transpose, for moments
    exps: np.ndarray    # (K,) int: column k is scaled by 2^{-exps_k}
    table: np.ndarray   # (2K - 1, R): r_a^m e^{-alpha r_a^2} 2^{-E_m}, m = k + l
    pair: np.ndarray    # (K, K): 2^{E_{k+l} - exps_k - exps_l}
    at_diff: np.ndarray  # (K, K): flat index of (k + l, (k - l) mod angular count)
    at_sum: np.ndarray   # (K, K): flat index of (k + l, (k + l) mod angular count)
    shape: tuple        # (R, angular count)


def _polar_columns(grid: QuadratureGrid, alpha: float, n: int) -> _PolarColumns:
    """The columns T_ak e^{i k theta_b}, T_ak = r_a^k e^{-alpha r_a^2 / 2}
    2^{-exps_k}, exps_k the power of two that brings the column's largest
    entry into [1/2, 1) (up to rounding), so that no Gram entry overflows.
    A column whose largest r^k e^{-alpha r^2 / 2} is a normal float is
    formed directly and scaled exactly; any other is built from its logs,
    as are the products T_ak T_al, from one table in k + l with one power
    of two E_m per row, so that no r^k overflows, nor its power of two
    leaves the float range."""
    r, theta = grid.radial_nodes, grid.angular_nodes
    k = np.arange(n + 1)
    ln2 = math.log(2.0)
    logs = np.multiply.outer(k, np.log(r)) - 0.5 * alpha * r * r
    with np.errstate(over="ignore", invalid="ignore"):     # such columns come from logs
        radial = np.exp(-0.5 * alpha * r * r) * r ** k[:, None]
        top = np.max(radial, axis=1)
        direct = (top >= sys.float_info.min) & (top < math.inf)
        exps = np.where(direct, np.frexp(top)[1],
                        np.floor(np.max(logs, axis=1) / ln2).astype(int) + 1)
        radial = np.where(direct[:, None], np.ldexp(radial, -exps[:, None]),
                          np.exp(logs - exps[:, None] * ln2))
    cols = (radial[:, :, None] * np.exp(1j * np.outer(k, theta))[:, None, :]).reshape(k.size, -1)
    logs = np.multiply.outer(np.arange(2 * n + 1), np.log(r)) - alpha * r * r
    tops = np.rint(np.max(logs, axis=1) / ln2).astype(int)
    sums = np.add.outer(k, k)
    return _PolarColumns(cols, cols.conj().T, exps, np.exp(logs - tops[:, None] * ln2),
                         np.ldexp(1.0, tops[sums] - np.add.outer(exps, exps)),
                         sums * theta.size + np.subtract.outer(k, k) % theta.size,
                         sums * theta.size + sums % theta.size, (r.size, theta.size))


class _DescentBasis(NamedTuple):
    """What the plane descent reads of its grid, alpha, n and p alone
    (:func:`_descent_basis`)."""

    plane: _PolarColumns
    mu: np.ndarray          # (N,): alpha p / 2 pi times the plane weights
    mass: float             # sum mu
    project: np.ndarray     # (K, K): G^{-1} of the mu-Gram G, acting on rows
    real_w: np.ndarray      # (4K, 4K): the real form of W on both split components


@memoized
def _descent_basis(grid: QuadratureGrid, alpha: float, n: int, p: float) -> _DescentBasis:
    """The weighted monomials up to degree n on ``grid``
    (:func:`_polar_columns`), the node masses mu and the whitening W of
    their complex mu-Gram G, W^H G W = I, from the eigenvectors of G scaled
    to unit diagonal, built once per process for these arguments (a grid by
    identity).  Monomials that are not independent on the nodes raise
    :class:`ConditioningError`, on every call."""
    mu = alpha * p / (2.0 * math.pi) * grid.plane_weights.ravel()
    plane = _polar_columns(grid, alpha, n)
    gram = (plane.cols_h.T * mu) @ plane.cols.T
    d = 1.0 / np.sqrt(np.maximum(gram.diagonal().real, np.finfo(float).tiny))
    eig, vec = np.linalg.eigh(gram * d[:, None] * d[None, :])
    if not eig[0] > 4 * eig.size * np.finfo(float).eps * eig[-1]:
        raise ConditioningError(
            f"monomials up to degree {n} are not independent on the grid "
            f"nodes ({mu.size})")
    whiten = d[:, None] * vec / np.sqrt(eig)
    return _DescentBasis(plane, mu, float(np.sum(mu)),
                         (whiten @ whiten.conj().T).T,
                         _real_form(np.kron(np.eye(2), whiten), 0.0))


def _column_scaled(c: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """c_k 2^{exps_k} for complex c along its last axis, exact (ldexp on the
    real and imaginary parts), also where 2^{exps_k} is no float."""
    c = np.ascontiguousarray(c, complex)
    return np.ldexp(c.view(float), np.repeat(exps, 2)).view(complex)


def _polar_transform(plane: _PolarColumns, fields: np.ndarray) -> np.ndarray:
    """C[f, m, d] = sum_a table[m, a] sum_b fields[f, a, b] e^{-i d theta_b}
    for complex fields of shape (F, R, angular count), so that sum_i
    fields_i conj(V_ik) V_il = C[k + l, k - l] pair_kl and sum_i fields_i
    conj(V_ik) conj(V_il) = C[k + l, k + l] pair_kl, the frequency taken
    modulo the angular count, for the columns V of ``plane``: one FFT along
    the angle and the real radial table, which commute, the FFT taken on
    whichever side has fewer rows."""
    late = len(plane.table) < fields.shape[1]
    if not late:
        fields = np.fft.fft(fields, axis=-1)
    radial = (plane.table @ fields.view(float)).view(complex)   # Re and Im alike
    return np.fft.fft(radial, axis=-1) if late else radial


def _newton_system(plane: _PolarColumns, r: np.ndarray, se: np.ndarray,
                   v: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """Hessian of Psi_eps = sum_i mu_i (|r_i|^2 + eps^2)^(p/2) at the residual
    pair r = (F - P_1, G - P_2) of shape (2, N), given se = |r|^2 + eps^2
    and v = se^(p/2 - 1), over the real coordinates (Re, Im) of the split
    coefficients c of P in the columns V of ``plane``, ordered (component j,
    degree k, Re / Im).  It is the real form of c -> X c + Y conj(c) with
    2 x 2 blocks X^{jj'}_kl = sum_i x_ijj' conj(V_ik) V_il and Y^{jj'}_kl =
    sum_i h_i r_ij r_ij' conj(V_ik) conj(V_il), where a = p mu v, h = p (p
    - 2) mu v / (2 se) (half the rank-one weight), x_ijj' = h_i r_ij
    conj(r_ij') + a_i [j = j'].  X^{10} = (X^{01})^H and Y^{10} = Y^{01},
    so seven fields remain: x_00, x_01, x_11 and h r_j r_j' for j <= j'.
    The real x_00 and x_11 go through as the one complex field x_00 + i
    x_11, whose transform's Hermitian and anti-Hermitian parts are X^{00}
    and i X^{11}, so five fields go through one :func:`_polar_transform`.
    The gradient, -p times the dual vector v r's moments sum_i mu_i v_i r_ij
    conj(V_ik), is the caller's: the descent forms those moments for its
    lower bound."""
    muv = mu * v
    h = np.divide(0.5 * p * (p - 2.0) * muv, se, out=np.zeros_like(se), where=se > 0.0)
    hr = h * r
    fields = np.empty((5, r.shape[1]), complex)
    fields.real[0], fields.imag[0] = p * muv + (hr * r.conj()).real
    np.multiply(hr[0], r[1].conj(), out=fields[1])
    np.multiply(hr[0], r[0], out=fields[2])
    np.multiply(hr, r[1], out=fields[3:])
    c = _polar_transform(plane, fields.reshape(5, *plane.shape)).reshape(5, -1)
    herm = np.take(c[:2], plane.at_diff, axis=1) * plane.pair    # X^00 + i X^11, X^01
    sym = np.take(c[2:], plane.at_sum, axis=1) * plane.pair      # Y^00, Y^01, Y^11
    kk = len(plane.pair)
    x, y = np.empty((2, 2, kk, 2, kk), complex)                  # (j, k, j', l)
    packed = herm[0]
    x[0, :, 0] = 0.5 * (packed + packed.conj().T)
    x[1, :, 1] = -0.5j * (packed - packed.conj().T)
    x[0, :, 1] = herm[1]
    x[1, :, 0] = herm[1].conj().T
    y[0, :, 0], y[0, :, 1], y[1, :, 1] = sym
    y[1, :, 0] = sym[1]
    return _real_form(x.reshape(2 * kk, -1), y.reshape(2 * kk, -1))


def _real_form(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real matrix of the map c -> x c + y conj(c) on complex vectors, in
    the coordinates (Re c_0, Im c_0, Re c_1, ...)."""
    plus, minus = x + y, x - y
    out = np.empty((len(x), 2, len(x), 2))
    out[:, 0, :, 0] = plus.real
    out[:, 1, :, 0] = plus.imag
    out[:, 0, :, 1] = -minus.imag
    out[:, 1, :, 1] = minus.real
    return out.reshape(2 * len(x), -1)


def _sum_sq(x: np.ndarray) -> np.ndarray:
    """|x_1i|^2 + |x_2i|^2 for a complex pair x of shape (2, N)."""
    sq = (x * x.conj()).real
    return sq[0] + sq[1]


def best_approx_lp(f: SliceSeries, n: int, p: float, alpha: float,
                   unit: ImaginaryUnit = UNIT_I, tol: float = DESCENT_TOL,
                   grid: QuadratureGrid | None = None,
                   max_iter: int = 200) -> BestApproxResult:
    """Best degree-n approximation in the weighted plane L^p norm, p >= 1,
    with a certified duality gap.

    Minimizes sum_i mu_i |(f - P)(z_i) w_i|^p over the real quaternion
    coefficients of P, mu_i = (alpha p / 2 pi) times the grid weight and
    w_i = e^{-alpha |z_i|^2 / 2} inside the values (the plane kernel's) and
    the monomial columns, by Newton's method with Armijo backtracking from
    the Taylor truncation.  On the plane of ``unit``, f = F + G J and P =
    P_1 + P_2 J (:func:`slicefock.spaces._plane_splits`), so |f - P|^2 =
    |F - P_1|^2 + |G - P_2|^2 over the complex split coefficients of P.
    The nodes r_a e^{i theta_b} are uniform in angle, so each Newton
    system is seven per-node fields (the lower block row follows from the
    upper one), its two real diagonal fields packed into one complex field,
    through one angular FFT and one radial table in k + l
    (:func:`_newton_system`), with no product over the nodes and the
    degrees at once.  Newton runs on Psi_eps = sum_i mu_i
    (|r_i|^2 + eps^2)^(p/2): eps = 0 for p >= 2; for p < 2 eps starts at a
    tenth of the mean residual and shrinks hundredfold whenever Newton has
    settled (decrement <= 1e-20 Psi_eps), or once the decrement is
    <= 1e-6 Psi_eps and the gap in Psi units, p value^(p-1) (value -
    lower), is within 2 eps^p sum_i mu_i: for p <= 2, (s + eps^2)^(p/2) -
    s^(p/2) <= eps^p, so that is twice the smoothing's bias, which no
    further step at this eps closes.  Each step forms one power, v =
    (|r|^2 + eps^2)^(p/2 - 1): the dual vector below is v r, the gradient
    is -p times its moments against the weighted monomials, and the
    Hessian's weights are p mu v and p (p - 2) mu v / (|r|^2 + eps^2).
    Its systems are solved in the coordinates W^{-1} c, with W^H G W = I
    for the complex mu-Gram G of the weighted monomials (W from the
    eigenvectors of G scaled to unit diagonal), in which they are
    orthonormal.  That basis (the columns, the
    node masses mu and W) does not depend on f: it is built once per
    process for each grid (by identity), alpha, n and p
    (:func:`_descent_basis`), so a sweep over functions on one grid pays
    for it once, and a :class:`ConditioningError` for monomials that are
    not independent on the nodes is raised on every call.

    Every step bounds the minimum from below by weak duality: the dual
    vector lam_i = (|r_i|^2 + eps^2)^(p/2 - 1) r_i, projected onto the
    mu-orthogonal complement of the weighted polynomials, gives
    Re <lam, f w>_mu / ||lam||_q <= ||f - P||_p for every P (Hoelder,
    q = p / (p - 1), a max over the nodes at p = 1).  The solve stops when
    value - lower <= tol value + min(tol, NORM_TAIL_BUDGET) ||f||_p, the
    second term being the error the sampled values already carry, and the
    result carries both bounds; ``lower`` bounds the minimum of this
    sampled problem, not E_n(f) itself (:class:`BestApproxResult`).  Raises
    :class:`SolverError` carrying the best iterate when the gap is not met
    within ``max_iter`` Newton steps, and :class:`ValueError` for a ``tol``
    that is not a positive finite float, a ``max_iter`` that is not a
    nonnegative integer, or a ``grid`` that is not a plane's.  f's weighted
    profile is checked as its norm's is.
    """
    return _best_approx_lp(f, n, p, alpha, unit, grid, tol, max_iter)


def _best_approx_lp(f: SliceSeries, n: int, p: float, alpha: float,
                    unit: ImaginaryUnit, grid: QuadratureGrid | None,
                    tol: float = DESCENT_TOL, max_iter: int = 200,
                    prepared: Prepared | None = None) -> BestApproxResult:
    """:func:`best_approx_lp`, f taken as ``prepared`` on ``grid`` when given
    (:func:`slicefock.spaces.prepared_for_grid`)."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"descent requires a finite p >= 1, got {p!r}")
    _check_positive("weight parameter alpha", alpha)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) \
            or not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"descent tolerance tol must be a positive finite float, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be a nonnegative integer, got {max_iter!r}")
    grid = grid or slice_grid(alpha * p / 2.0)
    _check_mode(grid, "slice", "the plane descent")
    fe = (prepared or prepared_for_grid(f, alpha, grid)).series
    split = _plane_splits((unit,))
    v, e = _weighted_plane(fe.directions @ split, fe.log_row_norms, grid, alpha)
    fv = np.ascontiguousarray(v.reshape(-1, 2).T)         # (F, G) at each node
    # f's own weighted profile is refused where its norm's is (_grid_sum)
    amp_p = _sum_sq(fv).reshape(v.shape[:2]) ** (0.5 * p)
    f_norm = (alpha * p / (2.0 * math.pi) * _grid_sum(amp_p, grid)) ** (1.0 / p)
    plane, mu, mass, project, real_w = _descent_basis(grid, alpha, n, p)
    mu_fv = mu * fv
    q = math.inf if p == 1.0 else p / (p - 1.0)
    sampled_err = min(tol, NORM_TAIL_BUDGET) * f_norm

    def psi(s, eps):
        return float(mu @ (s + eps * eps) ** (0.5 * p))

    def dual(r, s, eps):
        """se = |r|^2 + eps^2, v = se^(p/2 - 1), lam_i = v_i r_i and lam's
        moments against the weighted monomials, which are -1/p times
        Psi_eps's gradient."""
        se = s + eps * eps
        with np.errstate(divide="ignore", invalid="ignore"):
            v = se ** (0.5 * p - 1.0)
            lam = np.where(se > 0.0, v * r, 0.0)
        return se, v, lam, (mu * lam) @ plane.cols_h

    def lower_bound(lam, moments):
        lam -= (moments @ project) @ plane.cols
        size = np.sqrt(_sum_sq(lam))
        qnorm = float(np.max(size[mu > 0.0])) if q == math.inf else \
            float(mu @ size ** q) ** (1.0 / q)
        return float(np.vdot(lam, mu_fv).real) / qnorm if qnorm > 0.0 else 0.0

    def result(upper, lower):
        minimizer = (_column_scaled(coeffs, -plane.exps).T @ split.conj().T).real
        return BestApproxResult(
            n, _checked_ldexp(upper, e, "weighted norm"),
            SliceSeries(np.ldexp(minimizer, e)), "descent",
            lower=math.ldexp(lower, e))

    # the Taylor coefficients' split on the scale 2^e of v, in the scaled basis
    coeffs = _column_scaled((np.ldexp(taylor_truncate(fe, n).coeffs, -e) @ split).T, plane.exps)
    r = fv - coeffs @ plane.cols
    s = _sum_sq(r)
    eps = 0.0 if p >= 2.0 else 0.1 * float(mu @ np.sqrt(s)) / mass
    cur = psi(s, eps)
    dec = math.inf
    steps = 0
    while True:
        upper = (psi(s, 0.0) if eps else cur) ** (1.0 / p)
        se, v, lam, moments = dual(r, s, eps)
        # an attained value bounds the minimum too: rounding may leave the
        # dual bound an ulp above it at an exact optimum
        lower = min(lower_bound(lam, moments), upper)
        if upper - lower <= tol * upper + sampled_err:
            return result(upper, lower)
        if steps == max_iter or (dec == 0.0 and eps == 0.0):
            best = result(upper, lower)
            raise SolverError(
                f"duality gap {best.value - best.lower:.3g} above tolerance "
                f"after {steps} Newton steps", best=best)
        # sharpen the smoothing once Newton has settled on it, or once the
        # gap in Psi units (upper^p - lower^p <= p upper^(p-1) (upper - lower))
        # is within twice the smoothing's bias eps^p sum mu, which no further
        # step at this eps can close; eps = 0 at p >= 2 keeps that inert
        if dec <= 1e-20 * cur or (dec <= 1e-6 * cur and p * upper ** (p - 1.0)
                                  * (upper - lower) <= 2.0 * eps ** p * mass):
            eps /= 100.0
            cur = psi(s, eps)
            se, v, _, moments = dual(r, s, eps)
        hess = _newton_system(plane, r, se, v, mu, p)
        # Psi_eps's gradient is -p times the dual vector's moments
        grad = (-p * moments).view(float).ravel() @ real_w
        y = np.linalg.solve(real_w.T @ hess @ real_w, -grad)
        dec = -float(grad @ y)
        step = (real_w @ y).view(complex).reshape(2, -1)
        moved = step @ plane.cols
        steps += 1
        t = 1.0
        while t > 1e-12:
            r_new = r - t * moved
            s_new = _sum_sq(r_new)
            # rounding slack: near the minimum the decrease of a full step
            # lies below what the objective's last digits resolve
            new = psi(s_new, eps)
            if new <= cur - 0.25 * t * dec + 1e-15 * cur:
                coeffs, r, s, cur = coeffs + t * step, r_new, s_new, new
                break
            t *= 0.5
        else:
            dec = 0.0                   # no descent along Newton's direction


# ---------------------------------------------------------------------------
# quantitative estimates

@dataclass(frozen=True)
class JacksonReport:
    """Operator error against the matching modulus of smoothness."""

    n: int
    m: int
    p: float
    r: int
    lhs: float
    rhs: float
    ratio: float | None
    degenerate: bool

    def to_record(self) -> dict:
        return {
            "inequality": "smoothing-difference-vs-modulus",
            "params": {"n": self.n, "m": self.m, "p": self.p, "r": self.r},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
        }


@dataclass(frozen=True)
class VdpReport:
    """Delayed-mean error against the best-approximation bound."""

    n: int
    p: float
    constant: float
    lhs: float
    best_approx: float
    rhs: float
    slack: float
    method: str
    # the descent's lower bound on the minimum of its sampled problem on the
    # grid (BestApproxResult.lower), not on E_n itself; None at p = 2
    best_approx_lower: float | None = None

    def to_record(self) -> dict:
        return {
            "inequality": "delayed-mean-vs-best-approximation",
            "params": {"n": self.n, "p": self.p, "constant": self.constant},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "best_approx_lower": self.best_approx_lower,
        }


def operator_error(op: MultiplierOperator, prepared: Prepared | ParsevalTerms,
                   spec: NormSpec, grid: QuadratureGrid) -> float:
    """Norm of op(f) - f under ``spec``, f as
    :func:`slicefock.spaces.prepared_for_spec` returns it for ``spec`` (else
    :class:`ValueError`): :func:`operator_errors` of ``op`` alone."""
    return operator_errors([op], prepared, spec, grid)[0]


def operator_errors(ops, prepared: Prepared | ParsevalTerms, spec: NormSpec,
                    grid: QuadratureGrid) -> list[float]:
    """Norm of op(f) - f under ``spec`` for each of ``ops``, f as
    :func:`slicefock.spaces.prepared_for_spec` returns it for ``spec`` (else
    :class:`ValueError`): the multiplier images 1 - rho_k (rho_k = 0 past
    the operator), one group each of one
    :func:`slicefock.spaces._multiplier_norm` call, reading no ``grid``
    where it is a coefficient sum (p = 2, and even p up to ``EVEN_P_CAP``
    in the first kind or on one plane), where f's rows past its stored
    degree are charged at the largest |1 - rho_k| over them."""
    return _norms(prepared, spec, grid, [_error_images(op, prepared) for op in ops])


def vdp_constant(p: float) -> float:
    """2^((p-1)/p) (2^p + 1)^(1/p) + 1, the delayed-mean comparison constant."""
    return 2.0 ** ((p - 1.0) / p) * (2.0 ** p + 1.0) ** (1.0 / p) + 1.0


def verify_vdp(f: SliceSeries, n: int, p: float, alpha: float,
               unit: ImaginaryUnit = UNIT_I,
               grid: QuadratureGrid | None = None) -> VdpReport:
    """Check ||V_n f - f|| <= (2^((p-1)/p) (2^p + 1)^(1/p) + 1) E_n(f):
    :func:`vdp_sweep` at n alone."""
    return vdp_sweep(f, [n], p, alpha, unit, grid)[0]


def vdp_sweep(f: SliceSeries, ns, p: float, alpha: float,
              unit: ImaginaryUnit = UNIT_I, grid: QuadratureGrid | None = None
              ) -> list[VdpReport]:
    """:func:`verify_vdp` at each degree of ``ns``: the errors
    ||V_n f - f|| are one :func:`slicefock.spaces._multiplier_norm` call.

    At p = 2 E_n is f's Parseval tail past n, in the same call, and
    ``grid`` is not read.  Otherwise E_n comes from the certified Newton
    solve of :func:`best_approx_lp` on ``grid`` per degree, whose lower
    bound on E_n the report also carries, and the errors are a coefficient
    sum at even p up to ``EVEN_P_CAP`` and a norm on ``grid`` at every
    other p.  f is prepared once for the errors
    (:func:`slicefock.spaces.prepared_for_spec`) and, where that is its
    Parseval terms at p != 2, once more on ``grid`` for the solves
    (:func:`slicefock.spaces.prepared_for_grid`); the slack must be
    nonnegative."""
    spec = NormSpec("second", p, alpha, slice_unit=unit)
    grid = grid or slice_grid(spec.scale)
    prepared = prepared_for_spec(f, spec, grid)
    groups = [_error_images(vdp_op(n), prepared) for n in ns]
    if p == 2.0:
        values = _norms(prepared, spec, grid, groups + [_tail_images(n) for n in ns])
        lhs, best = values[:len(ns)], [(v, "projection", None) for v in values[len(ns):]]
    else:
        lhs = _norms(prepared, spec, grid, groups)
        on_grid = prepared if isinstance(prepared, Prepared) else prepared_for_grid(f, alpha, grid)
        best = [(b.value, b.method, b.lower) for b in (
            _best_approx_lp(f, n, p, alpha, unit, grid, prepared=on_grid) for n in ns)]
    c = vdp_constant(p)
    return [VdpReport(n, p, c, err, e_n, c * e_n, c * e_n - err, method, lower)
            for n, err, (e_n, method, lower) in zip(ns, lhs, best)]


def verify_jackson(f: SliceSeries, n: int, m: int, p: float, alpha: float,
                   unit: ImaginaryUnit = UNIT_I,
                   grid: QuadratureGrid | None = None) -> JacksonReport:
    """Compare the smoothing-difference operator error with the modulus of
    smoothness of order m + 1 at step 1/n: :func:`jackson_sweep` at n
    alone."""
    return jackson_sweep(f, [n], m, p, alpha, unit, grid)[0]


def jackson_sweep(f: SliceSeries, ns, m: int, p: float, alpha: float,
                  unit: ImaginaryUnit = UNIT_I, grid: QuadratureGrid | None = None
                  ) -> list[JacksonReport]:
    """:func:`verify_jackson` at each degree of ``ns``: the smoothing-
    difference operator errors and the moduli of order m + 1 at the steps
    1/n, whose ratio should stay within a constant factor across n, all
    from one :func:`slicefock.spaces._multiplier_norm` call (one group per
    error and per modulus).  f is prepared once for all
    (:func:`slicefock.spaces.prepared_for_spec`); at p = 2 and at even p up
    to ``EVEN_P_CAP`` every side is a coefficient sum and reads no grid,
    otherwise a quadrature on ``grid``."""
    spec = NormSpec("second", p, alpha, slice_unit=unit)
    grid = grid or slice_grid(spec.scale)
    prepared = prepared_for_spec(f, spec, grid)
    groups = [_error_images(jackson_op(n, m, p), prepared) for n in ns] + [
        _modulus_images(ModulusQuery(k=m + 1, delta=1.0 / n, p=p, alpha=alpha, unit=unit))
        for n in ns]
    values = _norms(prepared, spec, grid, groups)
    r = jackson_rule_r(m, p)
    return [JacksonReport(n, m, p, r, lhs, rhs, None if rhs < 1e-150 else lhs / rhs,
                          rhs < 1e-150)
            for n, lhs, rhs in zip(ns, values[:len(ns)], values[len(ns):])]
