"""Moduli of smoothness, best polynomial approximation, and the quantitative
error estimates tying them to the convolution operators.

The k-th rotational difference of a series on a plane has the closed
coefficient form a_j -> (e^{I j h} - 1)^k a_j, since rotating the argument
by h multiplies the degree-j coefficient by e^{I j h}.  The modulus of
smoothness is the sup over step sizes of the weighted L^p size of that
difference; following its definition it carries no normalization prefactor,
unlike the norms (any constant ends up inside the reported ratios).

Best approximation is exact in the plane Hilbert case (monomials are
orthogonal, so the minimizer is the Taylor truncation and the error is a
weighted coefficient tail), Gram-based over the whole algebra (monomials
overlap at degree distance two), and convex descent for general p >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConditioningError, SolverError, TruncationError
from .operators import MultiplierOperator, apply, jackson_op, jackson_rule_r, vdp_op
from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    UNIT_I,
    left_mult_matrix,
    slice_unit,
)
from .quadrature import QuadratureGrid, slice_grid, slice_points, volume_grid
from .series import (
    DEGREE_CAP,
    SliceSeries,
    _row_norms,
    embed_complex,
    evaluate,
    extended,
    prepared_for_radius,
    taylor_truncate,
)
from .spaces import (
    SPHERE_AREA,
    NormSpec,
    _plane_values,
    _slice_raw_power,
    _weighted_components,
    norm,
)


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
        if not 0.0 <= self.delta <= math.pi:
            raise ValueError("step bound must lie in [0, pi]")
        if self.h_grid < 8:
            raise ValueError("need at least 8 step samples")


def finite_difference(f: SliceSeries, k: int, h: float, z: Quaternion,
                      unit: ImaginaryUnit | None = None) -> Quaternion:
    """Alternating binomial sum sum_s (-1)^{k+s} C(k,s) f(z e^{u s h}).

    ``unit`` is the rotation axis; by default the axis of z itself.
    Annihilates constants for every k >= 1.
    """
    if unit is None:
        unit, _ = slice_unit(z)
    acc = Quaternion()
    rot = embed_complex(complex(math.cos(h), math.sin(h)), unit)
    power = Quaternion(1.0)
    for s in range(k + 1):
        sign = (-1.0) ** (k + s)
        acc = acc + (evaluate(f, z * power) * (sign * math.comb(k, s)))
        power = power * rot
    return acc


def difference_series(f: SliceSeries, k: int, h: float,
                      unit: ImaginaryUnit) -> SliceSeries:
    """Coefficients of the k-th rotational difference on the plane of
    ``unit``: a_j -> (e^{I j h} - 1)^k a_j."""
    w = (np.exp(1j * h * np.arange(f.coeffs.shape[0])) - 1.0) ** k
    lm = left_mult_matrix(unit.as_quaternion()).T
    out = w.real[:, None] * f.coeffs + w.imag[:, None] * (f.coeffs @ lm)
    return SliceSeries(out)


def raw_slice_lp(f: SliceSeries, p: float, alpha: float, unit: ImaginaryUnit,
                 grid: QuadratureGrid | None = None) -> float:
    """(int (|f| e^{-alpha |z|^2 / 2})^p dm)^(1/p) without any prefactor."""
    grid = grid or slice_grid(alpha * p / 2.0)
    fe, _ = prepared_for_radius(f, grid.max_radius, drop_ok=True)
    raw, _, _ = _slice_raw_power(fe, unit, grid, p, alpha)
    return raw ** (1.0 / p)


def modulus(f: SliceSeries, query: ModulusQuery,
            grid: QuadratureGrid | None = None) -> float:
    """Weighted modulus of smoothness: sup over 0 <= h <= delta of the raw
    weighted L^p size of the k-th rotational difference.

    The sup is realized as a max over ``h_grid`` uniform step sizes
    including the endpoint; it vanishes at delta = 0 and is nondecreasing
    in delta.
    """
    grid = grid or slice_grid(query.alpha * query.p / 2.0)
    fe, _ = prepared_for_radius(f, grid.max_radius, drop_ok=True)
    best = 0.0
    for h in np.linspace(0.0, query.delta, query.h_grid):
        if h == 0.0:
            continue
        diff = difference_series(fe, query.k, float(h), query.unit)
        raw, _, _ = _slice_raw_power(diff, query.unit, grid, query.p, query.alpha)
        best = max(best, raw ** (1.0 / query.p))
    return best


# ---------------------------------------------------------------------------
# plane Parseval data (p = 2)

def parseval_log_weights(f: SliceSeries, alpha: float,
                         tol: float = 1e-30, cap: int = DEGREE_CAP
                         ) -> tuple[SliceSeries, np.ndarray]:
    """Extend f until the Parseval terms |a_k|^2 k! / alpha^k are summable
    with a certified tail below ``tol`` relative; returns the extended series
    and the log of each term (log 0 for vanishing coefficients)."""
    fe = f
    while True:
        deg = fe.degree
        mags = _row_norms(fe.coeffs)
        with np.errstate(divide="ignore"):
            logw = 2.0 * np.log(mags) + gammaln(np.arange(deg + 1) + 1.0) \
                - np.arange(deg + 1) * math.log(alpha)
        top = float(np.max(logw))
        if top == -math.inf:
            return fe, logw
        # term ratio of the weighted tail: (coefficient ratio)^2 (k+1) / alpha
        from .series import _future_term_ratio

        cr = _future_term_ratio(fe, 1.0, deg)
        step = 2 if (fe.generator or "").startswith("gauss:") else 1
        ratio = cr * cr * (deg + 1.0) * (deg + 2.0) / (alpha ** step) \
            if step == 2 else cr * cr * (deg + 1.0) / alpha
        scaled = np.exp(logw - top)
        last = float(np.max(scaled[-2:])) if deg >= 1 else float(scaled[-1])
        total = float(np.sum(scaled))
        if ratio < 1.0 and (last == 0.0 or ratio == 0.0 or
                            last * ratio / (1.0 - ratio) <= tol * total):
            return fe, logw
        if deg >= cap:
            raise TruncationError(
                "weighted coefficient tail not summable under the degree cap "
                f"(alpha = {alpha:g})")
        fe = extended(f, min(cap, max(2 * (deg + 1), 16)))


def parseval_norm_sq(f: SliceSeries, alpha: float) -> float:
    """Squared plane norm at p = 2 from coefficients: sum |a_k|^2 k! / alpha^k."""
    _, logw = parseval_log_weights(f, alpha)
    top = float(np.max(logw))
    if top == -math.inf:
        return 0.0
    return float(np.sum(np.exp(logw - top))) * math.exp(top)


# ---------------------------------------------------------------------------
# best approximation

@dataclass(frozen=True)
class BestApproxResult:
    n: int
    value: float
    minimizer: SliceSeries
    method: str


def best_approx_second(f: SliceSeries, n: int, alpha: float,
                       unit: ImaginaryUnit = UNIT_I) -> BestApproxResult:
    """Best degree-n approximation in the plane Hilbert norm (p = 2).

    Monomials are orthogonal there, so the minimizer is the Taylor
    truncation and the error is the weighted coefficient tail
    (sum_{k>n} |a_k|^2 k! / alpha^k)^(1/2); no quadrature enters.  The value
    does not depend on the plane, ``unit`` only labels the result.
    """
    fe, logw = parseval_log_weights(f, alpha)
    tail = logw[n + 1:]
    if tail.size == 0:
        value = 0.0
    else:
        top = float(np.max(tail))
        value = 0.0 if top == -math.inf else \
            math.sqrt(float(np.sum(np.exp(tail - top)))) * math.exp(0.5 * top)
    return BestApproxResult(n, value, taylor_truncate(fe, n), "projection")


def first_kind_gram(n: int, alpha: float,
                    grid: QuadratureGrid | None = None) -> np.ndarray:
    """Quadrature Gram matrix of the monomials q^0..q^n over the whole
    algebra.  Real, banded: entries vanish unless the degrees agree or
    differ by exactly two."""
    grid = grid or volume_grid(alpha)
    z, wq = slice_points(grid)
    w2 = wq * np.exp(-alpha * np.abs(z) ** 2)
    vand = z[:, None] ** np.arange(n + 1)
    c = vand.conj().T @ (w2[:, None] * vand)
    return (alpha / math.pi) ** 2 * SPHERE_AREA * c.real


def _first_kind_rhs(f: SliceSeries, n: int, alpha: float,
                    grid: QuadratureGrid) -> tuple[np.ndarray, float]:
    """Moments <q^m, f> for m <= n (rows of quaternion components) and
    ||f||^2, from one plane evaluation.

    On q = x + u y, f = a + u b and q^m = Re z^m + u Im z^m, so the sphere
    integral of conj(q^m) f is 4 pi (Re z^m a + Im z^m b) and that of |f|^2
    is 4 pi (|a|^2 + |b|^2).
    """
    z, wq = slice_points(grid)
    half = np.exp(-0.5 * alpha * np.abs(z) ** 2)
    fe, _ = prepared_for_radius(f, grid.max_radius)
    a, b = (c.reshape(-1, 4) for c in _weighted_components(fe, grid, alpha))
    vand = (z[:, None] ** np.arange(n + 1)) * (half * wq)[:, None]
    moments = vand.real.T @ a + vand.imag.T @ b
    nf2 = float(np.dot(wq, np.sum(a * a, axis=1) + np.sum(b * b, axis=1)))
    pref = (alpha / math.pi) ** 2 * SPHERE_AREA
    return pref * moments, pref * nf2


def best_approx_first(f: SliceSeries, n: int, alpha: float,
                      grid: QuadratureGrid | None = None,
                      cond_limit: float = 1e12) -> BestApproxResult:
    """Best degree-n approximation in the whole-algebra Hilbert norm (p = 2).

    Solves the normal equations with the quadrature Gram of the monomials
    (orthonormalizing under the hood via a scaled Cholesky factorization);
    the projection genuinely mixes degrees because monomials two degrees
    apart overlap.
    """
    grid = grid or volume_grid(alpha)
    gram = first_kind_gram(n, alpha, grid)
    d = 1.0 / np.sqrt(np.diag(gram))
    gs = gram * d[:, None] * d[None, :]
    cond = float(np.linalg.cond(gs))
    if not np.isfinite(cond) or cond > cond_limit:
        size = next(m for m in range(1, n + 2)
                    if np.linalg.cond(gs[:m, :m]) > cond_limit)
        raise ConditioningError(
            f"monomial Gram matrix nearly singular (cond {cond:.3g})",
            condition=cond, leading_minor=size)
    b, nf2 = _first_kind_rhs(f, n, alpha, grid)
    try:
        chol = np.linalg.cholesky(gs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("monomial Gram matrix not positive definite",
                                condition=cond) from exc
    y = np.linalg.solve(chol, d[:, None] * b)
    coeffs = d[:, None] * np.linalg.solve(chol.T, y)
    err_sq = nf2 - float(np.sum(coeffs * b))
    value = math.sqrt(max(err_sq, 0.0))
    return BestApproxResult(n, value, SliceSeries(coeffs), "gram")


def best_approx_lp(f: SliceSeries, n: int, p: float, alpha: float,
                   unit: ImaginaryUnit = UNIT_I, tol: float = 1e-8,
                   grid: QuadratureGrid | None = None,
                   max_iter: int = 10_000) -> BestApproxResult:
    """Best degree-n approximation in the weighted plane L^p norm, p >= 1.

    Descends the convex objective ||f - P||^p over the real coefficient
    vector, starting from the p = 2 projection, with Armijo backtracking.
    Raises :class:`SolverError` carrying the best iterate if the objective
    has not stabilized within ``max_iter`` steps.
    """
    if p < 1.0:
        raise ValueError("descent requires the convex range p >= 1")
    grid = grid or slice_grid(alpha * p / 2.0)
    fe, _ = prepared_for_radius(f, grid.max_radius, drop_ok=True)
    z, w = slice_points(grid)
    wp = np.exp(-0.5 * alpha * np.abs(z) ** 2) ** p
    fv = _plane_values(fe, unit, grid).reshape(-1, 4)
    vand = z[:, None] ** np.arange(n + 1)
    lm = left_mult_matrix(unit.as_quaternion()).T
    pref = alpha * p / (2.0 * math.pi)

    def p_values(c):
        return vand.real @ c + vand.imag @ (c @ lm)

    def objective(c):
        r = fv - p_values(c)
        absr = np.sqrt(np.sum(r * r, axis=1))
        return pref * float(np.dot(w, absr ** p * wp))

    def gradient(c):
        r = fv - p_values(c)
        absr = np.maximum(np.sqrt(np.sum(r * r, axis=1)), 1e-150)
        kappa = (w * wp * absr ** (p - 2.0))[:, None]
        u = kappa * r
        g = vand.real.T @ u - vand.imag.T @ (u @ lm.T)
        return -pref * p * g

    c = taylor_truncate(fe, n).coeffs.copy()
    obj = objective(c)
    step = 1.0
    for _ in range(max_iter):
        g = gradient(c)
        gnorm_sq = float(np.sum(g * g))
        if gnorm_sq == 0.0:
            break
        trial = step
        improved = False
        while trial > 1e-18:
            cand = c - trial * g
            val = objective(cand)
            if val <= obj - 0.5 * trial * gnorm_sq:
                improved = True
                break
            trial *= 0.5
        if not improved:
            break
        moved = obj - val
        c, obj, step = cand, val, min(trial * 2.0, 1e6)
        if moved <= tol * max(obj, 1e-300):
            break
    else:
        raise SolverError(
            "descent did not stabilize within the iteration cap",
            best=BestApproxResult(n, obj ** (1.0 / p), SliceSeries(c), "descent"))
    return BestApproxResult(n, obj ** (1.0 / p), SliceSeries(c), "descent")


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

    def to_record(self) -> dict:
        return {
            "inequality": "delayed-mean-vs-best-approximation",
            "params": {"n": self.n, "p": self.p, "constant": self.constant},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
        }


def operator_error_series(op: MultiplierOperator, f: SliceSeries,
                          radius: float) -> SliceSeries:
    """Series of op(f) - f with f extended so its tail at ``radius`` is
    certified; the difference is then an honest polynomial plus that tail
    (plus any storage-underflow drop of f, which the Gaussian weight damps
    far below the norm tolerances at these radii)."""
    fe, _ = prepared_for_radius(f, radius, drop_ok=True)
    return apply(op, fe) - fe


def vdp_constant(p: float) -> float:
    """2^((p-1)/p) (2^p + 1)^(1/p) + 1, the delayed-mean comparison constant."""
    return 2.0 ** ((p - 1.0) / p) * (2.0 ** p + 1.0) ** (1.0 / p) + 1.0


def verify_vdp(f: SliceSeries, n: int, p: float, alpha: float,
               unit: ImaginaryUnit = UNIT_I,
               grid: QuadratureGrid | None = None,
               tol: float = 1e-8) -> VdpReport:
    """Check ||V_n f - f|| <= (2^((p-1)/p) (2^p + 1)^(1/p) + 1) E_n(f).

    E_n is exact (coefficient tail) at p = 2 and comes from convex descent
    otherwise; the report carries the slack, which must be nonnegative.
    """
    spec = NormSpec("second", p, alpha, slice_unit=unit)
    grid = grid or slice_grid(spec.scale)
    diff = operator_error_series(vdp_op(n), f, grid.max_radius)
    lhs = norm(diff, spec, grid)
    if p == 2.0:
        best = best_approx_second(f, n, alpha, unit)
    else:
        best = best_approx_lp(f, n, p, alpha, unit, tol=tol, grid=grid)
    c = vdp_constant(p)
    rhs = c * best.value
    return VdpReport(n, p, c, lhs, best.value, rhs, rhs - lhs, best.method)


def verify_jackson(f: SliceSeries, n: int, m: int, p: float, alpha: float,
                   unit: ImaginaryUnit = UNIT_I,
                   grid: QuadratureGrid | None = None,
                   h_grid: int = 16) -> JacksonReport:
    """Compare the smoothing-difference operator error with the modulus of
    smoothness of order m + 1 at step 1/n; the ratio should stay within a
    constant factor across n."""
    spec = NormSpec("second", p, alpha, slice_unit=unit)
    grid = grid or slice_grid(spec.scale)
    op = jackson_op(n, m, p)
    diff = operator_error_series(op, f, grid.max_radius)
    lhs = norm(diff, spec, grid)
    query = ModulusQuery(k=m + 1, delta=1.0 / n, p=p, alpha=alpha, unit=unit,
                         h_grid=h_grid)
    rhs = modulus(f, query, grid)
    degenerate = rhs < 1e-150
    ratio = None if degenerate else lhs / rhs
    return JacksonReport(n, m, p, jackson_rule_r(m, p), lhs, rhs, ratio,
                         degenerate)
