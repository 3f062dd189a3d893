"""Moduli of smoothness, best polynomial approximation, and the quantitative
error estimates tying them to the convolution operators.

The k-th rotational difference of a series on a plane has the closed
coefficient form a_j -> (e^{I j h} - 1)^k a_j, since rotating the argument
by h multiplies the degree-j coefficient by e^{I j h}.  The modulus of
smoothness is the sup over step sizes of the weighted L^p size of that
difference; following its definition it carries no normalization prefactor,
unlike the norms (any constant ends up inside the reported ratios).  At
p = 2 that size is a weighted coefficient sum, since |e^{I j h} - 1| =
2 |sin(j h / 2)|; elsewhere it is a plane quadrature per step.

Best approximation is exact in the plane Hilbert case (monomials are
orthogonal, so the minimizer is the Taylor truncation and the error is a
weighted coefficient tail), one least-squares solve over the whole algebra
(monomials overlap at degree distance two; the value is the norm of the
residual itself), and a Newton solve of the discretized convex problem for
general p >= 1, which stops only on a certified duality gap: its result
carries a lower bound on the minimum from weak duality next to the value it
attains.  :func:`least_squares` is the one p = 2 solver, shared with the
kernel-section fit, and the one place ``COND_LIMIT`` is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    IntegrandOverflowError,
    SolverError,
)
from .operators import MultiplierOperator, apply, jackson_op, jackson_rule_r, vdp_op
from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    UNIT_I,
    left_mult_matrix,
    slice_unit,
)
from .quadrature import QuadratureGrid, _check_finite, slice_grid, slice_points, volume_grid
from .series import (
    SliceSeries,
    _refuse_drop,
    embed_complex,
    evaluate,
    taylor_truncate,
)
from .spaces import (
    PARSEVAL_TAIL_TOL,
    SPHERE_AREA,
    NormSpec,
    NORM_TAIL_BUDGET,
    ParsevalTerms,
    Prepared,
    _charged_norm,
    _check_positive,
    _check_prepared,
    _check_tail_budget,
    _checked_exp,
    _half_weight,
    _parseval_power,
    _parseval_terms,
    _plane_raw_power,
    _plane_values,
    _slice_raw_power,
    _weighted_components,
    default_grid,
    prepared_for_grid,
    prepared_for_spec,
)

#: Condition number past which a Gram matrix is refused rather than solved.
COND_LIMIT = 1e12


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
    ``unit``: a_j -> (e^{I j h} - 1)^k a_j, up to 2^k |a_j| in modulus."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = (np.exp(1j * h * np.arange(f.coeffs.shape[0])) - 1.0) ** k
        lm = left_mult_matrix(unit.as_quaternion()).T
        out = w.real[:, None] * f.coeffs + w.imag[:, None] * (f.coeffs @ lm)
    if not np.all(np.isfinite(out)):
        raise IntegrandOverflowError(
            f"order-{k} difference coefficients overflow at step {h:g}")
    return SliceSeries(out)


def modulus(f: SliceSeries, query: ModulusQuery,
            grid: QuadratureGrid | None = None,
            prepared: Prepared | ParsevalTerms | None = None) -> float:
    """Weighted modulus of smoothness: sup over 0 <= h <= delta of the raw
    weighted L^p size of the k-th rotational difference.

    The sup is realized as a max over ``h_grid`` uniform step sizes
    including the endpoint; it is nondecreasing in delta and 0 at delta = 0,
    where nothing of f's tail or underflowed rows is charged.  f is taken as ``prepared`` when given, else prepared here,
    both as :func:`slicefock.spaces.prepared_for_spec` returns it for the
    second-kind p-norm.  At p = 2 those are f's Parseval terms, the value is
    exact from them (:func:`_modulus_second`) and ``grid`` is not read; the
    monomials are orthogonal on every plane, so it does not depend on
    ``query.unit`` either.  Otherwise each step is one plane quadrature on
    ``grid``, and f's underflowed rows are charged at 2^k, the largest
    multiplier.
    """
    spec = NormSpec("second", query.p, query.alpha, slice_unit=query.unit)
    grid = grid or default_grid(spec)
    prepared = prepared_for_spec(f, spec, grid, prepared)
    if query.delta == 0.0:
        return 0.0      # every difference is 0, past the stored rows too
    if isinstance(prepared, ParsevalTerms):
        return _modulus_second(prepared, query)
    fe, drop = prepared.series, prepared.drop
    if drop is not None:
        with np.errstate(over="ignore"):   # inf is refused by the budget
            drop = drop * 2.0 ** query.k
    best = upper = 0.0
    for h in np.linspace(0.0, query.delta, query.h_grid)[1:]:
        diff = difference_series(fe, query.k, float(h), query.unit)
        raw, delta = _slice_raw_power(diff, query.unit, grid, query.p, query.alpha, drop)
        best, upper = max(best, raw), max(upper, raw + delta)
    _check_tail_budget(best, upper - best, query.p)
    return best ** (1.0 / query.p)


def _modulus_second(terms: ParsevalTerms, query: ModulusQuery) -> float:
    """The p = 2 modulus from f's Parseval terms t_j = |a_j|^2 j! / alpha^j:
    |e^{I j h} - 1| = 2 |sin(j h / 2)|, so the squared plane norm of the
    k-th difference is (pi / alpha) sum_j (2 sin(j h / 2))^{2k} t_j, taken
    for every sampled step at once in log space (:func:`_parseval_power`,
    which charges f's tail and underflowed rows at 2^k, the largest
    multiplier).  A value past the float range raises
    :class:`IntegrandOverflowError`.
    """
    k = query.k
    steps = np.linspace(0.0, query.delta, query.h_grid)[1:]

    def log_mult(j):
        with np.errstate(divide="ignore"):
            return 2.0 * k * np.log(np.abs(2.0 * np.sin(0.5 * np.outer(steps, j))))

    log_sq, _ = _parseval_power(terms, query.alpha, log_mult, k * math.log(2.0))
    return _checked_exp(0.5 * (log_sq + math.log(math.pi) - math.log(query.alpha)),
                        f"order-{k} modulus")


# ---------------------------------------------------------------------------
# plane Parseval data (p = 2)

def parseval_log_weights(f: SliceSeries, alpha: float
                         ) -> tuple[SliceSeries, np.ndarray]:
    """Extend f until the Parseval terms |a_k|^2 k! / alpha^k have a tail
    below ``PARSEVAL_TAIL_TOL`` relative; returns the extended series and
    the log of each term (log 0 for vanishing coefficients).  The mass of
    generator rows that underflowed to zero in storage, bounded from
    ``log_coeff``, must stay below that tolerance too."""
    fe, logw, tail, drop = _parseval_terms(f, alpha)
    _refuse_drop(tail, drop, PARSEVAL_TAIL_TOL, f"alpha = {alpha:g}")
    return fe, logw


def parseval_norm_sq(f: SliceSeries, alpha: float) -> float:
    """Squared plane norm at p = 2 from coefficients: sum |a_k|^2 k! / alpha^k,
    with f's tail and underflowed rows charged against it."""
    log_sq, _ = _parseval_power(_parseval_terms(f, alpha), alpha)
    return _checked_exp(log_sq, "squared weighted norm")


# ---------------------------------------------------------------------------
# best approximation

@dataclass(frozen=True)
class BestApproxResult:
    """Best degree-n approximation: the error attained by ``minimizer`` and,
    where the method certifies one, a lower bound on the minimal error."""

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
    value is the same on every plane.
    """
    return _best_approx_terms(_parseval_terms(f, alpha), n, alpha)


def _best_approx_terms(terms: ParsevalTerms, n: int, alpha: float
                       ) -> BestApproxResult:
    """:func:`best_approx_second` from f's Parseval terms: the multipliers
    are 0 up to degree n and 1 past it, f's tail and underflowed rows
    charged on the value (:func:`_parseval_power`)."""
    log_sq, _ = _parseval_power(
        terms, alpha, lambda k: np.where(k > n, 0.0, -math.inf))
    return BestApproxResult(n, _checked_exp(0.5 * log_sq, "weighted norm"),
                            taylor_truncate(terms.series, n), "projection")


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
    return sol, float(np.linalg.norm(design @ sol - data)), cond


def _first_kind_design(n: int, alpha: float, grid: QuadratureGrid
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Monomials q^0..q^n as design columns, and the root weights sqrt(mu)
    of the plane nodes.  On q = x + u y, f = a + u b, q^m = Re z^m + u Im z^m
    and |f|^2 integrates over the sphere to 4 pi (|a|^2 + |b|^2), so rows
    sqrt(mu) e^{-alpha |z|^2 / 2} (Re z^m; Im z^m) carry the first-kind norm."""
    z, wq = slice_points(grid)
    root = alpha / math.pi * np.sqrt(SPHERE_AREA * wq)
    vand = (z[:, None] ** np.arange(n + 1)) \
        * (root * np.exp(-0.5 * alpha * np.abs(z) ** 2))[:, None]
    return np.concatenate([vand.real, vand.imag]), root


def first_kind_gram(n: int, alpha: float,
                    grid: QuadratureGrid | None = None) -> np.ndarray:
    """Quadrature Gram matrix of the monomials q^0..q^n over the whole
    algebra.  Real, banded: entries vanish unless the degrees agree or
    differ by exactly two."""
    design, _ = _first_kind_design(n, alpha, grid or volume_grid(alpha))
    return design.T @ design


def best_approx_first(f: SliceSeries, n: int, alpha: float,
                      grid: QuadratureGrid | None = None) -> BestApproxResult:
    """Best degree-n approximation in the whole-algebra Hilbert norm (p = 2):
    one least-squares solve of the monomial design, columns scaled to unit
    norm, against sqrt(mu) (a; b) of f; the value is the residual norm.
    Monomials two degrees apart overlap, so the projection mixes degrees.
    The underflowed rows of f are charged on the norm of the residual."""
    grid = grid or volume_grid(alpha)
    design, root = _first_kind_design(n, alpha, grid)
    fe, _, drop, _ = prepared_for_grid(f, alpha, grid)
    data = np.concatenate([root[:, None] * c.reshape(-1, 4)
                           for c in _weighted_components(fe, grid, alpha)])
    # a column that vanishes on every node stays zero, and is refused
    d = 1.0 / np.maximum(np.linalg.norm(design, axis=0), np.finfo(float).tiny)
    sol, value, _ = least_squares(design * d, data)
    minimizer = SliceSeries(d[:, None] * sol)
    if drop is not None:
        _charged_norm(fe - minimizer, drop, NormSpec("first", 2.0, alpha), grid)
    return BestApproxResult(n, value, minimizer, "gram")


#: Row-block size (numbers) of the Newton Hessian's rank-one terms.
_BLOCK = 32768


def _act(vr: np.ndarray, vi: np.ndarray, rows: np.ndarray,
         lm: np.ndarray) -> np.ndarray:
    """The complex matrix vr + i vi acting on quaternion rows from the left
    through the plane's unit u: row i is sum_k Re v_ik rows_k +
    Im v_ik (u rows_k), with u rows_k = ``rows_k @ lm``."""
    return vr @ rows + vi @ (rows @ lm)


def _act_adjoint(vr: np.ndarray, vi: np.ndarray, rows: np.ndarray,
                 lm: np.ndarray) -> np.ndarray:
    """Transpose of :func:`_act` over the reals."""
    return vr.T @ rows - vi.T @ (rows @ lm)


def _gram_expanded(vr: np.ndarray, vi: np.ndarray, weight: np.ndarray,
                   lm: np.ndarray) -> np.ndarray:
    """Real (4K, 4K) matrix of the weighted Gram sum_i weight_i conj(v_ik) v_il
    acting on K quaternion rows flattened row by row: the blocks
    Re g_kl I + Im g_kl lm^T that :func:`_act_adjoint` after :func:`_act`
    gives."""
    wr, wi = weight[:, None] * vr, weight[:, None] * vi
    re, im = vr.T @ wr + vi.T @ wi, vr.T @ wi - vi.T @ wr
    k = re.shape[0]
    blocks = (re[:, None, :, None] * np.eye(4)[None, :, None, :]
              + im[:, None, :, None] * lm.T[None, :, None, :])
    return blocks.reshape(4 * k, 4 * k)


def best_approx_lp(f: SliceSeries, n: int, p: float, alpha: float,
                   unit: ImaginaryUnit = UNIT_I, tol: float = 1e-8,
                   grid: QuadratureGrid | None = None,
                   max_iter: int = 200) -> BestApproxResult:
    """Best degree-n approximation in the weighted plane L^p norm, p >= 1,
    with a certified duality gap.

    Minimizes sum_i mu_i |f(z_i) - P(z_i)|^p over the real quaternion
    coefficients of P, mu_i = (alpha p / 2 pi) w_i e^{-p alpha |z_i|^2 / 2}
    on the grid nodes, by Newton's method with Armijo backtracking from the
    Taylor truncation.  Newton runs on Psi_eps = sum_i mu_i
    (|r_i|^2 + eps^2)^(p/2): eps = 0 for p >= 2; for p < 2 eps starts at a
    tenth of the mean residual and shrinks tenfold whenever Newton has
    settled.  Its systems are solved in the coordinates W^{-1} c, with
    W^T G W = I for the mu-Gram G of the monomials (W from the eigenvectors
    of G scaled to unit diagonal), in which the monomials are orthonormal.

    Every step bounds the minimum from below by weak duality: the dual
    vector lam_i = (|r_i|^2 + eps^2)^(p/2 - 1) r_i, projected onto the
    mu-orthogonal complement of the polynomials, gives
    Re <lam, f>_mu / ||lam||_q <= ||f - P||_p for every P (Hoelder,
    q = p / (p - 1), a max over the nodes at p = 1).  The solve stops when
    value - lower <= tol value + min(tol, NORM_TAIL_BUDGET) ||f||_p, the
    second term being the error the sampled values already carry, and the
    result carries both bounds.  Raises :class:`SolverError` carrying the
    best iterate when the gap is not met within ``max_iter`` Newton steps.
    The underflowed rows of f are charged on the residual it attains.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"descent requires a finite p >= 1, got {p!r}")
    _check_positive("weight parameter alpha", alpha)
    grid = grid or slice_grid(alpha * p / 2.0)
    fe, _, drop, _ = prepared_for_grid(f, alpha, grid)
    z, w = slice_points(grid)
    mu = alpha * p / (2.0 * math.pi) * w * \
        np.exp(-0.5 * alpha * np.abs(z) ** 2) ** p
    fv = _plane_values(fe, unit, grid).reshape(-1, 4)
    lm = left_mult_matrix(unit.as_quaternion()).T
    with np.errstate(over="ignore", invalid="ignore"):
        vand = z[:, None] ** np.arange(n + 1)
    _check_finite(fv, z)
    _check_finite(vand, z)
    # each column scaled by an exact power of two, so that no Gram entry
    # overflows; the coefficients live in the scaled basis until returned
    _, exps = np.frexp(np.max(np.abs(vand), axis=0))
    scale = np.ldexp(1.0, -exps)
    # contiguous real and imaginary parts keep every product in real BLAS
    vr, vi = vand.real * scale, vand.imag * scale
    del vand
    # W^T G W = I from the eigenvectors of the unit-diagonal mu-Gram G
    gram = _gram_expanded(vr, vi, mu, lm)
    d = 1.0 / np.sqrt(np.maximum(np.diag(gram), np.finfo(float).tiny))
    eig, vec = np.linalg.eigh(gram * d[:, None] * d[None, :])
    if not eig[0] > eig.size * np.finfo(float).eps * eig[-1]:
        raise ConditioningError(
            f"monomials up to degree {n} are not independent on the grid "
            f"nodes ({len(z)})")
    whiten = d[:, None] * vec / np.sqrt(eig)
    q = math.inf if p == 1.0 else p / (p - 1.0)
    sampled_err = min(tol, NORM_TAIL_BUDGET) * \
        float(mu @ np.sum(fv * fv, axis=1) ** (0.5 * p)) ** (1.0 / p)

    def psi(s, eps):
        return float(mu @ (s + eps * eps) ** (0.5 * p))

    def lower_bound(r, s, eps):
        se = (s + eps * eps)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(se > 0.0, se ** (0.5 * p - 1.0) * r, 0.0)
        moments = _act_adjoint(vr, vi, mu[:, None] * lam, lm).ravel()
        lam -= _act(vr, vi, (whiten @ (whiten.T @ moments)).reshape(-1, 4), lm)
        size = np.sqrt(np.sum(lam * lam, axis=1))
        qnorm = float(np.max(size[mu > 0.0])) if q == math.inf else \
            float(mu @ size ** q) ** (1.0 / q)
        return float(mu @ np.sum(lam * fv, axis=1)) / qnorm if qnorm > 0.0 else 0.0

    coeffs = taylor_truncate(fe, n).coeffs / scale[:, None]
    r = fv - _act(vr, vi, coeffs, lm)
    s = np.sum(r * r, axis=1)
    eps = 0.0 if p >= 2.0 else 0.1 * float(mu @ np.sqrt(s)) / float(np.sum(mu))
    dec = math.inf
    steps = 0
    while True:
        upper = psi(s, 0.0) ** (1.0 / p)
        # an attained value bounds the minimum too: rounding may leave the
        # dual bound an ulp above it at an exact optimum
        lower = min(lower_bound(r, s, eps), upper)
        result = BestApproxResult(n, upper, SliceSeries(coeffs * scale[:, None]),
                                  "descent", lower=lower)
        if upper - lower <= tol * upper + sampled_err:
            if drop is not None:
                amp = np.sqrt(s).reshape(-1, grid.angular_nodes.size)
                _check_tail_budget(*_plane_raw_power(
                    amp * _half_weight(grid, alpha)[..., 0], grid, p, drop), p)
            return result
        if steps == max_iter or (dec == 0.0 and eps == 0.0):
            raise SolverError(
                f"duality gap {upper - lower:.3g} above tolerance after "
                f"{steps} Newton steps", best=result)
        cur = psi(s, eps)
        if dec <= 1e-20 * cur:
            # Newton has settled on this smoothing: sharpen it
            eps /= 10.0
            cur = psi(s, eps)
        se = s + eps * eps
        with np.errstate(divide="ignore", invalid="ignore"):
            a = p * mu * se ** (0.5 * p - 1.0)
            b = np.where(se > 0.0, p * (p - 2.0) * mu * se ** (0.5 * p - 2.0), 0.0)
        grad = -_act_adjoint(vr, vi, a[:, None] * r, lm).ravel()
        hess = _gram_expanded(vr, vi, a, lm)
        if p != 2.0:
            # rank-one terms b_i U_i U_i^T with U_i = Phi_i^T r_i, in row
            # blocks of _BLOCK numbers; b has the sign of p - 2 everywhere
            rs = r * np.sqrt(np.abs(b))[:, None]
            rl = rs @ lm
            rows = max(1, _BLOCK // hess.shape[0])
            for lo in range(0, len(r), rows):
                blk = slice(lo, lo + rows)
                u = np.empty(vr[blk].shape + (4,))
                for j in range(4):
                    u[..., j] = (vr[blk] * rs[blk, j, None]
                                 - vi[blk] * rl[blk, j, None])
                u = u.reshape(len(u), -1)
                hess += math.copysign(1.0, p - 2.0) * (u.T @ u)
        step = whiten @ np.linalg.solve(whiten.T @ hess @ whiten, -(whiten.T @ grad))
        dec = -float(grad @ step)
        step = step.reshape(-1, 4)
        moved = _act(vr, vi, step, lm)
        steps += 1
        t = 1.0
        while t > 1e-12:
            r_new = r - t * moved
            s_new = np.sum(r_new * r_new, axis=1)
            # rounding slack: near the minimum the decrease of a full step
            # lies below what the objective's last digits resolve
            if psi(s_new, eps) <= cur - 0.25 * t * dec + 1e-15 * cur:
                coeffs, r, s = coeffs + t * step, r_new, s_new
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
    :func:`slicefock.spaces.prepared_for_spec` returns it for ``spec`` (a
    record of the other kind raises :class:`ValueError`).

    At p = 2 in the second kind that is the coefficient sum
    sum_k |1 - rho_k|^2 t_k over f's Parseval terms, with rho_k = 0 past
    the operator's length, and ``grid`` is not read; otherwise a norm on
    ``grid``.  f's underflowed rows (and at p = 2 its tail) are charged at
    the largest |1 - rho_k| over them (1 past the operator's length)."""
    if isinstance(_check_prepared(prepared, spec), ParsevalTerms):
        def log_mult(k):
            m = np.ones(k.size)
            used = min(k.size, op.rho.size)
            m[:used] = 1.0 - op.rho[:used]
            with np.errstate(divide="ignore"):
                return 2.0 * np.log(np.abs(m))

        bound = float(np.max(np.abs(1.0 - op.rho), initial=1.0))
        log_sq, _ = _parseval_power(prepared, spec.alpha, log_mult, math.log(bound))
        return _checked_exp(0.5 * log_sq, "weighted norm")
    fe, drop = prepared.series, prepared.drop
    if drop is not None:
        with np.errstate(over="ignore"):   # inf is refused by the budget
            drop = drop * float(np.max(np.abs(1.0 - op.rho[prepared.k0:]), initial=1.0))
    return _charged_norm(apply(op, fe) - fe, drop, spec, grid)[0]


def vdp_constant(p: float) -> float:
    """2^((p-1)/p) (2^p + 1)^(1/p) + 1, the delayed-mean comparison constant."""
    return 2.0 ** ((p - 1.0) / p) * (2.0 ** p + 1.0) ** (1.0 / p) + 1.0


def verify_vdp(f: SliceSeries, n: int, p: float, alpha: float,
               unit: ImaginaryUnit = UNIT_I,
               grid: QuadratureGrid | None = None,
               prepared: Prepared | ParsevalTerms | None = None) -> VdpReport:
    """Check ||V_n f - f|| <= (2^((p-1)/p) (2^p + 1)^(1/p) + 1) E_n(f).

    At p = 2 both sides are exact from f's Parseval terms (E_n is their
    tail), and ``grid`` is not read; otherwise the error is a norm on
    ``grid`` and E_n comes from the certified Newton solve of
    :func:`best_approx_lp`, whose lower bound on E_n the report also
    carries.  f is prepared once (:func:`slicefock.spaces.prepared_for_spec`)
    unless ``prepared`` is given, which must be of the kind that returns;
    the slack must be nonnegative.
    """
    spec = NormSpec("second", p, alpha, slice_unit=unit)
    grid = grid or slice_grid(spec.scale)
    prepared = prepared_for_spec(f, spec, grid, prepared)
    lhs = operator_error(vdp_op(n), prepared, spec, grid)
    if isinstance(prepared, ParsevalTerms):
        best = _best_approx_terms(prepared, n, alpha)
    else:
        best = best_approx_lp(f, n, p, alpha, unit, grid=grid)
    c = vdp_constant(p)
    rhs = c * best.value
    return VdpReport(n, p, c, lhs, best.value, rhs, rhs - lhs, best.method,
                     best.lower)


def verify_jackson(f: SliceSeries, n: int, m: int, p: float, alpha: float,
                   unit: ImaginaryUnit = UNIT_I,
                   grid: QuadratureGrid | None = None,
                   prepared: Prepared | ParsevalTerms | None = None
                   ) -> JacksonReport:
    """Compare the smoothing-difference operator error with the modulus of
    smoothness of order m + 1 at step 1/n; the ratio should stay within a
    constant factor across n.  f is prepared once for both
    (:func:`slicefock.spaces.prepared_for_spec`) unless ``prepared`` is
    given, which must be of the kind that returns; at p = 2 both are exact from its Parseval terms and read no
    grid, otherwise both are quadratures on ``grid``."""
    spec = NormSpec("second", p, alpha, slice_unit=unit)
    grid = grid or slice_grid(spec.scale)
    prepared = prepared_for_spec(f, spec, grid, prepared)
    lhs = operator_error(jackson_op(n, m, p), prepared, spec, grid)
    query = ModulusQuery(k=m + 1, delta=1.0 / n, p=p, alpha=alpha, unit=unit)
    rhs = modulus(f, query, grid, prepared)
    degenerate = rhs < 1e-150
    ratio = None if degenerate else lhs / rhs
    return JacksonReport(n, m, p, jackson_rule_r(m, p), lhs, rhs, ratio,
                         degenerate)
