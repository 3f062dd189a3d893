"""Entire slice-regular functions as power series with right quaternion coefficients.

A series f(q) = sum_k q^k a_k is stored as the coefficient array a_k (one
quaternion per row).  Coefficients sit strictly on the right of the powers;
all operator algebra in this package relies on that convention.  A series
may carry an :class:`ExpGenerator`, sum_m q^{s m} c^m / m! with a
quaternion c and stride s in {1, 2} (the slice exponential, e(beta q^2) and
the reproducing-kernel sections), from which further coefficients are
produced on demand, so entire functions are handled through finite
truncations whose tail is certified below a tolerance before any
evaluation.

Both evaluators use one identity: on the plane of a unit u,
f(x + u y) = Re S + u Im S with S(z) = sum_k z^k a_k taken componentwise.
:func:`eval_on_slice` runs a complex Horner recursion for S at scattered
points.  :func:`_polar_sum` serves every quadrature grid, whose angular
nodes are uniform on a circle: for each radius S is one inverse FFT of the
log-scaled terms r^k a_k, folded modulo the node count, so a grid costs
O(R (D + n log n)) instead of the O(R n D) of Horner.  It takes the rows
in any basis, real or complex columns: the 4 components, or on the plane
of I the split a_k = F_k + G_k J, whose two sums are F and G; and a
batch of multiplier images along a leading axis, in one transform.  The one
grid kernel, :func:`slicefock.spaces._weighted_plane`, gives it each
radius's terms already scaled by the Gaussian weight.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .quaternion import (
    ORTHO_TOL,
    ImaginaryUnit,
    Quaternion,
    left_mult_matrix,
    slice_unit,
)

#: Hard cap on the truncation degree used when a generator extends a series.
DEGREE_CAP = 512
#: Relative tail tolerance: sum_{k>D} |a_k| R^k below TAIL_TOL times the
#: term-magnitude scale at radius R (absolute when that scale is below 1).
TAIL_TOL = 1e-14

#: float(m!) for every m whose factorial is a finite float.
_FACTORIALS = [float(math.factorial(m)) for m in range(171)]


def _exp_magnitudes(a: float, count: int) -> np.ndarray:
    """a^m / m! for m < count: the canonical float a^m / float(m!) while
    both are finite floats, then the running quotient t_m = t_{m-1} / (m / a),
    which for a = 1 is the exact sequence t_{m-1} / m; past the float range
    the magnitudes are inf."""
    head = min(count, len(_FACTORIALS))
    if a > 1.0:
        head = min(head, int(709.0 / math.log(a)) + 1)
    mags = np.empty(count)
    mags[:head] = [a ** m / _FACTORIALS[m] for m in range(head)]
    if count > head:
        with np.errstate(divide="ignore", over="ignore"):
            steps = np.arange(head, count) / a
            mags[head - 1:] = np.divide.accumulate(np.append(mags[head - 1], steps))
    return mags


@dataclass(frozen=True)
class ExpGenerator:
    """The entire series sum_m q^{s m} c^m / m! for a quaternion c (a
    4-tuple) and a stride s in {1, 2}: coefficient a_{s m} = c^m / m!, every
    other row zero.

    The slice exponential is c = 1, s = 1; e(beta q^2) is c = beta, s = 2;
    the kernel section centered at q0 is c = alpha conj(q0), s = 1.  With
    c = |c| (cos phi + u sin phi), c^m = |c|^m (cos m phi + u sin m phi).
    """

    c: tuple[float, float, float, float]
    stride: int = 1

    def __post_init__(self):
        # + 0.0 stores -0.0 as 0.0: equal generators are identical, so the
        # series cached for one serves the other bit for bit
        c = tuple(float(x) + 0.0 for x in self.c)
        if len(c) != 4 or not all(math.isfinite(x) for x in c):
            raise ValueError(f"generator constant must be 4 finite floats, got {c!r}")
        if self.stride not in (1, 2):
            raise ValueError(f"generator stride must be 1 or 2, got {self.stride!r}")
        object.__setattr__(self, "c", c)

    @property
    def size(self) -> float:
        """|c|."""
        return math.hypot(*self.c)

    @property
    def type(self) -> float:
        """Order-2 type: log max |f| on |q| = r is type r^2 + o(r^2)."""
        return self.size if self.stride == 2 else 0.0

    def coeffs(self, degree: int) -> np.ndarray:
        """Rows a_0..a_degree, shape (degree + 1, 4)."""
        m = np.arange(degree // self.stride + 1)
        mags = _exp_magnitudes(self.size, m.size)
        w, im = self.c[0], math.hypot(*self.c[1:])
        phi = m * math.atan2(im, w)
        out = np.zeros((degree + 1, 4))
        out[::self.stride, 0] = mags * np.cos(phi)
        if im > 0.0:   # only the unit's own axes: an inf magnitude times 0 is nan
            axes = np.flatnonzero(self.c[1:])
            out[::self.stride, 1 + axes] = np.outer(
                mags * np.sin(phi), np.take(self.c[1:], axes) / im)
        return out

    def log_coeff(self, k: int) -> float:
        """log |a_k| from the closed form, valid far below float underflow."""
        m, rest = divmod(k, self.stride)
        if rest or (m and self.size == 0.0):
            return -math.inf
        return m * math.log(self.size) - math.lgamma(m + 1) if m else 0.0

    def directions(self, k: np.ndarray) -> np.ndarray:
        """Unit rows a_k / |a_k| for degrees k on the stride from the closed
        form, c^m / |c|^m = cos m phi + u sin m phi, shape (len(k), 4)."""
        w, im = self.c[0], math.hypot(*self.c[1:])
        phi = k // self.stride * math.atan2(im, w)
        out = np.zeros((len(k), 4))
        out[:, 0] = np.cos(phi)
        if im > 0.0:
            out[:, 1:] = np.outer(np.sin(phi), np.array(self.c[1:]) / im)
        return out

    def term_ratio(self, r: float, degree: int) -> float:
        """Bound on |a_{k+s}| r^s / |a_k| for every k > degree; it decreases
        in k, so the tail past ``degree`` is dominated by a geometric series."""
        return self.size * r ** self.stride / (degree // self.stride + 1)

    def parseval_ratio(self, alpha: float, degree: int) -> float:
        """Bound on t_{k+s} / t_k for every k >= ``degree``, t_k the Parseval
        terms |a_k|^2 k! / alpha^k: |c|^2 / ((k+1) alpha) at stride 1,
        decreasing in k; at stride 2 the ratios increase to their limit
        4 |c|^2 / alpha^2, which bounds them all."""
        scaled = self.size / alpha                     # inf past the float range
        return scaled * self.size / (degree + 1) if self.stride == 1 \
            else 4.0 * scaled * scaled

    def log_total(self, r: float) -> float:
        """log of sum_k |a_k| r^k <= e^{|c| r^s}, a cap on any tail's mass."""
        return self.size * r ** self.stride

    def dilated(self, r: float) -> "ExpGenerator":
        """Generator of q -> f(r q): c -> c r^s."""
        scale = r ** self.stride
        return ExpGenerator(tuple(x * scale for x in self.c), self.stride)

    # 64 series of at most DEGREE_CAP + 1 rows, with their row norms and
    # logs, hold at most about 1.6 MB
    @functools.lru_cache(maxsize=64)
    def series(self, degree: int) -> "SliceSeries":
        """Rows a_0..a_degree as a series, built once per (generator,
        degree): equal generators share one read-only series."""
        return SliceSeries(self.coeffs(degree), generator=self)


@dataclass(frozen=True)
class SliceSeries:
    """Right-coefficient power series, optionally extendable via a generator.

    ``coeffs`` has shape (D+1, 4); row k holds the quaternion a_k.  With a
    ``generator`` the rows are its first D+1 coefficients, and
    :func:`extended` produces more.
    """

    coeffs: np.ndarray
    generator: ExpGenerator | None = None

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError("coefficient array must have shape (D+1, 4)")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @functools.cached_property
    def row_norms(self) -> np.ndarray:
        """|a_k| per row (:func:`_row_norms`), computed once, read-only."""
        return _read_only(_row_norms(self.coeffs))

    @functools.cached_property
    def _log_polar(self) -> tuple[np.ndarray, np.ndarray]:
        mags = self.row_norms
        with np.errstate(divide="ignore", invalid="ignore"):   # an inf row is nan
            logs = np.log(mags)
            dirs = self.coeffs / np.where(mags > 0.0, mags, 1.0)[:, None]
        g = self.generator
        if g is not None and g.size > 0.0:    # c = 0: every row past a_0 is 0
            k = np.flatnonzero(mags < sys.float_info.min)
            k = k[k % g.stride == 0]
            logs[k] = [g.log_coeff(int(j)) for j in k]
            dirs[k] = g.directions(k)
        return _read_only(logs), _read_only(dirs)

    @property
    def log_row_norms(self) -> np.ndarray:
        """log |a_k| per row (log 0 = -inf), computed once, read-only: a
        generator row stored below the smallest normal float (subnormal or
        0) is read from the closed form (:meth:`ExpGenerator.log_coeff`),
        every other one from storage."""
        return self._log_polar[0]

    @property
    def directions(self) -> np.ndarray:
        """Unit rows a_k / |a_k| (zero rows kept), computed once, read-only,
        from the closed form where :attr:`log_row_norms` is: the rows in
        log-polar form, a_k = directions[k] e^{log_row_norms[k]}."""
        return self._log_polar[1]

    def coefficient(self, k: int) -> Quaternion:
        if k <= self.degree:
            return Quaternion.from_array(self.coeffs[k])
        if self.generator is None:
            return Quaternion()
        return Quaternion.from_array(self.generator.coeffs(k)[k])

    def __add__(self, other: "SliceSeries") -> "SliceSeries":
        if not isinstance(other, SliceSeries):
            return NotImplemented
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((n, 4))
        out[: self.coeffs.shape[0]] += self.coeffs
        out[: other.coeffs.shape[0]] += other.coeffs
        return SliceSeries(out)

    def __sub__(self, other: "SliceSeries") -> "SliceSeries":
        if not isinstance(other, SliceSeries):
            return NotImplemented
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((n, 4))
        out[: self.coeffs.shape[0]] += self.coeffs
        out[: other.coeffs.shape[0]] -= other.coeffs
        return SliceSeries(out)


@dataclass(frozen=True)
class SplitPair:
    """Holomorphic components of a series on one complex plane.

    On the plane of ``unit_i`` with perpendicular ``unit_j``, the restriction
    decomposes as f = F + G J with F, G complex power series (coefficients
    relative to the bases {1, I} and {J, IJ}).
    """

    f_coeffs: np.ndarray
    g_coeffs: np.ndarray
    unit_i: ImaginaryUnit
    unit_j: ImaginaryUnit

    def f_at(self, z: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(z, self.f_coeffs))

    def g_at(self, z: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(z, self.g_coeffs))

    def reassemble(self, z: complex) -> Quaternion:
        """F(z) + G(z) J as a quaternion (z read as a point of the I-plane)."""
        fi = embed_complex(self.f_at(z), self.unit_i)
        gi = embed_complex(self.g_at(z), self.unit_i)
        return fi + gi * self.unit_j.as_quaternion()


def embed_complex(z: complex, unit: ImaginaryUnit) -> Quaternion:
    """Send x + i y to x + unit y."""
    return Quaternion(z.real, z.imag * unit.x, z.imag * unit.y, z.imag * unit.z)


# ---------------------------------------------------------------------------
# constructors

def from_quaternions(values) -> SliceSeries:
    return SliceSeries(np.array([v.to_array() for v in values]))


def zero_series() -> SliceSeries:
    return SliceSeries(np.zeros((1, 4)))


def monomial(k: int, coefficient: Quaternion = Quaternion(1.0)) -> SliceSeries:
    if k < 0:
        raise ValueError("monomial degree must be nonnegative")
    out = np.zeros((k + 1, 4))
    out[k] = coefficient.to_array()
    return SliceSeries(out)


def exp_series(degree: int = 24) -> SliceSeries:
    """The slice exponential: a_k = 1/k!."""
    return ExpGenerator((1.0, 0.0, 0.0, 0.0)).series(degree)


def gauss_series(beta: float, degree: int = 24) -> SliceSeries:
    """The squared-variable exponential q -> e(beta q^2): a_{2m} = beta^m/m!."""
    return ExpGenerator((beta, 0.0, 0.0, 0.0), stride=2).series(degree)


def from_generator(tag: str, degree: int = 24) -> SliceSeries:
    """The series a function tag names: ``exp``, ``gauss:<beta>``,
    ``mono:<k>`` (the polynomial q^k) or
    ``kernel-section:<w>,<x>,<y>,<z>,<alpha>`` (the section centered at
    q0 = w + x i + y j + z k, c = alpha conj(q0)).  This is the only place
    a tag is parsed."""
    name, _, arg = tag.partition(":")
    if tag == "exp":
        return exp_series(degree)
    if name == "gauss":
        return gauss_series(float(arg), degree)
    if name == "mono":
        return monomial(int(arg))
    if name == "kernel-section":
        w, x, y, z, alpha = (float(s) for s in arg.split(","))
        return ExpGenerator((alpha * w, -alpha * x, -alpha * y, -alpha * z)
                            ).series(degree)
    raise ValueError(f"unknown generator tag: {tag!r}")


def random_series(degree: int, seed: int) -> SliceSeries:
    """Reproducible random polynomial; see :mod:`slicefock.prng` for the stream.

    Row k consumes four consecutive draws (w, x, y, z), each uniform in
    [-1, 1), rows in increasing degree order.
    """
    from .prng import SplitMix64

    gen = SplitMix64(seed)
    out = np.empty((degree + 1, 4))
    for k in range(degree + 1):
        for c in range(4):
            out[k, c] = gen.next_symmetric()
    return SliceSeries(out)


def extended(f: SliceSeries, degree: int) -> SliceSeries:
    """Copy of f holding coefficients up to ``degree`` (exact per generator;
    zero padding for plain polynomials)."""
    if degree <= f.degree:
        return f
    if f.generator is None:
        out = np.zeros((degree + 1, 4))
        out[: f.coeffs.shape[0]] = f.coeffs
        return SliceSeries(out)
    return f.generator.series(degree)


# ---------------------------------------------------------------------------
# tail control

def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each coefficient row, scaled so that tiny rows do
    not underflow when squared; a row holding inf has norm inf."""
    m = np.abs(a).max(axis=1)
    safe = np.minimum(np.maximum(m, 5e-324), 1.7976931348623157e308)  # m if 0 < m < inf
    return m * np.sqrt(np.square(a / safe[:, None]).sum(axis=1))


def _certified(f: SliceSeries, log_terms, ratio, log_tol: float, log_floor: float,
               where: str) -> tuple[SliceSeries, np.ndarray, float]:
    """Extend f, doubling its stored degree, until the tail of the terms t_k
    (log t_k = ``log_terms(log |a_k|, k)``, the rows in log-polar form) past
    the stored degree is below e^log_tol times max(e^log_floor, sum of the
    stored t_k), bounded from the last two stored terms by the generator's
    ``ratio(degree)`` on t_{k+s} / t_k for every later k, or until the
    degree reaches ``DEGREE_CAP``, where the bound is returned as it stands
    (+inf without a ratio below 1) for the caller to refuse
    (:func:`_check_certified`) or charge.  Returns (series, log t_k, the log
    of the tail bound relative to that reference); terms past the float
    range raise :class:`TruncationError`, naming ``where``."""
    g = f.generator
    fe = f
    while True:
        deg = fe.degree
        logs = log_terms(fe.log_row_norms, np.arange(deg + 1))
        top = float(logs.max())
        if not top < math.inf:
            raise TruncationError(f"series terms overflow at {where}")
        if g is None:                      # no tail
            return fe, logs, -math.inf
        scaled = np.exp(logs - top) if top > -math.inf else np.zeros(deg + 1)
        total = float(scaled.sum())
        log_ref = max(log_floor, top + math.log(total)) if total > 0.0 else log_floor
        rho = ratio(deg)
        last = float(scaled[-2:].max())
        if not rho < 1.0:
            log_tail = math.inf
        elif rho == 0.0 or last == 0.0:
            log_tail = -math.inf
        else:
            log_tail = top + math.log(last) + math.log(rho / (1.0 - rho))
        if log_tail <= log_ref + log_tol or deg >= DEGREE_CAP:
            return fe, logs, log_tail - log_ref if log_tail > -math.inf else log_tail
        fe = extended(f, min(DEGREE_CAP, max(2 * (deg + 1), 16)))


def _check_certified(log_tail: float, tol: float, where: str) -> float:
    """``log_tail`` from :func:`_certified`, refused where the degree cap
    left it above ``tol`` (:class:`TruncationError`, naming ``where``)."""
    if not log_tail <= math.log(tol):
        raise TruncationError(
            f"truncation error exceeds tolerance: tail not certified below "
            f"{tol:g} at {where} with degree cap {DEGREE_CAP}")
    return log_tail


def _radius_certificate(f: SliceSeries, radius: float
                        ) -> tuple[SliceSeries, np.ndarray, float]:
    """:func:`_certified` on the terms |a_k| R^k at ``TAIL_TOL``."""
    log_r = math.log(radius) if radius > 0.0 else 0.0
    return _certified(f, lambda log_mags, k: log_mags + k * log_r,
                      lambda deg: f.generator.term_ratio(radius, deg),
                      math.log(TAIL_TOL), 0.0, f"radius {radius:g}")


def prepared_for_radius(f: SliceSeries, radius: float) -> tuple[SliceSeries, float]:
    """Extend f until its tail beyond the stored degree is certified small
    at the given radius, for the evaluators that read the stored ``coeffs``.

    Returns ``(series, tail)`` where ``tail`` bounds
    sum_{k > D} |a_k| R^k relative to max(1, sum_{k <= D} |a_k| R^k), below
    ``TAIL_TOL``, together with the mass of the generator rows from k0, the
    first stored as 0, which those evaluators lose.  Raises
    :class:`TruncationError` if the tail bound is unreachable at
    ``DEGREE_CAP``, or if that lost mass exceeds ``TAIL_TOL``.
    """
    radius = float(abs(radius))
    fe, logs, log_tail = _radius_certificate(f, radius)
    _check_certified(log_tail, TAIL_TOL, f"radius {radius:g}")
    g = fe.generator
    zero = np.flatnonzero(fe.row_norms[::g.stride] == 0.0) if g else ()
    if len(zero):
        k0 = int(zero[0]) * g.stride
        rho = g.term_ratio(radius, k0)
        log_ref = max(0.0, float(np.logaddexp.reduce(logs)))
        log_lost = logs[k0] - math.log1p(-rho) - log_ref if rho < 1.0 else math.inf
        if log_lost > math.log(TAIL_TOL):
            raise TruncationError(
                f"stored coefficients reach 0 before the tail is controlled "
                f"at radius {radius:g}")
        log_tail = max(log_tail, log_lost)
    return fe, math.exp(log_tail)


def max_modulus_type(f: SliceSeries) -> float:
    """Order-2 type sigma of f, log max |f| on |q| = r being sigma r^2 + o(r^2),
    from the generator's closed form; 0 for polynomials."""
    return f.generator.type if f.generator else 0.0


# ---------------------------------------------------------------------------
# evaluation

def _slice_sum(f: SliceSeries, z: np.ndarray, prepare: bool) -> np.ndarray:
    """S(z) = sum_k z^k a_k taken componentwise, an (n, 4) complex array, by
    one complex Horner recursion; f is prepared for max |z| first unless
    ``prepare`` is off."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if prepare:
        f, _ = prepared_for_radius(f, float(np.max(np.abs(z))) if z.size else 0.0)
    coeffs = f.coeffs
    zc = z[:, None]
    s = np.broadcast_to(coeffs[-1], (z.size, 4)).astype(complex)
    for k in range(coeffs.shape[0] - 2, -1, -1):
        s *= zc
        s += coeffs[k]
    return s


def _lift(s: np.ndarray, unit: ImaginaryUnit) -> np.ndarray:
    """Re S + unit Im S: the values on the plane of ``unit`` from S."""
    return s.real + s.imag @ left_mult_matrix(unit.as_quaternion()).T


def eval_on_slice(f: SliceSeries, unit: ImaginaryUnit, z: np.ndarray,
                  prepare: bool = True) -> np.ndarray:
    """Values of f on the plane of ``unit`` at complex coordinates z.

    The point x + i y stands for the quaternion x + unit y.  Returns an
    (n, 4) array of quaternion components, Re S + unit Im S with S from one
    complex Horner recursion (:func:`_slice_sum`): (x + unit y)^k equals
    Re z^k + unit Im z^k and the coefficients sit on the right.
    """
    return _lift(_slice_sum(f, z, prepare), unit)


def _log_scaled_terms(log_mags: np.ndarray, radii: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Terms at each radius in log scale from the log sizes log |a_k| of the
    rows, ``log_mags`` of shape (..., K), one row of sizes per image:
    (scaled, top) with scaled[..., i, k] = |a_k| r_i^k e^{-top_i} <= 1,
    top_i the log of the largest term (0 where every term vanishes)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = log_mags[..., None, :] + np.multiply.outer(np.log(radii),
                                                          np.arange(log_mags.shape[-1]))
    logs[..., 0] = log_mags[..., None, 0]      # r^0 = 1, also at r = 0
    top = np.max(logs, axis=-1)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.exp(logs - top[..., None]), top


def _polar_sum(scaled: np.ndarray, dirs: np.ndarray, n_circle: int) -> np.ndarray:
    """S at r_i exp(2 pi i j / n_circle) from its log-scaled terms
    (:func:`_log_scaled_terms`, each radius's row rescaled as the caller
    needs) and the rows ``dirs`` of shape (..., K, c), real or complex, in
    any basis, the leading axes (images) shared with ``scaled``'s (..., R,
    K): sum_k scaled[..., i, k] dirs[..., k, :] e^{2 pi i j k / n_circle},
    shape (..., R, n_circle, c) complex.  The terms are folded modulo the
    node count into one complex (..., R, c, n_circle) buffer and transformed
    in place along its contiguous last axis, one FFT for every image and
    radius, so that callers working in log space (log |f| far past the
    overflow range) never form e^{top}."""
    n_terms, cols = dirs.shape[-2:]
    folded = np.zeros(scaled.shape[:-1] + (cols, n_circle), complex)
    rows = np.swapaxes(dirs, -1, -2)[..., None, :, :]       # (..., 1, c, K)
    terms = scaled[..., None, :]                             # (..., R, 1, K)
    head = min(n_terms, n_circle)
    np.multiply(rows[..., :head], terms[..., :head], out=folded[..., :head])
    for start in range(n_circle, n_terms, n_circle):
        stop = min(start + n_circle, n_terms)
        folded[..., :stop - start] += rows[..., start:stop] * terms[..., start:stop]
    return np.fft.ifft(folded, norm="forward", out=folded).swapaxes(-2, -1)


def slice_components(f: SliceSeries, z: np.ndarray,
                     prepare: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) at complex coordinates z such that f(x + u y) = alpha +
    u beta for every imaginary unit u, z = x + i y.

    These are Re S and Im S of the componentwise sum S(z) = sum_k z^k a_k
    (:func:`_slice_sum`), two (n, 4) arrays of quaternion components.
    """
    s = _slice_sum(f, z, prepare)
    return s.real, s.imag


def evaluate(f: SliceSeries, q: Quaternion) -> Quaternion:
    """Value of sum_k q^k a_k, extending f as needed for the tail at |q|."""
    unit, _ = slice_unit(q)
    z = complex(q.w, q.imag_norm())
    vals = eval_on_slice(f, unit, np.array([z]))
    return Quaternion.from_array(vals[0])


def log_abs_evaluate(f: SliceSeries, q: Quaternion) -> float:
    """log |f(q)| computed with per-term log scaling, usable far beyond the
    overflow range of direct evaluation."""
    f, _ = prepared_for_radius(f, abs(q))
    unit, _ = slice_unit(q)
    r = abs(q)
    theta = math.atan2(q.imag_norm(), q.w)
    return _log_abs_on_circle(f, unit, r, np.array([theta]))[0]


def _log_abs_on_circle(f: SliceSeries, unit: ImaginaryUnit, radius: float,
                       thetas: np.ndarray) -> np.ndarray:
    """log |f| at the points radius * (cos t + unit sin t); f must already be
    prepared for this radius."""
    coeffs = f.coeffs
    if radius == 0.0:
        a0 = math.sqrt(float(np.sum(np.square(coeffs[0]))))
        return np.full(thetas.shape, math.log(a0) if a0 > 0.0 else -math.inf)
    scaled, top = _log_scaled_terms(f.log_row_norms, np.array([radius]))
    a = f.directions * scaled[0][:, None]
    ia = a @ left_mult_matrix(unit.as_quaternion()).T
    ang = np.outer(thetas, np.arange(coeffs.shape[0]))
    vals = np.cos(ang) @ a + np.sin(ang) @ ia       # (n, 4)
    norms = np.sqrt(np.sum(np.square(vals), axis=1))
    with np.errstate(divide="ignore"):
        return top[0] + np.log(norms)


# ---------------------------------------------------------------------------
# structural operations

def dilate(f: SliceSeries, r: float) -> SliceSeries:
    """Series of q -> f(r q): coefficients a_k -> r^k a_k.  Requires 0 < r <= 1."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"dilation factor must lie in (0, 1], got {r!r}")
    scale = r ** np.arange(f.coeffs.shape[0])
    g = f.generator
    return SliceSeries(f.coeffs * scale[:, None], g.dilated(r) if g else None)


def taylor_truncate(f: SliceSeries, n: int) -> SliceSeries:
    """Projection onto degree <= n: coefficients above n are dropped."""
    if n < 0:
        raise ValueError("truncation degree must be nonnegative")
    fe = extended(f, n) if f.generator is not None else f
    out = np.zeros((n + 1, 4))
    m = min(n + 1, fe.coeffs.shape[0])
    out[:m] = fe.coeffs[:m]
    return SliceSeries(out)


def split(f: SliceSeries, unit_i: ImaginaryUnit, unit_j: ImaginaryUnit) -> SplitPair:
    """Holomorphic splitting of the restriction of f to the I-plane.

    Every coefficient decomposes in the orthonormal basis {1, I, J, IJ}; the
    {1, I} part feeds F, the {J, IJ} part feeds G, and on the plane
    f = F + G J pointwise.  J must be perpendicular to I.
    """
    if abs(unit_i.dot(unit_j)) > ORTHO_TOL:
        raise ValueError("splitting requires perpendicular imaginary units")
    qi = unit_i.as_quaternion()
    qj = unit_j.as_quaternion()
    qij = qi * qj
    basis = np.stack([
        np.array([1.0, 0.0, 0.0, 0.0]),
        qi.to_array(),
        qj.to_array(),
        qij.to_array(),
    ])
    coords = f.coeffs @ basis.T
    return SplitPair(
        f_coeffs=coords[:, 0] + 1j * coords[:, 1],
        g_coeffs=coords[:, 2] + 1j * coords[:, 3],
        unit_i=unit_i,
        unit_j=unit_j,
    )


def slice_evaluator(f: SliceSeries, unit: ImaginaryUnit, radius: float):
    """Callable z -> f(x + unit y) with the tail prepared once for |z| <= radius."""
    fe, _ = prepared_for_radius(f, radius)

    def values(z: complex) -> Quaternion:
        vals = eval_on_slice(fe, unit, np.array([z]), prepare=False)
        return Quaternion.from_array(vals[0])

    return values


def representation_formula(f_on_slice, unit_i: ImaginaryUnit, q: Quaternion) -> Quaternion:
    """Reconstruct f(q) from slice values on the I-plane.

    ``f_on_slice`` maps a complex coordinate z (a point x + I y) to the
    quaternion f(x + I y).  For q = x + J y with y >= 0 the value is
    (1 - J I) f(x + I y) / 2 + (1 + J I) f(x - I y) / 2, which reproduces
    evaluate(f, q) for slice-regular f.
    """
    unit_j, _ = slice_unit(q)
    x = q.w
    y = q.imag_norm()
    a = f_on_slice(complex(x, y))
    b = f_on_slice(complex(x, -y))
    ji = unit_j.as_quaternion() * unit_i.as_quaternion()
    one = Quaternion(1.0)
    return ((one - ji) * a + (one + ji) * b) * 0.5


# ---------------------------------------------------------------------------
# coefficient files

def read_coefficients(path) -> SliceSeries:
    """Plain text series: one coefficient per line as four floats "w x y z",
    the line number (from 0) being the power it multiplies."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 4:
                raise ValueError(
                    f"{path}: line {line_no} must hold four floats, got {stripped!r}")
            rows.append([float(p) for p in parts])
    if not rows:
        raise ValueError(f"{path}: no coefficients found")
    return SliceSeries(np.array(rows))


def write_coefficients(path, f: SliceSeries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in f.coeffs:
            fh.write(" ".join(repr(float(c)) for c in row) + "\n")
