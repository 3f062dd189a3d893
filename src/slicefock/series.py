"""Entire slice-regular functions as power series with right quaternion coefficients.

A series f(q) = sum_k q^k a_k is stored as the coefficient array a_k (one
quaternion per row).  Coefficients sit strictly on the right of the powers;
all operator algebra in this package relies on that convention.  A series
may carry a generator tag ("exp", "gauss:<beta>", "mono:<k>",
"kernel-section:<w>,<x>,<y>,<z>,<alpha>") from which further coefficients
can be produced on demand, so entire functions are handled through finite
truncations whose tail is certified below a tolerance before any
evaluation.

Two evaluators share that convention.  :func:`eval_on_slice` runs a Horner
recursion at scattered points of a plane.  :func:`eval_polar` serves every
quadrature grid, whose angular nodes are uniform on a circle: for each
radius the values are one inverse FFT of the log-scaled terms r^k a_k,
folded modulo the node count, so a grid costs O(R (D + n log n)) instead of
the O(R n D) of Horner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import TruncationError
from .quaternion import (
    ORTHO_TOL,
    ImaginaryUnit,
    Quaternion,
    UNIT_I,
    left_mult_matrix,
    slice_unit,
)

#: Hard cap on the truncation degree used when a generator extends a series.
DEGREE_CAP = 512
#: Relative tail tolerance: sum_{k>D} |a_k| R^k below TAIL_TOL times the
#: term-magnitude scale at radius R (absolute when that scale is below 1).
TAIL_TOL = 1e-14


@dataclass(frozen=True)
class SliceSeries:
    """Right-coefficient power series, optionally extendable via a generator.

    ``coeffs`` has shape (D+1, 4); row k holds the quaternion a_k.
    ``dilation`` records an accumulated radial rescale: the stored rows are
    the generator's coefficients times dilation^k, so generator extension
    stays exact for dilated series.
    """

    coeffs: np.ndarray
    generator: str | None = None
    dilation: float = 1.0

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

    def coefficient(self, k: int) -> Quaternion:
        if k <= self.degree:
            return Quaternion.from_array(self.coeffs[k])
        if self.generator is None:
            return Quaternion()
        return Quaternion.from_array(_generator_coeffs(self.generator, k)[k]
                                     * self.dilation ** k)

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
    tag = f"mono:{k}" if coefficient == Quaternion(1.0) else None
    return SliceSeries(out, generator=tag)


def exp_series(degree: int = 24) -> SliceSeries:
    """The slice exponential: a_k = 1/k!."""
    return SliceSeries(_generator_coeffs("exp", degree), generator="exp")


def gauss_series(beta: float, degree: int = 24) -> SliceSeries:
    """The squared-variable exponential q -> e(beta q^2): a_{2m} = beta^m/m!."""
    tag = f"gauss:{float(beta)!r}"
    return SliceSeries(_generator_coeffs(tag, degree), generator=tag)


def from_generator(tag: str, degree: int = 24) -> SliceSeries:
    return SliceSeries(_generator_coeffs(tag, degree), generator=tag)


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


def _generator_coeffs(tag: str, degree: int) -> np.ndarray:
    """Closed-form coefficients a_0..a_degree for a generator tag."""
    out = np.zeros((degree + 1, 4))
    if tag == "exp":
        # canonical float of 1/k! while the factorial is float-representable,
        # then the stable running product for the (sub)normal tail
        acc = 0.0
        for k in range(degree + 1):
            if k <= 170:
                acc = 1.0 / math.factorial(k)
            else:
                acc /= k
            out[k, 0] = acc
    elif tag.startswith("gauss:"):
        beta = float(tag.split(":", 1)[1])
        acc = 0.0
        for m in range(degree // 2 + 1):
            if m <= 170 and abs(beta) ** m < math.inf:
                acc = beta ** m / math.factorial(m)
            else:
                acc *= beta / m
            out[2 * m, 0] = acc
    elif tag.startswith("mono:"):
        k = int(tag.split(":", 1)[1])
        if k <= degree:
            out[k, 0] = 1.0
    elif tag.startswith("kernel-section:"):
        # a_k = c^k / k! with c = alpha conj(q0) = |c| (cos phi + u sin phi),
        # so c^k = |c|^k (cos k phi + u sin k phi); the magnitude is taken in
        # log space, k log|c| - log k!, and underflows only where it must
        w, x, y, z, alpha = (float(s) for s in tag.split(":", 1)[1].split(","))
        c = alpha * np.array([w, -x, -y, -z])
        im = math.hypot(*c[1:])
        k = np.arange(degree + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = np.exp(k * np.log(math.hypot(c[0], im)) - gammaln(k + 1.0))
        mag[0] = 1.0                            # c^0 = 1, also for c = 0
        phi = k * math.atan2(im, c[0])
        out[:, 0] = mag * np.cos(phi)
        if im > 0.0:
            out[:, 1:] = (mag * np.sin(phi))[:, None] * (c[1:] / im)
    else:
        raise ValueError(f"unknown generator tag: {tag!r}")
    return out


def extended(f: SliceSeries, degree: int) -> SliceSeries:
    """Copy of f holding coefficients up to ``degree`` (exact per generator;
    zero padding for plain polynomials)."""
    if degree <= f.degree:
        return f
    if f.generator is None:
        out = np.zeros((degree + 1, 4))
        out[: f.coeffs.shape[0]] = f.coeffs
        return SliceSeries(out)
    base = _generator_coeffs(f.generator, degree)
    if f.dilation != 1.0:
        base = base * (f.dilation ** np.arange(degree + 1))[:, None]
    return SliceSeries(base, generator=f.generator, dilation=f.dilation)


# ---------------------------------------------------------------------------
# tail control

def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each coefficient row, scaled so that tiny rows do
    not underflow when squared."""
    m = np.max(np.abs(a), axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    return m * np.sqrt(np.sum(np.square(a / safe[:, None]), axis=1))


def _future_term_ratio(f: SliceSeries, radius: float, degree: int) -> float:
    """Upper bound for the ratio of consecutive nonzero term magnitudes
    |a_{k+1}| R^{k+1} / |a_k| R^k past ``degree``.  All generator families
    have factorially decaying coefficients, so the bound decreases in k."""
    g = f.generator
    if g is None or g.startswith("mono:"):
        return 0.0
    r_eff = radius * f.dilation
    if g == "exp":
        return r_eff / (degree + 1)
    if g.startswith("gauss:"):
        beta = abs(float(g.split(":", 1)[1]))
        return beta * r_eff * r_eff / (degree // 2 + 1)
    if g.startswith("kernel-section:"):
        w, x, y, z, alpha = (float(s) for s in g.split(":", 1)[1].split(","))
        center = math.sqrt(w * w + x * x + y * y + z * z)
        return abs(alpha) * center * r_eff / (degree + 1)
    raise ValueError(f"unknown generator tag: {g!r}")


def prepared_for_radius(f: SliceSeries, radius: float,
                        tol: float = TAIL_TOL, cap: int = DEGREE_CAP,
                        drop_ok: bool = False) -> tuple[SliceSeries, float]:
    """Extend f until its tail beyond the stored degree is certified small
    at the given radius.

    Returns ``(series, tail)`` where ``tail`` bounds
    sum_{k > D} |a_k| R^k relative to max(1, sum_{k <= D} |a_k| R^k).
    Raises :class:`TruncationError` if the bound is unreachable at the cap,
    or if generator coefficients underflowed to zero while their terms still
    matter at this radius; ``drop_ok`` skips the latter so that integrators
    can budget the dropped mass against their Gaussian damping instead (see
    :func:`underflow_drop_logs`).
    """
    radius = float(abs(radius))
    fe = f
    while True:
        deg = fe.degree
        mags = _row_norms(fe.coeffs)
        with np.errstate(divide="ignore"):
            logs = np.log(mags)
        if radius > 0.0:
            logs = logs + np.arange(deg + 1) * math.log(radius)
        top = float(np.max(logs))
        if top == -math.inf:            # identically zero so far
            scaled = np.zeros(deg + 1)
            log_scale = 0.0
        else:
            scaled = np.exp(logs - top)
            log_scale = top
        total = float(np.sum(scaled))
        # scale = max(1, sum of term magnitudes), tracked in log space
        log_ref = max(0.0, log_scale + math.log(total)) if total > 0 else 0.0

        ratio = _future_term_ratio(fe, radius, deg)
        last = float(np.max(scaled[-2:])) if deg >= 1 else float(scaled[-1])
        if ratio < 1.0:
            # geometric bound on the discarded tail; the term ratio of every
            # generator family decreases with the degree, so it is valid
            if ratio == 0.0 or last == 0.0:
                log_tail = -math.inf
            else:
                log_tail = log_scale + math.log(last) + math.log(ratio / (1.0 - ratio))
            if log_tail <= log_ref + math.log(tol):
                # Generator coefficients that underflowed to zero drop true
                # mass; certify that the dropped part is below tolerance too.
                if f.generator is not None and not drop_ok:
                    log_drop = float(underflow_drop_logs(fe, np.array([radius]))[0])
                    if log_drop > log_ref + math.log(tol):
                        raise TruncationError(
                            "coefficients underflow before the tail is "
                            f"controlled at radius {radius:g}")
                    log_tail = max(log_tail, log_drop)
                tail_rel = 0.0 if log_tail == -math.inf else math.exp(log_tail - log_ref)
                return fe, tail_rel
        if deg >= cap:
            raise TruncationError(
                f"truncation error exceeds tolerance: tail not certified below "
                f"{tol:g} at radius {radius:g} with degree cap {cap}")
        fe = extended(f, min(cap, max(2 * (deg + 1), 16)))


def _log_generator_coeff_mag(f: SliceSeries, k: int) -> float:
    """log |a_k| straight from the generator's closed form (dilation
    included), valid far below the float underflow threshold."""
    g = f.generator
    log_dil = k * math.log(f.dilation) if f.dilation != 1.0 else 0.0
    if g == "exp":
        return -math.lgamma(k + 1) + log_dil
    if g.startswith("gauss:"):
        beta = abs(float(g.split(":", 1)[1]))
        if k % 2 == 1 or beta == 0.0:
            return -math.inf
        m = k // 2
        return m * math.log(beta) - math.lgamma(m + 1) + log_dil
    if g.startswith("kernel-section:"):
        w, x, y, z, alpha = (float(s) for s in g.split(":", 1)[1].split(","))
        center = math.sqrt(w * w + x * x + y * y + z * z)
        if center == 0.0:
            return 0.0 if k == 0 else -math.inf
        return k * math.log(abs(alpha) * center) - math.lgamma(k + 1) + log_dil
    return -math.inf


def _underflow_start(f: SliceSeries) -> int | None:
    """First index whose generator coefficient underflowed to zero in
    storage, or None when every stored row is faithful."""
    g = f.generator
    if g is None or g.startswith("mono:"):
        return None
    mags = _row_norms(f.coeffs)
    if g.startswith("gauss:"):
        idx = np.flatnonzero(mags[::2] == 0.0)
        return int(idx[0]) * 2 if idx.size else None
    idx = np.flatnonzero(mags == 0.0)
    return int(idx[0]) if idx.size else None


def _log_total_bound(f: SliceSeries, radius: float) -> float:
    """log of sum_k |a_k| r^k for the full (untruncated) generator series,
    a crude but always-finite cap on any dropped mass."""
    g = f.generator
    r_eff = radius * f.dilation
    if g == "exp":
        return r_eff
    if g.startswith("gauss:"):
        beta = abs(float(g.split(":", 1)[1]))
        return beta * r_eff * r_eff
    if g.startswith("kernel-section:"):
        w, x, y, z, alpha = (float(s) for s in g.split(":", 1)[1].split(","))
        return abs(alpha) * math.sqrt(w * w + x * x + y * y + z * z) * r_eff
    return -math.inf


def max_modulus_type(f: SliceSeries) -> float:
    """Order-2 type sigma of f, log max |f| on |q| = r being sigma r^2 + o(r^2),
    from the generator's closed form: |beta| d^2 for gauss:<beta> with
    dilation d; 0 for polynomials and the order-1 families."""
    g = f.generator
    if g is not None and g.startswith("gauss:"):
        return abs(float(g.split(":", 1)[1])) * f.dilation ** 2
    return 0.0


def underflow_drop_logs(f: SliceSeries, radii: np.ndarray) -> np.ndarray:
    """log bounds, per radius, for the term mass dropped because generator
    rows underflowed to zero in storage; -inf where nothing is dropped.

    Uses the geometric tail bound from the first dropped index where the
    terms already decay, and the whole-series bound where they still grow.
    """
    radii = np.asarray(radii, dtype=float)
    out = np.full(radii.shape, -math.inf)
    k0 = _underflow_start(f)
    if k0 is None:
        return out
    log_base = _log_generator_coeff_mag(f, k0)
    for i, r in enumerate(radii):
        ratio = _future_term_ratio(f, float(r), k0)
        if ratio >= 1.0:
            out[i] = _log_total_bound(f, float(r))
        elif r > 0.0 and log_base > -math.inf:
            out[i] = log_base + k0 * math.log(r) - math.log(1.0 - ratio)
    return out


# ---------------------------------------------------------------------------
# evaluation

def eval_on_slice(f: SliceSeries, unit: ImaginaryUnit, z: np.ndarray,
                  prepare: bool = True) -> np.ndarray:
    """Values of f on the plane of ``unit`` at complex coordinates z.

    The point x + i y stands for the quaternion x + unit y.  Returns an
    (n, 4) array of quaternion components.  Uses a Horner recursion
    q (s) + a_k, which is valid with right coefficients because the factor
    q multiplies from the left.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if prepare:
        f, _ = prepared_for_radius(f, float(np.max(np.abs(z))) if z.size else 0.0)
    lm = left_mult_matrix(unit.as_quaternion()).T
    x = z.real[:, None]
    y = z.imag[:, None]
    coeffs = f.coeffs
    out = np.broadcast_to(coeffs[-1], (z.shape[0], 4)).copy()
    for k in range(coeffs.shape[0] - 2, -1, -1):
        out = x * out + y * (out @ lm) + coeffs[k]
    return out


def _log_scaled_terms(coeffs: np.ndarray, radii: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms of the series at each radius in log scale: (scaled, top, dirs)
    with scaled[i, k] = |a_k| r_i^k e^{-top_i} <= 1, top_i the log of the
    largest term (0 where every term vanishes) and dirs the unit rows
    a_k / |a_k| (zero rows kept)."""
    mags = _row_norms(coeffs)
    dirs = coeffs / np.where(mags > 0.0, mags, 1.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mags = np.log(mags)
        logs = log_mags + np.multiply.outer(np.log(radii), np.arange(mags.size))
    logs[:, 0] = log_mags[0]                   # r^0 = 1, also at r = 0
    top = np.max(logs, axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.exp(logs - top[:, None]), top, dirs


def _eval_polar_scaled(f: SliceSeries, unit: ImaginaryUnit,
                       radii: np.ndarray, n_circle: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eval_polar` before the scale is multiplied back: returns
    (values e^{-top_i}, top) with top_i the log of the largest term magnitude
    at radius r_i, so that callers working in log space (log |f| far past
    the overflow range) never form e^{top}."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    scaled, top, dirs = _log_scaled_terms(f.coeffs, radii)
    n_terms = dirs.shape[0]
    folded = np.zeros((radii.size, n_circle, 4))
    for start in range(0, n_terms, n_circle):
        stop = min(start + n_circle, n_terms)
        folded[:, :stop - start] += scaled[:, start:stop, None] * dirs[start:stop]
    s = np.fft.ifft(folded, axis=1, norm="forward")
    lm = left_mult_matrix(unit.as_quaternion()).T
    return s.real + s.imag @ lm, top


def eval_polar(f: SliceSeries, unit: ImaginaryUnit, radii: np.ndarray,
               n_circle: int) -> np.ndarray:
    """Values of an already prepared f at r_i exp(2 pi i j / n_circle) on the
    plane of ``unit``, shape (R, n_circle, 4): what :func:`eval_on_slice`
    gives at those nodes.

    On the circle of radius r, f = sum_k r^k (cos(k t) a_k + sin(k t) I a_k)
    = Re S + I Im S with S(t) = sum_k r^k a_k e^{i k t} taken componentwise.
    At the n uniform angles S is one inverse DFT of the terms folded modulo
    n.  Each radius scales its terms by e^{-top}, top the log of its largest
    term magnitude (:func:`_log_scaled_terms`, shared with
    :func:`_log_abs_on_circle`), so r^k never overflows; the scaled values
    come from :func:`_eval_polar_scaled` and the scale is multiplied back
    here.  Temporaries are (R, D) scalars and (R, n) quaternions, never
    (R, D, 4).
    """
    values, top = _eval_polar_scaled(f, unit, radii, n_circle)
    return values * np.exp(top)[:, None, None]


def _from_conjugates(plus: np.ndarray, minus: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of the representation formula from f+- = f(x +- i y) on
    the i-plane: alpha = (f+ + f-) / 2, beta = -i (f+ - f-) / 2."""
    lm = left_mult_matrix(UNIT_I.as_quaternion()).T
    return 0.5 * (plus + minus), -0.5 * ((plus - minus) @ lm)


def slice_components(f: SliceSeries, z: np.ndarray,
                     prepare: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) at complex coordinates z such that f(x + u y) = alpha +
    u beta for every imaginary unit u, z = x + i y.

    One plane evaluation at z and conj(z) on the i-plane gives both through
    the representation formula: alpha = (f+ + f-) / 2 and
    beta = -i (f+ - f-) / 2 with f+- = f(x +- i y).  Returns two (n, 4)
    arrays of quaternion components.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    vals = eval_on_slice(f, UNIT_I, np.concatenate([z, z.conj()]), prepare)
    return _from_conjugates(vals[:z.size], vals[z.size:])


def polar_components(f: SliceSeries, radii: np.ndarray, n_circle: int,
                     index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`slice_components` of an already prepared f at
    r_i exp(2 pi i index_j / n_circle), each of shape (R, len(index), 4).

    The conjugate of node j of the circle is node n_circle - j, so one
    :func:`eval_polar` gives both halves of the representation formula.
    """
    vals = eval_polar(f, UNIT_I, radii, n_circle)
    return _from_conjugates(vals[:, index], vals[:, -index % n_circle])


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
    scaled, top, dirs = _log_scaled_terms(coeffs, np.array([radius]))
    a = dirs * scaled[0][:, None]
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
    return SliceSeries(f.coeffs * scale[:, None], generator=f.generator,
                       dilation=f.dilation * r)


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
