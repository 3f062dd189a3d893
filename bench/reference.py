"""Independent reference values for the benchmark's value check.

Nothing here imports slicefock.  Every quantity is either a closed form
(Parseval sums, the first-kind monomial Gram matrix, Fejer/delayed-mean
multipliers, Jackson multipliers from exact kernel coefficients) or a
quadrature on a grid several times finer than the one the library uses,
with the first-kind sphere integral done in closed form through the
representation formula.  Quaternions are (w, x, y, z) float rows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, roots_genlaguerre, roots_laguerre, roots_legendre

#: Degree of the long truncations used for the generator families.
REF_DEGREE = 400

#: Refined node counts: plane (radial, angular) and volume (radial, polar).
PLANE_NODES = (128, 256)
VOLUME_NODES = (96, 96)

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


# ---------------------------------------------------------------------------
# coefficients

def coeffs(spec: str, degree: int = REF_DEGREE) -> np.ndarray:
    """Coefficient rows a_0..a_degree of exp, gauss:<beta> or mono:<k>,
    built from log magnitudes so that nothing overflows."""
    out = np.zeros((degree + 1, 4))
    k = np.arange(degree + 1)
    if spec == "exp":
        out[:, 0] = np.exp(-gammaln(k + 1.0))
    elif spec.startswith("gauss:"):
        beta = float(spec.split(":", 1)[1])
        m = np.arange(degree // 2 + 1)
        out[2 * m, 0] = np.exp(m * math.log(beta) - gammaln(m + 1.0))
    elif spec.startswith("mono:"):
        out[int(spec.split(":", 1)[1]), 0] = 1.0
    else:
        raise ValueError(f"no reference coefficients for {spec!r}")
    return out


def splitmix_coeffs(degree: int, seed: int) -> np.ndarray:
    """Rows of the ``random:<degree>:<seed>`` spec: SplitMix64 draws mapped to
    [-1, 1), four per row, rows in increasing degree."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = np.empty((degree + 1, 4))
    for idx in range(out.size):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.flat[idx] = 2.0 * ((z >> 11) * 2.0 ** -53) - 1.0
    return out


# ---------------------------------------------------------------------------
# quaternion helpers

def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    pw, px, py, pz = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    qw, qx, qy, qz = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def plane_basis(unit) -> np.ndarray:
    """Rows 1, I, J, IJ for the plane of ``unit`` (any perpendicular J)."""
    i = np.array([0.0, *unit])
    v = np.asarray(unit, dtype=float)
    axis = np.eye(3)[int(np.argmax(np.abs(np.cross(v, np.eye(3))).sum(axis=1)))]
    jv = np.cross(v, axis)
    j = np.array([0.0, *(jv / np.linalg.norm(jv))])
    return np.stack([np.array([1.0, 0.0, 0.0, 0.0]), i, j, qmul(i, j)])


def plane_values(a: np.ndarray, unit, z: np.ndarray) -> np.ndarray:
    """f(x + unit y) for complex z, as (n, 4) rows, via f = F + G J."""
    basis = plane_basis(unit)
    c = a @ basis.T
    fz = np.polynomial.polynomial.polyval(z, c[:, 0] + 1j * c[:, 1])
    gz = np.polynomial.polynomial.polyval(z, c[:, 2] + 1j * c[:, 3])
    return (np.outer(fz.real, basis[0]) + np.outer(fz.imag, basis[1])
            + np.outer(gz.real, basis[2]) + np.outer(gz.imag, basis[3]))


def evaluate(a: np.ndarray, q) -> np.ndarray:
    """f(q) for one quaternion q."""
    q = np.asarray(q, dtype=float)
    im = float(np.linalg.norm(q[1:]))
    unit = q[1:] / im if im > 0.0 else np.array([1.0, 0.0, 0.0])
    return plane_values(a, unit, np.array([complex(q[0], im)]))[0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """|a_k| per row, scaled so that tiny rows do not underflow when squared."""
    m = np.max(np.abs(a), axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    return m * np.sqrt(np.sum(np.square(a / safe[:, None]), axis=1))


def term_scale(a: np.ndarray, radius: float) -> float:
    """sum_k |a_k| r^k, the size against which evaluation roundoff is judged."""
    mags = row_norms(a)
    with np.errstate(divide="ignore"):
        logs = np.log(mags) + np.arange(a.shape[0]) * math.log(max(radius, 1e-300))
    top = float(np.max(logs))
    return math.exp(top) * float(np.sum(np.exp(logs - top)))


def sphere_units(m: int) -> np.ndarray:
    """i, j, k followed by the Fibonacci spiral: the documented layout of
    the library's sphere sample."""
    base = np.eye(3)[:min(m, 3)]
    n_extra = m - base.shape[0]
    extra = []
    for t in range(n_extra):
        z = 1.0 - (2.0 * t + 1.0) / n_extra
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        phi = GOLDEN_ANGLE * (t + 1)
        v = np.array([rho * math.cos(phi), rho * math.sin(phi), z])
        extra.append(v / np.linalg.norm(v))
    return np.vstack([base, *extra]) if extra else base


# ---------------------------------------------------------------------------
# plane (second-kind) quantities

def log_weights(a: np.ndarray, alpha: float) -> np.ndarray:
    """log(|a_k|^2 k! / alpha^k); -inf for vanishing rows."""
    k = np.arange(a.shape[0])
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(row_norms(a)) + gammaln(k + 1.0) \
            - k * math.log(alpha)


def _logsum(logs: np.ndarray) -> float:
    logs = logs[np.isfinite(logs)]
    if logs.size == 0:
        return 0.0
    top = float(np.max(logs))
    return math.exp(top) * float(np.sum(np.exp(logs - top)))


def parseval_sq(a: np.ndarray, alpha: float) -> float:
    """Squared plane norm at p = 2: sum |a_k|^2 k! / alpha^k."""
    return _logsum(log_weights(a, alpha))


def scaled_rows(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Rows rho_k a_k (rho shorter than a: zero beyond it)."""
    out = np.zeros_like(a)
    m = min(a.shape[0], rho.size)
    out[:m] = rho[:m, None] * a[:m]
    return out


def plane_norm(a: np.ndarray, unit, p: float, alpha: float) -> float:
    """Second-kind norm ((alpha p / 2 pi) int (|f| e^{-alpha|z|^2/2})^p)^(1/p)
    on a refined Gauss-Laguerre x trapezoid grid."""
    return (alpha * p / (2.0 * math.pi) * plane_raw(a, unit, p, alpha)) ** (1.0 / p)


def plane_raw(a: np.ndarray, unit, p: float, alpha: float) -> float:
    """int (|f| e^{-alpha|z|^2/2})^p dm over the plane, no prefactor."""
    scale = alpha * p / 2.0
    n_radial, n_angular = PLANE_NODES
    s, w = roots_laguerre(n_radial)
    r = np.sqrt(s / scale)
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    z = np.outer(r, np.exp(1j * theta))
    vals = plane_values(a, unit, z.ravel())
    amp = np.sqrt(np.sum(vals * vals, axis=1)).reshape(z.shape) \
        * np.exp(-0.5 * alpha * r * r)[:, None]
    shell = (amp ** p).sum(axis=1) * (2.0 * math.pi / n_angular)
    return float(np.dot(w * np.exp(s), shell)) / (2.0 * scale)


# ---------------------------------------------------------------------------
# whole-algebra (first-kind) quantities

def first_gram_scaled(n: int) -> np.ndarray:
    """Monomial Gram matrix over the algebra, normalized to unit diagonal:
    <q^m, q^m> = (m+1)!/alpha^m and <q^m, q^{m+2}> = -(m+2)!/(2 alpha^{m+1}),
    so the scaled off-diagonal is -sqrt((m+2)/(m+3))/2 for every alpha."""
    g = np.eye(n + 1)
    m = np.arange(n - 1)
    off = -0.5 * np.sqrt((m + 2.0) / (m + 3.0))
    g[m, m + 2] = off
    g[m + 2, m] = off
    return g


def first_diag_log(n: int, alpha: float) -> np.ndarray:
    k = np.arange(n + 1)
    return gammaln(k + 2.0) - k * math.log(alpha)


def first_inner(m: int, n: int, alpha: float) -> float:
    """<q^m, q^n> over the algebra (real)."""
    if m == n:
        return math.exp(first_diag_log(m, alpha)[m])
    if abs(m - n) == 2:
        lo = min(m, n)
        return -math.exp(gammaln(lo + 3.0) - (lo + 1) * math.log(alpha)) / 2.0
    return 0.0


def first_scaled_rows(a: np.ndarray, alpha: float) -> np.ndarray:
    """Rows a_k sqrt(<q^k, q^k>), formed in log space (the diagonal
    overflows long before the rows become negligible)."""
    mags = row_norms(a)
    keep = mags > 0.0
    out = np.zeros_like(a)
    diag = first_diag_log(a.shape[0] - 1, alpha)
    out[keep] = a[keep] / mags[keep, None] \
        * np.exp(np.log(mags[keep]) + 0.5 * diag[keep])[:, None]
    return out


def first_norm2(a: np.ndarray, alpha: float) -> float:
    """First-kind norm at p = 2 from the closed-form Gram matrix."""
    s = first_scaled_rows(a, alpha)
    return math.sqrt(float(np.sum(s * (first_gram_scaled(a.shape[0] - 1) @ s))))


def first_best2(a: np.ndarray, n: int, alpha: float) -> float:
    """Best degree-n approximation error in the first-kind p = 2 norm:
    the Schur complement of the closed-form Gram matrix."""
    d = max(a.shape[0] - 1, n + 2)
    full = np.zeros((d + 1, 4))
    full[: a.shape[0]] = a
    s = first_scaled_rows(full, alpha)
    g = first_gram_scaled(d)
    head, tail = slice(0, n + 1), slice(n + 1, d + 1)
    cross = g[head, tail] @ s[tail]
    corr = np.linalg.solve(g[head, head], cross)
    err_sq = float(np.sum(s[tail] * (g[tail, tail] @ s[tail]))) \
        - float(np.sum(cross * corr))
    return math.sqrt(max(err_sq, 0.0))


def _sphere_power_mean(amp_sq: np.ndarray, wnorm: np.ndarray, p: float) -> np.ndarray:
    """int over the unit sphere of (A + u.w)^(p/2) d sigma, in closed form:
    2 pi int_{-1}^{1} (A + |w| t)^(p/2) dt."""
    e = p / 2.0 + 1.0
    a = np.maximum(amp_sq, 1e-300)
    c = np.clip(wnorm / a, 0.0, 1.0)
    small = c < 1e-3
    cs = np.where(small, 1.0, c)
    exact = ((1.0 + cs) ** e - (1.0 - cs) ** e) / (e * cs)
    h = p / 2.0
    series = 2.0 * (1.0 + h * (h - 1.0) * c * c / 6.0
                    + h * (h - 1.0) * (h - 2.0) * (h - 3.0) * c ** 4 / 120.0)
    return 2.0 * math.pi * a ** h * np.where(small, series, exact)


def first_norm(a: np.ndarray, p: float, alpha: float) -> float:
    """First-kind norm ((alpha p / 2 pi)^2 int_H (|f| e^{-alpha|q|^2/2})^p)^(1/p).

    On q = x + u y the representation formula gives f = A0 + u B0 with A0, B0
    read off the i-plane at x +- i y, so |f|^2 = A + u.w is affine in u and
    the sphere integral is closed-form; the (radius, angle) integral uses
    generalized Gauss-Laguerre x Gauss-Legendre nodes.
    """
    scale = alpha * p / 2.0
    n_radial, n_polar = VOLUME_NODES
    s, w = roots_genlaguerre(n_radial, 1.0)
    rho = np.sqrt(s / scale)
    x, wt = roots_legendre(n_polar)
    t = 0.5 * math.pi * (x + 1.0)
    wt = 0.5 * math.pi * wt * np.sin(t) ** 2
    z = np.outer(rho, np.exp(1j * t)).ravel()
    unit_i = (1.0, 0.0, 0.0)
    fa = plane_values(a, unit_i, z)
    fb = plane_values(a, unit_i, np.conj(z))
    i_row = np.array([0.0, 1.0, 0.0, 0.0])
    a0 = 0.5 * (fa + fb)
    b0 = -qmul(i_row, 0.5 * (fa - fb))
    amp_sq = np.sum(a0 * a0, axis=1) + np.sum(b0 * b0, axis=1)
    conj_a0 = a0 * np.array([1.0, -1.0, -1.0, -1.0])
    wvec = np.stack([2.0 * qmul(conj_a0, qmul(e, b0))[:, 0]
                     for e in np.eye(4)[1:]], axis=1)
    sph = _sphere_power_mean(amp_sq, np.linalg.norm(wvec, axis=1), p)
    sph = sph.reshape(rho.size, t.size) @ wt
    raw = float(np.dot(w, sph)) / (2.0 * scale * scale)
    return ((alpha * p / (2.0 * math.pi)) ** 2 * raw) ** (1.0 / p)


# ---------------------------------------------------------------------------
# multipliers

def fejer_rho(n: int) -> np.ndarray:
    return 1.0 - np.arange(n) / n


def vdp_rho(n: int) -> np.ndarray:
    k = np.arange(2 * n)
    return np.where(k <= n, 1.0, 2.0 - k / n)


def jackson_r(m: int, p: float) -> int:
    return math.ceil((p * (m + 1) + 2.0) / 2.0 - 1e-12)


def jackson_coeffs(n: int, r: int) -> np.ndarray:
    """Exact Fourier coefficients c_{-d..d} of (sin(nt/2)/sin(t/2))^(2r),
    the r-fold self-convolution of the Fejer triangle n - |k|."""
    tri = n - np.abs(np.arange(-(n - 1), n)).astype(float)
    out = np.array([1.0])
    for _ in range(r):
        out = np.convolve(out, tri)
    return out


def jackson_tau(n: int, m: int, p: float) -> np.ndarray:
    """tau_j = -sum_{k=1}^{m+1} (-1)^k C(m+1, k) c_{jk} / c_0, j = 0..r(n-1)."""
    r = jackson_r(m, p)
    c = jackson_coeffs(n, r)
    deg = r * (n - 1)
    mid = deg
    tau = np.zeros(deg + 1)
    for k in range(1, m + 2):
        idx = np.arange(deg + 1) * k
        ok = idx <= deg
        mom = np.zeros(deg + 1)
        mom[ok] = c[mid + idx[ok]] / c[mid]
        tau += -((-1.0) ** k) * math.comb(m + 1, k) * mom
    return tau


def moment_bound(n: int, m: int, p: float, nodes: int = 800) -> float:
    """int (n|t| + 1)^{(m+1)p} K_{n,r}(t) dt by Gauss-Legendre on [0, pi]
    against the exact cosine expansion of the kernel."""
    r = jackson_r(m, p)
    c = jackson_coeffs(n, r)
    deg = r * (n - 1)
    x, w = roots_legendre(nodes)
    t = 0.5 * math.pi * (x + 1.0)
    w = 0.5 * math.pi * w
    k = np.arange(1, deg + 1)
    kern = (c[deg] + 2.0 * np.cos(np.outer(t, k)) @ c[deg + 1:]) / (2.0 * math.pi * c[deg])
    return 2.0 * float(np.dot(w, (n * t + 1.0) ** ((m + 1) * p) * kern))


# ---------------------------------------------------------------------------
# moduli and growth

def rotated_rows(a: np.ndarray, k: int, h: float, unit) -> np.ndarray:
    """Rows (e^{I j h} - 1)^k a_j of the k-th rotational difference."""
    w = (np.exp(1j * h * np.arange(a.shape[0])) - 1.0) ** k
    i_row = np.array([0.0, *unit])
    return w.real[:, None] * a + w.imag[:, None] * qmul(i_row, a)


def modulus(a: np.ndarray, k: int, delta: float, p: float, alpha: float,
            unit, h_grid: int) -> float:
    """max over the h_grid uniform steps in (0, delta] of the raw weighted
    L^p size of the k-th difference (closed form at p = 2)."""
    best = 0.0
    for h in np.linspace(0.0, delta, h_grid)[1:]:
        diff = rotated_rows(a, k, float(h), unit)
        if p == 2.0:
            raw = math.pi / alpha * parseval_sq(diff, alpha)
        else:
            raw = plane_raw(diff, unit, p, alpha)
        best = max(best, raw ** (1.0 / p))
    return best


def order_fit(radii: np.ndarray, logm: np.ndarray) -> tuple[float, float | None]:
    """Least-squares slope of log log M against log r on the outer half, and
    the median type when the order is within 0.1 of 2."""
    half = len(radii) // 2
    x = np.log(radii[half:])
    y = np.log(logm[half:])
    slope = float(np.polyfit(x, y, 1)[0])
    sigma = float(np.median(logm[half:] / radii[half:] ** 2)) \
        if abs(slope - 2.0) <= 0.1 else None
    return slope, sigma


def log_max_modulus(a: np.ndarray, radius: float, n_units: int = 8,
                    n_theta: int = 64) -> float:
    """log max |f| over the library's documented direction sample: the first
    ``n_units`` sphere units times ``n_theta`` angles in [0, pi].  Terms are
    rescaled by their largest magnitude at this radius, so radii up to 1e6
    stay in range."""
    mags = row_norms(a)
    keep = mags > 0.0
    logs = np.full(mags.shape, -np.inf)
    logs[keep] = np.log(mags[keep]) + np.flatnonzero(keep) * math.log(radius)
    top = float(np.max(logs))
    b = np.zeros_like(a)
    b[keep] = a[keep] / mags[keep, None] * np.exp(logs[keep] - top)[:, None]
    ring = np.exp(1j * np.linspace(0.0, math.pi, n_theta))
    best = -math.inf
    for unit in sphere_units(n_units):
        vals = plane_values(b, unit, ring)
        best = max(best, float(np.log(np.max(np.sqrt(np.sum(vals * vals, axis=1))))))
    return top + best


# ---------------------------------------------------------------------------
# kernel-section fits

def left_matrix(q: np.ndarray) -> np.ndarray:
    """4x4 matrix L with L @ b = q b."""
    return np.stack([qmul(q, e) for e in np.eye(4)], axis=1)


def section_fit_residual(a: np.ndarray, centers: np.ndarray, alpha: float,
                         degree: int = 60) -> float:
    """min over b of the plane Hilbert distance from f to sum_i s_i b_i, the
    section s_i having rows alpha^k conj(c_i)^k / k!; solved as a weighted
    real least-squares problem (SVD), not through normal equations."""
    full = np.zeros((degree + 1, 4))
    m = min(a.shape[0], degree + 1)
    full[:m] = a[:m]
    k = np.arange(degree + 1)
    sw = np.exp(0.5 * (gammaln(k + 1.0) - k * math.log(alpha)))
    cols = []
    for c in centers:
        conj = np.asarray(c, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])
        rows = np.zeros((degree + 1, 4))
        acc = np.array([1.0, 0.0, 0.0, 0.0])
        for j in range(degree + 1):
            rows[j] = acc
            acc = qmul(acc, conj) * (alpha / (j + 1))
        cols.append(np.concatenate([sw[j] * left_matrix(rows[j]) for j in range(degree + 1)]))
    mat = np.hstack(cols)
    target = (sw[:, None] * full).ravel()
    sol, *_ = np.linalg.lstsq(mat, target, rcond=None)
    return float(np.linalg.norm(mat @ sol - target))
