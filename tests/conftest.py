import math
import os
import pathlib

import numpy as np
import pytest

from slicefock.approx import _difference_multipliers
from slicefock.errors import IntegrandOverflowError
from slicefock.quadrature import QuadratureGrid, _check_finite, slice_points, volume_grid
from slicefock.quaternion import ImaginaryUnit, Quaternion, left_mult_matrix
from slicefock.series import SliceSeries, _check_certified, _lift
from slicefock.spaces import (
    PARSEVAL_TAIL_TOL,
    _multipliers,
    _parseval_terms,
    _plane_raw_power,
    _real_multipliers,
    _weighted_plane,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so
    that a child interpreter imports the slicefock under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240517)


def random_quaternion(rng, radius=1.0):
    v = rng.uniform(-1.0, 1.0, size=4)
    return Quaternion(*(radius * v))


def random_unit(rng):
    v = rng.normal(size=3)
    return ImaginaryUnit.from_vector(v)


def random_poly_coeffs(rng, degree, scale=1.0):
    return scale * rng.uniform(-1.0, 1.0, size=(degree + 1, 4))


@pytest.fixture
def make_quaternion(rng):
    return lambda radius=1.0: random_quaternion(rng, radius)


@pytest.fixture
def make_unit(rng):
    return lambda: random_unit(rng)


def parseval_log_weights(f: SliceSeries, alpha: float) -> tuple[SliceSeries, np.ndarray]:
    """f's Parseval certificate held to ``PARSEVAL_TAIL_TOL``: the extended
    series and the log of each term |a_k|^2 k! / alpha^k (log 0 for a
    vanishing row), generator rows stored below the float range counted with
    their closed form; a tail the degree cap leaves above that tolerance is
    refused."""
    fe, logw, log_tail = _parseval_terms(f, alpha)
    _check_certified(log_tail, PARSEVAL_TAIL_TOL, f"alpha = {alpha:g}")
    return fe, logw


def first_kind_gram(n, alpha, grid=None, scaled=False):
    """Quadrature Gram matrix of the monomials q^0..q^n over the whole
    algebra, the oracle of the closed form; with ``scaled``, of the
    monomials q^m sqrt(alpha^m / m!), whose Gram stays finite at any degree.
    On q = x + u y, q^m = Re z^m + u Im z^m, and conj(f) g integrates over
    the sphere to 4 pi (conj(a_f) a_g + conj(b_f) b_g), so the rows
    sqrt(mu) e^{-alpha |z|^2 / 2} (Re z^m; Im z^m) on one plane carry it."""
    from scipy.special import gammaln

    z, wq = slice_points(grid or volume_grid(alpha))
    m = np.arange(n + 1)
    log_size = m * np.log(np.abs(z))[:, None] - 0.5 * alpha * np.abs(z)[:, None] ** 2
    if scaled:
        log_size -= 0.5 * (gammaln(m + 1.0) - m * math.log(alpha))
    root = alpha / math.pi * np.sqrt(4.0 * math.pi * wq)
    vand = np.exp(log_size + 1j * m * np.angle(z)[:, None]) * root[:, None]
    design = np.concatenate([vand.real, vand.imag])
    return design.T @ design


def integrate_slice(g, grid: QuadratureGrid) -> float:
    """Integral over the plane of a scalar field given as g(z) for complex
    z, on a slice-mode grid: the oracle of the plane rule.  The caller
    guarantees Gaussian-like decay matched to ``grid.scale``."""
    if grid.mode != "slice":
        raise ValueError("integrate_slice needs a slice-mode grid")
    z, w = slice_points(grid)
    vals = np.asarray(g(z), dtype=float)
    _check_finite(vals, z)
    return float(np.dot(w, vals))


def difference_series(f: SliceSeries, k: int, h: float,
                      unit: ImaginaryUnit) -> SliceSeries:
    """Coefficients of the k-th rotational difference on the plane of
    ``unit``, a_j -> (e^{I j h} - 1)^k a_j, as a series: the oracle of the
    modulus's multiplier images, refused past the float range
    (:class:`IntegrandOverflowError`)."""
    log_r, sign, theta = _difference_multipliers(k, [h], np.arange(f.coeffs.shape[0]))
    turned = f.coeffs @ left_mult_matrix(unit.as_quaternion()).T
    with np.errstate(over="ignore", invalid="ignore"):
        r = sign[0] * np.exp(log_r[0])
        out = (r * np.cos(theta[0]))[:, None] * f.coeffs + (r * np.sin(theta[0]))[:, None] * turned
    if not np.all(np.isfinite(out)):
        raise IntegrandOverflowError(f"order-{k} difference coefficients overflow")
    return SliceSeries(out)


def four_column_norm(prepared, spec, grid: QuadratureGrid, mult=None,
                     prefactor: bool = True) -> float:
    """The largest one-plane norm of f's multiplier images (``mult`` as
    ``spaces._multiplier_norm`` takes it; f itself without) from the 4 real
    components: row k of an image is sign_k (cos theta_k dir_k + sin theta_k
    u dir_k) of size log |m_k| + log |a_k|, the plane kernel runs on those
    rows, the values Re v + u Im v are lifted (``series._lift``) and the
    amplitude is the size of their 4 components.  The oracle of the
    split-basis grid path."""
    fe = prepared.series
    dirs, log_mags = fe.directions, fe.log_row_norms
    unit = spec.slice_unit
    log_r, sign, theta = _multipliers(
        mult or (lambda k: _real_multipliers(np.ones(k.size))), log_mags.size)
    turned = dirs @ left_mult_matrix(unit.as_quaternion()).T
    raws, exps = [], []
    for lr, sg, t in zip(log_r, sign, theta):
        rows = (sg * np.cos(t))[:, None] * dirs + (sg * np.sin(t))[:, None] * turned
        v, e = _weighted_plane(rows, lr + log_mags, grid, spec.alpha)
        amp = np.sqrt(np.sum(np.square(_lift(v, unit)), axis=-1))
        raws.append(_plane_raw_power(amp, grid, spec.p))
        exps.append(e)
    raw, e = np.array(raws), np.array(exps)
    best = float(np.max(raw * 2.0 ** (spec.p * (e - e.max()))))
    pref = spec.alpha * spec.p / (2.0 * math.pi) if prefactor else 1.0
    return math.ldexp((pref * best) ** (1.0 / spec.p), int(e.max()))
