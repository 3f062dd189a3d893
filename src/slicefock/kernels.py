"""Reproducing-kernel sections of the plane Hilbert space and least-squares
fits with finite families of them.

The section centered at q0 is the series r -> sum_k alpha^k r^k conj(q0)^k / k!,
the slice exponential of alpha r conj(q0); on a common plane with real data
it collapses to e^{alpha r q0}.  Finite right-linear combinations of sections
are dense, which the fit routine probes at small scale: appending centers can
only lower the residual.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IntegrandOverflowError
from .quaternion import Quaternion, left_mult_matrix
from .series import ExpGenerator, SliceSeries, evaluate, extended
from .spaces import (
    ParsevalTerms,
    _check_positive,
    _check_tail_budget,
    _log_sum,
    _parseval_log_terms,
    _parseval_terms,
    _relative,
)
from .approx import least_squares


#: L(e_c) for the basis quaternions e_c, so that L(q) = sum_c q_c L(e_c).
_LEFT_BASIS = np.stack([left_mult_matrix(Quaternion.from_array(e))
                        for e in np.eye(4)])


def kernel_section(q0: Quaternion, alpha: float, degree: int = 24) -> SliceSeries:
    """Series of the kernel section centered at q0 with weight alpha: the
    exponential generator with c = alpha conj(q0)."""
    return ExpGenerator(q0.conjugate().to_array() * float(alpha)).series(degree)


def section_value(q0: Quaternion, alpha: float, r: Quaternion) -> Quaternion:
    """Value of the section at r: sum_k alpha^k r^k conj(q0)^k / k!.

    Reduces to the scalar exponential e^{alpha r q0} when both arguments are
    real, and to the one-plane exponential kernel when they share a plane.
    """
    return evaluate(kernel_section(q0, alpha), r)


@dataclass(frozen=True)
class SectionFit:
    """Least-squares combination of kernel sections."""

    coefficients: tuple[Quaternion, ...]
    residual: float
    condition: float


def _charge_drop(terms: ParsevalTerms, res: np.ndarray, residual: float) -> None:
    """Charge f's rows from k0, which underflowed in storage and so hold 0
    in the fit's data, on its residual as every p = 2 number charges them
    (:func:`slicefock.spaces._check_tail_budget`): their Parseval mass is
    at most W, so they move the squared residual by at most
    2 sqrt(W R_0^2) + W, R_0^2 the residual's own mass on those rows (the
    flattened ``res`` holds four numbers per row)."""
    log_w = terms.log_drop + float(_log_sum(terms.logw))
    near = float(np.sum(np.square(res[4 * terms.k0:])))
    with np.errstate(divide="ignore", invalid="ignore"):   # nan is refused
        log_err = np.logaddexp(math.log(2.0) + 0.5 * (log_w + np.log(near)), log_w)
        log_sq = 2.0 * np.log(residual)
    _check_tail_budget(1.0, _relative(float(log_err), float(log_sq)), 2.0)


def fit_with_sections(f: SliceSeries, centers, alpha: float) -> SectionFit:
    """Minimize the plane Hilbert distance from f to right combinations
    sum_i section(q_i) b_i (p = 2), the same on every plane: row k of
    section(q_i) b_i is L(s_ik) b_i, so this is one least-squares solve
    against the design sqrt(k! / alpha^k) L(s_ik).  Clustered centers make
    it genuinely ill-conditioned, and past ``COND_LIMIT`` it raises
    :class:`ConditioningError`.  Appending centers cannot raise the residual.
    The degree is the largest that f's and the sections' Parseval
    certificates reach (:func:`slicefock.spaces._parseval_terms`); f's
    underflowed rows are charged on the residual (:func:`_charge_drop`),
    while its tail stays below ``PARSEVAL_TAIL_TOL`` of ||f||^2.
    """
    _check_positive("weight parameter alpha", alpha)
    centers = list(centers)
    if not centers:
        raise ValueError("need at least one center")
    if len(set((c.w, c.x, c.y, c.z) for c in centers)) != len(centers):
        raise ValueError("centers must be distinct")
    sections = [kernel_section(c, alpha) for c in centers]
    terms = _parseval_terms(f, alpha)
    # the degree at which every Parseval tail is certified
    deg = max(terms.series.degree,
              *(_parseval_terms(g, alpha).series.degree for g in sections))
    # sqrt(k! / alpha^k) = mant 2^ex, from frexp where it is a float and from
    # its log past that: each row is formed in range and scaled back exactly
    half = 0.5 * _parseval_log_terms(0.0, np.arange(deg + 1), alpha)
    with np.errstate(over="ignore"):
        root = np.exp(half)
    mant, ex = np.frexp(root)
    big = ~np.isfinite(root)
    ex[big] = np.ceil(half[big] / math.log(2.0))
    mant[big] = np.exp(half[big] - ex[big] * math.log(2.0))
    smats = np.stack([extended(s, deg).coeffs for s in sections])   # (N, D+1, 4)
    fe = extended(f, deg)
    coeffs = fe.coeffs
    with np.errstate(over="ignore"):       # refused below
        design = np.ldexp(np.einsum("k,ikc,cab->kaib", mant, smats, _LEFT_BASIS)
                          .reshape(4 * deg + 4, -1), np.repeat(ex, 4)[:, None])
        data = np.ldexp(mant[:, None] * coeffs, ex[:, None])
    # rows stored below the smallest normal float carry few digits: f's are
    # read from its Parseval terms, as every p = 2 number reads them
    mags = fe.row_norms
    sub = np.flatnonzero((mags > 0.0) & (mags < 2.0 * sys.float_info.min))
    sub = sub[sub < terms.logw.size]
    data[sub] = coeffs[sub] / mags[sub, None] * np.exp(0.5 * terms.logw[sub])[:, None]
    data = data.ravel()
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(data))):
        raise IntegrandOverflowError(
            f"rows a_k sqrt(k!/alpha^k) exceed the float range by degree {deg} "
            f"(alpha = {alpha:g})")
    sol, residual, cond = least_squares(design, data)
    if terms.k0 >= 0:
        _charge_drop(terms, design @ sol - data, residual)
    return SectionFit(tuple(Quaternion.from_array(b) for b in sol.reshape(-1, 4)),
                      residual, cond)
