"""Reproducing-kernel sections of the plane Hilbert space and least-squares
fits with finite families of them.

The section centered at q0 is the series r -> sum_k alpha^k r^k conj(q0)^k / k!,
the slice exponential of alpha r conj(q0); on a common plane with real data
it collapses to e^{alpha r q0}.  Finite right-linear combinations of sections
are dense, which the fit routine probes at small scale: appending centers can
only lower the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrandOverflowError
from .quaternion import Quaternion, left_mult_matrix
from .series import ExpGenerator, SliceSeries, _check_certified, evaluate, extended
from .spaces import NORM_TAIL_BUDGET, _check_positive, _parseval_log_terms, _parseval_terms
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


def fit_with_sections(f: SliceSeries, centers, alpha: float) -> SectionFit:
    """Minimize the plane Hilbert distance from f to right combinations
    sum_i section(q_i) b_i (p = 2), the same on every plane: row k of
    section(q_i) b_i is L(s_ik) b_i, so this is one least-squares solve
    against the design sqrt(k! / alpha^k) L(s_ik).  Clustered centers make
    it genuinely ill-conditioned, and past ``COND_LIMIT`` it raises
    :class:`ConditioningError`.  Appending centers cannot raise the residual.
    The degree is the largest that f's and the sections' Parseval
    certificates reach (:func:`slicefock.spaces._parseval_terms`), each
    tail below ``PARSEVAL_TAIL_TOL`` of its sum, or, where the degree cap
    stops a certificate, below ``NORM_TAIL_BUDGET``.  Every row is formed
    from the series' log-polar rows, dir_k e^{log |a_k| + log sqrt(k! /
    alpha^k)}, so no factor leaves the float range before the product does
    and a generator row stored below it keeps its closed-form size.
    """
    _check_positive("weight parameter alpha", alpha)
    centers = list(centers)
    if not centers:
        raise ValueError("need at least one center")
    if len(set((c.w, c.x, c.y, c.z) for c in centers)) != len(centers):
        raise ValueError("centers must be distinct")
    sections = [kernel_section(c, alpha) for c in centers]
    # the degree at which every Parseval tail is certified
    terms = [_parseval_terms(g, alpha) for g in (f, *sections)]
    for t in terms:
        _check_certified(t.log_tail, NORM_TAIL_BUDGET, f"alpha = {alpha:g}")
    deg = max(t.series.degree for t in terms)
    half = 0.5 * _parseval_log_terms(0.0, deg + 1, alpha)

    def rows(g):
        """sqrt(k! / alpha^k) a_k for g's rows 0..deg, (deg + 1, 4)."""
        g = extended(g, deg)
        with np.errstate(over="ignore", invalid="ignore"):     # refused below
            return g.directions * np.exp(half + g.log_row_norms)[:, None]

    design = np.einsum("ikc,cab->kaib", np.stack([rows(s) for s in sections]),
                       _LEFT_BASIS).reshape(4 * deg + 4, -1)
    data = rows(f).ravel()
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(data))):
        raise IntegrandOverflowError(
            f"rows a_k sqrt(k!/alpha^k) exceed the float range by degree {deg} "
            f"(alpha = {alpha:g})")
    sol, residual, cond = least_squares(design, data)
    return SectionFit(tuple(Quaternion.from_array(b) for b in sol.reshape(-1, 4)),
                      residual, cond)
