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

from .errors import TruncationError
from .quaternion import Quaternion, left_mult_matrix
from .series import ExpGenerator, SliceSeries, evaluate, extended
from .spaces import _check_positive, _parseval_log_terms
from .approx import least_squares, parseval_log_weights


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
    """
    _check_positive("weight parameter alpha", alpha)
    centers = list(centers)
    if not centers:
        raise ValueError("need at least one center")
    if len(set((c.w, c.x, c.y, c.z) for c in centers)) != len(centers):
        raise ValueError("centers must be distinct")
    sections = [kernel_section(c, alpha) for c in centers]
    # the degree at which every Parseval tail is certified
    deg = max(parseval_log_weights(g, alpha)[0].degree for g in (*sections, f))
    k = np.arange(deg + 1)
    with np.errstate(over="ignore"):
        root = np.exp(0.5 * _parseval_log_terms(0.0, k, alpha))   # sqrt(k!/alpha^k)
    if not np.all(np.isfinite(root)):
        raise TruncationError(
            f"weights k!/alpha^k overflow by degree {deg} (alpha = {alpha:g})")
    smats = np.stack([extended(s, deg).coeffs for s in sections])   # (N, D+1, 4)
    design = np.einsum("k,ikc,cab->kaib", root, smats, _LEFT_BASIS)
    sol, residual, cond = least_squares(
        design.reshape(4 * deg + 4, -1),
        (root[:, None] * extended(f, deg).coeffs).ravel())
    return SectionFit(tuple(Quaternion.from_array(b) for b in sol.reshape(-1, 4)),
                      residual, cond)
