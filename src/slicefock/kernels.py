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
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError
from .quaternion import (
    Quaternion,
    left_mult_matrix,
    quat_conj_array,
    quat_mul_array,
)
from .series import ExpGenerator, SliceSeries, evaluate, extended
from .spaces import _check_positive
from .approx import COND_LIMIT, parseval_log_weights


#: L(e_c) for the basis quaternions e_c, so that L(q) = sum_c q_c L(e_c).
_LEFT_BASIS = np.stack([left_mult_matrix(Quaternion.from_array(e))
                        for e in np.eye(4)])


def kernel_section(q0: Quaternion, alpha: float, degree: int = 24) -> SliceSeries:
    """Series of the kernel section centered at q0 with weight alpha: the
    exponential generator with c = alpha conj(q0)."""
    return ExpGenerator(q0.conjugate().to_array() * float(alpha)).series(degree)


def kernel_eval(q0: Quaternion, alpha: float, r: Quaternion) -> Quaternion:
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
    sum_k section(q_k) b_k (p = 2; the coefficient representation makes the
    problem a finite quaternion least-squares system).

    Clustered centers produce genuinely ill-conditioned Gram matrices; past
    ``COND_LIMIT`` this raises :class:`ConditioningError` rather than
    regularize silently.  The residual can only decrease as centers are
    appended.  The p = 2 value is the same on every plane.
    """
    from scipy.special import gammaln

    _check_positive("weight parameter alpha", alpha)
    centers = list(centers)
    if not centers:
        raise ValueError("need at least one center")
    if len(set((c.w, c.x, c.y, c.z) for c in centers)) != len(centers):
        raise ValueError("centers must be distinct")
    sections = [kernel_section(c, alpha) for c in centers]
    # the degree at which every Parseval tail is certified
    deg = max(parseval_log_weights(g, alpha)[0].degree for g in (*sections, f))
    fe = extended(f, deg)
    smats = np.stack([extended(s, deg).coeffs for s in sections])   # (N, D+1, 4)
    k = np.arange(deg + 1)
    weights = np.exp(gammaln(k + 1.0) - k * math.log(alpha))        # k! / alpha^k

    n = len(centers)
    conj = quat_conj_array(smats)
    # Gram entries sum_k w_k conj(s_i,k) s_j,k as quaternions g_ij, one row
    # i at a time so that memory stays O(n D); the real system acts by left
    # multiplication, block (i, j) being L(g_ij)
    gij = np.stack([np.einsum("k,jkc->jc", weights, quat_mul_array(ci, smats))
                    for ci in conj])
    gram = np.einsum("ijc,cab->iajb", gij, _LEFT_BASIS).reshape(4 * n, 4 * n)
    rhs = np.einsum("k,ikc->ic", weights,
                    quat_mul_array(conj, fe.coeffs[None])).reshape(4 * n)

    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"section Gram matrix nearly singular (cond {cond:.3g}); "
            "centers too clustered", condition=cond)
    sol = np.linalg.solve(gram, rhs)
    coeffs = tuple(Quaternion.from_array(sol[4 * i: 4 * i + 4]) for i in range(n))

    combo = np.sum(quat_mul_array(smats, sol.reshape(n, 1, 4)), axis=0)
    resid_coeffs = fe.coeffs - combo
    resid_sq = float(np.sum(weights * np.sum(resid_coeffs ** 2, axis=1)))
    return SectionFit(coeffs, math.sqrt(max(resid_sq, 0.0)), cond)
