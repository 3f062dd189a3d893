"""Quaternion arithmetic, the imaginary unit sphere, and trigonometric form.

A quaternion q = w + x i + y j + z k is stored as the real 4-tuple
(w, x, y, z), w being the real part.  Unit purely imaginary quaternions
(points of the imaginary sphere) pick out complex planes: every non-real q
lies in the plane spanned by 1 and its own axis and can be written
q = r (cos a + u sin a) with r = |q| and a in (0, pi).  Real q get the angle
0 or pi and, by convention, the first canonical unit as axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Components of unit imaginary quaternions must square-sum to 1 within this.
UNIT_TOL = 1e-14
#: Two imaginary units count as perpendicular when their dot product is below this.
ORTHO_TOL = 1e-12

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Value in the quaternion algebra, components (w, x, y, z)."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        # keep components plain floats so reprs round-trip
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.w * other.w - self.x * other.x - self.y * other.y - self.z * other.z,
                self.w * other.x + self.x * other.w + self.y * other.z - self.z * other.y,
                self.w * other.y - self.x * other.z + self.y * other.w + self.z * other.x,
                self.w * other.z + self.x * other.y - self.y * other.x + self.z * other.w,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)

    __abs__ = norm

    def imag_norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    def is_real(self) -> bool:
        return self.x == 0.0 and self.y == 0.0 and self.z == 0.0

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Quaternion":
        w, x, y, z = (float(c) for c in a)
        return Quaternion(w, x, y, z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p q.  The norm is multiplicative: |p q| = |p| |q|."""
    return p * q


@dataclass(frozen=True, slots=True)
class ImaginaryUnit:
    """Unit purely imaginary quaternion x i + y j + z k, a point of the
    imaginary sphere.  As a quaternion it squares to -1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        s = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(s - 1.0) > 1e2 * UNIT_TOL:
            raise ValueError(f"imaginary unit must have unit length, got |v|^2 = {s!r}")

    @staticmethod
    def from_vector(v) -> "ImaginaryUnit":
        """Normalize an arbitrary nonzero finite 3-vector onto the sphere."""
        x, y, z = (float(c) for c in v)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"vector components must be finite, got {(x, y, z)!r}")
        m = max(abs(x), abs(y), abs(z))
        if m == 0.0:
            raise ValueError("cannot normalize the zero vector")
        x, y, z = x / m, y / m, z / m           # tiny vectors: no underflow
        n = math.sqrt(x * x + y * y + z * z)
        return ImaginaryUnit(x / n, y / n, z / n)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def dot(self, other: "ImaginaryUnit") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


UNIT_I = ImaginaryUnit(1.0, 0.0, 0.0)
UNIT_J = ImaginaryUnit(0.0, 1.0, 0.0)
UNIT_K = ImaginaryUnit(0.0, 0.0, 1.0)

#: Axis assigned to real quaternions, mirroring the arbitrary-but-fixed choice.
DEFAULT_UNIT = UNIT_I


def slice_unit(q: Quaternion) -> tuple[ImaginaryUnit, bool]:
    """Axis of the complex plane containing q.

    Returns ``(unit, on_real_axis)``.  For non-real q the unit is
    Im(q)/|Im(q)| and the flag is False.  Real quaternions belong to every
    plane; they get ``DEFAULT_UNIT`` and the flag True.
    """
    if q.is_real():
        return DEFAULT_UNIT, True
    return ImaginaryUnit.from_vector((q.x, q.y, q.z)), False


@dataclass(frozen=True, slots=True)
class TrigForm:
    """Polar data of a nonzero quaternion: q = r (cos a + unit sin a)."""

    r: float
    a: float
    unit: ImaginaryUnit
    real_axis: bool = False

    def reconstruct(self) -> Quaternion:
        c = self.r * math.cos(self.a)
        s = self.r * math.sin(self.a)
        return Quaternion(c, s * self.unit.x, s * self.unit.y, s * self.unit.z)


def trig_form(q: Quaternion) -> TrigForm:
    """Trigonometric form of q != 0.

    The angle is atan2(|Im q|, Re q), which lies in (0, pi) for non-real q
    and equals 0 or pi on the real axis (positive or negative reals).  The
    zero quaternion has no trigonometric form and raises ValueError.
    """
    r = q.norm()
    if r == 0.0:
        raise ValueError("no trigonometric form: q = 0")
    unit, real_axis = slice_unit(q)
    a = math.atan2(q.imag_norm(), q.w)
    return TrigForm(r, a, unit, real_axis)


def slice_exp(unit: ImaginaryUnit, t: float) -> Quaternion:
    """cos(t) + unit sin(t); satisfies slice_exp(u, t)^k = slice_exp(u, k t)."""
    c, s = math.cos(t), math.sin(t)
    return Quaternion(c, s * unit.x, s * unit.y, s * unit.z)


def perpendicular_unit(unit: ImaginaryUnit) -> ImaginaryUnit:
    """Deterministic unit perpendicular to ``unit`` (for splitting bases).

    Starts from the canonical axis least aligned with ``unit`` and removes
    the parallel component.
    """
    v = unit.vector()
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    w = axis - np.dot(axis, v) * v
    return ImaginaryUnit.from_vector(w)


def sphere_grid(m: int) -> tuple[ImaginaryUnit, ...]:
    """m approximately equidistributed imaginary units.

    The first three entries are always i, j, k (all three once m >= 3); the
    remainder follow the deterministic Fibonacci spiral, so the layout is
    reproducible.
    """
    if m < 1:
        raise ValueError("need at least one sphere point")
    base = (UNIT_I, UNIT_J, UNIT_K)[:min(m, 3)]
    extra = []
    n_extra = m - len(base)
    for t in range(n_extra):
        z = 1.0 - (2.0 * t + 1.0) / n_extra
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        phi = _GOLDEN_ANGLE * (t + 1)
        extra.append(ImaginaryUnit.from_vector((rho * math.cos(phi), rho * math.sin(phi), z)))
    return base + tuple(extra)


def units_array(units) -> np.ndarray:
    """Stack imaginary units into an (m, 3) float array."""
    return np.array([[u.x, u.y, u.z] for u in units], dtype=float)


# Array kernels used by the vectorized evaluators; components on the last axis.

def quat_mul_array(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of (..., 4) arrays, broadcasting like elementwise ops."""
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def quat_conj_array(p: np.ndarray) -> np.ndarray:
    out = np.array(p, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def left_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix L with L @ vec(p) = vec(q p)."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ], dtype=float)
