"""Planar double-pendulum model layer.

Physical constants, the small-angle reduction to dimensionless constants
(a, b) and time scale α, spectral data of the linearization, the real
block-rotation normal form, the two unperturbed periodic-orbit families,
and the full nonlinear accelerations.

States are length-4 float arrays.  Two frames are used throughout:

* physical frame  (x, y, z, w) = (θ₁, θ₁′, θ₂, θ₂′), primes are d/dτ;
* normal-form frame (X, Y, Z, W), where the linear flow is a pair of
  planar rotations with angular frequencies ω₁ < ω₂.

The linearization in the physical frame is

    A = [[0, 1, 0, 0], [−a, 0, 1, 0], [0, 0, 0, 1], [b, 0, −b, 0]]

with eigenvalues ±iω₁, ±iω₂ where ω₁,₂² = (a + b ∓ √Δ)/2 and
Δ = (a − b)² + 4b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ResonanceError

__all__ = [
    "PhysicalParams",
    "ReducedParams",
    "SpectralData",
    "JordanTransform",
    "reduce_params",
    "spectral_data",
    "linearization_matrix",
    "jordan_transform",
    "fundamental_matrix",
    "monodromy_lower_block",
    "unperturbed_orbit",
    "nonlinear_accelerations",
]

RESONANCE_TOL = 1e-8


@dataclass(frozen=True)
class PhysicalParams:
    """Masses, arm lengths and gravity of the physical pendulum."""

    m1: float
    m2: float
    l1: float
    l2: float
    g: float

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "g"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"physical parameter {name!r} must be a positive real, got {value!r}")


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless constants a > 1, b > 0 and the time scale α > 0."""

    a: float
    b: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 1):
            raise DomainError(f"reduced parameter a must exceed 1, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise DomainError(f"reduced parameter b must be positive, got {self.b!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"time scale alpha must be positive, got {self.alpha!r}")


@dataclass(frozen=True)
class SpectralData:
    """Frequencies and periods of the two rotation planes, Δ = (a−b)² + 4b."""

    delta: float
    omega1: float
    omega2: float
    period1: float
    period2: float

    def omega(self, family):
        return self.omega1 if family == 1 else self.omega2

    def period(self, family):
        return self.period1 if family == 1 else self.period2


@dataclass(frozen=True, eq=False)
class JordanTransform:
    """Linear change of variables between physical and normal-form frames.

    ``forward`` maps (x, y, z, w) to (X, Y, Z, W); ``inverse`` is its
    numerically computed and verified inverse.
    """

    forward: np.ndarray
    inverse: np.ndarray


def reduce_params(p: PhysicalParams) -> ReducedParams:
    """Collapse the five physical constants to (a, b, α)."""
    a = (p.m1 + p.m2) / p.m2
    b = p.l1 * (p.m1 + p.m2) / (p.l2 * p.m2)
    alpha = math.sqrt(p.l1 * p.m1 / (p.g * p.m2))
    return ReducedParams(a=a, b=b, alpha=alpha)


def spectral_data(r: ReducedParams) -> SpectralData:
    """Frequencies ω₁ < ω₂ of the linearization and their periods."""
    delta = (r.a - r.b) ** 2 + 4.0 * r.b
    root = math.sqrt(delta)
    omega1 = math.sqrt((r.a + r.b - root) / 2.0)
    omega2 = math.sqrt((r.a + r.b + root) / 2.0)
    return SpectralData(
        delta=delta,
        omega1=omega1,
        omega2=omega2,
        period1=2.0 * math.pi / omega1,
        period2=2.0 * math.pi / omega2,
    )


def linearization_matrix(r: ReducedParams) -> np.ndarray:
    """State matrix of the reduced linear system in the physical frame."""
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-r.a, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [r.b, 0.0, -r.b, 0.0],
        ]
    )


def jordan_transform(r: ReducedParams, s: SpectralData) -> JordanTransform:
    """Build the block-rotation normal-form change of variables.

    The forward matrix conjugates the linearization into
    diag([[0, ω₁], [−ω₁, 0]], [[0, ω₂], [−ω₂, 0]]); the inverse is computed
    numerically and checked against the identity.
    """
    a, b = r.a, r.b
    rd = math.sqrt(s.delta)
    w1, w2 = s.omega1, s.omega2
    forward = np.array(
        [
            [b * w1 / rd, 0.0, w1 * (a - b + rd) / (2.0 * rd), 0.0],
            [0.0, b / rd, 0.0, (a - b + rd) / (2.0 * rd)],
            [-b * w2 / rd, 0.0, w2 * (-a + b + rd) / (2.0 * rd), 0.0],
            [0.0, -b / rd, 0.0, (-a + b + rd) / (2.0 * rd)],
        ]
    )
    # Determinant is bounded away from zero for a > 1, b > 0; guard anyway.
    if abs(np.linalg.det(forward)) < 1e-14:
        raise NumericalError("normal-form transform is numerically singular")
    inverse = np.linalg.inv(forward)
    if not np.allclose(forward @ inverse, np.eye(4), atol=1e-12):
        raise NumericalError("normal-form transform inverse failed the identity check")
    return JordanTransform(forward=forward, inverse=inverse)


def fundamental_matrix(s: SpectralData, tau: float) -> np.ndarray:
    """Fundamental solution of the normal-form linear system, M(0) = I."""
    m = np.zeros((4, 4))
    for k, w in ((0, s.omega1), (2, s.omega2)):
        c, sn = math.cos(w * tau), math.sin(w * tau)
        m[k, k] = c
        m[k, k + 1] = sn
        m[k + 1, k] = -sn
        m[k + 1, k + 1] = c
    return m


def monodromy_lower_block(s: SpectralData, p: int, family: int = 1):
    """Transverse block of M⁻¹(0) − M⁻¹(p·T_family) and its determinant.

    For family 1 this is the lower-right 2×2 block, with determinant
    4 sin²(pπω₂/ω₁); for family 2 the upper-left block, with ω₁/ω₂ in the
    sine.  A determinant below ``RESONANCE_TOL`` means the frequency ratio
    is (numerically) resonant and the continuation argument degenerates.
    """
    if p < 1 or int(p) != p:
        raise DomainError(f"traversal count p must be a positive integer, got {p!r}")
    if family not in (1, 2):
        raise DomainError(f"family must be 1 or 2, got {family!r}")
    period = s.period(family)
    diff = np.linalg.inv(fundamental_matrix(s, 0.0)) - np.linalg.inv(fundamental_matrix(s, p * period))
    sl = slice(2, 4) if family == 1 else slice(0, 2)
    block = diff[sl, sl]
    det = float(np.linalg.det(block))
    if abs(det) < RESONANCE_TOL:
        ratio = s.omega2 / s.omega1 if family == 1 else s.omega1 / s.omega2
        raise ResonanceError(
            "degenerate transverse monodromy block: "
            f"4·sin²(p·π·{ratio:.6g}) = {det:.3e} below tolerance {RESONANCE_TOL:g}",
            determinant=det,
        )
    return block, det


def unperturbed_orbit(family: int, amp, tau, s: SpectralData) -> np.ndarray:
    """Normal-form state of the family-1 or family-2 periodic orbit.

    Family 1: (X, Y) = (X₀cos ω₁τ + Y₀sin ω₁τ, Y₀cos ω₁τ − X₀sin ω₁τ),
    Z = W = 0.  Family 2 is the analogue in the (Z, W) plane with ω₂.
    Accepts scalar or array ``tau``; returns shape (4,) or (4, n).
    """
    if family not in (1, 2):
        raise DomainError(f"family must be 1 or 2, got {family!r}")
    u0, v0 = float(amp[0]), float(amp[1])
    tau = np.asarray(tau, dtype=float)
    w = s.omega(family)
    c, sn = np.cos(w * tau), np.sin(w * tau)
    u = u0 * c + v0 * sn
    v = v0 * c - u0 * sn
    zero = np.zeros_like(u)
    if family == 1:
        return np.stack([u, v, zero, zero])
    return np.stack([zero, zero, u, v])


def nonlinear_accelerations(p: PhysicalParams, phi1, dphi1, phi2, dphi2):
    """Angular accelerations of the full nonlinear pendulum.

    Solves the 2×2 linear system in (φ̈₁, φ̈₂):

        (m₁+m₂)l₁φ̈₁ + m₂l₂φ̈₂cos(φ₁−φ₂) + (m₁+m₂)g sin φ₁
                     + m₂l₂φ̇₂² sin(φ₁−φ₂) = 0,
        m₂l₁φ̈₁cos(φ₁−φ₂) + m₂l₂φ̈₂ + m₂g sin φ₂
                     − m₂l₁φ̇₁² sin(φ₁−φ₂) = 0.

    These are the Euler–Lagrange equations of the point-mass double
    pendulum divided by l₁ and l₂, so the motion conserves the energy
    ½(m₁+m₂)l₁²φ̇₁² + ½m₂l₂²φ̇₂² + m₂l₁l₂φ̇₁φ̇₂cos(φ₁−φ₂)
    − (m₁+m₂)gl₁cos φ₁ − m₂gl₂cos φ₂.  The mass matrix has determinant
    m₂l₁l₂(m₁ + m₂sin²(φ₁−φ₂)) > 0, so the system is always solvable.
    """
    c = math.cos(phi1 - phi2)
    sn = math.sin(phi1 - phi2)
    m11 = (p.m1 + p.m2) * p.l1
    m12 = p.m2 * p.l2 * c
    m21 = p.m2 * p.l1 * c
    m22 = p.m2 * p.l2
    r1 = -(p.m1 + p.m2) * p.g * math.sin(phi1) - p.m2 * p.l2 * dphi2 * dphi2 * sn
    r2 = -p.m2 * p.g * math.sin(phi2) + p.m2 * p.l1 * dphi1 * dphi1 * sn
    det = m11 * m22 - m12 * m21
    dd1 = (r1 * m22 - m12 * r2) / det
    dd2 = (m11 * r2 - r1 * m21) / det
    return dd1, dd2
