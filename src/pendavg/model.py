"""Planar double-pendulum model layer.

Physical constants, the small-angle reduction to dimensionless constants
(a, b) and time scale α, spectral data of the linearization, the real
block-rotation normal form and the two unperturbed periodic-orbit
families.  The package models the pendulum through this reduction alone:
the system it checks is truncated at order ε.

States are length-4 sequences of floats.  Two frames are used throughout:

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
from typing import NamedTuple, Tuple

from .errors import DomainError, NumericalError, ResonanceError

RESONANCE_TOL = 1e-8


class PhysicalParams:
    """Masses, arm lengths and gravity of the physical pendulum."""

    __slots__ = ("m1", "m2", "l1", "l2", "g")

    def __init__(self, m1: float, m2: float, l1: float, l2: float, g: float):
        for name, value in zip(self.__slots__, (m1, m2, l1, l2, g)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"physical parameter {name!r} must be a positive real, got {value!r}")
            setattr(self, name, value)


class ReducedParams(NamedTuple):
    """Dimensionless constants a > 1, b > 0 and the time scale α > 0, as
    :func:`reduce_params` builds and checks them."""

    a: float
    b: float
    alpha: float


class SpectralData(NamedTuple):
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


Matrix4 = Tuple[Tuple[float, float, float, float], ...]


class JordanTransform(NamedTuple):
    """Linear change of variables between physical and normal-form frames.

    ``forward`` maps (x, y, z, w) to (X, Y, Z, W) and ``inverse`` maps
    back, each a 4×4 matrix as a tuple of rows.
    """

    forward: Matrix4
    inverse: Matrix4


def reduce_params(p: PhysicalParams) -> ReducedParams:
    """Collapse the five physical constants to (a, b, α); DomainError naming
    them unless a, b and α come out finite and positive in floating point,
    and DomainError unless a = 1 + m₁/m₂ rounds above 1."""
    try:
        a = (p.m1 + p.m2) / p.m2
        b = p.l1 * (p.m1 + p.m2) / (p.l2 * p.m2)
        alpha = math.sqrt(p.l1 * p.m1 / (p.g * p.m2))
    except ZeroDivisionError:  # l2·m2 or g·m2 underflows to 0
        a = b = alpha = math.nan
    if not all(0.0 < v < math.inf for v in (a, b, alpha)):
        raise DomainError(f"physical parameters out of range: m1 = {p.m1!r}, m2 = {p.m2!r}, l1 = {p.l1!r}, "
                          f"l2 = {p.l2!r}, g = {p.g!r} give no finite positive reduced a, b and alpha "
                          "in floating point")
    if not a > 1:  # m₁/m₂ below half an ulp of 1
        raise DomainError(f"reduced parameter a must exceed 1, got {a!r}")
    return ReducedParams(a=a, b=b, alpha=alpha)


def spectral_data(r: ReducedParams) -> SpectralData:
    """Frequencies ω₁ < ω₂ of the linearization and their periods; DomainError
    unless Δ, ω₁ and ω₂ come out finite and positive in floating point."""
    try:
        delta = (r.a - r.b) ** 2 + 4.0 * r.b
        root = math.sqrt(delta)
        omega1 = math.sqrt((r.a + r.b - root) / 2.0)
        omega2 = math.sqrt((r.a + r.b + root) / 2.0)
    except (OverflowError, ValueError):  # (a − b)² overflows, or ω₁² cancels below zero
        delta = omega1 = omega2 = math.nan
    if not all(0.0 < v < math.inf for v in (delta, omega1, omega2)):
        raise DomainError(f"physical parameters out of range: the reduced a = {r.a!r}, b = {r.b!r} "
                          "give no finite positive Δ, ω₁ and ω₂ in floating point")
    return SpectralData(
        delta=delta,
        omega1=omega1,
        omega2=omega2,
        period1=2.0 * math.pi / omega1,
        period2=2.0 * math.pi / omega2,
    )


def jordan_transform(r: ReducedParams, s: SpectralData) -> JordanTransform:
    """Build the block-rotation normal-form change of variables.

    The forward matrix conjugates the linearization into
    diag([[0, ω₁], [−ω₁, 0]], [[0, ω₂], [−ω₂, 0]]).  Its rows 0 and 2 use
    columns 0 and 2 only, and rows 1 and 3 columns 1 and 3, so its inverse
    is two 2×2 inverses, of determinants b·ω₁ω₂/√Δ and b/√Δ.
    """
    a, b = r.a, r.b
    rd = math.sqrt(s.delta)
    w1, w2 = s.omega1, s.omega2
    forward = (
        (b * w1 / rd, 0.0, w1 * (a - b + rd) / (2.0 * rd), 0.0),
        (0.0, b / rd, 0.0, (a - b + rd) / (2.0 * rd)),
        (-b * w2 / rd, 0.0, w2 * (-a + b + rd) / (2.0 * rd), 0.0),
        (0.0, -b / rd, 0.0, (-a + b + rd) / (2.0 * rd)),
    )
    blocks = ((0, 2), (1, 3))
    dets = [forward[i][i] * forward[j][j] - forward[i][j] * forward[j][i] for i, j in blocks]
    # Bounded away from zero for a > 1, b > 0; guard anyway.
    if not abs(dets[0] * dets[1]) >= 1e-14:
        raise NumericalError("normal-form transform is numerically singular")
    inverse = [[0.0] * 4 for _ in range(4)]
    for (i, j), det in zip(blocks, dets):
        inverse[i][i], inverse[i][j] = forward[j][j] / det, -forward[i][j] / det
        inverse[j][i], inverse[j][j] = -forward[j][i] / det, forward[i][i] / det
    return JordanTransform(forward=forward, inverse=tuple(map(tuple, inverse)))


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
    # M(t) turns the transverse plane by ω·t, ω its frequency, so the block
    # is I − M(pT)⁻¹ = [[1 − c, s], [−s, 1 − c]] with c, s the cosine and
    # sine of ω·pT, and its determinant is 2 − 2c.
    other = s.omega2 if family == 1 else s.omega1
    angle = other * (p * s.period(family))
    c, sn = math.cos(angle), math.sin(angle)
    block = ((1.0 - c, sn), (-sn, 1.0 - c))
    det = 2.0 - 2.0 * c
    if abs(det) < RESONANCE_TOL:
        ratio = s.omega2 / s.omega1 if family == 1 else s.omega1 / s.omega2
        raise ResonanceError(
            "degenerate transverse monodromy block: "
            f"4·sin²(p·π·{ratio:.6g}) = {det:.3e} below tolerance {RESONANCE_TOL:g}"
        )
    return block, det
