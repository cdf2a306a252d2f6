"""Averaged bifurcation functions and their simple zeros.

For each orbit family the first-order averaged response of a perturbation
along the unperturbed orbit of amplitude (u₀, v₀) is a pair of integrals
over the resonance window [0, p·T_family]:

    ∫ trig(ωτ)·2√Δ·⟨r, (0, f_y, 0, f_w)⟩ dτ,

with trig = sin for the first component and cos for the second, r the
family's velocity row of the normal-form transform (row Y for family 1,
row W for family 2), and (f_y, f_w) the order-ε forcing of
:func:`~pendavg.perturbation.eval_order1_with_signs` evaluated on the
orbit mapped back to the physical frame.  Written out, 2√Δ·r is
(0, 2b, 0, a−b+√Δ) for family 1 and (0, −2b, 0, −a+b+√Δ) for family 2.
The sgn terms see sgn(x) = sgn(z) = sgn(u(τ)) on family 1 and
sgn(x) = −sgn(z) = −sgn(u(τ)) on family 2, with u(τ) the sgn argument
fixed by the phase convention:

    convention "A": u(τ) = u₀·cos(ωτ) + v₀·sin(ωτ)   (the orbit coordinate),
    convention "B": u(τ) = v₀·cos(ωτ) + u₀·sin(ωτ)   (the swapped variant).

Convention A matches the sign the simulated discontinuity actually sees;
B is kept selectable so the end-to-end residual test can arbitrate.

Quadrature is per-panel Gauss–Legendre with panels split at the sgn
breakpoints, refined by doubling until two successive levels agree.
Writing the sgn argument as c₀·cos(ωτ) + c₁·sin(ωτ), the breakpoints are
τ_k = (atan2(c₁, c₀) + π/2 + kπ)/ω, clipped to the window.
A damped Newton iteration certifies simple zeros; an annulus lattice
search enumerates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError
from .model import (
    JordanTransform,
    ReducedParams,
    SpectralData,
    jordan_transform,
    unperturbed_orbit,
)
from .perturbation import PerturbationSpec, eval_order1_with_signs

__all__ = [
    "BifurcationSystem",
    "QuadraturePartition",
    "ZeroCertificate",
    "NewtonResult",
    "find_sign_changes",
    "averaged_integrand",
    "bifurcation_values",
    "jacobian",
    "newton_zero",
    "annulus_search",
]

GAUSS_ORDER = 16
MAX_REFINE_LEVELS = 12
QUADRATURE_RTOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_RTOL = 1e-9
SIMPLICITY_RTOL = 1e-8
DEDUPE_TOL = 1e-6

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


@dataclass(frozen=True, eq=False)
class BifurcationSystem:
    """Evaluable averaged pair for one perturbation and orbit family."""

    family: int
    spec: PerturbationSpec
    reduced: ReducedParams
    spectral: SpectralData
    sgn_convention: str = "A"

    def __post_init__(self):
        if self.family not in (1, 2):
            raise DomainError(f"family must be 1 or 2, got {self.family!r}")
        if self.spec.family != self.family:
            raise DomainError(
                f"perturbation is attached to family {self.spec.family}, system wants {self.family}"
            )
        if self.sgn_convention not in ("A", "B"):
            raise DomainError(f"sgn_convention must be 'A' or 'B', got {self.sgn_convention!r}")
        self.spec.validate_against(self.spectral)

    @property
    def window(self) -> float:
        return self.spec.p * self.spectral.period(self.family)

    @property
    def omega(self) -> float:
        return self.spectral.omega(self.family)

    @cached_property
    def transform(self) -> JordanTransform:
        return jordan_transform(self.reduced, self.spectral)


@dataclass(frozen=True)
class QuadraturePartition:
    """Zeros of the sgn argument inside the averaging window."""

    breakpoints: Tuple[float, ...]
    window: float

    def panel_edges(self) -> np.ndarray:
        edges = np.concatenate(([0.0], np.asarray(self.breakpoints, dtype=float), [self.window]))
        edges = np.unique(edges)
        return edges[(edges >= 0.0) & (edges <= self.window)]


@dataclass(frozen=True, eq=False)
class ZeroCertificate:
    """A located zero with Jacobian evidence."""

    point: Tuple[float, float]
    value_norm: float
    jacobian: np.ndarray
    det: float
    simple: bool


@dataclass(frozen=True, eq=False)
class NewtonResult:
    """Outcome report of a damped Newton run."""

    converged: bool
    status: str  # "converged" | "no-convergence" | "trivial-basin"
    certificate: Optional[ZeroCertificate]
    point: Tuple[float, float]
    value_norm: float
    iterations: int


def _sgn_coefficients(amp, convention: str):
    """(c₀, c₁) of the sgn argument c₀·cos(ωτ) + c₁·sin(ωτ)."""
    u0, v0 = float(amp[0]), float(amp[1])
    return (u0, v0) if convention == "A" else (v0, u0)


def find_sign_changes(amp, family: int, convention: str, s: SpectralData, p: int) -> QuadraturePartition:
    """Zeros of the convention's sgn argument in [0, p·T_family].

    The argument c₀·cos(ωτ) + c₁·sin(ωτ) vanishes exactly at
    τ_k = (atan2(c₁, c₀) + π/2 + kπ)/ω: 2p zeros in [0, p·T), plus the
    window end when a zero sits on τ = 0.
    """
    if math.hypot(float(amp[0]), float(amp[1])) == 0.0:
        raise DomainError("degenerate amplitude (0, 0) has no sign structure")
    if convention not in ("A", "B"):
        raise DomainError(f"convention must be 'A' or 'B', got {convention!r}")
    omega = s.omega(family)
    window = p * s.period(family)
    c0, c1 = _sgn_coefficients(amp, convention)
    phase = (math.atan2(c1, c0) + 0.5 * math.pi) % math.pi
    breakpoints = [min((phase + k * math.pi) / omega, window) for k in range(2 * p)]
    if phase == 0.0:
        breakpoints.append(window)
    partition = QuadraturePartition(breakpoints=tuple(breakpoints), window=window)

    # Constant sign strictly between consecutive breakpoints.
    edges = partition.panel_edges()
    mids = 0.5 * (edges[:-1] + edges[1:])
    if np.any(c0 * np.cos(omega * mids) + c1 * np.sin(omega * mids) == 0.0):
        raise NumericalError("sign-change partition has a zero at a panel midpoint")
    return partition


def averaged_integrand(sys: BifurcationSystem, amp, tau):
    """Integrand pair of the averaged response at times ``tau``.

    Returns shape (2,) for scalar tau or (2, n) for array tau.
    """
    scalar_input = np.ndim(tau) == 0
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    k = 0 if sys.family == 1 else 2
    inverse, forward = sys.transform.inverse, sys.transform.forward
    state = inverse @ unperturbed_orbit(sys.family, amp, tau, sys.spectral)
    cos_t, sin_t = np.cos(sys.omega * tau), np.sin(sys.omega * tau)
    c0, c1 = _sgn_coefficients(amp, sys.sgn_convention)
    sgn = np.sign(c0 * cos_t + c1 * sin_t)
    f_y, f_w = eval_order1_with_signs(
        sys.spec, tau, state, np.sign(inverse[0, k]) * sgn, np.sign(inverse[2, k]) * sgn
    )
    scale = 2.0 * math.sqrt(sys.spectral.delta)
    bracket = scale * forward[k + 1, 1] * f_y + scale * forward[k + 1, 3] * f_w
    out = np.stack([sin_t * bracket, cos_t * bracket])
    return out[:, 0] if scalar_input else out


def _adaptive_gauss(f: Callable, edges: np.ndarray, rtol: float = QUADRATURE_RTOL,
                    max_levels: int = MAX_REFINE_LEVELS):
    """Composite Gauss–Legendre over fixed panels with doubling refinement.

    ``f`` maps a 1-d array of times to values of shape (..., n).  Stops when
    two successive refinement levels agree to ``rtol`` relative to the
    larger of 1 and the estimate's norm.
    """
    edges = np.asarray(edges, dtype=float)
    prev = None
    for level in range(max_levels + 1):
        sub = 2 ** level
        taus_parts, w_parts = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo <= 0.0:
                continue
            bounds = np.linspace(lo, hi, sub + 1)
            mid = 0.5 * (bounds[:-1] + bounds[1:])
            half = 0.5 * (bounds[1:] - bounds[:-1])
            taus_parts.append((mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]).ravel())
            w_parts.append((half[:, None] * _GAUSS_WEIGHTS[None, :]).ravel())
        taus = np.concatenate(taus_parts)
        weights = np.concatenate(w_parts)
        total = np.asarray(f(taus)) @ weights
        if prev is not None:
            scale = max(1.0, float(np.linalg.norm(total)))
            if float(np.linalg.norm(total - prev)) <= rtol * scale:
                return total
        prev = total
    raise QuadratureError(
        f"panel refinement did not converge to relative {rtol:g} within "
        f"{max_levels} doubling levels"
    )


def bifurcation_values(sys: BifurcationSystem, amp) -> np.ndarray:
    """The averaged pair at amplitude ``amp`` over the resonance window."""
    partition = find_sign_changes(amp, sys.family, sys.sgn_convention, sys.spectral, sys.spec.p)
    f = lambda taus: averaged_integrand(sys, amp, taus)
    return _adaptive_gauss(f, partition.panel_edges())


def jacobian(sys: BifurcationSystem, amp) -> np.ndarray:
    """Central finite-difference Jacobian of the averaged pair at ``amp``."""
    amp = np.asarray(amp, dtype=float)
    h = max(1e-6, 1e-6 * float(np.linalg.norm(amp)))
    jac = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        jac[:, j] = (bifurcation_values(sys, amp + step) - bifurcation_values(sys, amp - step)) / (2.0 * h)
    return jac


def _certificate(sys: BifurcationSystem, amp: np.ndarray, value_norm: float, scale: float) -> ZeroCertificate:
    jac = jacobian(sys, amp)
    det = float(np.linalg.det(jac))
    norm2 = float(amp @ amp)
    simple = (
        norm2 > 0.0
        and value_norm <= NEWTON_RTOL * scale
        and abs(det) > SIMPLICITY_RTOL * scale * scale / norm2
    )
    return ZeroCertificate(
        point=(float(amp[0]), float(amp[1])),
        value_norm=value_norm,
        jacobian=jac,
        det=det,
        simple=simple,
    )


def _default_scale(sys: BifurcationSystem, start: np.ndarray) -> float:
    radius = float(np.linalg.norm(start))
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    best = float(np.linalg.norm(bifurcation_values(sys, start)))
    for ang in angles:
        pt = radius * np.array([math.cos(ang), math.sin(ang)])
        best = max(best, float(np.linalg.norm(bifurcation_values(sys, pt))))
    return best if best > 0.0 else 1.0


def newton_zero(sys: BifurcationSystem, start, *, scale: Optional[float] = None,
                r1: float = 0.0) -> NewtonResult:
    """Damped Newton iteration on the averaged pair from ``start``.

    Converges to ``NEWTON_RTOL``·scale in the value norm, where ``scale``
    defaults to the largest value norm seen on a circle through ``start``.
    Iterates that fall below radius ``r1`` are reported as trivial-basin.
    """
    amp = np.asarray(start, dtype=float).copy()
    if float(np.linalg.norm(amp)) == 0.0:
        raise DomainError("Newton start must be away from the origin")
    if scale is None:
        scale = _default_scale(sys, amp)
    tol = NEWTON_RTOL * scale
    value = bifurcation_values(sys, amp)
    vnorm = float(np.linalg.norm(value))
    stagnant = 0
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        # the exclusion radius wins: zeros inside it are trivial by decree
        if float(np.linalg.norm(amp)) < r1:
            return NewtonResult(False, "trivial-basin", None,
                                (float(amp[0]), float(amp[1])), vnorm, iteration - 1)
        if vnorm <= tol:
            cert = _certificate(sys, amp, vnorm, scale)
            return NewtonResult(True, "converged", cert, cert.point, vnorm, iteration - 1)
        jac = jacobian(sys, amp)
        try:
            step = np.linalg.solve(jac, -value)
        except np.linalg.LinAlgError:
            return NewtonResult(False, "no-convergence", None,
                                (float(amp[0]), float(amp[1])), vnorm, iteration - 1)
        lam = 1.0
        improved = False
        for _ in range(20):
            trial = amp + lam * step
            if float(np.linalg.norm(trial)) < 1e-12:
                trial = trial + 1e-12 * np.array([1.0, 0.0])
            trial_value = bifurcation_values(sys, trial)
            trial_norm = float(np.linalg.norm(trial_value))
            if trial_norm < vnorm * (1.0 - 1e-4 * lam) or trial_norm <= tol:
                amp, value, vnorm = trial, trial_value, trial_norm
                improved = True
                break
            lam *= 0.5
        if not improved:
            stagnant += 1
            if stagnant >= 3:
                return NewtonResult(False, "no-convergence", None,
                                    (float(amp[0]), float(amp[1])), vnorm, iteration)
        else:
            stagnant = 0
    if float(np.linalg.norm(amp)) < r1:
        return NewtonResult(False, "trivial-basin", None,
                            (float(amp[0]), float(amp[1])), vnorm, NEWTON_MAX_ITER)
    if vnorm <= tol:
        cert = _certificate(sys, amp, vnorm, scale)
        return NewtonResult(True, "converged", cert, cert.point, vnorm, NEWTON_MAX_ITER)
    return NewtonResult(False, "no-convergence", None,
                        (float(amp[0]), float(amp[1])), vnorm, NEWTON_MAX_ITER)


def annulus_search(sys: BifurcationSystem, r1: float, r2: float, grid: int,
                   *, rng: Optional[np.random.Generator] = None) -> list:
    """Newton search from a grid×grid polar lattice over the annulus.

    Returns the distinct converged certificates, deduplicated within
    ``DEDUPE_TOL`` and sorted by point.  ``rng`` optionally jitters the
    lattice.
    """
    if not (0.0 < r1 < r2):
        raise DomainError(f"need 0 < r1 < r2, got r1={r1!r}, r2={r2!r}")
    if grid < 8:
        raise DomainError(f"grid must be at least 8, got {grid!r}")
    radii = r1 + (r2 - r1) * (np.arange(grid) + 0.5) / grid
    angles = 2.0 * math.pi * np.arange(grid) / grid
    jitter_r = np.zeros((grid, grid))
    jitter_a = np.zeros((grid, grid))
    if rng is not None:
        jitter_r = rng.uniform(-0.25, 0.25, size=(grid, grid)) * (r2 - r1) / grid
        jitter_a = rng.uniform(-0.25, 0.25, size=(grid, grid)) * (2.0 * math.pi / grid)
    starts = []
    for i in range(grid):
        for j in range(grid):
            r = min(max(radii[i] + jitter_r[i, j], r1 * (1.0 + 1e-9)), r2 * (1.0 - 1e-9))
            ang = angles[j] + jitter_a[i, j]
            starts.append(np.array([r * math.cos(ang), r * math.sin(ang)]))

    scale = max(float(np.linalg.norm(bifurcation_values(sys, s0))) for s0 in starts)
    if scale <= 0.0:
        return []

    certificates = []
    for s0 in starts:
        res = newton_zero(sys, s0, scale=scale, r1=r1)
        if not res.converged or res.certificate is None:
            continue
        pt = np.array(res.certificate.point)
        if float(np.linalg.norm(pt)) <= r1:
            continue
        if any(np.linalg.norm(pt - np.array(c.point)) < DEDUPE_TOL for c in certificates):
            continue
        certificates.append(res.certificate)
    certificates.sort(key=lambda c: (c.point[0], c.point[1]))
    return certificates
