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
breakpoints and at the knots of table scalars (linear interpolation has a
kink at each), refined by doubling until two successive levels agree.
Writing the sgn argument as c₀·cos(ωτ) + c₁·sin(ωτ), the breakpoints are
τ_k = (atan2(c₁, c₀) + π/2 + kπ)/ω, clipped to the window.
The orbit is linear in the amplitude and the sgn pattern depends only on
its direction, so G is affine along every ray: G(r·e_θ) = r·L(θ) + C(θ).
For frozen signs the forcing is affine, f = R·s + k, so L(θ) is the
averaged response of R·s along the unit orbit e_θ and C(θ) that of k,
both from one quadrature over the two parts of
:func:`~pendavg.perturbation.eval_order1_parts`.  The zeros of G are
therefore the roots of the scalar h(θ) = det[L(θ), C(θ)], each at
radius r* = −⟨L, C⟩/‖L‖².  The annulus search scans h on an angle grid,
refines each sign change by Brent's method, and certifies a zero by
det J = h′(θ*)/r*; the sign of h′ is the zero's Brouwer index.
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
from .perturbation import PerturbationSpec, eval_order1_parts, eval_order1_with_signs

GAUSS_ORDER = 16
MAX_REFINE_LEVELS = 12
QUADRATURE_RTOL = 1e-10
SIMPLICITY_RTOL = 1e-8
ANGLES_PER_GRID = 4
ANGLE_STEP = 1e-6
BRENT_XTOL = 2e-12
BRENT_RTOL = 4.0 * np.finfo(float).eps
BRENT_MAXITER = 100

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
    def omega(self) -> float:
        return self.spectral.omega(self.family)

    @cached_property
    def transform(self) -> JordanTransform:
        return jordan_transform(self.reduced, self.spectral)

    @cached_property
    def table_knots(self) -> Tuple[float, ...]:
        """The knots of the spec's tables inside the resonance window: linear
        interpolation has a kink at each."""
        return self.spec.table_knots(0.0, self.spec.p * self.spectral.period(self.family))


@dataclass(frozen=True)
class QuadraturePartition:
    """Zeros of the sgn argument inside the averaging window."""

    breakpoints: Tuple[float, ...]
    window: float

    @cached_property
    def panel_edges(self) -> np.ndarray:
        """0, the distinct breakpoints and the window end, ascending.

        Every breakpoint already lies in [0, window].  (np.unique gives the
        same edges, but its first call imports numpy.ma, which costs more
        than a whole zero search.)
        """
        return np.array(sorted({0.0, *self.breakpoints, self.window}))


@dataclass(frozen=True, eq=False)
class ZeroCertificate:
    """A located zero with its Jacobian determinant and Brouwer index."""

    point: Tuple[float, float]
    value_norm: float
    det: float
    index: int
    simple: bool


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
    edges = partition.panel_edges
    mids = 0.5 * (edges[:-1] + edges[1:])
    if np.any(c0 * np.cos(omega * mids) + c1 * np.sin(omega * mids) == 0.0):
        raise NumericalError("sign-change partition has a zero at a panel midpoint")
    return partition


def _along_orbit(sys: BifurcationSystem, amp, tau: np.ndarray):
    """State, (sin ωτ, cos ωτ), signs (σ_x, σ_z) along the orbit of ``amp``,
    and the weights of (f_y, f_w) in 2√Δ·⟨r, (0, f_y, 0, f_w)⟩."""
    k = 0 if sys.family == 1 else 2
    inverse, forward = sys.transform.inverse, sys.transform.forward
    state = inverse @ unperturbed_orbit(sys.family, amp, tau, sys.spectral)
    trig = np.stack([np.sin(sys.omega * tau), np.cos(sys.omega * tau)])
    c0, c1 = _sgn_coefficients(amp, sys.sgn_convention)
    sgn = np.sign(c0 * trig[1] + c1 * trig[0])
    scale = 2.0 * math.sqrt(sys.spectral.delta)
    signs = (np.sign(inverse[0, k]) * sgn, np.sign(inverse[2, k]) * sgn)
    return state, trig, signs, (scale * forward[k + 1, 1], scale * forward[k + 1, 3])


def averaged_integrand(sys: BifurcationSystem, amp, tau: np.ndarray) -> np.ndarray:
    """Integrand pair of the averaged response at the n times ``tau``, shape (2, n)."""
    state, trig, signs, (w_y, w_w) = _along_orbit(sys, amp, tau)
    f_y, f_w = eval_order1_with_signs(sys.spec, tau, state, *signs)
    return trig * (w_y * f_y + w_w * f_w)


def _ray_integrand(sys: BifurcationSystem, unit: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Integrands of (L, C) along the unit orbit: the averaged response of
    the forcing's state-linear part R·s and of its constant part k."""
    state, trig, signs, (w_y, w_w) = _along_orbit(sys, unit, tau)
    parts = eval_order1_parts(sys.spec, tau, state, *signs)
    return np.concatenate([trig * (w_y * f_y + w_w * f_w) for f_y, f_w in parts])


def _adaptive_gauss(f: Callable, edges: np.ndarray):
    """Composite Gauss–Legendre over fixed panels with doubling refinement.

    ``f`` maps a 1-d array of times to values of shape (..., n).  Stops when
    two successive refinement levels agree to ``QUADRATURE_RTOL`` relative
    to the larger of 1 and the estimate's norm.
    """
    edges = np.asarray(edges, dtype=float)
    # Zero-width panels go first: one zero step would send every panel
    # through linspace's branch for zero steps.
    keep = ~(edges[1:] - edges[:-1] <= 0.0)
    lo, hi = edges[:-1][keep], edges[1:][keep]
    prev = None
    for level in range(MAX_REFINE_LEVELS + 1):
        # Row i splits panel i into 2**level subpanels, element by element
        # as linspace(lo[i], hi[i], 2**level + 1) would; nodes and weights
        # stay panel-major.
        bounds = np.linspace(lo, hi, 2 ** level + 1).T
        mid = 0.5 * (bounds[:, :-1] + bounds[:, 1:])
        half = 0.5 * (bounds[:, 1:] - bounds[:, :-1])
        taus = (mid[:, :, None] + half[:, :, None] * _GAUSS_NODES).ravel()
        weights = (half[:, :, None] * _GAUSS_WEIGHTS).ravel()
        total = np.asarray(f(taus)) @ weights
        if prev is not None:
            scale = max(1.0, float(np.linalg.norm(total)))
            if float(np.linalg.norm(total - prev)) <= QUADRATURE_RTOL * scale:
                return total
        prev = total
    raise QuadratureError(
        f"panel refinement did not converge to relative {QUADRATURE_RTOL:g} within "
        f"{MAX_REFINE_LEVELS} doubling levels"
    )


def _panel_edges(sys: BifurcationSystem, amp) -> np.ndarray:
    """Quadrature panel edges for ``amp``: the sgn breakpoints of its orbit
    and the table knots."""
    edges = find_sign_changes(amp, sys.family, sys.sgn_convention, sys.spectral, sys.spec.p).panel_edges
    if not sys.table_knots:
        return edges
    return np.array(sorted({*edges.tolist(), *sys.table_knots}))


def bifurcation_values(sys: BifurcationSystem, amp) -> np.ndarray:
    """The averaged pair at amplitude ``amp`` over the resonance window."""
    return _adaptive_gauss(lambda taus: averaged_integrand(sys, amp, taus), _panel_edges(sys, amp))


def _ray_pair(sys: BifurcationSystem, theta: float):
    """(L, C) with G(r·e_θ) = r·L + C for every r > 0, by one quadrature."""
    unit = np.array([math.cos(theta), math.sin(theta)])
    pair = _adaptive_gauss(lambda taus: _ray_integrand(sys, unit, taus), _panel_edges(sys, unit))
    return pair[:2], pair[2:]


def _ray_det(sys: BifurcationSystem, theta: float) -> float:
    """h(θ) = det[L(θ), C(θ)]: zero exactly where a ray carries a zero of G."""
    lin, const = _ray_pair(sys, theta)
    return float(lin[0] * const[1] - lin[1] * const[0])


def _brent(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
           xtol: float = BRENT_XTOL, rtol: float = BRENT_RTOL) -> float:
    """Root of f in [a, b] by Brent's method, given fa = f(a) and fb = f(b).

    A line-for-line port of SciPy's ``brentq.c``; with its defaults
    (``BRENT_XTOL``, ``BRENT_RTOL``, ``BRENT_MAXITER``) it returns the same
    root as ``scipy.optimize.brentq`` bit for bit without importing SciPy.
    Only the two bracket values are taken from the caller; every other
    value is f's.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(f"Brent needs a sign change on [{a!r}, {b!r}]")
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise NumericalError(
        f"Brent's method did not converge in {BRENT_MAXITER} iterations on [{a!r}, {b!r}]"
    )


def _certificate(sys: BifurcationSystem, theta: float, r1: float, r2: float,
                 scale: float) -> Optional[ZeroCertificate]:
    """Certificate of the zero on the ray θ, a root of h, if it lies in (r1, r2)."""
    lin, const = _ray_pair(sys, theta)
    norm2 = float(lin @ lin)
    if norm2 == 0.0:
        return None
    radius = -float(lin @ const) / norm2
    if not r1 < radius < r2:
        return None
    point = radius * np.array([math.cos(theta), math.sin(theta)])
    value_norm = float(np.linalg.norm(bifurcation_values(sys, point)))
    slope = (_ray_det(sys, theta + ANGLE_STEP) - _ray_det(sys, theta - ANGLE_STEP)) / (2.0 * ANGLE_STEP)
    # At a zero h'(θ) = det[L, r·L' + C'] = r·det J.
    det = slope / radius
    simple = (
        value_norm <= SIMPLICITY_RTOL * scale
        and abs(det) > SIMPLICITY_RTOL * scale * scale / (radius * radius)
    )
    return ZeroCertificate(
        point=(float(point[0]), float(point[1])),
        value_norm=value_norm,
        det=det,
        index=int(np.sign(slope)),
        simple=simple,
    )


def annulus_search(sys: BifurcationSystem, r1: float, r2: float, grid: int) -> list:
    """Zeros of the averaged pair in the annulus r1 < |amp| < r2, sorted by point.

    G is affine along every ray, so a ray θ carries a zero exactly where
    h(θ) = det[L(θ), C(θ)] vanishes, at radius r* = −⟨L, C⟩/‖L‖².  h is
    sampled on ``ANGLES_PER_GRID``·``grid`` equally spaced angles and each
    sign change is refined by Brent's method.  A zero is simple when ‖G‖
    there is at most ``SIMPLICITY_RTOL`` times the largest ‖G‖ on the outer
    circle and |det J| is above ``SIMPLICITY_RTOL`` times that scale
    squared over r*².
    """
    if not (0.0 < r1 < r2):
        raise DomainError(f"need 0 < r1 < r2, got r1={r1!r}, r2={r2!r}")
    if grid < 8:
        raise DomainError(f"grid must be at least 8, got {grid!r}")
    n = ANGLES_PER_GRID * grid
    thetas = (2.0 * math.pi * np.arange(n + 1) / n).tolist()
    pairs = [_ray_pair(sys, theta) for theta in thetas[:-1]]
    scale = max(float(np.linalg.norm(r2 * lin + const)) for lin, const in pairs)
    if scale <= 0.0:
        return []
    h = [float(lin[0] * const[1] - lin[1] * const[0]) for lin, const in pairs]
    h.append(h[0])
    certificates = []
    for i in range(n):
        if h[i] == 0.0:
            theta = thetas[i]
        elif h[i] * h[i + 1] < 0.0:
            theta = _brent(lambda t: _ray_det(sys, t), thetas[i], thetas[i + 1], h[i], h[i + 1])
        else:
            continue
        cert = _certificate(sys, theta, r1, r2, scale)
        if cert is not None:
            certificates.append(cert)
    certificates.sort(key=lambda c: (c.point[0], c.point[1]))
    return certificates
