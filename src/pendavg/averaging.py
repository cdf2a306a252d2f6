"""Averaged bifurcation functions and their simple zeros.

For each orbit family the first-order averaged response of a perturbation
along the unperturbed orbit of amplitude (u₀, v₀) is a pair of integrals
over the resonance window [0, p·T_family]:

    ∫ trig(ωτ)·2√Δ·⟨r, (0, f_y, 0, f_w)⟩ dτ,

with trig = sin for the first component and cos for the second, r the
family's velocity row of the normal-form transform (row Y for family 1,
row W for family 2), and (f_y, f_w) the order-ε forcing of the spec's
table P (:attr:`~pendavg.perturbation.PerturbationSpec.table`) on the
orbit mapped back to the physical frame.  Written out, 2√Δ·r is
(0, 2b, 0, a−b+√Δ) for family 1 and (0, −2b, 0, −a+b+√Δ) for family 2.
The sgn terms see sgn(x) = sgn(z) = sgn(u(τ)) on family 1 and
sgn(x) = −sgn(z) = −sgn(u(τ)) on family 2, with u(τ) the sgn argument
fixed by the phase convention:

    convention "A": u(τ) = u₀·cos(ωτ) + v₀·sin(ωτ)   (the orbit coordinate),
    convention "B": u(τ) = v₀·cos(ωτ) + u₀·sin(ωτ)   (the swapped variant).

Convention A matches the sign the simulated discontinuity actually sees;
B is kept selectable so the end-to-end residual test can arbitrate.

The orbit is linear in the amplitude and the sgn pattern depends only on
its direction, so G is affine along every ray: G(r·e_θ) = r·L(θ) + C(θ),
with L(θ) the averaged response of the state columns of the spec's
forcing table (:attr:`~pendavg.perturbation.PerturbationSpec.table`)
along the unit orbit e_θ and C(θ) that of its constant column.  Both are
exact sums.  The window splits into panels at the sgn breakpoints.
Writing the sgn argument as c₀·cos(ωτ) + c₁·sin(ωτ), the breakpoints are
τ_k = (atan2(c₁, c₀) + π/2 + kπ)/ω, clipped to the window.  On a panel
the sign is fixed, and the integrand is a finite sum of P(τ)·e^{iλτ}:
the orbit's cos and sin ωτ, the trig weight and every scalar are such
terms, with P = 1 but for a table, whose P is α + β·(τ − m) between two
knots.  Where P is linear, with m the midpoint, h the half-width and x = λh,

    ∫ e^{iλτ} dτ = e^{iλm}·2h·sin(x)/x,
    ∫ (τ − m)·e^{iλτ} dτ = e^{iλm}·2i·h²·(sin x − x·cos x)/x²,

by their Taylor series where |x| < 1.  This is Filon's rule (Proc. R.
Soc. Edinburgh 49, 1928) without a remainder, the other factor being of
degree at most one.  A table term over a panel [lo, hi] is F(hi) − F(lo),
F(t) = ∫₀ᵗ P(τ)·e^{iλτ} dτ: the running sum of the knot intervals up to
the last knot before t, built once per system since it does not depend
on θ, plus the interval from there to t.  So a ray costs its sign panels
whatever the knot count.  The zeros of G are therefore the roots of the
scalar h(θ) = det[L(θ), C(θ)], each at radius r* = −⟨L, C⟩/‖L‖².  The
annulus search scans h on an angle grid and refines each sign change by
Brent's method.  L′ and C′ are exact sums too, by Leibniz's rule: with
ζ = e^{−iθ} the ray coefficient ζa + ζ̄b has derivative i(ζ̄b − ζa), and
the breakpoints move at the rate ±1/ω (+ under A), so an edge τ where
the sign turns from σ₋ to σ₊ adds (σ₋ − σ₊)·(±1/ω)·P(τ)·e^{iλτ} times a
signed mode's ray coefficients (before τ = 0 the sign is the last
panel's: the window is a period of every mode).  At a zero, J's columns
are L and (r*·L′ + C′)/r*, so det J = h′(θ*)/r* on the zero's own ray,
with h′ = det[L′, C] + det[L, C′], whose sign is its Brouwer index.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from sys import float_info
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import DomainError, NumericalError
from .model import JordanTransform, ReducedParams, SpectralData, jordan_transform
from .perturbation import PeriodicScalar, PerturbationSpec, table_knots

SIMPLICITY_RTOL = 1e-8
ANGLES_PER_GRID = 4
BRENT_XTOL = 2e-12
BRENT_RTOL = 4.0 * float_info.epsilon
BRENT_MAXITER = 100
# Most panels of one annulus scan, rays times panels per ray: a zeros run at
# the bound takes about 8 s and 150 MB (README, Experiment file).
MAX_SCAN_PANELS = 1_000_000


class BifurcationSystem:
    """Evaluable averaged pair for one perturbation and orbit family."""

    def __init__(self, family: int, spec: PerturbationSpec, reduced: ReducedParams, spectral: SpectralData,
                 sgn_convention: str = "A"):
        if spec.family != family:
            raise DomainError(f"perturbation is attached to family {spec.family}, system wants {family}")
        if sgn_convention not in ("A", "B"):
            raise DomainError(f"sgn_convention must be 'A' or 'B', got {sgn_convention!r}")
        spec.validate_against(spectral)
        self.family, self.spec, self.reduced, self.spectral = family, spec, reduced, spectral
        self.sgn_convention = sgn_convention

    @property
    def omega(self) -> float:
        return self.spectral.omega(self.family)

    @cached_property
    def transform(self) -> JordanTransform:
        return jordan_transform(self.reduced, self.spectral)

    @cached_property
    def modes(self) -> Tuple[tuple, ...]:
        """The integrands of L and C as modes (λ, part, table, a, b, c).

        On the ray e_θ, with ζ = e^{−iθ}, a mode adds σ^part·P(τ)·e^{iλτ}
        times ζ·a + ζ̄·b to the integrand of L and times c to that of C,
        with σ the panel's sign and P the ``table`` scalar's linear piece,
        or 1 when ``table`` is None; L and C are the imaginary (sin) and
        real (cos) parts of the integrals.  The orbit's physical state
        is s_j = ζ·g_j·e^{iωτ} + conj, g_j = (T⁻¹[j, k] + i·T⁻¹[j, k+1])/2,
        and the trig weight is e^{iωτ}.
        """
        k = 0 if self.family == 1 else 2
        inverse, forward = self.transform.inverse, self.transform.forward
        scale = 2.0 * math.sqrt(self.spectral.delta)
        weights = (scale * forward[k + 1][1], scale * forward[k + 1][3])
        # The signs (σ_x, σ_z) are those of T⁻¹[0, k] and T⁻¹[2, k] times sgn u(τ).
        signs = (math.copysign(1.0, inverse[0][k]), math.copysign(1.0, inverse[2][k]))
        modes = {}

        def add(lam, part, table, a=0j, b=0j, c=0j):
            old = modes.get((lam, part, table), (0j, 0j, 0j))
            modes[lam, part, table] = (old[0] + a, old[1] + b, old[2] + c)

        for (i, part, j), value, scalar in self.spec.table:
            weight = value * weights[i] * (signs[i] if part else 1.0)
            table = scalar if scalar is not None and scalar.kind == "table" else None
            if scalar is None or table is not None:
                harmonics = ((0.0, weight),)
            else:  # A·cos Ωτ = (A/2)·e^{iΩτ} + conj, A·sin Ωτ = (−iA/2)·e^{iΩτ} + conj
                half = 0.5 * weight * scalar.value * (1.0 if scalar.kind == "cos" else -1j)
                harmonics = ((scalar.omega, half), (-scalar.omega, half.conjugate()))
            for lam, coefficient in harmonics:
                if j < 4:
                    g = 0.5 * complex(inverse[j][k], inverse[j][k + 1])
                    add(lam + 2.0 * self.omega, part, table, a=coefficient * g)
                    add(lam, part, table, b=coefficient * g.conjugate())
                else:
                    add(lam + self.omega, part, table, c=coefficient)
        return tuple((*key, *coefficients) for key, coefficients in modes.items())

    @cached_property
    def primitives(self) -> dict:
        """For each table mode's (λ, table): the spec's table knots in the
        window, 0 and the window end included, and F = ∫₀^{knot} P(τ)·e^{iλτ} dτ
        at each, the running sums of one Filon interval per knot interval."""
        window = self.spec.p * self.spectral.period(self.family)
        knots = (0.0, *table_knots((d for _, _, d in self.spec.table), 0.0, window), window)
        primitives = {}
        for lam, _, table, _, _, _ in self.modes:
            if table is not None and (lam, table) not in primitives:
                sums = [0j]
                for lo, hi in zip(knots, knots[1:]):
                    sums.append(sums[-1] + _filon(table, lam, lo, hi))
                primitives[lam, table] = (knots, sums)
        return primitives


class ZeroCertificate(NamedTuple):
    """A located zero with its Jacobian determinant and Brouwer index."""

    point: Tuple[float, float]
    value_norm: float
    det: float
    index: int
    simple: bool


def _sgn_coefficients(amp, convention: str):
    """(c₀, c₁) of the sgn argument c₀·cos(ωτ) + c₁·sin(ωτ)."""
    return (amp[0], amp[1]) if convention == "A" else (amp[1], amp[0])


def _panel_edges(sys: BifurcationSystem, amp) -> Tuple[float, ...]:
    """Panel edges for ``amp``, ascending: 0, the sgn breakpoints τ_k of
    its orbit clipped to the window and the window end."""
    omega = sys.omega
    window = sys.spec.p * sys.spectral.period(sys.family)
    c0, c1 = _sgn_coefficients(amp, sys.sgn_convention)
    phase = (math.atan2(c1, c0) + 0.5 * math.pi) % math.pi
    edges = sorted({0.0, window, *(min((phase + k * math.pi) / omega, window) for k in range(2 * sys.spec.p))})
    # Constant sign strictly between consecutive breakpoints.
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        if c0 * math.cos(omega * mid) + c1 * math.sin(omega * mid) == 0.0:
            raise NumericalError("sign-change partition has a zero at a panel midpoint")
    return tuple(edges)


def _moments(x: float) -> Tuple[float, float]:
    """sin(x)/x and (sin x − x·cos x)/x², by their Taylor series where |x| < 1."""
    if abs(x) >= 1.0:
        sin, cos = math.sin(x), math.cos(x)
        return sin / x, (sin - x * cos) / (x * x)
    if x == 0.0:
        return 1.0, 0.0
    x2 = x * x
    s0 = t0 = 1.0
    s1 = t1 = x / 3.0
    for n in range(2, 20, 2):
        t0 *= -x2 / (n * (n + 1))
        t1 *= -x2 / (n * (n + 3))
        s0 += t0
        s1 += t1
    return s0, s1


def _filon(table: PeriodicScalar, lam: float, lo: float, hi: float) -> complex:
    """∫ P(τ)·e^{iλτ} dτ over [lo, hi], where the table's P is linear."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s0, s1 = _moments(lam * half)
    alpha, beta = table.piece(mid)
    return complex(2.0 * half * alpha * s0, 2.0 * half * half * beta * s1) * complex(math.cos(lam * mid),
                                                                                   math.sin(lam * mid))


def _primitive(sys: BifurcationSystem, lam: float, table: PeriodicScalar, t: float) -> complex:
    """F(t) = ∫₀ᵗ P(τ)·e^{iλτ} dτ for 0 ≤ t ≤ the window end: the running
    sum at the last knot before t plus the interval from it to t."""
    knots, sums = sys.primitives[lam, table]
    j = bisect_right(knots, t) - 1
    return sums[j] if knots[j] == t else sums[j] + _filon(table, lam, knots[j], t)


def _ray_pairs(sys: BifurcationSystem, thetas) -> list:
    """(L, C, L′, C′) for each angle θ: G(r·e_θ) = r·L + C for every r > 0,
    the modes of :attr:`BifurcationSystem.modes` integrated exactly on
    each sign panel (a table mode as a difference of its primitive), and
    the θ-derivatives of L and C by Leibniz's rule."""
    rate = (1.0 if sys.sgn_convention == "A" else -1.0) / sys.omega
    rays = []
    for theta in thetas:
        unit = (math.cos(theta), math.sin(theta))
        zeta = complex(unit[0], -unit[1])
        modes = [(lam, part, table, zeta * a + zeta.conjugate() * b, 1j * (zeta.conjugate() * b - zeta * a), c)
                 for lam, part, table, a, b, c in sys.modes]
        c0, c1 = _sgn_coefficients(unit, sys.sgn_convention)
        edges = _panel_edges(sys, unit)
        panels = [(0.5 * (lo + hi), 0.5 * (hi - lo), lo) for lo, hi in zip(edges, edges[1:])]
        u = [c0 * math.cos(sys.omega * mid) + c1 * math.sin(sys.omega * mid) for mid, _, _ in panels]
        signs = [(x > 0.0) - (x < 0.0) for x in u]
        primitives = {key: [_primitive(sys, *key, t) for t in edges] for key in sys.primitives}
        lin = const = slope_lin = slope_const = 0j
        for i, ((mid, half, lo), before, sign) in enumerate(zip(panels, signs[-1:] + signs, signs)):
            turn = (before - sign) * rate
            for lam, part, table, k_lin, k_turn, k_const in modes:
                if table is None:
                    s0, _ = _moments(lam * half)
                    integral = complex(2.0 * half * s0) * complex(math.cos(lam * mid), math.sin(lam * mid))
                else:
                    integral = primitives[lam, table][i + 1] - primitives[lam, table][i]
                if part:
                    integral *= sign
                if part and turn:  # the sign turns at lo, which moves with θ
                    start = 1.0 if table is None else table(lo)
                    edge = turn * start * complex(math.cos(lam * lo), math.sin(lam * lo))
                    slope_lin += k_lin * edge
                    slope_const += k_const * edge
                lin += k_lin * integral
                const += k_const * integral
                slope_lin += k_turn * integral
        rays.append(tuple((z.imag, z.real) for z in (lin, const, slope_lin, slope_const)))
    return rays


def bifurcation_values(sys: BifurcationSystem, amp) -> Tuple[float, float]:
    """The averaged pair at amplitude ``amp`` over the resonance window:
    |amp|·L + C at the angle of ``amp``."""
    u0, v0 = float(amp[0]), float(amp[1])
    radius = math.hypot(u0, v0)
    if radius == 0.0:
        raise DomainError("degenerate amplitude (0, 0) has no sign structure")
    ((lin, const, _, _),) = _ray_pairs(sys, [math.atan2(v0, u0)])
    return (radius * lin[0] + const[0], radius * lin[1] + const[1])


def _det(lin, const) -> float:
    """h = det[L, C]: zero exactly where a ray carries a zero of G."""
    return lin[0] * const[1] - lin[1] * const[0]


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


def _certificate(sys: BifurcationSystem, theta: float, r1: float, r2: float) -> Optional[ZeroCertificate]:
    """Certificate of the zero on the ray θ, a root of h, if it lies in (r1, r2)."""
    ((lin, const, slope_lin, slope_const),) = _ray_pairs(sys, [theta])
    norm2 = lin[0] * lin[0] + lin[1] * lin[1]
    if norm2 == 0.0:
        return None
    radius = -(lin[0] * const[0] + lin[1] * const[1]) / norm2
    if not r1 < radius < r2:
        return None
    value_norm = math.hypot(radius * lin[0] + const[0], radius * lin[1] + const[1])
    # At a zero h'(θ) = det[L', C] + det[L, C'] = det[L, r·L' + C'] = r·det J.
    slope = _det(slope_lin, const) + _det(lin, slope_const)
    det = slope / radius
    simple = value_norm <= SIMPLICITY_RTOL * math.hypot(*const) and abs(det) > SIMPLICITY_RTOL * norm2
    point = (radius * math.cos(theta), radius * math.sin(theta))
    return ZeroCertificate(point=point, value_norm=value_norm, det=det,
                           index=(slope > 0.0) - (slope < 0.0), simple=simple)


def check_search(r1: float, r2: float, grid: int, p: int) -> None:
    """DomainError unless 0 < r1 < r2, ``grid`` is at least 8 and the scan's
    4·grid rays, each of at most 2p + 1 sign panels, are at most
    ``MAX_SCAN_PANELS`` panels.  A table adds no panel: its terms are
    differences of primitives built once per system."""
    if not (0.0 < r1 < r2):
        raise DomainError(f"need 0 < r1 < r2, got r1={r1!r}, r2={r2!r}")
    if grid < 8:
        raise DomainError(f"grid must be at least 8, got {grid!r}")
    panels = ANGLES_PER_GRID * grid * (2 * p + 1)
    if panels > MAX_SCAN_PANELS:
        raise DomainError(f"grid = {grid} and [model] p = {p} ask for a scan of {panels} panels, "
                          f"more than {MAX_SCAN_PANELS}")


def annulus_search(sys: BifurcationSystem, r1: float, r2: float, grid: int) -> list:
    """Zeros of the averaged pair in the annulus r1 < |amp| < r2, sorted by point.

    G is affine along every ray, so a ray θ carries a zero exactly where
    h(θ) = det[L(θ), C(θ)] vanishes, at radius r* = −⟨L, C⟩/‖L‖².  h is
    sampled on ``ANGLES_PER_GRID``·``grid`` equally spaced angles and each
    sign change is refined by Brent's method.  A zero is simple when ‖G‖ on
    its ray is at most ``SIMPLICITY_RTOL``·‖C‖ and |det J| is above
    ``SIMPLICITY_RTOL``·‖L‖²: both sides scale as G², and neither reads r1
    or r2.  Bounds that `check_search` refuses raise its DomainError
    before any ray is taken.
    """
    check_search(r1, r2, grid, sys.spec.p)
    n = ANGLES_PER_GRID * grid
    thetas = [2.0 * math.pi * i / n for i in range(n + 1)]
    h = [_det(lin, const) for lin, const, _, _ in _ray_pairs(sys, thetas[:-1])]
    h.append(h[0])
    certificates = []
    for i in range(n):
        if h[i] == 0.0:
            theta = thetas[i]
        elif h[i] * h[i + 1] < 0.0:
            theta = _brent(lambda t: _det(*_ray_pairs(sys, [t])[0][:2]), thetas[i], thetas[i + 1], h[i], h[i + 1])
        else:
            continue
        cert = _certificate(sys, theta, r1, r2)
        if cert is not None:
            certificates.append(cert)
    certificates.sort(key=lambda c: (c.point[0], c.point[1]))
    return certificates
