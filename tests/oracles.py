"""Independent reference computations shared by the test modules.

Everything here reaches results through routes the package does not use:
eigensolvers instead of closed-form frequencies, matrix exponentials
instead of rotation-block propagators, dense breakpoint-split trapezoid
sums instead of adaptive panels, hand-written averaged closed forms
refined by a local Newton loop, the unfolded term-by-term forcing sum and
the reduced field summed whole from it on every call, two full
evaluations of the averaged pair per ray instead of one pass over the
parts of the forcing, a scan-and-bisect search for the sgn breakpoints,
the generic fundamental-matrix average, a Cartesian finite-difference
Jacobian of the averaged pair instead of the angular derivative along a
ray, and a finite-difference monodromy of the return map instead of
variational equations with saltation matrices.  Tests
compare package output against these values; the frozen literals in the
suite come from ``scripts/derive_oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from pendavg.errors import DomainError
from pendavg.model import fundamental_matrix, monodromy_lower_block


def linear_matrix(a: float, b: float) -> np.ndarray:
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-a, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [b, 0.0, -b, 0.0],
        ]
    )


def eig_frequencies(a: float, b: float) -> tuple:
    """(omega1, omega2) from the eigensolver, smaller first."""
    ev = np.linalg.eigvals(linear_matrix(a, b))
    pos = np.sort(np.abs(ev.imag))
    return float(pos[0]), float(pos[-1])


def expm_monodromy_det(a: float, b: float, p: int, family: int = 1) -> float:
    """Transverse-block determinant via eigenvalues of expm(-A·p·T).

    The block of M⁻¹(0) − M⁻¹(pT) transverse to the chosen family is
    similar to I − R(ω_other·pT), whose determinant is |1 − λ|² for the
    eigenvalue pair of expm(−A·pT) away from 1 (the family pair sits at
    exactly 1 at resonance).
    """
    w1, w2 = eig_frequencies(a, b)
    w_fam = w1 if family == 1 else w2
    w_other = w2 if family == 1 else w1
    window = p * 2.0 * math.pi / w_fam
    mat = expm(-linear_matrix(a, b) * window)
    ev = np.linalg.eigvals(mat)
    target = np.exp(-1j * w_other * window)
    lam = ev[np.argmin(np.abs(ev - target))]
    return float(abs(1.0 - lam) ** 2)


def flow_states(a: float, b: float, s0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """expm-propagated states of the unperturbed linear system, shape (4, n)."""
    mat = linear_matrix(a, b)
    vals, vecs = np.linalg.eig(mat)
    coeffs = np.linalg.solve(vecs, np.asarray(s0, dtype=complex))
    modes = np.exp(np.outer(vals, taus)) * coeffs[:, None]
    return np.real(vecs @ modes)


def trapezoid_bifurcation(system, amp, n_points: int = 1_000_000) -> np.ndarray:
    """Dense-trapezoid value of the averaged pair with analytic breakpoints.

    The sgn argument is c₀cos(ωτ) + c₁sin(ωτ) = A·cos(ωτ − χ), whose roots
    are (χ + π/2 + kπ)/ω; each smooth piece between consecutive roots is
    integrated by the composite trapezoid rule on its own uniform grid.
    """
    from pendavg.averaging import averaged_integrand

    omega = system.omega
    window = system.spec.p * system.spectral.period(system.family)
    u0, v0 = float(amp[0]), float(amp[1])
    c0, c1 = (u0, v0) if system.sgn_convention == "A" else (v0, u0)
    radius = math.hypot(c0, c1)
    if radius == 0.0:
        raise ValueError("amplitude without sign structure")
    chi = math.atan2(c1, c0)
    first = (chi + math.pi / 2.0) / omega
    step = math.pi / omega
    k0 = math.ceil((0.0 - first) / step - 1e-12)
    roots = []
    k = k0
    while True:
        root = first + k * step
        if root >= window - 1e-12:
            break
        if root > 1e-12:
            roots.append(root)
        k += 1
    edges = np.array([0.0] + roots + [window])
    nudge = 1e-12 * window
    total = np.zeros(2)
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = max(64, int(round(n_points * (hi - lo) / window)))
        taus = np.linspace(lo + nudge, hi - nudge, m)
        total += np.trapezoid(averaged_integrand(system, amp, taus), taus, axis=1)
    return total


def linear_periodic_state(
    a: float, b: float, eps: float, gamma: float
) -> np.ndarray:
    """Initial state of the T₁-periodic orbit of the damped, forced system.

    The reduced system with linear damping −y, −w and forcing
    ε·γ·cos(ω₁τ) on the y row is linear, so the periodic orbit solves
    (I − Φ(T₁))·s₀ = particular response.  Augmenting the forcing
    oscillator makes the whole system autonomous and one 6×6 matrix
    exponential supplies both pieces exactly.
    """
    w1, _ = eig_frequencies(a, b)
    t1 = 2.0 * math.pi / w1
    aug = np.zeros((6, 6))
    aug[:4, :4] = linear_matrix(a, b) + eps * np.diag([0.0, -1.0, 0.0, -1.0])
    aug[1, 4] = eps * gamma
    aug[4, 5] = -w1
    aug[5, 4] = w1
    big = expm(aug * t1)
    return np.linalg.solve(np.eye(4) - big[:4, :4], big[:4, 4])


def escapement_closed_pair(a: float, b: float, gamma: float, kappa: float):
    """Hand closed form of the convention-A averaged pair for the
    damping/forcing/escapement benchmark, and its Newton-refined zero."""
    delta = (a - b) ** 2 + 4 * b
    sd = math.sqrt(delta)
    w1 = math.sqrt((a + b - sd) / 2.0)
    t1 = 2.0 * math.pi / w1
    c = a + b + sd

    def pair(v):
        x0, y0 = v
        amp = math.hypot(x0, y0)
        return np.array(
            [
                sd * t1 * x0 + (4.0 * kappa * c / w1) * y0 / amp,
                -sd * t1 * y0 + b * gamma * t1 + (4.0 * kappa * c / w1) * x0 / amp,
            ]
        )

    point = np.array([-2.0 * c * kappa / (sd * math.pi), b * gamma / sd])
    for _ in range(60):
        f0 = pair(point)
        jac = np.empty((2, 2))
        h = 1e-7
        for j in range(2):
            dv = np.zeros(2)
            dv[j] = h
            jac[:, j] = (pair(point + dv) - pair(point - dv)) / (2.0 * h)
        step = np.linalg.solve(jac, f0)
        point = point - step
        if float(np.linalg.norm(step)) < 1e-14:
            break
    return pair, point


def corollary_radius(a: float, b: float) -> float:
    delta = (a - b) ** 2 + 4 * b
    sd = math.sqrt(delta)
    return 2.0 * (a + b + sd) / (sd * math.pi)


def resonant_b(a: float, ratio: float) -> float:
    """b in [0.5, 0.7] such that omega2/omega1 equals the given ratio."""
    from scipy.optimize import brentq

    def f(b):
        delta = (a - b) ** 2 + 4 * b
        sd = math.sqrt(delta)
        return math.sqrt((a + b + sd) / (a + b - sd)) - ratio

    return brentq(f, 0.5, 0.7, xtol=1e-15)


def unfolded_forcing(spec, tau, state, sgn_x, sgn_z):
    """(f_y, f_w) as the term-by-term sum of every K scalar and F coefficient."""
    state = np.asarray(state, dtype=float)
    k1, k2, k3, k4 = spec.K
    f1, f2, f3, f4 = spec.F
    f_y = k1(tau) + f1.evaluate(tau, state) + (k2(tau) + f2.evaluate(tau, state)) * sgn_x
    f_w = k3(tau) + f3.evaluate(tau, state) + (k4(tau) + f4.evaluate(tau, state)) * sgn_z
    return f_y, f_w


def per_call_field(spec, reduced, eps):
    """The reduced system's field evaluated whole on every call, with the
    unfolded forcing: x′ = y, y′ = −a·x + z + ε·f_y, z′ = w,
    w′ = b·x − b·z + ε·f_w, for explicit region signs."""
    a, b = reduced.a, reduced.b

    def field(t, state, signs):
        x, y, z, w = state
        f_y, f_w = unfolded_forcing(spec, t, state, signs[0], signs[1])
        return np.array([y, -a * x + z + eps * f_y, w, b * x - b * z + eps * f_w], dtype=float)

    return field


def field_term_scale(spec, reduced, eps, tau, state, signs):
    """Per component of :func:`per_call_field`, the sum of the absolute
    values of its terms: the size that float64 rounding of any way of
    summing them is relative to."""
    a, b = reduced.a, reduced.b
    x, y, z, w = np.abs(np.asarray(state, dtype=float))
    k1, k2, k3, k4 = (abs(float(k(tau))) for k in spec.K)
    f1, f2, f3, f4 = (sum(abs(float(d(tau))) * v for d, v in zip(form.coefficients(), (x, y, z, w)))
                      for form in spec.F)
    sx, sz = abs(signs[0]), abs(signs[1])
    return np.array([
        y,
        abs(a) * x + z + eps * (k1 + f1 + sx * (k2 + f2)),
        w,
        abs(b) * x + abs(b) * z + eps * (k3 + f3 + sz * (k4 + f4)),
    ])


def two_quadrature_ray_pair(system, theta):
    """(L, C) on the ray θ from two full evaluations of the averaged pair,
    L = G(2e_θ) − G(e_θ) and C = 2G(e_θ) − G(2e_θ)."""
    from pendavg.averaging import bifurcation_values

    unit = np.array([math.cos(theta), math.sin(theta)])
    g1 = bifurcation_values(system, unit)
    g2 = bifurcation_values(system, 2.0 * unit)
    return g2 - g1, 2.0 * g1 - g2


def scan_sign_changes(amp, family, convention, s, p):
    """Zeros of the sgn argument in [0, p·T]: a scan of 512 points per
    period, then bisection of each bracketed sign change to 1e-12."""
    c0, c1 = (amp[0], amp[1]) if convention == "A" else (amp[1], amp[0])
    omega = s.omega(family)
    window = p * s.period(family)

    def u(tau):
        return c0 * np.cos(omega * tau) + c1 * np.sin(omega * tau)

    grid = np.linspace(0.0, window, 512 * p + 1)
    vals = u(grid)
    zeros = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            zeros.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            lo, hi, flo = grid[i], grid[i + 1], vals[i]
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                fmid = u(mid)
                if fmid == 0.0:
                    lo = hi = mid
                elif flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            zeros.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        zeros.append(grid[-1])
    return sorted(zeros)


def jacobian(system, amp) -> np.ndarray:
    """Central finite-difference Jacobian of the averaged pair at ``amp``,
    step max(1e-6, 1e-6·|amp|) along each Cartesian axis."""
    from pendavg.averaging import bifurcation_values

    amp = np.asarray(amp, dtype=float)
    h = max(1e-6, 1e-6 * float(np.linalg.norm(amp)))
    jac = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        jac[:, j] = (bifurcation_values(system, amp + step)
                     - bifurcation_values(system, amp - step)) / (2.0 * h)
    return jac


def malkin_average(g1, s, orbit, window, family=1, breakpoints=()):
    """Generic first-order average along a normal-form periodic orbit.

    The projection onto the orbit's own rotation plane of
    (1/T)·∫₀^T M⁻¹(t)·g1(t, orbit(t)) dt, with M the block-rotation
    fundamental matrix.  ``orbit`` maps a time to a normal-form state.
    The transverse monodromy block must be nondegenerate; known integrand
    discontinuities can be passed as ``breakpoints``.
    """
    from pendavg.averaging import _adaptive_gauss

    period = s.period(family)
    p_float = window / period
    p = int(round(p_float))
    if abs(p_float - p) > 1e-9 or p < 1:
        raise DomainError(f"window {window!r} is not an integer multiple of the family period")
    monodromy_lower_block(s, p, family)  # raises on resonance
    lo, hi = (0, 2) if family == 1 else (2, 4)

    def f(taus):
        cols = np.empty((2, len(taus)))
        for i, t in enumerate(taus):
            v = fundamental_matrix(s, -t) @ np.asarray(g1(t, orbit(t)), dtype=float)
            cols[:, i] = v[lo:hi]
        return cols

    edges = np.unique(np.concatenate(([0.0], np.asarray(breakpoints, dtype=float), [window])))
    edges = edges[(edges >= 0.0) & (edges <= window)]
    return _adaptive_gauss(f, edges) / window


def finite_difference_monodromy(spec, reduced, spectral, eps, orbit, scale=1.0, central=False):
    """Monodromy of the return map at ``orbit.initial_state`` by differences.

    Each column bumps one state component by h = scale·max(1e-7·‖s‖, 1e-8)
    and integrates the bumped state (both ±h with ``central``) over the
    window at the verification tolerances.  The error is the solver's
    noise over h plus the truncation error, about 1e-8 on the builtins.
    """
    from pendavg.filippov import integrate
    from pendavg.verify import VERIFY_ATOL, VERIFY_RTOL

    s = np.array(orbit.initial_state, dtype=float)

    def return_map(state):
        return integrate(spec, reduced, spectral, eps, state, (0.0, orbit.period_tau),
                         rtol=VERIFY_RTOL, atol=VERIFY_ATOL).final_state

    h = scale * max(1e-7 * float(np.linalg.norm(s)), 1e-8)
    image = None if central else return_map(s)
    monodromy = np.empty((4, 4))
    for i in range(4):
        step = np.zeros(4)
        step[i] = h
        if central:
            monodromy[:, i] = (return_map(s + step) - return_map(s - step)) / (2.0 * h)
        else:
            monodromy[:, i] = (return_map(s + step) - image) / h
    return monodromy

