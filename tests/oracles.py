"""Independent reference computations shared by the test modules.

Everything here reaches results through routes the package does not use:
eigensolvers instead of closed-form frequencies, matrix exponentials
instead of rotation-block propagators, the averaged pair's integrand on
arrays of times, summed by dense breakpoint-split trapezoid sums or by
composite Gauss–Legendre quadrature instead of the closed-form panel
integrals, hand-written averaged closed forms refined by a local Newton
loop, numpy evaluation of the periodic scalars and the sign ramp on
arrays instead of the package's float code, the unfolded term-by-term
forcing sum and the reduced field summed whole from it on every call, a
scan-and-bisect search for the sgn breakpoints, the generic
fundamental-matrix average, a Cartesian finite-difference Jacobian of the
averaged pair instead of the angular derivative along a ray, a
finite-difference monodromy of the return map instead of variational
equations with saltation matrices, SciPy's ``expm`` on a fixed scan
with ``brentq`` roots for the exact return map, and the nonlinear
pendulum, which the package does not model, from its Euler–Lagrange
equations by ``np.linalg.solve``, integrated in its physical frame by
SciPy's ``solve_ivp`` with terminal events on its switching surfaces.
Tests compare package output against these values; the frozen literals in
the suite come from ``scripts/derive_oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from pendavg.errors import DomainError
from pendavg.model import monodromy_lower_block, reduce_params
from pendavg.perturbation import PerturbationSpec, PeriodicScalar, table_knots

GAUSS_ORDER = 16
MAX_REFINE_LEVELS = 12
QUADRATURE_RTOL = 1e-10


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


def fundamental_matrix(s, tau: float) -> np.ndarray:
    """Fundamental solution of the normal-form linear system, M(0) = I."""
    m = np.zeros((4, 4))
    for k, w in ((0, s.omega1), (2, s.omega2)):
        c, sn = math.cos(w * tau), math.sin(w * tau)
        m[k, k] = c
        m[k, k + 1] = sn
        m[k + 1, k] = -sn
        m[k + 1, k + 1] = c
    return m


def unperturbed_orbit(family: int, amp, tau, s) -> np.ndarray:
    """Normal-form state of the family-1 or family-2 periodic orbit.

    Family 1: (X, Y) = (X₀cos ω₁τ + Y₀sin ω₁τ, Y₀cos ω₁τ − X₀sin ω₁τ),
    Z = W = 0.  Family 2 is the analogue in the (Z, W) plane with ω₂.
    Scalar or array ``tau``; returns shape (4,) or (4, n).
    """
    if family not in (1, 2):
        raise DomainError(f"family must be 1 or 2, got {family!r}")
    u0, v0 = amp[0], amp[1]
    tau = np.asarray(tau, dtype=float)
    w = s.omega(family)
    c, sn = np.cos(w * tau), np.sin(w * tau)
    u = u0 * c + v0 * sn
    v = v0 * c - u0 * sn
    zero = np.zeros_like(u)
    if family == 1:
        return np.stack([u, v, zero, zero])
    return np.stack([zero, zero, u, v])


def scalar_values(scalar, tau) -> np.ndarray:
    """A periodic scalar at scalar or array τ, by numpy: ``np.cos`` and
    ``np.sin`` for the harmonics, ``np.interp`` on τ mod the period for a
    table."""
    tau = np.asarray(tau, dtype=float)
    if scalar.kind == "const":
        return tau * 0.0 + scalar.value
    if scalar.kind == "table":
        return np.interp(np.mod(tau, scalar.period), *scalar.knots)
    return scalar.value * (np.cos if scalar.kind == "cos" else np.sin)(scalar.omega * tau)


def ramp_values(x, delta: float) -> np.ndarray:
    """The C¹ odd ramp s_δ at scalar or array x, by ``np.where``."""
    x = np.asarray(x, dtype=float)
    inner = x * (3.0 * delta * delta - x * x) / (2.0 * delta ** 3)
    return np.where(np.abs(x) >= delta, np.sign(x), inner)


def averaged_integrand(system, amp, tau: np.ndarray) -> np.ndarray:
    """Integrand pair of the averaged pair at the n times ``tau``, shape (2, n):
    trig(ωτ)·2√Δ·⟨r, (0, f_y, 0, f_w)⟩ along the orbit of ``amp`` mapped to
    the physical frame, with the signs of the convention's sgn argument and
    (f_y, f_w) the unfolded forcing sum."""
    k = 0 if system.family == 1 else 2
    inverse, forward = np.asarray(system.transform.inverse), np.asarray(system.transform.forward)
    state = inverse @ unperturbed_orbit(system.family, amp, tau, system.spectral)
    omega = system.omega
    trig = np.stack([np.sin(omega * tau), np.cos(omega * tau)])
    c0, c1 = (amp[0], amp[1]) if system.sgn_convention == "A" else (amp[1], amp[0])
    sgn = np.sign(c0 * trig[1] + c1 * trig[0])
    f_y, f_w = unfolded_forcing(system.spec, tau, state, np.sign(inverse[0, k]) * sgn,
                                np.sign(inverse[2, k]) * sgn)
    scale = 2.0 * math.sqrt(system.spectral.delta)
    return trig * (scale * forward[k + 1, 1] * f_y + scale * forward[k + 1, 3] * f_w)


def gauss_quadrature(f, edges) -> np.ndarray:
    """Composite 16-point Gauss–Legendre over the panels between ``edges``,
    each split in 2**level equal parts, the level doubled until two
    successive levels agree to ``QUADRATURE_RTOL`` relative to the larger
    of 1 and the estimate's norm.  ``f`` maps an array of times to values
    of shape (..., n)."""
    nodes, weights_1 = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    edges = np.asarray(edges, dtype=float)
    prev = None
    for level in range(MAX_REFINE_LEVELS + 1):
        bounds = np.linspace(edges[:-1], edges[1:], 2 ** level + 1, axis=-1)
        mid = 0.5 * (bounds[:, :-1] + bounds[:, 1:])
        half = 0.5 * (bounds[:, 1:] - bounds[:, :-1])
        total = np.asarray(f((mid[..., None] + half[..., None] * nodes).ravel())) @ (
            half[..., None] * weights_1).ravel()
        if prev is not None:
            if float(np.linalg.norm(total - prev)) <= QUADRATURE_RTOL * max(1.0, float(np.linalg.norm(total))):
                return total
        prev = total
    raise AssertionError("reference quadrature did not converge")


def gauss_ray_pair(system, theta):
    """(L, C) on the ray θ by :func:`gauss_quadrature` on the package's
    sign panels, split again at the spec's table knots, where the
    integrand has a kink: L is the averaged pair of the spec without K
    along the unit orbit, C that of the spec without F."""
    from pendavg.averaging import BifurcationSystem, _panel_edges

    spec = system.spec
    window = spec.p * system.spectral.period(system.family)
    zero = PeriodicScalar.constant(0.0, window)
    unit = np.array([math.cos(theta), math.sin(theta)])
    edges = sorted({*_panel_edges(system, unit), *table_knots((d for _, _, d in spec.table), 0.0, window)})
    pair = []
    for part in (PerturbationSpec(K=(zero,) * 4, F=spec.F, family=spec.family, p=spec.p),
                 PerturbationSpec(K=spec.K, F=((zero,) * 4,) * 4, family=spec.family, p=spec.p)):
        part_system = BifurcationSystem(system.family, part, system.reduced, system.spectral,
                                        system.sgn_convention)
        pair.append(gauss_quadrature(lambda taus: averaged_integrand(part_system, unit, taus), edges))
    return tuple(pair)


def trapezoid_bifurcation(system, amp, n_points: int = 1_000_000) -> np.ndarray:
    """Dense-trapezoid value of the averaged pair with analytic breakpoints.

    The sgn argument is c₀cos(ωτ) + c₁sin(ωτ) = A·cos(ωτ − χ), whose roots
    are (χ + π/2 + kπ)/ω; each smooth piece between consecutive roots is
    integrated by the composite trapezoid rule on its own uniform grid.
    """
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


def linear_form_value(form, tau, state):
    """d₁(τ)x + d₂(τ)y + d₃(τ)z + d₄(τ)w, plus d₅(τ) when ``form`` has a
    fifth coefficient, at scalar or array τ, with state of shape (4,) or
    (4, n), the coefficients by :func:`scalar_values`.  The terms are
    summed in order and an exact-zero ``const`` coefficient is skipped: it
    adds nothing but the sign of a zero, and evaluating it on every τ
    costs as much as any other scalar."""
    state = np.asarray(state, dtype=float)
    total = np.zeros(np.broadcast(np.asarray(tau, dtype=float), state[0]).shape)
    for d, s in zip(form, (*state, 1.0)):
        if d.kind != "const" or d.value != 0.0:
            total = total + scalar_values(d, tau) * s
    return total


def unfolded_forcing(spec, tau, state, sgn_x, sgn_z):
    """(f_y, f_w) as the term-by-term sum of every K scalar and F
    coefficient, each by :func:`scalar_values`: K_i + F_i is the form F_i
    with K_i as its fifth coefficient, so K_i is added last."""
    g1, g2, g3, g4 = (linear_form_value((*form, k), tau, state) for form, k in zip(spec.F, spec.K))
    return g1 + g2 * sgn_x, g3 + g4 * sgn_z


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
    f1, f2, f3, f4 = (sum(abs(float(d(tau))) * v for d, v in zip(form, (x, y, z, w)))
                      for form in spec.F)
    sx, sz = abs(signs[0]), abs(signs[1])
    return np.array([
        y,
        abs(a) * x + z + eps * (k1 + f1 + sx * (k2 + f2)),
        w,
        abs(b) * x + abs(b) * z + eps * (k3 + f3 + sz * (k4 + f4)),
    ])


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
        jac[:, j] = np.subtract(bifurcation_values(system, amp + step),
                                bifurcation_values(system, amp - step)) / (2.0 * h)
    return jac


def malkin_average(g1, s, orbit, window, family=1, breakpoints=()):
    """Generic first-order average along a normal-form periodic orbit.

    The projection onto the orbit's own rotation plane of
    (1/T)·∫₀^T M⁻¹(t)·g1(t, orbit(t)) dt, with M the block-rotation
    fundamental matrix.  ``orbit`` maps a time to a normal-form state.
    The transverse monodromy block must be nondegenerate; known integrand
    discontinuities can be passed as ``breakpoints``.
    """
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
    return gauss_quadrature(f, edges) / window


def finite_difference_monodromy(spec, reduced, spectral, eps, orbit, scale=1.0, central=False):
    """Monodromy of the return map at ``orbit.initial_state`` by differences.

    Each column bumps one state component by h = scale·max(1e-7·‖s‖, 1e-8)
    and integrates the bumped state (both ±h with ``central``) over the
    window at the verification tolerances.  The error is the solver's
    noise over h plus the truncation error, about 1e-8 on the builtins.
    """
    from pendavg.filippov import integrate

    s = np.array(orbit.initial_state, dtype=float)

    def return_map(state):
        return np.asarray(integrate(spec, reduced, spectral, eps, state, (0.0, orbit.period_tau)).final_state)

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



def exact_poincare_map(spec, reduced, eps, s0, window, scan_steps=512):
    """The reduced system's flow map over [0, window] by matrix exponentials.

    With frozen region signs σ the field is s′ = M_σ·s + c_σ(τ), where the
    builtins' F coefficients are constants and their K scalars are
    constants, cosines and sines.  So v = [s; cos ω_iτ, sin ω_iτ; 1] obeys
    v′ = B_σ·v with B_σ constant (Van Loan, IEEE TAC 23, 1978), M_σ read
    column by column from :func:`per_call_field` and c_σ from the K tags.
    Each piece marches ``scan_steps`` fixed steps per window with
    ``scipy.linalg.expm``; a level that changes sign is solved by
    ``brentq`` on the exact flow.  At a crossing the monodromy takes the
    saltation matrix I + (f⁺ − f⁻)·e_kᵀ/f⁻[k]; a start on a surface is a
    crossing from the far side in the direction of the level's rate.
    Returns (final state, [(time, surface, kind)], monodromy).
    """
    from scipy.optimize import brentq

    field = per_call_field(spec, reduced, eps)
    for form in spec.F:
        assert all(d.kind == "const" for d in form)
    omegas = sorted({k.omega for k in spec.K if k.kind in ("cos", "sin")})
    n = 4 + 2 * len(omegas) + 1

    def generator(signs):
        out = np.zeros((n, n))
        offset = field(0.0, np.zeros(4), signs)
        for j, unit in enumerate(np.eye(4)):
            out[:4, j] = field(0.0, unit, signs) - offset
        for row, scalar, factor in ((1, spec.K[0], 1.0), (1, spec.K[1], signs[0]),
                                    (3, spec.K[2], 1.0), (3, spec.K[3], signs[1])):
            if scalar.kind == "const":
                out[row, -1] += eps * factor * scalar.value
            else:
                col = 4 + 2 * omegas.index(scalar.omega) + (scalar.kind == "sin")
                out[row, col] += eps * factor * scalar.value
        for i, omega in enumerate(omegas):
            out[4 + 2 * i, 5 + 2 * i] = -omega
            out[5 + 2 * i, 4 + 2 * i] = omega
        return out

    def lift(t, state):
        trig = [f(w * t) for w in omegas for f in (math.cos, math.sin)]
        return np.concatenate((state, trig, [1.0]))

    def cross(t, state, signs, k, phi, events):
        rate = float(field(t, state, tuple(0.0 if j == k else signs[j] for j in range(2)))[2 * k])
        assert abs(rate) > 1e-10, "the oracle follows crossings only"
        events.append((t, k + 1, "crossing"))
        before = list(signs)
        before[k] = -math.copysign(1.0, rate)
        signs[k] = math.copysign(1.0, rate)
        f_in = field(t, state, tuple(before))
        f_out = field(t, state, tuple(signs))
        salt = np.eye(4)
        salt[:, 2 * k] += (f_out - f_in) / f_in[2 * k]
        return salt @ phi

    state = np.array(s0, dtype=float)
    phi = np.eye(4)
    events = []
    signs = [math.copysign(1.0, state[0]), math.copysign(1.0, state[2])]
    t = 0.0
    for k in (0, 1):
        if abs(state[2 * k]) <= 1e-11:
            state[2 * k] = 0.0
            phi = cross(t, state, signs, k, phi, events)
    h = window / scan_steps
    while t < window:
        big = generator(tuple(signs))
        step = expm(big * h)
        v = lift(t, state)
        while t < window:
            dt = min(h, window - t)
            nxt = (step if dt == h else expm(big * dt)) @ v
            # a level that just crossed sits at 0 and leaves with its sign
            active = [k for k in (0, 1) if np.sign(nxt[2 * k]) != signs[k]]
            if active:
                roots = [brentq(lambda d, k=k: (expm(big * d) @ v)[2 * k], 0.0, dt,
                                xtol=1e-15, rtol=4 * np.finfo(float).eps) for k in active]
                d = min(roots)
                k = active[roots.index(d)]
                flow = expm(big * d)
                v = flow @ v
                phi = flow[:4, :4] @ phi
                t += d
                state = v[:4].copy()
                state[2 * k] = 0.0
                phi = cross(t, state, signs, k, phi, events)
                break
            v = nxt
            phi = step[:4, :4] @ phi if dt == h else expm(big * dt)[:4, :4] @ phi
            t += dt
            state = v[:4].copy()
    return state, events, phi


def polyfit_slope(epsilons, residuals) -> float:
    """``np.polyfit``'s least-squares slope of log residual against log ε over
    the finite positive pairs; NaN with fewer than two."""
    eps = np.asarray(epsilons, dtype=float)
    res = np.asarray(residuals, dtype=float)
    mask = np.isfinite(res) & (res > 0.0) & np.isfinite(eps) & (eps > 0.0)
    if int(mask.sum()) < 2:
        return math.nan
    return float(np.polyfit(np.log(eps[mask]), np.log(res[mask]), 1)[0])


def svd_smallest(matrix) -> float:
    """The smallest singular value by ``np.linalg.svd``."""
    return float(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)[-1])


def shooting_matrices(rng, n_random: int = 200):
    """(kind, 4×4 array) pairs: ``n_random`` Gaussian matrices scaled over six
    decades, near-singular ones U·diag(1, 1, 1, σ)·Vᵀ with σ from 1e-6 down
    to 1e-14, and exactly singular ones with small integer entries (a
    repeated row or a zero column), on which elimination meets an exactly
    zero pivot whatever its rounding."""
    for _ in range(n_random):
        yield "random", rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3.0, 3.0)
    for exponent in range(6, 15):
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        yield "near-singular", u @ np.diag([1.0, 0.7, 0.3, 10.0 ** -exponent]) @ v.T
    for _ in range(10):
        a = rng.integers(-5, 6, size=(4, 4)).astype(float)
        repeated, zero_column = a.copy(), a.copy()
        repeated[3] = repeated[1]
        zero_column[:, 2] = 0.0
        yield "singular", repeated
        yield "singular", zero_column


def nonlinear_accelerations(p, phi1, dphi1, phi2, dphi2):
    """(φ̈₁, φ̈₂) of the point-mass double pendulum ``p``, from its
    Euler–Lagrange equations M(φ)·φ̈ = Q(φ, φ̇), solved by ``np.linalg.solve``:

        M = [[(m₁+m₂)l₁², m₂l₁l₂cos(φ₁−φ₂)], [m₂l₁l₂cos(φ₁−φ₂), m₂l₂²]],
        Q = (−m₂l₁l₂φ̇₂² sin(φ₁−φ₂) − (m₁+m₂)gl₁ sin φ₁,
             m₂l₁l₂φ̇₁² sin(φ₁−φ₂) − m₂gl₂ sin φ₂).

    det M = m₂l₁²l₂²(m₁ + m₂sin²(φ₁−φ₂)) > 0.  The motion conserves the
    energy ½(m₁+m₂)l₁²φ̇₁² + ½m₂l₂²φ̇₂² + m₂l₁l₂φ̇₁φ̇₂cos(φ₁−φ₂)
    − (m₁+m₂)gl₁cos φ₁ − m₂gl₂cos φ₂.
    """
    c, sn = math.cos(phi1 - phi2), math.sin(phi1 - phi2)
    coupling = p.m2 * p.l1 * p.l2
    mass = np.array([[(p.m1 + p.m2) * p.l1 ** 2, coupling * c], [coupling * c, p.m2 * p.l2 ** 2]])
    force = np.array([-coupling * dphi2 ** 2 * sn - (p.m1 + p.m2) * p.g * p.l1 * math.sin(phi1),
                      coupling * dphi1 ** 2 * sn - p.m2 * p.g * p.l2 * math.sin(phi2)])
    dd1, dd2 = np.linalg.solve(mass, force)
    return float(dd1), float(dd2)


def nonlinear_return_gap(orbit, phys, eps) -> np.ndarray:
    """Return gap φ(α·pT) − φ(0) of the nonlinear pendulum ``phys``, in its
    own frame, from the physical image of ``orbit.initial_state`` at ``eps``.

    The pendulum runs in the time t = α·τ:
    φ̈ = acc(φ, φ̇) + (ε²/α²)·f(t/α, s, σ), with acc the
    :func:`nonlinear_accelerations`, s = (φ₁/ε, αφ̇₁/ε, φ₂/ε, αφ̇₂/ε) the
    reduced state and f the :func:`unfolded_forcing` in the region signs
    σ = (sgn φ₁, sgn φ₂).  ``solve_ivp`` runs DOP853 at rtol 1e-12 and atol
    1e-14·ε (the package's tolerances, scaled to this frame), with a
    terminal event on each surface φ₁ = 0 and φ₂ = 0.  An event's direction
    is −σ of its surface, so a run restarted on the surface does not stop
    there again.  At a crossing, and at a start on a surface, the surface's
    sign is the side its velocity points to.
    """
    system = orbit.system
    assert reduce_params(phys) == system.reduced, "the pendulum does not reduce to the orbit's constants"
    alpha = system.reduced.alpha
    scale = np.array([eps, eps / alpha, eps, eps / alpha])
    start = scale * np.asarray(orbit.initial_state, dtype=float)
    t_end = alpha * orbit.period_tau
    weight = eps * eps / (alpha * alpha)

    def rhs(t, phi, signs):
        f_y, f_w = unfolded_forcing(system.spec, t / alpha, phi / scale, *signs)
        dd1, dd2 = nonlinear_accelerations(phys, *phi)
        return [phi[1], dd1 + weight * f_y, phi[3], dd2 + weight * f_w]

    def surface(k, sign):
        def level(t, phi, signs):
            return phi[k]

        level.terminal = True
        level.direction = -sign
        return level

    signs = [math.copysign(1.0, start[k] if start[k] != 0.0 else start[k + 1]) for k in (0, 2)]
    t, phi = 0.0, start
    while True:
        sol = solve_ivp(rhs, (t, t_end), phi, method="DOP853", rtol=1e-12, atol=1e-14 * eps,
                        events=[surface(0, signs[0]), surface(2, signs[1])], args=(tuple(signs),))
        assert sol.status >= 0, sol.message
        if sol.status == 0:
            return sol.y[:, -1] - start
        i = 0 if sol.t_events[0].size else 1
        t, phi = float(sol.t_events[i][0]), sol.y_events[i][0]
        signs[i] = math.copysign(1.0, phi[2 * i + 1])


def first_order_displacement(orbit, epsilons=(1e-3, 5e-4)) -> np.ndarray:
    """D = lim T·gap/ε as ε → 0: the normal-form image T·gap of the
    truncated system's return gap from ``orbit.initial_state``, over ε.
    ``filippov.integrate`` runs the window at the two ``epsilons``, and
    their T·gap/ε = D + O(ε) are extrapolated linearly to ε = 0
    (Richardson).  From the family orbit of an amplitude z, D's family
    half is the averaged system's displacement at z."""
    from pendavg.filippov import integrate

    system = orbit.system
    start = np.asarray(orbit.initial_state, dtype=float)

    def scaled(eps):
        run = integrate(system.spec, system.reduced, system.spectral, eps, orbit.initial_state,
                        (0.0, orbit.period_tau))
        return np.asarray(system.transform.forward) @ (np.asarray(run.final_state) - start) / eps

    e1, e2 = epsilons
    return (e1 * scaled(e2) - e2 * scaled(e1)) / (e1 - e2)


def transverse_offset(orbit, epsilons=(1e-4, 5e-5)) -> np.ndarray:
    """ζ, the transverse half of the first-order start of the orbit of a
    zero z*: from (z*, ε·ζ) the transverse gap (R − I)·ε·ζ + ε·D⊥ + O(ε²)
    vanishes at first order, so ζ = −(R − I)⁻¹·D⊥.  D⊥ is the transverse
    half of :func:`first_order_displacement` from the orbit of z*, and R
    the unperturbed rotation of the transverse plane over the window, by
    the other family's frequency times p·T."""
    system = orbit.system
    k = 2 if system.family == 1 else 0
    d_perp = first_order_displacement(orbit, epsilons)[k:k + 2]
    angle = system.spectral.omega(3 - system.family) * orbit.period_tau
    c, sn = math.cos(angle), math.sin(angle)
    return -np.linalg.solve(np.array([[c - 1.0, sn], [-sn, c - 1.0]]), d_perp)


def corrected_orbit(orbit, zeta, eps):
    """``orbit`` started at T⁻¹·(z*, ε·ζ) (family 1; the halves swap on
    family 2): its family half the zero, its transverse half ε·ζ."""
    system = orbit.system
    halves = (orbit.amplitude, eps * np.asarray(zeta))
    point = np.concatenate(halves if system.family == 1 else halves[::-1])
    return orbit._replace(initial_state=tuple(map(float, np.asarray(system.transform.inverse) @ point)))
