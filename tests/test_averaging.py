import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pendavg.averaging as averaging_module
from pendavg import (
    BifurcationSystem,
    DomainError,
    PeriodicScalar,
    LinearForm,
    NumericalError,
    PerturbationSpec,
    PhysicalParams,
    ResonanceError,
    annulus_search,
    bifurcation_values,
    builtin,
    eval_order1_with_signs,
    find_sign_changes,
    jordan_transform,
    reduce_params,
    spectral_data,
    unperturbed_orbit,
)

from .oracles import (
    escapement_closed_pair,
    jacobian,
    malkin_average,
    scan_sign_changes,
    trapezoid_bifurcation,
    two_quadrature_ray_pair,
)

BENCH = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)
GAMMA = 0.5
KAPPA = 0.05
BUILTINS = (
    ("damped_forced", {"gamma": GAMMA}),
    ("damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}),
    ("corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}),
)


@pytest.fixture(scope="module")
def bench():
    reduced = reduce_params(BENCH)
    s = spectral_data(reduced)
    return reduced, s


def system_for(name, params, reduced, s, convention="A"):
    spec = builtin(name, params, s, family=1, p=1)
    return BifurcationSystem(1, spec, reduced, s, convention)


def closed_damped_forced(amp, reduced, s):
    sd = math.sqrt(s.delta)
    t1 = s.period(1)
    return np.array(
        [
            sd * t1 * amp[0],
            -sd * t1 * amp[1] + reduced.b * GAMMA * t1,
        ]
    )


@given(
    u0=st.floats(-2, 2),
    v0=st.floats(-2, 2),
    conv=st.sampled_from(["A", "B"]),
    p=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=50, deadline=None)
def test_find_sign_changes_locates_analytic_roots(u0, v0, conv, p):
    reduced = reduce_params(BENCH)
    s = spectral_data(reduced)
    if math.hypot(u0, v0) < 1e-3:
        with pytest.raises(DomainError):
            find_sign_changes((0.0, 0.0), 1, conv, s, p)
        return
    part = find_sign_changes((u0, v0), 1, conv, s, p)
    omega = s.omega1
    c0, c1 = (u0, v0) if conv == "A" else (v0, u0)
    chi = math.atan2(c1, c0)
    window = p * s.period(1)
    expected = []
    k = math.ceil((-chi - math.pi / 2) / math.pi) - 1
    while True:
        root = (chi + math.pi / 2 + k * math.pi) / omega
        if root > window + 1e-9:
            break
        if root > 1e-9 and root < window - 1e-9:
            expected.append(root)
        k += 1
    got = [t for t in part.breakpoints if 1e-9 < t < window - 1e-9]
    assert len(got) == len(expected)
    assert np.allclose(sorted(got), expected, atol=1e-9)


def test_find_sign_changes_matches_scan(bench):
    _, s = bench
    rng = np.random.default_rng(11)
    cases = [(rng.uniform(-2, 2, size=2), family, conv, p)
             for family in (1, 2) for conv in ("A", "B") for p in (1, 2, 3) for _ in range(20)]
    # c0 = 0: a breakpoint sits on tau = 0 and again on the window end
    cases += [((0.0, 0.8), 1, "A", 1), ((-0.3, 0.0), 2, "B", 2), ((0.0, -1.5), 1, "A", 3)]
    for amp, family, conv, p in cases:
        window = p * s.period(family)
        got = find_sign_changes(amp, family, conv, s, p).breakpoints
        scan = scan_sign_changes(amp, family, conv, s, p)
        inner = [t for t in got if 1e-9 < t < window - 1e-9]
        assert np.allclose(inner, [t for t in scan if 1e-9 < t < window - 1e-9], rtol=0, atol=1e-11)
        c0 = amp[0] if conv == "A" else amp[1]
        if c0 == 0.0:
            assert got[0] == 0.0 and got[-1] == window and len(got) == 2 * p + 1
        else:
            assert len(got) == 2 * p


def test_bifurcation_values_smooth_closed_form(bench):
    reduced, s = bench
    sys = system_for("damped_forced", {"gamma": GAMMA}, reduced, s)
    for amp in [(0.3, 0.4), (-1.1, 0.25), (0.0, 1.0), (2.0, -2.0)]:
        val = bifurcation_values(sys, np.array(amp))
        ref = closed_damped_forced(amp, reduced, s)
        assert np.allclose(val, ref, rtol=1e-9, atol=1e-9), (amp, val, ref)


def test_bifurcation_values_escapement_closed_form(bench):
    reduced, s = bench
    sys = system_for(
        "damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, reduced, s
    )
    pair, _ = escapement_closed_pair(reduced.a, reduced.b, GAMMA, KAPPA)
    for amp in [(0.3, 0.4), (-0.9, 0.35), (0.5, -0.6)]:
        val = bifurcation_values(sys, np.array(amp))
        assert np.allclose(val, pair(amp), rtol=1e-8, atol=1e-8), amp


def test_bifurcation_values_corollary_closed_forms(bench):
    reduced, s = bench
    sd = math.sqrt(s.delta)
    t1 = s.period(1)
    c = reduced.a + reduced.b + sd
    for conv in ("A", "B"):
        sys = system_for(
            "corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, reduced, s, conv
        )
        for amp in [(0.8, 0.1), (-0.5, 0.9), (1.4, -1.2)]:
            x0, y0 = amp
            r = math.hypot(x0, y0)
            if conv == "A":
                ref = np.array(
                    [
                        -sd * t1 * x0 + (4 * c / s.omega1) * y0 / r,
                        sd * t1 * y0 + (4 * c / s.omega1) * x0 / r,
                    ]
                )
            else:
                ref = np.array(
                    [
                        x0 * (-sd * t1 + 4 * c / (r * s.omega1)),
                        y0 * (sd * t1 + 4 * c / (r * s.omega1)),
                    ]
                )
            val = bifurcation_values(sys, np.array(amp))
            assert np.allclose(val, ref, rtol=1e-8, atol=1e-8), (conv, amp)


def random_spec(rng, s, family, p):
    """A random perturbation with harmonic scalars and linear forms."""
    window = p * s.period(family)
    base = 2.0 * math.pi / window

    def scalar():
        kind = rng.integers(0, 3)
        if kind == 0:
            return PeriodicScalar.constant(rng.uniform(-1, 1), window)
        name = "cos" if kind == 1 else "sin"
        harmonic = int(rng.integers(1, 5))
        return PeriodicScalar.harmonic(name, rng.uniform(-1, 1), harmonic * base)

    def form():
        if rng.uniform() < 0.5:
            return LinearForm.zero(window)
        return LinearForm(scalar(), scalar(), scalar(), scalar())

    return PerturbationSpec(
        K=(scalar(), scalar(), scalar(), scalar()),
        F=(form(), form(), form(), form()),
        family=family,
        p=p,
    )


def test_quadrature_against_trapezoid_oracle(bench):
    reduced, s = bench
    rng = np.random.default_rng(7)
    for _ in range(6):
        family = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        spec = random_spec(rng, s, family, p)
        conv = "A" if rng.uniform() < 0.5 else "B"
        sys = BifurcationSystem(family, spec, reduced, s, conv)
        amp = rng.uniform(-1.5, 1.5, size=2)
        if np.hypot(*amp) < 0.1:
            amp = np.array([1.0, 0.5])
        val = bifurcation_values(sys, amp)
        ref = trapezoid_bifurcation(sys, amp, n_points=300_000)
        assert np.linalg.norm(val - ref) <= 1e-7 * max(1.0, np.linalg.norm(ref))


def test_bifurcation_values_match_malkin_average_both_families(bench):
    # The averaged pair is the family-plane Malkin average of the forcing
    # lifted to the normal-form frame, with exact signs of the physical
    # state: G = 2·sqrt(Delta)·p·T·diag(-1, 1)·malkin_average(g1).
    reduced, s = bench
    transform = jordan_transform(reduced, s)
    rng = np.random.default_rng(11)
    for family in (1, 2):
        for p in (1, 2):
            spec = random_spec(rng, s, family, p)
            sys = BifurcationSystem(family, spec, reduced, s, "A")
            amp = rng.uniform(0.3, 1.2, size=2) * rng.choice([-1.0, 1.0], size=2)

            def g1(tau, nf):
                state = transform.inverse @ nf
                f_y, f_w = eval_order1_with_signs(
                    spec, tau, state, np.sign(state[0]), np.sign(state[2])
                )
                return transform.forward @ np.array([0.0, f_y, 0.0, f_w])

            window = p * s.period(family)
            partition = find_sign_changes(amp, family, "A", s, p)
            avg = malkin_average(
                g1, s, lambda tau: unperturbed_orbit(family, amp, tau, s), window,
                family=family, breakpoints=partition.breakpoints,
            )
            ref = 2.0 * math.sqrt(s.delta) * window * np.array([-avg[0], avg[1]])
            val = bifurcation_values(sys, amp)
            assert np.allclose(val, ref, rtol=1e-8, atol=1e-8), (family, p, val, ref)


def test_sgn_convention_changes_values(bench):
    reduced, s = bench
    amp = np.array([0.6, 0.4])
    va = bifurcation_values(
        system_for("damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, reduced, s, "A"),
        amp,
    )
    vb = bifurcation_values(
        system_for("damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, reduced, s, "B"),
        amp,
    )
    assert not np.allclose(va, vb, atol=1e-6)


@given(psi=st.floats(0, 2 * math.pi), x0=st.floats(-1.5, 1.5), y0=st.floats(-1.5, 1.5))
@settings(max_examples=25, deadline=None)
def test_autonomous_spec_rotation_equivariance(psi, x0, y0):
    # For a time-independent perturbation the averaged pair commutes with
    # phase shifts along the family up to an orientation flip:
    # G(R(psi) amp) = R(-psi) G(amp).
    if math.hypot(x0, y0) < 0.2:
        return
    reduced = reduce_params(BENCH)
    s = spectral_data(reduced)
    sys = system_for("corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, reduced, s)
    rot = np.array([[math.cos(psi), -math.sin(psi)], [math.sin(psi), math.cos(psi)]])
    amp = np.array([x0, y0])
    lhs = bifurcation_values(sys, rot @ amp)
    rhs = rot.T @ bifurcation_values(sys, amp)
    assert np.allclose(lhs, rhs, atol=5e-8)


def test_jacobian_matches_closed_form(bench):
    reduced, s = bench
    sys = system_for("damped_forced", {"gamma": GAMMA}, reduced, s)
    sd = math.sqrt(s.delta)
    t1 = s.period(1)
    jac = jacobian(sys, np.array([0.2, 0.5]))
    assert np.allclose(jac, sd * t1 * np.diag([1.0, -1.0]), rtol=1e-6, atol=1e-6)


def ray_systems(rng, reduced, s):
    """40 random specs (random family, p and convention) and the 12
    builtin × family × convention systems."""
    systems = []
    for _ in range(40):
        family = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        conv = "A" if rng.uniform() < 0.5 else "B"
        systems.append(BifurcationSystem(family, random_spec(rng, s, family, p), reduced, s, conv))
    for name, params in BUILTINS:
        for family in (1, 2):
            for conv in ("A", "B"):
                spec = builtin(name, params, s, family=family, p=1)
                systems.append(BifurcationSystem(family, spec, reduced, s, conv))
    return systems


def test_averaged_pair_is_affine_along_rays(bench):
    # The orbit is linear in the amplitude and the sgn pattern depends only
    # on its direction: G(r·e) = r·L + C with L, C taken at radii 1 and 2.
    reduced, s = bench
    rng = np.random.default_rng(17)
    for sys in ray_systems(rng, reduced, s):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        unit = np.array([math.cos(theta), math.sin(theta)])
        g1, g2 = bifurcation_values(sys, unit), bifurcation_values(sys, 2.0 * unit)
        lin, const = g2 - g1, 2.0 * g1 - g2
        for r in rng.uniform(0.05, 3.0, size=2):
            val = bifurcation_values(sys, r * unit)
            size = max(np.linalg.norm(val), r * np.linalg.norm(lin), np.linalg.norm(const))
            assert np.linalg.norm(val - (r * lin + const)) <= 1e-12 * size, (sys.spec, theta, r)


def test_one_pass_ray_pair_matches_two_quadratures(bench):
    # L and C from one quadrature over the parts of the forcing against
    # L = G(2e) − G(e) and C = 2G(e) − G(2e) from two full quadratures,
    # relative to the larger of 1 and ‖(L, C)‖ as the quadrature's own
    # stopping rule is: one random spec has no resonant term, G ≡ 0, and
    # both sides are rounding noise of 1e-15
    reduced, s = bench
    rng = np.random.default_rng(17)
    for sys in ray_systems(rng, reduced, s):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        lin, const = averaging_module._ray_pair(sys, theta)
        ref_lin, ref_const = two_quadrature_ray_pair(sys, theta)
        gap = np.linalg.norm(np.concatenate((lin - ref_lin, const - ref_const)))
        size = max(1.0, np.linalg.norm(np.concatenate((ref_lin, ref_const))))
        assert gap <= 1e-12 * size, (sys.spec, theta)


def test_annulus_search_det_matches_oracle_jacobian(bench):
    reduced, s = bench
    sys = system_for("damped_forced", {"gamma": GAMMA}, reduced, s)
    (cert,) = annulus_search(sys, 0.05, 2.0, 12)
    assert cert.simple
    oracle = float(np.linalg.det(jacobian(sys, np.array(cert.point))))
    assert cert.det == pytest.approx(oracle, rel=1e-5)
    assert cert.det == pytest.approx(-s.delta * s.period(1) ** 2, rel=1e-5)
    assert cert.index == np.sign(cert.det)


def test_annulus_search_unforced_is_empty(bench):
    reduced, s = bench
    # without forcing C ≡ 0, so h ≡ 0 and every root of h puts r* at the
    # excluded origin
    sys = system_for("damped_forced", {"gamma": 0.0}, reduced, s)
    assert annulus_search(sys, 0.05, 2.0, 12) == []


def test_annulus_search_damped_forced(bench):
    reduced, s = bench
    sys = system_for("damped_forced", {"gamma": GAMMA}, reduced, s)
    certs = annulus_search(sys, 0.05, 2.0, 12)
    simple = [c for c in certs if c.simple]
    assert len(simple) == 1
    ybar = reduced.b * GAMMA / math.sqrt(s.delta)
    assert np.allclose(simple[0].point, [0.0, ybar], atol=1e-8)


def test_annulus_search_corollary_zero_sets(bench):
    reduced, s = bench
    rstar = 2.0 * (reduced.a + reduced.b + math.sqrt(s.delta)) / (
        math.sqrt(s.delta) * math.pi
    )
    sys_b = system_for(
        "corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, reduced, s, "B"
    )
    certs = annulus_search(sys_b, 0.2, 3.0, 12)
    points = sorted(c.point for c in certs if c.simple)
    assert len(points) == 2
    assert np.allclose(points, [[-rstar, 0.0], [rstar, 0.0]], atol=1e-8)
    sys_a = system_for(
        "corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, reduced, s, "A"
    )
    assert annulus_search(sys_a, 0.2, 3.0, 12) == []


def test_annulus_search_deterministic(bench):
    reduced, s = bench
    sys = system_for("damped_forced", {"gamma": GAMMA}, reduced, s)
    first, second = annulus_search(sys, 0.05, 2.0, 8), annulus_search(sys, 0.05, 2.0, 8)
    assert [(c.point, c.det, c.index) for c in first] == [(c.point, c.det, c.index) for c in second]


def test_annulus_search_validates_arguments(bench):
    reduced, s = bench
    sys = system_for("damped_forced", {"gamma": GAMMA}, reduced, s)
    with pytest.raises(DomainError):
        annulus_search(sys, 0.5, 0.2, 12)
    with pytest.raises(DomainError):
        annulus_search(sys, 0.05, 2.0, 4)


def random_bracketed_functions(rng, count):
    """Cubic-plus-sine functions with a bracket [a, b] on which they change sign."""
    found = []
    while len(found) < count:
        coeffs = rng.normal(size=4)
        amp, freq = rng.normal(), rng.uniform(0.5, 20.0)

        def f(x, coeffs=coeffs, amp=amp, freq=freq):
            return float(np.polyval(coeffs, x) + amp * math.sin(freq * x))

        a, b = np.sort(rng.uniform(-3.0, 3.0, size=2))
        if f(a) * f(b) < 0.0:
            found.append((f, float(a), float(b)))
    return found


def test_brent_matches_scipy_brentq_bit_for_bit():
    from scipy.optimize import brentq

    rng = np.random.default_rng(20261018)
    for f, a, b in random_bracketed_functions(rng, 300):
        expected = brentq(f, a, b)
        assert averaging_module._brent(f, a, b, f(a), f(b)) == expected, (a, b)


def test_brent_returns_an_exact_zero_at_a_bracket_end():
    def never(x):
        raise AssertionError("f must not be evaluated")

    assert averaging_module._brent(never, 0.25, 1.0, 0.0, 3.0) == 0.25
    assert averaging_module._brent(never, 0.25, 1.0, -3.0, 0.0) == 1.0


def test_brent_exhausted_budget_raises_numerical_error(monkeypatch):
    monkeypatch.setattr(averaging_module, "BRENT_MAXITER", 3)
    with pytest.raises(NumericalError, match="did not converge"):
        averaging_module._brent(lambda x: x ** 3 - 2.0, 0.0, 2.0, -2.0, 6.0)


def test_malkin_average_against_dense_trapezoid(bench):
    reduced, s = bench

    def g1(tau, state):
        return np.array([0.0, math.cos(s.omega1 * tau) - state[1], 0.0, -state[3]])

    def orbit(tau):
        c, sn = math.cos(s.omega1 * tau), math.sin(s.omega1 * tau)
        return np.array([0.7 * c + 0.2 * sn, 0.2 * c - 0.7 * sn, 0.0, 0.0])

    window = s.period(1)
    got = malkin_average(g1, s, orbit, window)
    from pendavg import fundamental_matrix

    taus = np.linspace(0.0, window, 200_001)
    vals = np.empty((2, taus.size))
    for i, tau in enumerate(taus):
        vals[:, i] = (np.linalg.inv(fundamental_matrix(s, tau)) @ g1(tau, orbit(tau)))[:2]
    ref = np.trapezoid(vals, taus, axis=1) / window
    assert np.allclose(got, ref, atol=1e-9)


def test_malkin_average_window_validation(bench):
    reduced, s = bench

    def g1(tau, state):
        return np.zeros(4)

    with pytest.raises(DomainError):
        malkin_average(g1, s, lambda tau: np.zeros(4), 1.37 * s.period(1))


def test_malkin_average_resonant_spectrum_raises():
    from .test_model import resonant_b

    b = resonant_b(2.0, 3.0)
    reduced = reduce_params(PhysicalParams(1.0, 1.0, 1.0, 2.0 / b, 9.8))
    s = spectral_data(reduced)

    def g1(tau, state):
        return np.zeros(4)

    with pytest.raises(ResonanceError):
        malkin_average(g1, s, lambda tau: np.zeros(4), s.period(1))
