import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pendavg.averaging as averaging_module
from pendavg.averaging import (
    MAX_SCAN_PANELS,
    BifurcationSystem,
    annulus_search,
    bifurcation_values,
    check_search,
)
from pendavg.errors import DomainError, NumericalError, ResonanceError
from pendavg.model import (
    PhysicalParams,
    jordan_transform,
    reduce_params,
    spectral_data,
)
from pendavg.perturbation import (
    PeriodicScalar,
    PerturbationSpec,
    builtin,
)
from pendavg.verify import orbit_from_amplitude

from .oracles import (
    escapement_closed_pair,
    first_order_displacement,
    fundamental_matrix,
    gauss_ray_pair,
    jacobian,
    malkin_average,
    scan_sign_changes,
    trapezoid_bifurcation,
    unfolded_forcing,
    unperturbed_orbit,
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


def sgn_system(family, conv, p, reduced, s):
    """A system without tables: its panel edges are 0, the sgn breakpoints
    and the window end."""
    return BifurcationSystem(family, builtin("damped_forced", {"gamma": GAMMA}, s, family=family, p=p),
                             reduced, s, conv)


def table_spec(s, knots=256, p=1):
    """The README escapement with K₁ = 0.5·cos(ω₁τ) as a table of ``knots``
    knots over T₁, the spec of `table_ini` in ``tests/test_cli.py``."""
    esc = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s, family=1, p=p)
    taus = np.arange(knots) * (s.period1 / knots)
    table = PeriodicScalar.from_table(taus, GAMMA * np.cos(s.omega1 * taus))
    return PerturbationSpec(K=(table, *esc.K[1:]), F=esc.F, p=p)


@given(
    u0=st.floats(-2, 2),
    v0=st.floats(-2, 2),
    conv=st.sampled_from(["A", "B"]),
    p=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=50, deadline=None)
def test_panel_edges_locate_analytic_roots(u0, v0, conv, p):
    reduced = reduce_params(BENCH)
    s = spectral_data(reduced)
    sys = sgn_system(1, conv, p, reduced, s)
    if math.hypot(u0, v0) < 1e-3:
        with pytest.raises(DomainError):
            bifurcation_values(sys, (0.0, 0.0))
        return
    edges = averaging_module._panel_edges(sys, (u0, v0))
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
    got = [t for t in edges if 1e-9 < t < window - 1e-9]
    assert len(got) == len(expected)
    assert np.allclose(sorted(got), expected, atol=1e-9)


def test_panel_edges_match_scan(bench):
    reduced, s = bench
    rng = np.random.default_rng(11)
    cases = [(rng.uniform(-2, 2, size=2), family, conv, p)
             for family in (1, 2) for conv in ("A", "B") for p in (1, 2, 3) for _ in range(20)]
    # c0 = 0: a breakpoint sits on tau = 0 and again on the window end
    cases += [((0.0, 0.8), 1, "A", 1), ((-0.3, 0.0), 2, "B", 2), ((0.0, -1.5), 1, "A", 3)]
    for amp, family, conv, p in cases:
        window = p * s.period(family)
        edges = averaging_module._panel_edges(sgn_system(family, conv, p, reduced, s), amp)
        assert np.array(edges).tobytes() == np.unique(edges).tobytes()
        assert edges[0] == 0.0 and edges[-1] == window
        scan = scan_sign_changes(amp, family, conv, s, p)
        inner = [t for t in edges if 1e-9 < t < window - 1e-9]
        assert np.allclose(inner, [t for t in scan if 1e-9 < t < window - 1e-9], rtol=0, atol=1e-11)
        c0 = amp[0] if conv == "A" else amp[1]
        assert len(edges) == (2 * p + 1 if c0 == 0.0 else 2 * p + 2)


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
            return (PeriodicScalar.constant(0.0, window),) * 4
        return (scalar(), scalar(), scalar(), scalar())

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


def test_table_forcing_against_trapezoid_oracle(bench):
    # linear interpolation kinks at every knot, which the table's primitive
    # integrates knot interval by knot interval; K₁ is the escapement's
    # forcing tabulated at the fewest samples
    reduced, s = bench
    esc = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s)
    spec = table_spec(s)
    for conv, amp in (("A", (-0.075, 0.34)), ("B", (0.9, -0.4))):
        sys = BifurcationSystem(1, spec, reduced, s, conv)
        val = bifurcation_values(sys, np.array(amp))
        ref = trapezoid_bifurcation(sys, amp, n_points=300_000)
        assert np.linalg.norm(val - ref) <= 1e-7 * max(1.0, np.linalg.norm(ref)), conv
    (table_zero,) = [c for c in annulus_search(BifurcationSystem(1, spec, reduced, s), 0.05, 2.0, 8) if c.simple]
    (zero,) = [c for c in annulus_search(BifurcationSystem(1, esc, reduced, s), 0.05, 2.0, 8) if c.simple]
    assert np.linalg.norm(np.subtract(table_zero.point, zero.point)) < 1e-4


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
                f_y, f_w = unfolded_forcing(spec, tau, state, np.sign(state[0]), np.sign(state[2]))
                return transform.forward @ np.array([0.0, f_y, 0.0, f_w])

            window = p * s.period(family)
            avg = malkin_average(
                g1, s, lambda tau: unperturbed_orbit(family, amp, tau, s), window,
                family=family, breakpoints=scan_sign_changes(amp, family, "A", s, p),
            )
            ref = 2.0 * math.sqrt(s.delta) * window * np.array([-avg[0], avg[1]])
            val = bifurcation_values(sys, amp)
            assert np.allclose(val, ref, rtol=1e-8, atol=1e-8), (family, p, val, ref)


def test_first_order_displacement_is_the_averaged_pair_at_every_amplitude(bench):
    # The integrator's first-order displacement in the family plane is
    # diag(-1, 1)*G(z)/(2*sqrt(Delta)) at every amplitude z under convention
    # A, not only at the zeros: first-order averaging itself.  Under B it
    # misses by at least 1e-2 wherever G_B differs from G_A by 1e-2 of |G_A|
    # (random spec #4, family 1 and p = 2, has G_B = G_A).  Six amplitudes
    # off the zeros, 0.2 <= |z| <= 1.5, per builtin, family and p in {1, 2},
    # and per random spec.  The miss under A is the displacement's
    # Richardson remainder, O(eps^2), here from eps = 5e-4 and 2.5e-4: at
    # most 6.9e-5, on the corollary in family 1 at p = 2 (2.75e-4 from the
    # default 1e-3 and 5e-4).  216 integrations, about 1.4 s.
    reduced, s = bench
    rng = np.random.default_rng(5)
    scale = np.array([-1.0, 1.0]) / (2.0 * math.sqrt(s.delta))
    cases = [(name, family, p, builtin(name, params, s, family=family, p=p))
             for p in (1, 2) for name, params in BUILTINS for family in (1, 2)]
    spec_rng = np.random.default_rng(11)
    for i in range(6):
        family, p = int(spec_rng.integers(1, 3)), int(spec_rng.integers(1, 3))
        cases.append((f"random #{i}", family, p, random_spec(spec_rng, s, family, p)))
    for name, family, p, spec in cases:
        systems = {c: BifurcationSystem(family, spec, reduced, s, c) for c in "AB"}
        zeros = [cert.point for system in systems.values() for cert in annulus_search(system, 0.05, 2.0, 8)]
        amplitudes = []
        while len(amplitudes) < 6:
            r, theta = rng.uniform(0.2, 1.5), rng.uniform(0.0, 2.0 * math.pi)
            z = (r * math.cos(theta), r * math.sin(theta))
            if all(math.dist(z, q) > 0.1 for q in zeros):
                amplitudes.append(z)
        k = 0 if family == 1 else 2
        for z in amplitudes:
            orbit = orbit_from_amplitude(systems["A"], z)
            displacement = first_order_displacement(orbit, (5e-4, 2.5e-4))[k:k + 2]
            g_a, g_b = (np.asarray(bifurcation_values(systems[c], z)) for c in "AB")
            assert np.linalg.norm(displacement - scale * g_a) <= 1e-4 * np.linalg.norm(scale * g_a), (name, p, z)
            if np.linalg.norm(g_a - g_b) >= 1e-2 * np.linalg.norm(g_a):
                miss = np.linalg.norm(displacement - scale * g_b) / np.linalg.norm(scale * g_b)
                assert miss >= 1e-2, (name, family, p, z, miss)


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
        g1, g2 = np.array(bifurcation_values(sys, unit)), np.array(bifurcation_values(sys, 2.0 * unit))
        lin, const = g2 - g1, 2.0 * g1 - g2
        for r in rng.uniform(0.05, 3.0, size=2):
            val = np.array(bifurcation_values(sys, r * unit))
            size = max(np.linalg.norm(val), r * np.linalg.norm(lin), np.linalg.norm(const))
            assert np.linalg.norm(val - (r * lin + const)) <= 1e-12 * size, (sys.spec, theta, r)


def test_ray_batch_equals_its_rows(bench):
    # The scan's one call over all its angles gives every ray the bits of
    # Brent's one-angle call, slopes (L′, C′) included, on rays of every
    # panel count: θ = π/2, 3π/2 put a sgn breakpoint on τ = 0.  (L, C) is
    # the averaged pair's affine form:
    # G(r·e_θ) = r·L + C at r = 1 and 2.
    reduced, s = bench
    specs = [(table_spec(s), 1)]
    specs += [(builtin(name, params, s, family=family, p=1), family)
              for name, params in BUILTINS for family in (1, 2)]
    n = 4 * 9
    thetas = (2.0 * math.pi * np.arange(n) / n).tolist()
    for spec, family in specs:
        for conv in ("A", "B"):
            sys = BifurcationSystem(family, spec, reduced, s, conv)
            units = [np.array([math.cos(t), math.sin(t)]) for t in thetas]
            assert len({len(averaging_module._panel_edges(sys, unit)) for unit in units}) > 1
            batch = averaging_module._ray_pairs(sys, thetas)
            for theta, unit, (lin, const, slope_lin, slope_const) in zip(thetas, units, batch):
                row = [(lin, const, slope_lin, slope_const)]
                assert averaging_module._ray_pairs(sys, [theta]) == row, (family, conv, theta)
                lin, const = np.array(lin), np.array(const)
                for r in (1.0, 2.0):
                    val = np.array(bifurcation_values(sys, r * unit))
                    size = max(np.linalg.norm(val), r * np.linalg.norm(lin), np.linalg.norm(const))
                    assert np.linalg.norm(val - (r * lin + const)) <= 1e-12 * size, (family, conv, theta, r)


def reference_systems(reduced, s):
    """The 3 builtins × families 1, 2 × conventions A, B × p = 1, 2, then 40
    random specs (rng 11) and the 256-knot table spec under A and B."""
    rng = np.random.default_rng(11)
    builtins = [BifurcationSystem(family, builtin(name, params, s, family=family, p=p), reduced, s, conv)
                for name, params in BUILTINS for family in (1, 2) for conv in ("A", "B") for p in (1, 2)]
    others = []
    for _ in range(40):
        family, p = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        conv = "A" if rng.uniform() < 0.5 else "B"
        others.append(BifurcationSystem(family, random_spec(rng, s, family, p), reduced, s, conv))
    others += [BifurcationSystem(1, table_spec(s), reduced, s, conv) for conv in ("A", "B")]
    return builtins, others


REFERENCE_THETAS = (2.0 * math.pi * np.arange(24) / 24).tolist()


def richardson_slopes(sys, theta):
    """(L′, C′) on the ray θ by the Richardson extrapolation of central
    differences of (L, C) at steps 1e-4 and 5e-5."""
    def central(step):
        pairs = [np.concatenate(ray[:2]) for ray in averaging_module._ray_pairs(sys, [theta + step, theta - step])]
        return (pairs[0] - pairs[1]) / (2.0 * step)

    return (4.0 * central(5e-5) - central(1e-4)) / 3.0


def test_closed_form_ray_pairs_match_gauss_reference(bench):
    # (L, C) from the closed-form panel integrals against composite Gauss
    # on the same panels, at 24 angles (π/2 and 3π/2 among them), on the
    # reference systems, relative to the larger of 1 and ‖(L, C)‖ (a
    # random spec without a resonant term has G ≡ 0)
    builtins, others = reference_systems(*bench)
    for systems, bound in ((builtins, 1e-14), (others, 1e-13)):
        for sys in systems:
            for theta, (lin, const, _, _) in zip(REFERENCE_THETAS, averaging_module._ray_pairs(sys, REFERENCE_THETAS)):
                ref = np.concatenate(gauss_ray_pair(sys, theta))
                gap = np.linalg.norm(np.concatenate((lin, const)) - ref)
                assert gap <= bound * max(1.0, np.linalg.norm(ref)), (sys.spec, theta, gap)


def test_closed_form_matches_the_escapement_closed_pair(bench):
    # the hand-written averaged pair of the escapement builtin (convention
    # A) and its Newton-refined zero
    reduced, s = bench
    sys = system_for("damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, reduced, s)
    pair, point = escapement_closed_pair(reduced.a, reduced.b, GAMMA, KAPPA)
    rng = np.random.default_rng(23)
    for amp in rng.uniform(-2.0, 2.0, size=(200, 2)):
        ref = pair(amp)
        gap = np.linalg.norm(np.subtract(bifurcation_values(sys, amp), ref))
        assert gap <= 1e-13 * max(1.0, np.linalg.norm(ref)), amp
    (cert,) = [c for c in annulus_search(sys, 0.05, 2.0, 24) if c.simple]
    assert np.linalg.norm(np.subtract(cert.point, point)) <= 1e-11


def test_ray_slopes_match_a_richardson_difference(bench):
    # (L′, C′) in closed form against the Richardson extrapolation of central
    # differences of (L, C) at steps 1e-4 and 5e-5, on the reference systems
    # at the same 24 angles: θ = π/2, 3π/2 move a breakpoint through τ = 0
    # under A, θ = 0, π under B, and the table's breakpoints cross knots.
    # Relative to the largest of ‖L‖, ‖C‖, ‖L′‖ and ‖C′‖, since a ray where
    # G nearly vanishes can have slopes 500 times its values; rays where
    # G ≡ 0 up to rounding are skipped.
    builtins, others = reference_systems(*bench)
    rays = 0
    for sys in builtins + others:
        for theta, ray in zip(REFERENCE_THETAS, averaging_module._ray_pairs(sys, REFERENCE_THETAS)):
            lin, const, slope_lin, slope_const = (np.array(part) for part in ray)
            if max(np.linalg.norm(lin), np.linalg.norm(const)) < 1e-8:
                continue
            scale = max(np.linalg.norm(part) for part in (lin, const, slope_lin, slope_const))
            gap = np.linalg.norm(np.concatenate((slope_lin, slope_const)) - richardson_slopes(sys, theta))
            assert gap <= 1e-9 * scale, (sys.spec, sys.sgn_convention, theta, gap / scale)
            rays += 1
    assert rays > 1000


def test_a_breakpoint_on_a_knot_matches_the_references(bench):
    # θ puts a sgn breakpoint of the ray on knot j of the 256-knot table, or
    # within 1 ulp of it, under A and B: the table's primitive is read at
    # the knot itself.  (L, C) against composite Gauss split at the knots
    # and (L′, C′) against the Richardson difference, at the bounds of the
    # two reference tests.
    reduced, s = bench
    spec = table_spec(s)
    knots = spec.K[0].knots[0]
    for conv in ("A", "B"):
        sys = BifurcationSystem(1, spec, reduced, s, conv)
        for j in (37, 100, 201):
            turn = j * 2.0 * math.pi / 256
            theta = turn - 0.5 * math.pi if conv == "A" else math.pi - turn
            edges = averaging_module._panel_edges(sys, (math.cos(theta), math.sin(theta)))
            assert min(abs(edge - knots[j]) for edge in edges) <= math.ulp(knots[j]), (conv, j)
            ((lin, const, slope_lin, slope_const),) = averaging_module._ray_pairs(sys, [theta])
            ref = np.concatenate(gauss_ray_pair(sys, theta))
            gap = np.linalg.norm(np.concatenate((lin, const)) - ref)
            assert gap <= 1e-13 * max(1.0, np.linalg.norm(ref)), (conv, j, gap)
            scale = max(np.linalg.norm(part) for part in (lin, const, slope_lin, slope_const))
            gap = np.linalg.norm(np.concatenate((slope_lin, slope_const)) - richardson_slopes(sys, theta))
            assert gap <= 1e-9 * scale, (conv, j, gap / scale)


def test_a_ray_reads_its_tables_a_fixed_number_of_times(bench, monkeypatch):
    # A ray integrates its 2p + 1 sign panels, each table term as a
    # difference of a primitive built once per system: its table reads do
    # not grow with the knot count, and a table mode costs at most three
    # per sign panel (a partial knot interval at each end and P at a
    # breakpoint).  K₁ and the signed K₂ are tables here.
    reduced, s = bench
    calls = []
    piece = PeriodicScalar.piece
    monkeypatch.setattr(PeriodicScalar, "piece", lambda self, tau: calls.append(tau) or piece(self, tau))

    def reads(sys, theta):
        calls.clear()
        averaging_module._ray_pairs(sys, [theta])
        return len(calls)

    for p in (1, 2):
        for conv in ("A", "B"):
            counts = []
            for knots in (256, 4096):
                spec = table_spec(s, knots, p)
                spec = PerturbationSpec(K=(spec.K[0], spec.K[0], *spec.K[2:]), F=spec.F, p=p)
                sys = BifurcationSystem(1, spec, reduced, s, conv)
                averaging_module._ray_pairs(sys, [0.0])
                modes = sum(table is not None for _, _, table, _, _, _ in sys.modes)
                counts.append([reads(sys, theta) for theta in (0.3, 0.3, 2.0)])
                assert counts[-1][0] == counts[-1][1], (p, conv, knots)
                assert 0 < max(counts[-1]) <= 3 * (2 * p + 1) * modes, (p, conv, knots, modes)
            assert counts[0] == counts[1], (p, conv)


def test_damped_forced_det_is_exact(bench):
    # G(z) = √Δ·T·diag(1, −1)·z + const in both families, so det J = −Δ·T²
    reduced, s = bench
    for family in (1, 2):
        spec = builtin("damped_forced", {"gamma": GAMMA}, s, family=family, p=1)
        (cert,) = annulus_search(BifurcationSystem(family, spec, reduced, s, "A"), 0.05, 2.0, 12)
        assert cert.simple and cert.index == -1
        assert cert.det == pytest.approx(-s.delta * s.period(family) ** 2, rel=1e-12, abs=0.0), family


def test_simplicity_reads_neither_radius(bench):
    # the escapement's zero at radius 0.0736 (‖G‖ 2.3e-13, det −539) is
    # simple whatever the outer radius of the annulus around it
    reduced, s = bench
    sys = system_for("damped_forced_escapement", {"gamma": 0.5, "kappa": 0.225}, reduced, s)
    certs = [annulus_search(sys, 1e-3, r2, 24) for r2 in (0.5, 2.0, 10.0, 1e3)]
    assert all(found == certs[0] for found in certs)
    (cert,) = certs[0]
    assert cert.simple and cert.index == -1
    assert math.hypot(*cert.point) == pytest.approx(0.0736, abs=1e-4)


def test_a_vanishing_pair_has_no_simple_zero(bench):
    # Spec 46 of a 200-spec draw (rng 11: family, p, random_spec, then the
    # convention) has no resonant term, so L and C are rounding noise and h
    # changes sign all round the circle.  Its rays carry noise zeros, and
    # ‖G‖ there is never small against ‖C‖, so none of them is simple.
    reduced, s = bench
    rng = np.random.default_rng(11)
    for _ in range(47):
        family, p = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        spec = random_spec(rng, s, family, p)
        conv = "AB"[rng.integers(0, 2)]
    sys = BifurcationSystem(family, spec, reduced, s, conv)
    for r2 in (2.0, 1e3):
        certs = annulus_search(sys, 0.05, r2, 8)
        assert certs and not any(cert.simple for cert in certs), r2


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
    # forcing alone, K₁ = 0.5·cos(ω₁τ): L is exactly (0, 0) on every ray, so
    # h ≡ 0 and no ray has a radius
    zero = PeriodicScalar.constant(0.0, s.period(1))
    forcing = PerturbationSpec(K=(PeriodicScalar.harmonic("cos", 0.5, s.omega1), zero, zero, zero),
                               F=((zero,) * 4,) * 4)
    assert annulus_search(BifurcationSystem(1, forcing, reduced, s, "A"), 0.05, 2.0, 8) == []


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


# κ/γ thresholds of the escapement's existence condition under convention A,
# c = (π/4)·2b/(a + b + √Δ) on family 1 and (π/4)·2b/(3b − a + √Δ) on
# family 2, from scripts/derive_oracles.py, per (m1, m2, l1, l2) and family.
ESCAPEMENT_THRESHOLDS = {
    ((1.0, 1.0, 1.0, 1.0), 1): 0.46007559225530503,
    ((1.0, 1.0, 1.0, 1.0), 2): 0.46007559225530503,
    ((2.0, 1.0, 1.0, 0.5), 1): 0.6392036296161204,
    ((2.0, 1.0, 1.0, 0.5), 2): 0.45432521867807324,
}


@pytest.mark.parametrize("pendulum, family", list(ESCAPEMENT_THRESHOLDS))
def test_escapement_has_a_zero_exactly_below_its_threshold(pendulum, family):
    # the escapement kicks κ·sgn work against the forcing γ·cos: one
    # simple zero just below κ/γ = c, for every p and γ, and none above
    reduced = reduce_params(PhysicalParams(*pendulum, 9.8))
    s = spectral_data(reduced)
    threshold = ESCAPEMENT_THRESHOLDS[pendulum, family]
    for p in (1, 2):
        for gamma in (0.1, 0.5, 2.0):
            for factor, count in ((1.0 - 1e-3, 1), (1.0 + 1e-3, 0)):
                params = {"gamma": gamma, "kappa": factor * threshold * gamma}
                spec = builtin("damped_forced_escapement", params, s, family=family, p=p)
                zeros = annulus_search(BifurcationSystem(family, spec, reduced, s, "A"), 1e-4, 1e3, 24)
                assert [zero.simple for zero in zeros] == [True] * count, (p, gamma, factor)


# The escapement's zero z* = z₀·cos φ·e^{iφ}, sin φ = κ/(cγ), at γ = 0.5 and
# κ = q·c·γ, from scripts/derive_oracles.py: on the circle whose diameter
# runs from 0 to damped_forced's zero z₀, the same turn on both families.
ESCAPEMENT_ZEROS = {
    ((1.0, 1.0, 1.0, 1.0), 1): {0.2: (-0.06928203230275508, 0.3394112549695427),
                                0.7: (-0.17674133642133633, 0.1803122292025696),
                                0.99: (-0.04937609492456853, 0.007035712472806153)},
    ((1.0, 1.0, 1.0, 1.0), 2): {0.2: (0.06928203230275508, -0.3394112549695427),
                                0.7: (0.17674133642133633, -0.1803122292025696),
                                0.99: (0.04937609492456853, -0.007035712472806153)},
    ((2.0, 1.0, 1.0, 0.5), 1): {0.2: (-0.10233634385069301, 0.5013436491524098),
                                0.7: (-0.2610642554133856, 0.2663388136122177),
                                0.99: (-0.07293332571602644, 0.01039243606055517)},
    ((2.0, 1.0, 1.0, 0.5), 2): {0.2: (0.10233634385069301, -0.5013436491524098),
                                0.7: (0.2610642554133856, -0.2663388136122177),
                                0.99: (0.07293332571602644, -0.01039243606055517)},
}


@pytest.mark.parametrize("pendulum, family", list(ESCAPEMENT_ZEROS))
def test_escapement_zero_lies_on_its_circle(pendulum, family):
    # below the threshold the search finds exactly the closed-form zero, for p 1 and 2
    reduced = reduce_params(PhysicalParams(*pendulum, 9.8))
    s = spectral_data(reduced)
    for p in (1, 2):
        for q, point in ESCAPEMENT_ZEROS[pendulum, family].items():
            params = {"gamma": 0.5, "kappa": q * ESCAPEMENT_THRESHOLDS[pendulum, family] * 0.5}
            spec = builtin("damped_forced_escapement", params, s, family=family, p=p)
            (zero,) = annulus_search(BifurcationSystem(family, spec, reduced, s, "A"), 1e-6, 1e3, 24)
            assert math.dist(zero.point, point) <= 1e-14 * math.hypot(*point), (p, q)


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


def test_check_search_bounds_the_scan_work():
    # 4·grid rays of 2p + 1 panels each, tables or not; no scan is started here
    assert MAX_SCAN_PANELS == 1_000_000
    assert check_search(0.05, 2.0, 83333, 1) is None  # 999996 panels
    assert check_search(0.05, 2.0, 8, 15624) is None  # 999968 panels
    for grid, p, panels in [(83334, 1, 1000008), (8, 15625, 1000032), (10**8, 1, 1200000000),
                            (8, 10**9, 64000000032)]:
        with pytest.raises(DomainError) as info:
            check_search(0.05, 2.0, grid, p)
        assert str(info.value) == (f"grid = {grid} and [model] p = {p} ask for a scan of {panels} panels, "
                                   "more than 1000000")


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


def test_brent_refuses_a_bracket_without_a_sign_change():
    def never(x):
        raise AssertionError("f must not be evaluated")

    for fa, fb in ((1.0, 3.0), (-1.0, -3.0)):
        with pytest.raises(DomainError, match="needs a sign change"):
            averaging_module._brent(never, 0.25, 1.0, fa, fb)


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
