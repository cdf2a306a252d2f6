import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from pendavg.errors import DomainError, ResonanceError
from pendavg.model import (
    PhysicalParams,
    jordan_transform,
    monodromy_lower_block,
    reduce_params,
    spectral_data,
)

from .oracles import (
    eig_frequencies,
    expm_monodromy_det,
    fundamental_matrix,
    linear_matrix,
    nonlinear_accelerations,
    resonant_b,
    unperturbed_orbit,
)

BENCH = PhysicalParams(m1=1.0, m2=1.0, l1=1.0, l2=1.0, g=9.8)

positive = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
gravity = st.floats(min_value=1.0, max_value=30.0, allow_nan=False)


def bench_spectral():
    reduced = reduce_params(BENCH)
    return reduced, spectral_data(reduced)


def test_reduce_params_bench_values():
    reduced = reduce_params(BENCH)
    assert reduced.a == 2.0
    assert reduced.b == 2.0
    assert reduced.alpha == pytest.approx(0.3194382824999699, rel=0, abs=1e-16)


def test_physical_params_validation():
    with pytest.raises(DomainError):
        PhysicalParams(m1=-1.0, m2=1.0, l1=1.0, l2=1.0, g=9.8)
    with pytest.raises(DomainError):
        PhysicalParams(m1=1.0, m2=0.0, l1=1.0, l2=1.0, g=9.8)
    with pytest.raises(DomainError):
        PhysicalParams(m1=1.0, m2=1.0, l1=1.0, l2=1.0, g=0.0)


def test_reduce_params_refuses_a_that_rounds_to_one():
    # a = 1 + m1/m2 is 1.0 in floating point once m1/m2 is below half an ulp of 1
    with pytest.raises(DomainError, match=r"^reduced parameter a must exceed 1, got 1\.0$"):
        reduce_params(PhysicalParams(m1=1e-20, m2=1.0, l1=1.0, l2=1.0, g=9.8))
    assert reduce_params(PhysicalParams(m1=1e-15, m2=1.0, l1=1.0, l2=1.0, g=9.8)).a > 1.0


@given(m1=positive, m2=positive, l1=positive, l2=positive, g=gravity)
@settings(max_examples=60, deadline=None)
def test_reduction_formulas(m1, m2, l1, l2, g):
    reduced = reduce_params(PhysicalParams(m1=m1, m2=m2, l1=l1, l2=l2, g=g))
    assert reduced.a == pytest.approx((m1 + m2) / m2, rel=1e-15)
    assert reduced.b == pytest.approx(l1 * (m1 + m2) / (l2 * m2), rel=1e-15)
    assert reduced.alpha == pytest.approx(math.sqrt(l1 * m1 / (g * m2)), rel=1e-15)
    assert reduced.a > 1.0
    assert reduced.b > 0.0


@given(m1=positive, m2=positive, l1=positive, l2=positive, g=gravity)
@settings(max_examples=60, deadline=None)
def test_frequencies_match_eigensolver(m1, m2, l1, l2, g):
    reduced = reduce_params(PhysicalParams(m1=m1, m2=m2, l1=l1, l2=l2, g=g))
    s = spectral_data(reduced)
    e1, e2 = eig_frequencies(reduced.a, reduced.b)
    assert s.omega1 == pytest.approx(e1, rel=1e-10)
    assert s.omega2 == pytest.approx(e2, rel=1e-10)
    assert 0.0 < s.omega1 < s.omega2


def test_bench_spectrum_frozen_values():
    _, s = bench_spectral()
    assert s.omega1 == pytest.approx(0.7653668647301795, rel=0, abs=1e-15)
    assert s.omega2 == pytest.approx(1.8477590650225735, rel=0, abs=1e-15)
    assert s.period(1) == pytest.approx(8.209377223816247, rel=0, abs=1e-12)
    assert s.period(2) == pytest.approx(3.4004353847414768, rel=0, abs=1e-12)


def test_jordan_transform_block_diagonalizes():
    reduced, s = bench_spectral()
    t = jordan_transform(reduced, s)
    gen = t.forward @ linear_matrix(reduced.a, reduced.b) @ t.inverse
    expected = np.zeros((4, 4))
    expected[0, 1], expected[1, 0] = s.omega1, -s.omega1
    expected[2, 3], expected[3, 2] = s.omega2, -s.omega2
    assert np.allclose(gen, expected, atol=1e-12)
    assert np.allclose(np.asarray(t.forward) @ t.inverse, np.eye(4), atol=1e-12)


@given(tau=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_fundamental_matrix_is_normal_form_flow(tau):
    reduced, s = bench_spectral()
    t = jordan_transform(reduced, s)
    gen = t.forward @ linear_matrix(reduced.a, reduced.b) @ t.inverse
    from scipy.linalg import expm

    assert np.allclose(fundamental_matrix(s, tau), expm(gen * tau), atol=1e-10)


def test_fundamental_matrix_group_property():
    _, s = bench_spectral()
    m1, m2 = fundamental_matrix(s, 1.3), fundamental_matrix(s, -2.1)
    assert np.allclose(m1 @ m2, fundamental_matrix(s, -0.8), atol=1e-13)
    assert np.array_equal(fundamental_matrix(s, 0.0), np.eye(4))


def test_monodromy_identity_and_frozen_value():
    _, s = bench_spectral()
    _, det = monodromy_lower_block(s, 1, family=1)
    assert det == pytest.approx(3.7164323713376364, rel=0, abs=1e-9)
    assert det == pytest.approx(expm_monodromy_det(2.0, 2.0, 1), rel=0, abs=1e-9)
    for p in (2, 3):
        _, det_p = monodromy_lower_block(s, p, family=1)
        ident = 4.0 * math.sin(p * math.pi * s.omega2 / s.omega1) ** 2
        assert det_p == pytest.approx(ident, rel=0, abs=1e-9)
        assert det_p == pytest.approx(expm_monodromy_det(2.0, 2.0, p), rel=0, abs=1e-9)


@given(m1=positive, m2=positive, l1=positive, l2=positive,
       p=st.integers(min_value=1, max_value=3),
       family=st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_monodromy_identity_random(m1, m2, l1, l2, p, family):
    reduced = reduce_params(PhysicalParams(m1=m1, m2=m2, l1=l1, l2=l2, g=9.8))
    s = spectral_data(reduced)
    ratio = s.omega2 / s.omega1 if family == 1 else s.omega1 / s.omega2
    ident = 4.0 * math.sin(p * math.pi * ratio) ** 2
    if abs(ident) < 1e-7:
        return  # too close to resonance for a meaningful comparison
    _, det = monodromy_lower_block(s, p, family=family)
    assert det == pytest.approx(ident, rel=0, abs=1e-9)


def test_monodromy_resonance_raises():
    b = resonant_b(2.0, 3.0)
    reduced = reduce_params(PhysicalParams(m1=1.0, m2=1.0, l1=1.0, l2=2.0 / b, g=9.8))
    s = spectral_data(reduced)
    assert s.omega2 / s.omega1 == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ResonanceError) as err:
        monodromy_lower_block(s, 1, family=1)
    assert err.value.exit_code == 2


def test_monodromy_argument_validation():
    _, s = bench_spectral()
    with pytest.raises(DomainError):
        monodromy_lower_block(s, 0, family=1)
    with pytest.raises(DomainError):
        monodromy_lower_block(s, 1, family=3)


@given(u0=st.floats(-2, 2), v0=st.floats(-2, 2),
       tau=st.floats(0, 30), family=st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_unperturbed_orbit_periodicity(u0, v0, tau, family):
    _, s = bench_spectral()
    amp = (u0, v0)
    state = unperturbed_orbit(family, amp, tau, s)
    again = unperturbed_orbit(family, amp, tau + s.period(family), s)
    assert np.allclose(state, again, atol=1e-10)
    # amplitude is preserved along the rotation
    sl = slice(0, 2) if family == 1 else slice(2, 4)
    assert np.hypot(*state[sl]) == pytest.approx(math.hypot(u0, v0), abs=1e-12)


def test_unperturbed_orbit_solves_normal_form():
    reduced, s = bench_spectral()
    t = jordan_transform(reduced, s)
    gen = t.forward @ linear_matrix(reduced.a, reduced.b) @ t.inverse
    taus = np.linspace(0.0, 5.0, 7)
    h = 1e-6
    for tau in taus:
        state = unperturbed_orbit(1, (0.7, -0.4), tau, s)
        fd = (
            unperturbed_orbit(1, (0.7, -0.4), tau + h, s)
            - unperturbed_orbit(1, (0.7, -0.4), tau - h, s)
        ) / (2 * h)
        assert np.allclose(fd, gen @ state, atol=1e-7)


# The nonlinear pendulum is the suite's reference (tests/oracles.py): the
# package models only its reduction.  These check the reference itself.


def test_nonlinear_accelerations_linearize_to_reduced_system():
    reduced, _ = bench_spectral()
    alpha = reduced.alpha
    s = np.array([0.3, -0.2, 0.5, 0.4])

    def gap(eps):
        phi = np.array([eps * s[0], eps * s[1] / alpha, eps * s[2], eps * s[3] / alpha])
        dd1, dd2 = nonlinear_accelerations(BENCH, *phi)
        lin1 = (-reduced.a * phi[0] + phi[2]) / alpha ** 2
        lin2 = (reduced.b * phi[0] - reduced.b * phi[2]) / alpha ** 2
        return math.hypot(dd1 - lin1, dd2 - lin2)

    # cubic remainder: halving the state scale shrinks the gap by ~8
    g1, g2 = gap(1e-3), gap(5e-4)
    assert g1 / g2 == pytest.approx(8.0, rel=0.2)


def test_nonlinear_accelerations_finite():
    dd1, dd2 = nonlinear_accelerations(BENCH, 0.9, 1.5, -1.2, 0.7)
    assert math.isfinite(dd1) and math.isfinite(dd2)


def pendulum_energy(p, phi1, dphi1, phi2, dphi2):
    kinetic = (
        0.5 * (p.m1 + p.m2) * p.l1 ** 2 * dphi1 ** 2
        + 0.5 * p.m2 * p.l2 ** 2 * dphi2 ** 2
        + p.m2 * p.l1 * p.l2 * dphi1 * dphi2 * np.cos(phi1 - phi2)
    )
    potential = -(p.m1 + p.m2) * p.g * p.l1 * np.cos(phi1) - p.m2 * p.g * p.l2 * np.cos(phi2)
    return kinetic + potential


@given(
    m1=st.floats(0.5, 2.0),
    m2=st.floats(0.5, 2.0),
    l1=st.floats(0.5, 2.0),
    l2=st.floats(0.5, 2.0),
    g=st.floats(1.0, 20.0),
    state=st.tuples(
        st.floats(-1.5, 1.5), st.floats(-2.0, 2.0), st.floats(-1.5, 1.5), st.floats(-2.0, 2.0)
    ),
)
@example(m1=1.0, m2=1.0, l1=1.0, l2=1.0, g=9.8, state=(1.0, 0.0, -0.5, 0.5))
@settings(max_examples=15, deadline=None)
def test_nonlinear_accelerations_conserve_energy(m1, m2, l1, l2, g, state):
    p = PhysicalParams(m1=m1, m2=m2, l1=l1, l2=l2, g=g)

    def rhs(t, u):
        dd1, dd2 = nonlinear_accelerations(p, *u)
        return [u[1], dd1, u[3], dd2]

    sol = solve_ivp(rhs, (0.0, 20.0), state, method="DOP853", rtol=1e-11, atol=1e-12)
    assert sol.status == 0
    energy = pendulum_energy(p, *sol.y)
    scale = (p.m1 + p.m2) * p.g * p.l1 + p.m2 * p.g * p.l2
    assert np.max(np.abs(energy - energy[0])) <= 1e-8 * scale
