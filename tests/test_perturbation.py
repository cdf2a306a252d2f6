import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pendavg import (
    DomainError,
    LinearForm,
    PeriodicScalar,
    PerturbationSpec,
    PhysicalParams,
    builtin,
    eval_order1_with_signs,
    perturbation_from_file,
    reduce_params,
    smooth_sign,
    spectral_data,
)

from .oracles import unfolded_forcing

BENCH = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)


def bench_spectral():
    return spectral_data(reduce_params(BENCH))


def test_periodic_scalar_constant_and_harmonic():
    c = PeriodicScalar.constant(2.5, 4.0)
    assert c(0.3) == 2.5
    assert np.array_equal(c(np.array([0.0, 1.0])), np.array([2.5, 2.5]))
    h = PeriodicScalar.harmonic("cos", 1.5, 2.0)
    assert h(0.7) == pytest.approx(1.5 * math.cos(1.4), rel=1e-15)
    assert h.period == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(DomainError):
        PeriodicScalar.harmonic("tan", 1.0, 1.0)
    with pytest.raises(DomainError):
        PeriodicScalar.harmonic("cos", 1.0, 0.0)
    with pytest.raises(DomainError):
        PeriodicScalar.constant(1.0, -2.0)


def test_periodic_scalar_table():
    n = 512
    taus = np.arange(n) * (2.0 * math.pi / n)
    table = PeriodicScalar.from_table(taus, np.sin(taus))
    probe = np.linspace(0.0, 4.0 * math.pi, 101)
    assert np.allclose(table(probe), np.sin(probe), atol=1e-4)
    assert table.period == pytest.approx(2.0 * math.pi, rel=1e-12)
    with pytest.raises(DomainError):
        PeriodicScalar.from_table(taus[:100], np.sin(taus[:100]))
    with pytest.raises(DomainError):
        PeriodicScalar.from_table(taus + 0.5, np.sin(taus))
    bad = taus.copy()
    bad[200] += 1e-3
    with pytest.raises(DomainError):
        PeriodicScalar.from_table(bad, np.sin(bad))


@given(x=st.floats(-3, 3), y=st.floats(-3, 3), z=st.floats(-3, 3), w=st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_linear_form_evaluate(x, y, z, w):
    form = LinearForm(
        PeriodicScalar.constant(1.0, 2.0),
        PeriodicScalar.constant(-2.0, 2.0),
        PeriodicScalar.constant(0.5, 2.0),
        PeriodicScalar.constant(3.0, 2.0),
    )
    val = form.evaluate(0.1, np.array([x, y, z, w]))
    assert val == pytest.approx(x - 2 * y + 0.5 * z + 3 * w, rel=1e-12, abs=1e-12)


def test_linear_form_accepts_commensurate_periods():
    form = LinearForm(
        PeriodicScalar.constant(1.0, 2.0),
        PeriodicScalar.constant(1.0, 3.0),
        PeriodicScalar.constant(1.0, 2.0),
        PeriodicScalar.constant(1.0, 1.5),
    )
    assert form.common_coefficient_period() == pytest.approx(6.0, rel=1e-12)


def test_linear_form_rejects_incommensurate_periods():
    with pytest.raises(DomainError):
        LinearForm(
            PeriodicScalar.constant(1.0, 2.0),
            PeriodicScalar.constant(1.0, 2.0 / math.pi),
            PeriodicScalar.constant(1.0, 2.0),
            PeriodicScalar.constant(1.0, 2.0),
        )


def test_spec_validation():
    z = PeriodicScalar.constant(0.0, 1.0)
    zf = LinearForm.zero(1.0)
    with pytest.raises(DomainError):
        PerturbationSpec(K=(z, z, z, z), F=(zf, zf, zf, zf), family=3)
    with pytest.raises(DomainError):
        PerturbationSpec(K=(z, z, z, z), F=(zf, zf, zf, zf), p=0)
    with pytest.raises(DomainError):
        PerturbationSpec(K=(z, z, z), F=(zf, zf, zf, zf))


def test_validate_against_window():
    s = bench_spectral()
    window = s.period(1)
    good = PerturbationSpec(
        K=(PeriodicScalar.harmonic("cos", 1.0, 2.0 * s.omega1),) * 4,
        F=(LinearForm.zero(window),) * 4,
    )
    good.validate_against(s)  # harmonic of the window divides it
    bad = PerturbationSpec(
        K=(PeriodicScalar.harmonic("cos", 1.0, 1.37 * s.omega1),) * 4,
        F=(LinearForm.zero(window),) * 4,
    )
    with pytest.raises(DomainError):
        bad.validate_against(s)


@given(
    tau=st.floats(0, 20),
    x=st.floats(-2, 2),
    y=st.floats(-2, 2),
    z=st.floats(-2, 2),
    w=st.floats(-2, 2),
)
@settings(max_examples=60, deadline=None)
def test_eval_order1_matches_manual_formula(tau, x, y, z, w):
    s = bench_spectral()
    spec = builtin("damped_forced_escapement", {"gamma": 0.5, "kappa": 0.05}, s)
    state = np.array([x, y, z, w])
    f_y, f_w = eval_order1_with_signs(spec, tau, state, np.sign(x), np.sign(z))
    expect_y = 0.5 * math.cos(s.omega1 * tau) - y + 0.05 * np.sign(x)
    expect_w = -w + 0.05 * np.sign(z)
    assert f_y == pytest.approx(expect_y, rel=1e-12, abs=1e-12)
    assert f_w == pytest.approx(expect_w, rel=1e-12, abs=1e-12)


def test_eval_order1_with_signs_agrees_on_interior_states():
    s = bench_spectral()
    spec = builtin("damped_forced_escapement", {"gamma": 0.5, "kappa": 0.05}, s)
    states = np.array([[0.4, -0.1, -0.7, 0.2], [-0.3, 0.5, 0.6, -0.1]]).T
    taus = np.array([1.0, 2.5])
    sgn_x, sgn_z = np.sign(states[0]), np.sign(states[2])
    f_y, f_w = eval_order1_with_signs(spec, taus, states, sgn_x, sgn_z)
    for i in range(2):
        expect = eval_order1_with_signs(spec, taus[i], states[:, i], sgn_x[i], sgn_z[i])
        assert (f_y[i], f_w[i]) == pytest.approx(expect, rel=1e-14, abs=1e-15)


def _random_scalar(rng, window):
    kind = rng.choice(["zero", "const", "cos", "sin", "table"])
    if kind == "zero":
        return PeriodicScalar.constant(0.0, window)
    if kind == "const":
        return PeriodicScalar.constant(rng.uniform(-2, 2), window)
    if kind == "table":
        taus = np.arange(256) * (window / 256)
        return PeriodicScalar.from_table(taus, rng.uniform(-1, 1, taus.size))
    omega = int(rng.integers(1, 4)) * 2.0 * math.pi / window
    return PeriodicScalar.harmonic(kind, rng.uniform(-2, 2), omega)


def test_compiled_forcing_matches_unfolded_sum():
    rng = np.random.default_rng(5)
    window = 2.7
    for _ in range(200):
        spec = PerturbationSpec(
            K=tuple(_random_scalar(rng, window) for _ in range(4)),
            F=tuple(LinearForm(*(_random_scalar(rng, window) for _ in range(4))) for _ in range(4)),
        )
        tau = rng.uniform(-3, 10)
        state = rng.normal(size=4)
        signs = rng.choice([-1.0, 0.0, 1.0], size=2)
        got = eval_order1_with_signs(spec, tau, state, *signs)
        expect = unfolded_forcing(spec, tau, state, *signs)
        for g, e in zip(got, expect):
            assert np.shape(g) == () and g == e
        taus = rng.uniform(-3, 10, size=7)
        states = rng.normal(size=(4, 7))
        sgn_x, sgn_z = rng.choice([-1.0, 0.0, 1.0], size=(2, 7))
        got = eval_order1_with_signs(spec, taus, states, sgn_x, sgn_z)
        expect = unfolded_forcing(spec, taus, states, sgn_x, sgn_z)
        for g, e in zip(got, expect):
            assert np.shape(g) == (7,) and np.array_equal(g, e)


def test_forcing_jacobian_matches_unfolded_differences():
    # for frozen signs the forcing is affine in the state, so column j of R
    # is f(e_j) - f(0); every other spec has constant coefficients only,
    # whose R is one precomputed array
    rng = np.random.default_rng(11)
    window = 2.7

    def constant(rng, window):
        return PeriodicScalar.constant(rng.choice([0.0, rng.uniform(-2, 2)]), window)

    for i in range(200):
        scalar = _random_scalar if i % 2 else constant
        spec = PerturbationSpec(
            K=tuple(_random_scalar(rng, window) for _ in range(4)),
            F=tuple(LinearForm(*(scalar(rng, window) for _ in range(4))) for _ in range(4)),
        )
        tau = rng.uniform(-3, 10)
        signs = rng.choice([-1.0, 0.0, 1.0], size=2)
        rows = tuple(spec.frozen(*signs)[0](tau))
        at_zero = unfolded_forcing(spec, tau, np.zeros(4), *signs)
        for j in range(4):
            at_axis = unfolded_forcing(spec, tau, np.eye(4)[j], *signs)
            for row, f1, f0 in zip(rows, at_axis, at_zero):
                assert row.shape == (4,)
                assert row[j] == pytest.approx(f1 - f0, rel=1e-12, abs=1e-12)


def test_all_zero_spec_forcing_is_shaped_like_tau():
    z = PeriodicScalar.constant(0.0, 1.0)
    spec = PerturbationSpec(K=(z, z, z, z), F=(LinearForm.zero(1.0),) * 4)
    assert eval_order1_with_signs(spec, 0.5, np.ones(4), 1.0, -1.0) == (0.0, 0.0)
    f_y, f_w = eval_order1_with_signs(spec, np.arange(3.0), np.ones((4, 3)), 1.0, -1.0)
    assert np.array_equal(f_y, np.zeros(3)) and np.array_equal(f_w, np.zeros(3))
    constant = PeriodicScalar.constant(0.25, 1.0)
    spec = PerturbationSpec(K=(constant, z, z, constant), F=(LinearForm.zero(1.0),) * 4)
    f_y, f_w = eval_order1_with_signs(spec, np.arange(3.0), np.ones((4, 3)), 1.0, -1.0)
    assert np.array_equal(f_y, np.full(3, 0.25)) and np.array_equal(f_w, np.full(3, -0.25))


@given(x=st.floats(-2, 2), delta=st.floats(1e-4, 0.5))
@settings(max_examples=80, deadline=None)
def test_smooth_sign_ramp(x, delta):
    v = float(smooth_sign(x, delta))
    assert float(smooth_sign(-x, delta)) == pytest.approx(-v, abs=1e-15)
    assert abs(v) <= 1.0 + 1e-12
    if abs(x) >= delta:
        assert v == math.copysign(1.0, x) if x != 0 else v == 0.0


def test_smooth_sign_is_c1_at_the_seam():
    delta = 0.1
    h = 1e-8
    inner = (smooth_sign(delta - h, delta) - smooth_sign(delta - 3 * h, delta)) / (2 * h)
    assert float(inner) == pytest.approx(0.0, abs=1e-5)
    assert float(smooth_sign(delta - h, delta)) == pytest.approx(1.0, abs=1e-13)
    assert float(smooth_sign(delta, delta)) == 1.0
    assert float(smooth_sign(0.0, delta)) == 0.0


def test_eval_order1_regularized_matches_exact_outside_delta():
    s = bench_spectral()
    spec = builtin("damped_forced_escapement", {"gamma": 0.5, "kappa": 0.05}, s)
    state = np.array([0.4, -0.1, -0.7, 0.2])
    ramp = smooth_sign(state[0], 0.1), smooth_sign(state[2], 0.1)
    assert eval_order1_with_signs(spec, 1.0, state, *ramp) == eval_order1_with_signs(
        spec, 1.0, state, 1.0, -1.0
    )
    with pytest.raises(DomainError):
        smooth_sign(state[0], 0.0)


def test_builtin_specs():
    s = bench_spectral()
    smooth = builtin("damped_forced", {"gamma": 0.5}, s)
    assert smooth.K[0](0.0) == pytest.approx(0.5)
    assert smooth.K[1](1.0) == 0.0 and smooth.K[3](1.0) == 0.0
    esc = builtin("damped_forced_escapement", {"gamma": 0.5, "kappa": 0.05}, s)
    assert esc.K[1](2.0) == pytest.approx(0.05)
    cor = builtin("corollary_escapement", {"sigma_d": 1.0, "sigma_e": -1.0}, s)
    assert cor.K[1](0.0) == -1.0
    with pytest.raises(DomainError):
        builtin("corollary_escapement", {"sigma_d": 0.5, "sigma_e": 1.0}, s)
    with pytest.raises(DomainError):
        builtin("unknown_model", {}, s)
    with pytest.raises(DomainError, match="'gamma'"):
        builtin("damped_forced", {"gama": 0.5}, s)


def test_perturbation_from_file(tmp_path):
    s = bench_spectral()
    n = 512
    window = s.period(1)
    taus = np.arange(n) * (window / n)
    csv_path = tmp_path / "k2.csv"
    lines = [f"{t},{0.05}" for t in taus]
    csv_path.write_text("\n".join(["# tau,value"] + lines) + "\n")
    ini = tmp_path / "pert.ini"
    ini.write_text(
        "[perturbation]\n"
        "family = 1\n"
        "p = 1\n"
        "k1 = cos:0.5,1\n"
        "k2 = table:k2.csv\n"
        "f1.d2 = const:-1\n"
        "f3.d4 = const:-1\n"
    )
    spec = perturbation_from_file(str(ini), s)
    state = np.array([0.3, -0.2, 0.1, 0.4])
    f_y, f_w = eval_order1_with_signs(spec, 1.2, state, np.sign(state[0]), np.sign(state[2]))
    assert f_y == pytest.approx(0.5 * math.cos(s.omega1 * 1.2) + 0.2 + 0.05, abs=1e-9)
    assert f_w == pytest.approx(-0.4, abs=1e-12)

    with pytest.raises(DomainError):
        perturbation_from_file(str(tmp_path / "missing.ini"), s)
    bad = tmp_path / "bad.ini"
    bad.write_text("[perturbation]\nk9 = const:1\n")
    with pytest.raises(DomainError):
        perturbation_from_file(str(bad), s)
