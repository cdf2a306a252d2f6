import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pendavg.errors import DomainError
from pendavg.filippov import d1_field
from pendavg.model import PhysicalParams, reduce_params, spectral_data
from pendavg.perturbation import (
    BUILTINS,
    PeriodicScalar,
    PerturbationSpec,
    builtin,
    perturbation_from_file,
    smooth_sign,
)

from .oracles import linear_form_value, linear_matrix, ramp_values, scalar_values, unfolded_forcing

BENCH = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)


def bench_spectral():
    return spectral_data(reduce_params(BENCH))


def test_periodic_scalar_constant_and_harmonic():
    c = PeriodicScalar.constant(2.5, 4.0)
    assert c(0.3) == 2.5
    assert c(-1.0) == c(1e6) == 2.5
    h = PeriodicScalar.harmonic("cos", 1.5, 2.0)
    assert h(0.7) == pytest.approx(1.5 * math.cos(1.4), rel=1e-15)
    assert h.period == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(DomainError):
        PeriodicScalar.harmonic("tan", 1.0, 1.0)
    with pytest.raises(DomainError):
        PeriodicScalar.harmonic("cos", 1.0, 0.0)
    with pytest.raises(DomainError):
        PeriodicScalar.constant(1.0, -2.0)
    with pytest.raises(DomainError, match="scalar kind"):
        PeriodicScalar("tri", 1.0)


def test_periodic_scalar_table():
    n = 512
    taus = np.arange(n) * (2.0 * math.pi / n)
    table = PeriodicScalar.from_table(taus, np.sin(taus))
    probe = np.linspace(0.0, 4.0 * math.pi, 101)
    values = np.array([table(t) for t in probe])
    assert values.tobytes() == scalar_values(table, probe).tobytes()
    assert np.allclose(values, np.sin(probe), atol=1e-4)
    assert table.period == pytest.approx(2.0 * math.pi, rel=1e-12)
    with pytest.raises(DomainError):
        PeriodicScalar.from_table(taus[:100], np.sin(taus[:100]))
    with pytest.raises(DomainError):
        PeriodicScalar.from_table(taus + 0.5, np.sin(taus))
    bad = taus.copy()
    bad[200] += 1e-3
    with pytest.raises(DomainError):
        PeriodicScalar.from_table(bad, np.sin(bad))
    for bad_taus, bad_values in ((taus, np.sin(taus[:-1])), (["x", *taus[1:]], np.sin(taus)),
                                 (taus, [None] * n)):
        with pytest.raises(DomainError, match="table needs matching 1-d tau and value columns"):
            PeriodicScalar.from_table(bad_taus, bad_values)
    # just below a period boundary τ mod T rounds to T: the closing knot,
    # on the interval that wraps from the last value to the first
    values = np.cos(np.arange(256) / 256.0 * 2.0 * math.pi)
    wrap = PeriodicScalar.from_table(np.arange(256) / 256.0, values)
    assert -1e-20 % wrap.period == wrap.period
    assert wrap.piece(-1e-20) == (values[0], (values[0] - values[-1]) / (1.0 / 256.0))


@given(x=st.floats(-3, 3), y=st.floats(-3, 3), z=st.floats(-3, 3), w=st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_linear_form_evaluate(x, y, z, w):
    form = (
        PeriodicScalar.constant(1.0, 2.0),
        PeriodicScalar.constant(-2.0, 2.0),
        PeriodicScalar.constant(0.5, 2.0),
        PeriodicScalar.constant(3.0, 2.0),
    )
    val = linear_form_value(form, 0.1, np.array([x, y, z, w]))
    assert val == pytest.approx(x - 2 * y + 0.5 * z + 3 * w, rel=1e-12, abs=1e-12)


def _spec_with_form(form, window):
    return PerturbationSpec(
        K=(PeriodicScalar.constant(0.0, window),) * 4,
        F=(form,) + ((PeriodicScalar.constant(0.0, window),) * 4,) * 3,
    )


def test_linear_form_accepts_commensurate_periods():
    s = bench_spectral()
    window = s.period(1)
    form = (
        PeriodicScalar.constant(1.0, window / 3),
        PeriodicScalar.constant(1.0, window / 2),
        PeriodicScalar.constant(1.0, window / 3),
        PeriodicScalar.constant(1.0, window / 4),
    )
    _spec_with_form(form, window).validate_against(s)


def test_linear_form_rejects_incommensurate_periods():
    s = bench_spectral()
    window = s.period(1)
    form = (
        PeriodicScalar.constant(1.0, window),
        PeriodicScalar.constant(1.0, window / math.pi),
        PeriodicScalar.constant(1.0, window),
        PeriodicScalar.constant(1.0, window),
    )
    with pytest.raises(DomainError):
        _spec_with_form(form, window).validate_against(s)


def test_spec_validation():
    z = PeriodicScalar.constant(0.0, 1.0)
    zf = (z,) * 4
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
        F=((PeriodicScalar.constant(0.0, window),) * 4,) * 4,
    )
    good.validate_against(s)  # harmonic of the window divides it
    bad = PerturbationSpec(
        K=(PeriodicScalar.harmonic("cos", 1.0, 1.37 * s.omega1),) * 4,
        F=((PeriodicScalar.constant(0.0, window),) * 4,) * 4,
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
    # the order-1 forcing as the frozen-sign form F_σ reads it at ε = 1:
    # rows 1 and 3 of F_σ·(s, 1) less A's are (f_y, f_w)
    reduced = reduce_params(BENCH)
    s = spectral_data(reduced)
    spec = builtin("damped_forced_escapement", {"gamma": 0.5, "kappa": 0.05}, s)
    state = np.array([x, y, z, w])
    rows = np.asarray(d1_field(spec, reduced, 1.0)((float(np.sign(x)), float(np.sign(z))))(tau))
    _, f_y, _, f_w = (rows[:, :4] - linear_matrix(reduced.a, reduced.b)) @ state + rows[:, 4]
    expect_y = 0.5 * math.cos(s.omega1 * tau) - y + 0.05 * np.sign(x)
    expect_w = -w + 0.05 * np.sign(z)
    assert f_y == pytest.approx(expect_y, rel=1e-12, abs=1e-12)
    assert f_w == pytest.approx(expect_w, rel=1e-12, abs=1e-12)


def test_scalars_match_the_array_reference_bit_for_bit():
    # the float path of every scalar kind against numpy on arrays: random
    # τ, negative τ, every knot of a table and multiples of the period
    rng = np.random.default_rng(31)
    window = 2.7
    scalars = [PeriodicScalar.constant(0.0, window), PeriodicScalar.constant(-1.25, window)]
    scalars += [PeriodicScalar.harmonic(kind, rng.uniform(-2, 2), k * 2.0 * math.pi / window)
                for kind in ("cos", "sin") for k in (1, 3)]
    for n in (256, 300):
        scalars.append(PeriodicScalar.from_table(np.arange(n) * (window / n), rng.uniform(-1, 1, n)))
    for scalar in scalars:
        taus = [rng.uniform(-30.0, 30.0, size=10_000), np.arange(-5, 6) * scalar.period]
        if scalar.kind == "table":
            knots = np.asarray(scalar.knots[0])
            taus += [knots, knots - scalar.period, knots + 3.0 * scalar.period]
        probe = np.concatenate(taus)
        got = np.array([scalar(t) for t in probe.tolist()])
        assert got.tobytes() == scalar_values(scalar, probe).tobytes(), scalar.kind


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


def test_forcing_jacobian_matches_unfolded_differences():
    # for frozen signs the forcing is affine in the state, so column j of R
    # is f(e_j) - f(0), and rows 1 and 3 of the segment's M_σ at ε = 1 are
    # A's plus R's; every other spec has constant coefficients only, whose
    # R is one precomputed array
    reduced = reduce_params(BENCH)
    base = linear_matrix(reduced.a, reduced.b)[[1, 3]]
    rng = np.random.default_rng(11)
    window = 2.7

    def constant(rng, window):
        return PeriodicScalar.constant(rng.choice([0.0, rng.uniform(-2, 2)]), window)

    for i in range(200):
        scalar = _random_scalar if i % 2 else constant
        spec = PerturbationSpec(
            K=tuple(_random_scalar(rng, window) for _ in range(4)),
            F=tuple(tuple(scalar(rng, window) for _ in range(4)) for _ in range(4)),
        )
        tau = rng.uniform(-3, 10)
        signs = rng.choice([-1.0, 0.0, 1.0], size=2)
        form = d1_field(spec, reduced, 1.0)(tuple(signs))(tau)
        rows = (form[1][:4], form[3][:4])
        at_zero = unfolded_forcing(spec, tau, np.zeros(4), *signs)
        for j in range(4):
            at_axis = unfolded_forcing(spec, tau, np.eye(4)[j], *signs)
            for row, a, f1, f0 in zip(rows, base, at_axis, at_zero):
                assert np.asarray(row).shape == (4,)
                assert row[j] == pytest.approx(a[j] + (f1 - f0), rel=1e-12, abs=1e-12)


def test_all_zero_spec_forcing_is_shaped_like_tau():
    # a spec without forcing leaves F_σ the pendulum's rows with no τ-term,
    # and a constant one adds its constants at every τ
    reduced = reduce_params(BENCH)
    base = np.hstack((linear_matrix(reduced.a, reduced.b), np.zeros((4, 1))))
    z = PeriodicScalar.constant(0.0, 1.0)
    spec = PerturbationSpec(K=(z, z, z, z), F=((z,) * 4,) * 4)
    form = d1_field(spec, reduced, 1.0)((1.0, -1.0))
    assert form.terms == () and np.array_equal(form(0.5), base)
    constant = PeriodicScalar.constant(0.25, 1.0)
    spec = PerturbationSpec(K=(constant, z, z, constant), F=((z,) * 4,) * 4)
    form = d1_field(spec, reduced, 1.0)((1.0, -1.0))
    for tau in (0.0, 1.0, 2.0):
        assert np.array_equal(np.asarray(form(tau))[:, 4], [0.0, 0.25, 0.0, -0.25])


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
    # where δ³ would vanish or overflow the ramp is taken in r = x/δ
    for width in (1e-200, 1.0, 1e200):
        assert smooth_sign(width / 2, width) == 0.6875


def test_smooth_sign_scalar_matches_array_bit_for_bit():
    # the float ramp against numpy's on the array of the same points
    delta = 0.1
    rng = np.random.default_rng(29)
    xs = [0.0, -0.0, delta, -delta, delta / 2, -delta / 2, math.inf, -math.inf,
          *rng.uniform(-3.0 * delta, 3.0 * delta, size=1000).tolist()]
    scalar = [smooth_sign(x, delta) for x in xs]
    assert all(type(v) is float for v in scalar)
    assert np.array(scalar).tobytes() == ramp_values(np.array(xs), delta).tobytes()


def test_eval_order1_regularized_matches_exact_outside_delta():
    # outside the band δ the ramp is the exact sign, so the regularized run
    # reads the forcing of the frozen signs there
    state = np.array([0.4, -0.1, -0.7, 0.2])
    assert (smooth_sign(state[0], 0.1), smooth_sign(state[2], 0.1)) == (1.0, -1.0)
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


def test_builtins_are_their_file_entries(tmp_path):
    # a perturbation file of a builtin's entries gives the builtin's spec,
    # bit for bit, and the entries carry the parameters exactly
    reduced = reduce_params(BENCH)
    s = spectral_data(reduced)
    params = {
        "damped_forced": {"gamma": 0.1 + 0.2},
        "damped_forced_escapement": {"gamma": 0.5, "kappa": 1.0 / 3.0},
        "corollary_escapement": {"sigma_d": -1.0, "sigma_e": 1.0},
    }
    rng = np.random.default_rng(13)
    ini = tmp_path / "builtin.ini"
    for name, entries in BUILTINS.items():
        texts = {key: repr(value) for key, value in params[name].items()}
        lines = [f"{key} = {entry.format_map(texts)}" for key, entry in entries.items()]
        for family in (1, 2):
            for p in (1, 2):
                ini.write_text("\n".join(["[perturbation]", f"family = {family}", f"p = {p}", *lines]) + "\n")
                got = perturbation_from_file(ini, s)
                expect = builtin(name, params[name], s, family=family, p=p)
                assert (got.family, got.p) == (expect.family, expect.p) == (family, p)
                taus = rng.uniform(-3.0, 30.0, size=9)
                states = rng.normal(size=(4, 9))
                signs = rng.choice([-1.0, 0.0, 1.0], size=(2, 9))
                columns = [(taus[n], states[:, n], *signs[:, n]) for n in range(9)]
                assert (np.array([unfolded_forcing(got, *column) for column in columns]).tobytes()
                        == np.array([unfolded_forcing(expect, *column) for column in columns]).tobytes())
                for frozen in ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)):
                    g, e = (d1_field(spec, reduced, 1.0)(frozen) for spec in (got, expect))
                    assert all(np.asarray(g(t)).tobytes() == np.asarray(e(t)).tobytes() for t in taus)
    esc = builtin("damped_forced_escapement", params["damped_forced_escapement"], s, family=2)
    assert esc.K[0].value == 0.5 and esc.K[0].omega == s.omega2
    assert esc.K[1].value == esc.K[3].value == 1.0 / 3.0
    assert builtin("damped_forced", params["damped_forced"], s).K[0].value == 0.1 + 0.2


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
    f_y, f_w = unfolded_forcing(spec, 1.2, state, np.sign(state[0]), np.sign(state[2]))
    assert f_y == pytest.approx(0.5 * math.cos(s.omega1 * 1.2) + 0.2 + 0.05, abs=1e-9)
    assert f_w == pytest.approx(-0.4, abs=1e-12)

    with pytest.raises(DomainError):
        perturbation_from_file(str(tmp_path / "missing.ini"), s)
    bad = tmp_path / "bad.ini"
    bad.write_text("[perturbation]\nk9 = const:1\n")
    with pytest.raises(DomainError):
        perturbation_from_file(str(bad), s)
    other = tmp_path / "other.ini"
    other.write_text("[other]\nk1 = const:1\n")
    with pytest.raises(DomainError, match=r"perturbation file '.*other\.ini' lacks"):
        perturbation_from_file(other, s)
