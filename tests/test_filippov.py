"""Event-driven integration tests.

The exactly solvable eps = 0 flow provides closure and state oracles.
Every field is second order, as the integrator's contract asks: x′ = y,
z′ = w, and each acceleration reads its own surface's sign alone.
Synthetic fields of that form, with hand-chosen accelerations, exercise
what the pendulum's builtins rarely reach: a tangency whose one-sided
accelerations both push back onto the surface, persistent tangency, and
crossings whose saltation is checked against the exact flow map, a
corner included.
A field is its affine form per sign pattern, σ ↦ F_σ = [M_σ | c_σ], one
periodic 4×5 array; a segment's right-hand side, its exact flow's
generator and every contact read that array alone, so the tests check it
against the field summed whole.  A synthetic form that qualifies for the
exact flow runs on DOP853 too under the ``solver`` fixture.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from pendavg import dop853, expflow, filippov
from pendavg.averaging import BifurcationSystem
from pendavg.errors import CrossingViolationError, DomainError, IntegrationStallError
from pendavg.filippov import (
    PeriodicArray,
    _affine_rhs,
    d1_field,
    integrate,
    integrate_field,
    integrate_regularized,
)
from pendavg.model import PhysicalParams, reduce_params, spectral_data
from pendavg.perturbation import PeriodicScalar, PerturbationSpec, builtin, smooth_sign
from pendavg.verify import orbit_from_amplitude

from .oracles import field_term_scale, flow_states, linear_matrix, per_call_field
from .test_averaging import random_spec, table_spec
from .test_perturbation import _random_scalar


def final_time(traj):
    """The time the trajectory ends at: its last segment's last time."""
    return float(traj.segments[-1].ts[-1]) if traj.segments else traj.t_span[0]

BENCH = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)
GAMMA = 0.5


@pytest.fixture(scope="module")
def bench():
    reduced = reduce_params(BENCH)
    return reduced, spectral_data(reduced)


def damped_spec(s, gamma=GAMMA):
    return builtin("damped_forced", {"gamma": gamma}, s, family=1, p=1)


@pytest.fixture()
def solver(request, monkeypatch):
    """The solver a test's forms run on: "exact-flow" where the form
    qualifies, or "dop853", the default, for which ``expflow.generator``
    refuses every form."""
    name = getattr(request, "param", "dop853")
    if name == "dop853":
        monkeypatch.setattr(filippov.expflow, "generator", lambda form: None)
    return name


def _second_order(row1, row3, *terms):
    """The form with x′ = y, z′ = w and the acceleration rows ``row1`` and
    ``row3``, plus the τ-terms ``terms``."""
    return PeriodicArray(((0.0, 1.0, 0.0, 0.0, 0.0), tuple(row1), (0.0, 0.0, 0.0, 1.0, 0.0), tuple(row3)),
                         tuple(terms))


# -- level rates -----------------------------------------------------------


def _bits(*values):
    """The float64 bytes of ``values``, so that equality is bit for bit."""
    return np.asarray(values, dtype=float).tobytes()


def test_pendulum_fields_are_second_order(bench):
    # The contract the contacts rely on: the level rates, components 0 and
    # 2, are the velocities y and w bit for bit whatever the signs, and
    # acceleration 2k + 1 reads σ_k alone, so a crossing changes one row.
    # On F_σ's rows and on its right-hand side at a state, on random
    # perturbations with constant, harmonic and table scalars in K and F,
    # both families; the package's own check passes each field.
    reduced, s = bench
    rng = np.random.default_rng(19)
    unit_rows = _bits(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    signs = [(sx, sz) for sx in (-1.0, 0.0, 1.0) for sz in (-1.0, 0.0, 1.0)]
    for family in (1, 2):
        for p in (1, 2):
            window = p * s.period(family)
            for eps in (1e-3, 0.1, 2.0):
                spec = PerturbationSpec(
                    K=tuple(_random_scalar(rng, window) for _ in range(4)),
                    F=tuple(tuple(_random_scalar(rng, window) for _ in range(4)) for _ in range(4)),
                    family=family, p=p,
                )
                field = d1_field(spec, reduced, eps)
                filippov._check_second_order(field)
                for tau in rng.uniform(-2.0, 2.0, size=3) * window:
                    state = tuple(rng.uniform(-2.0, 2.0, size=4))
                    values = {sigma: _affine_rhs(field(sigma))(tau, state) for sigma in signs}
                    rows = {sigma: field(sigma)(tau) for sigma in signs}
                    for sx, sz in signs:
                        value, form = values[sx, sz], rows[sx, sz]
                        velocities = _bits(state[1], state[3])
                        assert _bits(value[0], value[2]) == velocities, (family, p, eps)
                        assert _bits(*form[0], *form[2]) == unit_rows
                        # acceleration 1 ignores σ_z, acceleration 3 ignores σ_x
                        assert _bits(value[1], *form[1]) == _bits(values[sx, 0.0][1], *rows[sx, 0.0][1])
                        assert _bits(value[3], *form[3]) == _bits(values[0.0, sz][3], *rows[0.0, sz][3])


# -- the order-1 field -----------------------------------------------------


def test_d1_field_matches_manual_formula(bench):
    reduced, s = bench
    spec = damped_spec(s)
    field = d1_field(spec, reduced, 0.05)
    rng = np.random.default_rng(7)
    for _ in range(25):
        st = rng.uniform(-2, 2, size=4)
        tau = rng.uniform(0, 20)
        sx, sz = rng.choice([-1.0, 0.0, 1.0], size=2)
        val = _affine_rhs(field((sx, sz)))(tau, st)
        fy = GAMMA * math.cos(s.omega1 * tau) - st[1]
        fw = -st[3]
        ref = np.array(
            [
                st[1],
                -reduced.a * st[0] + st[2] + 0.05 * fy,
                st[3],
                reduced.b * st[0] - reduced.b * st[2] + 0.05 * fw,
            ]
        )
        assert np.allclose(val, ref, rtol=1e-14, atol=1e-14)


def test_frozen_sign_segment_field_matches_per_call_field(bench):
    # A segment's M_σ·s + c_σ(τ), and its product over [s | Φ], against the
    # field summed whole on every call.  Both sum the same terms, up to 16
    # per component, so they differ by float64 rounding: at most 32 units
    # in the last place of the terms' absolute sum.
    reduced, s = bench
    rng = np.random.default_rng(23)
    window = 2.7
    ulp = np.finfo(float).eps

    def constant(rng, window):
        return PeriodicScalar.constant(rng.uniform(-2, 2), window)

    for i in range(100):
        coefficient = _random_scalar if i % 2 else constant
        spec = PerturbationSpec(
            K=tuple(_random_scalar(rng, window) for _ in range(4)),
            F=tuple(tuple(coefficient(rng, window) for _ in range(4)) for _ in range(4)),
        )
        eps = 10.0 ** rng.uniform(-3.0, 0.0)
        signs = tuple(rng.choice([-1.0, 0.0, 1.0], size=2))
        field = d1_field(spec, reduced, eps)
        reference = per_call_field(spec, reduced, eps)
        form = field(signs)
        rhs = _affine_rhs(form)
        for tau in rng.uniform(-3.0, 10.0, size=3):
            state = rng.normal(size=4)
            phi = rng.normal(size=(4, 4))
            expect = reference(tau, state, signs)
            bound = 32 * ulp * field_term_scale(spec, reduced, eps, tau, state, signs)
            assert np.all(np.abs(np.asarray(rhs(tau, state)) - expect) <= bound), (i, tau)
            du = np.asarray(rhs(tau, np.concatenate((state, phi.T.ravel()))))
            assert np.all(np.abs(du[:4] - expect) <= bound), (i, tau)
            # column j of M_σ is f(e_j) − f(0) and c_σ is f(0), each side
            # rounded as above: F_σ and that reference differ by at most
            # 64 ulp of the two sides' scales summed, entry by entry
            at_zero = reference(tau, np.zeros(4), signs)
            zero_scale = field_term_scale(spec, reduced, eps, tau, np.zeros(4), signs)
            entry_scale = np.stack([field_term_scale(spec, reduced, eps, tau, e, signs) for e in np.eye(4)], axis=1)
            matrix = np.stack([reference(tau, e, signs) - at_zero for e in np.eye(4)], axis=1)
            column_scale = entry_scale + zero_scale[:, None]
            # F_σ = [M_σ | c_σ]: rows 0 and 2 are A's with c = 0, rows 1
            # and 3 the reference's to the bound above
            got = np.asarray(form(tau))
            base = np.hstack((linear_matrix(reduced.a, reduced.b), np.zeros((4, 1))))
            assert np.array_equal(got[[0, 2]], base[[0, 2]]), (i, tau)
            expect_form = np.hstack((matrix, at_zero[:, None]))
            form_scale = np.hstack((column_scale, zero_scale[:, None]))
            assert np.all(np.abs(got[[1, 3]] - expect_form[[1, 3]]) <= 64 * ulp * form_scale[[1, 3]]), (i, tau)
            phi_dot = du[4:].reshape(4, 4).T
            assert np.all(np.abs(phi_dot - matrix @ phi) <= 64 * ulp * (column_scale @ np.abs(phi))), (i, tau)


# -- synthetic drives ---------------------------------------------------------


def _drive_field(kind, amplitude):
    """x'' = -sgn(x) + amplitude·kind(t); z parked at 1 so surface 2 never fires."""
    drive = ((1, 4), 1.0, PeriodicScalar.harmonic(kind, amplitude, 1.0))
    return lambda signs: _second_order((0.0, 0.0, 0.0, 0.0, -signs[0]), (0.0,) * 5, drive)


# -- exactly solvable flow --------------------------------------------------


def test_family_orbit_closes_at_eps_zero(bench):
    reduced, s = bench
    spec = damped_spec(s)
    orbit = orbit_from_amplitude(BifurcationSystem(1, spec, reduced, s), np.array([0.8, 0.3]))
    traj = integrate(spec, reduced, s, 0.0, orbit.initial_state, (0.0, orbit.period_tau))
    gap = np.asarray(traj.final_state) - orbit.initial_state
    assert float(np.linalg.norm(gap)) < 5e-9
    # x and z are both proportional to the family cosine, so the two
    # surfaces fire simultaneously: two corner pairs per period
    assert len(traj.events) == 4
    assert all(ev.kind == "crossing" and ev.corner for ev in traj.events)
    assert all(ev.rate == ev.state[2 * ev.surface - 1] for ev in traj.events)
    assert traj.offenders == ()
    assert traj.margin > 0.5


def test_eps_zero_matches_expm_flow(bench):
    reduced, s = bench
    spec = damped_spec(s)
    s0 = np.array([0.3, -0.2, 0.5, 0.1])
    traj = integrate(spec, reduced, s, 0.0, s0, (0.0, 7.0))
    assert final_time(traj) == 7.0
    taus = np.concatenate([seg.ts for seg in traj.segments])
    ref = flow_states(reduced.a, reduced.b, s0, taus)
    got = np.concatenate([seg.states for seg in traj.segments]).T
    assert np.allclose(got, ref, atol=1e-7)


def test_integrate_validates_state_shape(bench):
    reduced, s = bench
    spec = damped_spec(s)
    with pytest.raises(DomainError):
        integrate(spec, reduced, s, 0.0, (0.1, 0.2, 0.3), (0.0, 1.0))
    # the DOP853 port takes no step from a state that is not finite
    with pytest.raises(DomainError, match="must be finite"):
        dop853.solve(lambda t, y: y, (0.0, 1.0), [0.1, math.nan], rtol=1e-10, atol=1e-12)


def test_trajectory_sample_and_span_checks(bench):
    reduced, s = bench
    spec = damped_spec(s)
    traj = integrate(spec, reduced, s, 0.0, (0.3, -0.2, 0.5, 0.1), (0.0, 2.0))
    # one state row per step time, and the steps cover the span
    assert all(np.asarray(seg.states).shape == (len(seg.ts), 4) for seg in traj.segments)
    assert traj.segments[0].ts[0] == 0.0 and traj.segments[-1].ts[-1] == 2.0


def test_integrate_field_needs_a_finite_positive_step_cap(bench):
    # the cap bounds every step of both solvers, and no value of it turns
    # the exact flow or the step budget off
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.1}, s, family=1, p=1)
    for cap in (math.inf, math.nan, 0.0, -0.25):
        with pytest.raises(DomainError, match="max_step must be finite and positive"):
            integrate_field(d1_field(spec, reduced, 1e-2), (0.3, -0.2, 0.5, 0.1), (0.0, 1.0), max_step=cap)


_COS = PeriodicScalar.harmonic("cos", 1.0, 1.0)


@pytest.mark.parametrize("field, message", [
    # x′ = y + cos t
    (lambda signs: PeriodicArray(_second_order((0.0,) * 5, (0.0,) * 5).constant, (((0, 4), 1.0, _COS),)),
     "row 0 of F_σ must be (0.0, 1.0, 0.0, 0.0, 0.0) with no τ-term"),
    # z′ = 2w
    (lambda signs: PeriodicArray(((0.0, 1.0, 0.0, 0.0, 0.0), (0.0,) * 5, (0.0, 0.0, 0.0, 2.0, 0.0), (0.0,) * 5)),
     "row 2 of F_σ must be (0.0, 0.0, 0.0, 1.0, 0.0) with no τ-term"),
    # y′ = −sgn(z)
    (lambda signs: _second_order((0.0, 0.0, 0.0, 0.0, -signs[1]), (0.0,) * 5),
     "row 1 of F_σ changes with σ_z"),
    # w′ = sgn(x)·cos t
    (lambda signs: _second_order((0.0,) * 5, (0.0,) * 5, ((3, 4), signs[0], _COS)),
     "row 3 of F_σ changes with σ_x"),
], ids=["row-0", "row-2", "row-1", "row-3"])
def test_a_field_that_is_not_second_order_is_refused(field, message):
    # the contract the contacts rest on is checked on the forms for
    # σ = (1, 1), (−1, 1) and (1, −1) before the first step, and the
    # refusal names the row that breaks it
    calls = []

    def counted(signs):
        calls.append(signs)
        return field(signs)

    with pytest.raises(DomainError, match=re.escape(f"not second order: {message}")) as err:
        integrate_field(counted, (0.3, 0.1, 0.5, 0.2), (0.0, 1.0), max_step=0.25, monodromy=True)
    assert err.value.exit_code == 1 and err.value.trajectory is None
    assert sorted(calls) == [(-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_every_synthetic_field_is_second_order():
    # the forms the tests integrate pass the check that refuses the ones above
    for field in (lambda signs: _THROWN, lambda signs: _TOUCHED, _landing_form, _corner_form, _chattering_form,
                  _coasting, _touchdown, _drive_field("cos", 0.25), _drive_field("sin", 1.5), blow_up_field):
        filippov._check_second_order(field)


# -- contacts that cannot be continued ------------------------------------------


def _touchdown(signs):
    """x'' = 2 sgn(x), z'' = 0: from (0.25, -1, 0.5, -1), x = (t - 0.5)² comes
    to rest on x = 0 as z crosses, and x'' vanishes in the surface while z
    still moves."""
    return _second_order((0.0, 0.0, 0.0, 0.0, 2.0 * signs[0]), (0.0,) * 5)


@pytest.mark.parametrize(
    "field, s0, t_span, error, code, reason, time",
    [
        # from rest on x = 0, |0.25 cos| < 1 lets both one-sided
        # accelerations push back onto the surface: the tangency's side
        # cannot be left
        (_drive_field("cos", 0.25), (0.0, 0.0, 1.0, 0.0), (0.0, 6.0),
         IntegrationStallError, 6, "unable to leave the switching surface", 0.0),
        # the drive -0.526 selects x < 0, where the sgn term pushes back
        (_drive_field("sin", 1.5), (0.0, 0.0, 1.0, 0.0), (3.5, 6.0),
         IntegrationStallError, 6, "unable to leave the switching surface", 3.5),
        (_touchdown, (0.25, -1.0, 0.5, -1.0), (0.0, 6.0),
         CrossingViolationError, 5, "persistent tangency with surface 1", 0.5),
        # however little of the span is left after the contact
        (_drive_field("cos", 0.25), (0.0, 0.0, 1.0, 0.0), (1.0, 1.0 + 1e-9),
         IntegrationStallError, 6, "unable to leave the switching surface", 1.0),
    ],
    ids=["drive-cos", "drive-sin", "corner", "drive-cos-near-the-end"],
)
def test_sliding_contact_is_refused(field, s0, t_span, error, code, reason, time):
    # a tangency whose flow cannot leave the surface for the side its
    # in-surface acceleration selected, or whose in-surface acceleration
    # vanishes while the field does not, stops the run with an error
    with pytest.raises(error, match=reason) as err:
        integrate_field(field, s0, t_span, max_step=0.25)
    assert err.value.exit_code == code
    assert f"at t = {time:.6g}:" in str(err.value)


# x' = y, y' = -2 with z parked at 1: x = y0·t − t² leaves x = 0 and
# returns at t = y0
_THROWN = PeriodicArray(((0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, -2.0),
                         (0.0, 0.0, 0.0, 1.0, 0.0), (0.0,) * 5))
# x' = y, y' = -1 + 2 cos 20t from rest on x = 0: x = -t²/2 + (1 - cos 20t)/200
# touches x = 0, leaves it with curvature 1 and returns at ±t*
_TOUCHED = PeriodicArray(((0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, -1.0),
                          (0.0, 0.0, 0.0, 1.0, 0.0), (0.0,) * 5),
                         (((1, 4), 2.0, PeriodicScalar.harmonic("cos", 1.0, 20.0)),))
_T_STAR = 0.13915573782515103


@pytest.mark.parametrize("solver", ["dop853", "exact-flow"], indirect=True)
@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "backward"])
def test_level_leaves_its_contact_and_returns(solver, direction):
    # a segment starts at its contact, with the level at exactly 0, and
    # the level's return to the surface is still found: inside the first
    # step on the exact flow, a few steps on for DOP853
    traj = integrate_field(lambda signs: _THROWN, (0.0, 0.1 * direction, 1.0, 0.0), (0.0, direction),
                           max_step=0.25)
    assert [(ev.surface, ev.kind) for ev in traj.events[:2]] == [(1, "crossing")] * 2
    assert traj.events[0].time == 0.0
    assert abs(traj.events[1].time - 0.1 * direction) <= 1e-12

    traj = integrate_field(lambda signs: _TOUCHED, (0.0, 0.0, 1.0, 0.0), (0.0, direction), max_step=0.25)
    assert [(ev.surface, ev.kind) for ev in traj.events[:2]] == [(1, "tangent"), (1, "crossing")]
    assert traj.events[0].time == 0.0
    tol = 1e-12 if solver == "exact-flow" else 1e-10
    assert abs(traj.events[1].time - _T_STAR * direction) <= tol


# The slope of the clocked touch level's acceleration below.
_K = 3000.0


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "backward"])
def test_dop853_finds_a_return_inside_its_first_step(solver, direction):
    # DOP853 resolves the cosine above in several steps; on polynomial
    # levels, which it integrates exactly, the return falls inside its first
    # step, where the root is searched on the deflated level
    thrown = integrate_field(lambda signs: _THROWN, (0.0, 1e-3 * direction, 1.0, 0.0), (0.0, direction),
                             max_step=0.25)
    # x'' = 1 + K − K·z with z = 1 ± t as the clock (w = ±1 along the run),
    # so x'' = 1 ∓ K·t: x = t²/2 ∓ K·t³/6 touches x = 0 and returns at ±3/K
    clocked = _second_order((0.0, 0.0, -_K, 0.0, 1.0 + _K), (0.0,) * 5)
    touched = integrate_field(lambda signs: clocked, (0.0, 0.0, 1.0, direction), (0.0, direction), max_step=0.25)
    for traj, first, t_return in ((thrown, "crossing", 1e-3), (touched, "tangent", 3.0 / _K)):
        assert [ev.kind for ev in traj.events[:2]] == [first, "crossing"]
        assert len(traj.segments[0].ts) == 2
        assert abs(traj.events[1].time - t_return * direction) <= 1e-12


# -- table knots -------------------------------------------------------------


@pytest.mark.parametrize("eps", [1e-2, 1.0])
def test_a_bare_field_run_ends_its_segments_at_the_table_knots(bench, eps):
    # the knots are read from the field's own forms, so a run given only
    # the field is the pendulum run, segment for segment and bit for bit,
    # and every knot of the 256-knot table inside (0, T₁) ends a segment
    reduced, s = bench
    spec = table_spec(s)
    s0, t_span = (0.3, -0.2, 0.5, 0.1), (0.0, s.period1)
    bare = integrate_field(d1_field(spec, reduced, eps), s0, t_span, max_step=filippov.step_cap(s))
    assert bare == integrate(spec, reduced, s, eps, s0, t_span)
    assert set(spec.K[0].knots[0][1:-1]) <= {segment.ts[-1] for segment in bare.segments}


def test_a_table_read_on_one_side_ends_segments_at_its_knots():
    # x″ = 0.1·P(τ) on x < 0 alone, P a 256-knot table of period 1: of the
    # three forms the second-order check reads, only F_(−1, 1) holds P,
    # and the run on x < 0 ends a segment at each knot k/256 up to t = 0.5
    taus = np.arange(256) / 256.0
    table = PeriodicScalar.from_table(taus, np.cos(2.0 * math.pi * taus))

    def form(signs):
        return _second_order((0.0,) * 5, (0.0,) * 5, *([((1, 4), 0.1, table)] if signs[0] < 0.0 else []))

    traj = integrate_field(form, (-1.0, 0.0, 1.0, 0.0), (0.0, 0.5), max_step=0.25)
    assert not traj.events
    assert [segment.ts[-1] for segment in traj.segments] == [k / 256.0 for k in range(1, 129)]


# -- monodromy ---------------------------------------------------------------


def _landing_form(signs):
    """x'' = 1 + sgn(x), z' = w, w' = 0 as [M_σ | c_σ]: x″ is 0 on x < 0
    and 2 on x > 0."""
    return PeriodicArray(((0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 1.0 + signs[0]),
                          (0.0, 0.0, 0.0, 1.0, 0.0), (0.0,) * 5))


def test_saltation_matches_the_exact_flow_map():
    # from (x0, y0) = (-1, 1) x crosses at t_c = -x0/y0 = 1; with s = T - t_c,
    # x(T) = y0·s + s² and y(T) = y0 + 2s, so at T = 1.5 the flow map's
    # derivative in (x0, y0) is [[2, 2.5], [2, 3]]; z moves freely
    traj = integrate_field(_landing_form, (-1.0, 1.0, 1.0, 0.0), (0.0, 1.5), monodromy=True, max_step=0.25)
    assert [ev.kind for ev in traj.events] == ["crossing"]
    assert not traj.offenders
    expect = [[2.0, 2.5, 0.0, 0.0], [2.0, 3.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.5], [0.0, 0.0, 0.0, 1.0]]
    assert np.allclose(traj.monodromy, expect, rtol=0.0, atol=1e-12)


def _corner_form(signs):
    """x'' = 1 + 0.5 sgn(x), z'' = 0.75 + 0.25 sgn(z) as [M_σ | c_σ]: from
    (-0.25, 1, -0.25, 1) both levels are -0.25 + t + t²/4 and cross zero
    together at t = √5 - 2."""
    return PeriodicArray(((0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 1.0 + 0.5 * signs[0]),
                          (0.0, 0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.75 + 0.25 * signs[1])))


@pytest.mark.parametrize("solver", ["dop853", "exact-flow"], indirect=True)
def test_corner_crossing_carries_the_monodromy(solver):
    # each crossing changes its own acceleration row, so crossing both
    # surfaces at once keeps a differentiable flow map: the monodromy that
    # the exact flow carries through the corner is the central difference
    # of the flow map that each solver's runs give
    s0 = np.array([-0.25, 1.0, -0.25, 1.0])

    def run(start, **options):
        return integrate_field(_corner_form, start, (0.0, 1.0), max_step=0.25, **options)

    traj = run(s0)
    assert [(ev.surface, ev.kind, ev.corner) for ev in traj.events] == [(1, "crossing", True), (2, "crossing", True)]
    assert all(abs(ev.time - (math.sqrt(5.0) - 2.0)) <= 1e-12 for ev in traj.events)
    h = 1e-6
    flow_map = np.stack([(np.subtract(run(s0 + h * e).final_state, run(s0 - h * e).final_state)) / (2.0 * h)
                         for e in np.eye(4)], axis=1)
    carried = run(s0, monodromy=True)
    assert not carried.offenders
    assert np.allclose(carried.monodromy, flow_map, rtol=0.0, atol=1e-8)


def test_monodromy_follows_the_time_direction(bench):
    # integrating back over the window inverts the forward monodromy
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.1}, s, family=1, p=1)
    s0 = (0.3, -0.2, 0.5, 0.1)
    forward = integrate(spec, reduced, s, 1e-2, s0, (0.0, 5.0), monodromy=True)
    assert len(forward.events) >= 2 and all(ev.kind == "crossing" for ev in forward.events)
    backward = integrate(spec, reduced, s, 1e-2, forward.final_state, (5.0, 0.0), monodromy=True)
    assert np.allclose(np.asarray(backward.monodromy) @ forward.monodromy, np.eye(4), rtol=0.0, atol=1e-9)


def test_monodromy_request_ends_at_a_tangency(bench):
    reduced, s = bench
    traj = integrate(damped_spec(s), reduced, s, 0.0, (0.0, 0.0, 1.0, 0.3), (0.0, 2.0), monodromy=True)
    assert traj.events[0].kind == "tangent"
    assert traj.monodromy is None
    first = traj.events[traj.offenders[0]]
    assert (first.kind, first.surface, first.time) == ("tangent", 1, 0.0)


# -- tangency resolution -----------------------------------------------------


def test_tangency_resolves_to_departing_side(bench):
    reduced, s = bench
    spec = damped_spec(s)
    # y = 0 on x = 0: the contact is tangent, and g'' = y' = z = 1 > 0
    # sends the trajectory into x > 0
    traj = integrate(spec, reduced, s, 0.0, (0.0, 0.0, 1.0, 0.3), (0.0, 2.0))
    assert traj.events[0].kind == "tangent"
    assert traj.events[0].rate == 0.0
    assert traj.segments[0].signs == (1.0, 1.0)
    assert final_time(traj) == 2.0


def test_tangency_equilibrium_settles(bench):
    reduced, s = bench
    spec = damped_spec(s)
    traj = integrate(spec, reduced, s, 0.0, (0.0, 0.0, 0.0, 0.0), (0.0, 3.0))
    assert traj.events[0].kind == "tangent"
    assert np.array_equal(traj.segments[-1].states, np.zeros((2, 4)))
    assert final_time(traj) == 3.0


def _coasting(signs):
    """x'' = z'' = 0: from rest on x = 0 with z moving, the level's rate and
    curvature both vanish while the field does not."""
    return _second_order((0.0,) * 5, (0.0,) * 5)


def test_persistent_tangency_raises():
    # the contact neither crosses nor resolves
    with pytest.raises(CrossingViolationError):
        integrate_field(_coasting, (0.0, 0.0, 1.0, 1.0), (0.0, 1.0), max_step=0.25)


@pytest.mark.parametrize(
    "field, s0, time, n_segments",
    [
        # the field of test_persistent_tangency_raises, on x = 0 from the start
        (_coasting, (0.0, 0.0, 1.0, 1.0), 0.0, 0),
        # the corner of test_sliding_contact_is_refused, after one segment
        (_touchdown, (0.25, -1.0, 0.5, -1.0), 0.5, 1),
    ],
    ids=["initial", "after-a-segment"],
)
def test_persistent_tangency_keeps_its_run(field, s0, time, n_segments):
    # the tangent contact is logged before the run stops, so the partial
    # run ends on the contact that stopped it
    with pytest.raises(CrossingViolationError) as err:
        integrate_field(field, s0, (0.0, 1.0), max_step=0.25)
    partial = err.value.trajectory
    (event,) = partial.events
    assert (event.kind, event.surface) == ("tangent", 1) and event.time == pytest.approx(time, abs=1e-12)
    assert partial.offenders == (0,) and len(partial.segments) == n_segments
    assert partial.final_state == pytest.approx(event.state, abs=1e-12)


# -- stall handling ----------------------------------------------------------


def test_event_budget_stall_attaches_partial_trajectory(bench):
    reduced, s = bench
    spec = damped_spec(s)
    orbit = orbit_from_amplitude(BifurcationSystem(1, spec, reduced, s), np.array([0.8, 0.3]))
    with pytest.raises(IntegrationStallError) as err:
        integrate(spec, reduced, s, 0.0, orbit.initial_state, (0.0, orbit.period_tau), max_events=1)
    partial = err.value.trajectory
    assert partial is not None
    assert len(partial.events) == 1
    assert len(partial.segments) >= 1
    assert err.value.exit_code == 6


def _chattering_form(signs):
    """x′ = y, y′ = −1e4·σ_x, z′ = w, w′ = −1 as [M_σ | c_σ]: from x = 0
    with y = 1e-9, x returns to 0 every 2e-13 time units."""
    return PeriodicArray(((0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, -1e4 * signs[0]),
                          (0.0, 0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0, -1.0)))


@pytest.mark.parametrize("solver", ["dop853", "exact-flow"], indirect=True)
def test_event_accumulation_stalls_the_run(solver):
    # crossings that pile up faster than the event time tolerance stop the
    # run after STALL_RUN of them, with the crossings it logged
    with pytest.raises(IntegrationStallError) as err:
        integrate_field(_chattering_form, (0.0, 1e-9, 1.0, 0.0), (0.0, 1.0), max_step=0.25)
    assert str(err.value) == "integration stalled at t = 1e-11: 50 consecutive events within 1e-12 time units"
    assert err.value.exit_code == 6
    events = err.value.trajectory.events
    assert len(events) == 50 and all((ev.surface, ev.kind) == (1, "crossing") for ev in events)


def test_crossing_requirement_flags_tangency(bench):
    reduced, s = bench
    spec = damped_spec(s)
    traj = integrate(spec, reduced, s, 0.0, (0.0, 0.0, 1.0, 0.3), (0.0, 2.0))
    assert traj.offenders == (0,)
    assert traj.margin == 0.0


def blow_up_field(signs):
    """x″ = 1e8·x: from x = 0.5 at rest, x = 0.5·cosh(1e4·t) grows past
    DOP853's step-size floor, and neither level reaches zero."""
    return _second_order((1e8, 0.0, 0.0, 0.0, 0.0), (0.0,) * 5)


# Where DOP853's step size falls below the spacing of the floats on
# ``blow_up_field``, measured on the DOP853 port.
_BLOW_UP_T = 0.0689


def test_failed_dop853_run_returns_its_accepted_steps():
    # y′ = y² from y = 1 blows up at t = 1, where the step size collapses
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [y[0] * y[0]]

    ref = solve_ivp(rhs, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10, atol=1e-12)
    run = dop853.solve(rhs, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12)
    assert run.status == ref.status == -1 and run.message == ref.message == dop853.TOO_SMALL_STEP
    assert len(run.ts) > 2
    assert run.ts.tobytes() == ref.t.tobytes() and run.ys.tobytes() == ref.y.T.tobytes()


@pytest.mark.parametrize("stop_at", [1, 2, 200])
def test_dop853_run_ends_where_its_right_hand_side_stalls(stop_at):
    # call 1 is f(t0), call 2 the initial step's probe and call 200 falls
    # in the 14th step; the run ends there, with the steps accepted before it
    def rhs(t, y):
        return [-y[0] + math.cos(3.0 * t)]

    calls = []

    def stopping(t, y):
        calls.append(t)
        if len(calls) == stop_at:
            raise IntegrationStallError("the right-hand side stopped the run")
        return rhs(t, y)

    full = dop853.solve(rhs, (0.0, 20.0), [1.0], rtol=1e-10, atol=1e-12)
    run = dop853.solve(stopping, (0.0, 20.0), [1.0], rtol=1e-10, atol=1e-12)
    assert run.status == -1 and run.message == "the right-hand side stopped the run"
    n = len(run.ts)
    assert n == len(run.ys) and (n == 1 if stop_at < 200 else 2 < n < len(full.ts))
    assert run.ts.tobytes() == full.ts[:n].tobytes() and run.ys.tobytes() == full.ys[:n].tobytes()


def test_stalled_segment_keeps_its_accepted_steps(solver):
    with pytest.raises(IntegrationStallError) as err:
        integrate_field(blow_up_field, (0.5, 0.0, 1.0, 0.0), (0.0, 2.0), max_step=0.1)
    assert err.value.exit_code == 6
    (segment,) = err.value.trajectory.segments
    assert len(segment.ts) > 2 and segment.ts[-1] == pytest.approx(_BLOW_UP_T, abs=1e-3)
    assert str(err.value) == (f"integration stalled at t = {segment.ts[-1]:.6g}: the segment solver failed: "
                              f"{dop853.TOO_SMALL_STEP}")


def test_step_budget_stall_keeps_its_accepted_steps(solver, monkeypatch):
    monkeypatch.setattr(dop853, "MAX_STEPS", 3)
    with pytest.raises(IntegrationStallError, match="more than 3 steps") as err:
        integrate_field(blow_up_field, (0.5, 0.0, 1.0, 0.0), (0.0, 2.0), max_step=0.1)
    (segment,) = err.value.trajectory.segments
    assert len(segment.ts) == len(segment.states) == 4
    assert f"stalled at t = {segment.ts[-1]:.6g}:" in str(err.value)


# -- regularized route -------------------------------------------------------


def test_regularized_matches_linear_flow(bench):
    reduced, s = bench
    spec = damped_spec(s)
    s0 = np.array([0.3, -0.2, 0.5, 0.1])
    traj = integrate_regularized(spec, reduced, s, 0.0, 1e-3, s0, (0.0, 7.0))
    assert traj.events == []
    assert len(traj.segments) == 1
    seg = traj.segments[0]
    ref = flow_states(reduced.a, reduced.b, s0, seg.ts)
    assert np.allclose(np.asarray(seg.states).T, ref, atol=1e-7)
    with pytest.raises(DomainError):
        integrate_regularized(spec, reduced, s, 0.0, 0.0, s0, (0.0, 1.0))


def regularized_rhs(spec, reduced, s, eps, delta):
    """The right-hand side `integrate_regularized` hands DOP853, caught on
    an empty span, whose 10-ulp floor is subnormal."""
    caught = []
    solve = filippov._dop853

    def catching(rhs, *args, **options):
        caught.append(rhs)
        return solve(rhs, *args, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filippov, "_dop853", catching)
        integrate_regularized(spec, reduced, s, eps, delta, (0.0, 0.0, 0.0, 0.0), (0.0, 0.0))
    (rhs,) = caught
    return rhs


def test_regularized_rhs_matches_per_call_field(bench):
    # the regularized right-hand side, one array of plain and signed rows at
    # the ramp's σ in [−1, 1], against the field summed whole on every
    # call: within 1e-15 of the terms' absolute sum
    reduced, s = bench
    rng = np.random.default_rng(5)
    window = 2.7
    delta = 1e-3
    worst = 0.0
    for _ in range(200):
        spec = PerturbationSpec(
            K=tuple(_random_scalar(rng, window) for _ in range(4)),
            F=tuple(tuple(_random_scalar(rng, window) for _ in range(4)) for _ in range(4)),
        )
        eps = 10.0 ** rng.uniform(-3.0, 0.0)
        rhs = regularized_rhs(spec, reduced, s, eps, delta)
        reference = per_call_field(spec, reduced, eps)
        for tau in rng.uniform(-3.0, 10.0, size=3):
            state = rng.normal(size=4)
            state[[0, 2]] = delta * rng.uniform(-1.0, 1.0, size=2)
            signs = (smooth_sign(state[0], delta), smooth_sign(state[2], delta))
            scale = field_term_scale(spec, reduced, eps, tau, state, signs)
            error = np.abs(np.asarray(rhs(tau, state.tolist())) - reference(tau, state, signs)) / scale
            worst = max(worst, float(np.max(error)))
    assert worst <= 1e-15


def test_regularized_run_reads_one_array_per_call(bench, monkeypatch):
    # the run builds its one array once, calls no frozen-sign form (so
    # d1_field's cache cannot grow with the steps) and evaluates the array
    # once per right-hand-side call
    reduced, s = bench
    built, rhs_calls, array_calls = [], [0], [0]
    build, solve, evaluate = filippov._table_array, filippov._dop853, PeriodicArray.__call__

    def counted_solve(rhs, *args, **options):
        def counted(t, u):
            rhs_calls[0] += 1
            return rhs(t, u)

        return solve(counted, *args, **options)

    def counted_array(self, tau):
        array_calls[0] += 1
        return evaluate(self, tau)

    def refused(*args):
        raise AssertionError("the regularized run built a frozen-sign field")

    monkeypatch.setattr(filippov, "_table_array", lambda *args: built.append(args) or build(*args))
    monkeypatch.setattr(filippov, "_dop853", counted_solve)
    monkeypatch.setattr(PeriodicArray, "__call__", counted_array)
    monkeypatch.setattr(filippov, "d1_field", refused)
    for spec in (builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.05}, s), table_spec(s)):
        built.clear()
        rhs_calls[0] = array_calls[0] = 0
        integrate_regularized(spec, reduced, s, 1e-2, 1e-3, (0.3, -0.2, 0.5, 0.1), (0.0, 3.0))
        assert len(built) == 1 and rhs_calls[0] > 100 and array_calls[0] == rhs_calls[0]


def test_regularized_run_ends_its_steps_at_table_knots(bench):
    # the table_ini run of tests/test_cli.py: DOP853 restarts at every knot
    # of the 256-knot table, one segment per knot interval, and the run ends
    # within 5e-11 of SciPy's DOP853 at rtol 1e-13 restarted at the same
    # knots (a run whose steps cross the knots ends 5.7e-10 away)
    from scipy.integrate import solve_ivp

    reduced, s = bench
    spec = table_spec(s)
    eps, delta, s0, span = 1e-2, 1e-3, (0.3, -0.2, 0.5, 0.1), (0.0, 8.2)
    traj = integrate_regularized(spec, reduced, s, eps, delta, s0, span)
    edges = [0.0, *(t for t in spec.K[0].knots[0] if 0.0 < t < 8.2), 8.2]
    assert len(edges) == 257 and len(traj.segments) == 256 and traj.events == []
    for segment, start, end in zip(traj.segments, edges, edges[1:]):
        assert (segment.ts[0], segment.ts[-1]) == pytest.approx((start, end), abs=1e-12)
        assert all(math.isnan(sign) for sign in segment.signs)
    field = per_call_field(spec, reduced, eps)

    def rhs(t, u):
        return field(t, u, (smooth_sign(u[0], delta), smooth_sign(u[2], delta)))

    state = np.array(s0)
    for start, end in zip(edges, edges[1:]):
        state = solve_ivp(rhs, (start, end), state, method="DOP853", rtol=1e-13, atol=1e-16).y[:, -1]
    assert np.linalg.norm(np.subtract(traj.final_state, state)) <= 5e-11


# -- the DOP853 port -----------------------------------------------------------


def random_signed_field(rng):
    """Affine-plus-harmonic field with sign-dependent offsets, at a random speed."""
    speed = 10.0 ** rng.uniform(-3.0, 0.0)
    matrix = speed * rng.normal(size=(4, 4))
    offset, amplitude, push_x, push_z = speed * rng.normal(size=(4, 4))
    omega = rng.uniform(0.5, 5.0)

    def field(t, u, signs):
        return matrix @ u + offset + amplitude * math.cos(omega * t) + signs[0] * push_x + signs[1] * push_z

    return field


def terminal(event):
    event.terminal = True  # SciPy's flag; the port treats every event as terminal
    return event


def test_dop853_matches_solve_ivp_bit_for_bit(bench):
    from scipy.integrate import solve_ivp

    reduced, s = bench
    rng = np.random.default_rng(20261018)
    builtin_fields = [
        d1_field(builtin(name, params, s, family=1, p=1), reduced, 10.0 ** rng.uniform(-3.0, -1.0))
        for name, params in (("damped_forced", {"gamma": 0.5}),
                             ("damped_forced_escapement", {"gamma": 0.5, "kappa": 0.05}),
                             ("corollary_escapement", {"sigma_d": 1.0, "sigma_e": -1.0}))
    ]
    for case in range(90):
        # Every third case runs a pendulum field.
        synthetic = case % 3 != 0
        field = random_signed_field(rng) if synthetic else builtin_fields[case // 3 % 3]
        signs = tuple(float(v) for v in rng.choice([-1.0, 1.0], size=2))
        y0 = rng.normal(size=4)
        t0 = rng.uniform(-2.0, 2.0)
        direction = rng.choice([-1.0, 1.0])
        t1 = t0 + direction * 10.0 ** rng.uniform(-4.0, 0.8)
        max_step = np.inf if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
        # no events or the two level events, which the port takes as the
        # indices 0 and 2 and SciPy as callables
        events = [0, 2] if case // 3 % 2 else []
        if events and rng.random() < 0.5:
            # Start just before both surfaces, in random order, so that one
            # step crosses both (on the pendulum fields x' = y and z' = w).
            y0[[0, 2]] = -direction * y0[[1, 3]] * rng.uniform(1e-4, 1e-2, size=2)

        def rhs(t, u, field=field, signs=signs):
            return field(t, u, signs) if synthetic else _affine_rhs(field(signs))(t, u)

        levels = [terminal(lambda t, u, k=k: u[k]) for k in events]
        ref = solve_ivp(rhs, (t0, t1), y0, method="DOP853", dense_output=True,
                        events=levels or None, rtol=1e-10, atol=1e-12, max_step=max_step)
        run = dop853.solve(rhs, (t0, t1), y0, rtol=1e-10, atol=1e-12, max_step=max_step,
                           events=events)
        assert run.status == ref.status, case
        assert run.ts.tobytes() == ref.t.tobytes(), case
        assert run.ys.tobytes() == ref.y.T.tobytes(), case
        fired = [i for i, times in enumerate(ref.t_events or []) if len(times)]
        assert run.event == (fired[0] if fired else None), case
        if fired:
            assert ref.t_events[fired[0]].tolist() == [run.ts[-1]], case
    # an empty span is two equal rows
    ref = solve_ivp(rhs, (t0, t0), y0, method="DOP853", dense_output=True, rtol=1e-10, atol=1e-12)
    run = dop853.solve(rhs, (t0, t0), y0, rtol=1e-10, atol=1e-12)
    assert run.status == ref.status == 0 and run.ts.tobytes() == ref.t.tobytes()
    assert run.ys.tobytes() == ref.y.T.tobytes()
    # a vanishing field: the initial step's two derivative estimates and
    # every step's two error estimates are zero
    rest = [0.3, -0.2, 0.1, 0.5]
    ref = solve_ivp(lambda t, u: [0.0] * 4, (0.0, 2.0), rest, method="DOP853", dense_output=True,
                    rtol=1e-10, atol=1e-12, max_step=0.5)
    run = dop853.solve(lambda t, u: [0.0] * 4, (0.0, 2.0), rest, rtol=1e-10, atol=1e-12, max_step=0.5)
    assert run.status == ref.status and run.ts.tobytes() == ref.t.tobytes()
    assert run.ys.tobytes() == ref.y.T.tobytes()
    # The regularized right-hand side of a forcing so large that d1 overflows
    # in the initial step: h0 = 0, and SciPy's float64 d2 = nan starts the run
    # from the smallest step.
    field = d1_field(damped_spec(s, gamma=1e300), reduced, 5.0)

    def rhs(t, u):
        return _affine_rhs(field((smooth_sign(u[0], 1e-3), smooth_sign(u[2], 1e-3))))(t, u)

    y0 = np.array([2.0, 0.0, 2.0, 1e-12])
    max_step = min(s.period1, s.period2) / 16.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ref = solve_ivp(rhs, (0.0, 1e-3), y0, method="DOP853", dense_output=True, rtol=1e-10,
                        atol=1e-12, max_step=max_step)
        run = dop853.solve(rhs, (0.0, 1e-3), y0, rtol=1e-10, atol=1e-12, max_step=max_step)
    assert run.status == ref.status == 0 and np.isfinite(run.ys).all()
    assert run.ts.tobytes() == ref.t.tobytes() and run.ys.tobytes() == ref.y.T.tobytes()


def test_dop853_ends_a_run_whose_step_size_is_nan():
    # a field that is NaN at the start makes the initial step NaN, which is
    # neither accepted nor below the minimum step; SciPy loops there for
    # ever, so the run is made in a child that a timeout fails
    code = ("import math; from pendavg import dop853; "
            "run = dop853.solve(lambda t, u: [math.nan] * 4, (0, 1), [0.1, 0.2, 0.3, 0.4], "
            "rtol=1e-12, atol=1e-14, max_step=0.1); print(run.status, run.ts.tolist()); print(run.message)")
    src = str(Path(dop853.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["-1 [0.0]", dop853.NAN_STEP]


@pytest.mark.parametrize("eps, gamma", [(1e-2, 0.5), (5.0, 1e300), (1e2, 0.5), (1e4, 0.5)],
                         ids=["small", "huge-forcing", "damped", "stiff"])
def test_exact_flow_matches_scipy_expm(bench, eps, gamma):
    """The exact segment flow, marched in steps of the step cap from
    t0 = 0.7, against SciPy's expm over the whole span: with a small
    forcing, with one that takes the state near 1e300, with a strong
    damping and with one far too stiff for an explicit solver at that
    step; a full step's exponential takes 0, 1, 5 and 12 squarings.  The
    forcing columns of B are scaled by λ before expm, as D·B′·D⁻¹ with
    D = diag(1, 1, 1, 1, 1/λ, …), so SciPy's scaling sees only M.  Both
    exponentials are accurate to about u·‖M‖₁·span (Higham 2005)."""
    from scipy.linalg import expm

    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": gamma, "kappa": 0.05}, s, family=1, p=1)
    big = expflow.generator(d1_field(spec, reduced, eps)((1.0, -1.0)))
    u0 = np.array([0.3, -0.2, 0.5, 0.1])
    run = expflow.solve(big, (0.7, 3.7), u0, max_step=min(s.period1, s.period2) / 16.0)
    scale = np.abs(np.asarray(big)[:4, 4:]).max()
    scaled = np.asarray(big).copy()
    scaled[:4, 4:] /= scale
    flow = expm(scaled * 3.0)
    lifted = [math.cos(0.7 * s.omega1), math.sin(0.7 * s.omega1), 1.0]
    expected = flow[:4, :4] @ u0 + scale * (flow[:4, 4:] @ lifted)
    assert run.status == 0 and run.ts[-1] == 3.7
    bound = 1e-14 * max(1.0, np.abs(np.asarray(big)[:4, :4]).sum(axis=0).max()) * 3.0
    assert np.all(np.abs(run.ys[-1] - expected) <= bound * np.abs(expected).max())
    # random specs: a τ-dependent term in a state column (an F coefficient
    # that is not const), or a table, leaves the segment without exact flow
    rng = np.random.default_rng(29)
    cases = set()
    for i in range(24):
        spec = random_spec(rng, s, 1, 1)
        if i % 3 == 0:
            taus = np.arange(256) * (s.period1 / 256)
            spec = PerturbationSpec((PeriodicScalar.from_table(taus, rng.uniform(-1, 1, 256)), *spec.K[1:]),
                                    spec.F, spec.family, spec.p)
        state_column = any(d.kind != "const" for form in spec.F for d in form)
        case = "table" if i % 3 == 0 else "state column" if state_column else "exact"
        big = expflow.generator(d1_field(spec, reduced, eps)((1.0, -1.0)))
        assert (big is None) == (case != "exact"), i
        cases.add(case)
    assert cases == {"table", "state column", "exact"}


def test_exact_flow_root_under_stiff_damping(bench):
    """At ε = 1e4 a step's Taylor polynomial of the level (‖M‖₁·h ≈ 2000)
    misses the exact level at the step's end, so the root comes from
    Brent's method on the exact flow; it matches brentq on SciPy's expm."""
    from scipy.linalg import expm

    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.05}, s, family=1, p=1)
    big = expflow.generator(d1_field(spec, reduced, 1e4)((1.0, 1.0)))
    u0 = np.array([0.1, -0.2, 0.5, 0.1])
    run = expflow.solve(big, (2.0, 8.0), u0, max_step=min(s.period1, s.period2) / 16.0, events=[0, 2])
    assert run.status == 1 and run.event == 0
    lifted = np.concatenate((u0, [math.cos(2.0 * s.omega1), math.sin(2.0 * s.omega1), 1.0]))
    root = brentq(lambda d: (expm(np.asarray(big) * d) @ lifted)[0], 0.0, run.ts[-1] - 1.9, xtol=1e-15)
    assert abs(2.0 + root - run.ts[-1]) <= 1e-10


def test_exact_flow_refuses_a_generator_that_is_not_finite(bench):
    # ε·κ = 1e308·10 overflows to inf in the constant column
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 10.0}, s, family=1, p=1)
    big = expflow.generator(d1_field(spec, reduced, 1e308)((1.0, 1.0)))
    assert math.inf in map(abs, (x for row in big for x in row))
    run = expflow.solve(big, (0.0, 10.0), (0.1, 0.0, 0.1, 0.0), max_step=min(s.period1, s.period2) / 16.0)
    assert run.status == -1 and run.message == expflow.OVERFLOW
    assert run.ts is None and run.ys is None


def test_dop853_builds_dense_output_only_for_event_steps():
    """A step's dense output (three more right-hand-side calls) is built
    only for the step in which an event fires."""
    from scipy.integrate import solve_ivp

    calls = []
    matrix = np.array([[0.0, 1.0], [-4.0, -0.1]])

    def rhs(t, y):
        calls.append(t)
        return matrix @ y + np.array([0.0, math.cos(3.0 * t)])

    options = dict(rtol=1e-10, atol=1e-12, max_step=0.7)
    ref = solve_ivp(rhs, (0.0, 6.0), [1.0, 0.0], method="DOP853", **options)
    calls.clear()
    run = dop853.solve(rhs, (0.0, 6.0), np.array([1.0, 0.0]), **options)
    assert run.ts.tobytes() == ref.t.tobytes()
    assert run.ys.tobytes() == ref.y.T.tobytes()
    # SciPy without dense output: the first field value, the initial step's
    # probe and 12 calls per attempted step
    assert len(calls) == ref.nfev and (ref.nfev - 2) % 12 == 0

    plain = list(calls)
    level = solve_ivp(rhs, (0.0, 6.0), [1.0, 0.0], method="DOP853",
                      events=terminal(lambda t, y: y[0]), **options)
    calls.clear()
    run = dop853.solve(rhs, (0.0, 6.0), np.array([1.0, 0.0]), events=[0], **options)
    assert run.status == 1 and run.ts.tobytes() == level.t.tobytes()
    assert run.ys.tobytes() == level.y.T.tobytes()
    assert len(calls) == level.nfev
    # the plain run's calls up to the end of the event's step, then the
    # three extra stages of that step alone
    steps, extra = calls[:-3], calls[-3:]
    assert steps == plain[:len(steps)]
    t_old, t_new = run.ts[-2], steps[-1]
    assert extra == [t_old + c * (t_new - t_old) for c in dop853.C[dop853.N_STAGES + 1:]]


def test_dop853_error_test_on_leading_components(bench):
    """Variational equations carried along a builtin field and left out of
    the error test keep the plain run's steps and its state."""
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.05}, s, family=1, p=1)
    eps = 1e-2
    field = d1_field(spec, reduced, eps)
    signs = (1.0, -1.0)
    rhs = _affine_rhs(field(signs))

    y0 = np.array([0.3, -0.2, -0.5, 0.1])
    u0 = np.concatenate((y0, np.eye(4).ravel()))
    options = dict(rtol=1e-12, atol=1e-14, max_step=min(s.period1, s.period2) / 16.0)
    ref = dop853.solve(rhs, (0.0, 6.0), y0, **options)
    run = dop853.solve(rhs, (0.0, 6.0), u0, n_tested=4, **options)
    # the step times agree to rounding amplified by the error estimate's
    # cancellation, the count exactly
    assert len(run.ts) == len(ref.ts)
    # the plain run's states, carried to first order over those differences
    shift = (run.ts - ref.ts)[:, None]
    carried = ref.ys + shift * np.array([rhs(t, y) for t, y in zip(ref.ts, ref.ys)])
    for state, expected in zip(run.ys[:, :4], carried):
        assert np.linalg.norm(state - expected) <= 1e-12 * np.linalg.norm(expected)
    # testing every component would make the run take more steps
    assert len(dop853.solve(rhs, (0.0, 6.0), u0, **options).ts) > len(ref.ts)


# -- determinism ---------------------------------------------------------------


def test_integration_is_deterministic(bench):
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.1}, s, family=1, p=1)
    runs = [
        integrate(spec, reduced, s, 1e-3, (0.3, -0.2, 0.5, 0.1), (0.0, 10.0))
        for _ in range(2)
    ]
    assert len(runs[0].events) == len(runs[1].events)
    assert all(
        e1.time == e2.time and e1.kind == e2.kind
        for e1, e2 in zip(runs[0].events, runs[1].events)
    )
    assert np.array_equal(runs[0].final_state, runs[1].final_state)
