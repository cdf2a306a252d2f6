"""Event-driven integration tests.

The exactly solvable eps = 0 flow provides closure and state oracles;
synthetic four-component fields with hand-chosen drives exercise what
the pendulum surfaces cannot reach (the rate of each level is a velocity
that no region sign changes): sliding fields outside the integrator's
contract, persistent tangency and corners whose crossing orders disagree.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pendavg import dop853
from pendavg.errors import CrossingViolationError, DomainError, IntegrationStallError, TangencyError
from pendavg.filippov import (
    crossing_hypothesis_check,
    d1_field,
    export_events_csv,
    export_trajectory_csv,
    integrate,
    integrate_field,
    integrate_regularized,
    require_transversal_crossings,
    segment_rhs,
)
from pendavg.model import PhysicalParams, jordan_transform, reduce_params, spectral_data
from pendavg.perturbation import LinearForm, PeriodicScalar, PerturbationSpec, builtin
from pendavg.verify import orbit_from_amplitude

from .oracles import field_term_scale, flow_states, per_call_field
from .test_averaging import random_spec
from .test_perturbation import _random_scalar

BENCH = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)
GAMMA = 0.5


@pytest.fixture(scope="module")
def bench():
    reduced = reduce_params(BENCH)
    return reduced, spectral_data(reduced)


def damped_spec(s, gamma=GAMMA):
    return builtin("damped_forced", {"gamma": gamma}, s, family=1, p=1)


# -- level rates -----------------------------------------------------------


def test_pendulum_levels_are_one_sided_independent(bench):
    # x' = y and z' = w carry no sgn term, so the rate of each level is the
    # velocity coordinate exactly, whatever the surface's own sign σ_k:
    # every contact of the pendulum is a crossing or a tangency.
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.3}, s, family=1, p=1)
    field = d1_field(spec, reduced, 0.7)
    for own in (-1.0, 0.0, 1.0):
        assert field(1.3, np.array([0.0, 0.45, 1.0, -0.2]), (own, 1.0))[0] == 0.45
        assert field(1.3, np.array([0.5, 0.45, 0.0, -0.2]), (1.0, own))[2] == -0.2
    # the same on random perturbations with τ-dependent coefficients, both
    # families, p = 1 and 2 and several ε, at random states on each surface
    rng = np.random.default_rng(19)
    for family in (1, 2):
        for p in (1, 2):
            for eps in (1e-3, 0.1, 2.0):
                field = d1_field(random_spec(rng, s, family, p), reduced, eps)
                for _ in range(10):
                    tau = rng.uniform(-5.0, 5.0) * p * s.period(family)
                    for k in (0, 1):
                        state = rng.uniform(-2.0, 2.0, size=4)
                        state[2 * k] = 0.0
                        signs = [float(rng.choice([-1.0, 1.0])) for _ in range(2)]
                        for own in (-1.0, 0.0, 1.0):
                            signs[k] = own
                            rate = field(tau, state, tuple(signs))[2 * k]
                            assert rate == state[2 * k + 1], (family, p, eps, k, own)


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
        val = field(tau, st, (sx, sz))
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
            F=tuple(LinearForm(*(coefficient(rng, window) for _ in range(4))) for _ in range(4)),
        )
        eps = 10.0 ** rng.uniform(-3.0, 0.0)
        signs = tuple(rng.choice([-1.0, 0.0, 1.0], size=2))
        field = d1_field(spec, reduced, eps)
        reference = per_call_field(spec, reduced, eps)
        plain = segment_rhs(field, signs)
        variational = segment_rhs(field, signs, monodromy=True)
        for tau in rng.uniform(-3.0, 10.0, size=3):
            state = rng.normal(size=4)
            phi = rng.normal(size=(4, 4))
            expect = reference(tau, state, signs)
            bound = 32 * ulp * field_term_scale(spec, reduced, eps, tau, state, signs)
            assert np.all(np.abs(plain(tau, state) - expect) <= bound), (i, tau)
            du = variational(tau, np.concatenate((state, phi.T.ravel())))
            assert np.all(np.abs(du[:4] - expect) <= bound), (i, tau)
            # column j of M_σ is f(e_j) − f(0), each side rounded as above
            at_zero = reference(tau, np.zeros(4), signs)
            matrix = np.stack([reference(tau, e, signs) - at_zero for e in np.eye(4)], axis=1)
            zero_scale = field_term_scale(spec, reduced, eps, tau, np.zeros(4), signs)
            column_scale = np.stack(
                [field_term_scale(spec, reduced, eps, tau, e, signs) + zero_scale for e in np.eye(4)], axis=1
            )
            phi_dot = du[4:].reshape(4, 4).T
            assert np.all(np.abs(phi_dot - matrix @ phi) <= 64 * ulp * (column_scale @ np.abs(phi))), (i, tau)


# -- synthetic drives ---------------------------------------------------------


def _drive_field(drive):
    # x' = -sgn(x) + drive(t); z parked at 1 so surface 2 never fires
    def field(t, state, signs):
        return np.array([-signs[0] + drive(t), 0.0, 0.0, 0.0])

    return field


# -- exactly solvable flow --------------------------------------------------


def test_family_orbit_closes_at_eps_zero(bench):
    reduced, s = bench
    spec = damped_spec(s)
    transform = jordan_transform(reduced, s)
    orbit = orbit_from_amplitude(np.array([0.8, 0.3]), 1, transform, s, reduced)
    traj = integrate(spec, reduced, s, 0.0, orbit.initial_state, (0.0, orbit.period_tau))
    gap = traj.final_state - orbit.initial_state
    assert float(np.linalg.norm(gap)) < 5e-9
    # x and z are both proportional to the family cosine, so the two
    # surfaces fire simultaneously: two corner pairs per period
    assert len(traj.events) == 4
    assert all(ev.kind == "crossing" and ev.corner for ev in traj.events)
    assert all(ev.rate == ev.state[2 * ev.surface - 1] for ev in traj.events)
    report = crossing_hypothesis_check(traj)
    assert report.ok and report.n_events == 4
    assert report.margin > 0.5
    require_transversal_crossings(traj)


def test_eps_zero_matches_expm_flow(bench):
    reduced, s = bench
    spec = damped_spec(s)
    s0 = np.array([0.3, -0.2, 0.5, 0.1])
    traj = integrate(spec, reduced, s, 0.0, s0, (0.0, 7.0))
    assert traj.final_time == 7.0
    taus = np.concatenate([seg.ts for seg in traj.segments])
    ref = flow_states(reduced.a, reduced.b, s0, taus)
    got = np.concatenate([seg.states for seg in traj.segments]).T
    assert np.allclose(got, ref, atol=1e-7)


def test_integrate_validates_state_shape(bench):
    reduced, s = bench
    spec = damped_spec(s)
    with pytest.raises(DomainError):
        integrate(spec, reduced, s, 0.0, (0.1, 0.2, 0.3), (0.0, 1.0))


def test_trajectory_sample_and_span_checks(bench):
    reduced, s = bench
    spec = damped_spec(s)
    traj = integrate(spec, reduced, s, 0.0, (0.3, -0.2, 0.5, 0.1), (0.0, 2.0))
    # one state row per step time, and the steps cover the span
    assert all(seg.states.shape == (len(seg.ts), 4) for seg in traj.segments)
    assert traj.segments[0].ts[0] == 0.0 and traj.segments[-1].ts[-1] == 2.0


# -- fields outside the contract ----------------------------------------------


@pytest.mark.parametrize(
    "field, s0, error, code, reason, time",
    [
        # |0.25 cos| < 1 keeps both one-sided rates pushing onto x = 0
        (_drive_field(lambda t: 0.25 * math.cos(t)), (0.5, 0.0, 1.0, 0.0),
         IntegrationStallError, 6, "unable to leave the switching surface",
         brentq(lambda t: 0.5 - t + 0.25 * math.sin(t), 0.3, 1.2, xtol=1e-13)),
        (_drive_field(lambda t: 1.5 * math.sin(t)), (0.5, 0.0, 1.0, 0.0),
         IntegrationStallError, 6, "unable to leave the switching surface",
         brentq(lambda t: 2.0 - t - 1.5 * math.cos(t), 3.0, 3.6, xtol=1e-13)),
        # x and z reach zero together at t = 0.5, where both rates vanish
        (lambda t, st, g: np.array([-g[0], 0.0, -g[1], 0.0]), (0.5, 0.0, 0.5, 0.0),
         TangencyError, 5, "persistent tangency with surface 1", 0.5),
    ],
    ids=["drive-cos", "drive-sin", "corner"],
)
def test_sliding_contact_is_refused(field, s0, error, code, reason, time):
    # a rate that depends on the surface's own sign is outside the
    # integrator's contract; a sliding field cannot leave the surface at
    # its first contact, and the run stops there with an error
    with pytest.raises(error, match=reason) as err:
        integrate_field(field, s0, (0.0, 6.0))
    assert err.value.exit_code == code
    assert f"at t = {time:.6g}:" in str(err.value)


# -- monodromy ---------------------------------------------------------------


def _with_affine_form(field):
    """A field that ignores the state, with its affine form M_σ = 0 and
    c_σ = the field, so that a run can carry its monodromy."""
    def affine(t, state, signs):
        return field(t, state, signs)

    affine.frozen = lambda signs: (lambda t: np.zeros((4, 4)), lambda t: field(t, np.zeros(4), signs))
    return affine


def _corner_field(t, state, signs):
    # each level derivative depends on the other surface's sign, so the two
    # crossing orders at the corner give different saltation matrices
    return np.array([1.0 + 0.5 * signs[1], 0.0, 1.0 + 0.5 * signs[0], 0.0])


def test_saltation_matches_the_exact_flow_map():
    # x' = 2 + sgn(x): x0 < 0 crosses at t = -x0 and x(T) = 3(T + x0), so
    # the flow map's derivative is 3 in x and 1 elsewhere
    def field(t, state, signs):
        return np.array([2.0 + signs[0], 0.0, 0.0, 0.0])

    traj = integrate_field(_with_affine_form(field), (-1.0, 0.0, 1.0, 0.0), (0.0, 1.5), monodromy=True)
    assert [ev.kind for ev in traj.events] == ["crossing"]
    assert traj.monodromy_reason is None
    assert np.allclose(traj.monodromy, np.diag([3.0, 1.0, 1.0, 1.0]), rtol=0.0, atol=1e-12)


def test_monodromy_needs_the_affine_form():
    # a field without ``frozen`` has no M_σ to carry Φ′ = M_σ·Φ with
    def field(t, state, signs):
        return np.array([2.0 + signs[0], 0.0, 0.0, 0.0])

    with pytest.raises(DomainError, match="affine form"):
        integrate_field(field, (-1.0, 0.0, 1.0, 0.0), (0.0, 1.5), monodromy=True)
    with pytest.raises(DomainError, match="affine form"):
        segment_rhs(field, (1.0, 1.0), monodromy=True)
    assert integrate_field(field, (-1.0, 0.0, 1.0, 0.0), (0.0, 1.5)).monodromy is None


def test_monodromy_follows_the_time_direction(bench):
    # integrating back over the window inverts the forward monodromy
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.1}, s, family=1, p=1)
    s0 = (0.3, -0.2, 0.5, 0.1)
    forward = integrate(spec, reduced, s, 1e-2, s0, (0.0, 5.0), monodromy=True)
    assert len(forward.events) >= 2 and all(ev.kind == "crossing" for ev in forward.events)
    backward = integrate(spec, reduced, s, 1e-2, forward.final_state, (5.0, 0.0), monodromy=True)
    assert np.allclose(backward.monodromy @ forward.monodromy, np.eye(4), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "field, s0, t1, reason",
    [(_corner_field, (-0.25, 0.0, -0.25, 0.0), 1.0, "corner contact with both surfaces at t = 0.5")],
    ids=["corner"],
)
def test_monodromy_request_ends_at_a_non_crossing_contact(field, s0, t1, reason):
    plain = integrate_field(field, s0, (0.0, t1))
    traj = integrate_field(_with_affine_form(field), s0, (0.0, t1), monodromy=True)
    assert traj.monodromy is None
    assert traj.monodromy_reason.startswith(reason)
    assert [(ev.surface, ev.kind) for ev in traj.events] == [
        (ev.surface, ev.kind) for ev in plain.events
    ]
    assert np.allclose(traj.final_state, plain.final_state, rtol=1e-12, atol=1e-14)
    assert plain.monodromy is None and plain.monodromy_reason is None


def test_monodromy_request_ends_at_a_tangency(bench):
    reduced, s = bench
    traj = integrate(damped_spec(s), reduced, s, 0.0, (0.0, 0.0, 1.0, 0.3), (0.0, 2.0), monodromy=True)
    assert traj.events[0].kind == "tangent"
    assert traj.monodromy is None
    assert traj.monodromy_reason == "tangent contact with surface 1 at t = 0"


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
    assert traj.final_time == 2.0


def test_tangency_equilibrium_settles(bench):
    reduced, s = bench
    spec = damped_spec(s)
    traj = integrate(spec, reduced, s, 0.0, (0.0, 0.0, 0.0, 0.0), (0.0, 3.0))
    assert traj.events[0].kind == "tangent"
    assert np.array_equal(traj.segments[-1].states, np.zeros((2, 4)))
    assert traj.final_time == 3.0


def test_persistent_tangency_raises():
    # level derivative identically zero but the field keeps moving: the
    # contact neither crosses nor resolves
    def field(t, state, signs):
        return np.array([0.0, 0.0, 1.0, 0.0])

    with pytest.raises(TangencyError):
        integrate_field(field, (0.0, 0.0, 1.0, 0.0), (0.0, 1.0))


# -- stall handling ----------------------------------------------------------


def test_event_budget_stall_attaches_partial_trajectory(bench):
    reduced, s = bench
    spec = damped_spec(s)
    transform = jordan_transform(reduced, s)
    orbit = orbit_from_amplitude(np.array([0.8, 0.3]), 1, transform, s, reduced)
    with pytest.raises(IntegrationStallError) as err:
        integrate(spec, reduced, s, 0.0, orbit.initial_state, (0.0, orbit.period_tau), max_events=1)
    partial = err.value.trajectory
    assert partial is not None
    assert len(partial.events) == 1
    assert len(partial.segments) >= 1
    assert err.value.exit_code == 6


def test_crossing_requirement_flags_tangency(bench):
    reduced, s = bench
    spec = damped_spec(s)
    traj = integrate(spec, reduced, s, 0.0, (0.0, 0.0, 1.0, 0.3), (0.0, 2.0))
    report = crossing_hypothesis_check(traj)
    assert not report.ok
    assert report.offenders == (0,)
    assert report.margin == 0.0
    with pytest.raises(CrossingViolationError) as err:
        require_transversal_crossings(traj)
    assert len(err.value.events) == 1
    assert err.value.exit_code == 5


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
    assert np.allclose(seg.states.T, ref, atol=1e-7)
    with pytest.raises(DomainError):
        integrate_regularized(spec, reduced, s, 0.0, 0.0, s0, (0.0, 1.0))


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
            return field(t, u, signs)

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
    plain = segment_rhs(field, signs)
    augmented = segment_rhs(field, signs, monodromy=True)

    y0 = np.array([0.3, -0.2, -0.5, 0.1])
    u0 = np.concatenate((y0, np.eye(4).ravel()))
    options = dict(rtol=1e-12, atol=1e-14, max_step=min(s.period1, s.period2) / 16.0)
    ref = dop853.solve(plain, (0.0, 6.0), y0, **options)
    run = dop853.solve(augmented, (0.0, 6.0), u0, n_tested=4, **options)
    # the step times agree to rounding amplified by the error estimate's
    # cancellation, the count exactly
    assert len(run.ts) == len(ref.ts)
    # the plain run's states, carried to first order over those differences
    shift = (run.ts - ref.ts)[:, None]
    carried = ref.ys + shift * np.array([plain(t, y) for t, y in zip(ref.ts, ref.ys)])
    for state, expected in zip(run.ys[:, :4], carried):
        assert np.linalg.norm(state - expected) <= 1e-12 * np.linalg.norm(expected)
    # testing every component would make the run take more steps
    assert len(dop853.solve(augmented, (0.0, 6.0), u0, **options).ts) > len(ref.ts)


# -- export and determinism ---------------------------------------------------


def test_csv_export_round_trip(tmp_path, bench):
    import csv

    reduced, s = bench
    spec = damped_spec(s)
    traj = integrate(spec, reduced, s, 1e-3, (0.3, -0.2, 0.5, 0.1), (0.0, 5.0))
    tpath = tmp_path / "trajectory.csv"
    epath = tmp_path / "events.csv"
    export_trajectory_csv(traj, tpath)
    export_events_csv(traj, epath)
    with open(tpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "z", "w", "segment_id"]
    data = np.array([[float(v) for v in row[:5]] for row in rows[1:]])
    assert data[:, 0].tobytes() == np.concatenate([seg.ts for seg in traj.segments]).tobytes()
    assert data[:, 1:].tobytes() == np.concatenate([seg.states for seg in traj.segments]).tobytes()
    assert [int(row[5]) for row in rows[1:]] == [i for i, seg in enumerate(traj.segments) for _ in seg.ts]
    with open(epath, newline="") as fh:
        erows = list(csv.reader(fh))
    assert erows[0] == ["t", "surface", "kind", "lie_minus", "lie_plus"]
    assert len(erows) - 1 == len(traj.events)
    assert float(erows[1][0]) == traj.events[0].time


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
