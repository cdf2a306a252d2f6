"""Event-driven integration tests.

The exactly solvable eps = 0 flow provides closure and state oracles;
synthetic four-component fields with hand-chosen drives exercise the
sliding and tangency branches that the pendulum surfaces cannot reach
(their level derivatives are one-sided-independent velocities).
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pendavg import (
    CrossingViolationError,
    DegenerateSlidingError,
    DomainError,
    IntegrationStallError,
    LinearForm,
    PeriodicScalar,
    PerturbationSpec,
    PhysicalParams,
    TangencyError,
    builtin,
    crossing_hypothesis_check,
    export_events_csv,
    export_trajectory_csv,
    integrate,
    integrate_field,
    integrate_regularized,
    jordan_transform,
    orbit_from_amplitude,
    reduce_params,
    require_transversal_crossings,
    spectral_data,
)
from pendavg import dop853
from pendavg.filippov import (
    classify_surface_contact,
    classify_values,
    d1_field,
    segment_rhs,
    sliding_combination,
)

from .oracles import field_term_scale, flow_states, per_call_field
from .test_perturbation import _random_scalar

BENCH = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)
GAMMA = 0.5


@pytest.fixture(scope="module")
def bench():
    reduced = reduce_params(BENCH)
    return reduced, spectral_data(reduced)


def damped_spec(s, gamma=GAMMA):
    return builtin("damped_forced", {"gamma": gamma}, s, family=1, p=1)


# -- contact classification ----------------------------------------------


def test_classify_values_sign_table():
    assert classify_values(1.0, 2.0).kind == "crossing"
    assert classify_values(-1.0, -2.0).kind == "crossing"
    assert classify_values(1.0, -2.0).kind == "sliding"
    assert classify_values(-1.0, 2.0).kind == "escaping"
    # the tolerance band maps either tiny derivative to tangency
    assert classify_values(0.0, 2.0).kind == "tangent"
    assert classify_values(1.0, 0.0).kind == "tangent"
    assert classify_values(5e-11, -5e-11).kind == "tangent"


def test_pendulum_levels_are_one_sided_independent(bench):
    # x' = y and z' = w carry no sgn term, so both one-sided level
    # derivatives equal the velocity coordinate exactly and the builtin
    # surfaces can never produce a sliding segment on their own.
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.3}, s, family=1, p=1)
    field = d1_field(spec, reduced, 0.7)
    cls = classify_surface_contact(field, 1.3, np.array([0.0, 0.45, 1.0, -0.2]), (0.0, 1.0), 0)
    assert cls.kind == "crossing"
    assert cls.lie_minus == 0.45
    assert cls.lie_plus == 0.45
    cls = classify_surface_contact(field, 1.3, np.array([0.5, 0.45, 0.0, -0.2]), (1.0, 0.0), 1)
    assert cls.kind == "crossing"
    assert cls.lie_minus == -0.2
    assert cls.lie_plus == -0.2


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
        variational = segment_rhs(field, signs, field.jacobian)
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


# -- sliding algebra --------------------------------------------------------


def _drive_field(drive):
    # x' = -sgn(x) + drive(t); z parked at 1 so surface 2 never fires
    def field(t, state, signs):
        return np.array([-signs[0] + drive(t), 0.0, 0.0, 0.0])

    return field


def test_sliding_combination_matches_formula():
    field = _drive_field(lambda t: 0.25 * math.cos(t))
    st = np.array([0.0, 0.3, 1.0, -0.2])
    t = 0.9
    got = sliding_combination(field, t, st, (0.0, 1.0), 0)
    minus = field(t, st, (-1.0, 1.0))
    plus = field(t, st, (1.0, 1.0))
    lm, lp = minus[0], plus[0]
    ref = (lp * minus - lm * plus) / (lp - lm)
    assert np.allclose(got, ref, rtol=1e-15, atol=1e-15)
    assert got[0] == 0.0


def test_sliding_combination_degenerate():
    # equal one-sided fields leave the convex weight undefined
    def field(t, state, signs):
        return np.array([1.0, 0.0, 0.0, 0.0])

    with pytest.raises(DegenerateSlidingError):
        sliding_combination(field, 0.0, np.array([0.0, 0.0, 1.0, 0.0]), (0.0, 1.0), 0)


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
    assert all(ev.classification.lie_minus == ev.classification.lie_plus for ev in traj.events)
    report = crossing_hypothesis_check(traj)
    assert report.ok and report.n_crossing == 4
    assert report.margin > 0.5
    require_transversal_crossings(traj)


def test_eps_zero_matches_expm_flow(bench):
    reduced, s = bench
    spec = damped_spec(s)
    s0 = np.array([0.3, -0.2, 0.5, 0.1])
    traj = integrate(spec, reduced, s, 0.0, s0, (0.0, 7.0))
    assert traj.final_time == 7.0
    taus = np.linspace(0.3, 6.9, 8)
    ref = flow_states(reduced.a, reduced.b, s0, taus)
    got = np.stack([traj.state_at(float(t)) for t in taus], axis=1)
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
    with pytest.raises(DomainError):
        traj.state_at(3.0)


# -- sliding segments --------------------------------------------------------


def test_synthetic_sliding_persists_to_final_time():
    # |0.25 cos| < 1 keeps both one-sided derivatives pushing onto x = 0
    field = _drive_field(lambda t: 0.25 * math.cos(t))
    hit = brentq(lambda t: 0.5 - t + 0.25 * math.sin(t), 0.3, 1.2, xtol=1e-13)
    traj = integrate_field(field, (0.5, 0.0, 1.0, 0.0), (0.0, 6.0))
    assert len(traj.events) == 1
    assert traj.events[0].kind == "sliding"
    assert traj.events[0].time == pytest.approx(hit, abs=1e-8)
    last = traj.segments[-1]
    assert last.sliding_surface == 1
    assert last.t_end == 6.0
    assert last.signs == (0.0, 1.0)
    # the convex combination cancels the normal component identically
    assert traj.final_state[0] == 0.0
    mid = traj.state_at(0.5 * (hit + 6.0))
    assert mid[0] == 0.0


def test_synthetic_sliding_releases_when_one_side_relaxes():
    # the drive exceeds the sgn pull at sin t = -2/3 and the minus side
    # releases the trajectory into x < 0
    field = _drive_field(lambda t: 1.5 * math.sin(t))
    hit = brentq(lambda t: 2.0 - t - 1.5 * math.cos(t), 3.0, 3.6, xtol=1e-13)
    release = math.pi + math.asin(2.0 / 3.0)
    traj = integrate_field(field, (0.5, 0.0, 1.0, 0.0), (0.0, 5.0))
    kinds = [ev.kind for ev in traj.events]
    assert kinds[0] == "sliding"
    assert traj.events[0].time == pytest.approx(hit, abs=1e-8)
    sliding_segs = [seg for seg in traj.segments if seg.sliding_surface == 1]
    assert len(sliding_segs) == 1
    seg = sliding_segs[0]
    assert seg.t_start == pytest.approx(hit, abs=1e-8)
    assert seg.t_end == pytest.approx(release, abs=1e-8)
    assert traj.segments[-1].signs == (-1.0, 1.0)
    assert traj.final_time == 5.0
    assert traj.final_state[0] < 0.0


def test_sliding_segment_crosses_the_other_surface():
    # slide on x = 0 while z' = -1 carries the state through z = 0 at t = 1;
    # the sliding segment must leave z = 0 before it restarts
    def field(t, state, signs):
        return np.array([-signs[0] + 0.25 * math.cos(t), 0.0, -1.0, 0.0])

    hit = brentq(lambda t: 0.5 - t + 0.25 * math.sin(t), 0.3, 1.2, xtol=1e-13)
    traj = integrate_field(field, (0.5, 0.0, 1.0, 0.0), (0.0, 3.0))
    assert [(ev.surface, ev.kind) for ev in traj.events] == [(1, "sliding"), (2, "crossing")]
    assert traj.events[0].time == pytest.approx(hit, abs=1e-8)
    assert traj.events[1].time == pytest.approx(1.0, abs=1e-10)
    assert traj.final_time == 3.0
    assert np.allclose(traj.final_state, [0.0, 0.0, -2.0, 0.0], atol=1e-9)
    assert traj.final_state[0] == 0.0
    last = traj.segments[-1]
    assert last.sliding_surface == 1
    assert last.signs == (0.0, -1.0)


@pytest.mark.parametrize(
    "field, s0",
    [
        # sliding on x = 0 reaches z = 0, where z' = -sgn(z) would slide too
        (lambda t, st, g: np.array([-g[0] + 0.25 * math.cos(t), 0.0, -g[1], 0.0]), (0.5, 0.0, 1.0, 0.0)),
        # x and z reach zero together at t = 0.5 and both contacts slide
        (lambda t, st, g: np.array([-g[0], 0.0, -g[1], 0.0]), (0.5, 0.0, 0.5, 0.0)),
    ],
    ids=["sliding-meets-sliding", "sliding-corner"],
)
def test_codimension_two_sliding_raises(field, s0):
    with pytest.raises(TangencyError, match="codimension two"):
        integrate_field(field, s0, (0.0, 3.0))


# -- monodromy ---------------------------------------------------------------


def _zero_jacobian(t, signs):
    return np.zeros((4, 4))


def _corner_field(t, state, signs):
    # each level derivative depends on the other surface's sign, so the two
    # crossing orders at the corner give different saltation matrices
    return np.array([1.0 + 0.5 * signs[1], 0.0, 1.0 + 0.5 * signs[0], 0.0])


def test_saltation_matches_the_exact_flow_map():
    # x' = 2 + sgn(x): x0 < 0 crosses at t = -x0 and x(T) = 3(T + x0), so
    # the flow map's derivative is 3 in x and 1 elsewhere
    def field(t, state, signs):
        return np.array([2.0 + signs[0], 0.0, 0.0, 0.0])

    traj = integrate_field(field, (-1.0, 0.0, 1.0, 0.0), (0.0, 1.5), jacobian=_zero_jacobian)
    assert [ev.kind for ev in traj.events] == ["crossing"]
    assert traj.monodromy_reason is None
    assert np.allclose(traj.monodromy, np.diag([3.0, 1.0, 1.0, 1.0]), rtol=0.0, atol=1e-12)


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
    [
        (_drive_field(lambda t: 0.25 * math.cos(t)), (0.5, 0.0, 1.0, 0.0), 6.0,
         "sliding contact with surface 1 at t = "),
        (_drive_field(lambda t: 1.5 * math.sin(t)), (0.5, 0.0, 1.0, 0.0), 5.0,
         "sliding contact with surface 1 at t = "),
        (_corner_field, (-0.25, 0.0, -0.25, 0.0), 1.0, "corner contact with both surfaces at t = 0.5"),
    ],
    ids=["sliding", "sliding-release", "corner"],
)
def test_monodromy_request_ends_at_a_non_crossing_contact(field, s0, t1, reason):
    plain = integrate_field(field, s0, (0.0, t1))
    traj = integrate_field(field, s0, (0.0, t1), jacobian=_zero_jacobian)
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
    assert traj.events[0].classification.lie_minus == 0.0
    smooth = [seg for seg in traj.segments if seg.sol is not None]
    assert smooth[0].signs == (1.0, 1.0)
    assert traj.final_time == 2.0


def test_tangency_equilibrium_settles(bench):
    reduced, s = bench
    spec = damped_spec(s)
    traj = integrate(spec, reduced, s, 0.0, (0.0, 0.0, 0.0, 0.0), (0.0, 3.0))
    assert traj.events[0].kind == "tangent"
    assert traj.segments[-1].sol is None
    assert np.array_equal(traj.segments[-1].constant_state, np.zeros(4))
    assert np.array_equal(traj.state_at(1.5), np.zeros(4))
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
    taus = np.linspace(0.3, 6.9, 8)
    ref = flow_states(reduced.a, reduced.b, s0, taus)
    got = np.stack([traj.state_at(float(t)) for t in taus], axis=1)
    assert np.allclose(got, ref, atol=1e-7)
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
        # Every third case runs a pendulum field, whose surfaces admit no sliding.
        synthetic = case % 3 != 0
        field = random_signed_field(rng) if synthetic else builtin_fields[case // 3 % 3]
        signs = tuple(float(v) for v in rng.choice([-1.0, 1.0], size=2))
        y0 = rng.normal(size=4)
        t0 = rng.uniform(-2.0, 2.0)
        direction = rng.choice([-1.0, 1.0])
        t1 = t0 + direction * 10.0 ** rng.uniform(-4.0, 0.8)
        max_step = np.inf if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
        # no events, the two level events, or the events of a sliding segment
        modes = ("none", "levels", "sliding") if synthetic else ("none", "levels")
        mode = modes[case // 3 % len(modes)]
        if mode == "sliding":
            k = int(rng.integers(2))

            def rhs(t, u, field=field, signs=signs, k=k):
                return sliding_combination(field, t, u, signs, k)

            events = [terminal(lambda t, u, side=side, field=field, signs=signs, k=k:
                               float(field(t, u, signs[:k] + (2.0 * side - 1.0,) + signs[k + 1:])[2 * k]))
                      for side in (0, 1)]
            events.append(terminal(lambda t, u, idx=2 - 2 * k: u[idx]))
        else:
            def rhs(t, u, field=field, signs=signs):
                return field(t, u, signs)

            events = [terminal(lambda t, u: u[0]), terminal(lambda t, u: u[2])]
            if mode == "none":
                events = []
            elif rng.random() < 0.5:
                # Start just before both surfaces, in random order, so that one
                # step crosses both (on the pendulum fields x' = y and z' = w).
                y0[[0, 2]] = -direction * y0[[1, 3]] * rng.uniform(1e-4, 1e-2, size=2)

        ref = solve_ivp(rhs, (t0, t1), y0, method="DOP853", dense_output=True,
                        events=events or None, rtol=1e-10, atol=1e-12, max_step=max_step)
        run = dop853.solve(rhs, (t0, t1), y0, rtol=1e-10, atol=1e-12, max_step=max_step,
                           events=events)
        assert run.status == ref.status, case
        assert run.ts.tobytes() == ref.t.tobytes(), case
        inside = rng.uniform(min(t0, ref.t[-1]), max(t0, ref.t[-1]), size=8)
        for t in (*ref.t, *inside):
            assert run.sol(t).tobytes() == ref.sol(t).tobytes(), (case, t)
        fired = [i for i, times in enumerate(ref.t_events or []) if len(times)]
        assert run.event == (fired[0] if fired else None), case
        if fired:
            assert ref.t_events[fired[0]].tolist() == [run.ts[-1]], case
    # an empty span is one constant piece
    ref = solve_ivp(rhs, (t0, t0), y0, method="DOP853", dense_output=True, rtol=1e-10, atol=1e-12)
    run = dop853.solve(rhs, (t0, t0), y0, rtol=1e-10, atol=1e-12)
    assert run.status == ref.status == 0 and run.ts.tobytes() == ref.t.tobytes()
    assert run.sol(t0).tobytes() == ref.sol(t0).tobytes()


def test_dop853_error_test_on_leading_components(bench):
    """Variational equations carried along a builtin field and left out of
    the error test keep the plain run's steps and its state."""
    reduced, s = bench
    spec = builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.05}, s, family=1, p=1)
    eps = 1e-2
    field = d1_field(spec, reduced, eps)
    signs = (1.0, -1.0)
    plain = segment_rhs(field, signs)
    augmented = segment_rhs(field, signs, field.jacobian)

    y0 = np.array([0.3, -0.2, -0.5, 0.1])
    u0 = np.concatenate((y0, np.eye(4).ravel()))
    options = dict(rtol=1e-12, atol=1e-14, max_step=min(s.period1, s.period2) / 16.0)
    ref = dop853.solve(plain, (0.0, 6.0), y0, **options)
    run = dop853.solve(augmented, (0.0, 6.0), u0, n_tested=4, **options)
    # the step times agree to rounding amplified by the error estimate's
    # cancellation, the count exactly
    assert len(run.ts) == len(ref.ts)
    state = run.sol.leading(4)
    for t in ref.ts:
        expected = ref.sol(t)
        assert np.linalg.norm(state(t) - expected) <= 1e-12 * np.linalg.norm(expected)
        assert state(t).tobytes() == run.sol(t)[:4].tobytes()
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
    assert len(rows) - 1 == sum(len(seg.ts) for seg in traj.segments)
    first = [float(v) for v in rows[1][:5]]
    assert first[0] == traj.segments[0].ts[0]
    assert np.array_equal(first[1:], traj.segments[0].state_at(first[0]))
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
