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
from pendavg.filippov import (
    classify_surface_contact,
    classify_values,
    d1_field,
    sliding_combination,
)

from .oracles import flow_states

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
    ts, states = traj.sample(11)
    assert ts.shape == (11,) and states.shape == (4, 11)
    with pytest.raises(DomainError):
        traj.sample(1)
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
