"""Return-map validation tests.

The damped, forced benchmark stays linear for exact sgn, so a 6x6
matrix exponential supplies the true periodic orbit; refinement and
residual scaling are judged against it.  The escapement variant under
the wrong sgn convention supplies the negative control for the
in-family residual discriminator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pendavg.filippov as filippov_module
import pendavg.verify as verify_module
from pendavg.averaging import BifurcationSystem, annulus_search
from pendavg.errors import DomainError
from pendavg.filippov import integrate
from pendavg.model import PhysicalParams, jordan_transform, reduce_params, spectral_data
from pendavg.perturbation import PeriodicScalar, PerturbationSpec, builtin
from pendavg.verify import (
    epsilon_sweep,
    fit_exponent,
    orbit_from_amplitude,
    poincare_residual,
    predicted_initial_state,
    refine_periodic,
    smallest_singular_value,
    solve_linear,
    to_physical_frame,
)

from .oracles import (
    corollary_radius,
    exact_poincare_map,
    finite_difference_monodromy,
    linear_periodic_state,
    polyfit_slope,
    shooting_matrices,
    svd_smallest,
    transverse_offset,
)

BENCH = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)
GAMMA = 0.5
KAPPA = 0.05
LADDER = (1e-2, 5e-3, 2e-3, 1e-3)


@pytest.fixture(scope="module")
def bench():
    reduced = reduce_params(BENCH)
    s = spectral_data(reduced)
    return reduced, s, jordan_transform(reduced, s)


@pytest.fixture(scope="module")
def damped(bench):
    reduced, s, _ = bench
    spec = builtin("damped_forced", {"gamma": GAMMA}, s, family=1, p=1)
    system = BifurcationSystem(1, spec, reduced, s, "A")
    (cert,) = annulus_search(system, 0.05, 2.0, 8)
    orbit = predicted_initial_state(system, cert)
    return spec, cert, orbit


@pytest.fixture(scope="module")
def escapement(bench):
    reduced, s, _ = bench
    spec = builtin(
        "damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s, family=1, p=1
    )
    system = BifurcationSystem(1, spec, reduced, s, "A")
    (cert,) = annulus_search(system, 0.05, 2.0, 8)
    orbit = predicted_initial_state(system, cert)
    return spec, cert, orbit


@pytest.fixture(scope="module")
def corollary(bench):
    """The corollary's wrong-convention (B) zero (r*, 0): no fixed point of
    the return map sits there, so its refinements fail."""
    reduced, s, _ = bench
    spec = builtin(
        "corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, s, family=1, p=1
    )
    sys_b = BifurcationSystem(1, spec, reduced, s, "B")
    cert = annulus_search(sys_b, 0.2, 3.0, 8)[-1]
    orbit = predicted_initial_state(sys_b, cert)
    return spec, cert, orbit


# -- frames -------------------------------------------------------------------


@given(
    s=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    eps=st.floats(1e-6, 1.0),
    alpha=st.floats(0.1, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_frame_round_trip(s, eps, alpha):
    # the inverse scaling: angles divide by eps, velocities also multiply by alpha
    physical = np.asarray(to_physical_frame(s, eps, alpha))
    back = physical / eps * np.array([1.0, alpha, 1.0, alpha])
    assert np.allclose(back, s, rtol=1e-12, atol=1e-12)


def test_reduced_frame_undefined_at_eps_zero():
    assert np.array_equal(to_physical_frame((1.0, 2.0, 3.0, 4.0), 0.0, 0.5), np.zeros(4))


# -- predicted orbits --------------------------------------------------------


def test_orbit_from_amplitude_structure(bench):
    reduced, s, transform = bench
    amp = np.array([0.8, 0.3])
    system = BifurcationSystem(1, builtin("damped_forced", {"gamma": GAMMA}, s, family=1, p=2), reduced, s)
    orbit = orbit_from_amplitude(system, amp)
    assert orbit.system is system
    assert np.array_equal(orbit.amplitude, amp)
    expected = transform.inverse @ np.array([0.8, 0.3, 0.0, 0.0])
    assert np.array_equal(orbit.initial_state, expected)
    assert orbit.period_tau == pytest.approx(2.0 * s.period(1), rel=1e-15)
    system2 = BifurcationSystem(2, builtin("damped_forced", {"gamma": GAMMA}, s, family=2, p=1), reduced, s)
    orbit2 = orbit_from_amplitude(system2, amp)
    expected2 = transform.inverse @ np.array([0.0, 0.0, 0.8, 0.3])
    assert np.array_equal(orbit2.initial_state, expected2)


def test_orbit_from_amplitude_validation(bench, damped):
    # a family outside {1, 2}, a p below 1 or a spec of the other family
    # cannot build the system an orbit is predicted from
    reduced, s, _ = bench
    spec, _, orbit = damped
    with pytest.raises(DomainError):
        builtin("damped_forced", {"gamma": GAMMA}, s, family=3, p=1)
    with pytest.raises(DomainError):
        builtin("damped_forced", {"gamma": GAMMA}, s, family=1, p=0)
    with pytest.raises(DomainError):
        BifurcationSystem(3, spec, reduced, s)
    with pytest.raises(DomainError):
        BifurcationSystem(2, spec, reduced, s)
    with pytest.raises(DomainError, match="sgn_convention"):
        BifurcationSystem(1, spec, reduced, s, "C")
    with pytest.raises(DomainError):
        orbit_from_amplitude(orbit.system, (0.1, 0.2, 0.3))


def test_predicted_initial_state_requires_simple_zero(damped):
    _, cert, orbit = damped
    assert tuple(orbit.amplitude) == cert.point
    blunt = cert._replace(simple=False)
    with pytest.raises(DomainError):
        predicted_initial_state(orbit.system, blunt)


# -- the Poincare residual ----------------------------------------------------


def test_poincare_residual_internal_relations(bench, damped):
    reduced, _, transform = bench
    _, _, orbit = damped
    eps = 1e-3
    res = poincare_residual(orbit, eps)
    assert res.flag is None and res.flag_code == 0
    # pendulum-frame gap: angles scale by eps, velocities by eps/alpha
    alpha = reduced.alpha
    assert res.trajectory is not None
    gap = np.asarray(res.trajectory.final_state) - np.asarray(res.trajectory.initial_state)
    jordan_gap = verify_module._matvec(transform.forward, gap)
    physical_gap = eps * gap / np.array([1.0, alpha, 1.0, alpha])
    assert res.residual == pytest.approx(float(np.linalg.norm(physical_gap)), rel=1e-15)
    assert res.residual_full == float(np.linalg.norm(gap))
    assert np.allclose(jordan_gap, transform.forward @ gap, rtol=1e-12, atol=1e-15)
    assert res.residual_family == pytest.approx(
        float(np.linalg.norm(jordan_gap[:2])), rel=1e-15
    )
    assert res.events_ok
    # exactly solvable case: the in-family residual sits at solver noise
    assert res.residual_family < 1e-10


def test_poincare_run_reads_one_form_per_segment_and_two_per_crossing(escapement, monkeypatch):
    # every segment, contact and saltation reads the one field F_σ: the
    # form function is called three times by the second-order check, once
    # per segment and, to carry the monodromy, once on each side of every
    # single crossing
    _, _, orbit = escapement
    build = filippov_module.d1_field
    calls = []

    def counted(*args):
        field = build(*args)

        def form(signs):
            calls.append(signs)
            return field(signs)

        return form

    monkeypatch.setattr(filippov_module, "d1_field", counted)
    res = poincare_residual(orbit, 1e-2)
    assert res.flag is None and res.trajectory.monodromy is not None
    events = res.trajectory.events
    assert events and all(ev.kind == "crossing" and not ev.corner for ev in events)
    assert len(calls) == 3 + len(res.trajectory.segments) + 2 * len(events)


def test_poincare_residual_flags_integration_failure(damped, monkeypatch):
    _, _, orbit = damped

    def stalling(*args, **kwargs):
        # a one-event budget stalls the integration and attaches its partial trajectory
        return integrate(*args, **dict(kwargs, max_events=1))

    monkeypatch.setattr(verify_module, "integrate", stalling)
    res = poincare_residual(orbit, 1e-3)
    assert res.flag is not None
    assert res.flag_code == 6
    assert math.isnan(res.residual)
    assert not res.events_ok
    assert res.trajectory is not None


# -- refinement ---------------------------------------------------------------


def test_refine_matches_exponential_oracle(bench, damped):
    reduced, _, _ = bench
    _, _, orbit = damped
    eps = 1e-2
    prediction = poincare_residual(orbit, eps)
    result = refine_periodic(orbit, prediction)
    assert result.converged and result.reason is None
    assert result.residual <= 1e-11
    ref = linear_periodic_state(reduced.a, reduced.b, eps, GAMMA)
    assert np.allclose(result.state, ref, rtol=1e-8, atol=1e-8)
    # the chord matrix came from the prediction run's monodromy
    assert np.asarray(prediction.trajectory.monodromy).shape == (4, 4)


def test_refine_stops_at_first_non_contracting_step(bench, monkeypatch):
    """A wrong-convention prediction is no fixed point: the first chord step
    grows the gap, so refinement stops after that one step; the
    prediction's image and monodromy come from its Poincaré run."""
    reduced, s, _ = bench
    spec = builtin(
        "corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, s, family=1, p=1
    )
    sys_b = BifurcationSystem(1, spec, reduced, s, "B")
    rstar = corollary_radius(reduced.a, reduced.b)
    cert = annulus_search(sys_b, 0.2, 3.0, 8)[-1]
    assert cert.simple
    assert np.allclose(cert.point, [rstar, 0.0], atol=1e-8)
    orbit = predicted_initial_state(sys_b, cert)
    prediction = poincare_residual(orbit, 1e-2)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(verify_module, "integrate", counted)
    result = refine_periodic(orbit, prediction)
    assert not result.converged
    assert result.reason == "not contracting"
    assert result.iterations == 1
    assert calls == [1e-2]


@pytest.fixture(scope="module")
def table_escapement(bench, escapement):
    """The escapement with K₁ a 256-sample table of 0.5·cos(ω₁τ), and the
    orbit predicted at its convention-A zero."""
    reduced, s, _ = bench
    builtin_spec = escapement[0]
    taus = np.arange(256) * (s.period1 / 256)
    table = PeriodicScalar.from_table(taus, GAMMA * np.cos(s.omega1 * taus))
    spec = PerturbationSpec((table, *builtin_spec.K[1:]), builtin_spec.F, builtin_spec.family, builtin_spec.p)
    system = BifurcationSystem(1, spec, reduced, s, "A")
    (cert,) = annulus_search(system, 0.05, 2.0, 8)
    return spec, predicted_initial_state(system, cert)


def test_refine_converges_on_a_table_perturbation(escapement, table_escapement):
    """Segments end at the table knots, so no solver step spans an
    interpolation kink, and shooting converges to the builtin's limit gap."""
    _, _, builtin_orbit = escapement
    _, orbit = table_escapement
    prediction = poincare_residual(orbit, 1e-2)
    result = refine_periodic(orbit, prediction)
    assert result.reason is None and result.converged
    assert len(prediction.trajectory.segments) > 255
    limit_gap = np.linalg.norm(np.asarray(result.state) - orbit.initial_state)
    reference = refine_periodic(builtin_orbit, poincare_residual(builtin_orbit, 1e-2))
    assert limit_gap == pytest.approx(
        np.linalg.norm(np.asarray(reference.state) - builtin_orbit.initial_state), rel=1e-3)


def test_refine_degenerate_at_eps_zero(damped):
    _, _, orbit = damped
    prediction = poincare_residual(orbit, 0.0)
    result = refine_periodic(orbit, prediction)
    assert result.reason == "degenerate shooting matrix" and result.iterations == 0


def test_sweep_rung_with_a_singular_chord_matrix_is_degenerate(damped, monkeypatch):
    """A monodromy whose first column is e₁ makes the chord matrix
    M − I exactly singular but not zero: every rung stops before a step."""
    _, _, orbit = damped

    def singular_chord(*args):
        result = poincare_residual(*args)
        monodromy = tuple((float(i == 0),) + row[1:] for i, row in enumerate(result.trajectory.monodromy))
        return result._replace(trajectory=result.trajectory._replace(monodromy=monodromy))

    monkeypatch.setattr(verify_module, "poincare_residual", singular_chord)
    report = epsilon_sweep(orbit, LADDER)
    assert all(sample.flag is None for sample in report.samples)
    assert all(math.isnan(g) for g in report.limit_gap)
    assert report.limit_gap_reason == ["degenerate shooting matrix"] * len(LADDER)


def test_shooting_linear_algebra_matches_numpy():
    """The plain-Python solve and smallest singular value against LAPACK's,
    on random, near-singular and exactly singular 4×4 matrices: the solve
    to u·κ(A) relative to the solution, the singular value to u·σ₁, and an
    exactly zero pivot raises where ``np.linalg.solve`` does."""
    rng = np.random.default_rng(43)
    ulp = np.finfo(float).eps
    kinds = set()
    for kind, a in shooting_matrices(rng):
        kinds.add(kind)
        rows = a.tolist()
        sigma = np.linalg.svd(a, compute_uv=False)
        assert abs(smallest_singular_value(rows) - svd_smallest(a)) <= 16 * ulp * sigma[0], kind
        b = rng.normal(size=4)
        if kind == "singular":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a, b)
            with pytest.raises(DomainError):
                solve_linear(rows, b.tolist())
            continue
        x = np.asarray(solve_linear(rows, b.tolist()))
        reference = np.linalg.solve(a, b)
        assert np.linalg.norm(x - reference) <= 64 * ulp * (sigma[0] / sigma[-1]) * np.linalg.norm(reference), kind
    assert kinds == {"random", "near-singular", "singular"}
    # the zero matrix has nothing to scale by; a matrix with an entry that is
    # not finite has no singular values, wherever that entry sits
    assert smallest_singular_value([[0.0] * 4] * 4) == 0.0
    for bad in (math.inf, -math.inf, math.nan):
        for i, j in ((0, 0), (2, 1)):
            rows = np.eye(4).tolist()
            rows[i][j] = bad
            assert math.isnan(smallest_singular_value(rows)), (bad, i, j)


@pytest.mark.parametrize("case", ["escapement", "corollary", "damped"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_variational_monodromy_matches_finite_differences(bench, case, eps, request):
    """The Poincaré run's monodromy agrees with the finite-difference oracle
    within that oracle's own error, estimated by its spread against the
    step 2h and against central differences."""
    reduced, s, _ = bench
    spec, _, orbit = request.getfixturevalue(case)
    monodromy = poincare_residual(orbit, eps).trajectory.monodromy
    forward = finite_difference_monodromy(spec, reduced, s, eps, orbit)
    doubled = finite_difference_monodromy(spec, reduced, s, eps, orbit, scale=2.0)
    central = finite_difference_monodromy(spec, reduced, s, eps, orbit, central=True)
    spread = max(np.abs(forward - doubled).max(), np.abs(forward - central).max())
    assert np.abs(monodromy - forward).max() <= 2.0 * spread


@pytest.mark.parametrize("case", ["escapement", "corollary", "damped"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_variational_monodromy_meets_liouville(case, eps, request):
    """log det M = ε·pT·tr D with tr D the y coefficient of F₁ plus the w
    coefficient of F₃ (−2 with damping, 2σ_d on the corollary); every
    saltation determinant is 1 since x' = y and z' = w ignore the signs.
    The finite-difference oracle misses it by up to 2.8e-8 on the
    escapement and damped runs."""
    spec, _, orbit = request.getfixturevalue(case)
    monodromy = poincare_residual(orbit, eps).trajectory.monodromy
    trace = spec.F[0][1].value + spec.F[2][3].value
    sign, logdet = np.linalg.slogdet(monodromy)
    assert sign == 1.0
    assert abs(logdet - eps * orbit.period_tau * trace) <= 1e-8


@pytest.mark.parametrize("family", [1, 2])
@pytest.mark.parametrize("convention", ["A", "B"])
@pytest.mark.parametrize("name, params", [
    ("damped_forced", {"gamma": GAMMA}),
    ("damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}),
    ("corollary_escapement", {"sigma_d": 1.0, "sigma_e": -1.0}),
])
def test_poincare_run_matches_the_exact_flow_map(bench, name, params, convention, family):
    """The Poincaré run from the first zero (or, where the convention has
    none, a fixed amplitude) against the matrix-exponential return map:
    final state and event times within 1e-10, the same contacts, and the
    monodromy within 1e-8."""
    reduced, s, _ = bench
    eps = 1e-2
    spec = builtin(name, params, s, family=family, p=1)
    system = BifurcationSystem(family, spec, reduced, s, convention)
    certs = annulus_search(system, 0.05, 2.0, 8)
    orbit = (predicted_initial_state(system, certs[0]) if certs
             else orbit_from_amplitude(system, (0.6, 0.8)))
    run = poincare_residual(orbit, eps)
    state, events, monodromy = exact_poincare_map(spec, reduced, eps, orbit.initial_state, orbit.period_tau)
    traj = run.trajectory
    assert [(ev.surface, ev.kind) for ev in traj.events] == [(k, kind) for _, k, kind in events]
    assert max(abs(ev.time - t) for ev, (t, _, _) in zip(traj.events, events)) <= 1e-10
    assert np.abs(traj.final_state - state).max() <= 1e-10
    assert np.abs(traj.monodromy - monodromy).max() <= 1e-8
    # the segment after each contact starts at the contact's time and state
    starts = {(segment.ts[0], tuple(segment.states[0])) for segment in traj.segments}
    assert all((ev.time, ev.state) in starts for ev in traj.events)


def test_tangent_prediction_run_carries_no_monodromy(damped):
    """A start on x = 0 with y = 0 is a tangent contact: the run goes on, but
    without a monodromy, and refinement stops before any step."""
    _, _, orbit = damped
    tangent = orbit._replace(initial_state=np.array([0.0, 0.0, 1.0, 0.3]))
    prediction = poincare_residual(tangent, 1e-3)
    assert prediction.flag is None and not prediction.events_ok
    assert prediction.trajectory.monodromy is None
    first = prediction.trajectory.events[prediction.trajectory.offenders[0]]
    assert (first.kind, first.surface, first.time) == ("tangent", 1, 0.0)
    result = refine_periodic(tangent, prediction)
    assert not result.converged and result.iterations == 0
    assert result.reason == verify_module.NO_MONODROMY
    assert result.residual == prediction.residual_full


# -- sweeps -------------------------------------------------------------------


def test_epsilon_sweep_ladder_validation(damped):
    _, _, orbit = damped
    with pytest.raises(DomainError):
        epsilon_sweep(orbit, [1e-2, 5e-3, 2e-3])
    with pytest.raises(DomainError):
        epsilon_sweep(orbit, [1e-2, 2e-3, 5e-3, 1e-3])
    with pytest.raises(DomainError):
        epsilon_sweep(orbit, [1e-2, 5e-3, 2e-3, -1e-3])
    with pytest.raises(DomainError):
        epsilon_sweep(orbit, [1e-2, 8e-3, 5e-3, 2e-3])


@pytest.mark.parametrize(
    "ladder",
    [
        (1e-2, math.nan, 2.5e-3, 1.25e-3),
        (math.nan, 5e-3, 2.5e-3, 1.25e-3),
        (math.inf, 5e-3, 2.5e-3, 1.25e-3),
        (1e-2, 5e-3, 2.5e-3, math.nan),
    ],
)
def test_epsilon_sweep_rejects_non_finite_eps(damped, ladder, monkeypatch):
    # NaN slips past both `e <= 0` and `b >= a`, and a NaN rung integrates for minutes.
    _, _, orbit = damped

    def forbidden(*args, **kwargs):
        raise AssertionError("a rejected ladder must not integrate")

    monkeypatch.setattr(verify_module, "integrate", forbidden)
    with pytest.raises(DomainError, match="finite and positive"):
        epsilon_sweep(orbit, ladder)


def test_epsilon_sweep_validates_prediction(damped):
    _, _, orbit = damped
    report = epsilon_sweep(orbit, LADDER)
    assert report.valid
    assert 1.8 <= report.fitted_exponent <= 2.2
    # exactly solvable: in-family residuals at noise, hence consistent
    assert report.family_consistent
    assert all(r < 1e-10 for r in [p.residual_family for p in report.samples])
    assert len(report.limit_gap) == len(LADDER)
    assert all(math.isfinite(g) and g < 0.1 for g in report.limit_gap)
    payload = report.to_json_dict()
    assert payload["limit_gap_reason"] == [None] * len(LADDER)
    assert payload["valid"] is True
    assert payload["epsilons"] == list(LADDER)
    assert payload["events_summary"]["all_crossings"] is True


def test_epsilon_sweep_reuses_the_prediction_run(escapement, monkeypatch):
    """Each rung integrates the prediction once (its Poincaré run, which
    carries the monodromy), then refinement adds one run per chord step."""
    _, _, orbit = escapement
    calls = []
    iterations = []

    def counted(*args, **kwargs):
        calls.append((args[3], tuple(args[4])))
        return integrate(*args, **kwargs)

    def refine(*args, **kwargs):
        result = refine_periodic(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(verify_module, "integrate", counted)
    monkeypatch.setattr(verify_module, "refine_periodic", refine)
    report = epsilon_sweep(orbit, LADDER)
    assert report.limit_gap_reason == [None] * len(LADDER)
    assert len(iterations) == len(LADDER)
    prediction = tuple(orbit.initial_state)
    for eps, steps in zip(LADDER, iterations):
        rung = [s0 for e, s0 in calls if e == eps]
        assert len(rung) == 1 + steps
        assert rung.count(prediction) == 1
    assert len(calls) == sum(1 + steps for steps in iterations)


def test_epsilon_sweep_skips_refinement_of_flagged_rungs(damped, monkeypatch):
    _, _, orbit = damped

    def stalling(*args, **kwargs):
        return integrate(*args, **dict(kwargs, max_events=1))

    monkeypatch.setattr(verify_module, "integrate", stalling)
    report = epsilon_sweep(orbit, LADDER)
    assert all(sample.flag is not None for sample in report.samples)
    assert all(math.isnan(g) for g in report.limit_gap)
    assert report.limit_gap_reason == ["prediction run flagged"] * len(LADDER)
    assert refine_periodic(orbit, report.samples[0]).reason == "prediction run flagged"


def test_events_summary_counts_the_contacts_of_partial_runs(damped, monkeypatch):
    _, _, orbit = damped

    def stalling(*args, **kwargs):
        return integrate(*args, **dict(kwargs, max_events=1))

    monkeypatch.setattr(verify_module, "integrate", stalling)
    report = epsilon_sweep(orbit, LADDER)
    runs = [sample.trajectory for sample in report.samples]
    # each stalled rung keeps the one contact its budget allowed
    assert all(len(run.events) == 1 for run in runs)
    margins = [abs(run.events[0].state[2 * run.events[0].surface - 1]) for run in runs]
    assert [run.margin for run in runs] == margins
    summary = report.events_summary()
    assert summary["total_events"] == len(LADDER)
    assert summary["all_crossings"] is False
    assert summary["min_margin"] == min(margins) > 0.0
    # without contacts there is no margin to report
    bare = report._replace(samples=[s._replace(trajectory=s.trajectory._replace(events=[]))
                                    for s in report.samples])
    assert bare.events_summary() == {"total_events": 0, "all_crossings": False, "min_margin": None}


def test_sweep_rung_whose_chord_step_fails_gives_its_reason(damped, monkeypatch):
    """A chord-step run that stalls ends its rung's refinement; the
    prediction runs, which carry the monodromy, complete."""
    _, _, orbit = damped

    def stalling_chord_steps(*args, **kwargs):
        if kwargs.get("monodromy"):
            return integrate(*args, **kwargs)
        return integrate(*args, **dict(kwargs, max_events=1))

    monkeypatch.setattr(verify_module, "integrate", stalling_chord_steps)
    report = epsilon_sweep(orbit, LADDER)
    assert all(sample.flag is None for sample in report.samples)
    assert all(math.isfinite(r) for r in report.residuals)
    assert all(math.isnan(g) for g in report.limit_gap)
    assert report.limit_gap_reason == ["integration failed"] * len(LADDER)


def test_sweep_rung_without_monodromy_gives_its_reason(damped, monkeypatch):
    """A Poincaré run that meets a tangency carries no monodromy, so its
    rung is not refined and its limit gap is null for a documented reason."""
    _, _, orbit = damped

    def tangent_run(spec, reduced, spectral, eps, s0, t_span, **kwargs):
        # start on x = 0 with y = 0, a tangent contact, instead of the prediction
        return integrate(spec, reduced, spectral, eps, (0.0, 0.0, 1.0, 0.3), t_span, **kwargs)

    monkeypatch.setattr(verify_module, "integrate", tangent_run)
    report = epsilon_sweep(orbit, LADDER)
    for sample in report.samples:
        assert sample.flag is None and not sample.events_ok
        assert sample.trajectory.monodromy is None
        first = sample.trajectory.events[sample.trajectory.offenders[0]]
        assert (first.kind, first.surface, first.time) == ("tangent", 1, 0.0)
    assert all(math.isnan(g) for g in report.limit_gap)
    assert report.limit_gap_reason == ["no monodromy: non-crossing contact"] * len(LADDER)


def test_family_residual_separates_sgn_conventions(bench):
    reduced, s, _ = bench
    spec = builtin(
        "damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s, family=1, p=1
    )
    ladder = (2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3)
    reports = {}
    for convention in ("A", "B"):
        system = BifurcationSystem(1, spec, reduced, s, convention)
        zeros = annulus_search(system, 0.02, 1.5, 12)
        assert zeros, convention
        reports[convention] = epsilon_sweep(predicted_initial_state(system, zeros[0]), ladder)
    # both predictions pass the coarse orbit-scale test ...
    assert 1.8 <= reports["A"].fitted_exponent <= 2.2
    assert 1.8 <= reports["B"].fitted_exponent <= 2.2
    # ... but only the matching convention controls the in-family gap
    assert reports["A"].family_consistent
    assert reports["A"].family_exponent > 1.5
    assert not reports["B"].family_consistent
    assert reports["B"].family_exponent < 1.5


# -- exponent fits ------------------------------------------------------------


def test_fit_exponent_matches_polyfit():
    # the closed-form slope against np.polyfit on noisy power laws, with
    # rungs that are NaN, zero or negative left out of both
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        eps = np.sort(10.0 ** rng.uniform(-4.0, -1.0, size=n))[::-1]
        res = rng.uniform(0.1, 10.0) * eps ** rng.uniform(0.5, 3.5) * np.exp(rng.normal(scale=0.3, size=n))
        res[rng.random(n) < 0.15] = rng.choice([np.nan, 0.0, -1.0])
        expected = polyfit_slope(eps, res)
        got = fit_exponent(eps.tolist(), res.tolist())
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_fit_exponent_recovers_power_law():
    eps = [1e-1, 3e-2, 1e-2, 3e-3]
    res = [3.7 * e**2.4 for e in eps]
    assert fit_exponent(eps, res) == pytest.approx(2.4, rel=1e-12)
    assert math.isnan(fit_exponent([1e-2], [1.0]))
    assert math.isnan(fit_exponent([1e-2, 1e-3], [float("nan"), 0.0]))
    # non-positive entries are masked, not propagated
    assert fit_exponent([1e-1, 1e-2, 1e-3], [1e-2, 0.0, 1e-6]) == pytest.approx(2.0, rel=1e-12)


# -- the transverse offset ----------------------------------------------------


def test_transverse_offset_against_the_exact_periodic_orbit(bench, damped):
    # damped_forced is linear, so linear_periodic_state is the exact start of
    # its periodic orbit: in the normal form its family half is the zero, and
    # its transverse half over eps tends to the first-order offset zeta like eps
    reduced, _, transform = bench
    _, cert, orbit = damped
    zeta = transverse_offset(orbit)
    ladder = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    misses = []
    for eps in ladder:
        normal = np.asarray(transform.forward) @ linear_periodic_state(reduced.a, reduced.b, eps, GAMMA)
        assert np.abs(normal[:2] - cert.point).max() <= 1e-12
        misses.append(float(np.linalg.norm(normal[2:] / eps - zeta)))
    assert polyfit_slope(ladder, misses) == pytest.approx(1.0, abs=0.01)
    assert all(miss <= 0.03 * eps for miss, eps in zip(misses, ladder))
