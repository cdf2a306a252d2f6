"""Return-map validation tests.

The damped, forced benchmark stays linear for exact sgn, so a 6x6
matrix exponential supplies the true periodic orbit; refinement and
residual scaling are judged against it.  The escapement variant under
the wrong sgn convention supplies the negative control for the
in-family residual discriminator.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pendavg.filippov as filippov_module
import pendavg.verify as verify_module
from pendavg.averaging import BifurcationSystem, annulus_search
from pendavg.errors import DomainError, RefinementDegenerateError
from pendavg.filippov import integrate
from pendavg.model import PhysicalParams, jordan_transform, reduce_params, spectral_data
from pendavg.perturbation import PeriodicScalar, builtin
from pendavg.verify import (
    epsilon_sweep,
    fit_exponent,
    full_nonlinear_check,
    orbit_from_amplitude,
    poincare_residual,
    predicted_initial_state,
    refine_periodic,
    to_physical_frame,
    to_reduced_frame,
)

from .oracles import corollary_radius, finite_difference_monodromy, linear_periodic_state

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
    reduced, s, transform = bench
    spec = builtin("damped_forced", {"gamma": GAMMA}, s, family=1, p=1)
    sys = BifurcationSystem(1, spec, reduced, s, "A")
    (cert,) = annulus_search(sys, 0.05, 2.0, 8)
    orbit = predicted_initial_state(cert, 1, transform, s, reduced)
    return spec, cert, orbit


@pytest.fixture(scope="module")
def escapement(bench):
    reduced, s, transform = bench
    spec = builtin(
        "damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s, family=1, p=1
    )
    sys = BifurcationSystem(1, spec, reduced, s, "A")
    (cert,) = annulus_search(sys, 0.05, 2.0, 8)
    orbit = predicted_initial_state(cert, 1, transform, s, reduced)
    return spec, cert, orbit


@pytest.fixture(scope="module")
def corollary(bench):
    """The corollary's wrong-convention (B) zero (r*, 0): no fixed point of
    the return map sits there, so its refinements fail."""
    reduced, s, transform = bench
    spec = builtin(
        "corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, s, family=1, p=1
    )
    sys_b = BifurcationSystem(1, spec, reduced, s, "B")
    cert = annulus_search(sys_b, 0.2, 3.0, 8)[-1]
    orbit = predicted_initial_state(cert, 1, transform, s, reduced)
    return spec, cert, orbit


# -- frames -------------------------------------------------------------------


@given(
    s=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    eps=st.floats(1e-6, 1.0),
    alpha=st.floats(0.1, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_frame_round_trip(s, eps, alpha):
    state = np.array(s)
    physical = to_physical_frame(state, eps, alpha)
    back = to_reduced_frame(physical, eps, alpha)
    assert np.allclose(back, state, rtol=1e-12, atol=1e-12)


def test_reduced_frame_undefined_at_eps_zero():
    assert np.array_equal(to_physical_frame((1.0, 2.0, 3.0, 4.0), 0.0, 0.5), np.zeros(4))
    with pytest.raises(DomainError):
        to_reduced_frame((1.0, 2.0, 3.0, 4.0), 0.0, 0.5)


# -- predicted orbits --------------------------------------------------------


def test_orbit_from_amplitude_structure(bench):
    reduced, s, transform = bench
    amp = np.array([0.8, 0.3])
    orbit = orbit_from_amplitude(amp, 1, transform, s, reduced, p=2)
    assert np.array_equal(orbit.amplitude, amp)
    expected = transform.inverse @ np.array([0.8, 0.3, 0.0, 0.0])
    assert np.array_equal(orbit.initial_state, expected)
    assert orbit.period_tau == pytest.approx(2.0 * s.period(1), rel=1e-15)
    assert orbit.period_t == pytest.approx(reduced.alpha * orbit.period_tau, rel=1e-15)
    orbit2 = orbit_from_amplitude(amp, 2, transform, s, reduced)
    expected2 = transform.inverse @ np.array([0.0, 0.0, 0.8, 0.3])
    assert np.array_equal(orbit2.initial_state, expected2)


def test_orbit_from_amplitude_validation(bench):
    reduced, s, transform = bench
    with pytest.raises(DomainError):
        orbit_from_amplitude((0.1, 0.2), 3, transform, s, reduced)
    with pytest.raises(DomainError):
        orbit_from_amplitude((0.1, 0.2), 1, transform, s, reduced, p=0)
    with pytest.raises(DomainError):
        orbit_from_amplitude((0.1, 0.2, 0.3), 1, transform, s, reduced)


def test_predicted_initial_state_requires_simple_zero(bench, damped):
    reduced, s, transform = bench
    _, cert, orbit = damped
    assert tuple(orbit.amplitude) == cert.point
    blunt = dataclasses.replace(cert, simple=False)
    with pytest.raises(DomainError):
        predicted_initial_state(blunt, 1, transform, s, reduced)


# -- the Poincare residual ----------------------------------------------------


def test_poincare_residual_internal_relations(bench, damped):
    reduced, s, transform = bench
    spec, _, orbit = damped
    eps = 1e-3
    res = poincare_residual(orbit, spec, reduced, s, eps)
    assert res.flag is None and res.flag_code == 0
    # pendulum-frame gap: angles scale by eps, velocities by eps/alpha
    alpha = reduced.alpha
    physical_gap = eps * res.gap / np.array([1.0, alpha, 1.0, alpha])
    assert res.residual == pytest.approx(float(np.linalg.norm(physical_gap)), rel=1e-15)
    assert res.residual_full == float(np.linalg.norm(res.gap))
    assert np.allclose(res.jordan_gap, transform.forward @ res.gap, rtol=1e-12, atol=1e-15)
    assert res.residual_family == pytest.approx(
        float(np.linalg.norm(res.jordan_gap[:2])), rel=1e-15
    )
    assert res.events_ok and res.crossing is not None and res.crossing.ok
    assert res.trajectory is not None
    # exactly solvable case: the in-family residual sits at solver noise
    assert res.residual_family < 1e-10


def test_poincare_run_evaluates_the_general_forcing_at_contacts_only(bench, escapement, monkeypatch):
    # segments run on their frozen-sign compile [M_σ | c_σ]; only contacts
    # evaluate the forcing for general signs: one call for the rate and two
    # for the saltation matrix of each single crossing
    reduced, s, _ = bench
    spec, _, orbit = escapement
    general = filippov_module.eval_order1_with_signs
    calls = []

    def counted(*args):
        calls.append(args[1])
        return general(*args)

    monkeypatch.setattr(filippov_module, "eval_order1_with_signs", counted)
    res = poincare_residual(orbit, spec, reduced, s, 1e-2)
    assert res.flag is None and res.monodromy is not None
    events = res.trajectory.events
    assert events and all(ev.kind == "crossing" and not ev.corner for ev in events)
    assert len(calls) == 3 * len(events)


def test_poincare_residual_flags_integration_failure(bench, damped, monkeypatch):
    reduced, s, _ = bench
    spec, _, orbit = damped

    def stalling(*args, **kwargs):
        # a one-event budget stalls the integration and attaches its partial trajectory
        return integrate(*args, **dict(kwargs, max_events=1))

    monkeypatch.setattr(verify_module, "integrate", stalling)
    res = poincare_residual(orbit, spec, reduced, s, 1e-3)
    assert res.flag is not None
    assert res.flag_code == 6
    assert math.isnan(res.residual)
    assert not res.events_ok
    assert res.crossing is not None


def test_spec_orbit_family_mismatch(bench, damped):
    reduced, s, transform = bench
    spec, _, orbit = damped
    other = orbit_from_amplitude((0.1, 0.2), 2, transform, s, reduced)
    with pytest.raises(DomainError):
        poincare_residual(other, spec, reduced, s, 1e-3)
    bumped = orbit_from_amplitude((0.1, 0.2), 1, transform, s, reduced, p=2)
    prediction = poincare_residual(orbit, spec, reduced, s, 1e-3)
    with pytest.raises(DomainError):
        refine_periodic(bumped, spec, reduced, s, prediction)


# -- refinement ---------------------------------------------------------------


def test_refine_matches_exponential_oracle(bench, damped):
    reduced, s, _ = bench
    spec, _, orbit = damped
    eps = 1e-2
    prediction = poincare_residual(orbit, spec, reduced, s, eps)
    result = refine_periodic(orbit, spec, reduced, s, prediction)
    assert result.converged and result.reason is None
    assert result.residual <= 1e-11
    ref = linear_periodic_state(reduced.a, reduced.b, eps, GAMMA)
    assert np.allclose(result.state, ref, rtol=1e-8, atol=1e-8)
    # the refined monodromy stays close to the unperturbed one
    assert result.monodromy.shape == (4, 4)


def test_refine_stops_at_first_non_contracting_step(bench, monkeypatch):
    """A wrong-convention prediction is no fixed point: the first chord step
    grows the gap, so refinement stops after that one step; the
    prediction's image and monodromy come from its Poincaré run."""
    reduced, s, transform = bench
    spec = builtin(
        "corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, s, family=1, p=1
    )
    sys_b = BifurcationSystem(1, spec, reduced, s, "B")
    rstar = corollary_radius(reduced.a, reduced.b)
    cert = annulus_search(sys_b, 0.2, 3.0, 8)[-1]
    assert cert.simple
    assert np.allclose(cert.point, [rstar, 0.0], atol=1e-8)
    orbit = predicted_initial_state(cert, 1, transform, s, reduced)
    prediction = poincare_residual(orbit, spec, reduced, s, 1e-2)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(verify_module, "integrate", counted)
    result = refine_periodic(orbit, spec, reduced, s, prediction)
    assert not result.converged
    assert result.reason == "not contracting"
    assert result.iterations == 1
    assert calls == [1e-2]


@pytest.fixture(scope="module")
def table_escapement(bench, escapement):
    """The escapement with K₁ a 256-sample table of 0.5·cos(ω₁τ), and the
    orbit predicted at its convention-A zero."""
    reduced, s, transform = bench
    builtin_spec = escapement[0]
    taus = np.arange(256) * (s.period1 / 256)
    table = PeriodicScalar.from_table(taus, GAMMA * np.cos(s.omega1 * taus))
    spec = dataclasses.replace(builtin_spec, K=(table, *builtin_spec.K[1:]))
    (cert,) = annulus_search(BifurcationSystem(1, spec, reduced, s, "A"), 0.05, 2.0, 8)
    return spec, predicted_initial_state(cert, 1, transform, s, reduced)


def test_refine_converges_on_a_table_perturbation(bench, escapement, table_escapement):
    """Segments end at the table knots, so no solver step spans an
    interpolation kink, and shooting converges to the builtin's limit gap."""
    reduced, s, _ = bench
    builtin_spec, _, builtin_orbit = escapement
    spec, orbit = table_escapement
    prediction = poincare_residual(orbit, spec, reduced, s, 1e-2)
    result = refine_periodic(orbit, spec, reduced, s, prediction)
    assert result.reason is None and result.converged
    assert len(prediction.trajectory.segments) > 255
    limit_gap = np.linalg.norm(result.state - orbit.initial_state)
    reference = refine_periodic(
        builtin_orbit, builtin_spec, reduced, s, poincare_residual(builtin_orbit, builtin_spec, reduced, s, 1e-2)
    )
    assert limit_gap == pytest.approx(np.linalg.norm(reference.state - builtin_orbit.initial_state), rel=1e-3)


def test_refine_degenerate_at_eps_zero(bench, damped):
    reduced, s, _ = bench
    spec, _, orbit = damped
    prediction = poincare_residual(orbit, spec, reduced, s, 0.0)
    with pytest.raises(RefinementDegenerateError):
        refine_periodic(orbit, spec, reduced, s, prediction)


@pytest.mark.parametrize("case", ["damped", "escapement"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_refine_monodromy_meets_liouville(bench, case, eps, request):
    """det M = exp(ε·∫tr D dτ) = exp(−2ε·pT) for both builtins; the
    escapement's crossings have unit saltation determinant because
    x' = y does not depend on the sign."""
    reduced, s, _ = bench
    spec, _, orbit = request.getfixturevalue(case)
    prediction = poincare_residual(orbit, spec, reduced, s, eps)
    monodromy = refine_periodic(orbit, spec, reduced, s, prediction).monodromy
    sign, logdet = np.linalg.slogdet(monodromy)
    assert sign == 1.0
    assert abs(logdet + 2.0 * eps * orbit.period_tau) <= 1e-6


@pytest.mark.parametrize("case", ["escapement", "corollary", "damped"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_variational_monodromy_matches_finite_differences(bench, case, eps, request):
    """The Poincaré run's monodromy agrees with the finite-difference oracle
    within that oracle's own error, estimated by its spread against the
    step 2h and against central differences."""
    reduced, s, _ = bench
    spec, _, orbit = request.getfixturevalue(case)
    monodromy = poincare_residual(orbit, spec, reduced, s, eps).monodromy
    forward = finite_difference_monodromy(spec, reduced, s, eps, orbit)
    doubled = finite_difference_monodromy(spec, reduced, s, eps, orbit, scale=2.0)
    central = finite_difference_monodromy(spec, reduced, s, eps, orbit, central=True)
    spread = max(np.abs(forward - doubled).max(), np.abs(forward - central).max())
    assert np.abs(monodromy - forward).max() <= 2.0 * spread


@pytest.mark.parametrize("case", ["escapement", "corollary", "damped"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_variational_monodromy_meets_liouville(bench, case, eps, request):
    """log det M = ε·pT·tr D with tr D the y coefficient of F₁ plus the w
    coefficient of F₃ (−2 with damping, 2σ_d on the corollary); every
    saltation determinant is 1 since x' = y and z' = w ignore the signs.
    The finite-difference oracle misses it by up to 2.8e-8 on the
    escapement and damped runs."""
    reduced, s, _ = bench
    spec, _, orbit = request.getfixturevalue(case)
    monodromy = poincare_residual(orbit, spec, reduced, s, eps).monodromy
    trace = spec.F[0].d2.value + spec.F[2].d4.value
    sign, logdet = np.linalg.slogdet(monodromy)
    assert sign == 1.0
    assert abs(logdet - eps * orbit.period_tau * trace) <= 1e-8


def test_tangent_prediction_run_carries_no_monodromy(bench, damped):
    """A start on x = 0 with y = 0 is a tangent contact: the run goes on, but
    without a monodromy, and refinement stops before any step."""
    reduced, s, _ = bench
    spec, _, orbit = damped
    tangent = dataclasses.replace(orbit, initial_state=np.array([0.0, 0.0, 1.0, 0.3]))
    prediction = poincare_residual(tangent, spec, reduced, s, 1e-3)
    assert prediction.flag is None and not prediction.events_ok
    assert prediction.monodromy is None
    assert prediction.monodromy_reason == "tangent contact with surface 1 at t = 0"
    result = refine_periodic(tangent, spec, reduced, s, prediction)
    assert not result.converged and result.iterations == 0
    assert result.reason == verify_module.NO_MONODROMY
    assert result.monodromy is None
    assert result.residual == prediction.residual_full


# -- sweeps -------------------------------------------------------------------


def test_epsilon_sweep_ladder_validation(bench, damped):
    reduced, s, _ = bench
    spec, _, orbit = damped
    with pytest.raises(DomainError):
        epsilon_sweep(orbit, spec, reduced, s, [1e-2, 5e-3, 2e-3])
    with pytest.raises(DomainError):
        epsilon_sweep(orbit, spec, reduced, s, [1e-2, 2e-3, 5e-3, 1e-3])
    with pytest.raises(DomainError):
        epsilon_sweep(orbit, spec, reduced, s, [1e-2, 5e-3, 2e-3, -1e-3])
    with pytest.raises(DomainError):
        epsilon_sweep(orbit, spec, reduced, s, [1e-2, 8e-3, 5e-3, 2e-3])


@pytest.mark.parametrize(
    "ladder",
    [
        (1e-2, math.nan, 2.5e-3, 1.25e-3),
        (math.nan, 5e-3, 2.5e-3, 1.25e-3),
        (math.inf, 5e-3, 2.5e-3, 1.25e-3),
        (1e-2, 5e-3, 2.5e-3, math.nan),
    ],
)
def test_epsilon_sweep_rejects_non_finite_eps(bench, damped, ladder, monkeypatch):
    # NaN slips past both `e <= 0` and `b >= a`, and a NaN rung integrates for minutes.
    reduced, s, _ = bench
    spec, _, orbit = damped

    def forbidden(*args, **kwargs):
        raise AssertionError("a rejected ladder must not integrate")

    monkeypatch.setattr(verify_module, "integrate", forbidden)
    with pytest.raises(DomainError, match="finite and positive"):
        epsilon_sweep(orbit, spec, reduced, s, ladder)


def test_epsilon_sweep_validates_prediction(bench, damped):
    reduced, s, _ = bench
    spec, _, orbit = damped
    report = epsilon_sweep(orbit, spec, reduced, s, LADDER)
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


def test_epsilon_sweep_reuses_the_prediction_run(bench, escapement, monkeypatch):
    """Each rung integrates the prediction once (its Poincaré run, which
    carries the monodromy), then refinement adds one run per chord step."""
    reduced, s, _ = bench
    spec, _, orbit = escapement
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
    report = epsilon_sweep(orbit, spec, reduced, s, LADDER)
    assert report.limit_gap_reason == [None] * len(LADDER)
    assert len(iterations) == len(LADDER)
    prediction = tuple(orbit.initial_state)
    for eps, steps in zip(LADDER, iterations):
        rung = [s0 for e, s0 in calls if e == eps]
        assert len(rung) == 1 + steps
        assert rung.count(prediction) == 1
    assert len(calls) == sum(1 + steps for steps in iterations)


def test_epsilon_sweep_skips_refinement_of_flagged_rungs(bench, damped, monkeypatch):
    reduced, s, _ = bench
    spec, _, orbit = damped

    def stalling(*args, **kwargs):
        return integrate(*args, **dict(kwargs, max_events=1))

    monkeypatch.setattr(verify_module, "integrate", stalling)
    report = epsilon_sweep(orbit, spec, reduced, s, LADDER)
    assert all(sample.flag is not None for sample in report.samples)
    assert all(math.isnan(g) for g in report.limit_gap)
    assert report.limit_gap_reason == ["prediction run flagged"] * len(LADDER)
    with pytest.raises(DomainError):
        refine_periodic(orbit, spec, reduced, s, report.samples[0])


def test_sweep_rung_without_monodromy_gives_its_reason(bench, damped, monkeypatch):
    """A Poincaré run that meets a tangency carries no monodromy, so its
    rung is not refined and its limit gap is null for a documented reason."""
    reduced, s, _ = bench
    spec, _, orbit = damped

    def tangent_run(spec, reduced, spectral, eps, s0, t_span, **kwargs):
        # start on x = 0 with y = 0, a tangent contact, instead of the prediction
        return integrate(spec, reduced, spectral, eps, (0.0, 0.0, 1.0, 0.3), t_span, **kwargs)

    monkeypatch.setattr(verify_module, "integrate", tangent_run)
    report = epsilon_sweep(orbit, spec, reduced, s, LADDER)
    for sample in report.samples:
        assert sample.flag is None and not sample.events_ok
        assert sample.monodromy is None
        assert sample.monodromy_reason == "tangent contact with surface 1 at t = 0"
    assert all(math.isnan(g) for g in report.limit_gap)
    assert report.limit_gap_reason == ["no monodromy: non-crossing contact"] * len(LADDER)


def test_family_residual_separates_sgn_conventions(bench):
    reduced, s, transform = bench
    spec = builtin(
        "damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s, family=1, p=1
    )
    ladder = (2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3)
    reports = {}
    for convention in ("A", "B"):
        sys = BifurcationSystem(1, spec, reduced, s, convention)
        zeros = annulus_search(sys, 0.02, 1.5, 12)
        assert zeros, convention
        orbit = predicted_initial_state(zeros[0], 1, transform, s, reduced)
        reports[convention] = epsilon_sweep(orbit, spec, reduced, s, ladder)
    # both predictions pass the coarse orbit-scale test ...
    assert 1.8 <= reports["A"].fitted_exponent <= 2.2
    assert 1.8 <= reports["B"].fitted_exponent <= 2.2
    # ... but only the matching convention controls the in-family gap
    assert reports["A"].family_consistent
    assert reports["A"].family_exponent > 1.5
    assert not reports["B"].family_consistent
    assert reports["B"].family_exponent < 1.5


# -- exponent fits ------------------------------------------------------------


def test_fit_exponent_recovers_power_law():
    eps = [1e-1, 3e-2, 1e-2, 3e-3]
    res = [3.7 * e**2.4 for e in eps]
    assert fit_exponent(eps, res) == pytest.approx(2.4, rel=1e-12)
    assert math.isnan(fit_exponent([1e-2], [1.0]))
    assert math.isnan(fit_exponent([1e-2, 1e-3], [float("nan"), 0.0]))
    # non-positive entries are masked, not propagated
    assert fit_exponent([1e-1, 1e-2, 1e-3], [1e-2, 0.0, 1e-6]) == pytest.approx(2.0, rel=1e-12)


# -- full nonlinear cross-check ------------------------------------------------


def test_full_nonlinear_check_returns_finite_gap(damped):
    spec, _, orbit = damped
    res = full_nonlinear_check(orbit, BENCH, spec, 1e-3)
    assert res.flag is None
    assert math.isfinite(res.residual)
    assert res.events_ok
    # the original-frame gap carries the eps amplitude scaling
    assert res.residual < 1e-4


def test_full_nonlinear_check_ends_segments_at_table_knots(bench, table_escapement):
    # the pendulum runs in physical time t = α·τ, so its segments end at
    # the table knots scaled by α and no step spans an interpolation kink
    reduced, _, _ = bench
    spec, orbit = table_escapement
    res = full_nonlinear_check(orbit, BENCH, spec, 1e-2)
    assert res.flag is None
    alpha = reduced.alpha
    knots = [alpha * k for k in spec.table_knots(0.0, orbit.period_t / alpha)]
    assert len(knots) >= 255 and 0.0 < knots[0] and knots[-1] < orbit.period_t
    ends = {float(seg.ts[-1]) for seg in res.trajectory.segments}
    assert all(knot in ends for knot in knots)
