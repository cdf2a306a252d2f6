"""Package acceptance gate.

Ten end-to-end checks at fixed tolerances, one test each.  Every test
prints a single ``[ACCEPT-n] PASS/FAIL`` line (shown with ``-s`` or on
failure) before asserting, so a full run yields a readable scoreboard.
Reference values come through independent routes in ``tests.oracles``;
frozen literals come from ``scripts/derive_oracles.py``.
"""

import json
import math

import numpy as np
import pytest

from pendavg import cli
from pendavg.averaging import BifurcationSystem, annulus_search, bifurcation_values
from pendavg.errors import IntegrationStallError
from pendavg.filippov import (
    crossing_hypothesis_check,
    d1_field,
    integrate,
    integrate_field,
    integrate_regularized,
)
from pendavg.model import (
    PhysicalParams,
    jordan_transform,
    monodromy_lower_block,
    reduce_params,
    spectral_data,
)
from pendavg.perturbation import builtin
from pendavg.verify import (
    convention_verdict,
    epsilon_sweep,
    full_nonlinear_check,
    orbit_from_amplitude,
    poincare_residual,
    predicted_initial_state,
    refine_periodic,
)

from .oracles import (
    corollary_radius,
    eig_frequencies,
    linear_periodic_state,
    trapezoid_bifurcation,
)
from .test_averaging import random_spec

BENCH = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)
GAMMA = 0.5
KAPPA = 0.05


def report(n: int, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPT-{n}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)


@pytest.fixture(scope="module")
def bench():
    reduced = reduce_params(BENCH)
    s = spectral_data(reduced)
    return reduced, s, jordan_transform(reduced, s)


def test_accept_1_spectral_fidelity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        phys = PhysicalParams(
            m1=float(rng.uniform(0.2, 5.0)),
            m2=float(rng.uniform(0.2, 5.0)),
            l1=float(rng.uniform(0.2, 5.0)),
            l2=float(rng.uniform(0.2, 5.0)),
            g=float(rng.uniform(1.0, 20.0)),
        )
        reduced = reduce_params(phys)
        s = spectral_data(reduced)
        w1, w2 = eig_frequencies(reduced.a, reduced.b)
        worst = max(worst, abs(s.omega1 - w1) / w1, abs(s.omega2 - w2) / w2)
    ok = worst <= 1e-10
    report(1, ok, f"worst relative frequency deviation {worst:.3e} over 10^4 draws")
    assert ok


def test_accept_2_monodromy_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    count = 0
    while count < 100:
        a = float(rng.uniform(1.05, 6.0))
        b = float(np.exp(rng.uniform(np.log(0.2), np.log(8.0))))
        phys = PhysicalParams(m1=a - 1.0, m2=1.0, l1=b / a, l2=1.0, g=9.8)
        reduced = reduce_params(phys)
        s = spectral_data(reduced)
        ratio = s.omega2 / s.omega1
        idents = [4.0 * math.sin(p * math.pi * ratio) ** 2 for p in (1, 2, 3)]
        if min(abs(v) for v in idents) <= 1e-6:
            continue  # resonant draws are the excluded degenerate case
        count += 1
        for p, ident in zip((1, 2, 3), idents):
            _, det = monodromy_lower_block(s, p, family=1)
            worst = max(worst, abs(det - ident))
    frozen = reduce_params(BENCH)
    s = spectral_data(frozen)
    _, det_frozen = monodromy_lower_block(s, 1, family=1)
    frozen_dev = abs(det_frozen - 3.7164323713376364)
    ok = worst <= 1e-9 and frozen_dev <= 1e-9
    report(
        2,
        ok,
        f"worst |det - 4sin^2| {worst:.3e} over 100 draws x p in 1..3; "
        f"frozen benchmark deviation {frozen_dev:.3e}",
    )
    assert ok


def test_accept_3_quadrature_vs_oracle(bench):
    reduced, s, _ = bench
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        family = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        spec = random_spec(rng, s, family, p)
        conv = "A" if rng.uniform() < 0.5 else "B"
        system = BifurcationSystem(family, spec, reduced, s, conv)
        amp = rng.uniform(-1.5, 1.5, size=2)
        if np.hypot(*amp) < 0.1:
            amp = np.array([1.0, 0.5])
        val = bifurcation_values(system, amp)
        ref = trapezoid_bifurcation(system, amp, n_points=1_000_000)
        worst = max(
            worst,
            float(np.linalg.norm(val - ref)) / max(1.0, float(np.linalg.norm(ref))),
        )
    # the sgn-weighted average reproduces the 4 sin(phi) identity: the
    # escapement term of the averaged pair equals (4 kappa c / omega1)
    # times (sin phi, cos phi) on unit amplitudes
    kappa = 0.2
    c = reduced.a + reduced.b + math.sqrt(s.delta)
    base = BifurcationSystem(
        1, builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": 0.0}, s, family=1, p=1),
        reduced, s, "A",
    )
    kicked = BifurcationSystem(
        1, builtin("damped_forced_escapement", {"gamma": GAMMA, "kappa": kappa}, s, family=1, p=1),
        reduced, s, "A",
    )
    worst_identity = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
        amp = np.array([math.cos(phi), math.sin(phi)])
        diff = bifurcation_values(kicked, amp) - bifurcation_values(base, amp)
        got = diff * s.omega1 / (kappa * c)
        expect = np.array([4.0 * math.sin(phi), 4.0 * math.cos(phi)])
        worst_identity = max(worst_identity, float(np.max(np.abs(got - expect))))
    ok = worst <= 1e-7 and worst_identity <= 1e-8
    report(
        3,
        ok,
        f"worst trapezoid deviation {worst:.3e} over 50 specs; "
        f"sgn identity deviation {worst_identity:.3e} over 32 angles",
    )
    assert ok


def test_accept_4_smooth_benchmark_end_to_end(bench):
    reduced, s, transform = bench
    spec = builtin("damped_forced", {"gamma": GAMMA}, s, family=1, p=1)
    system = BifurcationSystem(1, spec, reduced, s, "A")
    zeros = annulus_search(system, 0.05, 2.0, 12)
    expect = np.array([0.0, reduced.b * GAMMA / math.sqrt(s.delta)])
    zero_dev = (
        float(np.linalg.norm(np.array(zeros[0].point) - expect)) if zeros else np.inf
    )
    orbit = predicted_initial_state(zeros[0], 1, transform, s, reduced)
    sweep = epsilon_sweep(orbit, spec, reduced, s, (1e-2, 5e-3, 2.5e-3, 1.25e-3))
    refined = refine_periodic(orbit, spec, reduced, s, sweep.samples[0])
    oracle = linear_periodic_state(reduced.a, reduced.b, 1e-2, GAMMA)
    refine_dev = float(np.linalg.norm(refined.state - oracle))
    ok = (
        len(zeros) == 1
        and zero_dev <= 1e-8
        and sweep.valid
        and 1.8 <= sweep.fitted_exponent <= 2.2
        and refined.converged
        and refine_dev <= 1e-8
    )
    report(
        4,
        ok,
        f"zero deviation {zero_dev:.3e}, exponent {sweep.fitted_exponent:.4f}, "
        f"refined-orbit deviation {refine_dev:.3e}",
    )
    assert ok


def test_accept_5_nonsmooth_benchmark_end_to_end(bench):
    reduced, s, transform = bench
    spec = builtin(
        "damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s, family=1, p=1
    )
    system = BifurcationSystem(1, spec, reduced, s, "A")
    zeros = annulus_search(system, 0.05, 1.5, 12)
    sd = math.sqrt(s.delta)
    c = reduced.a + reduced.b + sd
    anchor = np.array([-2.0 * c * KAPPA / (sd * math.pi), reduced.b * GAMMA / sd])
    dist = min(
        (float(np.linalg.norm(np.array(z.point) - anchor)) for z in zeros),
        default=np.inf,
    )
    nearest = min(
        zeros, key=lambda z: float(np.linalg.norm(np.array(z.point) - anchor))
    )
    orbit = predicted_initial_state(nearest, 1, transform, s, reduced)
    sweep = epsilon_sweep(orbit, spec, reduced, s, (1e-2, 5e-3, 2.5e-3, 1.25e-3))
    events = sweep.events_summary()
    ok = (
        dist <= 10.0 * KAPPA**2
        and sweep.valid
        and events["all_crossings"]
        and 1.8 <= sweep.fitted_exponent <= 2.2
    )
    report(
        5,
        ok,
        f"zero within {dist:.3e} of the first-order anchor (bound {10 * KAPPA ** 2:.3e}), "
        f"exponent {sweep.fitted_exponent:.4f}, all {events['total_events']} events crossing",
    )
    assert ok


def test_accept_6_constant_escapement_zero_circle(bench, tmp_path):
    reduced, s, _ = bench
    spec = builtin(
        "corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}, s, family=1, p=1
    )
    radius = corollary_radius(reduced.a, reduced.b)
    system_b = BifurcationSystem(1, spec, reduced, s, "B")
    zeros_b = annulus_search(system_b, 0.2, 3.0, 12)
    radius_dev = max(
        (abs(math.hypot(*z.point) - radius) for z in zeros_b), default=np.inf
    )
    stated = (math.sqrt(2.0) * (reduced.a + reduced.b + math.sqrt(s.delta))
              / (math.sqrt(s.delta) * math.pi))
    stated_on_circle = abs(math.hypot(stated, stated) - radius)
    system_a = BifurcationSystem(1, spec, reduced, s, "A")
    zeros_a = annulus_search(system_a, 0.2, 3.0, 12)
    # the discrepancy report and the sweep arbiter come from the batch runner
    out = tmp_path / "out"
    ini = tmp_path / "cor.ini"
    ini.write_text(
        "[model]\nfamily = 1\np = 1\nconvention = B\n"
        "[perturbation]\nbuiltin = corollary_escapement\nsigma_d = 1.0\nsigma_e = 1.0\n"
        "[search]\nr1 = 0.2\nr2 = 3.0\ngrid = 8\n"
        "[sweep]\neps = 1e-2 5e-3 2e-3 1e-3\n"
        f"[output]\ndir = {out}\n",
        encoding="utf-8",
    )
    code = cli.main(["verify", "--config", str(ini), "--compare-conventions"])
    arbiter_report = json.loads((out / "convention_report.json").read_text())
    arbiter = arbiter_report["arbiter"]
    ok = (
        len(zeros_b) == 2
        and radius_dev <= 1e-6
        and stated_on_circle <= 1e-6
        and zeros_a == []
        and code == 3
        and arbiter == "neither"
    )
    report(
        6,
        ok,
        f"{len(zeros_b)} convention-B zeros on the circle to {radius_dev:.3e}, "
        f"stated point on the circle to {stated_on_circle:.3e}, "
        f"convention A empty: {not zeros_a}, arbiter: {arbiter}",
    )
    assert ok


def test_accept_7_filippov_semantics(bench):
    reduced, s, transform = bench
    spec = builtin(
        "damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s, family=1, p=1
    )
    # the level rates equal the velocity coordinates exactly, whatever the
    # surface's own sign
    rng = np.random.default_rng(707)
    rates_exact = True
    d1 = d1_field(spec, reduced, 0.3)
    for _ in range(20):
        y, z, w = rng.uniform(-2, 2, size=3)
        tau = float(rng.uniform(0, 20))
        st = np.array([0.0, y, z if abs(z) > 0.1 else 1.0, w])
        rates_exact &= all(d1(tau, st, (own, float(np.sign(st[2]))))[0] == y for own in (-1.0, 0.0, 1.0))
        x, y2, w2 = rng.uniform(-2, 2, size=3)
        st = np.array([x if abs(x) > 0.1 else 1.0, y2, 0.0, w2])
        rates_exact &= all(d1(tau, st, (float(np.sign(st[0])), own))[2] == w2 for own in (-1.0, 0.0, 1.0))

    # a constructed field that slides on x = 0 cannot leave it and stops
    def field(t, state, signs):
        return np.array([-signs[0] + 0.25 * math.cos(t), 0.0, 0.0, 0.0])

    try:
        integrate_field(field, (0.5, 0.0, 1.0, 0.0), (0.0, 6.0))
        stopped = False
    except IntegrationStallError:
        stopped = True

    # family orbits away from the tangency set keep a positive margin
    orbit = orbit_from_amplitude(np.array([0.8, 0.3]), 1, transform, s, reduced)
    run = integrate(spec, reduced, s, 1e-3, orbit.initial_state, (0.0, orbit.period_tau))
    crossing = crossing_hypothesis_check(run)
    ok = rates_exact and stopped and crossing.ok and crossing.margin > 0.0
    report(
        7,
        ok,
        f"level rates exact: {rates_exact}, sliding field stopped: {stopped}, "
        f"crossing margin {crossing.margin:.3f} over {crossing.n_events} events",
    )
    assert ok


def test_accept_8_regularization_convergence(bench):
    reduced, s, _ = bench
    spec = builtin(
        "damped_forced_escapement", {"gamma": GAMMA, "kappa": KAPPA}, s, family=1, p=1
    )
    eps = 1e-3
    span = (0.0, 10.0)
    all_monotone = True
    details = []
    for s0 in (np.array([0.3, -0.2, 0.5, 0.1]), np.array([0.5, 0.1, -0.4, 0.3])):
        exact = integrate(spec, reduced, s, eps, s0, span, rtol=1e-12, atol=1e-14)
        assert crossing_hypothesis_check(exact).ok
        gaps = []
        for delta in (1e-2, 1e-3, 1e-4):
            reg = integrate_regularized(
                spec, reduced, s, eps, delta, s0, span, rtol=1e-12, atol=1e-14
            )
            gaps.append(float(np.linalg.norm(reg.final_state - exact.final_state)))
        all_monotone &= gaps[0] > gaps[1] > gaps[2]
        details.append("/".join(f"{g:.2e}" for g in gaps))
    report(
        8,
        all_monotone,
        f"endpoint gaps over delta 1e-2/1e-3/1e-4: {'; '.join(details)}",
    )
    assert all_monotone


def test_accept_9_full_nonlinear_consistency(bench):
    reduced, s, transform = bench
    spec = builtin("damped_forced", {"gamma": GAMMA}, s, family=1, p=1)
    system = BifurcationSystem(1, spec, reduced, s, "A")
    zeros = annulus_search(system, 0.05, 2.0, 12)
    orbit = predicted_initial_state(zeros[0], 1, transform, s, reduced)
    eps = 1e-3
    truncated = poincare_residual(orbit, spec, reduced, s, eps)
    full = full_nonlinear_check(orbit, BENCH, spec, eps)
    half = full_nonlinear_check(orbit, BENCH, spec, eps / 2.0)
    factor = full.residual / truncated.residual
    halving = full.residual / half.residual
    ok = abs(factor - 1.0) <= 1e-3 and 3.5 <= halving <= 4.5
    report(
        9,
        ok,
        f"full/truncated residual ratio {factor:.6f} at eps 1e-3, "
        f"halving ratio {halving:.3f}",
    )
    assert ok


def test_accept_10_headline_verdicts(bench):
    # Which sgn convention's zeros survive verification, per builtin at
    # grid 12: the reproduction's headline table.  The README escapement
    # config must also validate on family 2 and at p = 2.
    reduced, s, transform = bench
    ladder = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    escapement = {"gamma": GAMMA, "kappa": KAPPA}

    def validated(name, params, convention, family=1, p=1, grid=12):
        spec = builtin(name, params, s, family=family, p=p)
        system = BifurcationSystem(family, spec, reduced, s, convention)
        for cert in annulus_search(system, 0.05, 2.0, grid):
            if cert.simple:
                orbit = predicted_initial_state(cert, family, transform, s, reduced, p=p)
                if epsilon_sweep(orbit, spec, reduced, s, ladder).validated:
                    return True
        return False

    builtins = (
        ("damped_forced", {"gamma": GAMMA}),
        ("damped_forced_escapement", escapement),
        ("corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}),
    )
    verdicts = {
        name: convention_verdict({c: validated(name, params, c) for c in ("A", "B")})
        for name, params in builtins
    }
    expected = {"damped_forced": "both", "damped_forced_escapement": "A",
                "corollary_escapement": "neither"}
    others = {
        f"family {family}, p {p}": validated("damped_forced_escapement", escapement, "A",
                                             family=family, p=p, grid=24)
        for family, p in ((2, 1), (1, 2))
    }
    ok = verdicts == expected and all(others.values())
    report(10, ok, f"verdicts {verdicts}; README escapement validated on {others}")
    assert ok
