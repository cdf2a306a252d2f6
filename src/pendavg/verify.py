"""Validation of averaged predictions by direct piecewise-smooth integration.

An amplitude certified as a simple zero of the averaged pair is mapped
to a reduced-frame initial condition, integrated over the resonant
window, and judged by the return-map gap of the corresponding orbit in
the original frame (amplitude ε times the reduced state), which shrinks
like ε² at a correct prediction.  The reduced-frame gap and its
orbit-family projection are kept alongside: the projection is the part
the averaged pair controls directly and separates a correct prediction
from a wrong one.  The same prediction can be refined to the true fixed
point of the return map and checked against the full nonlinear pendulum
in the original frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .averaging import ZeroCertificate
from .errors import (
    DomainError,
    PendavgError,
    RefinementDegenerateError,
)
from .filippov import (
    CrossingReport,
    Trajectory,
    crossing_hypothesis_check,
    integrate,
    integrate_field,
)
from .model import (
    JordanTransform,
    PhysicalParams,
    ReducedParams,
    SpectralData,
    jordan_transform,
    nonlinear_accelerations,
    reduce_params,
    spectral_data,
)
from .perturbation import PerturbationSpec, eval_order1_with_signs

SWEEP_MIN_SAMPLES = 4
SWEEP_MIN_RATIO = 8.0
REFINE_MAX_ITER = 30
REFINE_TOL = 1e-11
DEGENERATE_SV_RTOL = 1e-6
VALIDATED_EXPONENT_MIN = 1.8
FAMILY_NOISE_FLOOR = 1e-10
FAMILY_EXPONENT_MIN = 1.5
VERIFY_RTOL = 1e-12
VERIFY_ATOL = 1e-14
# Why a rung's refinement gave no limit gap; null on a converged rung.
NOT_CONTRACTING = "not contracting"
BUDGET_EXHAUSTED = "iteration budget exhausted"
DEGENERATE_SHOOTING = "degenerate shooting matrix"
INTEGRATION_FAILED = "integration failed"
PREDICTION_FLAGGED = "prediction run flagged"
NO_MONODROMY = "no monodromy: non-crossing contact"


@dataclass(frozen=True)
class PredictedOrbit:
    """Initial condition and window predicted for a persistent orbit.

    ``initial_state`` lives in the reduced frame at τ = 0; the physical
    orbit is recovered through the scalings φ = ε·θ and t = α·τ.
    """

    family: int
    p: int
    amplitude: np.ndarray
    initial_state: np.ndarray
    period_tau: float
    period_t: float


@dataclass(frozen=True)
class PoincareResult:
    """Return-map gap of one verification integration.

    ``residual`` is the return-map gap norm of the orbit in the
    original (pendulum) frame, which carries one power of ε from the
    amplitude scaling on top of the first-order displacement and so
    shrinks like ε² at a correct prediction.  ``residual_full`` is the
    reduced-frame four-dimensional gap norm (first order in ε);
    ``residual_family`` is its component in the orbit-family plane, the
    part the averaged pair controls directly, which separates a correct
    prediction (second order) from a wrong one (first order).

    ``monodromy`` is the reduced-frame derivative of the return map at
    the initial state, integrated along with the run
    (`poincare_residual` asks for it).  It is None on a flagged run, on
    the full nonlinear check, and when a contact without a saltation rule
    ended the request (see :mod:`pendavg.filippov`); ``monodromy_reason``
    then names that contact and its time.
    """

    epsilon: float
    residual: float
    residual_full: float
    residual_family: float
    gap: np.ndarray
    jordan_gap: np.ndarray
    events_ok: bool
    crossing: Optional[CrossingReport]
    trajectory: Optional[Trajectory]
    flag: Optional[str] = None
    flag_code: int = 0
    monodromy: Optional[np.ndarray] = None
    monodromy_reason: Optional[str] = None


@dataclass(frozen=True)
class RefinementResult:
    """Newton-shooting fixed point of the return map.

    ``reason`` is None when converged, otherwise `NOT_CONTRACTING`,
    `BUDGET_EXHAUSTED` or `NO_MONODROMY` (the prediction run carries no
    monodromy, so no step was taken and ``monodromy`` is None).  The other
    reasons of `SweepReport.limit_gap_reason` come from errors that
    `refine_periodic` raises: `DEGENERATE_SHOOTING` from a singular
    shooting matrix and `INTEGRATION_FAILED` from a failed chord-step
    run; `PREDICTION_FLAGGED` rungs are not refined.
    """

    state: np.ndarray
    residual: float
    iterations: int
    converged: bool
    monodromy: Optional[np.ndarray]
    reason: Optional[str]


@dataclass
class SweepReport:
    """Residual scaling of one prediction across an ε ladder.

    ``limit_gap_reason`` says, per rung, why ``limit_gap`` is NaN (None
    where refinement converged).
    """

    samples: List[PoincareResult]
    fitted_exponent: float
    limit_gap: List[float]
    limit_gap_reason: List[Optional[str]]
    valid: bool

    @property
    def epsilons(self) -> List[float]:
        return [s.epsilon for s in self.samples]

    @property
    def residuals(self) -> List[float]:
        return [s.residual for s in self.samples]

    @property
    def family_exponent(self) -> float:
        return fit_exponent(
            self.epsilons, [s.residual_family for s in self.samples]
        )

    @property
    def family_consistent(self) -> bool:
        """True when the in-family residual behaves like a genuine zero.

        A correct prediction leaves only a second-order in-family residual,
        so the fitted slope stays near 2; a wrong sgn convention leaves a
        first-order one and the slope drops to about 1.  Exactly solvable
        perturbations produce residuals at solver noise, which also counts
        as consistent.
        """
        values = [s.residual_family for s in self.samples]
        if all(v < FAMILY_NOISE_FLOOR for v in values):
            return True
        exponent = self.family_exponent
        return math.isfinite(exponent) and exponent >= FAMILY_EXPONENT_MIN

    @property
    def validated(self) -> bool:
        """True when the sweep confirms the prediction.

        The sweep must be valid, the original-frame residual must fit an
        exponent of at least ``VALIDATED_EXPONENT_MIN`` and the in-family
        residual must be consistent with a genuine zero.
        """
        exponent = self.fitted_exponent
        return bool(
            self.valid
            and math.isfinite(exponent)
            and exponent >= VALIDATED_EXPONENT_MIN
            and self.family_consistent
        )

    def events_summary(self) -> dict:
        total = sum(s.crossing.n_events for s in self.samples if s.crossing is not None)
        margins = [
            s.crossing.margin
            for s in self.samples
            if s.crossing is not None and math.isfinite(s.crossing.margin)
        ]
        return {
            "total_events": total,
            "all_crossings": all(s.events_ok for s in self.samples),
            "min_margin": min(margins) if margins else None,
        }

    def to_json_dict(self) -> dict:
        return {
            "epsilons": self.epsilons,
            "residuals": self.residuals,
            "exponent": self.fitted_exponent,
            "valid": self.valid,
            "residuals_reduced": [s.residual_full for s in self.samples],
            "residuals_family": [s.residual_family for s in self.samples],
            "family_exponent": self.family_exponent,
            "family_consistent": self.family_consistent,
            "limit_gap": self.limit_gap,
            "limit_gap_reason": self.limit_gap_reason,
            "events_summary": self.events_summary(),
        }


def convention_verdict(validated: Mapping[str, bool]) -> str:
    """Which sgn conventions validated a zero: "A", "B", "both" or "neither".

    ``validated`` maps each convention to whether any of its zeros passed
    `SweepReport.validated`.
    """
    winners = [c for c in ("A", "B") if validated.get(c)]
    if len(winners) == 2:
        return "both"
    return winners[0] if winners else "neither"


def to_physical_frame(state_reduced, eps: float, alpha: float) -> np.ndarray:
    """Reduced-frame state (per-τ velocities) to the pendulum frame."""
    x, y, z, w = np.asarray(state_reduced, dtype=float)
    return np.array([eps * x, eps * y / alpha, eps * z, eps * w / alpha])


def to_reduced_frame(state_physical, eps: float, alpha: float) -> np.ndarray:
    """Pendulum-frame state (per-t velocities) to the reduced frame."""
    if eps == 0.0:
        raise DomainError("the reduced frame is undefined at eps = 0")
    p1, dp1, p2, dp2 = np.asarray(state_physical, dtype=float)
    return np.array([p1 / eps, alpha * dp1 / eps, p2 / eps, alpha * dp2 / eps])


def orbit_from_amplitude(
    amplitude,
    family: int,
    transform: JordanTransform,
    spectral: SpectralData,
    reduced: ReducedParams,
    p: int = 1,
) -> PredictedOrbit:
    """Predicted orbit for an explicit family-plane amplitude."""
    if family not in (1, 2):
        raise DomainError(f"family must be 1 or 2, got {family}")
    if p < 1:
        raise DomainError(f"resonance order p must be a positive integer, got {p}")
    amplitude = np.asarray(amplitude, dtype=float)
    if amplitude.shape != (2,):
        raise DomainError("amplitude must be a pair")
    jordan_point = np.zeros(4)
    offset = 0 if family == 1 else 2
    jordan_point[offset : offset + 2] = amplitude
    initial = transform.inverse @ jordan_point
    period_tau = p * spectral.period(family)
    return PredictedOrbit(
        family=family,
        p=p,
        amplitude=amplitude,
        initial_state=initial,
        period_tau=period_tau,
        period_t=reduced.alpha * period_tau,
    )


def predicted_initial_state(
    cert: ZeroCertificate,
    family: int,
    transform: JordanTransform,
    spectral: SpectralData,
    reduced: ReducedParams,
    p: int = 1,
) -> PredictedOrbit:
    """Map a certified simple zero to its predicted initial condition."""
    if not cert.simple:
        raise DomainError("the certificate does not certify a simple zero")
    return orbit_from_amplitude(cert.point, family, transform, spectral, reduced, p=p)


def _family_slice(family: int) -> slice:
    return slice(0, 2) if family == 1 else slice(2, 4)


def _package_result(
    eps: float,
    family: int,
    transform: JordanTransform,
    traj: Trajectory,
    gap: np.ndarray,
    residual: float,
) -> PoincareResult:
    """Result for a completed run with its reduced-frame gap and residual."""
    jordan_gap = transform.forward @ gap
    report = crossing_hypothesis_check(traj)
    return PoincareResult(
        epsilon=eps,
        residual=residual,
        residual_full=float(np.linalg.norm(gap)),
        residual_family=float(np.linalg.norm(jordan_gap[_family_slice(family)])),
        gap=gap,
        jordan_gap=jordan_gap,
        events_ok=report.ok,
        crossing=report,
        trajectory=traj,
        monodromy=traj.monodromy,
        monodromy_reason=traj.monodromy_reason,
    )


def _flagged_result(
    eps: float, message: str, traj: Optional[Trajectory], code: int = 1
) -> PoincareResult:
    return PoincareResult(
        epsilon=eps,
        residual=float("nan"),
        residual_full=float("nan"),
        residual_family=float("nan"),
        gap=np.full(4, np.nan),
        jordan_gap=np.full(4, np.nan),
        events_ok=False,
        crossing=crossing_hypothesis_check(traj) if traj is not None else None,
        trajectory=traj,
        flag=message,
        flag_code=code,
    )


def _check_spec_matches(orbit: PredictedOrbit, spec: PerturbationSpec):
    if spec.family != orbit.family:
        raise DomainError(
            f"perturbation is stated for family {spec.family}, orbit is family {orbit.family}"
        )
    if spec.p != orbit.p:
        raise DomainError(
            f"perturbation resonance order p = {spec.p} does not match orbit p = {orbit.p}"
        )


def poincare_residual(
    orbit: PredictedOrbit,
    spec: PerturbationSpec,
    reduced: ReducedParams,
    spectral: SpectralData,
    eps: float,
) -> PoincareResult:
    """Return-map gap of the reduced system over the resonant window.

    The run also integrates the variational equations, so the result
    carries the return map's monodromy for `refine_periodic`.
    Integration failures (stall, persistent tangency) do not raise; they
    return a flagged result so that sweep aggregation can retain the
    failure.
    """
    _check_spec_matches(orbit, spec)
    transform = jordan_transform(reduced, spectral)
    try:
        traj = integrate(
            spec,
            reduced,
            spectral,
            eps,
            orbit.initial_state,
            (0.0, orbit.period_tau),
            rtol=VERIFY_RTOL,
            atol=VERIFY_ATOL,
            monodromy=True,
        )
    except PendavgError as exc:
        return _flagged_result(
            eps, str(exc), getattr(exc, "trajectory", None), code=exc.exit_code
        )
    gap = traj.final_state - traj.initial_state
    residual = float(np.linalg.norm(to_physical_frame(gap, eps, reduced.alpha)))
    return _package_result(eps, orbit.family, transform, traj, gap, residual)


def refine_periodic(
    orbit: PredictedOrbit,
    spec: PerturbationSpec,
    reduced: ReducedParams,
    spectral: SpectralData,
    prediction: PoincareResult,
) -> RefinementResult:
    """Chord-Newton shooting from the prediction to a return-map fixed point.

    ``prediction`` is the `poincare_residual` run of ``orbit`` at the
    refinement's ε.  Its final state is the prediction's image under the
    return map and its monodromy, integrated along with it through
    variational equations and saltation matrices, gives the chord
    matrix, so the prediction is not integrated again and each step
    costs one integration.  Near an isolated orbit every step shrinks
    the gap; the first step that does not ends the refinement
    unconverged, and ``REFINE_MAX_ITER`` only bounds the loop.  A
    prediction run without a monodromy (a non-crossing contact ended
    it) ends the refinement before any step with `NO_MONODROMY`.  A
    singular shooting matrix, as at ε = 0 where the orbit family makes
    the return map non-isolated, raises a degenerate-refinement error.
    """
    _check_spec_matches(orbit, spec)
    if prediction.flag is not None:
        raise DomainError(f"the prediction run is flagged: {prediction.flag}")
    eps = prediction.epsilon
    s = np.array(orbit.initial_state, dtype=float)
    gap = prediction.trajectory.final_state - s
    residual = float(np.linalg.norm(gap))
    monodromy = prediction.monodromy
    if monodromy is None:
        return RefinementResult(
            state=s,
            residual=residual,
            iterations=0,
            converged=False,
            monodromy=None,
            reason=NO_MONODROMY,
        )

    def return_map(s: np.ndarray) -> np.ndarray:
        traj = integrate(
            spec,
            reduced,
            spectral,
            eps,
            s,
            (0.0, orbit.period_tau),
            rtol=VERIFY_RTOL,
            atol=VERIFY_ATOL,
        )
        return traj.final_state

    jac = monodromy - np.eye(4)
    smallest = np.linalg.svd(jac, compute_uv=False)[-1]
    if smallest < DEGENERATE_SV_RTOL * max(1.0, float(np.linalg.norm(jac))):
        raise RefinementDegenerateError(
            "the shooting matrix (monodromy - identity) is numerically singular; "
            "the return-map fixed point is not isolated at this eps"
        )

    iterations = 0
    while residual > REFINE_TOL and iterations < REFINE_MAX_ITER:
        iterations += 1
        s = s + np.linalg.solve(jac, -gap)
        gap = return_map(s) - s
        previous, residual = residual, float(np.linalg.norm(gap))
        if not residual < previous:
            reason = NOT_CONTRACTING
            break
    else:
        reason = None if residual <= REFINE_TOL else BUDGET_EXHAUSTED
    return RefinementResult(
        state=s,
        residual=residual,
        iterations=iterations,
        converged=reason is None,
        monodromy=monodromy,
        reason=reason,
    )


def fit_exponent(epsilons: Sequence[float], residuals: Sequence[float]) -> float:
    """Least-squares slope of log residual against log ε."""
    eps_arr = np.asarray(list(epsilons), dtype=float)
    res_arr = np.asarray(list(residuals), dtype=float)
    mask = np.isfinite(res_arr) & (res_arr > 0.0) & np.isfinite(eps_arr) & (eps_arr > 0.0)
    if int(mask.sum()) < 2:
        return float("nan")
    slope = np.polyfit(np.log(eps_arr[mask]), np.log(res_arr[mask]), 1)[0]
    return float(slope)


def epsilon_sweep(
    orbit: PredictedOrbit,
    spec: PerturbationSpec,
    reduced: ReducedParams,
    spectral: SpectralData,
    eps_list: Sequence[float],
) -> SweepReport:
    """Residual scaling across a decreasing ε ladder.

    Requires at least four strictly decreasing, finite, positive values
    spanning a factor of at least 8.
    """
    eps_values = [float(e) for e in eps_list]
    if len(eps_values) < SWEEP_MIN_SAMPLES:
        raise DomainError(f"need at least {SWEEP_MIN_SAMPLES} eps samples, got {len(eps_values)}")
    if not all(math.isfinite(e) and e > 0.0 for e in eps_values):
        raise DomainError(f"eps samples must be finite and positive, got {eps_values}")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise DomainError("eps samples must be strictly decreasing")
    if eps_values[0] / eps_values[-1] < SWEEP_MIN_RATIO * (1.0 - 1e-12):
        raise DomainError(
            f"eps samples must span a factor of at least {SWEEP_MIN_RATIO}, "
            f"got {eps_values[0] / eps_values[-1]:.3g}"
        )

    def run_refine(sample: PoincareResult) -> Tuple[float, Optional[str]]:
        """Limit gap of one rung and, when there is none, the reason."""
        if sample.flag is not None:
            return float("nan"), PREDICTION_FLAGGED
        try:
            result = refine_periodic(orbit, spec, reduced, spectral, sample)
        except RefinementDegenerateError:
            return float("nan"), DEGENERATE_SHOOTING
        except PendavgError:
            return float("nan"), INTEGRATION_FAILED
        if not result.converged:
            return float("nan"), result.reason
        return float(np.linalg.norm(result.state - orbit.initial_state)), None

    samples = [poincare_residual(orbit, spec, reduced, spectral, e) for e in eps_values]
    refined = [run_refine(sample) for sample in samples]

    exponent = fit_exponent(eps_values, [s.residual for s in samples])
    valid = all(s.events_ok and s.flag is None for s in samples)
    return SweepReport(
        samples=samples,
        fitted_exponent=exponent,
        limit_gap=[gap for gap, _ in refined],
        limit_gap_reason=[reason for _, reason in refined],
        valid=valid,
    )


def full_nonlinear_check(
    orbit: PredictedOrbit,
    phys: PhysicalParams,
    spec: PerturbationSpec,
    eps: float,
) -> PoincareResult:
    """Return-map gap of the full nonlinear pendulum in the original frame.

    The pendulum accelerations carry the reduced-frame forcing pulled back
    through φ = ε·θ and t = α·τ: (ε²/α²) times the forcing at τ = t/α and
    at the reduced-frame state of the pendulum, which puts the
    state-linear forms at order ε and the periodic scalars at order ε².
    At ε = 0 the pendulum is unforced.  The residual is the
    original-frame gap norm, directly comparable with
    `poincare_residual`; the pulled-back reduced-frame gap and its family
    projection are kept alongside.
    """
    _check_spec_matches(orbit, spec)
    reduced = reduce_params(phys)
    spectral = spectral_data(reduced)
    transform = jordan_transform(reduced, spectral)
    alpha = reduced.alpha
    scale = eps * eps / (alpha * alpha)
    s0 = to_physical_frame(orbit.initial_state, eps, alpha)

    def field(t: float, u: np.ndarray, signs: Tuple[float, float]) -> np.ndarray:
        phi1, dphi1, phi2, dphi2 = u
        dd1, dd2 = nonlinear_accelerations(phys, phi1, dphi1, phi2, dphi2)
        if eps != 0.0:
            f_y, f_w = eval_order1_with_signs(
                spec, t / alpha, to_reduced_frame(u, eps, alpha), signs[0], signs[1]
            )
            dd1 += scale * f_y
            dd2 += scale * f_w
        return np.array([dphi1, dd1, dphi2, dd2])

    field.knots = lambda t0, t1: tuple(alpha * k for k in spec.table_knots(t0 / alpha, t1 / alpha))
    max_step = alpha * min(spectral.period1, spectral.period2) / 16.0
    try:
        traj = integrate_field(
            field,
            s0,
            (0.0, orbit.period_t),
            rtol=VERIFY_RTOL,
            atol=VERIFY_ATOL,
            max_step=max_step,
        )
    except PendavgError as exc:
        return _flagged_result(
            eps, str(exc), getattr(exc, "trajectory", None), code=exc.exit_code
        )

    gap_phi = traj.final_state - traj.initial_state
    if eps == 0.0:
        gap_reduced = gap_phi
    else:
        # The frame map is linear, so it applies to the gap directly.
        gap_reduced = to_reduced_frame(gap_phi, eps, alpha)
    return _package_result(
        eps, orbit.family, transform, traj, gap_reduced, float(np.linalg.norm(gap_phi))
    )
