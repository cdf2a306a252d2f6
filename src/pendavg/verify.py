"""Validation of averaged predictions by direct piecewise-smooth integration.

An amplitude certified as a simple zero of the averaged pair is mapped
to a reduced-frame initial condition, a `PredictedOrbit` that carries
the `BifurcationSystem` it was predicted from, so the check reads the
perturbation, constants and spectrum from the orbit.  The check,
`poincare_residual`, integrates the system truncated at order ε over the
resonant window in the reduced frame.  It is judged by the return-map
gap of the corresponding orbit in the original frame
(`to_physical_frame`, the one frame map: amplitude ε times the reduced
state), which shrinks like ε² at a correct prediction.  The
reduced-frame gap and its orbit-family projection are kept alongside:
the projection is the part the averaged pair controls directly and
separates a correct prediction from a wrong one.  The same prediction
can be refined to the true fixed point of the return map.

States and gaps are tuples of floats and matrices tuples of rows; the
shooting step's 4×4 linear algebra is plain Python (:func:`solve_linear`,
:func:`smallest_singular_value`).
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from operator import mul
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .averaging import BifurcationSystem, ZeroCertificate
from .errors import CrossingViolationError, DomainError, IntegrationStallError, PendavgError
from .filippov import Trajectory, integrate

SWEEP_MIN_SAMPLES = 4
SWEEP_MIN_RATIO = 8.0
REFINE_MAX_ITER = 30
REFINE_TOL = 1e-11
DEGENERATE_SV_RTOL = 1e-6
VALIDATED_EXPONENT_MIN = 1.8
FAMILY_NOISE_FLOOR = 1e-10
FAMILY_EXPONENT_MIN = 1.5
# Why a rung's refinement gave no limit gap; null on a converged rung.
NOT_CONTRACTING = "not contracting"
BUDGET_EXHAUSTED = "iteration budget exhausted"
DEGENERATE_SHOOTING = "degenerate shooting matrix"
INTEGRATION_FAILED = "integration failed"
PREDICTION_FLAGGED = "prediction run flagged"
NO_MONODROMY = "no monodromy: non-crossing contact"
# Most sweeps of one-sided Jacobi; a 4×4 matrix takes about six.
JACOBI_SWEEPS = 30
State = Tuple[float, float, float, float]


class PredictedOrbit(NamedTuple):
    """A persistent orbit predicted by an averaged system.

    ``system`` is the `BifurcationSystem` whose zero ``amplitude`` is: the
    checks read the family, p, perturbation, constants, spectrum and
    normal-form transform from it.  ``initial_state`` lives in the
    reduced frame at τ = 0 and ``period_tau`` is the resonant window
    p·T_family in τ; the physical orbit is recovered through the
    scalings φ = ε·θ and t = α·τ.
    """

    system: BifurcationSystem
    amplitude: Tuple[float, float]
    initial_state: State
    period_tau: float


class PoincareResult(NamedTuple):
    """Return-map gap of one verification integration: its trajectory and
    the numbers read from it.

    ``trajectory`` is the run, partial or None on a flagged run (``flag``
    says why and ``flag_code`` gives the error's exit code); it judges
    its own contacts (``Trajectory.offenders`` and ``.margin``), and its
    end states give the gap the residuals measure.  The monodromy of the
    return map at the initial state is the trajectory's
    (`poincare_residual` asks for it, `refine_periodic` reads it):
    ``trajectory.monodromy``, or None when a tangent contact, the first of
    ``trajectory.offenders``, ended the request (see :mod:`pendavg.filippov`).

    ``residual`` is the return-map gap norm of the orbit in the
    original (pendulum) frame, which carries one power of ε from the
    amplitude scaling on top of the first-order displacement and so
    shrinks like ε² at a correct prediction.  ``residual_full`` is the
    reduced-frame four-dimensional gap norm (first order in ε);
    ``residual_family`` is its component in the orbit-family plane, the
    part the averaged pair controls directly, which separates a correct
    prediction (second order) from a wrong one (first order).  The
    residuals are NaN on a flagged run.
    """

    epsilon: float
    trajectory: Optional[Trajectory]
    residual: float = math.nan
    residual_full: float = math.nan
    residual_family: float = math.nan
    flag: Optional[str] = None
    flag_code: int = 0

    @property
    def events_ok(self) -> bool:
        """True when the run completed and met only transversal crossings."""
        return self.flag is None and not self.trajectory.offenders


class RefinementResult(NamedTuple):
    """Newton-shooting fixed point of the return map.

    ``reason`` is None when converged, otherwise why not, and no step was
    taken for the first three: `PREDICTION_FLAGGED` (the prediction run
    was flagged), `NO_MONODROMY` (it carries no monodromy, the chord
    matrix), `DEGENERATE_SHOOTING` (the shooting matrix is singular),
    `INTEGRATION_FAILED` (a chord-step run raised; ``state`` is that
    step's and ``residual`` NaN), `NOT_CONTRACTING` or `BUDGET_EXHAUSTED`.
    """

    state: State
    residual: float
    iterations: int
    reason: Optional[str]

    @property
    def converged(self) -> bool:
        return self.reason is None


class SweepReport(NamedTuple):
    """Residual scaling of one prediction across an ε ladder, and its verdict:
    ``validated``, ``crossing_violation`` and ``stalled``.

    ``limit_gap_reason`` says, per rung, why ``limit_gap`` is NaN: the
    rung's `RefinementResult.reason`, None where refinement converged.
    """

    samples: List[PoincareResult]
    limit_gap: List[float]
    limit_gap_reason: List[Optional[str]]

    @property
    def epsilons(self) -> List[float]:
        return [s.epsilon for s in self.samples]

    @property
    def residuals(self) -> List[float]:
        return [s.residual for s in self.samples]

    @property
    def fitted_exponent(self) -> float:
        return fit_exponent(self.epsilons, self.residuals)

    @property
    def valid(self) -> bool:
        """True when every run completed and met only transversal crossings."""
        return all(s.events_ok for s in self.samples)

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

    @property
    def crossing_violation(self) -> bool:
        """True when some rung's trajectory, partial ones included, has
        offenders, or some rung's run was flagged with exit 5 (a persistent
        tangency)."""
        return any(s.flag_code == CrossingViolationError.exit_code
                   or (s.trajectory is not None and s.trajectory.offenders) for s in self.samples)

    @property
    def stalled(self) -> bool:
        """True when some rung's run was flagged with exit 6."""
        return any(s.flag_code == IntegrationStallError.exit_code for s in self.samples)

    def events_summary(self) -> dict:
        runs = [s.trajectory for s in self.samples if s.trajectory is not None]
        margins = [m for m in (t.margin for t in runs) if math.isfinite(m)]
        return {
            "total_events": sum(len(t.events) for t in runs),
            "all_crossings": self.valid,
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


def to_physical_frame(state_reduced, eps: float, alpha: float) -> State:
    """Reduced-frame state (per-τ velocities) to the pendulum frame."""
    x, y, z, w = map(float, state_reduced)
    return (eps * x, eps * y / alpha, eps * z, eps * w / alpha)


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _matvec(matrix, vector) -> tuple:
    return tuple(_dot(row, vector) for row in matrix)


def _frobenius(matrix) -> float:
    return math.hypot(*chain.from_iterable(matrix))


def solve_linear(matrix, rhs) -> tuple:
    """x with matrix·x = rhs, by Gaussian elimination with partial pivoting
    (the largest magnitude in the column, the first on a tie, as LAPACK's
    getrf); an exactly zero pivot raises DomainError."""
    n = len(rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            raise DomainError("the shooting matrix (monodromy - identity) is singular")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot[k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], pivot)]
    x = [0.0] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - _dot(rows[k][k + 1:n], x[k + 1:])) / rows[k][k]
    return tuple(x)


def smallest_singular_value(matrix) -> float:
    """The smallest singular value of a square matrix by one-sided Jacobi
    (Hestenes): plane rotations orthogonalize the columns, whose norms are
    then the singular values (Demmel & Veselić, SIAM J. Matrix Anal. Appl.
    13, 1992).  The matrix is scaled by its largest entry first, so no
    inner product overflows; a matrix with an entry that is not finite
    has NaN."""
    entries = [abs(x) for x in chain.from_iterable(matrix)]
    scale = max(entries) if all(map(math.isfinite, entries)) else math.nan  # max() skips a later NaN
    if not scale > 0.0:
        return scale
    cols = [[x / scale for x in col] for col in zip(*matrix)]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i in range(len(cols) - 1):
            for j in range(i + 1, len(cols)):
                p, q = cols[i], cols[j]
                alpha, beta, gamma = _dot(p, p), _dot(q, q), _dot(p, q)
                if not abs(gamma) > sys.float_info.epsilon * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                cols[i] = [c * a - s * b for a, b in zip(p, q)]
                cols[j] = [s * a + c * b for a, b in zip(p, q)]
        if not rotated:
            break
    return scale * min(math.hypot(*col) for col in cols)


def orbit_from_amplitude(system: BifurcationSystem, amplitude) -> PredictedOrbit:
    """Predicted orbit of ``system`` for an explicit family-plane amplitude."""
    amplitude = tuple(map(float, amplitude))
    if len(amplitude) != 2:
        raise DomainError("amplitude must be a pair")
    jordan_point = amplitude + (0.0, 0.0) if system.family == 1 else (0.0, 0.0) + amplitude
    return PredictedOrbit(
        system=system,
        amplitude=amplitude,
        initial_state=_matvec(system.transform.inverse, jordan_point),
        period_tau=system.spec.p * system.spectral.period(system.family),
    )


def predicted_initial_state(system: BifurcationSystem, cert: ZeroCertificate) -> PredictedOrbit:
    """Map a certified simple zero of ``system`` to its predicted orbit."""
    if not cert.simple:
        raise DomainError("the certificate does not certify a simple zero")
    return orbit_from_amplitude(system, cert.point)


def poincare_residual(orbit: PredictedOrbit, eps: float) -> PoincareResult:
    """Return-map gap of the reduced system over the resonant window.

    The run also integrates the variational equations, so the result
    carries the return map's monodromy for `refine_periodic`.
    Integration failures (stall, persistent tangency) do not raise; they
    return a flagged result so that sweep aggregation can retain the
    failure.
    """
    system = orbit.system
    try:
        traj = integrate(system.spec, system.reduced, system.spectral, eps, orbit.initial_state,
                         (0.0, orbit.period_tau), monodromy=True)
    except PendavgError as exc:
        return PoincareResult(eps, exc.trajectory, flag=str(exc), flag_code=exc.exit_code)
    gap = _difference(traj.final_state, traj.initial_state)
    k = 0 if system.family == 1 else 2
    return PoincareResult(
        epsilon=eps,
        trajectory=traj,
        residual=math.hypot(*to_physical_frame(gap, eps, system.reduced.alpha)),
        residual_full=math.hypot(*gap),
        residual_family=math.hypot(*_matvec(system.transform.forward, gap)[k:k + 2]),
    )


def refine_periodic(orbit: PredictedOrbit, prediction: PoincareResult) -> RefinementResult:
    """Chord-Newton shooting from the prediction to a return-map fixed point.

    ``prediction`` is the `poincare_residual` run of ``orbit`` at the
    refinement's ε.  Its final state is the prediction's image under the
    return map and its monodromy, integrated along with it through
    variational equations and saltation matrices, gives the chord
    matrix, so the prediction is not integrated again and each step
    costs one integration.  Near an isolated orbit every step shrinks
    the gap; the first step that does not ends the refinement
    unconverged, and ``REFINE_MAX_ITER`` only bounds the loop.  Every
    outcome is returned, and `RefinementResult.reason` names it; the
    refinement also ends at a flagged prediction run, at one without a
    monodromy (a non-crossing contact ended it), at a singular shooting
    matrix, as at ε = 0 where the orbit family makes the return map
    non-isolated, and at a chord-step run that raises.
    """
    s = tuple(orbit.initial_state)
    if prediction.flag is not None:
        return RefinementResult(state=s, residual=math.nan, iterations=0, reason=PREDICTION_FLAGGED)
    eps = prediction.epsilon
    gap = _difference(prediction.trajectory.final_state, s)
    residual = math.hypot(*gap)
    monodromy = prediction.trajectory.monodromy
    if monodromy is None:
        return RefinementResult(state=s, residual=residual, iterations=0, reason=NO_MONODROMY)
    system = orbit.system

    def return_map(s: State) -> State:
        return integrate(system.spec, system.reduced, system.spectral, eps, s,
                         (0.0, orbit.period_tau)).final_state

    jac = [[m - float(i == j) for j, m in enumerate(row)] for i, row in enumerate(monodromy)]
    if smallest_singular_value(jac) < DEGENERATE_SV_RTOL * max(1.0, _frobenius(jac)):
        return RefinementResult(state=s, residual=residual, iterations=0, reason=DEGENERATE_SHOOTING)

    iterations = 0
    while residual > REFINE_TOL and iterations < REFINE_MAX_ITER:
        iterations += 1
        s = tuple(a + b for a, b in zip(s, solve_linear(jac, [-g for g in gap])))
        try:
            gap = _difference(return_map(s), s)
        except PendavgError:
            return RefinementResult(state=s, residual=math.nan, iterations=iterations,
                                    reason=INTEGRATION_FAILED)
        previous, residual = residual, math.hypot(*gap)
        if not residual < previous:
            reason = NOT_CONTRACTING
            break
    else:
        reason = None if residual <= REFINE_TOL else BUDGET_EXHAUSTED
    return RefinementResult(state=s, residual=residual, iterations=iterations, reason=reason)


def _difference(a, b) -> State:
    return tuple(x - y for x, y in zip(a, b))


def fit_exponent(epsilons: Sequence[float], residuals: Sequence[float]) -> float:
    """Least-squares slope of log residual against log ε, in closed form:
    Σ(x − x̄)(y − ȳ) / Σ(x − x̄)² over the finite positive pairs; NaN with
    fewer than two of them or a single ε."""
    points = [(math.log(e), math.log(r)) for e, r in zip(map(float, epsilons), map(float, residuals))
              if 0.0 < e < math.inf and 0.0 < r < math.inf]
    if len(points) < 2:
        return math.nan
    x_mean = sum(x for x, _ in points) / len(points)
    y_mean = sum(y for _, y in points) / len(points)
    sxx = sum((x - x_mean) * (x - x_mean) for x, _ in points)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in points)
    return sxy / sxx if sxx > 0.0 else math.nan


def sweep_ladder(eps_list: Sequence[float]) -> List[float]:
    """The ε ladder as floats, once it holds at least four strictly
    decreasing, finite, positive values spanning a factor of at least 8;
    otherwise DomainError."""
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
    return eps_values


def epsilon_sweep(orbit: PredictedOrbit, eps_list: Sequence[float]) -> SweepReport:
    """Residual scaling across a decreasing ε ladder that `sweep_ladder` accepts."""
    samples = [poincare_residual(orbit, e) for e in sweep_ladder(eps_list)]
    refined = [refine_periodic(orbit, sample) for sample in samples]
    return SweepReport(
        samples=samples,
        limit_gap=[math.hypot(*_difference(r.state, orbit.initial_state)) if r.converged else math.nan
                   for r in refined],
        limit_gap_reason=[r.reason for r in refined],
    )
