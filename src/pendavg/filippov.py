"""Event-driven integration of piecewise-smooth planar-pendulum fields.

The discontinuity set is the union of the two coordinate hyperplanes
``x = 0`` and ``z = 0``.  Between events the flow is smooth and is
integrated with an adaptive Runge-Kutta scheme; at events the surface
contact is classified through one-sided Lie derivatives and the region
signs are switched (crossing), the flow is replaced by the tangent
convex combination of the one-sided fields (sliding), or the contact is
resolved through the curvature of the surface level (tangency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    CrossingViolationError,
    DegenerateSlidingError,
    DomainError,
    IntegrationStallError,
    TangencyError,
)
from .model import ReducedParams, SpectralData
from .perturbation import PerturbationSpec, eval_order1_with_signs, smooth_sign

# Tolerances of the event machinery.
EVENT_TIME_TOL = 1e-12
EVENT_STATE_TOL = 1e-11
LIE_TOL = 1e-10
CORNER_TIME_TOL = 1e-12
SLIDING_DENOM_TOL = 1e-12
EQUILIBRIUM_FIELD_TOL = 1e-12
STALL_DT = 1e-12
STALL_RUN = 50
DEFAULT_MAX_EVENTS = 100_000
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# Escalating micro-step sizes used to leave a surface after an event.
_RESTART_STEPS = (1e-12, 1e-10, 1e-8, 1e-6)

_KINDS = ("crossing", "sliding", "escaping", "tangent")


@dataclass(frozen=True)
class SwitchingSurface:
    """A coordinate hyperplane ``state[index] = 0``."""

    id: int
    index: int

    def level(self, state) -> float:
        return float(np.asarray(state, dtype=float)[self.index])


SURFACE_X = SwitchingSurface(id=1, index=0)
SURFACE_Z = SwitchingSurface(id=2, index=2)
SURFACES: Tuple[SwitchingSurface, SwitchingSurface] = (SURFACE_X, SURFACE_Z)


@dataclass(frozen=True)
class SurfaceClassification:
    """Contact type of a trajectory with one switching surface."""

    kind: str
    lie_minus: float
    lie_plus: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown contact kind {self.kind!r}")


@dataclass(frozen=True)
class EventRecord:
    """One classified surface contact along a trajectory."""

    time: float
    state: np.ndarray
    surface: int
    classification: SurfaceClassification
    corner: bool = False

    @property
    def kind(self) -> str:
        return self.classification.kind


@dataclass(frozen=True)
class Segment:
    """A smooth (or sliding) piece of a trajectory.

    ``sol`` interpolates the states on ``[t_start, t_end]`` (in either
    time direction); ``None`` marks a constant segment resting at an
    equilibrium on the discontinuity set.  ``signs`` are the region
    signs used for the sgn arguments; a 0 entry marks motion inside the
    corresponding surface.
    """

    t_start: float
    t_end: float
    sol: Optional[Callable[[float], np.ndarray]]
    ts: np.ndarray
    signs: Tuple[float, float]
    sliding_surface: Optional[int] = None
    constant_state: Optional[np.ndarray] = None

    def state_at(self, t: float) -> np.ndarray:
        if self.sol is None:
            return np.array(self.constant_state, dtype=float)
        return np.asarray(self.sol(t), dtype=float)


@dataclass
class Trajectory:
    """Piecewise-smooth trajectory with its classified event log."""

    segments: List[Segment]
    events: List[EventRecord]
    epsilon: float
    t_span: Tuple[float, float]
    initial_state: np.ndarray

    @property
    def final_time(self) -> float:
        if not self.segments:
            return self.t_span[0]
        return self.segments[-1].t_end

    @property
    def final_state(self) -> np.ndarray:
        if not self.segments:
            return np.array(self.initial_state, dtype=float)
        seg = self.segments[-1]
        return seg.state_at(seg.t_end)

    def state_at(self, t: float) -> np.ndarray:
        if not self.segments:
            return np.array(self.initial_state, dtype=float)
        for seg in self.segments:
            lo, hi = sorted((seg.t_start, seg.t_end))
            if lo - EVENT_TIME_TOL <= t <= hi + EVENT_TIME_TOL:
                return seg.state_at(min(max(t, lo), hi))
        raise DomainError(f"time {t} is not covered by the integrated span")

    def sample(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """States at ``n`` uniformly spaced times over the covered span."""
        if n < 2:
            raise DomainError("need at least two sample points")
        ts = np.linspace(self.t_span[0], self.final_time, n)
        states = np.stack([self.state_at(t) for t in ts], axis=1)
        return ts, states


@dataclass(frozen=True)
class CrossingReport:
    """Outcome of checking that every event is a transversal crossing."""

    ok: bool
    margin: float
    n_events: int
    n_crossing: int
    n_other: int
    offenders: Tuple[int, ...]


FieldWithSigns = Callable[[float, np.ndarray, Tuple[float, float]], np.ndarray]


def d1_field(spec: PerturbationSpec, reduced: ReducedParams, eps: float) -> FieldWithSigns:
    """Right-hand side of the reduced system with explicit region signs.

    x' = y,   y' = -a x + z + ε f_y(τ, state; sgn)
    z' = w,   w' = b x - b z + ε f_w(τ, state; sgn)

    plus the optional ε² remainder pair carried by the perturbation.
    """
    a = reduced.a
    b = reduced.b
    remainder = spec.R

    def field(t: float, state: np.ndarray, signs: Tuple[float, float]) -> np.ndarray:
        x, y, z, w = state
        f_y, f_w = eval_order1_with_signs(spec, t, state, signs[0], signs[1])
        dy = -a * x + z + eps * f_y
        dw = b * x - b * z + eps * f_w
        if remainder is not None:
            dy += eps * eps * remainder[0](t, state, eps)
            dw += eps * eps * remainder[1](t, state, eps)
        return np.array([y, dy, w, dw], dtype=float)

    return field


def lie_derivative(field_value: np.ndarray, surface: SwitchingSurface) -> float:
    """Rate of change of the surface level along a field value."""
    return float(np.asarray(field_value, dtype=float)[surface.index])


def classify_values(lie_minus: float, lie_plus: float) -> SurfaceClassification:
    """Contact kind from the two one-sided level derivatives.

    Tangency wins whenever either derivative sits inside the tolerance
    band; otherwise the sign pattern decides between crossing (equal
    signs), sliding (flow pushes onto the surface from both sides) and
    escaping (flow leaves on both sides).
    """
    if abs(lie_minus) <= LIE_TOL or abs(lie_plus) <= LIE_TOL:
        kind = "tangent"
    elif lie_minus * lie_plus > 0.0:
        kind = "crossing"
    elif lie_minus > 0.0 > lie_plus:
        kind = "sliding"
    else:
        kind = "escaping"
    return SurfaceClassification(kind=kind, lie_minus=lie_minus, lie_plus=lie_plus)


def _one_sided_values(
    field: FieldWithSigns,
    t: float,
    state: np.ndarray,
    signs: Sequence[float],
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    minus = list(signs)
    plus = list(signs)
    minus[k] = -1.0
    plus[k] = 1.0
    return field(t, state, tuple(minus)), field(t, state, tuple(plus))


def classify_surface_contact(
    field: FieldWithSigns,
    t: float,
    state: np.ndarray,
    signs: Sequence[float],
    k: int,
) -> SurfaceClassification:
    minus_val, plus_val = _one_sided_values(field, t, state, signs, k)
    srf = SURFACES[k]
    return classify_values(lie_derivative(minus_val, srf), lie_derivative(plus_val, srf))


def _point_signs(state: np.ndarray) -> Tuple[float, float]:
    return (float(np.sign(state[0])), float(np.sign(state[2])))


def _surface_index_for_state(state: np.ndarray, surface: Optional[int]) -> int:
    if surface is not None:
        for k, srf in enumerate(SURFACES):
            if srf.id == surface:
                if abs(srf.level(state)) > 1e-8:
                    raise DomainError(
                        f"state is not on surface {surface}: level {srf.level(state):.3e}"
                    )
                return k
        raise DomainError(f"unknown surface id {surface}")
    levels = [abs(srf.level(state)) for srf in SURFACES]
    k = int(np.argmin(levels))
    if levels[k] > 1e-8:
        raise DomainError(
            "state is not on either switching surface "
            f"(|x| = {levels[0]:.3e}, |z| = {levels[1]:.3e})"
        )
    return k


def classify(
    spec: PerturbationSpec,
    reduced: ReducedParams,
    eps: float,
    tau: float,
    state,
    surface: Optional[int] = None,
) -> SurfaceClassification:
    """Classify the contact of the reduced flow with a switching surface.

    The state must lie on a surface (smallest level wins when ``surface``
    is not forced).  The sgn argument of the other surface is taken from
    the sign of the corresponding state coordinate.
    """
    state = np.asarray(state, dtype=float)
    k = _surface_index_for_state(state, surface)
    field = d1_field(spec, reduced, eps)
    return classify_surface_contact(field, tau, state, _point_signs(state), k)


def sliding_combination(
    field: FieldWithSigns,
    t: float,
    state: np.ndarray,
    signs: Sequence[float],
    k: int,
) -> np.ndarray:
    """Convex combination of the one-sided fields tangent to surface k."""
    minus_val, plus_val = _one_sided_values(field, t, state, signs, k)
    srf = SURFACES[k]
    lie_minus = lie_derivative(minus_val, srf)
    lie_plus = lie_derivative(plus_val, srf)
    denom = lie_plus - lie_minus
    if abs(denom) <= SLIDING_DENOM_TOL:
        raise DegenerateSlidingError(
            "one-sided level derivatives coincide; the sliding combination "
            f"is undefined (lie- = {lie_minus:.3e}, lie+ = {lie_plus:.3e})"
        )
    return (lie_plus * minus_val - lie_minus * plus_val) / denom


def sliding_field(
    spec: PerturbationSpec,
    reduced: ReducedParams,
    eps: float,
    tau: float,
    state,
    surface: Optional[int] = None,
) -> np.ndarray:
    """Sliding vector field of the reduced flow on a switching surface."""
    state = np.asarray(state, dtype=float)
    k = _surface_index_for_state(state, surface)
    field = d1_field(spec, reduced, eps)
    return sliding_combination(field, tau, state, _point_signs(state), k)


def _make_level_event(index: int):
    def event(t, u, idx=index):
        return u[idx]

    event.terminal = True
    event.direction = 0
    return event


def _rk4_step(rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Stalled(Exception):
    """Internal control-flow signal; converted to IntegrationStallError."""


class _Integrator:
    """Mutable state of one event-driven integration run."""

    def __init__(
        self,
        field: FieldWithSigns,
        s0,
        t_span: Tuple[float, float],
        *,
        rtol: float,
        atol: float,
        max_events: int,
        max_step: Optional[float],
        epsilon: float,
    ):
        self.field = field
        self.t0, self.t1 = float(t_span[0]), float(t_span[1])
        self.direction = 1.0 if self.t1 >= self.t0 else -1.0
        self.rtol = rtol
        self.atol = atol
        self.max_events = max_events
        self.max_step = np.inf if max_step is None else float(max_step)
        self.epsilon = epsilon

        self.state = np.array(s0, dtype=float)
        if self.state.shape != (4,):
            raise DomainError("state must have four components (x, y, z, w)")
        for srf in SURFACES:
            if abs(self.state[srf.index]) <= EVENT_STATE_TOL:
                self.state[srf.index] = 0.0
        self.s_initial = np.array(self.state, dtype=float)
        self.t = self.t0
        self.segments: List[Segment] = []
        self.events: List[EventRecord] = []
        self.signs = [float(np.sign(self.state[0])), float(np.sign(self.state[2]))]
        self.sliding_on: Optional[int] = None
        self.finished = False
        self._tiny_run = 0
        self._last_event_time: Optional[float] = None

    # -- bookkeeping -----------------------------------------------------

    def _record(self, t: float, state: np.ndarray, k: int, cls: SurfaceClassification, corner: bool):
        if len(self.events) >= self.max_events:
            raise _Stalled(f"event budget of {self.max_events} exhausted")
        if self._last_event_time is not None and abs(t - self._last_event_time) <= STALL_DT:
            self._tiny_run += 1
            if self._tiny_run >= STALL_RUN:
                raise _Stalled(
                    f"{STALL_RUN} consecutive events within {STALL_DT} time units"
                )
        else:
            self._tiny_run = 0
        self._last_event_time = t
        self.events.append(
            EventRecord(
                time=float(t),
                state=np.array(state, dtype=float),
                surface=SURFACES[k].id,
                classification=cls,
                corner=corner,
            )
        )

    def _remaining(self) -> float:
        return (self.t1 - self.t) * self.direction

    def _trajectory(self) -> Trajectory:
        return Trajectory(
            segments=self.segments,
            events=self.events,
            epsilon=self.epsilon,
            t_span=(self.t0, self.t1),
            initial_state=np.array(self.s_initial, dtype=float),
        )

    # -- event resolution --------------------------------------------------

    def _resolve_contacts(self, ks: Sequence[int]):
        """Classify each touched surface and update the region signs."""
        corner = len(ks) > 1
        point_signs = _point_signs(self.state)
        sliding_hits = []
        for k in ks:
            if self.finished:
                break
            cls = classify_surface_contact(self.field, self.t, self.state, point_signs, k)
            self._record(self.t, self.state, k, cls, corner)
            if cls.kind == "crossing":
                self.signs[k] = self.direction * float(np.sign(cls.lie_plus))
            elif cls.kind in ("sliding", "escaping"):
                sliding_hits.append(k)
            else:
                self._resolve_tangency(k)
        if len(sliding_hits) > 1:
            raise TangencyError(
                "simultaneous sliding on both surfaces (codimension two) is unsupported"
            )
        if sliding_hits and not self.finished:
            k = sliding_hits[0]
            self.signs[k] = 0.0
            self.sliding_on = k

    def _resolve_tangency(self, k: int):
        """Decide the outgoing side at a tangential contact.

        The level behaves like ½·g″·Δt² around the contact, so the sign
        of g″, measured on the in-surface field (sgn = 0), fixes the
        side on which the trajectory continues.  A persistent tangency
        with a nonzero field cannot be continued; a vanishing field is
        an equilibrium and the trajectory stays put.
        """
        srf = SURFACES[k]
        signs0 = list(self.signs)
        signs0[k] = 0.0
        f0 = self.field(self.t, self.state, tuple(signs0))
        h = 1e-6 * self.direction * max(1.0, abs(self.t))
        f1 = self.field(self.t + h, self.state + h * f0, tuple(signs0))
        dlie = (lie_derivative(f1, srf) - lie_derivative(f0, srf)) / h
        if abs(dlie) <= LIE_TOL:
            if float(np.linalg.norm(f0)) <= EQUILIBRIUM_FIELD_TOL:
                self.signs[k] = 0.0
                self._settle_constant()
                return
            raise TangencyError(
                f"persistent tangency with surface {srf.id} at t = {self.t:.6g}: "
                "the contact neither crosses nor resolves"
            )
        self.signs[k] = float(np.sign(dlie))

    def _settle_constant(self):
        """Rest at an equilibrium on the discontinuity set until t1."""
        self.segments.append(
            Segment(
                t_start=self.t,
                t_end=self.t1,
                sol=None,
                ts=np.array([self.t, self.t1]),
                signs=tuple(self.signs),
                sliding_surface=None,
                constant_state=np.array(self.state, dtype=float),
            )
        )
        self.t = self.t1
        self.finished = True

    def _depart_surface(self) -> Tuple[float, np.ndarray]:
        """Micro-step off the surfaces so restarted levels have strict signs.

        A first-order step suffices after a transversal crossing; after
        a tangency or a sliding exit the level leaves quadratically, so
        the step size escalates until every departed level shows the
        sign selected by the event resolution.
        """
        targets = [
            k
            for k in range(2)
            if self.state[SURFACES[k].index] == 0.0 and self.signs[k] != 0.0
        ]
        if not targets:
            return self.t, np.array(self.state, dtype=float)
        rhs_signs = tuple(self.signs)

        def rhs(tt, u):
            return self.field(tt, u, rhs_signs)

        remaining = self._remaining()
        for h_mag in _RESTART_STEPS:
            if h_mag > 0.5 * remaining:
                break
            h = h_mag * self.direction
            trial = _rk4_step(rhs, self.t, np.array(self.state, dtype=float), h)
            if all(np.sign(trial[SURFACES[k].index]) == self.signs[k] for k in targets):
                return self.t + h, trial
        if remaining <= 2.0 * _RESTART_STEPS[-1]:
            self._settle_constant()
            return self.t1, np.array(self.state, dtype=float)
        raise _Stalled("unable to leave the switching surface after an event")

    # -- smooth advance ------------------------------------------------------

    def _advance_smooth(self):
        t_run, s_run = self._depart_surface()
        if self.finished:
            return
        rhs_signs = tuple(self.signs)

        def rhs(tt, u):
            return self.field(tt, u, rhs_signs)

        events = [_make_level_event(srf.index) for srf in SURFACES]
        sol = solve_ivp(
            rhs,
            (t_run, self.t1),
            s_run,
            method="RK45",
            dense_output=True,
            events=events,
            rtol=self.rtol,
            atol=self.atol,
            max_step=self.max_step,
        )
        if sol.status == -1:
            raise _Stalled(f"step-size failure of the smooth solver: {sol.message}")
        te = float(sol.t[-1])
        state_e = np.asarray(sol.sol(te), dtype=float)
        self.segments.append(
            Segment(
                t_start=self.t,
                t_end=te,
                sol=sol.sol,
                ts=np.asarray(sol.t, dtype=float),
                signs=rhs_signs,
                sliding_surface=None,
            )
        )
        if sol.status == 0:
            self.t = te
            self.state = state_e
            self.finished = True
            return

        touched = [
            k
            for k in range(2)
            if len(sol.t_events[k]) and abs(float(sol.t_events[k][-1]) - te) <= CORNER_TIME_TOL
        ]
        for k in range(2):
            if k not in touched and abs(state_e[SURFACES[k].index]) <= EVENT_STATE_TOL:
                touched.append(k)
        for k in touched:
            state_e[SURFACES[k].index] = 0.0
        self.t = te
        self.state = state_e
        self._resolve_contacts(sorted(touched))

    # -- sliding advance -------------------------------------------------------

    def _advance_sliding(self):
        k = self.sliding_on
        assert k is not None
        srf = SURFACES[k]
        other = 1 - k
        base_signs = tuple(self.signs)

        def rhs(tt, u):
            return sliding_combination(self.field, tt, u, base_signs, k)

        def lie_minus_event(tt, u):
            minus_val, _ = _one_sided_values(self.field, tt, u, base_signs, k)
            return lie_derivative(minus_val, srf)

        def lie_plus_event(tt, u):
            _, plus_val = _one_sided_values(self.field, tt, u, base_signs, k)
            return lie_derivative(plus_val, srf)

        lie_minus_event.terminal = True
        lie_minus_event.direction = 0
        lie_plus_event.terminal = True
        lie_plus_event.direction = 0
        events = [lie_minus_event, lie_plus_event, _make_level_event(SURFACES[other].index)]

        sol = solve_ivp(
            rhs,
            (self.t, self.t1),
            np.array(self.state, dtype=float),
            method="RK45",
            dense_output=True,
            events=events,
            rtol=self.rtol,
            atol=self.atol,
            max_step=self.max_step,
        )
        if sol.status == -1:
            raise _Stalled(f"step-size failure of the sliding solver: {sol.message}")
        te = float(sol.t[-1])
        state_e = np.asarray(sol.sol(te), dtype=float)
        state_e[srf.index] = 0.0
        self.segments.append(
            Segment(
                t_start=self.t,
                t_end=te,
                sol=sol.sol,
                ts=np.asarray(sol.t, dtype=float),
                signs=base_signs,
                sliding_surface=srf.id,
            )
        )
        self.t = te
        self.state = state_e
        if sol.status == 0:
            self.finished = True
            return

        hit_minus = bool(len(sol.t_events[0])) and abs(float(sol.t_events[0][-1]) - te) <= CORNER_TIME_TOL
        hit_plus = bool(len(sol.t_events[1])) and abs(float(sol.t_events[1][-1]) - te) <= CORNER_TIME_TOL
        hit_other = bool(len(sol.t_events[2])) and abs(float(sol.t_events[2][-1]) - te) <= CORNER_TIME_TOL
        if hit_minus and hit_plus:
            raise _Stalled("both one-sided level derivatives vanished while sliding")
        if hit_minus or hit_plus:
            cls = classify_surface_contact(self.field, te, state_e, _point_signs(state_e), k)
            self._record(te, state_e, k, cls, corner=False)
            self.sliding_on = None
            # The side whose level derivative reached zero releases the
            # trajectory into its region.
            self.signs[k] = -1.0 if hit_minus else 1.0
        if hit_other:
            state_e[SURFACES[other].index] = 0.0
            self.state = state_e
            cls = classify_surface_contact(self.field, te, state_e, _point_signs(state_e), other)
            self._record(te, state_e, other, cls, corner=False)
            if cls.kind == "crossing":
                self.signs[other] = self.direction * float(np.sign(cls.lie_plus))
            elif cls.kind in ("sliding", "escaping"):
                raise TangencyError(
                    "simultaneous sliding on both surfaces (codimension two) is unsupported"
                )
            else:
                self._resolve_tangency(other)

    # -- main loop -----------------------------------------------------------

    def run(self) -> Trajectory:
        if self._remaining() <= EVENT_TIME_TOL:
            return self._trajectory()
        initial_contacts = [k for k in range(2) if self.state[SURFACES[k].index] == 0.0]
        try:
            if initial_contacts:
                self._resolve_contacts(initial_contacts)
            while not self.finished and self._remaining() > EVENT_TIME_TOL:
                if self.sliding_on is not None:
                    self._advance_sliding()
                else:
                    self._advance_smooth()
        except _Stalled as exc:
            raise IntegrationStallError(
                f"integration stalled at t = {self.t:.6g}: {exc}",
                trajectory=self._trajectory(),
            ) from None
        return self._trajectory()


def integrate_field(
    field: FieldWithSigns,
    s0,
    t_span: Tuple[float, float],
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    max_events: int = DEFAULT_MAX_EVENTS,
    max_step: Optional[float] = None,
    epsilon: float = 0.0,
) -> Trajectory:
    """Integrate a field with explicit region signs through the surfaces.

    ``field(t, state, (sgn_x, sgn_z))`` must be smooth for frozen signs.
    Events on ``x = 0`` and ``z = 0`` are bracketed on the dense output
    and located to a time tolerance below 1e-12, classified through the
    one-sided level derivatives, and resolved by region switching,
    sliding, or tangency curvature.  Initial states on a surface are
    classified and resolved before the first segment.
    """
    integ = _Integrator(
        field,
        s0,
        t_span,
        rtol=rtol,
        atol=atol,
        max_events=max_events,
        max_step=max_step,
        epsilon=epsilon,
    )
    return integ.run()


def integrate(
    spec: PerturbationSpec,
    reduced: ReducedParams,
    spectral: SpectralData,
    eps: float,
    s0,
    t_span: Tuple[float, float],
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    max_events: int = DEFAULT_MAX_EVENTS,
    max_step: Optional[float] = None,
) -> Trajectory:
    """Event-driven trajectory of the perturbed reduced system."""
    if max_step is None:
        max_step = min(spectral.period1, spectral.period2) / 16.0
    field = d1_field(spec, reduced, eps)
    return integrate_field(
        field,
        s0,
        t_span,
        rtol=rtol,
        atol=atol,
        max_events=max_events,
        max_step=max_step,
        epsilon=eps,
    )


def integrate_regularized(
    spec: PerturbationSpec,
    reduced: ReducedParams,
    spectral: SpectralData,
    eps: float,
    delta: float,
    s0,
    t_span: Tuple[float, float],
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Trajectory:
    """Single smooth integration with sgn replaced by its C¹ spline.

    No events are generated; the result carries one segment covering the
    whole span.
    """
    if delta <= 0.0:
        raise DomainError(f"regularization width must be positive, got {delta}")
    field = d1_field(spec, reduced, eps)

    def rhs(t, state):
        return field(t, state, (smooth_sign(state[0], delta), smooth_sign(state[2], delta)))

    max_step = min(spectral.period1, spectral.period2) / 16.0
    sol = solve_ivp(
        rhs,
        (float(t_span[0]), float(t_span[1])),
        np.array(s0, dtype=float),
        method="RK45",
        dense_output=True,
        rtol=rtol,
        atol=atol,
        max_step=max_step,
    )
    if sol.status != 0:
        raise IntegrationStallError(f"regularized integration failed: {sol.message}")
    segment = Segment(
        t_start=float(t_span[0]),
        t_end=float(t_span[1]),
        sol=sol.sol,
        ts=np.asarray(sol.t, dtype=float),
        signs=(np.nan, np.nan),
        sliding_surface=None,
    )
    return Trajectory(
        segments=[segment],
        events=[],
        epsilon=eps,
        t_span=(float(t_span[0]), float(t_span[1])),
        initial_state=np.array(s0, dtype=float),
    )


def crossing_hypothesis_check(traj: Trajectory) -> CrossingReport:
    """Verify that every recorded event is a transversal crossing.

    The margin is the closest approach to the tangency set: the minimum
    of |y| over contacts with x = 0 and |w| over contacts with z = 0.
    """
    margin = np.inf
    offenders = []
    n_crossing = 0
    for i, ev in enumerate(traj.events):
        velocity_index = 1 if ev.surface == 1 else 3
        margin = min(margin, abs(float(ev.state[velocity_index])))
        if ev.kind == "crossing":
            n_crossing += 1
        else:
            offenders.append(i)
    n_events = len(traj.events)
    return CrossingReport(
        ok=not offenders,
        margin=float(margin) if n_events else np.inf,
        n_events=n_events,
        n_crossing=n_crossing,
        n_other=n_events - n_crossing,
        offenders=tuple(offenders),
    )


def require_transversal_crossings(traj: Trajectory) -> CrossingReport:
    """Crossing check that raises when a non-crossing contact occurred."""
    report = crossing_hypothesis_check(traj)
    if not report.ok:
        kinds = sorted({traj.events[i].kind for i in report.offenders})
        raise CrossingViolationError(
            f"{len(report.offenders)} of {report.n_events} surface contacts are not "
            f"transversal crossings (kinds: {', '.join(kinds)})",
            events=[traj.events[i] for i in report.offenders],
        )
    return report


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """Write accepted integration steps as t,x,y,z,w,segment_id rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z,w,segment_id\n")
        for seg_id, seg in enumerate(traj.segments):
            for t in seg.ts:
                s = seg.state_at(float(t))
                fields = [format(float(v), ".17g") for v in (t, *s)]
                fh.write(",".join(fields) + f",{seg_id}\n")


def export_events_csv(traj: Trajectory, path) -> None:
    """Write the event log as t,surface,kind,lie_minus,lie_plus rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,surface,kind,lie_minus,lie_plus\n")
        for ev in traj.events:
            fh.write(
                ",".join(
                    [
                        format(ev.time, ".17g"),
                        str(ev.surface),
                        ev.kind,
                        format(ev.classification.lie_minus, ".17g"),
                        format(ev.classification.lie_plus, ".17g"),
                    ]
                )
                + "\n"
            )
