"""Event-driven integration of piecewise-smooth planar-pendulum fields.

The discontinuity set is the union of the two coordinate hyperplanes
``x = 0`` (surface 1, state index 0) and ``z = 0`` (surface 2, state
index 2); surface k + 1 is the level of state index 2k.  The trajectory
is a chain of segments, each integrated by the same step: leave the
surfaces the last event put the state on, integrate to the next
terminal event, append the segment.  A segment either follows the field
with frozen region signs until a level crosses zero, or slides on one
surface along the tangent convex combination of the one-sided fields
(Filippov 1988) until a one-sided level derivative vanishes or the
other level crosses zero.

Segments are integrated with DOP853, the adaptive 8(5,3) Dormand–Prince
pair (Hairer, Nørsett & Wanner, *Solving Ordinary Differential
Equations I*, §II.10), and events are located on its dense output.  The
solver is the in-package port :mod:`pendavg.dop853` of SciPy's
``solve_ivp(method="DOP853")``, so integrating loads no SciPy.  The level
events x = 0 and z = 0 are passed as the state indices 0 and 2, so their
roots are found on that one component of the dense output; the release
events of a sliding segment are callables of the one-sided fields.

Every surface contact goes through one resolver, which classifies it
through the one-sided Lie derivatives and switches the region sign
(crossing), starts a sliding segment (sliding or escaping), or resolves
it through the curvature of the level (tangency).  Sliding on both
surfaces at once (codimension two) is refused.

On request the run also carries the monodromy Φ = ∂s(t)/∂s(t₀), the
derivative of the flow map that shooting needs.  With the region signs
frozen the field is affine, f = M_σ(τ)·s + c_σ(τ), and each segment builds
M_σ and c_σ once (one precomputed matrix when the forcing's coefficients
are constant); Φ′ = M_σ·Φ then rides along with the state as one matrix
product per stage, in the same DOP853 call.  The local error test sees
only the state, so the steps stay those of the plain run.  At each
transversal crossing of surface k + 1, Φ is multiplied by the saltation
matrix S = I + (f⁺ − f⁻)·e_{2k}ᵀ / f⁻[2k], with f⁻ and f⁺ the fields
before and after the crossing (di Bernardo, Budd, Champneys & Kowalczyk,
*Piecewise-smooth Dynamical Systems*, 2008, ch. 2).  Crossing both
surfaces at once applies both matrices, provided the two crossing orders
agree.  A sliding, escaping or tangent contact, or a corner where the
orders disagree, leaves the flow map without a derivative to carry: Φ
is dropped there, the run goes on, and the trajectory says why it
carries no monodromy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dop853 import solve
from .errors import (
    CrossingViolationError,
    DegenerateSlidingError,
    DomainError,
    IntegrationStallError,
    TangencyError,
)
from .model import ReducedParams, SpectralData, linearization_matrix
from .perturbation import PerturbationSpec, PeriodicArray, eval_order1_with_signs, smooth_sign

# Tolerances of the event machinery.
EVENT_TIME_TOL = 1e-12
EVENT_STATE_TOL = 1e-11
LIE_TOL = 1e-10
SLIDING_DENOM_TOL = 1e-12
EQUILIBRIUM_FIELD_TOL = 1e-12
# Largest relative difference of the two crossing orders at a corner.
CORNER_SALTATION_RTOL = 1e-10
STALL_DT = 1e-12
STALL_RUN = 50
DEFAULT_MAX_EVENTS = 100_000
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# Escalating micro-step sizes used to leave a surface after an event.
_RESTART_STEPS = (1e-12, 1e-10, 1e-8, 1e-6)

_KINDS = ("crossing", "sliding", "escaping", "tangent")


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

    ``states[i]`` is the state (x, y, z, w) at ``ts[i]``: the solver's
    state at each accepted step and, last, at the terminal event.  A
    segment resting at an equilibrium on the discontinuity set is two
    equal rows.  ``signs`` are the region signs used for the sgn
    arguments; a 0 entry marks motion inside the corresponding surface.
    """

    t_start: float
    t_end: float
    ts: np.ndarray
    states: np.ndarray
    signs: Tuple[float, float]
    sliding_surface: Optional[int] = None


@dataclass
class Trajectory:
    """Piecewise-smooth trajectory with its classified event log.

    ``monodromy`` is ∂(final state)/∂(initial state) when the run was
    asked for it and met only transversal crossings; otherwise it is None
    and, where a contact ended the request, ``monodromy_reason`` names it.
    """

    segments: List[Segment]
    events: List[EventRecord]
    t_span: Tuple[float, float]
    initial_state: np.ndarray
    monodromy: Optional[np.ndarray] = None
    monodromy_reason: Optional[str] = None

    @property
    def final_time(self) -> float:
        if not self.segments:
            return self.t_span[0]
        return self.segments[-1].t_end

    @property
    def final_state(self) -> np.ndarray:
        if not self.segments:
            return np.array(self.initial_state, dtype=float)
        return np.array(self.segments[-1].states[-1])


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

    Calling it evaluates the forcing for any signs (contacts, sliding, the
    regularized run).  ``field.frozen(signs)`` is its affine form for
    frozen signs, f = M_σ(τ)·s + c_σ(τ), as the periodic arrays
    M_σ = A + ε·R_σ and c_σ = ε·k_σ (R_σ, k_σ from ``spec.frozen``), on
    which segments and the monodromy run.
    """
    a = reduced.a
    b = reduced.b
    linear = linearization_matrix(reduced)

    def field(t: float, state: np.ndarray, signs: Tuple[float, float]) -> np.ndarray:
        x, y, z, w = state
        f_y, f_w = eval_order1_with_signs(spec, t, state, signs[0], signs[1])
        dy = -a * x + z + eps * f_y
        dw = b * x - b * z + eps * f_w
        return np.array([y, dy, w, dw], dtype=float)

    def frozen(signs: Tuple[float, float]) -> Tuple[PeriodicArray, PeriodicArray]:
        rows, consts = spec.frozen(signs[0], signs[1])
        return rows.embedded(linear, (1, 3), eps), consts.embedded(np.zeros(4), (1, 3), eps)

    field.frozen = frozen
    return field


def segment_rhs(field: FieldWithSigns, signs: Tuple[float, float],
                monodromy: bool = False) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side of a segment with frozen region signs ``signs``.

    A field with an affine form ``field.frozen`` (as from :func:`d1_field`)
    runs on it, built once here: M_σ·s + c_σ or, with ``monodromy``, over
    u = [s | Φ] with Φ stored column by column, so u.reshape(5, 4) holds s
    and the columns of Φ as rows and u′ is the one product
    u.reshape(5, 4)·M_σᵀ plus c_σ on the state row.  Any other field is
    called as given and carries no monodromy: asking for one raises
    DomainError.
    """
    frozen = getattr(field, "frozen", None)
    if frozen is None:
        if monodromy:
            raise DomainError("a monodromy needs the field's affine form field.frozen(signs)")
        return lambda t, u: field(t, u, signs)
    matrix, offset = frozen(signs)
    if not monodromy:
        return lambda t, u: matrix(t).dot(u) + offset(t)

    def rhs(t, u):
        du = u.reshape(5, 4).dot(matrix(t).T)
        du[0] += offset(t)
        return du.ravel()

    return rhs


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
    """Contact kind of the flow with surface k + 1 at a state on it.

    ``signs`` supplies the region sign of the other surface; the one of
    surface k + 1 is replaced by ±1 for the two one-sided fields.
    """
    minus_val, plus_val = _one_sided_values(field, t, state, signs, k)
    return classify_values(float(minus_val[2 * k]), float(plus_val[2 * k]))


def _point_signs(state: np.ndarray) -> Tuple[float, float]:
    return (float(np.sign(state[0])), float(np.sign(state[2])))


def sliding_combination(
    field: FieldWithSigns,
    t: float,
    state: np.ndarray,
    signs: Sequence[float],
    k: int,
) -> np.ndarray:
    """Convex combination of the one-sided fields tangent to surface k + 1."""
    minus_val, plus_val = _one_sided_values(field, t, state, signs, k)
    lie_minus = float(minus_val[2 * k])
    lie_plus = float(plus_val[2 * k])
    denom = lie_plus - lie_minus
    if abs(denom) <= SLIDING_DENOM_TOL:
        raise DegenerateSlidingError(
            "one-sided level derivatives coincide; the sliding combination "
            f"is undefined (lie- = {lie_minus:.3e}, lie+ = {lie_plus:.3e})"
        )
    return (lie_plus * minus_val - lie_minus * plus_val) / denom


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
        monodromy: bool = False,
    ):
        self.field = field
        self.t0, self.t1 = float(t_span[0]), float(t_span[1])
        self.direction = 1.0 if self.t1 >= self.t0 else -1.0
        self.rtol = rtol
        self.atol = atol
        self.max_events = max_events
        self.max_step = np.inf if max_step is None else float(max_step)

        self.state = np.array(s0, dtype=float)
        if self.state.shape != (4,):
            raise DomainError("state must have four components (x, y, z, w)")
        for idx in (0, 2):
            if abs(self.state[idx]) <= EVENT_STATE_TOL:
                self.state[idx] = 0.0
        self.s_initial = np.array(self.state, dtype=float)
        self.t = self.t0
        self.segments: List[Segment] = []
        self.events: List[EventRecord] = []
        self.signs = list(_point_signs(self.state))
        self.sliding_on: Optional[int] = None
        # The monodromy so far; None when not requested or dropped.
        self.phi = np.eye(4) if monodromy else None
        self.monodromy_reason: Optional[str] = None
        self.finished = False
        self._tiny_run = 0
        self._last_event_time: Optional[float] = None

    # -- bookkeeping -----------------------------------------------------

    def _record(self, k: int, cls: SurfaceClassification, corner: bool):
        t = self.t
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
                state=np.array(self.state, dtype=float),
                surface=k + 1,
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
            t_span=(self.t0, self.t1),
            initial_state=np.array(self.s_initial, dtype=float),
            monodromy=None if self.phi is None else np.array(self.phi),
            monodromy_reason=self.monodromy_reason,
        )

    def _drop_monodromy(self, reason: str):
        """End the monodromy request at a contact it cannot pass."""
        if self.phi is not None:
            self.phi = None
            self.monodromy_reason = f"{reason} at t = {self.t:.6g}"

    # -- event resolution --------------------------------------------------

    def _resolve_contacts(self, ks: Sequence[int]):
        """Classify each touched surface and act on its contact kind.

        A crossing switches the region sign, a tangency is resolved by
        the curvature of the level, and a sliding (or escaping) contact
        starts a sliding segment on that surface, unless the trajectory
        would then slide on both surfaces at once.  Crossings carry the
        monodromy through their saltation matrix; any other contact drops
        it.
        """
        corner = len(ks) > 1
        point_signs = _point_signs(self.state)
        sliding_hits = []
        for k in ks:
            if self.finished:
                break
            cls = classify_surface_contact(self.field, self.t, self.state, point_signs, k)
            self._record(k, cls, corner)
            if cls.kind == "crossing":
                self.signs[k] = self.direction * float(np.sign(cls.lie_plus))
                continue
            self._drop_monodromy(f"{cls.kind} contact with surface {k + 1}")
            if cls.kind in ("sliding", "escaping"):
                sliding_hits.append(k)
            else:
                self._resolve_tangency(k)
        if self.phi is not None:
            self._cross_monodromy(ks)
        if len(sliding_hits) > 1 or (sliding_hits and self.sliding_on is not None):
            raise TangencyError(
                "simultaneous sliding on both surfaces (codimension two) is unsupported"
            )
        if sliding_hits and not self.finished:
            k = sliding_hits[0]
            self.signs[k] = 0.0
            self.sliding_on = k

    def _saltation(self, ks: Sequence[int]) -> np.ndarray:
        """Saltation matrix of crossing the surfaces ``ks`` in that order.

        Crossing surface k + 1 from field f⁻ to field f⁺ maps Φ to
        S·Φ with S = I + (f⁺ − f⁻)·e_{2k}ᵀ / f⁻[2k].  The crossings start
        from the region signs before the contact and end on the new ones.
        """
        signs = list(self.signs)
        for k in ks:
            signs[k] = -signs[k]
        f_in = self.field(self.t, self.state, tuple(signs))
        saltation = np.eye(4)
        for k in ks:
            signs[k] = self.signs[k]
            f_out = self.field(self.t, self.state, tuple(signs))
            step = np.eye(4)
            step[:, 2 * k] += (f_out - f_in) / f_in[2 * k]
            saltation = step @ saltation
            f_in = f_out
        return saltation

    def _cross_monodromy(self, ks: Sequence[int]):
        """Carry the monodromy through transversal crossings of ``ks``.

        At a corner the flow map is differentiable only if crossing the
        two surfaces in either order gives the same saltation matrix (as
        on the pendulum fields, where neither level derivative depends
        on a sign); otherwise the monodromy is dropped.
        """
        saltation = self._saltation(ks)
        if len(ks) > 1:
            other = self._saltation(ks[::-1])
            if np.linalg.norm(saltation - other) > CORNER_SALTATION_RTOL * np.linalg.norm(saltation):
                self._drop_monodromy("corner contact with both surfaces")
                return
        self.phi = saltation @ self.phi

    def _resolve_tangency(self, k: int):
        """Decide the outgoing side at a tangential contact.

        The level behaves like ½·g″·Δt² around the contact, so the sign
        of g″, measured on the in-surface field (sgn = 0), fixes the
        side on which the trajectory continues.  A persistent tangency
        with a nonzero field cannot be continued; a vanishing field is
        an equilibrium and the trajectory stays put.
        """
        signs0 = list(self.signs)
        signs0[k] = 0.0
        f0 = self.field(self.t, self.state, tuple(signs0))
        h = 1e-6 * self.direction * max(1.0, abs(self.t))
        f1 = self.field(self.t + h, self.state + h * f0, tuple(signs0))
        dlie = (float(f1[2 * k]) - float(f0[2 * k])) / h
        if abs(dlie) <= LIE_TOL:
            if float(np.linalg.norm(f0)) <= EQUILIBRIUM_FIELD_TOL:
                self.signs[k] = 0.0
                self._settle_constant()
                return
            raise TangencyError(
                f"persistent tangency with surface {k + 1} at t = {self.t:.6g}: "
                "the contact neither crosses nor resolves"
            )
        self.signs[k] = float(np.sign(dlie))

    def _release(self, k: int, minus_side: bool):
        """End sliding on surface k + 1 where a one-sided derivative vanished.

        The side whose level derivative reached zero releases the
        trajectory into its region.
        """
        cls = classify_surface_contact(self.field, self.t, self.state, _point_signs(self.state), k)
        self._record(k, cls, corner=False)
        self.sliding_on = None
        self.signs[k] = -1.0 if minus_side else 1.0

    def _settle_constant(self):
        """Rest at an equilibrium on the discontinuity set until t1."""
        self.segments.append(
            Segment(
                t_start=self.t,
                t_end=self.t1,
                ts=np.array([self.t, self.t1]),
                states=np.array([self.state, self.state]),
                signs=tuple(self.signs),
            )
        )
        self.t = self.t1
        self.finished = True

    def _depart_surface(self, rhs, u: np.ndarray) -> Tuple[float, np.ndarray]:
        """Micro-step off the surfaces so restarted levels have strict signs.

        Every surface the state sits on with a nonzero region sign is
        left along ``rhs``, the right-hand side of the coming segment, from
        ``u``: the state, followed by the flattened monodromy when one is
        carried (steps of up to 1e-6 are not negligible for it).  A
        first-order step suffices after a transversal crossing; after a
        tangency or a sliding exit the level leaves quadratically, so the
        step size escalates until every departed level shows the sign
        selected by the event resolution.
        """
        targets = [k for k in range(2) if self.state[2 * k] == 0.0 and self.signs[k] != 0.0]
        if not targets:
            return self.t, u
        remaining = self._remaining()
        for h_mag in _RESTART_STEPS:
            if h_mag > 0.5 * remaining:
                break
            h = h_mag * self.direction
            trial = _rk4_step(rhs, self.t, u, h)
            if all(np.sign(trial[2 * k]) == self.signs[k] for k in targets):
                return self.t + h, trial
        if remaining <= 2.0 * _RESTART_STEPS[-1]:
            self._settle_constant()
            return self.t1, u
        raise _Stalled("unable to leave the switching surface after an event")

    # -- segment step --------------------------------------------------------

    def _advance(self):
        """Integrate one segment up to its first terminal event.

        Off the surfaces the field runs with frozen region signs and
        stops where either level crosses zero.  Sliding on surface k + 1
        runs the tangent combination and stops where a one-sided level
        derivative vanishes (release) or the other level crosses zero.
        A carried monodromy rides along as components 4 to 19, left out
        of the error test.
        """
        signs = tuple(self.signs)
        k = self.sliding_on
        phi = self.phi
        if phi is None:
            u = np.array(self.state, dtype=float)
        else:
            u = np.concatenate((self.state, phi.T.ravel()))
        if k is None:
            rhs = segment_rhs(self.field, signs, phi is not None)
            events = [0, 2]
        else:
            def rhs(tt, u):
                return sliding_combination(self.field, tt, u, signs, k)

            def lie_event(side):
                return lambda tt, u: float(_one_sided_values(self.field, tt, u, signs, k)[side][2 * k])

            events = [lie_event(0), lie_event(1), 2 - 2 * k]

        t_run, u_run = self._depart_surface(rhs, u)
        if self.finished:
            return
        run = solve(
            rhs,
            (t_run, self.t1),
            u_run,
            rtol=self.rtol,
            atol=self.atol,
            max_step=self.max_step,
            events=events,
            n_tested=4,
        )
        if run.status == -1:
            raise _Stalled(f"step-size failure of the segment solver: {run.message}")
        te = float(run.ts[-1])
        states = run.ys
        if phi is not None:
            self.phi = states[-1, 4:].reshape(4, 4).T
            states = states[:, :4].copy()
        state_e = states[-1].copy()
        if k is not None:
            state_e[2 * k] = 0.0
        self.segments.append(
            Segment(
                t_start=self.t,
                t_end=te,
                ts=run.ts,
                states=states,
                signs=signs,
                sliding_surface=None if k is None else k + 1,
            )
        )
        self.t = te
        self.state = state_e
        if run.status == 0:
            self.finished = True
            return

        # Only the earliest event of a step is reported; the other level
        # counts as touched when the state sits on it.
        if k is None:
            touched = [j for j in range(2) if run.event == j or abs(state_e[2 * j]) <= EVENT_STATE_TOL]
        else:
            if run.event in (0, 1):
                self._release(k, minus_side=run.event == 0)
            touched = [1 - k] if run.event == 2 else []
        for j in touched:
            state_e[2 * j] = 0.0
        self._resolve_contacts(touched)

    # -- main loop -----------------------------------------------------------

    def run(self) -> Trajectory:
        if self._remaining() <= EVENT_TIME_TOL:
            return self._trajectory()
        initial_contacts = [k for k in range(2) if self.state[2 * k] == 0.0]
        try:
            if initial_contacts:
                self._resolve_contacts(initial_contacts)
            while not self.finished and self._remaining() > EVENT_TIME_TOL:
                self._advance()
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
    monodromy: bool = False,
) -> Trajectory:
    """Integrate a field with explicit region signs through the surfaces.

    ``field(t, state, (sgn_x, sgn_z))`` must be smooth for frozen signs.
    Events on ``x = 0`` and ``z = 0`` are bracketed on the dense output
    and located to a time tolerance below 1e-12, classified through the
    one-sided level derivatives, and resolved by region switching,
    sliding, or tangency curvature.  Initial states on a surface are
    classified and resolved before the first segment.  Segments run on
    :func:`segment_rhs`.  With ``monodromy`` the run also carries the
    monodromy (see the module docstring) into ``Trajectory.monodromy``;
    that needs the field's affine form ``field.frozen`` (see
    :func:`segment_rhs`).
    """
    integ = _Integrator(
        field, s0, t_span, rtol=rtol, atol=atol, max_events=max_events, max_step=max_step,
        monodromy=monodromy,
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
    monodromy: bool = False,
) -> Trajectory:
    """Event-driven trajectory of the perturbed reduced system.

    Steps are capped at a sixteenth of the shorter normal-mode period.
    With ``monodromy`` the run carries the monodromy of the flow map.
    """
    return integrate_field(
        d1_field(spec, reduced, eps),
        s0,
        t_span,
        rtol=rtol,
        atol=atol,
        max_events=max_events,
        max_step=min(spectral.period1, spectral.period2) / 16.0,
        monodromy=monodromy,
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
    run = solve(
        rhs,
        (float(t_span[0]), float(t_span[1])),
        np.array(s0, dtype=float),
        rtol=rtol,
        atol=atol,
        max_step=max_step,
    )
    if run.status != 0:
        raise IntegrationStallError(f"regularized integration failed: {run.message}")
    segment = Segment(
        t_start=float(t_span[0]),
        t_end=float(t_span[1]),
        ts=run.ts,
        states=run.ys,
        signs=(np.nan, np.nan),
    )
    return Trajectory(
        segments=[segment],
        events=[],
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
    """Write each segment's step times and states as t,x,y,z,w,segment_id rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z,w,segment_id\n")
        for seg_id, seg in enumerate(traj.segments):
            for t, s in zip(seg.ts, seg.states):
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
