"""Event-driven integration of piecewise-smooth planar-pendulum fields.

The discontinuity set is the union of the two coordinate hyperplanes
``x = 0`` (surface 1, state index 0) and ``z = 0`` (surface 2, state
index 2); surface k + 1 is the level of state index 2k.  The trajectory
is a chain of segments, each integrated by the same step: start at the
contact the last event ended on, integrate to the next terminal event,
append the segment.  A segment follows the field with frozen region
signs until a level crosses zero, or until the next knot of a table in
F_σ, where linear interpolation has a kink; a knot ends the segment and
nothing else.  A level that starts on its surface is tested as it leaves
it (see ``_Integrator._departures``).

With the region signs frozen the field is affine, f = M_σ(τ)·s + c_σ(τ):
a periodic 4×5 array F_σ = [M_σ | c_σ], the one thing the event loop
reads of a field.  Segments integrate it and contacts read its rows.
Where every τ-dependent term of F_σ is a cosine or a sine in column 4,
as on every builtin, the segment follows its exact flow
(:mod:`pendavg.expflow`) in steps of ``max_step``, the cap every run
gives.  Every other form runs on DOP853 under that cap, the adaptive
8(5,3) Dormand–Prince pair (Hairer, Nørsett & Wanner, *Solving Ordinary
Differential Equations I*, §II.10), in the in-package port
:mod:`pendavg.dop853` of SciPy's ``solve_ivp(method="DOP853")``.  Every
DOP853 run the package starts, the regularized run included, takes one
accuracy, ``RTOL`` = 1e-12 and ``ATOL`` = 1e-14, and no caller passes
another, so a trajectory is the same whichever command asked for it.
Either solver stops at the first root of the level x (state index 0) or
z (index 2).  The regularized run never freezes its signs, but the
forcing is affine in σ: it reads one array of plain and signed rows from
the pass that builds F_σ, and it too restarts DOP853 at the table knots.

The event loop, the monodromy and every trajectory work on Python
floats: states are tuples or lists, matrices tuples of rows.  Only
DOP853 computes on numpy arrays; it is imported, and numpy with it, when
the first segment needs it, and its times and states become lists where
:func:`_dop853` returns them.

Every field is second order, as the pendulum is, and the run checks it:
rows 0 and 2 of F_σ give the velocities y and w, and the acceleration,
row 2k + 1, depends on the sign σ_k of surface k + 1 alone.  So the rate
of level k, x′ = y on x = 0 or z′ = w on z = 0, is read from the state
and is one number on both sides: every contact is a crossing or a
tangency, the crossing region of Filippov's classification.  A nonzero
rate is a crossing and switches the region sign to the side it points
to; a vanishing one is a tangency, resolved by the level's curvature,
the acceleration of the in-surface field (σ_k = 0).

On request the run also carries the monodromy Φ = ∂s(t)/∂s(t₀), the
derivative of the flow map that shooting needs, by Φ′ = M_σ·Φ: the exact
flow moves it by exp(M_σ·h), and DOP853 carries it along with the state,
one matrix product per stage, outside its local error test, so the steps
stay those of the plain run.  At a crossing of surface k + 1 the
saltation matrix S = I + (f⁺ − f⁻)·e_{2k}ᵀ / f⁻[2k], with f⁻ and f⁺ the
fields before and after it (di Bernardo, Budd, Champneys & Kowalczyk,
*Piecewise-smooth Dynamical Systems*, 2008, ch. 2), has one off-diagonal
entry, the acceleration jump over the velocity: Φ's row 2k + 1 gains
that jump times its row 2k (Leine & Nijmeijer, 2004).  At a corner the
two crossings update two different rows, in either order alike.  A
tangent contact leaves the flow map without a derivative to carry: Φ is
dropped there, the run goes on, and the contact stays in the event log,
the first of the trajectory's ``offenders``.

The module writes no files: :mod:`pendavg.cli` formats and writes a
run's trajectory and event CSVs.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import expflow
from .errors import DEFAULT_MAX_EVENTS, CrossingViolationError, DomainError, IntegrationStallError
from .expflow import MAX_STEPS, Matrix, Solution
from .model import ReducedParams, SpectralData
from .perturbation import PerturbationSpec, PeriodicScalar, smooth_sign, table_knots

# Tolerances of the event machinery.
EVENT_TIME_TOL = 1e-12
EVENT_STATE_TOL = 1e-11
LIE_TOL = 1e-10
EQUILIBRIUM_FIELD_TOL = 1e-12
STALL_DT = 1e-12
STALL_RUN = 50
# The one accuracy of every DOP853 run the package starts.
RTOL = 1e-12
ATOL = 1e-14


class EventRecord(NamedTuple):
    """One surface contact: ``kind`` is ``"crossing"`` or ``"tangent"``,
    and ``rate`` is the level's rate there (x′ on surface 1, z′ on 2)."""

    time: float
    state: Tuple[float, ...]
    surface: int
    kind: str
    rate: float
    corner: bool = False


class Segment(NamedTuple):
    """A smooth piece of a trajectory.

    ``states[i]`` is the state (x, y, z, w) at ``ts[i]``: the solver's
    state at each accepted step and, last, at the terminal event or
    table knot.  A segment resting at an equilibrium on the discontinuity
    set is two equal rows.  ``signs`` are the region signs used for the
    sgn arguments; a 0 entry marks that equilibrium's surface.
    """

    ts: Sequence[float]
    states: Sequence[Sequence[float]]
    signs: Tuple[float, float]


class Trajectory(NamedTuple):
    """Piecewise-smooth trajectory with its event log, which judges its
    own contacts against the crossing region.

    ``offenders`` are the indices of the events that are not transversal
    crossings, and ``margin`` is the closest approach to the tangency
    set.  ``monodromy`` is ∂(final state)/∂(initial state) when the run
    was asked for it and met only transversal crossings; otherwise it is
    None, and the tangent contact that ended the request is the first of
    the ``offenders``.
    """

    segments: List[Segment]
    events: List[EventRecord]
    t_span: Tuple[float, float]
    initial_state: Tuple[float, ...]
    monodromy: Optional[Matrix] = None

    @property
    def final_state(self) -> Tuple[float, ...]:
        if not self.segments:
            return tuple(self.initial_state)
        return tuple(self.segments[-1].states[-1])

    @property
    def offenders(self) -> Tuple[int, ...]:
        """Indices of the events whose kind is not ``"crossing"``."""
        return tuple(i for i, ev in enumerate(self.events) if ev.kind != "crossing")

    @property
    def margin(self) -> float:
        """The least |y| over contacts with x = 0 and |w| over contacts
        with z = 0; inf without contacts."""
        margin = math.inf
        for ev in self.events:
            margin = min(margin, abs(ev.state[1 if ev.surface == 1 else 3]))
        return margin


class PeriodicArray(NamedTuple):
    """A matrix of sums of periodic scalars: ``constant``, a tuple of rows,
    plus, for each of ``terms`` ((i, j), factor, scalar), factor·scalar(τ)
    at row i, column j."""

    constant: tuple
    terms: Tuple[Tuple[Tuple[int, int], float, PeriodicScalar], ...] = ()

    def __call__(self, tau: float):
        """The matrix at a scalar τ, as a new list of rows."""
        out = [list(row) for row in self.constant]
        for (i, j), factor, scalar in self.terms:
            out[i][j] += factor * scalar(tau)
        return out


Field = Callable[[Tuple[float, float]], PeriodicArray]


def d1_field(spec: PerturbationSpec, reduced: ReducedParams, eps: float) -> Field:
    """The reduced system

    x' = y,   y' = -a x + z + ε f_y(τ, state; σ)
    z' = w,   w' = b x - b z + ε f_w(τ, state; σ)

    as the field :func:`integrate_field` takes: σ ↦ F_σ = [M_σ | c_σ], one
    periodic 4×5 array over (x, y, z, w, 1) built by :func:`_table_array`
    in one pass over the spec's table P.  Rows 0 and 2 are A's with c = 0,
    and rows 1 and 3 are A + ε·(P[i, 0] + σ_i·P[i, 1]), each τ-term skipped
    where σ_i = 0.  Each σ's array is built once and kept.
    """
    @cache
    def field(signs: Tuple[float, float]) -> PeriodicArray:
        return _table_array(spec, reduced, eps, ((1, 1.0), (1, float(signs[0])), (3, 1.0), (3, float(signs[1]))))

    return field


def _table_array(spec: PerturbationSpec, reduced: ReducedParams, eps: float, places) -> PeriodicArray:
    """The pendulum's rows [A | 0] over (x, y, z, w, 1), stated here alone,
    and zero rows up to the last row in ``places``, plus ε times the table
    P: entry ((i, part, j), value, scalar) adds value·weight at row r,
    column j, for (r, weight) = ``places[2i + part]``.  Constants are summed
    in table order from 0.0, then scaled by ε; a τ-term whose value·weight
    is 0 is skipped."""
    a, b = reduced.a, reduced.b
    rows = [(0.0, 1.0, 0.0, 0.0, 0.0), (-a, 0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, 0.0), (b, 0.0, -b, 0.0, 0.0)]
    rows += [(0.0,) * 5] * (max(r for r, _ in places) - 3)
    sums = {r: [0.0] * 5 for r, _ in places}
    terms = []
    for (i, part, j), value, scalar in spec.table:
        r, weight = places[2 * i + part]
        factor = value * weight
        if scalar is None:
            sums[r][j] += factor
        elif factor != 0.0:
            terms.append(((r, j), eps * factor, scalar))
    constant = tuple(tuple(x + eps * c for x, c in zip(row, sums[r])) if r in sums else row
                     for r, row in enumerate(rows))
    return PeriodicArray(constant, tuple(terms))


def _affine_rhs(form: PeriodicArray) -> Callable[[float, Sequence[float]], List[float]]:
    """The segment's right-hand side on the affine form ``form`` = [M_σ | c_σ]:
    each row m0..m3, c gives m0·x + m1·y + m2·z + m3·w + c.  When u
    carries Φ after the state, stored column by column, each further
    block of four is a column of Φ and gets M_σ times it."""
    def rhs(t, u):
        rows = form(t)
        x, y, z, w = u[:4]
        du = [m0 * x + m1 * y + m2 * z + m3 * w + c for m0, m1, m2, m3, c in rows]
        for b in range(4, len(u), 4):
            x, y, z, w = u[b:b + 4]
            du += [m0 * x + m1 * y + m2 * z + m3 * w for m0, m1, m2, m3, _ in rows]
        return du

    return rhs


def _sign(x: float) -> float:
    """np.sign of a float: ±1.0, 0.0 at ±0.0 and NaN at NaN (x − x)."""
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else x - x


class _Integrator:
    """Mutable state of one event-driven integration run."""

    def __init__(
        self,
        field: Field,
        s0,
        t_span: Tuple[float, float],
        *,
        knots: Sequence[float],
        max_events: int,
        max_step: float,
        monodromy: bool = False,
    ):
        self.field = field
        self.t0, self.t1 = float(t_span[0]), float(t_span[1])
        self.direction = 1.0 if self.t1 >= self.t0 else -1.0
        self.max_events = max_events
        self.max_step = max_step

        self.state = [float(v) for v in s0]
        if len(self.state) != 4:
            raise DomainError("state must have four components (x, y, z, w)")
        for idx in (0, 2):
            if abs(self.state[idx]) <= EVENT_STATE_TOL:
                self.state[idx] = 0.0
        self.s_initial = tuple(self.state)
        self.t = self.t0
        self.segments: List[Segment] = []
        self.events: List[EventRecord] = []
        self.signs = [_sign(self.state[0]), _sign(self.state[2])]
        # Table knots inside the span still ahead of the run, the next last.
        self.knots = sorted(knots, reverse=self.direction > 0)
        # The monodromy so far; None when not requested or dropped.
        self.phi = _eye(4) if monodromy else None
        # Per level, the order of the contact the state sits on, else None.
        self.orders: List[Optional[int]] = [None, None]
        self.finished = False
        self._tiny_run = 0
        self._last_event_time: Optional[float] = None

    # -- bookkeeping -----------------------------------------------------

    def _record(self, k: int, kind: str, rate: float, corner: bool):
        t = self.t
        if len(self.events) >= self.max_events:
            raise self._stall(f"event budget of {self.max_events} exhausted")
        if self._last_event_time is not None and abs(t - self._last_event_time) <= STALL_DT:
            self._tiny_run += 1
            if self._tiny_run >= STALL_RUN:
                raise self._stall(f"{STALL_RUN} consecutive events within {STALL_DT} time units")
        else:
            self._tiny_run = 0
        self._last_event_time = t
        self.events.append(
            EventRecord(
                time=float(t),
                state=tuple(self.state),
                surface=k + 1,
                kind=kind,
                rate=rate,
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
            initial_state=self.s_initial,
            monodromy=self.phi,
        )

    def _stall(self, reason: str) -> IntegrationStallError:
        """The error that stops the run here, with its steps so far."""
        return IntegrationStallError(f"integration stalled at t = {self.t:.6g}: {reason}",
                                     trajectory=self._trajectory())

    # -- event resolution --------------------------------------------------

    def _resolve_contacts(self, ks: Sequence[int]):
        """Read each touched surface's rate and act on it.

        By the contract of :func:`integrate_field` the rate of surface
        k + 1 is the velocity, state index 2k + 1, on both sides.  Outside
        the band ``LIE_TOL`` the contact is a crossing: the region sign
        switches to the side the rate points to, and the monodromy crosses
        with it.  Inside it the contact is a tangency, resolved by the
        curvature of the level, and the monodromy is dropped.  Both read
        the rows of F_σ, the segments' own, at the contact.
        """
        corner = len(ks) > 1
        for k in ks:
            if self.finished:
                break
            rate = self.state[2 * k + 1]
            if abs(rate) <= LIE_TOL:
                self._record(k, "tangent", rate, corner)
                self.phi = None
                self.orders[k] = 2
                self._resolve_tangency(k)
            else:
                self._record(k, "crossing", rate, corner)
                self.orders[k] = 1
                self.signs[k] = self.direction * _sign(rate)
        if self.phi is not None:
            self._cross_monodromy(ks)

    def _rates(self, signs: Sequence[float]) -> List[float]:
        """The field F_σ of the signs ``signs`` at the run's time and state."""
        return _affine_rhs(self.field(tuple(signs)))(self.t, self.state)

    def _cross_monodromy(self, ks: Sequence[int]):
        """Carry the monodromy through the crossings of the surfaces ``ks``.

        Crossing surface k + 1 from f⁻ to f⁺, the rows of F_σ before and
        after it, changes only the acceleration 2k + 1, so its saltation
        matrix is I plus the entry jump = (f⁺[2k + 1] − f⁻[2k + 1]) / f⁻[2k]
        at row 2k + 1, column 2k: it adds jump times row 2k of Φ to row
        2k + 1.  The crossings start from the region signs before the
        contact and end on the new ones; at a corner each touches its own
        row, so their order does not matter.
        """
        signs = list(self.signs)
        for k in ks:
            signs[k] = -signs[k]
        f_in = self._rates(signs)
        phi = list(self.phi)
        for k in ks:
            signs[k] = self.signs[k]
            f_out = self._rates(signs)
            jump = (f_out[2 * k + 1] - f_in[2 * k + 1]) / f_in[2 * k]
            phi[2 * k + 1] = tuple(jump * q + p for p, q in zip(phi[2 * k + 1], phi[2 * k]))
            f_in = f_out
        self.phi = tuple(phi)

    def _resolve_tangency(self, k: int):
        """Decide the outgoing side at a tangential contact.

        The level behaves like ½·g″·Δt² around the contact, and g″ is the
        acceleration, component 2k + 1 of the in-surface field (σ_k = 0):
        its sign fixes the side on which the trajectory continues.  A
        persistent tangency with a nonzero field cannot be continued: the
        run stops with CrossingViolationError, its steps and the tangent
        contact attached.  A vanishing field is an equilibrium and the
        trajectory stays put.
        """
        signs0 = list(self.signs)
        signs0[k] = 0.0
        f0 = self._rates(signs0)
        curvature = f0[2 * k + 1]
        if abs(curvature) <= LIE_TOL:
            if math.hypot(*f0) <= EQUILIBRIUM_FIELD_TOL:
                self.signs[k] = 0.0
                self._settle_constant()
                return
            raise CrossingViolationError(
                f"persistent tangency with surface {k + 1} at t = {self.t:.6g}: "
                "the contact neither crosses nor resolves",
                trajectory=self._trajectory(),
            )
        self.signs[k] = _sign(curvature)

    def _departures(self, rhs) -> List[Optional[Tuple[int, float]]]:
        """Per level, (order, q0) when the state sits on its surface, else None.

        The level leaves the contact as q0·δ^order, δ the time since the
        contact: order 1 and q0 its velocity after a crossing, order 2 and
        q0 half its acceleration along ``rhs``, the coming segment's
        right-hand side, after a tangency.  A crossing leaves for the side
        its velocity selected; a tangent level whose acceleration would not
        take it to the side the contact selected stalls the run.
        """
        departures = [None, None]
        for k, order in enumerate(self.orders):
            if order == 1:
                departures[k] = (1, self.state[2 * k + 1])
            elif order == 2:
                q0 = 0.5 * float(rhs(self.t, self.state)[2 * k + 1])
                if _sign(q0) != self.signs[k]:
                    raise self._stall("unable to leave the switching surface after an event")
                departures[k] = (2, q0)
        return departures

    def _settle_constant(self):
        """Rest at an equilibrium on the discontinuity set until t1."""
        self.segments.append(Segment(ts=[self.t, self.t1], states=[tuple(self.state)] * 2,
                                     signs=tuple(self.signs)))
        self.t = self.t1
        self.finished = True

    # -- segment step --------------------------------------------------------

    def _advance(self):
        """Integrate one segment up to its first terminal event.

        F_σ of the frozen region signs runs from the last contact and
        stops where either level crosses zero, or at the next table knot,
        where the segment ends with no event.  A carried monodromy rides
        along as components 4 to 19, left out of the error test.  A solver that fails stalls the
        run; the steps it accepted past the start, if any, stay as the
        run's last segment.
        """
        signs = tuple(self.signs)
        phi = self.phi
        u = list(self.state)
        if phi is not None:
            u += [x for column in zip(*phi) for x in column]
        form = self.field(signs)
        rhs = _affine_rhs(form)
        big = expflow.generator(form)
        departures = self._departures(rhs)
        self.orders = [None, None]
        knots = self.knots
        while knots and (knots[-1] - self.t) * self.direction <= 0.0:
            knots.pop()
        t_end = knots[-1] if knots else self.t1
        if big is not None:
            run = expflow.solve(big, (self.t, t_end), u, max_step=self.max_step, events=[0, 2],
                                departures=departures)
        else:
            run = _dop853(rhs, (self.t, t_end), u, max_step=self.max_step, events=[0, 2], n_tested=4,
                          departures=departures)
        if run.status != -1 or len(run.ts or ()) > 1:
            states = run.ys
            if phi is not None:
                last = states[-1]
                self.phi = tuple(tuple(last[4 + 4 * j + i] for j in range(4)) for i in range(4))
                states = [row[:4] for row in states]
            self.segments.append(Segment(ts=run.ts, states=states, signs=signs))
            self.t = run.ts[-1]
            self.state = list(states[-1])
        if run.status == -1:
            raise self._stall(f"the segment solver failed: {run.message}")
        if run.status == 0:
            self.finished = t_end == self.t1
            return

        # Only the earliest event of a step is reported; the other level
        # counts as touched when the state sits on it.
        touched = [j for j in range(2) if run.event == j or abs(self.state[2 * j]) <= EVENT_STATE_TOL]
        for j in touched:
            self.state[2 * j] = 0.0
        self._resolve_contacts(touched)

    # -- main loop -----------------------------------------------------------

    def run(self) -> Trajectory:
        if self._remaining() <= EVENT_TIME_TOL:
            return self._trajectory()
        initial_contacts = [k for k in range(2) if self.state[2 * k] == 0.0]
        if initial_contacts:
            self._resolve_contacts(initial_contacts)
        while not self.finished and self._remaining() > EVENT_TIME_TOL:
            self._advance()
        return self._trajectory()


def _eye(n: int) -> Matrix:
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def _dop853(rhs, t_span: Tuple[float, float], u0, **options) -> Solution:
    """:func:`pendavg.dop853.solve` at ``RTOL`` and ``ATOL`` on Python
    floats: ``rhs`` sees lists, and the run's times and states come back
    as lists.  DOP853, and numpy with it, is imported here on first use."""
    from .dop853 import solve

    run = solve(lambda t, u: rhs(t, u.tolist()), t_span, u0, rtol=RTOL, atol=ATOL, **options)
    return run._replace(ts=run.ts.tolist(), ys=run.ys.tolist())


def integrate_field(
    field: Field,
    s0,
    t_span: Tuple[float, float],
    *,
    max_events: int = DEFAULT_MAX_EVENTS,
    max_step: float,
    monodromy: bool = False,
) -> Trajectory:
    """Integrate a piecewise-affine field through the surfaces.

    ``field(σ)`` is the field's affine form for the frozen region signs
    σ = (sgn_x, sgn_z), the :class:`PeriodicArray` F_σ = [M_σ | c_σ] (as
    from :func:`d1_field`).  Each segment runs on F_σ: its exact flow when
    that qualifies (see the module docstring), else DOP853 on
    :func:`_affine_rhs` at ``RTOL`` and ``ATOL``; the call takes no
    tolerance.  The field must be second order: rows 0 and 2 of F_σ are
    the velocities y and w with no τ-term, and row 2k + 1 depends on σ_k
    alone.  The run checks that on σ = (1, 1), (−1, 1) and (1, −1) before
    its first step, and DomainError names the row that fails.  Those
    three forms hold every τ-term a segment integrates: row 1 reads σ_x
    alone and row 3 σ_z alone, and a segment runs on σ ∈ {±1}², since
    σ_k = 0 marks only an equilibrium at rest.  So segments also end at
    the knots of their tables inside the span, where F_σ has a kink (see
    :func:`~pendavg.perturbation.table_knots`).  Where a flow cannot leave
    the surface after a tangency the run stops with IntegrationStallError
    or, at a persistent tangency, CrossingViolationError.  Either error,
    and every stall after the first step, carries the steps taken in its
    ``trajectory``.  Events on ``x = 0`` and ``z = 0`` are located to a
    time tolerance below 1e-12, and each is a crossing or a tangency by
    its rate (see ``_Integrator._resolve_contacts``); the trajectory's
    ``offenders`` and ``margin`` judge the log.  Initial states on a
    surface are resolved before the first segment.  With ``monodromy``
    the run also carries the monodromy (see the module docstring) into
    ``Trajectory.monodromy``.  Every step is at most ``max_step``: a cap
    that is not finite and positive raises DomainError, and a span longer
    than ``MAX_STEPS`` steps of it raises IntegrationStallError.
    """
    if not 0.0 < max_step < math.inf:
        raise DomainError(f"max_step must be finite and positive, got {max_step!r}")
    forms = _check_second_order(field)
    _check_step_budget(t_span, max_step)
    knots = table_knots((scalar for form in forms for _, _, scalar in form.terms), *t_span)
    return _Integrator(field, s0, t_span, knots=knots, max_events=max_events, max_step=max_step,
                       monodromy=monodromy).run()


def _check_second_order(field: Field) -> Tuple[PeriodicArray, ...]:
    """The forms F_σ of σ = (1, 1), (−1, 1) and (1, −1), once they keep
    the contract of :func:`integrate_field`; else DomainError naming the
    first row that breaks it."""
    forms = {signs: field(signs) for signs in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0))}

    def row(signs, i: int):
        return tuple(forms[signs].constant[i]), tuple(term for term in forms[signs].terms if term[0][0] == i)

    for i, unit in ((0, (0.0, 1.0, 0.0, 0.0, 0.0)), (2, (0.0, 0.0, 0.0, 1.0, 0.0))):
        if any(row(signs, i) != (unit, ()) for signs in forms):
            raise DomainError(f"the field is not second order: row {i} of F_σ must be {unit} with no τ-term")
    for i, other, name in ((1, (1.0, -1.0), "σ_z"), (3, (-1.0, 1.0), "σ_x")):
        if row((1.0, 1.0), i) != row(other, i):
            raise DomainError(f"the field is not second order: row {i} of F_σ changes with {name}")
    return tuple(forms.values())


def _check_step_budget(t_span: Tuple[float, float], max_step: float) -> None:
    """IntegrationStallError when the span needs more than ``MAX_STEPS``
    steps of the cap ``max_step``, as on extreme physical parameters."""
    span = abs(float(t_span[1]) - float(t_span[0]))
    if span > MAX_STEPS * max_step:
        raise IntegrationStallError(
            f"a span of {span:.6g} needs more than {MAX_STEPS} steps of the step cap {max_step:.6g}"
        )


def step_cap(spectral: SpectralData) -> float:
    """Largest step of a pendulum run: a sixteenth of the shorter normal-mode period."""
    return min(spectral.period1, spectral.period2) / 16.0


def integrate(
    spec: PerturbationSpec,
    reduced: ReducedParams,
    spectral: SpectralData,
    eps: float,
    s0,
    t_span: Tuple[float, float],
    *,
    max_events: int = DEFAULT_MAX_EVENTS,
    monodromy: bool = False,
) -> Trajectory:
    """Event-driven trajectory of the perturbed reduced system.

    Steps are capped at :func:`step_cap`, and segments off the exact
    flow run on DOP853 at ``RTOL`` and ``ATOL``.  With ``monodromy`` the
    run carries the monodromy of the flow map.
    """
    return integrate_field(d1_field(spec, reduced, eps), s0, t_span, max_events=max_events,
                           max_step=step_cap(spectral), monodromy=monodromy)


def integrate_regularized(
    spec: PerturbationSpec,
    reduced: ReducedParams,
    spectral: SpectralData,
    eps: float,
    delta: float,
    s0,
    t_span: Tuple[float, float],
) -> Trajectory:
    """Smooth DOP853 integration, at ``RTOL`` and ``ATOL``, with sgn
    replaced by its C¹ ramp s_δ.

    The run reads one six-row array: F_σ at σ = (0, 0), then the signed
    rows ε·P[0, 1] and ε·P[1, 1], to which rows 1 and 3 add s_δ(x) and
    s_δ(z) times.  No events are generated.  DOP853 restarts at every
    table knot in the span, so the trajectory has one segment, signs
    (nan, nan), per knot interval.  The run stops once two field
    evaluations at distinct times lie closer than 10 ulps of the span:
    SciPy's minimum step taken at the span instead of at τ, which near
    τ = 0 would let a stiff run crawl through its whole step budget.
    That floor and every DOP853 failure raise one IntegrationStallError,
    "regularized integration stalled: " and the reason, whose
    ``trajectory`` keeps the steps taken.
    """
    if delta <= 0.0:
        raise DomainError(f"regularization width must be positive, got {delta}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    floor = 10.0 * math.ulp(abs(t1 - t0))
    last = [t0]
    form = _table_array(spec, reduced, eps, ((1, 1.0), (4, 1.0), (3, 1.0), (5, 1.0)))
    affine = _affine_rhs(form)

    def rhs(t, state):
        if 0.0 < abs(t - last[0]) < floor:
            raise IntegrationStallError(f"its steps fell below {floor:.3g} near tau = {t:.6g}")
        last[0] = t
        f = affine(t, state)
        return [f[0], f[1] + smooth_sign(state[0], delta) * f[4], f[2], f[3] + smooth_sign(state[2], delta) * f[5]]

    max_step = step_cap(spectral)
    _check_step_budget(t_span, max_step)
    s0 = tuple(float(v) for v in s0)
    knots = table_knots((scalar for _, _, scalar in form.terms), t0, t1)
    traj = Trajectory(segments=[], events=[], t_span=(t0, t1), initial_state=s0)
    start, state = t0, s0
    for end in (*(knots if t1 >= t0 else knots[::-1]), t1):
        run = _dop853(rhs, (start, end), state, max_step=max_step)
        if run.status == 0 or len(run.ts) > 1:
            traj.segments.append(Segment(ts=run.ts, states=run.ys, signs=(math.nan, math.nan)))
        if run.status != 0:
            raise IntegrationStallError(f"regularized integration stalled: {run.message}", trajectory=traj)
        start, state = end, run.ys[-1]
    return traj
