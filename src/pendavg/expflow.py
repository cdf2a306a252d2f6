"""Exact flow of frozen-sign segments whose matrix is constant.

With frozen signs the field is s′ = M·s + c(τ).  When M is constant and c
is a constant plus cosines and sines, v = [s; cos ω_iτ, sin ω_iτ; 1] obeys
v′ = B·v with B constant and block upper triangular, M and the rotations
of the ω_i on its diagonal; so a step h is one exp(B·h) (Van Loan, IEEE
TAC 23, 1978), and a monodromy rides along as more columns of v with zero
trigonometric rows, which see only M's block.  One Horner loop applies
the Taylor polynomial of exp(B·δ), the state rows in full and each
rotation pair as two scalars: to [v | Φ] itself where ‖B·δ‖ ≤ 1, else to
the identity at δ/2ˢ, squared s times (Higham, SIAM J. Matrix Anal.
Appl. 26, 2005), s set by the diagonal blocks alone, so a large forcing
amplitude costs no accuracy.  A full step's exponential is built once
per step size and applied by blocks, the trigonometric rows as a
rotation.  An event root is
found by Brent's method on the level's Taylor polynomial
Σ δʲ·(Bʲv)[k]/j! when that meets the exact level at the step's end, where
its error is largest, to ``ROOT_CHECK_RTOL`` of the level's change over
the step; otherwise on the exact flow.  A level that leaves its surface
as q0·δ^order is searched on level(δ)/δ^order in the run's first step.

Everything here is Python floats: B is a tuple of rows, and a run's
times and states are lists.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .averaging import _brent

EXPM_DEGREE = 18
ROOT_DEGREE = 30
ROOT_CHECK_RTOL = 1e-13
OVERFLOW = "the exponential flow overflowed or is not finite"
# Brent's tolerances for an event root (SciPy's solve_event_equation).
EVENT_TOL = 4 * sys.float_info.epsilon
# Most steps of one run: the default NMAX of Hairer's DOP853 code.
MAX_STEPS = 100_000

Matrix = Tuple[Tuple[float, ...], ...]


class Solution(NamedTuple):
    """Outcome of a segment solver (:func:`solve`, :func:`pendavg.dop853.solve`).

    ``status`` is 0 when the end of the span was reached, 1 when an event
    stopped the run (``event`` is its index and ``ts[-1]`` its time) and
    −1 on a failure (``message`` says which; ``ts`` and ``ys`` then hold
    the steps accepted from the start on, as SciPy's do, or are ``None``
    when the exact flow fails before its first step).  ``ys[i]`` is the
    state at ``ts[i]``, as in SciPy's ``solve_ivp(...).y.T``.
    """

    status: int
    ts: Optional[Sequence[float]] = None
    ys: Optional[Sequence[Sequence[float]]] = None
    event: Optional[int] = None
    message: Optional[str] = None


def sign_changes(g, g_new):
    """Indices i of the levels with g[i] and g_new[i] not of one strict sign
    (SciPy's find_active_events for direction 0)."""
    return [i for i, (before, after) in enumerate(zip(g, g_new))
            if (before <= 0 and after >= 0) or (before >= 0 and after <= 0)]


def generator(form) -> Optional[Matrix]:
    """B of v′ = B·v for s′ = M·s + c(τ), given as the periodic 4×5 array
    ``form`` = [M | c] of :mod:`pendavg.filippov`, or None unless every
    term of it sits in column 4, the constant's, and is a cos or a sin."""
    if any(j != 4 or scalar.kind not in ("cos", "sin") for (_, j), _, scalar in form.terms):
        return None
    omegas = sorted({scalar.omega for _, _, scalar in form.terms})
    n = 5 + 2 * len(omegas)
    out = [[*row[:4], *[0.0] * (n - 5), row[4]] for row in form.constant]
    out += [[0.0] * n for _ in range(n - 4)]
    for (row, _), factor, scalar in form.terms:
        out[row][4 + 2 * omegas.index(scalar.omega) + (scalar.kind == "sin")] += factor * scalar.value
    for i, omega in enumerate(omegas):
        out[4 + 2 * i][5 + 2 * i] = -omega
        out[5 + 2 * i][4 + 2 * i] = omega
    return tuple(map(tuple, out))


def _matmul(a, b) -> List[List[float]]:
    """a·b, each row of the product the sum of b's rows scaled by the
    nonzero entries of a's row, in column order: B and its Taylor terms
    are sparse."""
    out = []
    for row in a:
        acc = [0.0] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def _expm(big: Matrix, norm: float, delta: float) -> List[List[float]]:
    """exp(B·δ), given ``norm``, the 1-norm of B's diagonal blocks: the
    identity moved by :func:`_horner` at δ/2ˢ, its state columns as Φ's
    (they see only M's block), then squared s times."""
    squarings = max(0, math.ceil(math.log2(norm * abs(delta)))) if norm * abs(delta) > 1.0 else 0
    delta = math.ldexp(delta, -squarings)
    eye = [[float(i == j) for j in range(len(big))] for i in range(len(big))]
    last, state = _horner(big, delta, eye[-1], [e[:4] for e in eye[:4]])
    columns = [c + e[4:] for c, e in zip(state, eye)] + [_horner(big, delta, e, ())[0] for e in eye[4:-1]]
    out = [list(row) for row in zip(*columns, last)]
    for _ in range(squarings):
        out = _matmul(out, out)
    return out


@lru_cache(maxsize=128)
def _step_flow(big: Matrix, h: float, norm: float) -> Matrix:
    return tuple(map(tuple, _expm(big, norm, h)))


def _apply(flow, v: List[float], cols) -> Tuple[List[float], list]:
    """flow·[v | cols] by blocks: the state rows on v, each rotation on
    its (cos, sin) pair, the constant kept; the columns of Φ, whose other
    rows are zero, on the leading 4×4 block."""
    out = [sum(map(mul, row, v)) for row in flow[:4]]
    for i in range(4, len(v) - 1, 2):
        c, s = v[i], v[i + 1]
        out += (flow[i][i] * c + flow[i][i + 1] * s, flow[i + 1][i] * c + flow[i + 1][i + 1] * s)
    out.append(v[-1])
    return out, [[r[0] * x + r[1] * y + r[2] * z + r[3] * w for r in flow[:4]] for x, y, z, w in cols]


def _horner(big: Matrix, delta: float, v: List[float], cols) -> Tuple[List[float], list]:
    """exp(B·δ)·[v | cols] by Horner's rule for the Taylor polynomial,
    p ← v + (B·δ)·p / j, accurate where ‖B·δ‖ ≤ 1."""
    a = [[x * delta for x in row] for row in big[:4]]
    # The rotation rows of B·δ: (−ωδ, ωδ) at each (cos, sin) pair i.
    turns = [(i, big[i][i + 1] * delta, big[i + 1][i] * delta) for i in range(4, len(v) - 1, 2)]
    p, ps = v, cols
    for j in range(EXPM_DEGREE, 0, -1):
        head = [sum(map(mul, row, p)) / j + x for row, x in zip(a, v)]
        for i, up, down in turns:
            head += (up * p[i + 1] / j + v[i], down * p[i] / j + v[i + 1])
        head.append(v[-1])
        p = head
        ps = [[(r[0] * q0 + r[1] * q1 + r[2] * q2 + r[3] * q3) / j + x for r, x in zip(a, col)]
              for (q0, q1, q2, q3), col in zip(ps, cols)]
    return p, ps


def _flow(big: Matrix, norm: float, delta: float, v: List[float], cols) -> Tuple[List[float], list]:
    """exp(B·δ)·[v | cols]: :func:`_horner`, or the exponential's blocks."""
    if norm * abs(delta) > 1.0:
        return _apply(_expm(big, norm, delta), v, cols)
    return _horner(big, delta, v, cols)


def solve(big: Matrix, t_span: Sequence[float], u0, *, max_step: float,
          events: Sequence[int] = (), departures: Optional[Sequence] = None) -> Solution:
    """Integrate s′ = M·s + c(τ), given as ``big`` = B (see :func:`generator`),
    in steps of the finite ``max_step``, the last one ending at t_span[1].

    ``u0``, ``events`` and the result are as for :func:`pendavg.dop853.solve`:
    u0 may carry the columns of Φ after the state, and the run stops at the
    earliest root of a level that changes sign over a step.  A flow that
    overflows ends the run with status −1 and the steps before it.
    """
    t0, t1 = map(float, t_span)
    norm = max(max(sum(abs(big[i][j]) for i in block) for j in block)
               for block in (range(4), range(4, len(big))))
    # Every exponential is of B·δ with |δ| ≤ max_step, and every angle ω·t0
    # is at most ‖B‖·|t0|, so this bounds both.
    if not (all(map(math.isfinite, chain.from_iterable(big))) and math.isfinite(norm * (abs(t0) + max_step))):
        return Solution(status=-1, message=OVERFLOW)
    h = math.copysign(max_step, t1 - t0)
    u0 = [float(x) for x in u0]
    omegas = [big[i + 1][i] for i in range(4, len(big) - 1, 2)]
    v = u0[:4] + [f(omega * t0) for omega in omegas for f in (math.cos, math.sin)] + [1.0]
    cols = [u0[b:b + 4] for b in range(4, len(u0), 4)]
    ts, ys = [t0], [u0]
    departures = departures or [None] * len(events)
    g = [u0[k] if d is None else d[1] * math.copysign(1.0, h) ** d[0] for k, d in zip(events, departures)]
    t, steps, step = t0, 0, None
    while t != t1:
        steps += 1
        # Times t0 + k·h carry the flow of k full steps, up to the
        # rounding of their float values.
        t_new, dt = t0 + steps * h, h
        if (t_new - t1) * h >= 0.0:
            t_new, dt = t1, t1 - t
        if dt == h:
            step = step or _step_flow(big, h, norm)
            new, new_cols = _apply(step, v, cols)
        else:
            new, new_cols = _flow(big, norm, dt, v, cols)
        if not all(map(math.isfinite, chain(new, *new_cols))):
            return Solution(status=-1, ts=ts, ys=ys, message=OVERFLOW)
        g_new = [new[k] for k in events]
        active = sign_changes(g, g_new)
        if active:
            roots = [_level_root(big, norm, v, events[i], dt, g[i], g_new[i],
                                 departures[i] if steps == 1 else None) for i in active]
            first = min(range(len(roots)), key=lambda i: abs(roots[i]))
            new, new_cols = _flow(big, norm, roots[first], v, cols)
            # As in dop853.solve, no second row at a time already kept.
            if len(ts) == 1 or ts[-1] != t + roots[first]:
                ts.append(t + roots[first])
                ys.append(new[:4] + [x for col in new_cols for x in col])
            return Solution(status=1, ts=ts, ys=ys, event=active[first])
        t, v, cols, g = t_new, new, new_cols, g_new
        ts.append(t)
        ys.append(new[:4] + [x for col in new_cols for x in col])
    return Solution(status=0, ts=ts, ys=ys)


@lru_cache(maxsize=128)
def _taylor_row(big: Matrix, k: int) -> Tuple[Tuple[float, ...], ...]:
    """Row k of Bʲ/j!, j = ROOT_DEGREE down to 0, by rⱼ = rⱼ₋₁·B / j."""
    cols = list(zip(*big))
    rows = [tuple(float(i == k) for i in range(len(big)))]
    for j in range(1, ROOT_DEGREE + 1):
        rows.append(tuple(sum(map(mul, rows[-1], col)) / j for col in cols))
    return tuple(rows[::-1])


def _level_root(big: Matrix, norm: float, v: List[float], k: int, dt: float, g0: float,
                g1: float, departure: Optional[Tuple[int, float]] = None) -> float:
    """Offset δ in [0, dt] of the root of v(δ)[k] by Brent's method,
    bracketed by the exact values g0 and g1 (see the module docstring);
    for a ``departure`` (order, q0), of v(δ)[k]/δ^order, q0 at δ = 0."""
    order, g0 = departure or (0, g0)
    g1 /= dt ** order
    coefficients = [sum(map(mul, row, v)) for row in _taylor_row(big, k)[:ROOT_DEGREE + 1 - order]]

    def level(delta):
        out = 0.0
        for c in coefficients:
            out = out * delta + c
        return out

    if not abs(level(dt) - g1) <= ROOT_CHECK_RTOL * abs(g1 - g0):
        def level(delta):
            return _flow(big, norm, delta, v, ())[0][k] / delta ** order

    return _brent(level, 0.0, dt, g0, g1, xtol=EVENT_TOL, rtol=EVENT_TOL)
