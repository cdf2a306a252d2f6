"""Exact flow of frozen-sign segments whose matrix is constant.

With frozen signs the field is s′ = M·s + c(τ).  When M is constant and c
is a constant plus cosines and sines, v = [s; cos ω_iτ, sin ω_iτ; 1] obeys
v′ = B·v with B constant and block upper triangular, M and the rotations
of the ω_i on its diagonal; so a step h is one exp(B·h) (Van Loan, IEEE
TAC 23, 1978), and a monodromy rides along as more columns of v with zero
trigonometric rows.  exp is a Taylor polynomial with scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26, 2005) scaled by the diagonal
blocks alone, so a large forcing amplitude costs no accuracy.  An event
root is found by Brent's method on the level's Taylor polynomial
Σ δʲ·(Bʲv)[k]/j! when that meets the exact level at the step's end, where
its error is largest, to ``ROOT_CHECK_RTOL`` of the level's change over
the step; otherwise on the exact flow.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .averaging import _brent
from .dop853 import EVENT_TOL, Solution, sign_changes

EXPM_DEGREE = 18
ROOT_DEGREE = 30
ROOT_CHECK_RTOL = 1e-13
OVERFLOW = "the exponential flow overflowed or is not finite"


def generator(matrix, offset) -> Optional[np.ndarray]:
    """B of v′ = B·v for s′ = matrix·s + offset(τ), given as the periodic
    arrays of :mod:`pendavg.filippov`, or None unless the matrix is
    constant and the offset's terms are cos or sin."""
    if matrix.terms or any(scalar.kind not in ("cos", "sin") for _, _, scalar in offset.terms):
        return None
    omegas = sorted({scalar.omega for _, _, scalar in offset.terms})
    n = 5 + 2 * len(omegas)
    out = np.zeros((n, n))
    out[:4, :4] = matrix.constant
    out[:4, -1] = offset.constant
    for (row,), factor, scalar in offset.terms:
        out[row, 4 + 2 * omegas.index(scalar.omega) + (scalar.kind == "sin")] += factor * scalar.value
    for i, omega in enumerate(omegas):
        out[4 + 2 * i, 5 + 2 * i] = -omega
        out[5 + 2 * i, 4 + 2 * i] = omega
    return out


def _expm(a: np.ndarray, norm: float) -> np.ndarray:
    """exp(a), given ``norm``, the 1-norm of a's diagonal blocks."""
    squarings = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    a = np.ldexp(a, -squarings)
    eye = np.eye(len(a))
    out = eye
    for j in range(EXPM_DEGREE, 0, -1):
        out = eye + a.dot(out) / j
    for _ in range(squarings):
        out = out.dot(out)
    return out


@lru_cache(maxsize=128)
def _step_flow(key: bytes, n: int, h: float, norm: float) -> np.ndarray:
    out = _expm(np.frombuffer(key).reshape(n, n) * h, norm * abs(h))
    out.setflags(write=False)
    return out


@np.errstate(over="ignore", invalid="ignore")
def solve(big: np.ndarray, t_span: Sequence[float], u0, *, max_step: float,
          events: Sequence[int] = ()) -> Solution:
    """Integrate s′ = M·s + c(τ), given as ``big`` = B (see :func:`generator`),
    in steps of the finite ``max_step``, the last one ending at t_span[1].

    ``u0``, ``events`` and the result are as for :func:`pendavg.dop853.solve`:
    u0 may carry the columns of Φ after the state, and the run stops at the
    earliest root of a level that changes sign over a step.  A flow that
    overflows ends the run with status −1.
    """
    t0, t1 = map(float, t_span)
    u0 = np.asarray(u0, dtype=float)
    if not np.isfinite(big).all():
        return Solution(status=-1, message=OVERFLOW)
    n = len(big)
    norm = max(np.abs(big[:4, :4]).sum(axis=0).max(), np.abs(big[4:, 4:]).sum(axis=0).max())
    h = math.copysign(max_step, t1 - t0)
    key = big.tobytes()
    omegas = big[5:-1:2, 4:-1:2].diagonal()
    cols = u0.reshape(-1, 4).T
    lifted = np.zeros((n, cols.shape[1]))
    lifted[:4] = cols
    lifted[4:-1:2, 0], lifted[5:-1:2, 0] = np.cos(omegas * t0), np.sin(omegas * t0)
    lifted[-1, 0] = 1.0
    ts, ys = [t0], [u0]
    g = [u0[k] for k in events]
    t, steps = t0, 0
    while t != t1:
        steps += 1
        # Times t0 + k·h carry the flow of k full steps, up to the
        # rounding of their float values.
        t_new, dt = t0 + steps * h, h
        if (t_new - t1) * h >= 0.0:
            t_new, dt = t1, t1 - t
        flow = _step_flow(key, n, h, norm) if dt == h else _expm(big * dt, norm * abs(dt))
        new = flow.dot(lifted)
        if not np.isfinite(new).all():
            return Solution(status=-1, message=OVERFLOW)
        g_new = [new[k, 0] for k in events]
        active = sign_changes(g, g_new)
        if active:
            roots = [_level_root(big, norm, lifted[:, 0], events[i], dt, g[i], g_new[i]) for i in active]
            first = int(np.argmin(np.abs(roots)))
            new = _expm(big * roots[first], norm * abs(roots[first])).dot(lifted)
            # As in dop853.solve, no second row at a time already kept.
            if len(ts) == 1 or ts[-1] != t + roots[first]:
                ts.append(t + roots[first])
                ys.append(new[:4].T.ravel())
            return Solution(status=1, ts=np.array(ts), ys=np.array(ys), event=active[first])
        t, lifted, g = t_new, new, g_new
        ts.append(t)
        ys.append(new[:4].T.ravel())
    return Solution(status=0, ts=np.array(ts), ys=np.array(ys))


@lru_cache(maxsize=128)
def _taylor_rows(key: bytes, n: int) -> np.ndarray:
    """The state rows of Bʲ/j!, j = ROOT_DEGREE down to 0: shape (ROOT_DEGREE + 1, 4, n)."""
    big = np.frombuffer(key).reshape(n, n)
    rows = [np.eye(4, n)]
    for j in range(1, ROOT_DEGREE + 1):
        rows.append(rows[-1].dot(big) / j)
    out = np.array(rows[::-1])
    out.setflags(write=False)
    return out


def _level_root(big: np.ndarray, norm: float, v: np.ndarray, k: int, dt: float, g0: float,
                g1: float) -> float:
    """Offset δ in [0, dt] of the root of v(δ)[k] by Brent's method,
    bracketed by the exact values g0 and g1 (see the module docstring)."""
    coefficients = _taylor_rows(big.tobytes(), len(v))[:, k].dot(v).tolist()

    def level(delta):
        out = 0.0
        for c in coefficients:
            out = out * delta + c
        return out

    if not abs(level(dt) - g1) <= ROOT_CHECK_RTOL * abs(g1 - g0):
        def level(delta):
            return float(_expm(big * delta, norm * abs(delta)).dot(v)[k])

    return _brent(level, 0.0, dt, g0, g1, xtol=EVENT_TOL, rtol=EVENT_TOL)
