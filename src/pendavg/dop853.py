"""DOP853 with terminal events, for the Filippov segments.

DOP853 is the explicit Runge–Kutta pair of order 8 with an embedded
5th/3rd-order error estimate and a 7th-order dense output (Hairer,
Nørsett & Wanner, *Solving Ordinary Differential Equations I*, §II.10).
This module ports, line for line, the part of SciPy 1.17.1's
``solve_ivp(method="DOP853", dense_output=True, events=...)`` that
:mod:`pendavg.filippov` uses (SciPy is BSD-3-Clause licensed): the
tableau of ``dop853_coefficients.py``, ``select_initial_step``, the step
size loop of ``RungeKutta._step_impl`` with DOP853's error norm and dense
output, and terminal event location by Brent's method.  Every
floating-point operation is SciPy's, in SciPy's order and on arrays of
the same layout, so step times, states and event times agree with
``solve_ivp`` bit for bit.

Supported are a real state vector, scalar ``rtol`` (at least 100·eps)
and ``atol``, a step cap and terminal events of direction 0: the
integration stops at the earliest root of any event inside a step.  One
addition to SciPy: the error test and the initial step may be restricted
to the leading components of the state, as CVODES lets sensitivities be
left out of the local error test (Serban & Hindmarsh, ACM TOMS 31, 2005),
so variational equations carried along do not change the step sequence.

A run returns the states at its accepted steps, the solver's own y_new
as in ``solve_ivp(...).y``, and keeps no dense output.  A step's
interpolant (three extra stages and the interpolation coefficients, by
SciPy's code) is built only when an event changes sign over the step: it
locates the root and gives the state there, the run's last.  An event is
an index k, meaning the level u[k]; its root is found on component k
alone, in Python floats, by the same operations as on the whole state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .averaging import _brent
from .errors import DomainError

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# Step-size control of SciPy's RungeKutta.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / (7 + 1)  # the error estimator has order 7
# Brent's tolerances for an event root (SciPy's solve_event_equation).
EVENT_TOL = 4 * np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Per stage s: s, the row A[s, :s] and the node C[s].
_STAGES = [(s, A[s, :s], float(C[s])) for s in range(1, N_STAGES)]
_EXTRA_STAGES = [(s, A[s, :s], float(C[s])) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]


def _rms(x: np.ndarray):
    # math.sqrt(x·x) is what np.linalg.norm computes for a real vector.
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, max_step, f0, direction, rtol, atol, n):
    """SciPy's ``select_initial_step`` for an error estimator of order 7,
    on the first ``n`` components."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0[:n]) * rtol
    d0 = _rms(y0[:n] / scale)
    d1 = _rms(f0[:n] / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1[:n] - f0[:n]) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length, max_step)


def _error_norm(K: np.ndarray, h, scale: np.ndarray):
    """DOP853's error norm: the 5th-order estimate damped by the 3rd-order one."""
    err5 = K.T.dot(E5) / scale
    err3 = K.T.dot(E3) / scale
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))


class _StepInterpolant:
    """7th-order dense output over one step [t_old, t_old + h].

    Built (DOP853._dense_output_impl) from the step's 13 stages ``K`` and
    three extra stages only for a step in which an event changes sign.
    """

    __slots__ = ("t_old", "h", "y_old", "F")

    def __init__(self, fun, t_old, h, y_old, y_new, K):
        self.t_old = t_old
        self.h = h
        self.y_old = y_old
        K_extended = np.empty((N_STAGES_EXTENDED, y_old.size))
        K_extended[: N_STAGES + 1] = K
        for s, a, c in _EXTRA_STAGES:
            dy = K_extended[:s].T.dot(a)
            dy *= h
            dy += y_old
            K_extended[s] = fun(t_old + c * h, dy)
        F = np.empty((INTERPOLATOR_POWER, y_old.size))
        f_old = K_extended[0]
        f_new = K_extended[N_STAGES]
        delta_y = y_new - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f_new + f_old)
        F[3:] = h * D.dot(K_extended)
        self.F = F

    def __call__(self, t) -> np.ndarray:
        x = (t - self.t_old) / self.h
        return _horner(self.F, x, np.zeros_like(self.y_old)) + self.y_old

    def component(self, t, k: int) -> float:
        """``self(t)[k]``, by the same operations on Python floats."""
        x = (t - self.t_old) / self.h
        return _horner(self.F[:, k].tolist(), x, 0.0) + float(self.y_old[k])


def _horner(F, x, y):
    """The dense output's polynomial less y_old, accumulated onto the zero ``y``."""
    for i, f in enumerate(reversed(F)):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y


@dataclass(frozen=True)
class Solution:
    """Outcome of :func:`solve`.

    ``status`` is 0 when the end of the span was reached, 1 when an event
    stopped the run (``event`` is its index and ``ts[-1]`` its time) and
    −1 on a step-size failure (``message`` says so; ``ts`` and ``ys``
    are then ``None``).  ``ys[i]`` is the state at ``ts[i]``, as in
    SciPy's ``solve_ivp(...).y.T``.
    """

    status: int
    ts: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None
    event: Optional[int] = None
    message: Optional[str] = None


def solve(
    fun: Callable[[float, np.ndarray], np.ndarray],
    t_span: Sequence[float],
    y0,
    *,
    rtol: float,
    atol: float,
    max_step: float = np.inf,
    events: Sequence[int] = (),
    n_tested: Optional[int] = None,
) -> Solution:
    """Integrate ``y' = fun(t, y)`` over ``t_span`` with DOP853.

    ``fun`` must return a float array shaped like ``y0``.  Each event,
    an index k for the level ``y[k]``, is terminal: the run stops at the
    earliest root, located by Brent's method on the step's dense output,
    of any level that changes sign (or touches zero) over a step.  The
    initial step and the local error test see only the first
    ``n_tested`` components (all of them by default, as in SciPy); the
    others ride along on the steps the leading ones choose.
    """
    t0, t_bound = map(float, t_span)
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        # A NaN step size would never be accepted nor fall below min_step.
        raise DomainError("all components of the initial state must be finite")
    n = y.size
    n_tested = n if n_tested is None else n_tested
    direction = np.sign(t_bound - t0) if t_bound != t0 else 1
    f = fun(t0, y)
    if t0 == t_bound:
        return Solution(status=0, ts=np.array([t0, t0]), ys=np.array([y, y]))
    h_abs = _initial_step(fun, t0, y, t_bound, max_step, f, direction, rtol, atol, n_tested)
    K = np.empty((N_STAGES + 1, n))
    # KT[s] is SciPy's K[:s].T, a view of the first s stages.  Products
    # are taken by ndarray.dot: np.dot's own routine, without its dispatch.
    KT = [K[:s].T for s in range(N_STAGES + 1)]

    t = t0
    ts = [t0]
    ys = [y]
    g = [y[k] for k in events]
    status = None
    fired = None
    while status is None:
        # One accepted step (RungeKutta._step_impl).
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                return Solution(status=-1, message=TOO_SMALL_STEP)
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            K[0] = f
            for s, a, c in _STAGES:
                dy = KT[s].dot(a)
                dy *= h
                dy += y
                K[s] = fun(t + c * h, dy)
            y_new = y + h * K[:-1].T.dot(B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new

            scale = atol + np.maximum(np.abs(y[:n_tested]), np.abs(y_new[:n_tested])) * rtol
            error_norm = _error_norm(K[:, :n_tested], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0

        if events:
            g_new = [y[k] for k in events]
            active = [
                i for i, (before, after) in enumerate(zip(g, g_new))
                if (before <= 0 and after >= 0) or (before >= 0 and after <= 0)
            ]
            if active:
                step = _StepInterpolant(fun, t_old, t - t_old, y_old, y, K)
                roots = np.asarray([_event_root(events[i], step, t_old, t) for i in active])
                first = np.argsort(roots if t > t_old else -roots)[0]
                fired = active[first]
                t = roots[first]
                y = step(t)
                status = 1
            g = g_new

        # SciPy keeps no second row at a time it already has (an event
        # root at the step's start).
        if len(ts) == 1 or ts[-1] != t:
            ts.append(t)
            ys.append(y)

    return Solution(status=status, ts=np.array(ts), ys=np.array(ys), event=fired)


def _event_root(k: int, step: _StepInterpolant, t_old, t):
    """Root of the level u[k] on the dense output of one step (solve_event_equation)."""
    def g(s):
        return step.component(s, k)

    return _brent(g, t_old, t, g(t_old), g(t), xtol=EVENT_TOL, rtol=EVENT_TOL)
