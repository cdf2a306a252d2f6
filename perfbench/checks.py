"""Output checks of the benchmark operations.

Each check compares the CLI's artifacts with a computation made apart from
the program, or with a property the method guarantees; none compares with a
saved copy of earlier output.

* The convention-A averaged pair of ``damped_forced_escapement`` has the
  hand-derived closed form

      G₁ = √Δ·T₁·X₀ + (4κc/ω₁)·Y₀/r,
      G₂ = −√Δ·T₁·Y₀ + bγT₁ + (4κc/ω₁)·X₀/r,   c = a + b + √Δ, r = |(X₀, Y₀)|,

  whose single zero is refined here by Newton's method on the analytic
  Jacobian.
* The convention-B zeros of ``corollary_escapement`` lie on the circle of
  radius 2(a + b + √Δ)/(√Δ·π).
* A correct prediction leaves a return-map residual of second order in ε and
  a refined orbit at first order in ε from the prediction; a wrong sign
  convention leaves a first-order in-family residual.

An operation *fails* when the CLI exits with another code than the workload
expects or leaves an artifact missing or unreadable; its outputs are
*wrong* when any content check below reports a problem.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from workloads import ESCAPEMENT, PHYSICAL

ZERO_TOL = 1e-8
CIRCLE_TOL = 1e-6
EXPONENT_WINDOW = (1.8, 2.2)
HALVING_RTOL = 0.1
FIRST_ORDER_WINDOW = (0.7, 1.3)


@dataclass
class Outcome:
    """Result of checking one operation."""

    failure: Optional[str] = None
    problems: List[str] = field(default_factory=list)


def reduced_ab():
    """The paper's shape constants a = (m₁+m₂)/m₂, b = l₁(m₁+m₂)/(l₂m₂) of the workloads."""
    m1, m2, l1, l2 = (PHYSICAL[k] for k in ("m1", "m2", "l1", "l2"))
    return (m1 + m2) / m2, l1 * (m1 + m2) / (l2 * m2)


def escapement_zero(a: float, b: float, gamma: float, kappa: float) -> np.ndarray:
    """Zero of the closed-form convention-A pair, by analytic-Jacobian Newton."""
    sd = math.sqrt((a - b) ** 2 + 4.0 * b)
    w1 = math.sqrt((a + b - sd) / 2.0)
    t1 = 2.0 * math.pi / w1
    k = 4.0 * kappa * (a + b + sd) / w1
    x, y = -2.0 * (a + b + sd) * kappa / (sd * math.pi), b * gamma / sd
    for _ in range(100):
        r = math.hypot(x, y)
        g = np.array([sd * t1 * x + k * y / r, -sd * t1 * y + b * gamma * t1 + k * x / r])
        r3 = r ** 3
        jac = np.array(
            [
                [sd * t1 - k * x * y / r3, k * x * x / r3],
                [k * y * y / r3, -sd * t1 - k * x * y / r3],
            ]
        )
        dx, dy = np.linalg.solve(jac, -g)
        x, y = x + dx, y + dy
        if math.hypot(dx, dy) < 1e-15:
            break
    return np.array([x, y])


def corollary_radius(a: float, b: float) -> float:
    sd = math.sqrt((a - b) ** 2 + 4.0 * b)
    return 2.0 * (a + b + sd) / (sd * math.pi)


def log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x (closed-form normal equations)."""
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    den = sum((u - mx) ** 2 for u in lx)
    return num / den


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# -- content checks on parsed artifacts ----------------------------------------


def zero_problems(zeros: list) -> List[str]:
    """Exactly one simple zero, at the closed-form convention-A zero."""
    if len(zeros) != 1:
        return [f"expected exactly one zero, got {len(zeros)}"]
    entry = zeros[0]
    problems = []
    if entry.get("simple") is not True:
        problems.append("the zero is not certified simple")
    point = entry.get("point")
    if not (isinstance(point, list) and len(point) == 2 and all(_finite(v) for v in point)):
        return problems + [f"malformed zero point {point!r}"]
    a, b = reduced_ab()
    expected = escapement_zero(a, b, ESCAPEMENT["gamma"], ESCAPEMENT["kappa"])
    dist = float(np.hypot(point[0] - expected[0], point[1] - expected[1]))
    if not dist <= ZERO_TOL:
        problems.append(f"zero {point} is {dist:.3g} from the closed-form zero {expected.tolist()}")
    return problems


def sweep_problems(sweep: dict) -> List[str]:
    """A valid, all-crossing sweep with ε² residuals and ε-linear limit gaps."""
    problems = []
    eps = sweep.get("epsilons") or []
    residuals = sweep.get("residuals") or []
    if sweep.get("valid") is not True:
        problems.append("sweep is not valid")
    if sweep.get("events_summary", {}).get("all_crossings") is not True:
        problems.append("not every event is a transversal crossing")
    exponent = sweep.get("exponent")
    lo, hi = EXPONENT_WINDOW
    if not (_finite(exponent) and lo <= exponent <= hi):
        problems.append(f"fitted exponent {exponent!r} outside [{lo}, {hi}]")
    elif len(eps) == len(residuals) >= 2 and all(_finite(v) and v > 0 for v in residuals):
        slope = log_slope(eps, residuals)
        if abs(slope - exponent) > 1e-9 * max(1.0, abs(slope)):
            problems.append(f"reported exponent {exponent!r} differs from the fit {slope!r}")
    else:
        problems.append("residuals are missing or not positive")
    if sweep.get("family_consistent") is not True:
        problems.append("in-family residual is not second order")
    gaps = sweep.get("limit_gap") or []
    if len(gaps) != len(eps) or not all(_finite(g) and g > 0 for g in gaps):
        problems.append(f"limit_gap {gaps!r} is not finite and positive on every rung")
    else:
        for j in range(1, len(gaps)):
            ratio, expected = gaps[j] / gaps[j - 1], eps[j] / eps[j - 1]
            if abs(ratio / expected - 1.0) > HALVING_RTOL:
                problems.append(f"limit_gap ratio {ratio:.4g} at rung {j} does not follow eps ratio {expected:.4g}")
    return problems


def verify_problems(summary: dict, event_kinds: Sequence[Sequence[str]]) -> List[str]:
    """verify.json of the escapement run plus the event logs of its rungs."""
    problems = zero_problems(summary.get("zeros", []))
    sweeps = summary.get("sweeps", [])
    if len(sweeps) != 1:
        return problems + [f"expected one sweep, got {len(sweeps)}"]
    entry = sweeps[0]
    problems += sweep_problems(entry.get("sweep", {}))
    if entry.get("validated") is not True or summary.get("any_validated") is not True:
        problems.append("the zero is not validated")
    total = entry.get("sweep", {}).get("events_summary", {}).get("total_events")
    if total != sum(len(k) for k in event_kinds):
        problems.append(f"events.csv files hold {sum(len(k) for k in event_kinds)} events, summary says {total!r}")
    if not event_kinds or any(kind != "crossing" for kinds in event_kinds for kind in kinds):
        problems.append("an events.csv file lists a contact other than a crossing")
    return problems


def compare_problems(report: dict) -> List[str]:
    """convention_report.json of the corollary run."""
    problems = []
    if report.get("arbiter") != "neither":
        problems.append(f"arbiter is {report.get('arbiter')!r}, expected 'neither'")
    conv_a, conv_b = report.get("A") or {}, report.get("B") or {}
    if conv_a.get("n_zeros") != 0:
        problems.append(f"convention A found {conv_a.get('n_zeros')!r} zeros, expected none")
    zeros = conv_b.get("zeros", [])
    if len(zeros) != 2:
        return problems + [f"convention B found {len(zeros)} zeros, expected two"]
    radius = corollary_radius(*reduced_ab())
    for z in zeros:
        point = z.get("point")
        if not (isinstance(point, list) and len(point) == 2 and all(_finite(v) for v in point)):
            problems.append(f"malformed zero point {point!r}")
        elif abs(math.hypot(*point) - radius) > CIRCLE_TOL:
            problems.append(f"zero {point} is off the circle of radius {radius!r}")
        if z.get("simple") is not True:
            problems.append(f"zero {point} is not certified simple")
    sweeps = conv_b.get("sweeps", [])
    if len(sweeps) != 2:
        return problems + [f"convention B swept {len(sweeps)} zeros, expected two"]
    lo, hi = FIRST_ORDER_WINDOW
    for entry in sweeps:
        sweep = entry.get("sweep", {})
        if sweep.get("family_consistent") is not False:
            problems.append("convention-B in-family residual passed as second order")
        if entry.get("validated") is not False:
            problems.append("a convention-B zero was validated")
        fam = sweep.get("residuals_family") or []
        eps = sweep.get("epsilons") or []
        if len(fam) == len(eps) >= 2 and all(_finite(v) and v > 0 for v in fam):
            slope = log_slope(eps, fam)
            if not lo <= slope <= hi:
                problems.append(f"in-family residual slope {slope:.4g} is not first order")
        else:
            problems.append("in-family residuals are missing or not positive")
    return problems


# -- artifacts of one operation --------------------------------------------------


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _event_kinds(out: Path) -> List[List[str]]:
    kinds = []
    for path in sorted(out.glob("zero*_eps*.events.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            kinds.append([row["kind"] for row in csv.DictReader(fh)])
    return kinds


def check_operation(workload: str, exit_code: int, expected_exit: int, out: Path) -> Outcome:
    """Check one CLI invocation of ``workload`` that wrote into ``out``."""
    if exit_code != expected_exit:
        return Outcome(failure=f"exit code {exit_code}, expected {expected_exit}")
    try:
        if workload == "zeros-escapement":
            problems = zero_problems(_load_json(out / "zeros.json").get("zeros", []))
        elif workload == "verify-escapement":
            problems = verify_problems(_load_json(out / "verify.json"), _event_kinds(out))
        elif workload == "compare-corollary":
            problems = compare_problems(_load_json(out / "convention_report.json"))
        else:
            raise KeyError(workload)
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(failure=f"unreadable artifacts: {exc!r}")
    except (AttributeError, TypeError) as exc:
        problems = [f"malformed artifacts: {exc!r}"]
    return Outcome(problems=problems)
