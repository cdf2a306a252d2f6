"""Tests of the benchmark's own checks and metric declarations.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py                     # all, about 4 min
    python3 -m pytest -q perfbench/selftest.py -k "not two_seeds"  # checks only, seconds

The file name keeps it out of the repository's default test collection.
Each check must reject a deliberately wrong output, and the real CLI outputs
of every workload must pass the checks on two seeds.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import ESCAPEMENT, WORKLOADS  # noqa: E402

LADDER = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


def good_zero():
    a, b = checks.reduced_ab()
    point = checks.escapement_zero(a, b, ESCAPEMENT["gamma"], ESCAPEMENT["kappa"])
    return {"point": point.tolist(), "value_norm": 1e-12, "det": -539.0, "simple": True}


def good_verify():
    residuals = [0.31 * e * e for e in LADDER]
    sweep = {
        "epsilons": list(LADDER),
        "residuals": residuals,
        "exponent": checks.log_slope(LADDER, residuals),
        "valid": True,
        "residuals_family": [0.037 * e * e for e in LADDER],
        "family_consistent": True,
        "limit_gap": [0.15 * e for e in LADDER],
        "events_summary": {"total_events": 16, "all_crossings": True, "min_margin": 0.24},
    }
    summary = {
        "n_zeros": 1,
        "zeros": [good_zero()],
        "sweeps": [{"zero": good_zero(), "sweep": sweep, "validated": True}],
        "any_validated": True,
    }
    return summary, [["crossing"] * 4 for _ in LADDER]


def good_compare():
    radius = checks.corollary_radius(*checks.reduced_ab())
    ladder = [1e-2, 5e-3, 2e-3, 1e-3]
    sweep = {"epsilons": ladder, "residuals_family": [0.4 * e for e in ladder], "family_consistent": False}
    zeros = [{"point": [-radius, 0.0], "simple": True}, {"point": [radius, 0.0], "simple": True}]
    return {
        "A": {"n_zeros": 0, "zeros": [], "sweeps": []},
        "B": {"n_zeros": 2, "zeros": zeros,
              "sweeps": [{"sweep": dict(sweep), "validated": False} for _ in zeros]},
        "arbiter": "neither",
    }


def test_closed_form_zero_solves_the_pair():
    a, b = checks.reduced_ab()
    x, y = checks.escapement_zero(a, b, ESCAPEMENT["gamma"], ESCAPEMENT["kappa"])
    sd = math.sqrt((a - b) ** 2 + 4 * b)
    w1 = math.sqrt((a + b - sd) / 2)
    t1 = 2 * math.pi / w1
    k = 4 * ESCAPEMENT["kappa"] * (a + b + sd) / w1
    r = math.hypot(x, y)
    assert abs(sd * t1 * x + k * y / r) < 1e-12
    assert abs(-sd * t1 * y + b * ESCAPEMENT["gamma"] * t1 + k * x / r) < 1e-12


def test_good_outputs_pass():
    assert checks.zero_problems([good_zero()]) == []
    assert checks.verify_problems(*good_verify()) == []
    assert checks.compare_problems(good_compare()) == []


@pytest.mark.parametrize("shift", [(1e-6, 0.0), (0.0, -1e-6)])
def test_moved_zero_is_rejected(shift):
    zero = good_zero()
    zero["point"] = [zero["point"][0] + shift[0], zero["point"][1] + shift[1]]
    assert checks.zero_problems([zero])


def test_zero_count_and_simplicity_are_checked():
    assert checks.zero_problems([])
    assert checks.zero_problems([good_zero(), good_zero()])
    zero = good_zero()
    zero["simple"] = False
    assert checks.zero_problems([zero])


@pytest.mark.parametrize("bad", [None, float("nan"), float("inf"), -1e-3])
def test_non_finite_limit_gap_is_rejected(bad):
    summary, kinds = good_verify()
    summary["sweeps"][0]["sweep"]["limit_gap"][2] = bad
    assert checks.verify_problems(summary, kinds)


@pytest.mark.parametrize(
    "key, value",
    [
        ("limit_gap", [0.15 * e ** 0.5 for e in LADDER]),
        ("exponent", 1.5),
        ("valid", False),
        ("family_consistent", False),
        ("events_summary", {"total_events": 16, "all_crossings": False}),
    ],
)
def test_wrong_sweep_is_rejected(key, value):
    summary, kinds = good_verify()
    summary["sweeps"][0]["sweep"][key] = value
    assert checks.verify_problems(summary, kinds)


def test_misreported_exponent_is_rejected():
    summary, kinds = good_verify()
    summary["sweeps"][0]["sweep"]["exponent"] += 1e-6
    assert checks.verify_problems(summary, kinds)


def test_unvalidated_or_sliding_verify_is_rejected():
    summary, kinds = good_verify()
    summary["sweeps"][0]["validated"] = False
    assert checks.verify_problems(summary, kinds)
    summary, kinds = good_verify()
    kinds[1][0] = "sliding"
    assert checks.verify_problems(summary, kinds)
    summary, kinds = good_verify()
    assert checks.verify_problems(summary, kinds[:-1])


@pytest.mark.parametrize("arbiter", ["B", "A", "both"])
def test_wrong_arbiter_is_rejected(arbiter):
    report = good_compare()
    report["arbiter"] = arbiter
    assert checks.compare_problems(report)


def test_wrong_corollary_zeros_are_rejected():
    report = good_compare()
    report["B"]["zeros"][0]["point"][0] -= 1e-5
    assert checks.compare_problems(report)
    report = good_compare()
    report["A"]["n_zeros"] = 1
    assert checks.compare_problems(report)
    report = good_compare()
    report["B"]["zeros"].pop()
    assert checks.compare_problems(report)


def test_second_order_corollary_residual_is_rejected():
    report = good_compare()
    sweep = report["B"]["sweeps"][1]["sweep"]
    sweep["residuals_family"] = [0.4 * e * e for e in sweep["epsilons"]]
    assert checks.compare_problems(report)
    report = good_compare()
    report["B"]["sweeps"][0]["sweep"]["family_consistent"] = True
    assert checks.compare_problems(report)


def _write_verify_artifacts(out: Path, summary, kinds):
    out.mkdir(parents=True)
    (out / "verify.json").write_text(json.dumps(summary), encoding="utf-8")
    for j, rung in enumerate(kinds):
        rows = ["t,surface,kind,lie_minus,lie_plus"] + [f"0.1,1,{k},-1,-1" for k in rung]
        (out / f"zero0_eps{j}.events.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_exit_code_and_missing_artifacts_fail_the_operation(tmp_path):
    out = tmp_path / "out"
    _write_verify_artifacts(out, *good_verify())
    ok = checks.check_operation("verify-escapement", 0, 0, out)
    assert ok.failure is None and ok.problems == []
    assert checks.check_operation("verify-escapement", 3, 0, out).failure
    assert checks.check_operation("compare-corollary", 0, 3, out).failure
    assert checks.check_operation("compare-corollary", 3, 3, out).failure  # no report
    (out / "zeros.json").write_text("{not json", encoding="utf-8")
    assert checks.check_operation("zeros-escapement", 0, 0, out).failure


def test_malformed_artifact_is_wrong_not_crashing(tmp_path):
    out = tmp_path / "out"
    summary, kinds = good_verify()
    broken = copy.deepcopy(summary)
    broken["sweeps"][0]["sweep"] = None
    _write_verify_artifacts(out, broken, kinds)
    outcome = checks.check_operation("verify-escapement", 0, 0, out)
    assert outcome.failure is None and outcome.problems


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_two_seeds(workload, seed, capsys):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] == 1 and result["failed"] == 0
