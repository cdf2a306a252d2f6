"""Command-line interface tests.

Each test drives ``cli.main`` in process with a temporary INI file and
checks artifacts, exit codes, and byte-level determinism.  Expected
numbers come from the closed forms in ``oracles``.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pendavg import cli
from pendavg.model import PhysicalParams, jordan_transform, reduce_params, spectral_data
from pendavg.verify import orbit_from_amplitude

from .oracles import corollary_radius, resonant_b

GAMMA = 0.5


def write_ini(path, sections):
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def bench_sections(out_dir, eps="1e-2 5e-3 2e-3 1e-3"):
    return {
        "physical": {"m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0, "g": 9.8},
        "model": {"family": 1, "p": 1, "convention": "A", "seed": 0},
        "perturbation": {"builtin": "damped_forced", "gamma": GAMMA},
        "search": {"r1": 0.05, "r2": 2.0, "grid": 12},
        "sweep": {"eps": eps},
        "output": {"dir": str(out_dir)},
    }


@pytest.fixture()
def bench_ini(tmp_path):
    out = tmp_path / "out"
    return write_ini(tmp_path / "bench.ini", bench_sections(out)), out


# -- config parsing -----------------------------------------------------------


def test_load_config_defaults_and_overrides(tmp_path):
    ini = write_ini(
        tmp_path / "min.ini",
        {"perturbation": {"builtin": "damped_forced", "gamma": 0.5}},
    )
    config = cli.load_config(ini)
    assert config.family == 1 and config.p == 1 and config.convention == "A"
    assert config.r1 == 0.05 and config.r2 == 2.0 and config.grid == 24
    assert config.eps_list == list(cli.DEFAULT_EPS_LIST)
    assert config.output_dir.name == "out"
    over = cli.load_config(ini, family=2, convention="b", out=str(tmp_path / "o2"), delta=1e-3)
    assert over.family == 2 and over.convention == "B"
    assert over.sim_delta == 1e-3
    assert over.output_dir == tmp_path / "o2"


def test_load_config_rejects_bad_input(tmp_path):
    from pendavg import DomainError

    with pytest.raises(DomainError):
        cli.load_config(tmp_path / "missing.ini")
    empty = write_ini(tmp_path / "empty.ini", {"physical": {"m1": 1.0}})
    with pytest.raises(DomainError):
        cli.load_config(empty)
    bad = write_ini(tmp_path / "bad.ini", {"perturbation": {"builtin": "nonsense"}})
    with pytest.raises(DomainError):
        cli.load_config(bad)
    ini = write_ini(
        tmp_path / "fam.ini", {"perturbation": {"builtin": "damped_forced", "gamma": 0.5}}
    )
    with pytest.raises(DomainError):
        cli.load_config(ini, family=3)
    typo = write_ini(
        tmp_path / "typo.ini", {"perturbation": {"builtin": "damped_forced", "gama": 0.5}}
    )
    assert cli.main(["zeros", "--config", str(typo), "--out", str(tmp_path / "o")]) == 1
    pert = tmp_path / "pert.ini"
    pert.write_text("[perturbation]\nfamily = 1\np = 1\nk1 = cos:0.5,1\nf1.d2 = const:-1\n")
    bad_inputs = {
        "nan_gamma": {"perturbation": {"builtin": "damped_forced", "gamma": "abc"}},
        "bad_grid": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                     "search": {"grid": "8.5"}},
        "unknown_key": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                        "search": {"gird": 8}},
        "unknown_param": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5,
                                           "kappa": 0.1}},
        "unknown_section": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                            "serach": {"grid": 8}},
        "both_sources": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5,
                                          "file": pert.name}},
        "file_p": {"model": {"p": 2}, "perturbation": {"file": pert.name}},
        "file_family": {"model": {"family": 2}, "perturbation": {"file": pert.name}},
    }
    for name, sections in bad_inputs.items():
        ini = write_ini(tmp_path / f"{name}.ini", sections)
        assert cli.main(["zeros", "--config", str(ini), "--out", str(tmp_path / "o")]) == 1, name
    with pytest.raises(DomainError, match=r"\[perturbation\] gamma"):
        cli.load_config(tmp_path / "nan_gamma.ini")
    family_flag = write_ini(tmp_path / "flag.ini", {"perturbation": {"file": pert.name}})
    assert cli.main(["zeros", "--config", str(family_flag), "--family", "2",
                     "--out", str(tmp_path / "o")]) == 1


# -- deterministic JSON --------------------------------------------------------


def test_dumps_deterministic_is_valid_json_with_17_digits():
    payload = {
        "x": 0.1 + 0.2,
        "nan": float("nan"),
        "inf": float("inf"),
        "flag": True,
        "n": 3,
        "items": [1.0, [2.5e-300, -0.0]],
        "text": 'quote " and backslash \\',
        "none": None,
        "empty": [],
    }
    text = cli.dumps_deterministic(payload)
    parsed = json.loads(text)
    # 17 significant digits reproduce the double exactly
    assert parsed["x"] == 0.1 + 0.2
    assert parsed["nan"] is None and parsed["inf"] is None
    assert parsed["flag"] is True and parsed["n"] == 3
    assert parsed["items"][1][0] == 2.5e-300
    assert parsed["text"] == 'quote " and backslash \\'
    assert parsed["empty"] == []
    assert text == cli.dumps_deterministic(payload)


# -- params ---------------------------------------------------------------


def test_params_command_writes_frozen_constants(bench_ini, capsys):
    ini, out = bench_ini
    assert cli.main(["params", "--config", str(ini)]) == 0
    payload = json.loads((out / "params.json").read_text())
    assert payload["a"] == 2.0 and payload["b"] == 2.0
    assert payload["alpha"] == pytest.approx(0.3194382824999699, rel=1e-15)
    assert payload["omega1"] == pytest.approx(0.7653668647301795, rel=1e-15)
    assert payload["omega2"] == pytest.approx(1.8477590650225735, rel=1e-15)
    assert payload["monodromy_det"] == pytest.approx(3.7164323713376364, abs=1e-9)
    printed = capsys.readouterr().out
    assert json.loads(printed) == payload


def test_params_resonance_exit_code(tmp_path, capsys):
    b = resonant_b(2.0, 3.0)
    sections = bench_sections(tmp_path / "out")
    sections["physical"]["l2"] = 2.0 / b
    ini = write_ini(tmp_path / "res.ini", sections)
    assert cli.main(["params", "--config", str(ini)]) == 2
    assert "error" in capsys.readouterr().err


# -- zeros ------------------------------------------------------------------


def test_zeros_command_matches_closed_form(bench_ini):
    ini, out = bench_ini
    assert cli.main(["zeros", "--config", str(ini)]) == 0
    payload = json.loads((out / "zeros.json").read_text())
    assert payload["convention"] == "A"
    zeros = payload["zeros"]
    assert len(zeros) == 1 and zeros[0]["simple"]
    reduced = reduce_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8))
    s = spectral_data(reduced)
    expect = np.array([0.0, reduced.b * GAMMA / math.sqrt(s.delta)])
    assert np.allclose(zeros[0]["point"], expect, atol=1e-8)
    assert zeros[0]["det"] == pytest.approx(-s.delta * s.period(1) ** 2, rel=1e-6)


def test_zeros_without_zero_exits_3(tmp_path, capsys):
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"]["gamma"] = 0.0
    ini = write_ini(tmp_path / "null.ini", sections)
    assert cli.main(["zeros", "--config", str(ini)]) == 3
    payload = json.loads((tmp_path / "out" / "zeros.json").read_text())
    assert payload["zeros"] == []


def test_quadrature_failure_exits_4(tmp_path, capsys):
    pert = tmp_path / "wild.ini"
    pert.write_text(
        "[perturbation]\nfamily = 1\np = 1\n"
        "k1 = cos:1.0,1000003\nf1.d2 = const:-1.0\nf3.d4 = const:-1.0\n",
        encoding="utf-8",
    )
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"] = {"file": pert.name}
    ini = write_ini(tmp_path / "wild_exp.ini", sections)
    assert cli.main(["zeros", "--config", str(ini)]) == 4


# -- verify -----------------------------------------------------------------


def test_verify_validates_and_reruns_byte_identical(tmp_path):
    sections = bench_sections(tmp_path / "o1")
    ini = write_ini(tmp_path / "bench.ini", sections)
    assert cli.main(["verify", "--config", str(ini)]) == 0
    payload = json.loads((tmp_path / "o1" / "verify.json").read_text())
    assert payload["any_validated"] is True
    sweep = payload["sweeps"][0]["sweep"]
    assert 1.8 <= sweep["exponent"] <= 2.2
    assert sweep["family_consistent"] is True
    assert sweep["events_summary"]["all_crossings"] is True
    assert (tmp_path / "o1" / "sweep_zero0.json").exists()
    assert (tmp_path / "o1" / "zero0_eps0.trajectory.csv").exists()
    assert (tmp_path / "o1" / "zero0_eps0.events.csv").exists()
    assert cli.main(["verify", "--config", str(ini), "--out", str(tmp_path / "o2")]) == 0
    for name in ("verify.json", "sweep_zero0.json", "zero0_eps2.trajectory.csv"):
        b1 = (tmp_path / "o1" / name).read_bytes()
        b2 = (tmp_path / "o2" / name).read_bytes()
        assert b1 == b2, name


def test_verify_compare_conventions_arbiter_neither(tmp_path, capsys):
    sections = {
        "physical": {"m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0, "g": 9.8},
        "model": {"family": 1, "p": 1, "convention": "A", "seed": 0},
        "perturbation": {
            "builtin": "corollary_escapement",
            "sigma_d": 1.0,
            "sigma_e": 1.0,
        },
        "search": {"r1": 0.2, "r2": 3.0, "grid": 8},
        "sweep": {"eps": "1e-2 5e-3 2e-3 1e-3"},
        "output": {"dir": str(tmp_path / "out")},
    }
    ini = write_ini(tmp_path / "cor.ini", sections)
    code = cli.main(["verify", "--config", str(ini), "--compare-conventions"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "convention_report.json").read_text())
    assert report["arbiter"] == "neither"
    # one convention admits no zero at all ...
    assert report["A"]["n_zeros"] == 0
    # ... the other finds the symmetric pair but fails the in-family test
    assert report["B"]["n_zeros"] == 2
    radius = corollary_radius(2.0, 2.0)
    for zero in report["B"]["zeros"]:
        assert math.hypot(*zero["point"]) == pytest.approx(radius, abs=1e-6)
    assert not report["B"]["any_validated"]
    assert "neither" in capsys.readouterr().out


# -- simulate ----------------------------------------------------------------


def test_simulate_writes_consistent_artifacts(tmp_path):
    sections = bench_sections(tmp_path / "out")
    sections["integrate"] = {
        "eps": 1e-3,
        "s0": "0.3 -0.2 0.5 0.1",
        "t_span": "0.0 5.0",
    }
    ini = write_ini(tmp_path / "sim.ini", sections)
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    summary = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
    assert summary["epsilon"] == 1e-3
    assert summary["regularized"] is False
    rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    last = [float(v) for v in rows[-1].split(",")[:5]]
    assert last[0] == 5.0
    assert np.allclose(last[1:], summary["final_state"], rtol=1e-15, atol=1e-15)
    events = (tmp_path / "out" / "events.csv").read_text().strip().splitlines()
    assert len(events) - 1 == summary["n_events"]
    # regularized path replaces events with one smooth segment
    assert cli.main(["simulate", "--config", str(ini), "--delta", "1e-3",
                     "--out", str(tmp_path / "reg")]) == 0
    reg = json.loads((tmp_path / "reg" / "simulate_summary.json").read_text())
    assert reg["regularized"] is True and reg["n_events"] == 0
    assert reg["delta"] == 1e-3


def test_simulate_crossing_violation_exits_5(tmp_path):
    sections = bench_sections(tmp_path / "out")
    sections["integrate"] = {
        "eps": 0.0,
        "s0": "0.0 0.0 1.0 0.3",
        "t_span": "0.0 2.0",
        "require_crossing": "true",
    }
    ini = write_ini(tmp_path / "tan.ini", sections)
    assert cli.main(["simulate", "--config", str(ini)]) == 5
    offenders = json.loads((tmp_path / "out" / "crossing_violations.json").read_text())
    assert len(offenders) == 1
    assert offenders[0]["kind"] == "tangent"


def test_simulate_stall_exits_6_with_partial_output(tmp_path):
    reduced = reduce_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8))
    s = spectral_data(reduced)
    transform = jordan_transform(reduced, s)
    orbit = orbit_from_amplitude(np.array([0.8, 0.3]), 1, transform, s, reduced)
    s0 = " ".join(format(v, ".17g") for v in orbit.initial_state)
    sections = bench_sections(tmp_path / "out")
    sections["integrate"] = {
        "eps": 0.0,
        "s0": s0,
        "t_span": f"0.0 {format(2.0 * orbit.period_tau, '.17g')}",
        "max_events": 4,
    }
    ini = write_ini(tmp_path / "stall.ini", sections)
    assert cli.main(["simulate", "--config", str(ini)]) == 6
    events = (tmp_path / "out" / "events.csv").read_text().strip().splitlines()
    assert len(events) - 1 == 4
    assert (tmp_path / "out" / "trajectory.csv").exists()


# -- entry points -------------------------------------------------------------


def test_module_entry_point(bench_ini):
    ini, out = bench_ini
    proc = subprocess.run(
        [sys.executable, "-m", "pendavg", "params", "--config", str(ini)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == 2.0
