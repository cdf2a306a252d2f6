"""Command-line interface tests.

Each test drives ``cli.main`` in process with a temporary INI file and
checks artifacts, exit codes, and byte-level determinism.  Expected
numbers come from the closed forms in ``oracles``.
"""

import ast
import configparser
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pendavg import cli
from pendavg.errors import IntegrationStallError, PendavgError
from pendavg.filippov import MAX_STEPS
from pendavg.averaging import BifurcationSystem, ZeroCertificate
from pendavg.model import PhysicalParams, ReducedParams, SpectralData, reduce_params, spectral_data
from pendavg.perturbation import BUILTIN_PARAMS, BUILTINS, builtin, parse_keyed
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


# The [integrate] section of the event-driven `simulate` runs.
SIMULATE_INTEGRATE = {"eps": 1e-3, "s0": "0.3 -0.2 0.5 0.1", "t_span": "0.0 5.0"}


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
    assert config.eps_list == [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    assert config.output_dir.name == "out"
    over = cli.load_config(ini, family=2, convention="b", out=str(tmp_path / "o2"), delta=1e-3)
    assert over.family == 2 and over.convention == "B"
    assert over.sim_delta == 1e-3
    assert over.output_dir == tmp_path / "o2"


def test_load_config_rejects_bad_input(tmp_path, capsys):
    from pendavg.errors import DomainError

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
    # a period 1e11 windows long: the window over the period rounds to 0 periods
    slow = tmp_path / "slow.ini"
    slow.write_text("[perturbation]\nfamily = 1\np = 1\nk1 = cos:0.5,1e-11\nf1.d2 = const:-1\n")
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
        "slow_period": {"perturbation": {"file": slow.name}},
        "nan_gamma_value": {"perturbation": {"builtin": "damped_forced", "gamma": "nan"}},
        "inf_kappa": {"perturbation": {"builtin": "damped_forced_escapement", "gamma": 0.5,
                                       "kappa": "inf"}},
        "nan_eps": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                    "sweep": {"eps": "1e-2 nan 2.5e-3 1.25e-3"}},
        "negative_p": {"model": {"p": -2}, "perturbation": {"builtin": "damped_forced", "gamma": 0.5}},
        "zero_p": {"model": {"p": 0}, "perturbation": {"builtin": "damped_forced", "gamma": 0.5}},
        "negative_max_events": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                                "integrate": {"max_events": -3}},
        "family_3": {"model": {"family": 3}, "perturbation": {"builtin": "damped_forced", "gamma": 0.5}},
        "convention_c": {"model": {"convention": "C"},
                         "perturbation": {"builtin": "damped_forced", "gamma": 0.5}},
        "three_t_span": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                         "integrate": {"t_span": "0 1 2"}},
        "three_s0": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                     "integrate": {"s0": "0 1 2"}},
        "negative_delta": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                           "integrate": {"delta": -1}},
        "empty_eps": {"perturbation": {"builtin": "damped_forced", "gamma": 0.5}, "sweep": {"eps": ""}},
        "empty_file": {"perturbation": {"file": ""}},
        # ω₁² cancels below zero, ω₁ rounds to zero, (a − b)² overflows
        **{f"l1_{l1}": {"physical": {"l1": l1}, "perturbation": {"builtin": "damped_forced", "gamma": 0.5}}
           for l1 in ("1e16", "1e20", "1e300")},
    }
    for name, sections in bad_inputs.items():
        ini = write_ini(tmp_path / f"{name}.ini", sections)
        assert cli.main(["zeros", "--config", str(ini), "--out", str(tmp_path / "o")]) == 1, name
        if name == "slow_period":
            assert "error: perturbation key k1: " in capsys.readouterr().err
    for name, where in (("nan_gamma", r"\[perturbation\] gamma"),
                        ("nan_gamma_value", r"\[perturbation\] gamma"),
                        ("inf_kappa", r"\[perturbation\] kappa"),
                        ("nan_eps", r"\[sweep\] eps"),
                        ("negative_p", r"\[model\] p"),
                        ("zero_p", r"\[model\] p"),
                        ("negative_max_events", r"\[integrate\] max_events"),
                        ("family_3", r"\[model\] family"),
                        ("convention_c", r"\[model\] convention"),
                        ("three_t_span", r"\[integrate\] t_span"),
                        ("three_s0", r"\[integrate\] s0"),
                        ("negative_delta", r"\[integrate\] delta"),
                        ("empty_eps", r"\[sweep\] eps"),
                        ("empty_file", r"\[perturbation\] file")):
        with pytest.raises(DomainError, match=where):
            cli.load_config(tmp_path / f"{name}.ini")
    # a value that does not parse names its key, for every number, list, choice and boolean
    for section, key, *_ in cli.CONFIG_TABLE:
        if section not in ("perturbation", "output"):
            ini = write_ini(tmp_path / "bad_value.ini", {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                                                         section: {key: "x"}})
            with pytest.raises(DomainError, match=rf"\[{section}\] {key}: "):
                cli.load_config(ini)
    empty_dir = write_ini(tmp_path / "empty_dir.ini", {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                                                       "output": {"dir": ""}})
    with pytest.raises(DomainError, match=r"\[output\] dir"):
        cli.load_config(empty_dir)
    with pytest.raises(DomainError, match=r"\[integrate\] delta"):
        cli.load_config(empty_dir, out="o", delta=-1.0)
    # an event budget of 0 is valid
    zero_budget = write_ini(tmp_path / "zero_budget.ini",
                            {"perturbation": {"builtin": "damped_forced", "gamma": 0.5},
                             "integrate": {"max_events": 0}})
    assert cli.load_config(zero_budget).sim_max_events == 0
    family_flag = write_ini(tmp_path / "flag.ini", {"perturbation": {"file": pert.name}})
    assert cli.main(["zeros", "--config", str(family_flag), "--family", "2",
                     "--out", str(tmp_path / "o")]) == 1
    # a [DEFAULT] section, whose keys would reach every section, and a file
    # with no section header
    write_ini(tmp_path / "default.ini", {"DEFAULT": {"grid": 8},
                                         "perturbation": {"builtin": "damped_forced", "gamma": 0.5}})
    (tmp_path / "headless.ini").write_text("builtin = damped_forced\n", encoding="utf-8")
    capsys.readouterr()
    for name, message in (("default", "unknown config section [DEFAULT]"),
                          ("headless", "cannot parse config file")):
        assert cli.main(["zeros", "--config", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        errors = [row for row in err.splitlines() if row.startswith("error:")]
        assert len(errors) == 1 and message in errors[0], (name, errors)
        # configparser's own message spans lines; it is joined into one
        assert len(err.splitlines()) == 1, (name, err)


def test_bad_perturbation_file_exits_1_naming_the_key(tmp_path, capsys):
    (tmp_path / "one_column.csv").write_text("# tau, value\n0.0, 1.0\n0.5\n", encoding="utf-8")
    # a table of 100 rows, short of the 256 samples a period needs
    (tmp_path / "short.csv").write_text("".join(f"{i / 100!r}, 0.0\n" for i in range(100)), encoding="utf-8")
    cases = (
        ("k2", "k2 = cos:nan,1"),
        ("family", "family = one"),
        ("family", "family = 3"),
        ("k3", "k3 = const:abc"),
        ("k1", "k1 = table:one_column.csv"),
        ("f1.d2", "f1.d2 = table:missing.csv"),
        ("k4", "k4 = const:5%"),
        ("p", "p = 0"),
        ("k1", "k1 = cos:1"),
        ("k1", "k1 = cos:1,-1"),
        ("k1", "k1 = tan:1"),
        ("k1", "k1 = table:short.csv"),
        # half the resonant harmonic: its period does not divide the window
        ("k1", "k1 = cos:1,0.5"),
    )
    for key, line in cases:
        pert = tmp_path / "pert.ini"
        pert.write_text(f"[perturbation]\n{line}\n", encoding="utf-8")
        ini = write_ini(tmp_path / "exp.ini", {"perturbation": {"file": pert.name}})
        assert cli.main(["zeros", "--config", str(ini), "--out", str(tmp_path / "o")]) == 1, line
        errors = [row for row in capsys.readouterr().err.splitlines() if row.startswith("error:")]
        assert len(errors) == 1 and f"key {key}:" in errors[0], (line, errors)


def test_unreadable_input_files_exit_1(tmp_path):
    good = "[perturbation]\nbuiltin = damped_forced\ngamma = 0.5\n"
    not_utf8 = tmp_path / "not_utf8.ini"
    not_utf8.write_bytes(good.encode() + b"[physical]\nm1 = 1\xff\n")
    (tmp_path / "pert.ini").write_bytes(b"[perturbation]\nfamily = 1\nk1 = const:1\xff\n")
    pert_not_utf8 = write_ini(tmp_path / "exp.ini", {"perturbation": {"file": "pert.ini"}})
    directory = tmp_path / "dir.ini"
    directory.mkdir()
    for config, named in ((not_utf8, "config file"), (pert_not_utf8, "perturbation file"),
                          (directory, "config file")):
        proc = run_child("-m", "pendavg", "zeros", "--config", str(config), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr
        assert f"cannot read {named}" in proc.stderr, proc.stderr


def test_config_file_not_utf8_names_the_byte(tmp_path, capsys):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(b"[perturbation]\nbuiltin = damped_forced\ngamma = 0.5\n# caf\xe9\n")
    assert cli.main(["zeros", "--config", str(ini), "--out", str(tmp_path / "o")]) == 1
    offset = ini.read_bytes().index(b"\xe9")
    assert capsys.readouterr().err == (f"error: cannot read config file {str(ini)!r}: "
                                       f"not UTF-8 text (byte 0xe9 at offset {offset})\n")


def test_unwritable_output_dir_exits_1(tmp_path, bench_ini, capsys):
    ini, _ = bench_ini
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n", encoding="utf-8")
    assert cli.main(["params", "--config", str(ini), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [output] dir") and str(taken) in err
    assert taken.read_text(encoding="utf-8") == "a regular file\n"
    # an artifact path that is a directory: a JSON file, then the CSVs
    out = tmp_path / "out"
    (out / "params.json").mkdir(parents=True)
    assert cli.main(["params", "--config", str(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: [output] dir: cannot write {out / 'params.json'}")
    (out / "zero0_eps0.trajectory.csv").mkdir()
    assert cli.main(["verify", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [output] dir: cannot write {out / 'zero0_eps0.trajectory.csv'}")
    assert "Traceback" not in err
    ini = write_ini(tmp_path / "sim.ini", {**bench_sections(out), "integrate": SIMULATE_INTEGRATE})
    (out / "events.csv").mkdir()
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    assert capsys.readouterr().err.startswith(f"error: [output] dir: cannot write {out / 'events.csv'}")


# -- deterministic JSON and CSV ------------------------------------------------


def test_dumps_deterministic_reads_back_every_float():
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
    # every float is its repr, which reads back as the same double
    assert parsed["x"] == 0.1 + 0.2
    assert parsed["nan"] is None and parsed["inf"] is None
    assert parsed["flag"] is True and parsed["n"] == 3
    assert parsed["items"][1][0] == 2.5e-300
    assert parsed["text"] == 'quote " and backslash \\'
    assert parsed["empty"] == []
    assert text == cli.dumps_deterministic(payload)
    one, (_, zero) = parsed["items"]
    assert type(one) is float and one == 1.0
    assert type(zero) is float and math.copysign(1.0, zero) == -1.0
    nested = {"a": (1.0, -0.0, float("nan")), "b": {}, "c": [], "d": {"e": -math.inf, 2: [0.1, 3]}}
    assert cli.dumps_deterministic(nested) == (
        '{\n  "a": [\n    1.0,\n    -0.0,\n    null\n  ],\n  "b": {},\n  "c": [],\n'
        '  "d": {\n    "e": null,\n    "2": [\n      0.1,\n      3\n    ]\n  }\n}'
    )


def test_csv_export_round_trip(tmp_path):
    import csv

    from pendavg.filippov import integrate

    reduced = reduce_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8))
    s = spectral_data(reduced)
    spec = builtin("damped_forced", {"gamma": GAMMA}, s, family=1, p=1)
    traj = integrate(spec, reduced, s, 1e-3, (0.3, -0.2, 0.5, 0.1), (0.0, 5.0))
    tpath = tmp_path / "trajectory.csv"
    epath = tmp_path / "events.csv"
    cli._export_csvs(traj, tpath, epath)
    with open(tpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "z", "w", "segment_id"]
    data = np.array([[float(v) for v in row[:5]] for row in rows[1:]])
    assert data[:, 0].tobytes() == np.concatenate([seg.ts for seg in traj.segments]).tobytes()
    assert data[:, 1:].tobytes() == np.concatenate([seg.states for seg in traj.segments]).tobytes()
    assert [int(row[5]) for row in rows[1:]] == [i for i, seg in enumerate(traj.segments) for _ in seg.ts]
    # every float cell is the repr of the value it holds, so 0.0 stays 0.0
    assert rows[1][0] == "0.0"
    assert all(cell == repr(float(cell)) for row in rows[1:] for cell in row[:5])
    with open(epath, newline="") as fh:
        erows = list(csv.reader(fh))
    assert erows[0] == ["t", "surface", "kind", "lie_minus", "lie_plus"]
    assert len(erows) - 1 == len(traj.events)
    assert float(erows[1][0]) == traj.events[0].time
    assert all(row[i] == repr(float(row[i])) for row in erows[1:] for i in (0, 3, 4))


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
    # the records' fields in their order, then the run's
    assert tuple(payload) == ReducedParams._fields + SpectralData._fields + ("family", "p", "monodromy_det")
    printed = capsys.readouterr().out
    assert json.loads(printed) == payload


def test_params_with_a_reduced_a_of_one_exits_1(tmp_path):
    # m1/m2 = 1e-20 rounds a = 1 + m1/m2 to 1.0: one error line, no traceback
    sections = bench_sections(tmp_path / "out")
    sections["physical"]["m1"] = 1e-20
    ini = write_ini(tmp_path / "light.ini", sections)
    proc = run_child("-m", "pendavg", "params", "--config", str(ini))
    assert proc.returncode == 1
    assert proc.stderr == "error: reduced parameter a must exceed 1, got 1.0\n"
    assert proc.stdout == ""
    # the output directory comes with the first artifact, not before the computation
    assert not (tmp_path / "out").exists()


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
    assert all(tuple(zero) == ZeroCertificate._fields for zero in zeros)


def test_zeros_without_zero_exits_3(tmp_path, capsys):
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"]["gamma"] = 0.0
    ini = write_ini(tmp_path / "null.ini", sections)
    assert cli.main(["zeros", "--config", str(ini)]) == 3
    payload = json.loads((tmp_path / "out" / "zeros.json").read_text())
    assert payload["zeros"] == []


def test_zeros_on_a_zero_perturbation_exits_3(tmp_path, capsys):
    # with no forcing at all the averaged pair vanishes on every ray
    (tmp_path / "zero.ini").write_text("[perturbation]\nfamily = 1\np = 1\nk1 = const:0\n", encoding="utf-8")
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"] = {"file": "zero.ini"}
    ini = write_ini(tmp_path / "exp.ini", sections)
    assert cli.main(["zeros", "--config", str(ini)]) == 3
    assert json.loads((tmp_path / "out" / "zeros.json").read_text())["zeros"] == []


def test_fast_harmonic_averages_out_and_exits_3(tmp_path, capsys):
    # A forcing of harmonic 1000003 averages to nothing over the window:
    # the closed-form (L, C) are those of the same file without it, and
    # with no forcing left there is no zero.
    from pendavg.averaging import BifurcationSystem, _ray_pairs

    text = "[perturbation]\nfamily = 1\np = 1\nf1.d2 = const:-1.0\nf3.d4 = const:-1.0\n"
    pairs = []
    for name, body in (("wild", text + "k1 = cos:1.0,1000003\n"), ("tame", text)):
        (tmp_path / f"{name}.ini").write_text(body, encoding="utf-8")
        sections = bench_sections(tmp_path / "out")
        sections["perturbation"] = {"file": f"{name}.ini"}
        ini = write_ini(tmp_path / f"{name}_exp.ini", sections)
        config = cli.load_config(ini)
        s = spectral_data(reduce_params(config.phys))
        system = BifurcationSystem(1, cli.build_perturbation(config, s), reduce_params(config.phys), s)
        pairs.append(_ray_pairs(system, [2.0 * math.pi * i / 8 for i in range(8)]))
    for (lin, const, _, _), (tame_lin, tame_const, _, _) in zip(*pairs):
        scale = max(1.0, math.hypot(*tame_lin))
        assert math.dist(lin, tame_lin) <= 1e-12 * scale and math.dist(const, tame_const) <= 1e-12 * scale
    assert cli.main(["zeros", "--config", str(tmp_path / "wild_exp.ini")]) == 3


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


# Time-dependent coefficients in both the state columns and the constant
# column of the forcing, on the plain and the signed rows.
TIME_DEPENDENT_ENTRIES = {
    "k1": "cos:0.5,1", "k2": "sin:0.03,2", "k4": "const:0.05",
    "f1.d1": "cos:0.2,1", "f1.d2": "const:-1", "f2.d4": "const:0.01",
    "f3.d4": "const:-1", "f4.d3": "sin:0.05,1",
}


def test_verify_refines_time_dependent_coefficients_and_reruns_byte_identical(tmp_path):
    # M_σ varies in time, so refinement carries the monodromy Φ through
    # DOP853 rather than the exact flow of a constant matrix
    pert = tmp_path / "pert.ini"
    pert.write_text("[perturbation]\n" + "".join(f"{key} = {entry}\n" for key, entry
                                                   in TIME_DEPENDENT_ENTRIES.items()), encoding="utf-8")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(readme_ini(tmp_path), encoding="utf-8")
    parser["search"]["grid"] = "8"
    parser["perturbation"] = {"file": pert.name}
    ini = tmp_path / "time_dependent.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert cli.main(["verify", "--config", str(ini), "--out", str(out)]) == 0
    payload = json.loads((outs[0] / "verify.json").read_text())
    assert payload["any_validated"] is True and payload["sweeps"]
    for sweep in payload["sweeps"]:
        assert sweep["sweep"]["limit_gap_reason"] == [None] * 4
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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


def test_verify_crossing_violation_exits_5(tmp_path, monkeypatch, capsys):
    # a tangent contact appended to every run breaks the crossing
    # hypothesis, so no zero validates and the sweeps' event summaries
    # go to crossing_violations.json
    from pendavg import verify
    from pendavg.filippov import EventRecord

    integrate = verify.integrate

    def with_tangent(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        traj.events.append(EventRecord(time=0.0, state=tuple(traj.initial_state), surface=1,
                                       kind="tangent", rate=0.0))
        return traj

    monkeypatch.setattr(verify, "integrate", with_tangent)
    out = tmp_path / "out"
    ini = write_ini(tmp_path / "bench.ini", bench_sections(out))
    assert cli.main(["verify", "--config", str(ini)]) == 5
    payload = json.loads((out / "verify.json").read_text())
    assert payload["any_crossing_violation"] is True and payload["any_validated"] is False
    violations = json.loads((out / "crossing_violations.json").read_text())
    assert violations == [entry["sweep"]["events_summary"] for entry in payload["sweeps"]]
    assert violations and not any(summary["all_crossings"] for summary in violations)
    assert capsys.readouterr().err == ("error: the crossing hypothesis failed during verification; "
                                       "see crossing_violations.json\n")


def test_verify_persistent_tangency_exits_5(tmp_path, monkeypatch, capsys):
    # a persistent tangency flags its rung with exit 5 and leaves no
    # trajectory; the sweep still counts it as a contact outside the
    # crossing region
    from pendavg import verify
    from pendavg.errors import CrossingViolationError

    def tangent(*args, **kwargs):
        raise CrossingViolationError("persistent tangency on x = 0")

    monkeypatch.setattr(verify, "integrate", tangent)
    out = tmp_path / "out"
    ini = write_ini(tmp_path / "bench.ini", bench_sections(out))
    assert cli.main(["verify", "--config", str(ini)]) == 5
    payload = json.loads((out / "verify.json").read_text())
    assert payload["any_crossing_violation"] is True and payload["any_validated"] is False
    violations = json.loads((out / "crossing_violations.json").read_text())
    assert violations and violations == [entry["sweep"]["events_summary"] for entry in payload["sweeps"]]
    # the error line ends with the first flagged rung and its message
    assert capsys.readouterr().err == ("error: the crossing hypothesis failed during verification; "
                                       "see crossing_violations.json: zero 0, eps 0.01: "
                                       "persistent tangency on x = 0\n")


def test_compare_conventions_reads_the_perturbation_file_once(tmp_path, monkeypatch):
    # both conventions share one model and one perturbation
    pert = tmp_path / "pert.ini"
    pert.write_text(f"[perturbation]\nk1 = cos:{GAMMA!r},1\nf1.d2 = const:-1\nf3.d4 = const:-1\n",
                    encoding="utf-8")
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"] = {"file": pert.name}
    ini = write_ini(tmp_path / "bench.ini", sections)
    calls = []
    read = cli.perturbation_from_file

    def counted(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(cli, "perturbation_from_file", counted)
    assert cli.main(["verify", "--config", str(ini), "--compare-conventions"]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "out" / "convention_report.json").read_text())["arbiter"] != "neither"


def test_verify_stall_exits_6_without_crossing_file(tmp_path, monkeypatch, capsys):
    from pendavg import verify

    def stalled(*args, **kwargs):
        raise IntegrationStallError("event budget exhausted")

    monkeypatch.setattr(verify, "integrate", stalled)
    out = tmp_path / "out"
    ini = write_ini(tmp_path / "bench.ini", bench_sections(out))
    assert cli.main(["verify", "--config", str(ini)]) == 6
    payload = json.loads((out / "verify.json").read_text())
    assert payload["any_stall"] is True and payload["any_crossing_violation"] is False
    assert payload["sweeps"] and all(entry["sweep"]["limit_gap_reason"] == ["prediction run flagged"] * 4
                                     for entry in payload["sweeps"])
    assert not (out / "crossing_violations.json").exists()
    assert capsys.readouterr().err == ("error: verification integrations stalled: zero 0, eps 0.01: "
                                       "event budget exhausted\n")


ESCAPEMENT = {"builtin": "damped_forced_escapement", "gamma": GAMMA, "kappa": 0.05}


@pytest.mark.parametrize("perturbation, ladder", [
    (ESCAPEMENT, "1e-2 5e-3"),  # too few rungs
    ({"builtin": "damped_forced", "gamma": 0.0}, "1e-2 2e-2 3e-3 1e-4"),  # no zero to sweep
    (ESCAPEMENT, "1e-2 2e-2 3e-3 1e-4"),  # not decreasing
    (ESCAPEMENT, "1e-2 5e-3 2.5e-3 -1e-3"),  # not positive
    (ESCAPEMENT, "1e-2 9e-3 8e-3 7e-3"),  # spans less than a factor of 8
])
def test_verify_refuses_a_bad_ladder_before_its_search(tmp_path, capsys, perturbation, ladder):
    out = tmp_path / "out"
    sections = bench_sections(out, eps=ladder)
    sections["perturbation"] = perturbation
    sections["search"]["grid"] = 8
    ini = write_ini(tmp_path / "ladder.ini", sections)
    assert cli.main(["verify", "--config", str(ini)]) == 1
    assert capsys.readouterr().err.startswith("error: [sweep] eps: ")
    assert not out.exists()
    # the prediction half never reads the ladder
    zeros_exit = 0 if perturbation is ESCAPEMENT else 3
    assert cli.main(["zeros", "--config", str(ini), "--out", str(tmp_path / "zeros")]) == zeros_exit


@pytest.mark.parametrize("search", [{"grid": 4}, {"r1": 3.0}, {"r1": -1.0}])
def test_bad_search_bounds_exit_1_naming_the_section(tmp_path, capsys, search):
    out = tmp_path / "out"
    sections = bench_sections(out)
    sections["search"].update(search)
    sections["integrate"] = SIMULATE_INTEGRATE
    ini = write_ini(tmp_path / "search.ini", sections)
    for command in ("zeros", "verify"):
        assert cli.main([command, "--config", str(ini)]) == 1, command
        assert capsys.readouterr().err.startswith("error: [search] "), command
        assert not out.exists(), command
    # params and simulate never read [search]
    for command in ("params", "simulate"):
        assert cli.main([command, "--config", str(ini)]) == 0, (command, capsys.readouterr().err)


@pytest.mark.parametrize("grid, p", [(10**8, 1), (8, 10**9)])
def test_a_scan_past_its_bound_exits_1_naming_both_keys(tmp_path, monkeypatch, capsys, grid, p):
    # the check refuses the scan before the model is built; a search that
    # started anyway fails the test instead of filling memory
    def no_scan(*args):
        raise AssertionError("the scan must not start")

    monkeypatch.setattr(cli, "annulus_search", no_scan)
    out = tmp_path / "out"
    sections = bench_sections(out)
    sections["search"]["grid"] = grid
    sections["model"]["p"] = p
    ini = write_ini(tmp_path / "scan.ini", sections)
    panels = 4 * grid * (2 * p + 1)
    for command in ("zeros", "verify"):
        assert cli.main([command, "--config", str(ini)]) == 1, command
        assert capsys.readouterr().err == (f"error: [search] grid = {grid} and [model] p = {p} ask for a scan "
                                           f"of {panels} panels, more than 1000000\n"), command
        assert not out.exists(), command


@pytest.mark.parametrize("command", ["zeros", "verify"])
def test_a_table_scan_costs_its_sign_panels_not_its_knots(tmp_path, command):
    # K1's table puts 255 knots inside the window, and grid 1000 takes 4000
    # rays of 3 sign panels each, within the bound: the run finds grid 8's
    # one simple zero
    ini = table_ini(tmp_path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ini, encoding="utf-8")
    parser["search"]["grid"] = "1000"
    with open(tmp_path / "grid1000.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)
    zeros = []
    for config, out in ((ini, tmp_path / "grid8"), (tmp_path / "grid1000.ini", tmp_path / "grid1000")):
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
        zeros.append(json.loads((out / f"{command}.json").read_text())["zeros"])
    coarse, fine = zeros
    assert len(fine) == 1 and fine[0]["simple"] and fine[0]["index"] == -1
    assert np.linalg.norm(np.subtract(fine[0]["point"], coarse[0]["point"])) <= 1e-12


# -- simulate ----------------------------------------------------------------


def test_simulate_writes_consistent_artifacts(tmp_path):
    sections = bench_sections(tmp_path / "out")
    sections["integrate"] = SIMULATE_INTEGRATE
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
    spec = builtin("damped_forced", {"gamma": GAMMA}, s, family=1, p=1)
    orbit = orbit_from_amplitude(BifurcationSystem(1, spec, reduced, s), np.array([0.8, 0.3]))
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


def _simulate_gamma(tmp_path, t_span, builtin=None):
    """`simulate` on a forcing so large that the state leaves 1e297."""
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"] = builtin or {"builtin": "damped_forced", "gamma": 1e300}
    sections["integrate"] = {"eps": 5, "s0": "2 0 2 1e-12", "t_span": t_span}
    ini = write_ini(tmp_path / "gamma.ini", sections)
    return cli.main(["simulate", "--config", str(ini)])


def test_simulate_huge_forcing_ends_finite(tmp_path):
    # SciPy's solve_ivp(method="DOP853") ends this segment near 5e297 too
    assert _simulate_gamma(tmp_path, "0 0.001") == 0
    summary = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
    assert 1e297 < summary["final_state"][1] < 1e298


def test_simulate_overflowing_flow_exits_6_without_nan(tmp_path):
    # After two crossings the anti-damping ε·σ_d = 5 and the kick drive y to
    # −∞ like e^{5t} with no further crossing: the flow overflows before t = 300.
    corollary = {"builtin": "corollary_escapement", "sigma_d": 1, "sigma_e": -1}
    assert _simulate_gamma(tmp_path, "0 300", corollary) == 6
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_simulate_overflow_keeps_the_failed_segment_steps(tmp_path, capsys):
    # the segment after the last crossing runs its exact flow to t ≈ 145
    # before it overflows; its finite steps stay and the message names the last
    corollary = {"builtin": "corollary_escapement", "sigma_d": 1, "sigma_e": -1}
    assert _simulate_gamma(tmp_path, "0 300", corollary) == 6
    last = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) > 100.0 and all(math.isfinite(float(v)) for v in last)
    assert capsys.readouterr().err.splitlines() == [
        f"error: integration stalled at t = {float(last[0]):.6g}: the segment solver failed: "
        "the exponential flow overflowed or is not finite"
    ]


def test_simulate_flow_not_finite_before_its_first_step_exits_6(tmp_path, capsys):
    # ε·κ = 1e308·10 is inf in the constant column of the segment's generator
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"] = {"builtin": "damped_forced_escapement", "gamma": 0.5, "kappa": 10}
    sections["integrate"] = {"eps": "1e308", "s0": "0.1 0 0.1 0", "t_span": "0 10"}
    ini = write_ini(tmp_path / "inf.ini", sections)
    assert cli.main(["simulate", "--config", str(ini)]) == 6
    assert capsys.readouterr().err.splitlines() == [
        "error: integration stalled at t = 0: the segment solver failed: "
        "the exponential flow overflowed or is not finite"
    ]


def test_simulate_stiff_regularized_run_exits_6_at_once(tmp_path, capsys):
    # ε = 1e300 makes the regularized run so stiff that its error norm
    # overflows and DOP853 shrinks its steps to subnormal sizes near τ = 0,
    # far below any step that could cross the span; the floor of 10 ulps of
    # the span ends the run with one error line and no numpy warning
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"] = {"builtin": "damped_forced", "gamma": "1e-300"}
    sections["integrate"] = {"eps": "1e300", "s0": "0 0 1 0.3", "t_span": "0 0.001", "delta": "1e-3"}
    ini = write_ini(tmp_path / "stiff.ini", sections)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = cli.main(["simulate", "--config", str(ini)])
        elapsed = time.perf_counter() - start
    assert code == 6 and elapsed < 1.0
    assert not caught
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: regularized integration stalled")


def test_simulate_stalled_regularized_run_keeps_its_steps(tmp_path, capsys):
    # the corollary escapement of test_simulate_overflow_keeps_the_failed_segment_steps,
    # regularized: the floor of 10 ulps of the span ends the run near τ = 144
    # and the steps DOP853 accepted before it are written
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"] = {"builtin": "corollary_escapement", "sigma_d": 1, "sigma_e": -1}
    sections["integrate"] = {"eps": 5, "s0": "2 0 2 1e-12", "t_span": "0 300"}
    ini = write_ini(tmp_path / "reg.ini", sections)
    assert cli.main(["simulate", "--config", str(ini), "--delta", "1e-3"]) == 6
    (line,) = capsys.readouterr().err.splitlines()
    match = re.fullmatch(r"error: regularized integration stalled: its steps fell below 5\.68e-13 "
                         r"near tau = (\S+)", line)
    assert match, line
    rows = [[float(v) for v in row.split(",")]
            for row in (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]]
    assert len(rows) > 2 and all(math.isfinite(v) for row in rows for v in row)
    assert f"{rows[-1][0]:.6g}" == match.group(1)
    assert (tmp_path / "out" / "events.csv").read_text() == "t,surface,kind,lie_minus,lie_plus\n"


def test_simulate_persistent_tangency_exits_5_with_its_contact(tmp_path, capsys):
    # γ = 0 leaves the pendulum unforced: from x = y = 0 the level x stays
    # flat while w moves the state, a persistent tangency at t = 0
    sections = bench_sections(tmp_path / "out")
    sections["perturbation"]["gamma"] = 0.0
    sections["integrate"] = {"eps": 1e-3, "s0": "0 0 0 0.3", "t_span": "0 1"}
    ini = write_ini(tmp_path / "tan.ini", sections)
    assert cli.main(["simulate", "--config", str(ini)]) == 5
    assert capsys.readouterr().err == ("error: persistent tangency with surface 1 at t = 0: "
                                       "the contact neither crosses nor resolves\n")
    header, *events = (tmp_path / "out" / "events.csv").read_text().splitlines()
    assert [row.split(",")[1:3] for row in events] == [["1", "tangent"]]
    assert (tmp_path / "out" / "trajectory.csv").read_text() == "t,x,y,z,w,segment_id\n"


def test_simulate_on_an_empty_span_writes_header_only_csvs(tmp_path, capsys):
    sections = bench_sections(tmp_path / "out")
    sections["integrate"] = {**SIMULATE_INTEGRATE, "t_span": "1 1"}
    ini = write_ini(tmp_path / "empty.ini", sections)
    assert cli.main(["simulate", "--config", str(ini)]) == 0
    summary = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
    assert summary["n_segments"] == summary["n_events"] == 0
    assert summary["t_span"] == [1.0, 1.0] and summary["final_state"] == summary["initial_state"]
    assert (tmp_path / "out" / "trajectory.csv").read_text() == "t,x,y,z,w,segment_id\n"
    assert (tmp_path / "out" / "events.csv").read_text() == "t,surface,kind,lie_minus,lie_plus\n"


DOCUMENTED_EXIT_CODES = (0, 1, 2, 3, 5, 6)
FUZZ_NUMBERS = ("1e-300", "1e-100", "1e-3", "0.5", "1", "9.8", "1e3", "1e100", "1e300", "nan")
FUZZ_BUILTIN_VALUES = ("0.5", "0.05", "1", "-1", "1e-300", "1e300", "nan")
FUZZ_MAX_STEPS = 2000
_GAMMA_INTEGRATE = {"eps": "5", "s0": "2 0 2 1e-12", "t_span": "0 0.001"}


def _cap_steps(ini):
    """Steps of the integrators' cap, a sixteenth of the shorter mode
    period, in the `simulate` span; 0 when the config fails before."""
    try:
        config = cli.load_config(ini)
        s = spectral_data(reduce_params(config.phys))
    except PendavgError:
        return 0
    t0, t1 = config.sim_t_span
    return abs(t1 - t0) / (min(s.period1, s.period2) / 16.0)


@st.composite
def fuzz_configs(draw):
    """A command and an INI config drawn from extreme and invalid values."""
    name = draw(st.sampled_from(sorted(BUILTINS)))
    keys = BUILTIN_PARAMS[name]
    perturbation = {"builtin": name, **{key: draw(st.sampled_from(FUZZ_BUILTIN_VALUES)) for key in keys}}
    sections = {
        "physical": draw(st.just({}) | st.dictionaries(st.sampled_from(["m1", "m2", "l1", "l2", "g"]),
                                                       st.sampled_from(FUZZ_NUMBERS), max_size=5)),
        "model": draw(st.just({}) | st.fixed_dictionaries({}, optional={
            "family": st.sampled_from(["1", "2", "3"]),
            "p": st.sampled_from(["1", "2", "0"]),
            "convention": st.sampled_from(["A", "B", "b", "C"]),
            "seed": st.sampled_from(["0", "7", "x"]),
        })),
        "perturbation": perturbation,
        "search": {"r1": draw(st.sampled_from(["0.05", "0.2", "1"])),
                   "r2": draw(st.sampled_from(["0.5", "2", "3"])),
                   "grid": draw(st.sampled_from(["4", "8"]))},
        "integrate": {"eps": draw(st.sampled_from(["0", "1e-3", "0.1", "5", "1e300"])),
                      "s0": draw(st.sampled_from(["0.3 -0.2 0.5 0.1", "2 0 2 1e-12", "0 0 1 0.3"])),
                      "t_span": draw(st.sampled_from(["0 0.001", "0 0.5", "0 3", "0.5 0"]))},
    }
    delta = draw(st.sampled_from([None, "1e-3", "0.1"]))
    if delta is not None:
        sections["integrate"]["delta"] = delta
    return draw(st.sampled_from(["params", "zeros", "simulate"])), sections


@given(case=fuzz_configs())
@example(case=("params", {"physical": {"m2": "1e-300", "g": "1e-300"},
                          "perturbation": {"builtin": "damped_forced", "gamma": "0.5"}}))
@example(case=("simulate", {"perturbation": {"builtin": "damped_forced", "gamma": "1e300"},
                            "integrate": dict(_GAMMA_INTEGRATE, delta="1e-3")}))
@example(case=("simulate", {"perturbation": {"builtin": "damped_forced", "gamma": "1e300"},
                            "integrate": _GAMMA_INTEGRATE}))
@example(case=("simulate", {"physical": {"m2": "1e-100"},
                            "perturbation": {"builtin": "damped_forced", "gamma": "0.5"},
                            "integrate": {"eps": "0", "s0": "0.3 -0.2 0.5 0.1", "t_span": "0 0.5"}}))
@example(case=("simulate", {"perturbation": {"builtin": "damped_forced_escapement", "gamma": "1e300",
                                             "kappa": "1e300"},
                            "integrate": {"eps": "1e300", "s0": "0 0 1 0.3", "t_span": "0 0.5", "delta": "1e-3"}}))
@example(case=("simulate", {"perturbation": {"file": "forcing.ini"},
                            "forcing": {"k1": "const:1e308", "f1.d1": "const:1e308", "k2": "const:-1e308",
                                        "f2.d1": "const:-1e308"},
                            "integrate": {"eps": "1e-2", "s0": "1 0 0.5 0", "t_span": "0 1", "delta": "1e-3"}}))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_main_ends_with_a_documented_exit_code(case):
    """`cli.main` on extreme or invalid configs returns a code of the
    README's table and raises nothing, on `params`, `zeros` and short
    `simulate` spans, and a trajectory it writes holds finite numbers.  A
    ``forcing`` section is written as the perturbation file
    ``forcing.ini`` beside the config."""
    command, sections = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = Path(tmp) / "out"
        sections = dict(sections)
        if "forcing" in sections:
            write_ini(Path(tmp) / "forcing.ini", {"perturbation": sections.pop("forcing")})
        ini = write_ini(Path(tmp) / "fuzz.ini", {**sections, "output": {"dir": str(out)}})
        # A span of thousands of step caps is long work, not a failure; one
        # beyond the integrator's budget ends at once with exit 6.
        steps = _cap_steps(ini) if command == "simulate" else 0
        assume(steps <= FUZZ_MAX_STEPS or steps > MAX_STEPS)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", str(ini)])
        trajectory = out / "trajectory.csv"
        rows = trajectory.read_text().splitlines()[1:] if trajectory.exists() else []
    assert code in DOCUMENTED_EXIT_CODES
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


# -- entry points -------------------------------------------------------------


REPO = Path(__file__).resolve().parents[1]


def run_child(*args):
    """Run a fresh interpreter that imports the package under test, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(bench_ini):
    ini, out = bench_ini
    proc = run_child("-m", "pendavg", "params", "--config", str(ini))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == 2.0


def test_usage_errors_exit_1(bench_ini, capsys):
    ini, out = bench_ini
    # --delta belongs to simulate only; argparse's own exit 2 would read as resonance
    assert cli.main(["zeros", "--config", str(ini), "--delta", "1e-3"]) == 1
    assert cli.main(["zeros"]) == 1
    assert cli.main(["verify", "--config", str(ini), "--convention", "C"]) == 1
    assert cli.main([]) == 1
    assert not out.exists()
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["simulate", "--config", str(ini), "--delta", "nan"]) == 1
    assert "--delta" in capsys.readouterr().err
    assert cli.main(["bogus"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    # the config has no [integrate] s0 and t_span
    assert cli.main(["simulate", "--config", str(ini)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: [integrate] must provide s0 and t_span for simulate"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["zeros", "--help"])
    assert exc.value.code == 0


# -- start-up and tooling ------------------------------------------------------

# Runs ``python -m pendavg <arguments>`` in process (runpy is what ``-m``
# uses) and then prints its exit code and the modules it left loaded.
RUN_THEN_LIST_MODULES = """
import runpy, sys
sys.argv = ["pendavg", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("pendavg", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code or 0
print(code)
print(" ".join(sorted(sys.modules)))
"""
CHECKING_HALF = {"pendavg.filippov", "pendavg.verify", "pendavg.dop853", "pendavg.expflow"}


def readme_ini(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    ini = tmp_path / "readme.ini"
    ini.write_text(block, encoding="utf-8")
    return ini


def loaded_modules(*args, code=0):
    """The modules ``python -m pendavg <args>`` leaves loaded; it must exit with ``code``."""
    proc = run_child("-c", RUN_THEN_LIST_MODULES, *args)
    assert proc.returncode == 0, proc.stderr
    *_, exit_code, modules = proc.stdout.splitlines()
    assert int(exit_code) == code, proc.stderr
    return set(modules.split())


def assert_runs_without_scipy(*args):
    loaded = loaded_modules(*args)
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    return loaded


def test_prediction_path_loads_no_scipy(tmp_path):
    # SciPy would cost more start-up than `zeros` spends computing.
    assert_runs_without_scipy("zeros", "--config", str(readme_ini(tmp_path)),
                              "--out", str(tmp_path / "out"))
    assert json.loads((tmp_path / "out" / "zeros.json").read_text())["zeros"]
    proc = run_child(
        "-c", "import sys, pendavg; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    # `python -m pendavg` ends in console_main, which freezes the heap; the
    # library entry cli.main leaves the collector as it found it
    script = RUN_THEN_LIST_MODULES + "import gc\nprint(gc.get_freeze_count())\n"
    args = ("zeros", "--config", str(readme_ini(tmp_path)), "--out", str(tmp_path / "out"))
    proc = run_child("-c", script, *args)
    assert proc.returncode == 0, proc.stderr
    *_, code, _, frozen = proc.stdout.splitlines()
    assert int(code) == 0 and int(frozen) > 0
    before = gc.get_freeze_count()
    assert cli.main(list(args)) == 0
    assert gc.get_freeze_count() == before


def test_prediction_path_loads_no_checking_half(tmp_path):
    # `zeros` and `params` compute the paper's condition alone: they, and a
    # plain import of the package, leave the integrator, the verification
    # layer and numpy unloaded.
    ini = readme_ini(tmp_path)
    for command in ("zeros", "params"):
        loaded = loaded_modules(command, "--config", str(ini), "--out", str(tmp_path / command))
        assert "pendavg.averaging" in loaded and not loaded & CHECKING_HALF, command
        assert "numpy" not in loaded, command
    proc = run_child("-c", "import sys, pendavg; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "pendavg.averaging" in loaded and not loaded & CHECKING_HALF and "numpy" not in loaded


def package_nodes():
    """(module, node) of every syntax node in the package's modules."""
    package = Path(cli.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.stem, node


def package_imports():
    """(module, line, top-level package) of every import statement in the
    package's modules, at the top or inside a function."""
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            yield name, node.lineno, module.split(".")[0]


def test_no_module_but_dop853_imports_numpy():
    # not at the top, and not inside a function either: every module but the
    # DOP853 port has one float code path, so no caller can make it load numpy
    imports = list(package_imports())
    assert {"cli", "expflow", "filippov", "verify", "dop853"} <= {name for name, _, _ in imports}
    assert not [(name, line) for name, line, top in imports if top == "numpy" and name != "dop853"]


def test_no_module_imports_dataclasses():
    # the package's records are NamedTuples or plain classes: the decorator
    # and the inspect, ast and tokenize modules it pulls in cost start-up
    assert not [(name, line) for name, line, top in package_imports() if top == "dataclasses"]


def test_every_imported_name_is_used():
    # a name a module imports and never reads is dead code; the package
    # root's imports are its re-exports, and ``annotations`` is a switch
    imported, used = {}, set()
    for module, node in package_nodes():
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[module, (alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add((module, node.id))
    assert len({module for module, _ in imported}) >= 9
    assert not [(module, name, line) for (module, name), line in imported.items()
                if (module, name) not in used and module != "__init__" and name != "annotations"]


def file_writes():
    """(module, line) of every call in the package that writes or creates a
    file: ``open`` with a mode holding w, a, x or + (or a mode not spelled
    out), ``.write_text``, ``.write_bytes`` and ``.mkdir``."""
    for name, node in package_nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        method = func.attr if isinstance(func, ast.Attribute) else None
        if method in ("write_text", "write_bytes", "mkdir"):
            yield name, node.lineno
        elif method == "open" or isinstance(func, ast.Name) and func.id == "open":
            position = 0 if method else 1
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[position:position + 1]
            if any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+") for mode in modes):
                yield name, node.lineno


def test_only_cli_writes_files():
    # one writer for every artifact: its directory policy and its error
    # mapping (exit 1 naming [output] dir) hold for JSON and CSV alike
    writes = list(file_writes())
    assert {name for name, _ in writes} == {"cli"}, writes


def test_zeros_and_verify_load_neither_dataclasses_nor_inspect(tmp_path):
    ini = readme_ini(tmp_path)
    for command in ("zeros", "verify"):
        loaded = loaded_modules(command, "--config", str(ini), "--out", str(tmp_path / command))
        assert "pendavg.averaging" in loaded, command
        assert not loaded & {"dataclasses", "inspect"}, command


def test_checking_path_loads_no_scipy(tmp_path):
    # Segments are integrated by the exact flow or the in-package DOP853, not
    # scipy.integrate.
    loaded = assert_runs_without_scipy("verify", "--config", str(readme_ini(tmp_path)),
                                       "--out", str(tmp_path / "verify"))
    assert CHECKING_HALF - {"pendavg.dop853"} <= loaded
    assert json.loads((tmp_path / "verify" / "verify.json").read_text())["any_validated"]
    sections = bench_sections(tmp_path / "sim")
    sections["integrate"] = SIMULATE_INTEGRATE
    ini = write_ini(tmp_path / "sim.ini", sections)
    assert_runs_without_scipy("simulate", "--config", str(ini))
    assert_runs_without_scipy("simulate", "--config", str(ini), "--delta", "1e-3",
                              "--out", str(tmp_path / "reg"))
    assert json.loads((tmp_path / "reg" / "simulate_summary.json").read_text())["regularized"]


def corollary_ini(tmp_path):
    """The corollary escapement with convention B, as the benchmark runs it."""
    sections = bench_sections(tmp_path / "out")
    sections["model"]["convention"] = "B"
    sections["perturbation"] = {"builtin": "corollary_escapement", "sigma_d": 1, "sigma_e": 1}
    sections["search"] = {"r1": 0.2, "r2": 3.0, "grid": 8}
    return write_ini(tmp_path / "corollary.ini", sections)


def table_ini(tmp_path):
    """The README config with K₁ = 0.5·cos(ω₁τ) as a table of 256 knots."""
    omega = spectral_data(reduce_params(PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8))).omega1
    taus = [i * 2.0 * math.pi / omega / 256 for i in range(256)]
    (tmp_path / "k1.csv").write_text("".join(f"{tau!r},{GAMMA * math.cos(omega * tau)!r}\n" for tau in taus),
                                     encoding="utf-8")
    (tmp_path / "table.ini").write_text("[perturbation]\nk1 = table:k1.csv\nk2 = const:0.05\nk4 = const:0.05\n"
                                        "f1.d2 = const:-1\nf3.d4 = const:-1\n", encoding="utf-8")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(readme_ini(tmp_path), encoding="utf-8")
    parser["search"]["grid"] = "8"
    parser["perturbation"] = {"file": "table.ini"}
    with open(tmp_path / "table_exp.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)
    return tmp_path / "table_exp.ini"


def test_only_segments_off_the_exact_flow_load_numpy(tmp_path):
    # Every builtin segment takes the exact flow, on Python floats: `verify`
    # on the README config and on the corollary config with both conventions
    # leaves numpy and the DOP853 port unloaded ...
    for args, code in ((("verify", "--config", str(readme_ini(tmp_path))), 0),
                       (("verify", "--compare-conventions", "--config", str(corollary_ini(tmp_path))), 3)):
        loaded = loaded_modules(*args, "--out", str(tmp_path / "out"), code=code)
        assert "pendavg.expflow" in loaded and not {"numpy", "pendavg.dop853"} & loaded, args
    # ... and the regularized run and a table forcing, which run on DOP853,
    # import it when their first segment needs it
    sections = bench_sections(tmp_path / "sim")
    sections["integrate"] = SIMULATE_INTEGRATE
    ini = write_ini(tmp_path / "sim.ini", sections)
    assert {"numpy", "pendavg.dop853"} <= loaded_modules("simulate", "--config", str(ini), "--delta", "1e-3")
    loaded = loaded_modules("verify", "--config", str(table_ini(tmp_path)), "--out", str(tmp_path / "table"))
    assert {"numpy", "pendavg.dop853"} <= loaded
    assert json.loads((tmp_path / "table" / "verify.json").read_text())["any_validated"]


@pytest.mark.parametrize("config", [readme_ini, table_ini], ids=["readme", "table"])
def test_simulate_reproduces_a_verify_rung(tmp_path, config):
    # `simulate` from a rung's first row, at its ε and over its window,
    # rewrites the rung byte for byte: on the exact flow, and on DOP853 (a
    # table forcing), where the rung carries Φ beside the state
    ini = config(tmp_path)
    assert cli.main(["verify", "--config", str(ini), "--out", str(tmp_path / "verify")]) == 0
    rung = tmp_path / "verify" / "zero0_eps0"
    rung_csv = rung.with_suffix(".trajectory.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in rung_csv.splitlines()[1:]]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ini, encoding="utf-8")
    parser["integrate"] = {"eps": parser["sweep"]["eps"].split()[0], "s0": " ".join(rows[0][1:5]),
                           "t_span": f"0 {rows[-1][0]}"}
    with open(tmp_path / "rung.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert cli.main(["simulate", "--config", str(tmp_path / "rung.ini"), "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "trajectory.csv").read_text(encoding="utf-8") == rung_csv
    assert (tmp_path / "sim" / "events.csv").read_bytes() == rung.with_suffix(".events.csv").read_bytes()


def test_model_seed_is_accepted_and_changes_nothing(tmp_path, capsys):
    # benchmark configs set [model] seed, so the key stays accepted; the
    # search is deterministic and the seed reaches no artifact
    text = readme_ini(tmp_path).read_text(encoding="utf-8")
    assert "seed = 0\n" in text
    artifacts = []
    for seed in ("0", "5"):
        ini = tmp_path / f"seed{seed}.ini"
        ini.write_text(text.replace("seed = 0\n", f"seed = {seed}\n"), encoding="utf-8")
        out = tmp_path / f"out{seed}"
        assert cli.main(["zeros", "--config", str(ini), "--out", str(out)]) == 0
        artifacts.append((out / "zeros.json").read_bytes())
    assert artifacts[0] == artifacts[1]
    ini.write_text(text.replace("seed = 0\n", "seed = x\n"), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["zeros", "--config", str(ini), "--out", str(tmp_path / "bad")]) == 1
    assert "[model] seed" in capsys.readouterr().err


def test_readme_library_example_runs():
    # the example imports every name the package root keeps
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    proc = run_child("-c", block)
    assert proc.returncode == 0, proc.stderr
    exponent, consistent = proc.stdout.split()
    assert math.isfinite(float(exponent)) and consistent == "True"


def test_readme_lists_the_builtins_as_their_entries():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```text\n(.*?)```", readme, flags=re.S)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    assert {name: dict(parser[name]) for name in parser.sections()} == BUILTINS


def test_readme_experiment_file_states_the_table_defaults():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    rows = {(section, key): row for section, key, *row in cli.CONFIG_TABLE}
    params = BUILTIN_PARAMS[parser["perturbation"]["builtin"]]
    for section in parser.sections():
        for key, text in parser[section].items():
            if section == "perturbation":
                assert (section, key) in rows or key in params, (section, key)
                continue
            _, default, *rule = rows[section, key]
            assert default is not None, (section, key)
            where = f"[{section}] {key}"
            assert parse_keyed(where, text, *rule) == parse_keyed(where, default, *rule), where


def test_setup_probe_runs_on_every_workload(tmp_path, monkeypatch):
    # the benchmark's setup_s comes from this script, which reads the config API
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        ini = workload.write_ini(tmp_path / f"{name}.ini", seed=7)
        proc = run_child(str(REPO / "perfbench" / "setup_probe.py"), str(ini))
        assert proc.returncode == 0, (name, proc.stderr)
        assert math.isfinite(float(proc.stdout)), (name, proc.stdout)


def _traced_counts(tmp_path, monkeypatch, name):
    # the benchmark's per-layer counts read the trajectory and refinement
    # records by field name; a renamed field would read 0, not fail
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.chdir(tmp_path)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ini = workload.write_ini(tmp_path / "verify.ini", seed=7)
    proc = run_child(str(REPO / "perfbench" / "traced_cli.py"), str(tmp_path / "trace"), "--",
                     *workload.cli_args(ini))
    assert proc.returncode == workload.expected_exit, proc.stderr
    layers = json.loads((tmp_path / "trace" / "layers.json").read_text(encoding="utf-8"))
    counts = ("filippov.integrations", "filippov.steps", "filippov.events",
              "verify.refine_converged", "verify.refine_integrations")
    return tuple(layers[count] for count in counts)


def test_traced_counts_of_verify_escapement(tmp_path, monkeypatch):
    assert _traced_counts(tmp_path, monkeypatch, "verify-escapement") == (12, 504, 48, 4, 8)


def test_traced_counts_of_compare_corollary(tmp_path, monkeypatch):
    assert _traced_counts(tmp_path, monkeypatch, "compare-corollary") == (16, 672, 64, 0, 8)


def test_benchmark_checks_pass_on_every_workload(tmp_path, monkeypatch, capsys):
    # the gate that decides whether a benchmark operation failed, fed the
    # artifacts of each workload run in process
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    from checks import Outcome, check_operation
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        ini = workload.write_ini(run_dir / "workload.ini", seed=7)
        code = cli.main(list(workload.cli_args(ini)))
        assert code == workload.expected_exit, (name, capsys.readouterr().err)
        outcome = check_operation(name, code, workload.expected_exit, run_dir / "out")
        assert outcome == Outcome(failure=None, problems=[]), name


def test_pair_bench_refuses_fewer_than_two_pairs(tmp_path):
    # a tree whose CLI leaves a mark when run: the refusal comes before any run
    marker = tmp_path / "spawned"
    package = tmp_path / "src" / "pendavg"
    package.mkdir(parents=True)
    (package / "cli.py").write_text("", encoding="utf-8")
    (package / "__main__.py").write_text(f"open({str(marker)!r}, 'w').close()\n", encoding="utf-8")
    src = str(tmp_path / "src")
    proc = run_child(str(REPO / "scripts" / "pair_bench.py"), src, src, "--pairs", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: pair_bench.py")
    assert "--pairs must be at least 2" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not marker.exists()


@pytest.mark.parametrize("extra, message", [
    (("--config", "{ini}"), "--config and --command go together"),
    (("--command", "zeros"), "--config and --command go together"),
    (("--config", "{missing}", "--command", "zeros"), "no experiment file"),
    (("--command", "simulate"), "--config and --command go together"),
    (("--config", "{ini}", "--command", "params"), "argument --command: invalid choice: 'params'"),
    (("--config", "{ini}", "--command", "zeros", "--config", "{ini}"), "--config and --command go together"),
    (("--config", "{ini}", "--command", "zeros", "--command", "verify"), "--config and --command go together"),
    (("--config", "{ini}", "--command", "zeros", "--config", "{missing}", "--command", "verify"),
     "no experiment file"),
])
def test_pair_bench_refuses_a_config_loop_it_cannot_run(tmp_path, extra, message):
    # the same marking tree: each refusal comes before any run; `simulate`
    # is a command the loop takes, `params` is not, and the flags repeat
    # in pairs, each experiment file present
    marker = tmp_path / "spawned"
    package = tmp_path / "src" / "pendavg"
    package.mkdir(parents=True)
    (package / "cli.py").write_text("", encoding="utf-8")
    (package / "__main__.py").write_text(f"open({str(marker)!r}, 'w').close()\n", encoding="utf-8")
    (tmp_path / "exp.ini").write_text("", encoding="utf-8")
    extra = [arg.format(ini=tmp_path / "exp.ini", missing=tmp_path / "missing.ini") for arg in extra]
    src = str(tmp_path / "src")
    proc = run_child(str(REPO / "scripts" / "pair_bench.py"), src, src, *extra)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: pair_bench.py")
    assert message in proc.stderr
    assert not marker.exists()


@pytest.mark.parametrize("parent, change, verdict", [
    ([1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.9], "better in every run"),
    ([1.0, 2.0, 3.0, 4.0], [0.9, 2.5, 3.0, 5.0], "unresolved"),
    ([1.0, 1.01, 1.02, 1.03], [1.0, 1.1, 1.2, 1.25], "no regression"),
    ([1.0, 1.01, 1.02, 1.03], [1.3, 1.4, 1.5, 1.6], "regression"),
])
def test_pair_bench_no_regression_verdict(monkeypatch, parent, change, verdict):
    # the parent's interquartile range is its median in the first two cases
    # and about 0.025 of it in the last two; 0.25 is the run_s bound
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    from pair_bench import no_regression_verdict

    assert no_regression_verdict(parent, change, 0.25) == verdict


@pytest.mark.parametrize("left, right, line", [
    ("zeros: 1\n", "zeros: 1\n", "output identical"),
    ("a\nb\n", "a\nc\n", "output differs at line 2: parent 'b\\n', change 'c\\n'"),
    ("a\n", "a\nerror: x\n", "output differs at line 2: parent '', change 'error: x\\n'"),
    ("a\nb", "a\nb\n", "output differs at line 2: parent 'b', change 'b\\n'"),
], ids=["identical", "changed-line", "extra-line", "final-newline"])
def test_pair_bench_output_difference(monkeypatch, left, right, line):
    # the two sides' combined stdout and stderr, compared line by line
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    from pair_bench import output_difference

    assert output_difference(left, right) == line


def test_pair_bench_compile_ms(monkeypatch, tmp_path):
    # every pendavg/*.py file, and nothing else, compiled once a round in each of 15 rounds
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    import pair_bench

    package = tmp_path / "pendavg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\n", encoding="utf-8")
    (package / "b.py").write_text("def f():\n    return 2\n", encoding="utf-8")
    (package / "notes.txt").write_text("not python", encoding="utf-8")
    compiled = []

    def counted_compile(source, name, mode, **flags):
        compiled.append((Path(name).name, mode, flags))
        return compile(source, name, mode, **flags)

    monkeypatch.setattr(pair_bench, "compile", counted_compile, raising=False)
    ms = pair_bench.compile_ms(tmp_path)
    assert sorted(compiled) == sorted([("a.py", "exec", {"dont_inherit": True}),
                                       ("b.py", "exec", {"dont_inherit": True})] * 15)
    assert 0.0 < ms < 1000.0


def test_pair_bench_changed_modules(monkeypatch, tmp_path):
    # newlines per pendavg/*.py module as wc -l counts them; the changed
    # modules by name, one that a tree lacks counting 0 lines there
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    from pair_bench import changed_modules, source_lines

    texts = {"parent": {"a.py": "x = 1\n", "b.py": "def f():\n    return 2\n", "gone.py": "y = 3\n"},
             "change": {"a.py": "x = 1\n", "b.py": "def f():\n    return 2  # no newline", "new.py": "\n\n"}}
    for side, files in texts.items():
        (tmp_path / side / "pendavg").mkdir(parents=True)
        (tmp_path / side / "pendavg" / "notes.txt").write_text("not\npython\n", encoding="utf-8")
        for name, text in files.items():
            (tmp_path / side / "pendavg" / name).write_text(text, encoding="utf-8")
    parent, change = source_lines(tmp_path / "parent"), source_lines(tmp_path / "change")
    assert parent == {"a": 1, "b": 2, "gone": 1} and change == {"a": 1, "b": 1, "new": 2}
    assert changed_modules(parent, change) == "b 2 → 1, gone 1 → 0, new 0 → 2"
    assert changed_modules(parent, parent) == ""


@pytest.mark.parametrize("pairs, order", [(2, [0, 1, 1, 0]), (3, [0, 1, 1, 0, 0, 1])], ids=["two", "three"])
def test_pair_bench_alternates_the_side_that_goes_first(monkeypatch, pairs, order):
    # set-up probes and CLI runs alike: each side's results in its order
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    from pair_bench import alternate

    calls = []

    def measure(side):
        calls.append(side)
        return len(calls)

    runs = alternate(pairs, measure)
    assert calls == order
    assert runs == tuple([i + 1 for i, side in enumerate(order) if side == s] for s in (0, 1))


def test_derive_oracles_check_runs():
    # the only source of the frozen literals must keep running against the package
    proc = run_child(str(REPO / "scripts" / "derive_oracles.py"), "--check")
    assert proc.returncode == 0, proc.stderr
    assert "package escapement zero" in proc.stdout
