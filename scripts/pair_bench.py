"""Time two ``pendavg`` source trees against each other in alternating pairs.

Usage:
    python scripts/pair_bench.py PARENT_SRC CHANGE_SRC [--workload NAME ...]
                                 [--pairs N] [--config PATH --command CMD ...]

PARENT_SRC and CHANGE_SRC are ``src/`` directories, each holding a
``pendavg`` package.  First the script prints each tree's source lines,
the newlines of its ``pendavg/*.py`` files as ``wc -l`` counts them, each
beside the milliseconds this interpreter takes to ``compile()`` them all
(median of 15 rounds), and the change's net lines against the parent,
then each module whose line count changed, as "verify 523 → 473".  For
every workload of ``perfbench/workloads.py`` (all three by default) the
script copies each tree's ``pendavg`` package to ``<tmp>/parent/src`` and
``<tmp>/change/src``, two paths of equal length, so that the two sides
differ in their code alone.  It then writes the workload's INI file once,
with ``[model] seed = 0`` (the key has no effect, so no seed is taken),
and runs N pairs, N at least 2.  A pair is one CLI invocation on each
copy, each in a fresh interpreter (``python -m pendavg`` with
``PYTHONPATH`` set to the copy), as the benchmark times ``run_s``; the
tree that goes first alternates from pair to pair.  Every invocation must
end with the workload's expected exit code.  Before the CLI pairs it runs
N pairs of the benchmark's set-up probe, ``perfbench/setup_probe.py``, in
the same alternation, each timed by ``probe_setup`` of
``perfbench/run.py`` as the benchmark times ``setup_s``: from the spawn of
a fresh interpreter to the end of the workload's set-up.

Per workload it prints each side's median and quartiles, the number of
pairs the change won, and whether the pair rule holds: at least 10 pairs,
the change faster in at least nine of every ten (ties count for neither),
and a median gap larger than the parent's interquartile range.  It also
prints each side's median peak RSS, the child's ``ru_maxrss`` from
``os.wait4``, and median set-up seconds, each with its quartiles.  For
wall time (``run_s``), peak RSS (``peak_rss_mb``) and set-up time
(``setup_s``) each it prints the no-regression verdict of
`no_regression_verdict` under that metric's relative bound in the
``end_to_end`` entries of ``BENCHMARK.json``.  On Linux a child's
``ru_maxrss`` starts from the RSS of the process that forks it.  This
script loads numpy with ``perfbench/run.py``, so a bare interpreter forks
each CLI run and the figure is the child's own peak.  ``perfbench/run.py`` forks from
a process with numpy loaded, so a child that stays below that floor of
about 30 MB reads lower here than the benchmark's ``peak_rss_mb``.
Then it compares the ``out/`` trees the two sides' last runs wrote, byte
for byte, and prints "artifacts identical" or the files that differ.  For
each JSON or CSV file that both sides wrote and that differs, it prints
the largest relative difference |a − b| / max(|a|, |b|) over the file's
float values (JSON numbers with a fraction or exponent, CSV cells that
are not integers), field by field (a JSON key path with list indices
dropped, or a CSV column) with the largest absolute difference beside
it, and lists every other difference: strings, integers, booleans,
nulls, key sets, list lengths and row counts.  Last, it compares the two
sides' last ``stdout.log``, each the CLI's stdout and stderr joined, and
prints "output identical" or the first line that differs.

With ``--config PATH --command zeros|verify|simulate`` it runs one more
pair loop, after the workloads, on that experiment file (a table config,
or a ``simulate`` config with ``[integrate] delta``, say, which no
workload has): each side runs ``python -m pendavg CMD --config PATH
--out out`` in its own directory, both sides must end with the parent's
first exit code, and the same wall, RSS, artifact and output lines are
printed.  The set-up probe reads only the workloads, so this loop has
none.  Both flags repeat: the i-th ``--config`` runs the i-th
``--command``, one loop each, in the order given, and the two counts
must match.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
from run import BenchError, probe_setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Seconds one set-up probe may take before it counts as failed.
PROBE_TIMEOUT_S = 60.0


# Runs the command in its arguments, its stderr joined to its stdout, and
# prints its wall seconds, exit code and ru_maxrss in KiB on stderr.  A
# Linux child's ru_maxrss starts from the RSS of the process that forks it;
# this bare interpreter's is below every workload's peak, where the RSS of
# this script, with numpy loaded, is above it.
TIMER = """\
import os, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stderr=subprocess.STDOUT)
_, status, usage = os.wait4(proc.pid, 0)
print(time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def child_env(src: Path) -> dict:
    """The environment of a child on ``src``, as the benchmark's."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PENDAVG_THREADS", None)
    return env


def setup_seconds(src: Path, ini: Path, run_dir: Path) -> float:
    """Seconds from spawning ``perfbench/setup_probe.py`` on ``src`` to the
    end of the workload's set-up, timed by the benchmark's own
    ``probe_setup``, its stderr written to ``run_dir/setup.log``."""
    try:
        return probe_setup(ini, run_dir, child_env(src), PROBE_TIMEOUT_S)
    except BenchError as exc:
        raise SystemExit(f"set-up probe on {src}: {exc}") from None


class ConfigRun:
    """One CLI invocation on a given experiment file, shaped as a workload:
    its output goes to ``out`` in the run's directory, and its expected
    exit code is that of its first run, the parent's."""

    def __init__(self, config: Path, command: str):
        self.name = f"{command} {config.name}"
        self.config, self.command, self.expected_exit = config, command, None

    def write_ini(self, path: Path, seed: int) -> Path:
        return self.config

    def cli_args(self, ini: Path) -> Tuple[str, ...]:
        return (self.command, "--config", str(self.config), "--out", "out")


def timed_run(src: Path, workload, ini: Path, run_dir: Path) -> Tuple[float, float]:
    """Wall seconds and peak RSS in MB of one fresh-interpreter CLI
    invocation on ``src``, forked, timed and read by ``TIMER``, its output
    written to ``run_dir/stdout.log``.  A workload without an expected
    exit code takes this run's."""
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    cmd = [sys.executable, "-c", TIMER, sys.executable, "-m", "pendavg", *workload.cli_args(Path(ini.name))]
    # The child writes to a file, as the benchmark's runs do: its peak RSS
    # differs when it writes to /dev/null.
    with open(run_dir / "stdout.log", "w", encoding="utf-8") as log:
        timer = subprocess.run(cmd, cwd=run_dir, env=child_env(src), stdout=log, stderr=subprocess.PIPE,
                               text=True, check=True)
    wall, code, peak = timer.stderr.split()
    if workload.expected_exit is None:
        workload.expected_exit = int(code)
    if int(code) != workload.expected_exit:
        raise SystemExit(f"{workload.name} on {src}: exit {code}, expected {workload.expected_exit}")
    return float(wall), int(peak) / 1024.0


def alternate(pairs: int, measure) -> Tuple[list, list]:
    """``measure(side)`` for side 0, the parent, and 1, the change, in
    ``pairs`` pairs, the side that goes first alternating from pair to
    pair; each side's results in its order."""
    runs = ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(measure(side))
    return runs


def output_difference(left: str, right: str) -> str:
    """"output identical" when two runs' combined stdout and stderr agree,
    else the first line that differs, numbered from 1."""
    if left == right:
        return "output identical"
    lines = (left.splitlines(keepends=True), right.splitlines(keepends=True))
    n = next((i for i, (a, b) in enumerate(zip(*lines)) if a != b), min(map(len, lines)))
    parent, change = (side[n] if n < len(side) else "" for side in lines)
    return f"output differs at line {n + 1}: parent {parent!r}, change {change!r}"


def source_lines(src: Path) -> Dict[str, int]:
    """Newlines in each ``pendavg/*.py`` file under ``src``, as ``wc -l``
    counts them, by module name."""
    return {path.stem: path.read_bytes().count(b"\n") for path in (src / "pendavg").glob("*.py")}


def changed_modules(parent: Dict[str, int], change: Dict[str, int]) -> str:
    """Each module whose line count differs between two trees, by name, as
    "verify 523 → 473"; a module that one tree lacks has 0 lines there."""
    return ", ".join(f"{name} {parent.get(name, 0)} → {change.get(name, 0)}"
                     for name in sorted(parent.keys() | change.keys()) if parent.get(name) != change.get(name))


def compile_ms(src: Path, rounds: int = 15) -> float:
    """Median milliseconds, over ``rounds`` rounds, to ``compile()`` every
    ``pendavg/*.py`` file under ``src`` in this process."""
    sources = [(path.read_bytes(), str(path)) for path in (src / "pendavg").glob("*.py")]
    times = timeit.repeat(lambda: [compile(text, name, "exec", dont_inherit=True) for text, name in sources],
                          number=1, repeat=rounds)
    return 1000.0 * statistics.median(times)


def differing_files(left: Path, right: Path) -> list:
    """The relative paths of the files that differ between two trees,
    byte for byte, or that only one of them holds."""
    names = {path.relative_to(root) for root in (left, right) for path in root.rglob("*") if path.is_file()}
    return sorted(str(name) for name in names
                  if not ((left / name).is_file() and (right / name).is_file()
                          and (left / name).read_bytes() == (right / name).read_bytes()))


def _cell(text: str):
    """A CSV cell as an int, a float or its text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read(path: Path):
    """A JSON file's value, a CSV file's rows keyed by column, or None."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.suffix == ".json":
            return json.load(fh)
        if path.suffix == ".csv":
            return [{key: _cell(value) for key, value in row.items()} for row in csv.DictReader(fh)]
    return None


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(left, right, field: str, drift: Dict[str, Tuple[float, float]], other: List[str]) -> None:
    """Compare two decoded values: the largest relative and absolute
    differences of each field's floats go into ``drift``, every other
    difference into ``other``.  A 17-significant-digit writer prints
    the float 0.0 as ``0``, so two numbers count as floats when either
    is one."""
    if _number(left) and _number(right) and float in (type(left), type(right)):
        left, right = float(left), float(right)
        scale = max(abs(left), abs(right))
        rel = 0.0 if left == right else abs(left - right) / scale if math.isfinite(scale) else math.inf
        worst = drift.get(field, (0.0, 0.0))
        drift[field] = (max(worst[0], rel), max(worst[1], abs(left - right) if rel else 0.0))
    elif isinstance(left, dict) and isinstance(right, dict):
        if left.keys() != right.keys():
            other.append(f"{field or '.'}: keys {sorted(left.keys() ^ right.keys())} on one side only")
        for key in left.keys() & right.keys():
            _walk(left[key], right[key], f"{field}.{key}" if field else str(key), drift, other)
    elif isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            other.append(f"{field or 'rows'}: {len(left)} entries against {len(right)}")
        for a, b in zip(left, right):
            _walk(a, b, f"{field}[]", drift, other)
    elif type(left) is not type(right) or left != right:
        other.append(f"{field}: {left!r} against {right!r}")


def drift_lines(left: Path, right: Path, differ: List[str]) -> List[str]:
    """For each differing file of two trees, its largest relative float
    difference, field by field, and one line per other difference."""
    lines = []
    for relative in differ:
        paths = (left / relative, right / relative)
        if not all(path.is_file() for path in paths):
            lines.append(f"  {relative}: written by one side only")
            continue
        drift, other = {}, []
        values = [_read(path) for path in paths]
        if values[0] is None:
            other.append("not JSON or CSV")
        else:
            _walk(*values, "", drift, other)
        fields = sorted(drift.items(), key=lambda item: -item[1][0])
        largest = fields[0][1][0] if fields else 0.0
        lines.append(f"  {relative}: largest relative float difference {largest:.2g}"
                     + "".join(f"; {field} {rel:.2g} (absolute {diff:.2g})"
                               for field, (rel, diff) in fields if rel > 0.0))
        lines += [f"  {relative}: non-float difference: {line}" for line in other]
    return lines


def pair_rule(parent, change) -> dict:
    """Quartiles of both sides, wins of the change and the rule's verdict."""
    parent_q = statistics.quantiles(parent, n=4)
    change_q = statistics.quantiles(change, n=4)
    wins = sum(c < p for p, c in zip(parent, change))
    iqr = parent_q[2] - parent_q[0]
    return {
        "parent": parent_q,
        "change": change_q,
        "wins": wins,
        "holds": len(parent) >= 10 and 10 * wins >= 9 * len(parent) and parent_q[1] - change_q[1] > iqr,
    }


def no_regression_verdict(parent, change, bound: float) -> str:
    """The verdict on a lower-is-better metric: "better in every run" when
    every change run beats every parent run; otherwise "unresolved" when
    the parent's interquartile range exceeds ``bound`` times its median;
    otherwise "no regression" when the change's median is at most the
    parent's times (1 + bound); otherwise "regression"."""
    parent_q = statistics.quantiles(parent, n=4)
    if max(change) < min(parent):
        return "better in every run"
    if parent_q[2] - parent_q[0] > bound * parent_q[1]:
        return "unresolved"
    if statistics.median(change) <= parent_q[1] * (1.0 + bound):
        return "no regression"
    return "regression"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--config", action="append", type=Path, default=[],
                        help="an experiment file for one more pair loop; repeats")
    parser.add_argument("--command", action="append", choices=("zeros", "verify", "simulate"), default=[],
                        help="the subcommand run on the --config of the same place; repeats")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, got {args.pairs}: the quartiles need two runs a side")
    if len(args.config) != len(args.command):
        parser.error("--config and --command go together, one --command per --config")
    for config in args.config:
        if not config.is_file():
            parser.error(f"no experiment file {config}")
    trees = [args.parent.resolve(), args.change.resolve()]
    for src in trees:
        if not (src / "pendavg" / "cli.py").is_file():
            parser.error(f"no pendavg package under {src}")
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    modules = [source_lines(src) for src in trees]
    lines = [sum(counts.values()) for counts in modules]
    ms = [compile_ms(src) for src in trees]
    print(f"source lines: parent {lines[0]} (compile {ms[0]:.1f} ms), change {lines[1]} (compile {ms[1]:.1f} ms), "
          f"net {lines[1] - lines[0]:+d}")
    print(f"modules changed: {changed_modules(*modules) or 'none'}")
    workloads = [WORKLOADS[name] for name in args.workload or sorted(WORKLOADS)]
    workloads += [ConfigRun(config.resolve(), command) for config, command in zip(args.config, args.command)]
    for workload in workloads:
        name = workload.name
        with tempfile.TemporaryDirectory(prefix="pair_bench_") as tmp:
            run_dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
            inis = []
            for src, run_dir in zip(trees, run_dirs):
                shutil.copytree(src / "pendavg", run_dir / "src" / "pendavg",
                                ignore=shutil.ignore_patterns("__pycache__"))
                inis.append(workload.write_ini(run_dir / "workload.ini", seed=0))
            setups = None
            if not isinstance(workload, ConfigRun):
                setups = alternate(args.pairs, lambda side: setup_seconds(
                    run_dirs[side] / "src", inis[side], run_dirs[side]))
            runs = alternate(args.pairs, lambda side: timed_run(
                run_dirs[side] / "src", workload, inis[side], run_dirs[side]))
            walls = [[wall for wall, _ in side] for side in runs]
            rss = [[peak for _, peak in side] for side in runs]
            outs = [run_dir / "out" for run_dir in run_dirs]
            differ = differing_files(*outs)
            drift = drift_lines(*outs, differ)
            output = output_difference(*((run_dir / "stdout.log").read_text(encoding="utf-8")
                                         for run_dir in run_dirs))
        result = pair_rule(*walls)
        sides = ", ".join(f"{side} {q[1]:.4f} s [{q[0]:.4f}, {q[2]:.4f}]" for side, q in
                          (("parent", result["parent"]), ("change", result["change"])))
        print(f"{name}: {sides}; change faster in {result['wins']} of {args.pairs}, "
              f"pair rule {'holds' if result['holds'] else 'fails'}; "
              f"run_s {no_regression_verdict(*walls, bounds['run_s'])} (bound {bounds['run_s']:g})")
        peaks = ", ".join(f"{side} {q[1]:.2f} MB [{q[0]:.2f}, {q[2]:.2f}]" for side, q in
                          zip(("parent", "change"), (statistics.quantiles(r, n=4) for r in rss)))
        print(f"{name}: peak RSS {peaks}; "
              f"peak_rss_mb {no_regression_verdict(*rss, bounds['peak_rss_mb'])} (bound {bounds['peak_rss_mb']:g})")
        if setups is not None:
            setup = ", ".join(f"{side} {q[1]:.4f} s [{q[0]:.4f}, {q[2]:.4f}]" for side, q in
                              zip(("parent", "change"), (statistics.quantiles(r, n=4) for r in setups)))
            print(f"{name}: set-up {setup}; "
                  f"setup_s {no_regression_verdict(*setups, bounds['setup_s'])} (bound {bounds['setup_s']:g})")
        print(f"{name}: " + (f"artifacts differ: {', '.join(differ)}" if differ else "artifacts identical"))
        for line in drift:
            print(line)
        print(f"{name}: {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
