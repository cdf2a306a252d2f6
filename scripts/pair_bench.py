"""Time two ``pendavg`` source trees against each other in alternating pairs.

Usage:
    python scripts/pair_bench.py PARENT_SRC CHANGE_SRC [--workload NAME ...]
                                 [--pairs N] [--seed S]

PARENT_SRC and CHANGE_SRC are ``src/`` directories, each holding a
``pendavg`` package.  For every workload of ``perfbench/workloads.py``
(all three by default) the script writes the workload's INI file once and
runs N pairs.  A pair is one CLI invocation on each tree, each in a fresh
interpreter (``python -m pendavg`` with ``PYTHONPATH`` set to the tree), as
the benchmark times ``run_s``; the tree that goes first alternates from
pair to pair.  Every invocation must end with the workload's expected exit
code.

Per workload it prints each side's median and quartiles, the number of
pairs the change won, and whether the pair rule holds: at least 10 pairs,
the change faster in at least nine of every ten (ties count for neither),
and a median gap larger than the parent's interquartile range.  It also
prints each side's median peak RSS, the child's ``ru_maxrss`` from
``os.wait4`` as the benchmark reads ``peak_rss_mb``, with its quartiles.
On Linux a child's ``ru_maxrss`` starts from the RSS of the process that
spawned it, which is lower here than in ``perfbench/run.py`` (that
one has numpy loaded), so a child that stays below the benchmark's floor
of about 30 MB reads lower here than in the benchmark.
Last, it compares the ``out/`` trees the two sides' last runs wrote, byte
for byte, and prints "artifacts identical" or the files that differ.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def timed_run(src: Path, workload, ini: Path, run_dir: Path) -> Tuple[float, float]:
    """Wall seconds and peak RSS in MB of one fresh-interpreter CLI
    invocation on ``src``, its output written to ``run_dir/stdout.log``."""
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PENDAVG_THREADS", None)
    cmd = [sys.executable, "-m", "pendavg", *workload.cli_args(Path(ini.name))]
    # The child writes to a file, as the benchmark's runs do: its peak RSS
    # differs when it writes to /dev/null.
    with open(run_dir / "stdout.log", "w", encoding="utf-8") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != workload.expected_exit:
        raise SystemExit(f"{workload.name} on {src}: exit {code}, expected {workload.expected_exit}")
    return wall, usage.ru_maxrss / 1024.0


def differing_files(left: Path, right: Path) -> list:
    """The relative paths of the files that differ between two trees,
    byte for byte, or that only one of them holds."""
    names = {path.relative_to(root) for root in (left, right) for path in root.rglob("*") if path.is_file()}
    return sorted(str(name) for name in names
                  if not ((left / name).is_file() and (right / name).is_file()
                          and (left / name).read_bytes() == (right / name).read_bytes()))


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for src in trees:
        if not (src / "pendavg" / "cli.py").is_file():
            parser.error(f"no pendavg package under {src}")
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(prefix="pair_bench_") as tmp:
            run_dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
            inis = []
            for run_dir in run_dirs:
                run_dir.mkdir()
                inis.append(workload.write_ini(run_dir / "workload.ini", args.seed))
            walls, rss = ([], []), ([], [])
            for i in range(args.pairs):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    wall, peak = timed_run(trees[side], workload, inis[side], run_dirs[side])
                    walls[side].append(wall)
                    rss[side].append(peak)
            differ = differing_files(*(run_dir / "out" for run_dir in run_dirs))
        result = pair_rule(*walls)
        sides = ", ".join(f"{side} {q[1]:.4f} s [{q[0]:.4f}, {q[2]:.4f}]" for side, q in
                          (("parent", result["parent"]), ("change", result["change"])))
        print(f"{name}: {sides}; change faster in {result['wins']} of {args.pairs}, "
              f"pair rule {'holds' if result['holds'] else 'fails'}")
        peaks = ", ".join(f"{side} {q[1]:.2f} MB [{q[0]:.2f}, {q[2]:.2f}]" for side, q in
                          zip(("parent", "change"), (statistics.quantiles(r, n=4) for r in rss)))
        print(f"{name}: peak RSS {peaks}")
        print(f"{name}: " + (f"artifacts differ: {', '.join(differ)}" if differ else "artifacts identical"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
