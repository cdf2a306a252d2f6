"""End-to-end and per-layer benchmark of the ``pendavg`` CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, and the run fails without a result when that directory
holds no ``pendavg`` package.  Each operation is one CLI invocation in a fresh
interpreter on a generated INI file (``perfbench/workloads.py``) with
``PENDAVG_THREADS`` unset.  Operations repeat, one after another, until S
seconds have passed (at least one), and every one is checked against
computations made apart from the program (``perfbench/checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics: the median wall
time and peak resident memory of one invocation, and the median set-up time
(import, config and model set-up, in a fresh interpreter) over
``SETUP_REPEATS`` probes.  With ``--trace 1`` each invocation runs under the
layer tracer (``perfbench/tracer.py``) and the run reports per-layer figures
instead.  The last line of standard output is one JSON object.  Generated
configs, CLI artifacts and span dumps go to ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import Outcome, check_operation
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# Every run ends within this many seconds of its start, finished or not.
RUN_LIMIT_S = 175.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.config_ms": "ms",
    "cli.write_ms": "ms",
    "cli.artifact_bytes": "bytes",
    "model.setup_ms": "ms",
    "perturbation.forcing_evals": "count",
    "perturbation.forcing_eval_us": "us",
    "perturbation.scalar_calls": "count",
    "averaging.search_s": "s",
    "averaging.g_evals": "count",
    "averaging.g_eval_ms": "ms",
    "averaging.g_evals_per_start": "evals/start",
    "averaging.jacobian_g_evals": "count",
    "averaging.sign_change_ms": "ms",
    "averaging.newton_starts": "count",
    "averaging.newton_converged": "count",
    "averaging.newton_trivial_basin": "count",
    "averaging.newton_no_convergence": "count",
    "filippov.integrations": "count",
    "filippov.integrate_ms": "ms",
    "filippov.steps": "count",
    "filippov.events": "count",
    "filippov.forcing_evals_per_step": "evals/step",
    "verify.sweep_s": "s",
    "verify.poincare_runs": "count",
    "verify.poincare_ms": "ms",
    "verify.refine_runs": "count",
    "verify.refine_converged": "count",
    "verify.refine_integrations": "count",
    "verify.refine_ms": "ms",
    "cli.self_s": "s",
    "model.self_s": "s",
    "perturbation.self_s": "s",
    "averaging.self_s": "s",
    "filippov.self_s": "s",
    "verify.self_s": "s",
    "trace.run_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot measure: no program, or set-up is broken."""


@dataclass
class Operation:
    exit_code: int | None
    wall_s: float
    rss_mb: float
    layers: dict = field(default_factory=dict)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(cmd, cwd: Path, env: dict, log: Path, timeout: float):
    """Run ``cmd`` to its end; return (exit code or None on timeout, wall s, rusage)."""
    with open(log, "w", encoding="utf-8") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, [proc.pid])
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    return (None if timed_out else proc.returncode), wall, usage


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def probe_setup(ini: Path, run_dir: Path, env: dict, timeout: float) -> float:
    """Seconds from spawning a fresh interpreter to the end of workload set-up."""
    log = run_dir / "setup.log"
    cmd = [sys.executable, str(HERE / "setup_probe.py"), ini.name]
    with open(log, "w", encoding="utf-8") as fh:
        t0 = perf_counter()
        try:
            done = subprocess.run(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                                  stderr=fh, text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up probe timed out") from exc
    try:
        t_done = float(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        t_done = None
    if done.returncode != 0 or t_done is None:
        raise BenchError(f"set-up probe failed (exit {done.returncode}); see {log}")
    return t_done - t0


def run_operation(workload, ini: Path, run_dir: Path, env: dict, trace: bool, timeout: float) -> Operation:
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    cli_args = workload.cli_args(Path(ini.name))
    if trace:
        dump = run_dir / "trace"
        shutil.rmtree(dump, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(dump), "--", *cli_args]
    else:
        cmd = [sys.executable, "-m", "pendavg", *cli_args]
    code, wall, usage = _spawn(cmd, run_dir, env, run_dir / "op.log", timeout)
    op = Operation(exit_code=code, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0)
    if trace and code is not None:
        try:
            with open(run_dir / "trace" / "layers.json", encoding="utf-8") as fh:
                op.layers = json.load(fh)
        except (OSError, ValueError):
            return op
        op.layers["cli.artifact_bytes"] = _dir_bytes(out) if out.is_dir() else 0
        op.layers["trace.run_s"] = wall
    return op


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = perf_counter()

    root = HERE.parent
    src = root / "src"
    if not (src / "pendavg" / "cli.py").is_file():
        print(f"perfbench: no pendavg package under {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = root / ".perfbench_out" / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ini = workload.write_ini(run_dir / "workload.ini", args.seed)
    env = dict(os.environ)
    env.pop("PENDAVG_THREADS", None)
    env["PYTHONPATH"] = str(src)

    def remaining() -> float:
        return RUN_LIMIT_S - (perf_counter() - t_start)

    try:
        setups = [] if args.trace else [
            probe_setup(ini, run_dir, env, remaining()) for _ in range(SETUP_REPEATS)
        ]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ops, failed, correct = [], 0, True
    t_loop = perf_counter()
    while True:
        op = run_operation(workload, ini, run_dir, env, bool(args.trace), remaining())
        ops.append(op)
        if op.exit_code is None:
            outcome = Outcome(failure="timed out")
        else:
            outcome = check_operation(workload.name, op.exit_code, workload.expected_exit, run_dir / "out")
        if outcome.failure is not None:
            failed += 1
            print(f"perfbench: operation {len(ops)} failed: {outcome.failure}", file=sys.stderr)
        elif outcome.problems:
            correct = False
            for problem in outcome.problems:
                print(f"perfbench: operation {len(ops)} wrong: {problem}", file=sys.stderr)
        if perf_counter() - t_loop >= args.seconds or op.exit_code is None:
            break

    if args.trace:
        traced = [op for op in ops if op.layers] or ops
        values = {name: statistics.median(op.layers.get(name, 0) for op in traced) for name in PER_LAYER_UNITS}
        metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "run_s": statistics.median(op.wall_s for op in ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
