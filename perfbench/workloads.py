"""The benchmark's workloads: one ``pendavg`` CLI invocation each.

Every workload is an INI experiment file built from fixed sections plus the
workload seed, which goes into ``[model] seed`` (it jitters the annulus
lattice of Newton starts).  Physical parameters are the unit pendulum.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

PHYSICAL = {"m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0, "g": 9.8}

# The damped, forced escapement of the README config.
ESCAPEMENT = {"builtin": "damped_forced_escapement", "gamma": 0.5, "kappa": 0.05}
# The sign-definite corollary escapement of the zero-circle acceptance test.
COROLLARY = {"builtin": "corollary_escapement", "sigma_d": 1, "sigma_e": 1}


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: subcommand, flags, INI sections, expected exit."""

    name: str
    command: Tuple[str, ...]
    sections: Dict[str, Dict[str, object]]
    expected_exit: int

    def ini_text(self, seed: int) -> str:
        lines = []
        for section, body in self.sections.items():
            lines.append(f"[{section}]")
            for key, value in body.items():
                lines.append(f"{key} = {value}")
            if section == "model":
                lines.append(f"seed = {seed}")
            lines.append("")
        return "\n".join(lines)

    def write_ini(self, path: Path, seed: int) -> Path:
        path.write_text(self.ini_text(seed), encoding="utf-8")
        return path

    def cli_args(self, ini: Path) -> Tuple[str, ...]:
        return (self.command[0], "--config", str(ini)) + self.command[1:]


def _sections(convention, perturbation, r1, r2, grid, eps):
    return {
        "physical": dict(PHYSICAL),
        "model": {"family": 1, "p": 1, "convention": convention},
        "perturbation": dict(perturbation),
        "search": {"r1": r1, "r2": r2, "grid": grid},
        "sweep": {"eps": eps},
        "output": {"dir": "out"},
    }


README_LADDER = "1e-2 5e-3 2.5e-3 1.25e-3"

WORKLOADS = {
    w.name: w
    for w in (
        # Filippov integration and converging shooting refinement.
        Workload(
            "verify-escapement",
            ("verify",),
            _sections("A", ESCAPEMENT, 0.05, 2.0, 8, README_LADDER),
            expected_exit=0,
        ),
        # Averaging only: 576 Newton starts, no integration.
        Workload(
            "zeros-escapement",
            ("zeros",),
            _sections("A", ESCAPEMENT, 0.05, 2.0, 24, README_LADDER),
            expected_exit=0,
        ),
        # Both conventions; every refinement fails after its full budget.
        Workload(
            "compare-corollary",
            ("verify", "--compare-conventions"),
            _sections("B", COROLLARY, 0.2, 3.0, 8, "1e-2 5e-3 2e-3 1e-3"),
            expected_exit=3,
        ),
    )
}
