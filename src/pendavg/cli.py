"""Batch front end: config-driven runs with deterministic artifacts.

Subcommands: ``params`` (spectral constants and the resonance check),
``zeros`` (annulus search for simple zeros of the averaged pair),
``verify`` (per-zero ε-sweep with scaling fit), ``simulate`` (a single
event-driven or regularized trajectory).  All floating-point output is
printed with 17 significant digits so reruns with the same config are
byte-identical.

Exit codes: 0 success, 2 resonance degeneracy, 3 no (validated) zero,
4 quadrature failure, 5 crossing-hypothesis violation, 6 integration
stall; usage errors and other domain errors exit 1.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .averaging import (
    BifurcationSystem,
    ZeroCertificate,
    annulus_search,
)
from .errors import (
    CrossingViolationError,
    DomainError,
    IntegrationStallError,
    NoZeroError,
    PendavgError,
)
from .filippov import (
    DEFAULT_MAX_EVENTS,
    Trajectory,
    export_events_csv,
    export_trajectory_csv,
    integrate,
    integrate_regularized,
    require_transversal_crossings,
)
from .model import (
    PhysicalParams,
    jordan_transform,
    monodromy_lower_block,
    reduce_params,
    spectral_data,
)
from .perturbation import (
    BUILTIN_PARAMS,
    PerturbationSpec,
    builtin,
    finite_float,
    perturbation_from_file,
    read_ini,
)
from .verify import (
    SweepReport,
    convention_verdict,
    epsilon_sweep,
    predicted_initial_state,
)

DEFAULT_EPS_LIST = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
MAX_ZEROS_SWEPT = 8


# -- deterministic JSON -------------------------------------------------


def _format_float(v: float) -> str:
    if v != v:
        return "null"
    if v == float("inf") or v == float("-inf"):
        return "null"
    return format(float(v), ".17g")


def dumps_deterministic(obj, indent: int = 0) -> str:
    """JSON text with 17-significant-digit floats and stable layout."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_deterministic(v, indent + 1) for v in list(obj)]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + it for it in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [
            "  " * (indent + 1)
            + dumps_deterministic(str(k))
            + ": "
            + dumps_deterministic(v, indent + 1)
            for k, v in obj.items()
        ]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise DomainError(f"cannot serialize value of type {type(obj).__name__}")


def _output_error(path: Path, exc: OSError) -> DomainError:
    return DomainError(f"[output] dir: cannot write {path}: {exc.strerror}")


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise _output_error(path, exc) from None


def _export_csvs(traj: Trajectory, trajectory_path: Path, events_path: Path) -> None:
    """The trajectory and event CSVs of one run."""
    for export, path in ((export_trajectory_csv, trajectory_path), (export_events_csv, events_path)):
        try:
            export(traj, path)
        except OSError as exc:
            raise _output_error(path, exc) from None


# -- configuration -------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Parsed experiment description (flat INI sections, no nesting)."""

    phys: PhysicalParams
    family: int
    p: int
    convention: str
    builtin_name: Optional[str]
    builtin_params: Dict[str, float]
    perturbation_file: Optional[Path]
    r1: float
    r2: float
    grid: int
    eps_list: List[float]
    sim_eps: float
    sim_s0: Optional[np.ndarray]
    sim_t_span: Optional[Tuple[float, float]]
    sim_delta: Optional[float]
    sim_max_events: int
    sim_require_crossing: bool
    output_dir: Path


# Every section and key an experiment file may set; [perturbation] also
# takes the parameters of its builtin.
CONFIG_KEYS = {
    "physical": ("m1", "m2", "l1", "l2", "g"),
    "model": ("family", "p", "convention", "seed"),
    "perturbation": ("builtin", "file"),
    "search": ("r1", "r2", "grid"),
    "sweep": ("eps",),
    "integrate": ("eps", "s0", "t_span", "delta", "max_events", "require_crossing"),
    "output": ("dir",),
}


def _parse_floats(text: str) -> List[float]:
    return [finite_float(p) for chunk in text.split(",") for p in chunk.split()]


def _parse_bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(text)
    return states[text.lower()]


def load_config(
    path,
    *,
    family: Optional[int] = None,
    convention: Optional[str] = None,
    out: Optional[str] = None,
    delta: Optional[float] = None,
) -> ExperimentConfig:
    """Read an experiment INI file; keyword arguments override sections.

    Unknown sections and keys, and values that do not parse, raise
    DomainError naming the section and key.
    """
    path = Path(path)
    parser = read_ini(path, "config file")

    def get(section: str, key: str, fallback: Optional[str] = None) -> Optional[str]:
        return parser.get(section, key, fallback=fallback)

    def value(section: str, key: str, default, convert: Callable = finite_float):
        text = get(section, key)
        if text is None:
            return default
        try:
            return convert(text)
        except ValueError:
            raise DomainError(f"[{section}] {key}: cannot parse {text!r}") from None

    builtin_name = get("perturbation", "builtin")
    pert_file = get("perturbation", "file")
    if builtin_name is None and pert_file is None:
        raise DomainError("[perturbation] must set either 'builtin' or 'file'")
    if builtin_name is not None and pert_file is not None:
        raise DomainError("[perturbation] sets both 'builtin' and 'file'; keep one")
    if builtin_name is not None and builtin_name not in BUILTIN_PARAMS:
        raise DomainError(
            f"unknown builtin perturbation {builtin_name!r}; known: {', '.join(BUILTIN_PARAMS)}"
        )
    if parser.defaults():
        raise DomainError(f"unknown config section [{parser.default_section}]")
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise DomainError(f"unknown config section [{section}]")
        known = CONFIG_KEYS[section]
        if section == "perturbation":
            known += BUILTIN_PARAMS.get(builtin_name, ())
        unknown = sorted(set(parser[section]) - set(known))
        if unknown:
            raise DomainError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")

    phys = PhysicalParams(
        m1=value("physical", "m1", 1.0),
        m2=value("physical", "m2", 1.0),
        l1=value("physical", "l1", 1.0),
        l2=value("physical", "l2", 1.0),
        g=value("physical", "g", 9.8),
    )
    cfg_family = value("model", "family", 1, int)
    cfg_p = value("model", "p", 1, int)
    if cfg_p < 1:
        raise DomainError(f"[model] p: the resonance order must be at least 1, got {cfg_p}")
    cfg_convention = get("model", "convention", "A").strip().upper()
    value("model", "seed", 0, int)  # accepted for older files; it has no effect
    builtin_params = {
        key: value("perturbation", key, None)
        for key in parser["perturbation"]
        if key not in CONFIG_KEYS["perturbation"]
    }

    eps_list = value("sweep", "eps", [], _parse_floats) or list(DEFAULT_EPS_LIST)
    s0 = value("integrate", "s0", [], _parse_floats)
    t_span = value("integrate", "t_span", [], _parse_floats)
    if t_span and len(t_span) != 2:
        raise DomainError("t_span must have two entries")
    sim_delta = delta if delta is not None else value("integrate", "delta", None)
    max_events = value("integrate", "max_events", DEFAULT_MAX_EVENTS, int)
    if max_events < 0:
        raise DomainError(f"[integrate] max_events: the event budget must not be negative, got {max_events}")

    final_family = family if family is not None else cfg_family
    final_convention = (convention or cfg_convention).strip().upper()
    if final_family not in (1, 2):
        raise DomainError(f"family must be 1 or 2, got {final_family}")
    if final_convention not in ("A", "B"):
        raise DomainError(f"convention must be A or B, got {final_convention!r}")

    out_dir = Path(out) if out is not None else Path(get("output", "dir", "out"))

    return ExperimentConfig(
        phys=phys,
        family=final_family,
        p=cfg_p,
        convention=final_convention,
        builtin_name=builtin_name,
        builtin_params=builtin_params,
        perturbation_file=(path.parent / pert_file) if pert_file else None,
        r1=value("search", "r1", 0.05),
        r2=value("search", "r2", 2.0),
        grid=value("search", "grid", 24, int),
        eps_list=eps_list,
        sim_eps=value("integrate", "eps", 1e-3),
        sim_s0=np.array(s0) if s0 else None,
        sim_t_span=tuple(t_span) if t_span else None,
        sim_delta=sim_delta,
        sim_max_events=max_events,
        sim_require_crossing=value("integrate", "require_crossing", False, _parse_bool),
        output_dir=out_dir,
    )


def build_perturbation(config: ExperimentConfig, spectral) -> PerturbationSpec:
    if config.perturbation_file is None:
        return builtin(config.builtin_name, config.builtin_params, spectral, family=config.family, p=config.p)
    spec = perturbation_from_file(config.perturbation_file, spectral)
    if (spec.family, spec.p) != (config.family, config.p):
        raise DomainError(
            f"perturbation file {config.perturbation_file} is for family {spec.family}, "
            f"p = {spec.p}; the run uses family {config.family}, p = {config.p}"
        )
    return spec


# -- subcommands ----------------------------------------------------------


def _params_payload(config: ExperimentConfig) -> dict:
    reduced = reduce_params(config.phys)
    s = spectral_data(reduced)
    _, det = monodromy_lower_block(s, config.p, family=config.family)
    return {
        "a": reduced.a,
        "b": reduced.b,
        "alpha": reduced.alpha,
        "delta": s.delta,
        "omega1": s.omega1,
        "omega2": s.omega2,
        "period1": s.period1,
        "period2": s.period2,
        "family": config.family,
        "p": config.p,
        "monodromy_det": det,
    }


def cmd_params(config: ExperimentConfig) -> int:
    payload = _params_payload(config)
    text = dumps_deterministic(payload)
    print(text)
    _write_text(config.output_dir / "params.json", text)
    return 0


def _certificates_payload(certs: Sequence[ZeroCertificate]) -> list:
    return [
        {
            "point": list(c.point),
            "value_norm": c.value_norm,
            "det": c.det,
            "index": c.index,
            "simple": c.simple,
        }
        for c in certs
    ]


def _run_zero_search(config: ExperimentConfig, convention: Optional[str] = None) -> Tuple[BifurcationSystem, List[ZeroCertificate]]:
    reduced = reduce_params(config.phys)
    s = spectral_data(reduced)
    monodromy_lower_block(s, config.p, family=config.family)
    spec = build_perturbation(config, s)
    system = BifurcationSystem(
        family=config.family,
        spec=spec,
        reduced=reduced,
        spectral=s,
        sgn_convention=convention or config.convention,
    )
    certs = annulus_search(system, config.r1, config.r2, config.grid)
    return system, certs


def cmd_zeros(config: ExperimentConfig) -> int:
    _, certs = _run_zero_search(config)
    payload = {
        "convention": config.convention,
        "family": config.family,
        "p": config.p,
        "zeros": _certificates_payload(certs),
    }
    text = dumps_deterministic(payload)
    print(text)
    _write_text(config.output_dir / "zeros.json", text)
    if not any(c.simple for c in certs):
        raise NoZeroError("no simple zero found in the configured annulus")
    return 0


def _sweep_for_cert(
    config: ExperimentConfig,
    system: BifurcationSystem,
    cert: ZeroCertificate,
) -> SweepReport:
    reduced = system.reduced
    s = system.spectral
    transform = jordan_transform(reduced, s)
    orbit = predicted_initial_state(
        cert, config.family, transform, s, reduced, p=config.p
    )
    return epsilon_sweep(orbit, system.spec, reduced, s, config.eps_list)


def _verify_convention(config: ExperimentConfig, convention: str, tag: str) -> dict:
    """Zero search plus sweeps for one sgn convention; returns a summary."""
    system, certs = _run_zero_search(config, convention)
    simple_certs = [c for c in certs if c.simple][:MAX_ZEROS_SWEPT]
    entries = []
    any_validated = False
    any_crossing_violation = False
    any_stall = False
    for i, cert in enumerate(simple_certs):
        report = _sweep_for_cert(config, system, cert)
        validated = report.validated
        any_validated = any_validated or validated
        for j, sample in enumerate(report.samples):
            if sample.trajectory is not None:
                base = config.output_dir / f"{tag}zero{i}_eps{j}"
                _export_csvs(sample.trajectory, base.with_suffix(".trajectory.csv"),
                             base.with_suffix(".events.csv"))
            if sample.crossing is not None and not sample.crossing.ok:
                any_crossing_violation = True
            if sample.flag_code == IntegrationStallError.exit_code:
                any_stall = True
        entry = {
            "zero": {
                "point": list(cert.point),
                "det": cert.det,
                "simple": cert.simple,
            },
            "sweep": report.to_json_dict(),
            "validated": validated,
        }
        entries.append(entry)
        _write_text(
            config.output_dir / f"{tag}sweep_zero{i}.json",
            dumps_deterministic(entry),
        )
    return {
        "convention": convention,
        "n_zeros": len(simple_certs),
        "zeros": _certificates_payload(simple_certs),
        "sweeps": entries,
        "any_validated": any_validated,
        "any_crossing_violation": any_crossing_violation,
        "any_stall": any_stall,
    }


def cmd_verify(config: ExperimentConfig, compare_conventions: bool = False) -> int:
    summary = _verify_convention(config, config.convention, tag="")
    arbiter_validated = False
    if compare_conventions:
        other = "B" if config.convention == "A" else "A"
        other_summary = _verify_convention(config, other, tag=f"conv{other}_")
        by_convention = {config.convention: summary, other: other_summary}
        arbiter = convention_verdict(
            {c: s["any_validated"] for c, s in by_convention.items()}
        )
        arbiter_validated = arbiter != "neither"
        report = {
            "A": by_convention.get("A"),
            "B": by_convention.get("B"),
            "arbiter": arbiter,
        }
        text = dumps_deterministic(report)
        _write_text(config.output_dir / "convention_report.json", text)
        print(f"convention arbiter: {arbiter}")
    text = dumps_deterministic(summary)
    _write_text(config.output_dir / "verify.json", text)
    print(
        f"zeros: {summary['n_zeros']}, validated: {summary['any_validated']}"
    )
    if summary["any_validated"] or arbiter_validated:
        return 0
    if summary["any_crossing_violation"]:
        offenders = []
        for entry in summary["sweeps"]:
            offenders.append(entry["sweep"]["events_summary"])
        _write_text(
            config.output_dir / "crossing_violations.json",
            dumps_deterministic(offenders),
        )
        raise CrossingViolationError(
            "the crossing hypothesis failed during verification; "
            "see crossing_violations.json"
        )
    if summary["any_stall"]:
        raise IntegrationStallError("verification integrations stalled")
    raise NoZeroError("no zero validated the second-order residual scaling")


def cmd_simulate(config: ExperimentConfig) -> int:
    if config.sim_s0 is None or config.sim_t_span is None:
        raise DomainError("[integrate] must provide s0 and t_span for simulate")
    if config.sim_s0.shape != (4,):
        raise DomainError("s0 must have four components")
    reduced = reduce_params(config.phys)
    s = spectral_data(reduced)
    spec = build_perturbation(config, s)
    out = config.output_dir
    traj: Optional[Trajectory] = None
    try:
        if config.sim_delta is not None:
            traj = integrate_regularized(
                spec, reduced, s, config.sim_eps, config.sim_delta,
                config.sim_s0, config.sim_t_span,
            )
        else:
            traj = integrate(
                spec, reduced, s, config.sim_eps,
                config.sim_s0, config.sim_t_span,
                max_events=config.sim_max_events,
            )
    except IntegrationStallError as exc:
        if exc.trajectory is not None:
            _export_csvs(exc.trajectory, out / "trajectory.csv", out / "events.csv")
        raise
    _export_csvs(traj, out / "trajectory.csv", out / "events.csv")
    summary = {
        "epsilon": config.sim_eps,
        "t_span": list(traj.t_span),
        "initial_state": list(traj.initial_state),
        "final_state": list(traj.final_state),
        "n_segments": len(traj.segments),
        "n_events": len(traj.events),
        "event_kinds": sorted({ev.kind for ev in traj.events}),
        "regularized": config.sim_delta is not None,
        "delta": config.sim_delta,
    }
    text = dumps_deterministic(summary)
    print(text)
    _write_text(out / "simulate_summary.json", text)
    if config.sim_require_crossing:
        try:
            require_transversal_crossings(traj)
        except CrossingViolationError as exc:
            offenders = [
                {
                    "time": ev.time,
                    "surface": ev.surface,
                    "kind": ev.kind,
                    "state": list(ev.state),
                }
                for ev in (exc.events or [])
            ]
            _write_text(out / "crossing_violations.json", dumps_deterministic(offenders))
            raise
    return 0


# -- entry point ----------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise DomainError (exit 1); argparse's own 2 means resonance here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(f"{self.prog}: {message}")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pendavg",
        description="Averaged bifurcation functions and Filippov verification "
        "for the perturbed planar double pendulum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("params", "zeros", "verify", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--family", type=int, choices=(1, 2), default=None)
        p.add_argument("--convention", choices=("A", "B"), default=None)
        p.add_argument("--out", default=None, help="output directory")
        if name == "simulate":
            p.add_argument("--delta", type=finite_float, default=None,
                           help="regularization width")
        if name == "verify":
            p.add_argument(
                "--compare-conventions",
                action="store_true",
                help="run both sgn conventions and emit convention_report.json",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        config = load_config(
            args.config,
            family=args.family,
            convention=args.convention,
            out=args.out,
            delta=getattr(args, "delta", None),
        )
        try:
            config.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DomainError(f"[output] dir: cannot create {config.output_dir}: {exc.strerror}") from None
        if args.command == "params":
            return cmd_params(config)
        if args.command == "zeros":
            return cmd_zeros(config)
        if args.command == "verify":
            return cmd_verify(config, compare_conventions=getattr(args, "compare_conventions", False))
        if args.command == "simulate":
            return cmd_simulate(config)
        raise DomainError(f"unknown command {args.command!r}")
    except PendavgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
