"""Batch front end: config-driven runs with deterministic artifacts.

Subcommands: ``params`` (spectral constants and the resonance check),
``zeros`` (annulus search for simple zeros of the averaged pair),
``verify`` (per-zero ε-sweep with scaling fit), ``simulate`` (a single
event-driven or regularized trajectory).  This module writes every
artifact, JSON and CSV, through one writer; every float in them is its
``repr``, the shortest text that reads back as the same double, so reruns
with the same config are byte-identical.

Exit codes: 0 success, 2 resonance degeneracy, 3 no (validated) zero,
5 crossing-hypothesis violation, 6 integration stall; usage errors and
other domain errors exit 1.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .averaging import BifurcationSystem, annulus_search, check_search
from .errors import (
    DEFAULT_MAX_EVENTS,
    CrossingViolationError,
    DomainError,
    IntegrationStallError,
    NoZeroError,
    PendavgError,
)
from .model import (
    PhysicalParams,
    monodromy_lower_block,
    reduce_params,
    spectral_data,
)
from .perturbation import (
    BUILTIN_PARAMS,
    FAMILY_RULE,
    ORDER_RULE,
    PerturbationSpec,
    builtin,
    finite_float,
    parse_keyed,
    perturbation_from_file,
    read_ini,
)

MAX_ZEROS_SWEPT = 8


# -- deterministic artifacts ----------------------------------------------


def _plain(obj):
    """``obj`` with NaN and ±inf as None, tuples as lists and keys as strings."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


def dumps_deterministic(obj) -> str:
    """JSON text of ``obj`` by ``json.dumps`` with a two-space indent: keys
    in insertion order, every float its ``repr`` (the shortest text that
    reads back as the same double) and NaN and ±inf as null."""
    return json.dumps(_plain(obj), indent=2, allow_nan=False)


def _write_text(path: Path, text: str) -> None:
    try:
        if not path.parent.is_dir():  # on an existing one, mkdir raises and catches
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise DomainError(f"[output] dir: cannot write {path}: {exc.strerror}") from None


def _trajectory_csv(traj) -> str:
    """Each segment's step times and states as t,x,y,z,w,segment_id rows."""
    return "".join(["t,x,y,z,w,segment_id\n"] + [
        ",".join(repr(float(v)) for v in (t, *s)) + f",{seg_id}\n"
        for seg_id, seg in enumerate(traj.segments) for t, s in zip(seg.ts, seg.states)
    ])


def _events_csv(traj) -> str:
    """The event log as t,surface,kind,lie_minus,lie_plus rows; both
    derivative columns hold the contact's rate, one number on both sides
    of the surface (see :mod:`pendavg.filippov`)."""
    return "".join(["t,surface,kind,lie_minus,lie_plus\n"] + [
        f"{float(ev.time)!r},{ev.surface},{ev.kind},{float(ev.rate)!r},{float(ev.rate)!r}\n"
        for ev in traj.events
    ])


def _export_csvs(traj, trajectory_path: Path, events_path: Path) -> None:
    """The trajectory and event CSVs of one run."""
    _write_text(trajectory_path, _trajectory_csv(traj))
    _write_text(events_path, _events_csv(traj))


# -- configuration -------------------------------------------------------


class ExperimentConfig(argparse.Namespace):
    """Parsed experiment description: one attribute per ``CONFIG_TABLE``
    row, with ``phys`` a PhysicalParams, ``builtin_params`` a dict and
    ``perturbation_file`` relative to the config file's directory."""


def _parse_floats(text: str) -> List[float]:
    return [finite_float(p) for chunk in text.split(",") for p in chunk.split()]


def _parse_bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(text)
    return states[text.lower()]


def _parse_path(text: str) -> Path:
    if not text:
        raise ValueError(text)
    return Path(text)


# Every key an experiment file may set, one row each: section, key, the
# config attribute it sets ("attr.field" for a field of ``attr``), its
# default text (None leaves it unset) and parse_keyed's rule for its text:
# a parser, then maybe a check and the reason it refuses a value.
# [perturbation] also takes its builtin's parameters, each a finite number.
CONFIG_TABLE = (
    ("physical", "m1", "phys.m1", "1.0", finite_float),
    ("physical", "m2", "phys.m2", "1.0", finite_float),
    ("physical", "l1", "phys.l1", "1.0", finite_float),
    ("physical", "l2", "phys.l2", "1.0", finite_float),
    ("physical", "g", "phys.g", "9.8", finite_float),
    ("model", "family", "family", "1", *FAMILY_RULE),
    ("model", "p", "p", "1", *ORDER_RULE),
    ("model", "convention", "convention", "A", str.upper, lambda c: c in ("A", "B"), "must be A or B"),
    ("model", "seed", "seed", "0", int),  # accepted for older files; it has no effect
    ("perturbation", "builtin", "builtin_name", None, str),
    ("perturbation", "file", "perturbation_file", None, _parse_path),
    ("search", "r1", "r1", "0.05", finite_float),
    ("search", "r2", "r2", "2.0", finite_float),
    ("search", "grid", "grid", "24", int),
    ("sweep", "eps", "eps_list", "1e-2 5e-3 2.5e-3 1.25e-3", _parse_floats, bool,
     "must list at least one value"),
    ("integrate", "eps", "sim_eps", "1e-3", finite_float),
    ("integrate", "s0", "sim_s0", None, _parse_floats, lambda s0: len(s0) == 4, "must have four entries"),
    ("integrate", "t_span", "sim_t_span", None, _parse_floats, lambda span: len(span) == 2,
     "must have two entries"),
    ("integrate", "delta", "sim_delta", None, finite_float, lambda delta: delta > 0,
     "the regularization width must be positive"),
    ("integrate", "max_events", "sim_max_events", str(DEFAULT_MAX_EVENTS), int, lambda n: n >= 0,
     "the event budget must not be negative"),
    ("integrate", "require_crossing", "sim_require_crossing", "false", _parse_bool),
    ("output", "dir", "output_dir", "out", _parse_path),
)


def load_config(
    path,
    *,
    family: Optional[int] = None,
    convention: Optional[str] = None,
    out: Optional[str] = None,
    delta: Optional[float] = None,
) -> ExperimentConfig:
    """Read an experiment INI file by ``CONFIG_TABLE``.

    ``family``, ``convention``, ``out`` and ``delta`` (the CLI flags), when
    given, stand in for the text of ``[model] family``, ``[model]
    convention``, ``[output] dir`` and ``[integrate] delta``.  Unknown
    sections and keys, and a value that does not parse (an empty one
    included) or fails its key's check, raise DomainError naming the
    section and key; so does a ``[perturbation]`` that does not set
    exactly one known ``builtin`` or one ``file``.
    """
    path = Path(path)
    parser = read_ini(path, "config file")
    builtin_name = parser.get("perturbation", "builtin", fallback=None)
    pert_file = parser.get("perturbation", "file", fallback=None)
    if builtin_name is None and pert_file is None:
        raise DomainError("[perturbation] must set either 'builtin' or 'file'")
    if builtin_name is not None and pert_file is not None:
        raise DomainError("[perturbation] sets both 'builtin' and 'file'; keep one")
    if builtin_name is not None and builtin_name not in BUILTIN_PARAMS:
        raise DomainError(
            f"unknown builtin perturbation {builtin_name!r}; known: {', '.join(BUILTIN_PARAMS)}"
        )
    rows = CONFIG_TABLE + tuple(("perturbation", key, f"builtin_params.{key}", None, finite_float)
                                for key in BUILTIN_PARAMS.get(builtin_name, ()))
    if parser.defaults():
        raise DomainError(f"unknown config section [{parser.default_section}]")
    known = {(section, key) for section, key, *_ in rows}
    for section in parser.sections():
        if section not in {known_section for known_section, _ in known}:
            raise DomainError(f"unknown config section [{section}]")
        unknown = sorted(key for key in parser[section] if (section, key) not in known)
        if unknown:
            raise DomainError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")

    flags = {("model", "family"): family, ("model", "convention"): convention,
             ("output", "dir"): out, ("integrate", "delta"): delta}
    fields = {"builtin_params": {}}
    for section, key, attr, default, *rule in rows:
        flag = flags.get((section, key))
        text = parser.get(section, key, fallback=default) if flag is None else str(flag)
        value = None if text is None else parse_keyed(f"[{section}] {key}", text, *rule)
        name, _, field = attr.partition(".")
        if not field:
            fields[name] = value
        elif value is not None:
            fields.setdefault(name, {})[field] = value
    fields["phys"] = PhysicalParams(**fields["phys"])
    if fields["perturbation_file"] is not None:
        fields["perturbation_file"] = path.parent / fields["perturbation_file"]
    return ExperimentConfig(**fields)


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


def _check_keyed(prefix: str, check, *values):
    """The value of ``check(*values)``, its DomainError re-raised behind
    ``prefix``, the section (and key) the values come from."""
    try:
        return check(*values)
    except DomainError as exc:
        raise DomainError(f"{prefix} {exc}") from None


def _model(config: ExperimentConfig):
    """The reduced constants and spectrum of the config's pendulum, once the
    monodromy block has passed the resonance check, and that block's
    determinant."""
    reduced = reduce_params(config.phys)
    s = spectral_data(reduced)
    _, det = monodromy_lower_block(s, config.p, family=config.family)
    return reduced, s, det


def cmd_params(config: ExperimentConfig) -> int:
    reduced, s, det = _model(config)
    text = dumps_deterministic({**reduced._asdict(), **s._asdict(),
                                "family": config.family, "p": config.p, "monodromy_det": det})
    print(text)
    _write_text(config.output_dir / "params.json", text)
    return 0


def cmd_zeros(config: ExperimentConfig) -> int:
    _check_keyed("[search]", check_search, config.r1, config.r2, config.grid, config.p)
    reduced, s, _ = _model(config)
    system = BifurcationSystem(config.family, build_perturbation(config, s), reduced, s, config.convention)
    certs = annulus_search(system, config.r1, config.r2, config.grid)
    payload = {
        "convention": config.convention,
        "family": config.family,
        "p": config.p,
        "zeros": [c._asdict() for c in certs],
    }
    text = dumps_deterministic(payload)
    print(text)
    _write_text(config.output_dir / "zeros.json", text)
    if not any(c.simple for c in certs):
        raise NoZeroError("no simple zero found in the configured annulus")
    return 0


def _verify_convention(config: ExperimentConfig, system: BifurcationSystem, tag: str) -> Tuple[dict, Dict[int, str]]:
    """Zero search plus sweeps for the system's sgn convention; returns a
    summary whose verdicts are the sweeps' own, and per exit code the
    first rung flagged with it, as ": zero i, eps ε: <its flag>"."""
    from .verify import epsilon_sweep, predicted_initial_state

    certs = annulus_search(system, config.r1, config.r2, config.grid)
    simple_certs = [c for c in certs if c.simple][:MAX_ZEROS_SWEPT]
    entries = []
    reports = []
    flags = {}
    for i, cert in enumerate(simple_certs):
        report = epsilon_sweep(predicted_initial_state(system, cert), config.eps_list)
        reports.append(report)
        for j, sample in enumerate(report.samples):
            if sample.flag is not None:
                flags.setdefault(sample.flag_code, f": zero {i}, eps {sample.epsilon!r}: {sample.flag}")
            if sample.trajectory is not None:
                base = config.output_dir / f"{tag}zero{i}_eps{j}"
                _export_csvs(sample.trajectory, base.with_suffix(".trajectory.csv"),
                             base.with_suffix(".events.csv"))
        entry = {
            "zero": {"point": cert.point, "det": cert.det, "simple": cert.simple},
            "sweep": report.to_json_dict(),
            "validated": report.validated,
        }
        entries.append(entry)
        _write_text(config.output_dir / f"{tag}sweep_zero{i}.json", dumps_deterministic(entry))
    return {
        "convention": system.sgn_convention,
        "n_zeros": len(simple_certs),
        "zeros": [c._asdict() for c in simple_certs],
        "sweeps": entries,
        "any_validated": any(r.validated for r in reports),
        "any_crossing_violation": any(r.crossing_violation for r in reports),
        "any_stall": any(r.stalled for r in reports),
    }, flags


def cmd_verify(config: ExperimentConfig, compare_conventions: bool = False) -> int:
    # The checking half (verify, filippov, expflow) is imported only here and
    # in cmd_simulate: `zeros` and `params` never load it.  dop853, and numpy
    # with it, loads only for a segment the exact flow cannot take.
    from .verify import convention_verdict, sweep_ladder

    _check_keyed("[sweep] eps:", sweep_ladder, config.eps_list)
    _check_keyed("[search]", check_search, config.r1, config.r2, config.grid, config.p)
    reduced, s, _ = _model(config)
    spec = build_perturbation(config, s)

    def summary_of(convention: str, tag: str) -> Tuple[dict, Dict[int, str]]:
        return _verify_convention(config, BifurcationSystem(config.family, spec, reduced, s, convention), tag)

    summary, flags = summary_of(config.convention, "")
    validated = summary["any_validated"]
    if compare_conventions:
        other = "B" if config.convention == "A" else "A"
        by_convention = {config.convention: summary, other: summary_of(other, f"conv{other}_")[0]}
        arbiter = convention_verdict({c: each["any_validated"] for c, each in by_convention.items()})
        validated = arbiter != "neither"
        text = dumps_deterministic({"A": by_convention["A"], "B": by_convention["B"], "arbiter": arbiter})
        _write_text(config.output_dir / "convention_report.json", text)
        print(f"convention arbiter: {arbiter}")
    text = dumps_deterministic(summary)
    _write_text(config.output_dir / "verify.json", text)
    print(f"zeros: {summary['n_zeros']}, validated: {summary['any_validated']}")
    if validated:
        return 0
    if summary["any_crossing_violation"]:
        _write_text(config.output_dir / "crossing_violations.json",
                    dumps_deterministic([entry["sweep"]["events_summary"] for entry in summary["sweeps"]]))
        raise CrossingViolationError("the crossing hypothesis failed during verification; see "
                                     "crossing_violations.json" + flags.get(CrossingViolationError.exit_code, ""))
    if summary["any_stall"]:
        raise IntegrationStallError("verification integrations stalled" + flags[IntegrationStallError.exit_code])
    raise NoZeroError("no zero validated the second-order residual scaling")


def cmd_simulate(config: ExperimentConfig) -> int:
    from .filippov import integrate, integrate_regularized

    if config.sim_s0 is None or config.sim_t_span is None:
        raise DomainError("[integrate] must provide s0 and t_span for simulate")
    reduced = reduce_params(config.phys)
    s = spectral_data(reduced)
    spec = build_perturbation(config, s)
    out = config.output_dir
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
    except PendavgError as exc:
        if exc.trajectory is not None:
            _export_csvs(exc.trajectory, out / "trajectory.csv", out / "events.csv")
        raise
    _export_csvs(traj, out / "trajectory.csv", out / "events.csv")
    summary = {
        "epsilon": config.sim_eps,
        "t_span": traj.t_span,
        "initial_state": traj.initial_state,
        "final_state": traj.final_state,
        "n_segments": len(traj.segments),
        "n_events": len(traj.events),
        "event_kinds": sorted({ev.kind for ev in traj.events}),
        "regularized": config.sim_delta is not None,
        "delta": config.sim_delta,
    }
    text = dumps_deterministic(summary)
    print(text)
    _write_text(out / "simulate_summary.json", text)
    offenders = [traj.events[i] for i in traj.offenders]
    if config.sim_require_crossing and offenders:
        _write_text(out / "crossing_violations.json", dumps_deterministic([
            {"time": ev.time, "surface": ev.surface, "kind": ev.kind, "state": ev.state}
            for ev in offenders
        ]))
        raise CrossingViolationError(
            f"{len(offenders)} of {len(traj.events)} surface contacts are not transversal "
            f"crossings (kinds: {', '.join(sorted({ev.kind for ev in offenders}))})"
        )
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
        if args.command == "params":
            return cmd_params(config)
        if args.command == "zeros":
            return cmd_zeros(config)
        if args.command == "verify":
            return cmd_verify(config, compare_conventions=getattr(args, "compare_conventions", False))
        return cmd_simulate(config)
    except PendavgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main() -> None:
    """The process entry of ``pendavg`` and ``python -m pendavg``: `main`
    with the heap frozen, so no collection in the run traverses the
    imported modules and the one at exit traverses nothing."""
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)
