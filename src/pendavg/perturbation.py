"""First-order perturbation data for the reduced pendulum system.

A perturbation consists of four periodic forcing scalars K₁..K₄ and four
linear forms F₁..F₄ whose coefficients d_i^j are periodic scalars.  They
enter the reduced system as the order-ε terms

    y′ += ε·(K₁(τ) + F₁(τ, s) + (K₂(τ) + F₂(τ, s))·σ_x),
    w′ += ε·(K₃(τ) + F₃(τ, s) + (K₄(τ) + F₄(τ, s))·σ_z),

with s = (x, y, z, w).  The sign values σ_x, σ_z are chosen by the
caller: the region signs of the event-driven integrator (exact sgn,
sgn(0) = 0), the C¹ odd ramp s_δ of the regularized integrator, or the
signs along an unperturbed orbit for the averaged pair.

Periodic scalars are tagged data: ``const`` (a value), ``cos``/``sin``
(amplitude and ω) or ``table`` (uniform grid, linear interpolation, at
least 256 samples per period).  Every evaluation here is on floats, with
:mod:`math`, so this module never loads numpy.  A small file format
states a perturbation as one entry per scalar (``k1 = cos:<amp>,<harmonic>``,
``f1.d2 = const:<v>``, …); the builtins are such entries with their
parameters in braces, and every spec, builtin or file, is built from its
entries by one function.

The forcing is affine in the state and in the signs, so each spec states
it once, as one table P (:attr:`PerturbationSpec.table`), read by one
function per half of the program: the averaged pair's closed form
(:mod:`pendavg.averaging`), and ``pendavg.filippov._table_array``, which
builds the frozen-sign forms F_σ and the regularized run's array.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
import re
from bisect import bisect_right
from typing import Callable, Optional, Sequence, Tuple

from .errors import DomainError
from .model import SpectralData

MIN_TABLE_SAMPLES_PER_PERIOD = 256
SCALAR_KINDS = ("const", "cos", "sin", "table")
PERIOD_DIVISIBILITY_TOL = 1e-10


class PeriodicScalar:
    """A periodic function of time with a declared period, as tagged data.

    ``kind`` is ``"const"`` (``value``), ``"cos"`` or ``"sin"``
    (``value``·trig(``omega``·τ)) or ``"table"`` (linear interpolation of
    ``knots`` = (τ, value) closed over one period).  Build one with
    :meth:`constant`, :meth:`harmonic` or :meth:`from_table`.  Scalars
    hash and compare by identity.
    """

    __slots__ = ("kind", "period", "value", "omega", "knots")

    def __init__(self, kind: str, period: float, value: float = 0.0, omega: float = 0.0,
                 knots: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None):
        if kind not in SCALAR_KINDS:
            raise DomainError(f"scalar kind must be one of {SCALAR_KINDS}, got {kind!r}")
        if not (math.isfinite(period) and period > 0):
            raise DomainError(f"period must be a positive real, got {period!r}")
        self.kind, self.period, self.value, self.omega, self.knots = kind, period, value, omega, knots

    def __call__(self, tau: float) -> float:
        if self.kind == "const":
            return tau * 0.0 + self.value
        if self.kind == "table":
            return self.piece(tau)[0]
        return self.value * (math.cos if self.kind == "cos" else math.sin)(self.omega * tau)

    def piece(self, tau: float) -> Tuple[float, float]:
        """A table's value at the float τ, as ``np.interp`` gives it, and the
        slope of the knot interval holding τ."""
        xs, ys = self.knots
        x = min(max(tau % self.period, xs[0]), xs[-1])
        j = min(bisect_right(xs, x), len(xs) - 1)  # xs[j − 1] ≤ x < xs[j], or x = xs[-1]
        slope = (ys[j] - ys[j - 1]) / (xs[j] - xs[j - 1])
        if x == xs[j]:
            return ys[j], slope
        return slope * (x - xs[j - 1]) + ys[j - 1], slope

    @staticmethod
    def constant(value: float, period: float) -> "PeriodicScalar":
        return PeriodicScalar("const", float(period), value=float(value))

    @staticmethod
    def harmonic(kind: str, amplitude: float, omega: float) -> "PeriodicScalar":
        """amplitude·cos(ωτ) or amplitude·sin(ωτ)."""
        if kind not in ("cos", "sin"):
            raise DomainError(f"harmonic kind must be 'cos' or 'sin', got {kind!r}")
        if omega <= 0:
            raise DomainError(f"harmonic frequency must be positive, got {omega!r}")
        return PeriodicScalar(kind, 2.0 * math.pi / omega, value=float(amplitude), omega=float(omega))

    @staticmethod
    def from_table(taus: Sequence[float], values: Sequence[float]) -> "PeriodicScalar":
        """Linearly interpolated periodic table on a uniform grid over [0, T).

        The grid must start at 0, be uniformly spaced, and resolve at least
        ``MIN_TABLE_SAMPLES_PER_PERIOD`` samples; the implied period is
        one spacing past the last knot.
        """
        try:
            taus, values = [float(t) for t in taus], [float(v) for v in values]
        except (TypeError, ValueError):
            raise DomainError("table needs matching 1-d tau and value columns") from None
        if len(taus) != len(values):
            raise DomainError("table needs matching 1-d tau and value columns")
        if len(taus) < MIN_TABLE_SAMPLES_PER_PERIOD:
            raise DomainError(
                f"table resolves {len(taus)} samples per period, "
                f"need at least {MIN_TABLE_SAMPLES_PER_PERIOD}"
            )
        if abs(taus[0]) > 1e-12:
            raise DomainError("table grid must start at tau = 0")
        dt = taus[1] - taus[0]
        if not dt > 0 or any(not abs(b - a - dt) <= 1e-12 + 1e-8 * dt for a, b in zip(taus, taus[1:])):
            raise DomainError("table grid must be uniform and increasing")
        period = taus[-1] + dt
        return PeriodicScalar("table", period, knots=((*taus, period), (*values, values[0])))


class PerturbationSpec:
    """The eight perturbation ingredients plus resonance bookkeeping.

    ``K`` holds the forcing scalars K₁..K₄ and ``F`` the linear forms
    F₁..F₄, each a 4-tuple of periodic scalars (d₁, d₂, d₃, d₄), the
    coefficients of x, y, z and w.  ``family`` selects which orbit family
    the forcing is resonant with and ``p`` how many times that orbit is
    traversed per forcing period.

    ``table`` is the forcing as one affine table P of shape (2, 2, 5):
    component (f_y, f_w) × (plain, signed) × column (x, y, z, w, 1), so
    that f_i = Σ_j P[i,0,j]·s_j + σ_i·Σ_j P[i,1,j]·s_j with s₅ = 1.  Row
    [i, 0] holds F₁, K₁ (F₃, K₃ for f_w), row [i, 1] F₂, K₂ (F₄, K₄).  P
    is stated as its entries in index order, exact-zero constants left
    out: ((i, part, j), value, None) for a ``const`` scalar and
    ((i, part, j), 1.0, scalar) for any other.
    """

    __slots__ = ("K", "F", "family", "p", "table")

    def __init__(self, K: Tuple[PeriodicScalar, ...], F: Tuple[Tuple[PeriodicScalar, ...], ...],
                 family: int = 1, p: int = 1):
        if family not in (1, 2):
            raise DomainError(f"family must be 1 or 2, got {family!r}")
        if p < 1 or int(p) != p:
            raise DomainError(f"traversal count p must be a positive integer, got {p!r}")
        if len(K) != 4 or len(F) != 4 or any(len(form) != 4 for form in F):
            raise DomainError("need exactly four forcing scalars and four linear forms of four coefficients")
        self.K, self.F, self.family, self.p = K, F, family, p
        entries = []
        for i in range(2):
            for part in range(2):
                for j, scalar in enumerate((*F[2 * i + part], K[2 * i + part])):
                    if scalar.kind != "const":
                        entries.append(((i, part, j), 1.0, scalar))
                    elif scalar.value != 0.0:
                        entries.append(((i, part, j), scalar.value, None))
        self.table = tuple(entries)

    def validate_against(self, spectral: SpectralData) -> None:
        """Check every component period divides p·T_family at least once; the
        error names the component by its key in ``ENTRY_KEYS``."""
        window = self.p * spectral.period(self.family)
        coefficients = (c for form in self.F for c in form)
        for key, scalar in zip(ENTRY_KEYS, (*self.K, *coefficients)):
            ratio = window / scalar.period
            if round(ratio) < 1 or abs(ratio - round(ratio)) > PERIOD_DIVISIBILITY_TOL * max(1.0, abs(ratio)):
                raise DomainError(
                    f"perturbation key {key}: component period {scalar.period!r} does not divide "
                    f"the averaging window p·T = {window!r} (ratio {ratio!r})"
                )


def table_knots(scalars, t0: float, t1: float) -> Tuple[float, ...]:
    """The knots between t0 and t1, ascending, of the tables among
    ``scalars``, where linear interpolation has a kink; other scalars and
    None are skipped.  A knot within the period-divisibility tolerance of
    an end counts as that end."""
    lo, hi = min(t0, t1), max(t0, t1)
    margin = PERIOD_DIVISIBILITY_TOL * (hi - lo)
    knots = {t + k * d.period for d in scalars if d is not None and d.kind == "table"
             for k in range(math.floor(lo / d.period), math.ceil(hi / d.period))
             for t in d.knots[0][:-1]}
    return tuple(sorted(t for t in knots if lo + margin < t < hi - margin))


def smooth_sign(x: float, delta: float) -> float:
    """C¹ odd ramp s_δ at the float x (an int is taken as a float):
    sign(x) for |x| ≥ δ, else x(3δ² − x²)/(2δ³).  Where δ³ would overflow
    or vanish the same ramp is r(3 − r²)/2 with r = x/δ."""
    if not delta > 0:
        raise DomainError(f"regularization width delta must be positive, got {delta!r}")
    if abs(x) >= delta:
        return math.copysign(1.0, x)
    if 1e-100 <= delta <= 1e100:
        return x * (3.0 * delta * delta - x * x) / (2.0 * delta ** 3)
    r = x / delta
    return r * (3.0 - r * r) / 2.0


def finite_float(text) -> float:
    """float(text), refusing NaN and ±inf: no model or run parameter takes them."""
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"{text!r} is not a finite number")
    return number


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file ``path``; DomainError naming ``what`` and
    the file when it cannot be opened or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
    raise DomainError(f"cannot read {what} {os.fspath(path)!r}: {reason}")


def read_ini(path, what: str) -> configparser.ConfigParser:
    """The INI file ``path``, parsed without interpolation; DomainError
    naming ``what`` and the file when it cannot be read or parsed."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path, what), source=os.fspath(path))
    except configparser.Error as exc:
        reason = " ".join(map(str.strip, str(exc).splitlines()))
        raise DomainError(f"cannot parse {what} {os.fspath(path)!r}: {reason}") from None
    return parser


def parse_keyed(where: str, text: str, parse: Callable = finite_float, ok: Optional[Callable] = None,
                reason: str = ""):
    """``parse(text)`` for the key ``where``: DomainError naming it when the
    text does not parse (ValueError) or the value fails ``ok``, which
    states ``reason``."""
    try:
        value = parse(text)
    except ValueError:
        raise DomainError(f"{where}: cannot parse {text!r}") from None
    if ok is not None and not ok(value):
        raise DomainError(f"{where}: {reason}, got {value!r}")
    return value


# How a resonance family and order parse and which values they may take,
# in experiment files and perturbation files alike: parse_keyed's rule.
FAMILY_RULE = (int, lambda family: family in (1, 2), "must be 1 or 2")
ORDER_RULE = (int, lambda p: p >= 1, "the resonance order must be at least 1")


def _parse_scalar_entry(key: str, entry: str, spectral: SpectralData, family: int, window: float,
                        base_dir: str) -> PeriodicScalar:
    where = f"perturbation file key {key}"
    kind, _, rest = entry.strip().partition(":")
    kind = kind.strip().lower()
    if kind == "const":
        return PeriodicScalar.constant(parse_keyed(where, rest), window)
    if kind in ("cos", "sin"):
        parts = [s.strip() for s in rest.split(",")]
        if len(parts) != 2:
            raise DomainError(f"{where}: {kind} entry needs '<amp>,<harmonic>', got {entry!r}")
        amp, harmonic = (parse_keyed(where, part) for part in parts)
        if harmonic <= 0:
            raise DomainError(f"{where}: harmonic must be positive, got {entry!r}")
        return PeriodicScalar.harmonic(kind, amp, harmonic * spectral.omega(family))
    if kind == "table":
        path = rest.strip()
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            text = read_text(path, "table")
            rows = [row for row in csv.reader(io.StringIO(text)) if row and not row[0].lstrip().startswith("#")]
            if any(len(row) < 2 for row in rows):
                raise DomainError(f"every row of table {path!r} needs two columns (tau, value)")
            source = f"table {path!r}"
            taus = [parse_keyed(source, row[0]) for row in rows]
            values = [parse_keyed(source, row[1]) for row in rows]
            return PeriodicScalar.from_table(taus, values)
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
    raise DomainError(f"{where}: unknown scalar entry kind {kind!r} in {entry!r}")


# Every key a perturbation may set, in the order its entries are parsed.
ENTRY_KEYS = (*(f"k{i}" for i in range(1, 5)), *(f"f{i}.d{j}" for i in range(1, 5) for j in range(1, 5)))


def _spec_from_entries(entries, spectral: SpectralData, family: int, p: int, base_dir: str) -> PerturbationSpec:
    """The spec of ``entries`` (key: scalar entry), missing keys zero,
    checked against the averaging window."""
    window = p * spectral.period(family)
    scalars = [_parse_scalar_entry(key, entries[key], spectral, family, window, base_dir) if key in entries
               else PeriodicScalar.constant(0.0, window) for key in ENTRY_KEYS]
    unknown = set(entries) - set(ENTRY_KEYS)
    if unknown:
        raise DomainError(f"unknown perturbation keys: {sorted(unknown)}")
    forms = tuple(tuple(scalars[i:i + 4]) for i in (4, 8, 12, 16))
    spec = PerturbationSpec(K=tuple(scalars[:4]), F=forms, family=family, p=p)
    spec.validate_against(spectral)
    return spec


def perturbation_from_file(path: str, spectral: SpectralData) -> PerturbationSpec:
    """Load a perturbation definition file.

    INI-style text with a single ``[perturbation]`` section.  Keys:
    ``family`` (1|2), ``p`` (positive integer), ``K1``..``K4`` for the
    forcing scalars and ``F1.d1``..``F4.d4`` for the linear-form
    coefficients.  Each value is one of ``const:<v>``,
    ``cos:<amp>,<harmonic>``, ``sin:<amp>,<harmonic>`` (harmonic counted
    relative to ω_family) or ``table:<csv-path>`` (two columns: tau,
    value).  Missing keys default to zero.  Every number must be finite;
    a value or table that does not parse or fails its checks, a period
    that does not divide the averaging window, and a ``family`` or ``p``
    out of range raise DomainError naming the key.
    """
    parser = read_ini(path, "perturbation file")
    if not parser.has_section("perturbation"):
        raise DomainError(f"perturbation file {os.fspath(path)!r} lacks a [perturbation] section")
    entries = dict(parser["perturbation"])
    family = parse_keyed("perturbation file key family", entries.pop("family", "1"), *FAMILY_RULE)
    p = parse_keyed("perturbation file key p", entries.pop("p", "1"), *ORDER_RULE)
    return _spec_from_entries(entries, spectral, family, p, os.path.dirname(os.path.abspath(path)))


# The paper's three examples as perturbation-file entries; a builtin's
# parameters are the names in braces.
BUILTINS = {
    "damped_forced": {"k1": "cos:{gamma},1", "f1.d2": "const:-1", "f3.d4": "const:-1"},
    "damped_forced_escapement": {"k1": "cos:{gamma},1", "k2": "const:{kappa}", "k4": "const:{kappa}",
                                 "f1.d2": "const:-1", "f3.d4": "const:-1"},
    "corollary_escapement": {"k2": "const:{sigma_e}", "k4": "const:{sigma_e}",
                             "f1.d2": "const:{sigma_d}", "f3.d4": "const:{sigma_d}"},
}
BUILTIN_PARAMS = {name: tuple(sorted(set(re.findall(r"\{(\w+)\}", " ".join(entries.values())))))
                  for name, entries in BUILTINS.items()}


def builtin(name: str, params: dict, spectral: SpectralData, family: int = 1, p: int = 1) -> PerturbationSpec:
    """Canonical test perturbations.

    * ``damped_forced``: K₁(τ) = γ·cos(ω_f τ), damping F₁ = −θ₁′ and
      F₃ = −θ₂′; parameter γ.
    * ``damped_forced_escapement``: the above plus constant escapement
      kicks K₂ = K₄ = κ; parameters γ, κ.
    * ``corollary_escapement``: F₁ = σ_d·θ₁′, F₃ = σ_d·θ₂′ and constants
      K₂ = K₄ = σ_e with σ_d, σ_e ∈ {−1, +1}.
    """
    if name not in BUILTINS:
        raise DomainError(f"unknown builtin perturbation {name!r}; known: {', '.join(BUILTINS)}")
    values = {}
    for key in BUILTIN_PARAMS[name]:
        if key not in params:
            raise DomainError(f"builtin perturbation {name!r} needs parameter {key!r}")
        values[key] = float(params[key])
    if name == "corollary_escapement" and not {values["sigma_d"], values["sigma_e"]} <= {-1.0, 1.0}:
        raise DomainError("corollary_escapement needs sigma_d, sigma_e in {-1, +1}")
    # repr round-trips, so the parsed numbers are the parameters bit for bit.
    texts = {key: repr(value) for key, value in values.items()}
    entries = {key: entry.format_map(texts) for key, entry in BUILTINS[name].items()}
    return _spec_from_entries(entries, spectral, family, p, base_dir="")
