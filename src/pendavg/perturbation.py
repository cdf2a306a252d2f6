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
least 256 samples per period), evaluated on scalar or array arguments.
A small file format states a perturbation as one entry per scalar
(``k1 = cos:<amp>,<harmonic>``, ``f1.d2 = const:<v>``, …); the builtins
are such entries with their parameters in braces, and every spec, builtin
or file, is built from its entries by one function.

Each spec folds K and F once, on first use (exact-zero constants
dropped, other constants made floats), and every evaluation reads that
folding: :func:`eval_order1_with_signs` for any signs,
:func:`eval_order1_parts` for its state-linear part R·s and its constant
part k apart (the averaged pair integrates the two separately) and, for
frozen signs, the affine form (f_y, f_w) = R(τ)·s + k(τ) of
:meth:`PerturbationSpec.frozen`, one precomputed array on constant
coefficients, from which the integrator builds each segment's field.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .model import SpectralData

MIN_TABLE_SAMPLES_PER_PERIOD = 256
SCALAR_KINDS = ("const", "cos", "sin", "table")
PERIOD_DIVISIBILITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PeriodicScalar:
    """A periodic function of time with a declared period, as tagged data.

    ``kind`` is ``"const"`` (``value``), ``"cos"`` or ``"sin"``
    (``value``·trig(``omega``·τ)) or ``"table"`` (linear interpolation of
    ``knots`` = (τ, value) closed over one period).  Build one with
    :meth:`constant`, :meth:`harmonic` or :meth:`from_table`.
    """

    kind: str
    period: float
    value: float = 0.0
    omega: float = 0.0
    knots: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS:
            raise DomainError(f"scalar kind must be one of {SCALAR_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise DomainError(f"period must be a positive real, got {self.period!r}")

    def __call__(self, tau):
        if self.kind == "const":
            return np.asarray(tau, dtype=float) * 0.0 + self.value
        if self.kind == "table":
            return np.interp(np.mod(tau, self.period), *self.knots)
        trig = np.cos if self.kind == "cos" else np.sin
        return self.value * trig(self.omega * tau)

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
        taus = np.asarray(taus, dtype=float)
        values = np.asarray(values, dtype=float)
        if taus.ndim != 1 or taus.shape != values.shape:
            raise DomainError("table needs matching 1-d tau and value columns")
        if len(taus) < MIN_TABLE_SAMPLES_PER_PERIOD:
            raise DomainError(
                f"table resolves {len(taus)} samples per period, "
                f"need at least {MIN_TABLE_SAMPLES_PER_PERIOD}"
            )
        if abs(taus[0]) > 1e-12:
            raise DomainError("table grid must start at tau = 0")
        steps = np.diff(taus)
        dt = steps[0]
        if dt <= 0 or not np.allclose(steps, dt, rtol=1e-8, atol=1e-12):
            raise DomainError("table grid must be uniform and increasing")
        period = float(taus[-1] + dt)
        knots = (np.append(taus, period), np.append(values, values[0]))
        return PeriodicScalar("table", period, knots=knots)


@dataclass(frozen=True, eq=False)
class LinearForm:
    """Linear form d₁(τ)x + d₂(τ)y + d₃(τ)z + d₄(τ)w with periodic coefficients."""

    d1: PeriodicScalar
    d2: PeriodicScalar
    d3: PeriodicScalar
    d4: PeriodicScalar

    def coefficients(self) -> Tuple[PeriodicScalar, ...]:
        return (self.d1, self.d2, self.d3, self.d4)

    def evaluate(self, tau, state):
        """Evaluate at scalar/array tau with state of shape (4,) or (4, n)."""
        state = np.asarray(state, dtype=float)
        return (
            self.d1(tau) * state[0]
            + self.d2(tau) * state[1]
            + self.d3(tau) * state[2]
            + self.d4(tau) * state[3]
        )

    @staticmethod
    def zero(period: float) -> "LinearForm":
        z = PeriodicScalar.constant(0.0, period)
        return LinearForm(z, z, z, z)


@dataclass(frozen=True, eq=False)
class PeriodicArray:
    """An array of folded sums of periodic scalars: ``constant`` plus, for
    each of ``terms`` (index, factor, scalar), factor·scalar(τ) at index."""

    constant: np.ndarray
    terms: Tuple[Tuple[tuple, float, PeriodicScalar], ...] = ()

    def __call__(self, tau: float) -> np.ndarray:
        """The array at a scalar τ (the shared ``constant`` when no term varies)."""
        if not self.terms:
            return self.constant
        out = self.constant.copy()
        for index, factor, scalar in self.terms:
            out[index] += factor * scalar(tau)
        return out

    def embedded(self, base: np.ndarray, rows: Sequence[int], scale: float) -> "PeriodicArray":
        """``base`` plus ``scale`` times this array, its row i added to ``rows[i]``."""
        constant = np.array(base, dtype=float)
        constant[list(rows)] += scale * self.constant
        return PeriodicArray(constant, tuple(((rows[index[0]],) + index[1:], scale * factor, scalar)
                                             for index, factor, scalar in self.terms))


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """The eight perturbation ingredients plus resonance bookkeeping.

    ``family`` selects which orbit family the forcing is resonant with and
    ``p`` how many times that orbit is traversed per forcing period.
    """

    K: Tuple[PeriodicScalar, PeriodicScalar, PeriodicScalar, PeriodicScalar]
    F: Tuple[LinearForm, LinearForm, LinearForm, LinearForm]
    family: int = 1
    p: int = 1

    def __post_init__(self):
        if self.family not in (1, 2):
            raise DomainError(f"family must be 1 or 2, got {self.family!r}")
        if self.p < 1 or int(self.p) != self.p:
            raise DomainError(f"traversal count p must be a positive integer, got {self.p!r}")
        if len(self.K) != 4 or len(self.F) != 4:
            raise DomainError("need exactly four forcing scalars and four linear forms")

    @cached_property
    def _groups(self):
        """The one folding: per component (f_y, f_w), the folded groups of
        (K, F) and of the signed (K′, F′)."""
        K, F = self.K, self.F
        return tuple((_fold_group(K[i], F[i]), _fold_group(K[i + 1], F[i + 1])) for i in (0, 2))

    @cached_property
    def _readouts(self):
        """Per component, the folding read whole, as its state-linear part
        and as its constant part (see :func:`_shaped`)."""
        period = self.K[0].period
        return tuple((_shaped(k, terms, k_s, terms_s, period), _shaped(None, terms, None, terms_s, period),
                      _shaped(k, (), k_s, (), period)) for (k, terms), (k_s, terms_s) in self._groups)

    def frozen(self, sgn_x: float, sgn_z: float) -> Tuple[PeriodicArray, PeriodicArray]:
        """The forcing for frozen signs, affine: (f_y, f_w) = R(τ)·s + k(τ).

        Row i of R (2 × 4) holds the coefficients of F + σ·F′ of component
        i and k_i = K + σ·K′, from the folding; constant terms are summed.
        """
        parts = (np.zeros((2, 4)), []), (np.zeros(2), [])
        for row, (groups, sgn) in enumerate(zip(self._groups, (sgn_x, sgn_z))):
            for (k, form_terms), factor in zip(groups, (1.0, float(sgn))):
                if factor == 0.0:
                    continue
                entries = [(d, parts[0], (row, j)) for d, j in form_terms]
                if k is not None:
                    entries.append((k, parts[1], (row,)))
                for d, (constant, terms), index in entries:
                    if d.__class__ is float:
                        constant[index] += factor * d
                    else:
                        terms.append((index, factor, d))
        return tuple(PeriodicArray(constant, tuple(terms)) for constant, terms in parts)

    def table_knots(self, t0: float, t1: float) -> Tuple[float, ...]:
        """The knots of the spec's tables between t0 and t1, ascending:
        linear interpolation has a kink at each.  A knot within the
        period-divisibility tolerance of an end counts as that end."""
        lo, hi = min(t0, t1), max(t0, t1)
        margin = PERIOD_DIVISIBILITY_TOL * (hi - lo)
        scalars = (*self.K, *(d for form in self.F for d in form.coefficients()))
        knots = {t + k * d.period for d in scalars if d.kind == "table"
                 for k in range(math.floor(lo / d.period), math.ceil(hi / d.period))
                 for t in d.knots[0][:-1].tolist()}
        return tuple(sorted(t for t in knots if lo + margin < t < hi - margin))

    def validate_against(self, spectral: SpectralData) -> None:
        """Check every component period divides p·T_family."""
        window = self.p * spectral.period(self.family)
        coefficients = (c for form in self.F for c in form.coefficients())
        for period in (scalar.period for scalar in (*self.K, *coefficients)):
            ratio = window / period
            if abs(ratio - round(ratio)) > PERIOD_DIVISIBILITY_TOL * max(1.0, abs(ratio)):
                raise DomainError(
                    f"component period {period!r} does not divide the averaging "
                    f"window p·T = {window!r} (ratio {ratio!r})"
                )


def _fold(scalar: PeriodicScalar):
    """None for an exact-zero constant, a float for any other constant."""
    if scalar.kind != "const":
        return scalar
    return float(scalar.value) if scalar.value != 0.0 else None


def _fold_group(k: PeriodicScalar, form: LinearForm):
    """K and the (coefficient, state index) terms of F left after folding."""
    terms = tuple((d, j) for j, d in enumerate(map(_fold, form.coefficients())) if d is not None)
    return _fold(k), terms


def _shaped(k, terms, k_s, terms_s, period: float):
    """The read-out as given or, when no part of it depends on τ or the
    state, with K a constant scalar, so that its value takes τ's shape."""
    if terms or terms_s or k.__class__ is PeriodicScalar or k_s.__class__ is PeriodicScalar:
        return k, terms, k_s, terms_s
    return PeriodicScalar.constant(k or 0.0, period), terms, k_s, terms_s


def _group_value(k, terms, tau, state):
    """K + (d₁x + d₂y + d₃z + d₄w) over the folded terms; None if none is left."""
    total = None
    for d, j in terms:
        term = (d if d.__class__ is float else d(tau)) * state[j]
        total = term if total is None else total + term
    if k is None:
        return total
    if k.__class__ is not float:
        k = k(tau)
    return k if total is None else k + total


def _read(readout, tau, state, sgn):
    """K + F + (K′ + F′)·σ over one read-out of the folding."""
    k, terms, k_s, terms_s = readout
    value = _group_value(k, terms, tau, state)
    signed = _group_value(k_s, terms_s, tau, state)
    if signed is None:
        return value
    signed = signed * sgn
    return signed if value is None else value + signed


def eval_order1_with_signs(spec: PerturbationSpec, tau, state, sgn_x, sgn_z):
    """Order-ε forcing (f_y, f_w) of the y′ and w′ equations.

    ``sgn_x`` and ``sgn_z`` stand in for sgn(x) and sgn(z); the caller
    resolves them.  Scalar or array ``tau`` with state of shape (4,) or
    (4, n).  The sums keep the association K + (d₁x + d₂y + d₃z + d₄w),
    then (…)·σ, so the values equal the term-by-term sum except possibly
    for the sign of a zero.
    """
    state = np.asarray(state, dtype=float)
    (y, _, _), (w, _, _) = spec._readouts
    return _read(y, tau, state, sgn_x), _read(w, tau, state, sgn_z)


def eval_order1_parts(spec: PerturbationSpec, tau, state, sgn_x, sgn_z):
    """The state-linear part R·s and the constant part k of the forcing,
    each as (f_y, f_w): the forcings of the spec without K and without F."""
    state = np.asarray(state, dtype=float)
    (_, linear_y, constant_y), (_, linear_w, constant_w) = spec._readouts
    return ((_read(linear_y, tau, state, sgn_x), _read(linear_w, tau, state, sgn_z)),
            (_read(constant_y, tau, state, sgn_x), _read(constant_w, tau, state, sgn_z)))


def smooth_sign(x, delta: float):
    """C¹ odd ramp s_δ: sign(x) for |x| ≥ δ, else x(3δ² − x²)/(2δ³)."""
    if not delta > 0:
        raise DomainError(f"regularization width delta must be positive, got {delta!r}")
    x = np.asarray(x, dtype=float)
    inner = x * (3.0 * delta * delta - x * x) / (2.0 * delta ** 3)
    return np.where(np.abs(x) >= delta, np.sign(x), inner)


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
        raise DomainError(f"cannot parse {what} {os.fspath(path)!r}: {exc}") from None
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
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
        rows = [row for row in csv.reader(io.StringIO(text)) if row and not row[0].lstrip().startswith("#")]
        if any(len(row) < 2 for row in rows):
            raise DomainError(f"{where}: every row of table {path!r} needs two columns (tau, value)")
        taus = [parse_keyed(where, row[0]) for row in rows]
        values = [parse_keyed(where, row[1]) for row in rows]
        return PeriodicScalar.from_table(taus, values)
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
    forms = tuple(LinearForm(*scalars[i:i + 4]) for i in (4, 8, 12, 16))
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
    a value or table that does not parse, and a ``family`` or ``p`` out of
    range, raises DomainError naming its key.
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
