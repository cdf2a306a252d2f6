"""First-order perturbation data for the reduced pendulum system.

A perturbation consists of four periodic forcing scalars K₁..K₄ and four
linear forms F₁..F₄ whose coefficients d_i^j are periodic scalars.  They
enter the reduced system as the order-ε terms

    y′ += ε·(K₁(τ) + F₁(τ, s) + (K₂(τ) + F₂(τ, s))·σ_x),
    w′ += ε·(K₃(τ) + F₃(τ, s) + (K₄(τ) + F₄(τ, s))·σ_z),

with s = (x, y, z, w).  :func:`eval_order1_with_signs` is the one place
that combines K and F; its callers choose the sign values σ_x, σ_z: the
region signs of the event-driven integrator (exact sgn, sgn(0) = 0), the
C¹ odd ramp s_δ of the regularized integrator, or the signs along an
unperturbed orbit for the averaged pair.

Periodic scalars are tagged data: ``const`` (a value), ``cos``/``sin``
(amplitude and ω) or ``table`` (uniform grid, linear interpolation, at
least 256 samples per period), evaluated on scalar or array arguments.
A small file format holds user-supplied perturbations.

Each spec compiles its forcing once, on first use
(:attr:`PerturbationSpec.forcing`): exact-zero constants are dropped and
the other constants become floats, so an evaluation touches only the
terms that can be nonzero.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .model import SpectralData

__all__ = [
    "PeriodicScalar",
    "LinearForm",
    "PerturbationSpec",
    "eval_order1_with_signs",
    "smooth_sign",
    "builtin",
    "perturbation_from_file",
    "BUILTIN_NAMES",
    "BUILTIN_PARAMS",
]

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

    def __post_init__(self):
        self.common_coefficient_period()

    def coefficients(self) -> Tuple[PeriodicScalar, ...]:
        return (self.d1, self.d2, self.d3, self.d4)

    def common_coefficient_period(self) -> float:
        """Least common multiple of the coefficient periods.

        Periods must be pairwise commensurate with ratios expressible over
        denominators up to 4096; anything else raises DomainError.
        """
        base = min(c.period for c in self.coefficients())
        num_lcm, den_gcd = 1, 0
        for c in self.coefficients():
            ratio = c.period / base
            frac = Fraction(ratio).limit_denominator(4096)
            if frac <= 0 or abs(ratio - float(frac)) > PERIOD_DIVISIBILITY_TOL * max(1.0, ratio):
                raise DomainError(
                    "linear-form coefficients do not share a common period: "
                    f"{c.period!r} is incommensurate with {base!r}"
                )
            num_lcm = num_lcm * frac.numerator // math.gcd(num_lcm, frac.numerator)
            den_gcd = math.gcd(den_gcd, frac.denominator)
        return base * num_lcm / den_gcd

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
    def forcing(self) -> Callable:
        """The forcing of :func:`eval_order1_with_signs`, compiled on first use.

        Exact-zero constant terms are dropped and the other constants
        become floats; the sums keep the association
        K + (d₁x + d₂y + d₃z + d₄w), then (…)·σ, so the values equal the
        term-by-term sum except possibly for the sign of a zero.
        """
        f_y = _compile_component(self.K[0], self.F[0], self.K[1], self.F[1])
        f_w = _compile_component(self.K[2], self.F[2], self.K[3], self.F[3])

        def forcing(tau, state, sgn_x, sgn_z):
            state = np.asarray(state, dtype=float)
            return f_y(tau, state, sgn_x), f_w(tau, state, sgn_z)

        return forcing

    def component_periods(self) -> Tuple[float, ...]:
        periods = [k.period for k in self.K]
        for form in self.F:
            periods.extend(c.period for c in form.coefficients())
        return tuple(periods)

    def validate_against(self, spectral: SpectralData) -> None:
        """Check every component period divides p·T_family."""
        window = self.p * spectral.period(self.family)
        for period in self.component_periods():
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


def _is_constant(group) -> bool:
    k, terms = group
    return not terms and not isinstance(k, PeriodicScalar)


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


def _compile_component(k, form, k_signed, form_signed):
    """(tau, state, σ) → K + F + (K' + F')·σ with the zero terms folded."""
    base = _fold_group(k, form)
    signed = _fold_group(k_signed, form_signed)
    if _is_constant(base) and _is_constant(signed):
        # Nothing depends on tau or the state: evaluate K as a constant
        # scalar so the result still takes the shape of tau.
        base = (PeriodicScalar.constant(base[0] or 0.0, k.period), ())

    def component(tau, state, sgn):
        value = _group_value(*base, tau, state)
        signed_value = _group_value(*signed, tau, state)
        if signed_value is None:
            return value
        signed_value = signed_value * sgn
        return signed_value if value is None else value + signed_value

    return component


def eval_order1_with_signs(spec: PerturbationSpec, tau, state, sgn_x, sgn_z):
    """Order-ε forcing (f_y, f_w) of the y′ and w′ equations.

    ``sgn_x`` and ``sgn_z`` stand in for sgn(x) and sgn(z); the caller
    resolves them.  Scalar or array ``tau`` with state of shape (4,) or
    (4, n).  Evaluates the spec's compiled :attr:`PerturbationSpec.forcing`.
    """
    return spec.forcing(tau, state, sgn_x, sgn_z)


def smooth_sign(x, delta: float):
    """C¹ odd ramp s_δ: sign(x) for |x| ≥ δ, else x(3δ² − x²)/(2δ³)."""
    if not delta > 0:
        raise DomainError(f"regularization width delta must be positive, got {delta!r}")
    x = np.asarray(x, dtype=float)
    inner = x * (3.0 * delta * delta - x * x) / (2.0 * delta ** 3)
    return np.where(np.abs(x) >= delta, np.sign(x), inner)


BUILTIN_PARAMS = {
    "damped_forced": ("gamma",),
    "damped_forced_escapement": ("gamma", "kappa"),
    "corollary_escapement": ("sigma_d", "sigma_e"),
}
BUILTIN_NAMES = tuple(BUILTIN_PARAMS)


def builtin(name: str, params: dict, spectral: SpectralData, family: int = 1, p: int = 1) -> PerturbationSpec:
    """Canonical test perturbations.

    * ``damped_forced``: K₁(τ) = γ·cos(ω_f τ), damping F₁ = −θ₁′ and
      F₃ = −θ₂′; parameter γ.
    * ``damped_forced_escapement``: the above plus constant escapement
      kicks K₂ = K₄ = κ; parameters γ, κ.
    * ``corollary_escapement``: F₁ = σ_d·θ₁′, F₃ = σ_d·θ₂′ and constants
      K₂ = K₄ = σ_e with σ_d, σ_e ∈ {−1, +1}.
    """
    window = p * spectral.period(family)
    omega = spectral.omega(family)

    def param(key):
        if key not in params:
            raise DomainError(f"builtin perturbation {name!r} needs parameter {key!r}")
        return float(params[key])

    zero_k = PeriodicScalar.constant(0.0, window)
    zero_f = LinearForm.zero(window)

    def damping(sigma):
        z = PeriodicScalar.constant(0.0, window)
        s = PeriodicScalar.constant(float(sigma), window)
        f1 = LinearForm(z, s, z, z)
        f3 = LinearForm(z, z, z, s)
        return f1, f3

    if name == "damped_forced" or name == "damped_forced_escapement":
        gamma = param("gamma")
        k1 = PeriodicScalar.harmonic("cos", gamma, omega)
        f1, f3 = damping(-1.0)
        if name == "damped_forced":
            k2 = k4 = zero_k
        else:
            kappa = param("kappa")
            k2 = PeriodicScalar.constant(kappa, window)
            k4 = PeriodicScalar.constant(kappa, window)
        spec = PerturbationSpec(K=(k1, k2, zero_k, k4), F=(f1, zero_f, f3, zero_f), family=family, p=p)
    elif name == "corollary_escapement":
        sigma_d = param("sigma_d")
        sigma_e = param("sigma_e")
        if sigma_d not in (-1.0, 1.0) or sigma_e not in (-1.0, 1.0):
            raise DomainError("corollary_escapement needs sigma_d, sigma_e in {-1, +1}")
        f1, f3 = damping(sigma_d)
        k2 = PeriodicScalar.constant(sigma_e, window)
        k4 = PeriodicScalar.constant(sigma_e, window)
        spec = PerturbationSpec(K=(zero_k, k2, zero_k, k4), F=(f1, zero_f, f3, zero_f), family=family, p=p)
    else:
        raise DomainError(f"unknown builtin perturbation {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    spec.validate_against(spectral)
    return spec


def finite_float(text) -> float:
    """float(text), refusing NaN and ±inf: no model or run parameter takes them."""
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"{text!r} is not a finite number")
    return number


def _file_number(key: str, text: str, convert: Callable = finite_float):
    """One number of a perturbation file; a bad one is a DomainError naming its key."""
    try:
        return convert(text)
    except ValueError:
        raise DomainError(f"perturbation file key {key}: cannot parse {text!r}") from None


def _parse_scalar_entry(key: str, entry: str, spectral: SpectralData, family: int, window: float,
                        base_dir: str) -> PeriodicScalar:
    where = f"perturbation file key {key}"
    kind, _, rest = entry.strip().partition(":")
    kind = kind.strip().lower()
    if kind == "const":
        return PeriodicScalar.constant(_file_number(key, rest), window)
    if kind in ("cos", "sin"):
        parts = [s.strip() for s in rest.split(",")]
        if len(parts) != 2:
            raise DomainError(f"{where}: {kind} entry needs '<amp>,<harmonic>', got {entry!r}")
        amp, harmonic = (_file_number(key, part) for part in parts)
        if harmonic <= 0:
            raise DomainError(f"{where}: harmonic must be positive, got {entry!r}")
        return PeriodicScalar.harmonic(kind, amp, harmonic * spectral.omega(family))
    if kind == "table":
        path = rest.strip()
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            with open(path, newline="") as fh:
                rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
        except OSError as exc:
            raise DomainError(f"{where}: cannot read table {path!r}: {exc.strerror}") from None
        if any(len(row) < 2 for row in rows):
            raise DomainError(f"{where}: every row of table {path!r} needs two columns (tau, value)")
        taus = [_file_number(key, row[0]) for row in rows]
        values = [_file_number(key, row[1]) for row in rows]
        return PeriodicScalar.from_table(taus, values)
    raise DomainError(f"{where}: unknown scalar entry kind {kind!r} in {entry!r}")


def perturbation_from_file(path: str, spectral: SpectralData) -> PerturbationSpec:
    """Load a perturbation definition file.

    INI-style text with a single ``[perturbation]`` section.  Keys:
    ``family`` (1|2), ``p`` (positive integer), ``K1``..``K4`` for the
    forcing scalars and ``F1.d1``..``F4.d4`` for the linear-form
    coefficients.  Each value is one of ``const:<v>``,
    ``cos:<amp>,<harmonic>``, ``sin:<amp>,<harmonic>`` (harmonic counted
    relative to ω_family) or ``table:<csv-path>`` (two columns: tau,
    value).  Missing keys default to zero.  Every number must be finite;
    a value or table that does not parse raises DomainError naming its key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise DomainError(f"cannot parse perturbation file {path!r}: {exc}") from None
    if not read:
        raise DomainError(f"cannot read perturbation file {path!r}")
    if not parser.has_section("perturbation"):
        raise DomainError(f"perturbation file {path!r} lacks a [perturbation] section")
    section = parser["perturbation"]
    family = _file_number("family", section.get("family", "1"), int)
    p = _file_number("p", section.get("p", "1"), int)
    if family not in (1, 2):
        raise DomainError(f"family must be 1 or 2, got {family!r}")
    window = p * spectral.period(family)
    base_dir = os.path.dirname(os.path.abspath(path))

    def scalar(key):
        if key in section:
            return _parse_scalar_entry(key, section[key], spectral, family, window, base_dir)
        return PeriodicScalar.constant(0.0, window)

    known = {"family", "p"}
    ks = []
    for i in range(1, 5):
        ks.append(scalar(f"k{i}"))
        known.add(f"k{i}")
    fs = []
    for i in range(1, 5):
        coeffs = []
        for j in range(1, 5):
            coeffs.append(scalar(f"f{i}.d{j}"))
            known.add(f"f{i}.d{j}")
        fs.append(LinearForm(*coeffs))
    unknown = set(section.keys()) - known
    if unknown:
        raise DomainError(f"unknown perturbation keys: {sorted(unknown)}")
    spec = PerturbationSpec(K=tuple(ks), F=tuple(fs), family=family, p=p)
    spec.validate_against(spectral)
    return spec
