#!/usr/bin/env python3
"""Independent derivations of every frozen constant asserted in the tests.

Each section recomputes a quantity through a route that shares nothing with
the package internals: eigensolvers instead of closed-form frequencies,
matrix exponentials instead of rotation-block fundamental matrices, dense
Riemann/trapezoid sums instead of adaptive panels, and hand-written averaged
closed forms instead of the quadrature pipeline.  Run it before touching a
numeric literal in the test suite; the printed values are the only admissible
source for those literals.

Usage: python3 scripts/derive_oracles.py [--check]

With --check the script additionally imports the installed package and prints
its values next to the oracle values for a side-by-side comparison.
"""

from __future__ import annotations

import argparse
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

G_ACC = 9.8


def reduced_constants(m1=1.0, m2=1.0, l1=1.0, l2=1.0, g=G_ACC):
    alpha = math.sqrt(l1 * m1 / (g * m2))
    a = (m1 + m2) / m2
    b = l1 * (m1 + m2) / (l2 * m2)
    return alpha, a, b


def linear_matrix(a, b):
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-a, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [b, 0.0, -b, 0.0],
        ]
    )


def spectral_closed(a, b):
    delta = (a - b) ** 2 + 4 * b
    sd = math.sqrt(delta)
    w1 = math.sqrt((a + b - sd) / 2.0)
    w2 = math.sqrt((a + b + sd) / 2.0)
    return sd, w1, w2


def spectral_eig(a, b):
    """Frequencies straight from the eigensolver, no closed forms."""
    ev = np.linalg.eigvals(linear_matrix(a, b))
    freqs = np.sort(np.unique(np.round(np.abs(ev.imag), 12)))
    freqs = freqs[freqs > 0]
    assert freqs.size == 2, freqs
    return float(freqs[0]), float(freqs[1])


def section(title):
    print()
    print(f"== {title} ==")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="also print the package's values for comparison")
    args = parser.parse_args()

    rng = np.random.default_rng(20260815)

    section("reduced parameters and spectrum, m=l=1, g=9.8")
    alpha, a, b = reduced_constants()
    sd, w1, w2 = spectral_closed(a, b)
    t1 = 2 * math.pi / w1
    t2 = 2 * math.pi / w2
    print(f"alpha = {alpha!r}")
    print(f"a = {a!r}, b = {b!r}, sqrt(Delta) = {sd!r}")
    print(f"omega1 = {w1!r}  (eig {spectral_eig(a, b)[0]!r})")
    print(f"omega2 = {w2!r}  (eig {spectral_eig(a, b)[1]!r})")
    print(f"T1 = {t1!r}")
    print(f"T2 = {t2!r}")

    section("closed-form frequencies vs eigensolver, 10^4 random parameter sets")
    worst = 0.0
    for _ in range(10_000):
        m1, m2, l1, l2 = rng.uniform(0.1, 10.0, size=4)
        g = rng.uniform(1.0, 30.0)
        _, ra, rb = reduced_constants(m1, m2, l1, l2, g)
        _, c1, c2 = spectral_closed(ra, rb)
        e1, e2 = spectral_eig(ra, rb)
        worst = max(worst, abs(c1 - e1) / e1, abs(c2 - e2) / e2)
    print(f"max relative deviation = {worst:.3e}  (must be <= 1e-10)")

    section("monodromy block determinant via expm eigenvalues")
    # The family-1 transverse block of M^{-1}(0) - M^{-1}(pT1) is similar to
    # I - R(omega2 * p * T1); its determinant is |1 - lambda|^2 with lambda
    # the non-unit eigenvalue pair of expm(-A * p * T1).
    for p in (1, 2, 3):
        mat = expm(-linear_matrix(a, b) * p * t1)
        ev = np.linalg.eigvals(mat)
        ev = ev[np.argsort(np.abs(ev - 1.0))]
        lam = ev[-1]
        det_eig = float(abs(1.0 - lam) ** 2)
        det_identity = 4.0 * math.sin(p * math.pi * w2 / w1) ** 2
        print(f"p={p}: |1-lambda|^2 = {det_eig!r}, 4sin^2(p pi w2/w1) = {det_identity!r}")
    print("frozen (a=b=2, p=1):", repr(4.0 * math.sin(math.pi * w2 / w1) ** 2))

    section("sgn integral identity via midpoint Riemann sums")
    n = 2_000_001
    u = (np.arange(n) + 0.5) * (2 * math.pi / n)
    du = 2 * math.pi / n
    worst = 0.0
    for phi in np.linspace(0.0, 2 * math.pi, 9):
        riemann = float(np.sum(np.sin(u) * np.sign(np.cos(u - phi))) * du)
        worst = max(worst, abs(riemann - 4 * math.sin(phi)))
    print(f"max |Riemann - 4 sin(phi)| over 9 phases = {worst:.3e}")

    section("damped_forced closed forms, gamma = 0.5")
    gamma = 0.5
    # Averaged pair, convention A, family 1:
    #   G1 = sqrt(D) T1 X0
    #   G2 = -sqrt(D) T1 Y0 + b gamma T1
    ybar = b * gamma / sd
    print(f"zero = (0, {ybar!r})")
    print(f"jacobian = sqrt(D) T1 diag(1, -1), det = {-(sd * t1) ** 2!r}")

    section("damped_forced linear periodic solution via 6x6 expm")
    # Reduced system with the damping/forcing of damped_forced is linear:
    #   s' = (A + eps B) s + eps gamma cos(omega1 tau) e2.
    # Augment with the forcing oscillator to make it autonomous, take one
    # matrix exponential over T1, and solve (I - Phi) s0 = particular part.
    bmat = np.diag([0.0, -1.0, 0.0, -1.0])
    frozen_states = {}
    for eps in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        aug = np.zeros((6, 6))
        aug[:4, :4] = linear_matrix(a, b) + eps * bmat
        aug[1, 4] = eps * gamma
        aug[4, 5] = -w1
        aug[5, 4] = w1
        big = expm(aug * t1)
        phi_t = big[:4, :4]
        particular = big[:4, 4]  # cos starts at 1, sin at 0
        s0 = np.linalg.solve(np.eye(4) - phi_t, particular)
        frozen_states[eps] = s0
        print(f"eps={eps}: s* = {np.array2string(s0, precision=17, floatmode='unique')}")
        closure = phi_t @ s0 + particular - s0
        print(f"         closure residual = {np.linalg.norm(closure):.3e}")

    section("damped_forced_escapement zero via Newton on hand closed forms")
    kappa = 0.05
    c = a + b + sd

    def esc_pair(v):
        x0, y0 = v
        amp = math.hypot(x0, y0)
        g1 = sd * t1 * x0 + (4 * kappa * c / w1) * y0 / amp
        g2 = -sd * t1 * y0 + b * gamma * t1 + (4 * kappa * c / w1) * x0 / amp
        return np.array([g1, g2])

    point = np.array([-2 * c * kappa / (sd * math.pi), ybar])
    anchor = point.copy()
    for _ in range(60):
        f0 = esc_pair(point)
        jac = np.empty((2, 2))
        h = 1e-7
        for j in range(2):
            dv = np.zeros(2)
            dv[j] = h
            jac[:, j] = (esc_pair(point + dv) - esc_pair(point - dv)) / (2 * h)
        step = np.linalg.solve(jac, f0)
        point = point - step
        if np.linalg.norm(step) < 1e-14:
            break
    deviation = float(np.linalg.norm(point - anchor))
    print(f"anchor (-2 c kappa/(sqrt(D) pi), b gamma/sqrt(D)) = ({anchor[0]!r}, {anchor[1]!r})")
    print(f"refined zero = ({point[0]!r}, {point[1]!r})")
    print(f"|zero - anchor| = {deviation!r} = {deviation / kappa ** 2!r} * kappa^2")

    section("corollary_escapement(+1, +1) closed forms")
    rstar = 2 * c / (sd * math.pi)
    print(f"R* = 2(a+b+sqrt(D))/(sqrt(D) pi) = {rstar!r}")
    print(f"45-degree circle point = ({rstar / math.sqrt(2)!r}, same)")
    print(f"convention B zeros: (+-R*, 0), det = {-2 * sd ** 2 * t1 ** 2!r}")
    # Convention A pair: G1 = -sqrt(D) T1 X0 + (4c/w1) Y0/A,
    #                    G2 = +sqrt(D) T1 Y0 + (4c/w1) X0/A.
    # Polar reduction: sin-weighted sum of the two equations leaves 4c/w1 != 0,
    # so there is no nonzero zero.  Numerical confirmation on a polar grid:
    best = math.inf
    for amp in np.linspace(0.05, 4.0, 80):
        for chi in np.linspace(0.0, 2 * math.pi, 360, endpoint=False):
            x0, y0 = amp * math.cos(chi), amp * math.sin(chi)
            g1 = -sd * t1 * x0 + (4 * c / w1) * y0 / amp
            g2 = sd * t1 * y0 + (4 * c / w1) * x0 / amp
            best = min(best, math.hypot(g1, g2))
    print(f"convention A: min |G| over polar grid = {best!r} (bounded away from 0)")

    section("tangency set in reduced coordinates")
    print("surface x = 0 is tangent exactly where y = 0; surface z = 0 exactly")
    print("where w = 0 (the x and z rows of the field are y and w; the")
    print("perturbation enters only the y and w rows).")

    if args.check:
        section("package cross-check")
        from pendavg import (
            BifurcationSystem,
            PhysicalParams,
            annulus_search,
            builtin,
            monodromy_lower_block,
            reduce_params,
            spectral_data,
        )

        phys = PhysicalParams(1.0, 1.0, 1.0, 1.0, G_ACC)
        red = reduce_params(phys)
        spec_data = spectral_data(red)
        print(f"package omega1 = {spec_data.omega(1)!r}, omega2 = {spec_data.omega(2)!r}")
        _, det = monodromy_lower_block(spec_data, 1, 1)
        print(f"package monodromy det (p=1) = {det!r}")
        pert = builtin("damped_forced", {"gamma": gamma}, spec_data, family=1, p=1)
        system = BifurcationSystem(1, pert, red, spec_data, "A")
        (zero,) = annulus_search(system, 0.05, 2.0, 12)
        print(f"package damped_forced zero = {zero.point!r}, det = {zero.det!r}")
        pert_esc = builtin(
            "damped_forced_escapement",
            {"gamma": gamma, "kappa": kappa},
            spec_data,
            family=1,
            p=1,
        )
        system_esc = BifurcationSystem(1, pert_esc, red, spec_data, "A")
        (zero_esc,) = annulus_search(system_esc, 0.05, 2.0, 12)
        print(f"package escapement zero = {zero_esc.point!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
