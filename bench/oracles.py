"""Independent references the benchmark checks renvol's outputs against.

Nothing here imports renvol.  Horizons of rational profiles come from
``numpy.roots`` polished by mpmath Newton steps, model horizons from
Cardano's formula, volumes from mpmath tanh-sinh quadrature of the
cancellation-free integrand, and the kernel margin from a 30-digit mpmath
quadrature.  Every value is recomputed from scratch on each run; no
reference output is stored.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

FOUR_PI = 4.0 * math.pi


def largest_real_root(coeffs):
    """Largest positive real root of a polynomial (highest degree first),
    polished to 30 digits, or None when there is none."""
    roots = np.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > 0.0]
    if not real:
        return None
    x0 = max(real)
    with mp.workdps(30):
        poly = [mp.mpf(c) for c in coeffs]
        return mp.findroot(lambda s: mp.polyval(poly, s), mp.mpf(x0))


def cardano_model_horizon(m):
    """Real root of s^3 + s - m = 0 by Cardano's formula, 30 digits."""
    with mp.workdps(30):
        m = mp.mpf(m)
        disc = mp.sqrt(m * m / 4 + mp.mpf(1) / 27)
        # m/2 - disc < 0; mp.cbrt would return its complex principal root
        return mp.cbrt(m / 2 + disc) - mp.cbrt(disc - m / 2)


def outermost_root(f, s_hi=100.0, s_lo=1e-3, points=400):
    """Outermost sign change of an mpmath callable, scanned inward from
    s_hi on a geometric grid and refined by bisection-safe root finding."""
    ratio = (s_lo / s_hi) ** (1.0 / (points - 1))
    with mp.workdps(30):
        prev_s = mp.mpf(s_hi)
        prev_f = f(prev_s)
        s = s_hi
        for _ in range(points - 1):
            s *= ratio
            fs = f(mp.mpf(s))
            if (fs > 0) != (prev_f > 0):
                return mp.findroot(f, (mp.mpf(s), prev_s), solver="anderson")
            prev_s, prev_f = mp.mpf(s), fs
    return None


def renormalized_volume(f, q, s_h, dps=20):
    """Renormalized volume from the defect q = 1 + s^2 - f in closed form.

    Integrates 4 pi s^2 q / (sqrt(f) sqrt(P) (sqrt(f) + sqrt(P))), P = 1 + s^2,
    which equals 4 pi s^2 (f^-1/2 - P^-1/2) without cancellation, from the
    horizon (substituting s = s_h + u^2 to remove the endpoint singularity)
    to infinity, minus the closed-form reference volume inside the horizon.
    """
    with mp.workdps(dps):
        def d(s):
            p = 1 + s * s
            sf = mp.sqrt(f(s))
            sp = mp.sqrt(p)
            return 4 * mp.pi * s * s * q(s) / (sf * sp * (sf + sp))

        if s_h is None:
            return mp.quad(d, [0, 1, 10, 100, mp.inf])
        s_h = mp.mpf(s_h)
        slope = mp.diff(f, s_h)
        floor = s_h * mp.mpf(10) ** (-mp.mp.dps + 2)

        def g(u):
            if u * u <= floor:
                # limit of 2 u d(s_h + u^2) as u -> 0
                return 8 * mp.pi * s_h * s_h / mp.sqrt(slope)
            return 2 * u * d(s_h + u * u)

        core = mp.quad(g, [0, 0.1, 1, 3, 10, 30, mp.inf])
        inner = 2 * mp.pi * (s_h * mp.sqrt(1 + s_h * s_h) - mp.asinh(s_h))
        return core - inner


def kernel_margin(eps, mu, dps=30):
    """3 mu int_0^inf e^(-t/2) (eps + mu (1 - e^(-3t/2)))^(-3/2) dt
    - 4 eps^-1/2 - mu^-1/2 at ``dps`` digits."""
    with mp.workdps(dps):
        eps = mp.mpf(eps)
        mu = mp.mpf(mu)
        width = eps / mu

        def integrand(t):
            return mp.exp(-t / 2) * (eps + mu * (-mp.expm1(-1.5 * t))) ** mp.mpf(-1.5)

        lhs = 3 * mu * mp.quad(integrand, [0, width, 10 * width, 1, 10, mp.inf])
        return lhs - 4 / mp.sqrt(eps) - 1 / mp.sqrt(mu)


def rel_diff(a, b):
    a = float(a)
    b = float(b)
    return abs(a - b) / max(abs(b), 1e-300)
