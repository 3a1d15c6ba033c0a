"""Polynomial spline cutoff functions.

All compactly supported amplitudes in the package come from the C^4
smoothstep below: an even plateau bump for tensorized cutoffs, and a
one-sided profile living on the positive axis for the oscillatory-phase
integrals.  Polynomial pieces keep evaluation cheap and derivatives
bounded, which the oscillation-aware quadratures rely on.
"""

from __future__ import annotations

import numpy as np

# One-sided profile: rises on [RISE_LO, RISE_HI], plateau at 1, falls on
# [FALL_LO, FALL_HI].  With shifts k, l of magnitude <= 0.5 every argument
# y, y+k, y+l, y+k+l stays positive on the support.
RISE_LO = 0.25
RISE_HI = 0.5
FALL_LO = 2.0
FALL_HI = 2.5


def smoothstep4(u):
    """Degree-9 smoothstep: 0 -> 1 on [0,1] with four vanishing derivatives at both ends."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u**5 * (126.0 - 420.0 * u + 540.0 * u**2 - 315.0 * u**3 + 70.0 * u**4)


def even_bump(y, inner: float, outer: float):
    """Even C^4 bump: identically 1 on [-inner, inner], supported on [-outer, outer]."""
    a = np.abs(np.asarray(y, dtype=float))
    out = np.zeros_like(a)
    out[a <= inner] = 1.0
    edge = (a > inner) & (a < outer)
    out[edge] = smoothstep4((outer - a[edge]) / (outer - inner))
    return out


def phi_plus(y):
    """One-sided C^4 window on [0.25, 2.5], identically 1 on [0.5, 2]."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    mid = (y >= RISE_HI) & (y <= FALL_LO)
    out[mid] = 1.0
    rise = (y > RISE_LO) & (y < RISE_HI)
    out[rise] = smoothstep4((y[rise] - RISE_LO) / (RISE_HI - RISE_LO))
    fall = (y > FALL_LO) & (y < FALL_HI)
    out[fall] = smoothstep4((FALL_HI - y[fall]) / (FALL_HI - FALL_LO))
    return out
