"""Sine and cosine series obtained from the order-0 and order-1 Bessel
series at the edges of the scale range (b -> 0, b = 1).

With phi_k = sqrt(x^2 + (k pi)^2):

    cos x - 1 + x^2/2 = 2 sum_{k>=1} [1 - (-1)^k cos phi_k]
    1 - sin x / x     = 2 sum_{k>=1} (-1)^k sin phi_k / phi_k
    1 - sin x / x     = -2 sum_{k>=1} [(-1)^k - (k pi)^2 cos phi_k / phi_k^2
                                        - x^2 sin phi_k / phi_k^3]

The third form has alternating terms and its partial sums converge one
order faster in K than the second.  All three take phi_k, delta_k and
(-1)^k from engine._phase, the package's one decomposition
phi_k = k pi + delta_k, delta_k = x^2/(phi_k + k pi), which turns each
bracket into small-angle quantities:

    1 - (-1)^k cos phi_k  =  2 sin^2(delta_k / 2)
    (-1)^k sin phi_k      =  sin delta_k

so no large-argument trig reduction or O(1)-minus-O(1) cancellation occurs.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import _phase
from .errors import as_int, as_real

__all__ = ["cos_series", "sin_series_1", "sin_series_2"]


def _split(x, K):
    """The checked x as a float, and phi_k, delta_k, (-1)^k for k = 1..K."""
    x = as_real(x, "x must be finite")
    ks = np.arange(1, as_int(K, 1, "K must be a positive integer") + 1, dtype=np.float64)
    _, ph, delta, sgn = _phase(x, ks)
    return x, ph, delta, sgn


def cos_series(x: float, K: int) -> float:
    """Partial sum 2 sum_{k=1..K} [1 - (-1)^k cos phi_k] -> cos x - 1 + x^2/2.

    One-signed terms ~ x^4/(2 k pi)^2; the truncation error is close to
    x^4/(4 pi^2 K).
    """
    _, _, d, _ = _split(x, K)
    return 2.0 * math.fsum(2.0 * np.sin(d / 2.0) ** 2)


def sin_series_1(x: float, K: int) -> float:
    """Partial sum 2 sum_{k=1..K} (-1)^k sin phi_k / phi_k -> 1 - sin x / x.

    Terms are eventually one-signed, ~ x^2/(2(k pi)^2); truncation error is
    close to x^2/(pi^2 K).  Returns 0 at x = 0 (every term vanishes, matching
    the continuous limit of the left side).
    """
    _, ph, d, _ = _split(x, K)
    return 2.0 * math.fsum(np.sin(d) / ph)


def sin_series_2(x: float, K: int) -> float:
    """Partial sum of the faster alternating form of 1 - sin x / x.

    The bracket is evaluated as
        (-1)^k [ 2 sin^2(delta/2) + (x/phi)^2 (cos delta - sin delta / phi) ]
    which substitutes (k pi)^2/phi^2 = 1 - x^2/phi^2 to avoid forming the
    near-cancelling difference (-1)^k - cos phi directly against the
    (k pi)^2/phi^2 factor.  Truncation error is close to
    x^2 (1 + x^2/8) / (pi K)^2.
    """
    x, ph, d, sgn = _split(x, K)
    bracket = 2.0 * np.sin(d / 2.0) ** 2 + (x * x / (ph * ph)) * (np.cos(d) - np.sin(d) / ph)
    return -2.0 * math.fsum(sgn * bracket)
