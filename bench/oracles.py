"""Direct-sum reference estimators for the traced run.

They recompute what `empirical_cf` and `estimate_density` return, by plain
sums written independently of the package, so that a faster estimator
(binning, FFT, NUFFT) shows its approximation error next to its time.
"""

from __future__ import annotations

import math

import numpy as np


def direct_cf(samples: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Mean of exp(i xi X), one frequency at a time, from cos and sin."""
    s = np.asarray(samples, dtype=float)
    out = np.empty(len(xi), dtype=complex)
    for j, f in enumerate(np.asarray(xi, dtype=float)):
        phase = f * s
        out[j] = complex(np.cos(phase).mean(), np.sin(phase).mean())
    return out


def cf_err_over_floor(samples: np.ndarray, estimate) -> float:
    """max |CF - direct| in units of the 1/sqrt(N) sampling floor."""
    direct = direct_cf(samples, estimate.xi)
    return float(np.max(np.abs(estimate.values - direct)) * math.sqrt(len(samples)))


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 min(sd, IQR / 1.34) N^(-1/5), the rule `estimate_density` documents."""
    sd = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    return 0.9 * (min(sd, (q75 - q25) / 1.34) or sd) * samples.size ** (-0.2)


def direct_kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel sum on the grid, blocked over nodes, normalized to
    unit trapezoid mass as the package's estimator is."""
    s = np.asarray(samples, dtype=float)
    dens = np.empty(grid.size)
    for start in range(0, grid.size, 32):
        nodes = grid[start : start + 32]
        u = (nodes[:, None] - s[None, :]) / bandwidth
        dens[start : start + 32] = np.exp(-0.5 * u * u).sum(axis=1)
    dens /= s.size * bandwidth * math.sqrt(2.0 * math.pi)
    return dens / np.trapezoid(dens, grid)


def kde_l1_vs_direct(samples: np.ndarray, estimate) -> float:
    """L1 distance between the estimate's density row and the direct sum."""
    s = np.asarray(samples, dtype=float)
    grid = estimate.grid
    direct = direct_kde(s, grid, silverman_bandwidth(s))
    return float(np.trapezoid(np.abs(estimate.values[0] - direct), grid))
