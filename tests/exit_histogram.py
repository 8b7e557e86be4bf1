"""Histogram estimate of the Monte Carlo exit density, a test-side check
of the simulated exit law against the Poisson kernel pointwise in angle."""

import math
from dataclasses import dataclass

import numpy as np

from hypball.geometry import unit_sphere_area


@dataclass(frozen=True)
class ExitHistogram:
    """Angular exit density estimate: bin midpoints, the density values
    against surface measure (NaN where a bin is empty), Poisson error
    bars, raw counts and the bin edges used."""

    theta_mid: np.ndarray
    density: np.ndarray
    std_error: np.ndarray
    counts: np.ndarray
    bin_edges: np.ndarray
    n_samples: int


def empirical_exit_density(samples, dim, r, bins):
    """Histogram estimate of the exit density over theta in [0, pi]:
    bins arccos(phi_exit) and divides each bin's frequency by its exact
    surface weight omega_{n-2} r^{n-1} int_bin sin^{n-2}theta dtheta, so
    the values estimate the Poisson kernel. Empty bins get NaN density
    (missing, not zero)."""
    if len(samples) < 10**4:
        raise ValueError("needs at least 1e4 samples")
    if bins < 1:
        raise ValueError("needs at least one bin")
    theta = np.arccos(samples.phi_exit)
    edges = np.linspace(0.0, math.pi, bins + 1)
    counts, _ = np.histogram(theta, bins=edges)
    nodes, wts = np.polynomial.legendre.leggauss(32)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = mid[:, None] + half[:, None] * nodes[None, :]
    # exact bin weights omega_{n-2} r^{n-1} int_bin sin^{n-2}theta dtheta
    prefactor = unit_sphere_area(dim.n - 2) * r ** (dim.n - 1)
    band = prefactor * (half * (np.sin(t) ** (dim.n - 2) @ wts))
    freq = counts / len(samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(counts > 0, freq / band, np.nan)
        err = np.sqrt(freq * (1 - freq) / len(samples)) / band
        err = np.where(counts > 0, err, np.nan)
    return ExitHistogram(mid, density, err, counts, edges, len(samples))
