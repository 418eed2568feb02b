"""Evaluation statistics for measured and generated CSI: RMS delay spread,
array correlation, root-MUSIC azimuth estimation, histogram densities,
KL divergence and Jensen-Shannon distance, and a Gaussian-moment baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from csigen.core import CsiDataset

# Natural logarithm throughout, so the Jensen-Shannon distance is bounded by
# sqrt(ln 2).
JS_DISTANCE_MAX = math.sqrt(math.log(2.0))


class NoSignalError(ValueError):
    """Correlation matrix carries no usable signal energy."""


class AmbiguousAngleError(ValueError):
    """Selected polynomial root does not map to a physical azimuth.

    :func:`root_music_azimuth` wraps the root phase into [-pi, pi], so every
    root maps to an azimuth and it no longer raises this; the class stays
    for callers that catch it.
    """


@dataclass(frozen=True)
class CorrelationMatrix:
    """Column-space correlation matrix of one array, summed over rows and
    taps; Hermitian positive semidefinite by construction."""

    entries: np.ndarray  # (M_c, M_c) complex
    array_index: int

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {entries.shape}")
        scale = np.abs(entries).max()
        if scale > 0 and np.abs(entries - entries.conj().T).max() > 1e-10 * scale:
            raise ValueError("correlation matrix is not Hermitian")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class Density:
    """Histogram as a discrete probability distribution on shared bin edges."""

    edges: np.ndarray  # (n_bins + 1,) strictly increasing
    probabilities: np.ndarray  # (n_bins,) >= 0, summing to 1

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be a strictly increasing vector of length >= 2")
        if probabilities.shape != (edges.size - 1,):
            raise ValueError("need one probability per bin")
        if np.any(probabilities < 0) or abs(probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "probabilities", probabilities)


def delay_spread_taps(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RMS delay spread in tap units along the last axis.

    Power-weighted second central moment of the tap index t = 1..N_tap,
    evaluated in the pairwise form sum_ij p_i p_j (t_i - t_j)^2 / (2 P^2):
    algebraically identical, but independent of the mean-delay rounding, so
    single-tap profiles come out exactly zero.  Returns (spread, zero_power
    flag); all-zero profiles give spread 0 instead of dividing by zero.
    """
    power = values.real**2 + values.imag**2
    total = power.sum(axis=-1)
    zero = total == 0.0
    safe_total = np.where(zero, 1.0, total)
    taps = np.arange(1, power.shape[-1] + 1, dtype=np.float64)
    gaps_sq = (taps[:, None] - taps[None, :]) ** 2
    pairwise = np.einsum("...i,ij,...j->...", power, gaps_sq, power)
    variance = pairwise / (2.0 * safe_total * safe_total)
    spread = np.sqrt(variance)
    return np.where(zero, 0.0, spread), zero


def dataset_delay_spreads(dataset: CsiDataset) -> np.ndarray:
    """Per-antenna delay spreads for every datapoint, shape (L, B, M_r, M_c),
    in seconds."""
    spread_taps, _ = delay_spread_taps(dataset.csi)
    return spread_taps * dataset.geometry.tap_duration


def array_correlation(csi: np.ndarray, b: int) -> CorrelationMatrix:
    """Correlation matrix across the columns of array ``b`` of one CSI
    tensor, summed over all rows and taps."""
    csi = np.asarray(csi)
    if not (0 <= b < csi.shape[0]):
        raise IndexError(f"array index {b} out of range [0, {csi.shape[0]})")
    slice_b = csi[b]
    entries = np.einsum("rit,rjt->ij", slice_b, slice_b.conj())
    # enforce exact Hermitian symmetry against floating-point asymmetry
    entries = (entries + entries.conj().T) / 2.0
    return CorrelationMatrix(entries, b)


def _polish_spectrum_minimum(diagonal_sums: np.ndarray, omega: float) -> float:
    """Descend from a unit-circle phase to the nearest minimum of the MUSIC
    pseudo-spectrum f(w) = sum_k tau_k e^{jkw}.

    The rooted polynomial carries a near-double root whose radial split is
    ill-conditioned; Newton steps on f'(w) pin the phase to machine
    precision, which keeps the estimate stable under rescaling of the
    correlation matrix.  Where f is not convex or the Newton step exceeds
    0.5 rad, the step is 0.5 rad downhill instead, and a step that raises f
    by more than rounding is halved until it does not.
    """
    m = (diagonal_sums.size + 1) // 2
    k = np.arange(-(m - 1), m, dtype=np.float64)
    tau = diagonal_sums

    def spectrum(w: float) -> float:
        return float(np.real(np.sum(tau * np.exp(1j * k * w))))

    rounding = 1e-14 * float(np.abs(tau).sum())
    for _ in range(64):
        phases = np.exp(1j * k * omega)
        value = float(np.real(np.sum(tau * phases)))
        slope = float(np.real(np.sum(tau * (1j * k) * phases)))
        curvature = float(np.real(np.sum(tau * (1j * k) ** 2 * phases)))
        if not (math.isfinite(slope) and math.isfinite(curvature)):
            break
        step = slope / curvature if curvature > 0.0 else math.inf
        if not abs(step) <= 0.5:
            step = math.copysign(0.5, slope)
        while abs(step) >= 1e-13 and spectrum(omega - step) > value + rounding:
            step *= 0.5
        omega -= step
        if abs(step) < 1e-13:
            break
    return omega


def root_music_azimuth(corr: CorrelationMatrix) -> float:
    """Single-source root-MUSIC azimuth estimate from a column correlation
    matrix, in radians; 0 rad is broadside.

    The top eigenvector spans the signal subspace; the polynomial built from
    the noise-subspace projector's diagonal sums is rooted, and among roots
    strictly inside the unit circle the one closest to it is selected (ties:
    larger modulus, then smaller absolute phase).  The root phase is then
    polished on the unit circle (see :func:`_polish_spectrum_minimum`) and
    the azimuth follows from the half-wavelength model arg(z) = pi * sin(azimuth),
    with the phase wrapped into [-pi, pi].
    """
    entries = corr.entries
    m = entries.shape[0]
    if m < 2:
        raise ValueError("root-MUSIC needs at least two columns")
    trace = float(np.real(np.trace(entries)))
    if not np.isfinite(trace) or trace < 1e-30:
        raise NoSignalError(f"correlation trace {trace:.3e} carries no signal")
    # normalize by the trace so rescaled inputs follow the same code path
    normalized = entries / trace
    _, vectors = np.linalg.eigh(normalized)
    noise = vectors[:, : m - 1]  # eigh sorts ascending; drop the top eigenvector
    projector = noise @ noise.conj().T
    # tau_k = sum of the k-th diagonal of the projector, k = -(m-1)..m-1;
    # rooted polynomial is z^(m-1) * sum_k tau_k z^k
    diagonal_sums = np.array(
        [np.trace(projector, offset=k) for k in range(-(m - 1), m)], dtype=np.complex128
    )
    coeffs = diagonal_sums[::-1]  # highest power of z first
    roots = np.roots(coeffs)
    inside = roots[np.abs(roots) < 1.0]
    if inside.size == 0:
        raise NoSignalError("no polynomial roots strictly inside the unit circle")
    order = sorted(
        range(inside.size), key=lambda i: (-np.abs(inside[i]), abs(np.angle(inside[i])))
    )
    omega = _polish_spectrum_minimum(diagonal_sums, float(np.angle(inside[order[0]])))
    if abs(omega) > math.pi:
        # the polish can step past +-pi; the pseudo-spectrum is 2*pi-periodic
        omega = math.remainder(omega, 2.0 * math.pi)
    return float(np.arcsin(omega / math.pi))


def pooled_edges(value_sets: list[np.ndarray], n_bins: int = 150) -> np.ndarray:
    """Shared uniform bin edges spanning the pooled min/max of all sets.

    A degenerate pooled range (all values equal) is widened symmetrically so
    the edges stay strictly increasing.
    """
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    if not value_sets:
        raise ValueError("need at least one value set")
    flat = [np.asarray(v, dtype=np.float64).ravel() for v in value_sets]
    for values in flat:
        if values.size == 0:
            raise ValueError("cannot pool edges over an empty value set")
    lo = min(v.min() for v in flat)
    hi = max(v.max() for v in flat)
    if hi <= lo:
        pad = max(abs(lo) * 1e-9, 1e-9)
        lo, hi = lo - pad, hi + pad
    return np.linspace(lo, hi, n_bins + 1)


def histogram_density(values: np.ndarray, edges: np.ndarray) -> Density:
    """Normalized histogram on the given edges.  Values outside the edge
    span are clipped into the first/last bin."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot build a density from no values")
    if not np.all(np.isfinite(values)):
        raise ValueError("histogram values must be finite")
    edges = np.asarray(edges, dtype=np.float64)
    clipped = np.clip(values, edges[0], np.nextafter(edges[-1], -np.inf))
    counts, _ = np.histogram(clipped, bins=edges)
    return Density(edges, counts / values.size)


def kl_divergence(p: Density, q: Density) -> float:
    """Kullback-Leibler divergence sum P ln(P/Q) in nats.

    Terms with P(x) = 0 contribute 0; any bin with P > 0 and Q = 0 makes the
    divergence +inf.  Both densities must share identical bin edges.
    """
    if not np.array_equal(p.edges, q.edges):
        raise ValueError("densities must share identical bin edges")
    mask = p.probabilities > 0
    if np.any(q.probabilities[mask] == 0):
        return math.inf
    terms = p.probabilities[mask] * np.log(p.probabilities[mask] / q.probabilities[mask])
    return float(terms.sum())


def js_distance(p: Density, q: Density) -> float:
    """Jensen-Shannon distance sqrt((KL(P||M) + KL(Q||M)) / 2) with the
    per-bin mixture M = (P + Q)/2; symmetric, finite, in [0, sqrt(ln 2)]."""
    if not np.array_equal(p.edges, q.edges):
        raise ValueError("densities must share identical bin edges")
    mixture = Density(p.edges, (p.probabilities + q.probabilities) / 2.0)
    divergence = (kl_divergence(p, mixture) + kl_divergence(q, mixture)) / 2.0
    return math.sqrt(max(divergence, 0.0))


def jsd_matrix(
    named_sets: list[tuple[str, np.ndarray]], n_bins: int = 150
) -> tuple[list[str], np.ndarray]:
    """Symmetric Jensen-Shannon distance matrix between value sets.

    Bin edges are pooled once across all sets so every pairwise distance
    lives on the same discretization.  Returns (labels, matrix) with an
    exactly-zero diagonal.
    """
    if len(named_sets) < 2:
        raise ValueError("need at least two value sets")
    labels = [name for name, _ in named_sets]
    edges = pooled_edges([values for _, values in named_sets], n_bins=n_bins)
    densities = [histogram_density(values, edges) for _, values in named_sets]
    n = len(densities)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = js_distance(densities[i], densities[j])
    return labels, matrix


def gaussian_fit_samples(values: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` samples from a normal fit (sample mean, unbiased sample
    standard deviation) of the input values.

    Negative draws are kept as-is; delay-spread histograms simply show them
    below range.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 2:
        raise ValueError("need at least two values to fit moments")
    std = float(values.std(ddof=1))
    if std == 0.0:
        raise ValueError("zero-variance input; Gaussian fit undefined")
    rng = np.random.default_rng(seed)
    return float(values.mean()) + std * rng.standard_normal(n)
