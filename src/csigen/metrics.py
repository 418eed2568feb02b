"""Evaluation statistics for measured and generated CSI: RMS delay spread,
array correlation, root-MUSIC azimuth estimation, histogram densities,
KL divergence and Jensen-Shannon distance, and a Gaussian-moment baseline.

:func:`array_correlation` and :func:`root_music_azimuth` take one matrix
or a stack with leading batch axes, worked in blocks of
``MUSIC_BLOCK_ROWS``.  A single matrix returns a float or raises; a stack
returns NaN exactly where the single call raises, and every other entry is
bit-identical to its single call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from csigen.core import CsiDataset

# Natural logarithm throughout, so the Jensen-Shannon distance is bounded by
# sqrt(ln 2).
JS_DISTANCE_MAX = math.sqrt(math.log(2.0))

# Matrices per block in array_correlation and root_music_azimuth: enough to
# amortise the per-call overhead of the stacked LAPACK calls, few enough
# that the temporaries stay near a megabyte.  Results do not depend on it.
MUSIC_BLOCK_ROWS = 512


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
    """Column-space correlation matrices of one array, summed over rows and
    taps; Hermitian positive semidefinite by construction.

    ``entries`` holds one (M_c, M_c) matrix, or a stack of them with
    leading batch axes (one matrix per datapoint).
    """

    entries: np.ndarray  # (..., M_c, M_c) complex

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim < 2 or entries.shape[-1] != entries.shape[-2]:
            raise ValueError(f"correlation matrix must be square, got {entries.shape}")
        if entries.size:
            scale = np.abs(entries).max(axis=(-2, -1))
            # inf - inf is NaN and passes; root-MUSIC gives such a matrix NaN
            with np.errstate(invalid="ignore"):
                asymmetry = np.abs(entries - _adjoint(entries)).max(axis=(-2, -1))
            if np.any((scale > 0) & (asymmetry > 1e-10 * scale)):
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


def _adjoint(matrices: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.swapaxes(matrices.conj(), -1, -2)


def array_correlation(csi: np.ndarray, b: int) -> CorrelationMatrix:
    """Correlation matrix across the columns of array ``b``, summed over all
    rows and taps.

    ``csi`` is one (B, M_r, M_c, N_tap) tensor or a stack with leading batch
    axes; the result carries one matrix per tensor.  Stacks are worked in
    blocks of ``MUSIC_BLOCK_ROWS`` tensors, and every matrix is bit-identical
    to the one its tensor gives alone.
    """
    csi = np.asarray(csi)
    if not (0 <= b < csi.shape[-4]):
        raise IndexError(f"array index {b} out of range [0, {csi.shape[-4]})")
    slices = csi[..., b, :, :, :]
    lead, (_, m, _) = slices.shape[:-3], slices.shape[-3:]
    flat = slices.reshape((-1,) + slices.shape[-3:])
    entries = np.empty((flat.shape[0], m, m), dtype=np.complex128)
    for start in range(0, flat.shape[0], MUSIC_BLOCK_ROWS):
        block = flat[start : start + MUSIC_BLOCK_ROWS]
        entries[start : start + len(block)] = np.einsum("...rit,...rjt->...ij", block, block.conj())
    # enforce exact Hermitian symmetry against floating-point asymmetry
    entries = (entries + _adjoint(entries)) / 2.0
    return CorrelationMatrix(entries.reshape(lead + (m, m)))


def _polish_spectrum_minimum(diagonal_sums: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Descend from unit-circle phases to the nearest minima of the MUSIC
    pseudo-spectra f(w) = sum_k tau_k e^{jkw}, one per row of
    ``diagonal_sums`` (rows, 2 M_c - 1).

    The rooted polynomial carries a near-double root whose radial split is
    ill-conditioned; Newton steps on f'(w) pin the phase to machine
    precision, which keeps the estimate stable under rescaling of the
    correlation matrix.  Where f is not convex or the Newton step exceeds
    0.5 rad, the step is 0.5 rad downhill instead, and a step that raises f
    by more than rounding is halved until it does not.  Each row runs its
    own iterations, and a row that has stopped is no longer computed, so
    every row takes the steps it would take alone.
    """
    m = (diagonal_sums.shape[-1] + 1) // 2
    jk = 1j * np.arange(-(m - 1), m, dtype=np.float64)
    jk_squared = jk**2
    tau = diagonal_sums
    omega = np.array(omega, dtype=np.float64)
    rounding = 1e-14 * np.abs(tau).sum(axis=-1)

    def spectrum(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.real(np.sum(tau[rows] * np.exp(jk * w[:, None]), axis=-1))

    rows = np.arange(omega.size)
    for _ in range(64):
        if rows.size == 0:
            break
        t = tau[rows]
        phases = np.exp(jk * omega[rows, None])
        value = np.real(np.sum(t * phases, axis=-1))
        slope = np.real(np.sum(t * jk * phases, axis=-1))
        curvature = np.real(np.sum(t * jk_squared * phases, axis=-1))
        finite = np.isfinite(slope) & np.isfinite(curvature)
        rows, value, slope, curvature = rows[finite], value[finite], slope[finite], curvature[finite]
        convex = curvature > 0.0
        step = np.full(rows.size, np.inf)
        step[convex] = slope[convex] / curvature[convex]
        wide = ~(np.abs(step) <= 0.5)
        step[wide] = np.copysign(0.5, slope[wide])
        halving = np.flatnonzero(np.abs(step) >= 1e-13)
        while halving.size:
            uphill = spectrum(rows[halving], omega[rows[halving]] - step[halving]) > (
                value[halving] + rounding[rows[halving]]
            )
            halving = halving[uphill]
            step[halving] *= 0.5
            halving = halving[np.abs(step[halving]) >= 1e-13]
        omega[rows] -= step
        rows = rows[~(np.abs(step) < 1e-13)]
    return omega


# Fault codes of the root-MUSIC kernel: the rows where a single-matrix call
# raises.
_FAULT_NONE, _FAULT_COLUMNS, _FAULT_NO_SIGNAL, _FAULT_NO_ROOTS, _FAULT_NON_FINITE = range(5)


def _root_music(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Root-MUSIC over a stack (rows, M_c, M_c): returns (azimuth, fault,
    trace), with NaN azimuths on the rows whose fault code is not
    ``_FAULT_NONE``.  Faulty rows are dropped before every stacked LAPACK
    call, so they cannot fail or change the other rows."""
    count, m = entries.shape[0], entries.shape[-1]
    azimuth = np.full(count, np.nan)
    if m < 2:
        return azimuth, np.full(count, _FAULT_COLUMNS), np.full(count, np.nan)
    trace = np.real(np.trace(entries, axis1=-2, axis2=-1))
    fault = np.where(np.isfinite(trace) & (trace >= 1e-30), _FAULT_NONE, _FAULT_NO_SIGNAL)
    fault[(fault == _FAULT_NONE) & ~np.isfinite(entries).all(axis=(-2, -1))] = _FAULT_NON_FINITE
    live = np.flatnonzero(fault == _FAULT_NONE)
    # normalize by the trace so rescaled inputs follow the same code path
    _, vectors = np.linalg.eigh(entries[live] / trace[live, None, None])
    noise = vectors[..., : m - 1]  # eigh sorts ascending; drop the top eigenvector
    projector = noise @ _adjoint(noise)
    # tau_k = sum of the k-th diagonal of the projector, k = -(m-1)..m-1;
    # rooted polynomial is z^(m-1) * sum_k tau_k z^k
    diagonal_sums = np.stack(
        [np.trace(projector, offset=k, axis1=-2, axis2=-1) for k in range(-(m - 1), m)], axis=-1
    )
    chosen, root_fault = _select_roots(diagonal_sums[:, ::-1])
    fault[live] = root_fault
    keep = root_fault == _FAULT_NONE
    live = live[keep]
    omega = _polish_spectrum_minimum(diagonal_sums[keep], np.angle(chosen[keep]))
    # the polish can step past +-pi; the pseudo-spectrum is 2*pi-periodic
    for i in np.flatnonzero(np.abs(omega) > math.pi):
        omega[i] = math.remainder(omega[i], 2.0 * math.pi)
    azimuth[live] = np.arcsin(omega / math.pi)
    return azimuth, fault, trace


def _select_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row's polynomial (highest power first), found as
    ``np.roots`` finds them, and among the roots strictly inside the unit
    circle the one closest to it (ties: smaller absolute phase, then the
    earlier root).  Returns (root, fault) per row."""
    count, n = coeffs.shape
    chosen = np.zeros(count, dtype=np.complex128)
    fault = np.full(count, _FAULT_NO_ROOTS)
    nonzero = coeffs != 0
    first = np.where(nonzero.any(axis=1), np.argmax(nonzero, axis=1), -1)
    last = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    # np.roots strips leading and trailing zero coefficients; rows with the
    # same counts share a companion size (all-zero rows have no roots)
    for lead, end in set(zip(first.tolist(), last.tolist())) - {(-1, n - 1)}:
        rows = np.flatnonzero((first == lead) & (last == end))
        p = coeffs[rows, lead : end + 1]
        degree = p.shape[1] - 1
        eigenvalues = np.zeros((rows.size, 0), dtype=np.complex128)
        if degree:
            companion = np.zeros((rows.size, degree, degree), dtype=np.complex128)
            companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            finite = np.isfinite(companion).all(axis=(1, 2))
            fault[rows[~finite]] = _FAULT_NON_FINITE
            rows = rows[finite]
            eigenvalues = np.linalg.eigvals(companion[finite])
        roots = np.concatenate([eigenvalues, np.zeros((rows.size, n - 1 - end), np.complex128)], axis=1)
        if roots.shape[1] == 0:
            continue
        modulus = np.abs(roots)
        inside = modulus < 1.0
        closest = np.where(inside, -modulus, np.inf)
        tied = inside & (closest == closest.min(axis=1, keepdims=True))
        phase = np.where(tied, np.abs(np.angle(roots)), np.inf)
        pick = np.argmax(tied & (phase == phase.min(axis=1, keepdims=True)), axis=1)
        found = inside.any(axis=1)
        chosen[rows[found]] = roots[found, pick[found]]
        fault[rows[found]] = _FAULT_NONE
    return chosen, fault


def root_music_azimuth(corr: CorrelationMatrix) -> float | np.ndarray:
    """Single-source root-MUSIC azimuth estimate from a column correlation
    matrix, in radians; 0 rad is broadside.

    The top eigenvector spans the signal subspace; the polynomial built from
    the noise-subspace projector's diagonal sums is rooted, and among roots
    strictly inside the unit circle the one closest to it is selected (ties:
    larger modulus, then smaller absolute phase).  The root phase is then
    polished on the unit circle (see :func:`_polish_spectrum_minimum`) and
    the azimuth follows from the half-wavelength model arg(z) = pi * sin(azimuth),
    with the phase wrapped into [-pi, pi].

    One (M_c, M_c) matrix gives a float, and raises :class:`NoSignalError`
    when it carries no signal or no root lies inside the unit circle,
    ``ValueError`` for fewer than two columns, and ``LinAlgError`` for a
    non-finite matrix.  A stack with leading batch axes gives an array of
    that shape, NaN exactly on the matrices whose single call raises, and
    every other entry bit-identical to its single call.  Stacks are worked
    in blocks of ``MUSIC_BLOCK_ROWS`` matrices.
    """
    entries = corr.entries
    if entries.ndim > 2:
        flat = entries.reshape((-1,) + entries.shape[-2:])
        azimuth = np.concatenate(
            [np.empty(0)]
            + [_root_music(flat[s : s + MUSIC_BLOCK_ROWS])[0] for s in range(0, len(flat), MUSIC_BLOCK_ROWS)]
        )
        return azimuth.reshape(entries.shape[:-2])
    azimuth, fault, trace = _root_music(entries[None])
    if fault[0] == _FAULT_COLUMNS:
        raise ValueError("root-MUSIC needs at least two columns")
    if fault[0] == _FAULT_NO_SIGNAL:
        raise NoSignalError(f"correlation trace {trace[0]:.3e} carries no signal")
    if fault[0] == _FAULT_NO_ROOTS:
        raise NoSignalError("no polynomial roots strictly inside the unit circle")
    if fault[0] == _FAULT_NON_FINITE:
        raise np.linalg.LinAlgError("correlation matrix or its polynomial is not finite")
    return float(azimuth[0])


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


def jsd_matrix(densities: list[Density]) -> np.ndarray:
    """Symmetric Jensen-Shannon distance matrix between densities that share
    their bin edges, with an exactly-zero diagonal."""
    if len(densities) < 2:
        raise ValueError("need at least two densities")
    n = len(densities)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = js_distance(densities[i], densities[j])
    return matrix


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
