import math

import numpy as np
import pytest

from csigen.core import ArrayGeometry, CsiDataset
from csigen.metrics import (
    CorrelationMatrix,
    Density,
    JS_DISTANCE_MAX,
    NoSignalError,
    array_correlation,
    dataset_delay_spreads,
    delay_spread_taps,
    gaussian_fit_samples,
    histogram_density,
    jsd_matrix,
    js_distance,
    pooled_edges,
    root_music_azimuth,
)

GEO = ArrayGeometry(1, 2, 4, 48, 1.272e9, 50e6)


def single_antenna_csi(taps, geometry=GEO):
    values = np.zeros(geometry.csi_shape, dtype=complex)
    values[0, 0, 0, : len(taps)] = taps
    values[0, :, :, : len(taps)] = taps  # same profile on every antenna
    return values


def delay_spreads(csi, geometry=GEO):
    """Per-antenna delay spreads in seconds of one CSI tensor, through the
    dataset route the evaluation report uses."""
    dataset = CsiDataset(geometry, csi[None], np.zeros((1, 2)))
    return dataset_delay_spreads(dataset)[0]


def brute_force_ds_taps(profile):
    """Direct summation oracle for the power-weighted tap spread."""
    power = np.abs(np.asarray(profile, dtype=complex)) ** 2
    taps = np.arange(1, len(profile) + 1, dtype=float)
    total = power.sum()
    mean = sum(t * p for t, p in zip(taps, power)) / total
    var = sum((t - mean) ** 2 * p for t, p in zip(taps, power)) / total
    return math.sqrt(var)


class TestRmsDelaySpread:
    def test_single_tap_is_zero(self):
        for tap in (0, 7, 47):
            profile = np.zeros(48, dtype=complex)
            profile[tap] = 2.3 - 1j
            spread, zero = delay_spread_taps(single_antenna_csi(profile))
            assert np.all(spread == 0.0)
            assert np.all(~zero)
            assert np.all(delay_spreads(single_antenna_csi(profile)) == 0.0)

    def test_two_equal_taps_spacing_two(self):
        profile = np.zeros(48, dtype=complex)
        profile[1] = 1.0  # tap index t=2 in 1-based terms
        profile[3] = 1.0
        spreads = delay_spreads(single_antenna_csi(profile))
        # spacing 2 taps -> spread of 1 tap -> 20 ns at 50 MHz
        assert spreads[0, 0, 0] == pytest.approx(20e-9, abs=1e-12 * 20e-9)

    def test_uniform_power_delay_profile(self):
        profile = np.ones(48, dtype=complex)
        spread_taps, _ = delay_spread_taps(profile)
        expected = math.sqrt((48**2 - 1) / 12)
        assert spread_taps == pytest.approx(expected, abs=1e-9)
        assert spread_taps == pytest.approx(brute_force_ds_taps(profile), abs=1e-12)

    def test_random_profiles_match_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            profile = rng.standard_normal(48) + 1j * rng.standard_normal(48)
            spread, _ = delay_spread_taps(profile)
            assert spread == pytest.approx(brute_force_ds_taps(profile), rel=1e-11)

    def test_zero_antenna_flagged_not_crashing(self):
        values = np.zeros(GEO.csi_shape, dtype=complex)
        values[0, 0, 1, 3] = 1.0  # one live antenna, rest silent
        spread, zero = delay_spread_taps(values)
        assert spread[0, 0, 0] == 0.0
        assert zero[0, 0, 0]
        assert not zero[0, 0, 1]
        assert delay_spreads(values)[0, 0, 0] == 0.0

    def test_invariance_under_phase_and_scale(self):
        rng = np.random.default_rng(29)
        values = rng.standard_normal(GEO.csi_shape) + 1j * rng.standard_normal(GEO.csi_shape)
        base = delay_spreads(values)
        rotated = delay_spreads(values * np.exp(1j * 0.77))
        scaled = delay_spreads(values * 13.5)
        assert np.allclose(rotated, base, rtol=1e-10)
        assert np.allclose(scaled, base, rtol=1e-10)

    def test_dataset_delay_spreads_shape(self):
        rng = np.random.default_rng(31)
        csi = rng.standard_normal((5,) + GEO.csi_shape) + 1j * rng.standard_normal((5,) + GEO.csi_shape)
        ds = dataset_delay_spreads(CsiDataset(GEO, csi, np.zeros((5, 2))))
        assert ds.shape == (5, 1, 2, 4)
        single, _ = delay_spread_taps(csi[2])
        assert np.allclose(ds[2], single * GEO.tap_duration, rtol=1e-12)


def steering_csi(azimuth_rad, geometry=GEO, amplitude=1.0, taps=None):
    """Single-path CSI with half-wavelength column steering."""
    cols = np.arange(geometry.cols_per_array)
    steer = np.exp(1j * math.pi * cols * math.sin(azimuth_rad))
    values = np.zeros(geometry.csi_shape, dtype=complex)
    profile = np.zeros(geometry.num_taps, dtype=complex)
    if taps is None:
        profile[0] = 1.0
    else:
        profile[: len(taps)] = taps
    values[0] = amplitude * steer[None, :, None] * profile[None, None, :]
    return values


def wrapped_phase_probe_csi():
    """Trial 11842 of the phase-wrap probe: a plane wave near endfire plus
    strong noise, stored at complex64 as a CSIT file holds it.  The Newton
    polish steps the root phase past +pi (sin +1.02), and the estimate must
    come back one turn to -0.98."""
    rng = np.random.default_rng(11842)
    s = rng.uniform(0.995, 1.0) * rng.choice([-1, 1])
    noise = 10 ** rng.uniform(-1, 0.3)
    steer = np.exp(1j * math.pi * s * np.arange(4))
    gains = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    csi = gains[:, None, :] * steer[None, :, None]
    csi = csi + noise * (rng.standard_normal(csi.shape) + 1j * rng.standard_normal(csi.shape))
    return csi[None].astype(np.complex64).astype(np.complex128)


class TestArrayCorrelation:
    def test_zero_tensor(self):
        corr = array_correlation(np.zeros(GEO.csi_shape, dtype=complex), 0)
        assert np.all(corr.entries == 0.0)

    def test_rank_one_structure(self):
        corr = array_correlation(steering_csi(math.radians(25)), 0)
        eigenvalues = np.linalg.eigvalsh(corr.entries)
        assert eigenvalues[-1] / eigenvalues.sum() > 0.999
        assert eigenvalues.min() > -1e-9 * eigenvalues.sum()

    def test_hermitian_on_random_input(self):
        rng = np.random.default_rng(37)
        values = rng.standard_normal(GEO.csi_shape) + 1j * rng.standard_normal(GEO.csi_shape)
        corr = array_correlation(values, 0)
        assert np.max(np.abs(corr.entries - corr.entries.conj().T)) < 1e-12 * np.abs(corr.entries).max()

    def test_definition_matches_direct_sum(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal(GEO.csi_shape) + 1j * rng.standard_normal(GEO.csi_shape)
        corr = array_correlation(values, 0)
        direct = np.zeros((4, 4), dtype=complex)
        for c1 in range(4):
            for c2 in range(4):
                for r in range(2):
                    for t in range(48):
                        direct[c1, c2] += values[0, r, c1, t] * np.conj(values[0, r, c2, t])
        assert np.allclose(corr.entries, direct, rtol=1e-12)

    def test_psd_on_random_inputs(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            values = rng.standard_normal(GEO.csi_shape) + 1j * rng.standard_normal(GEO.csi_shape)
            corr = array_correlation(values, 0)
            eigenvalues = np.linalg.eigvalsh(corr.entries)
            assert eigenvalues.min() >= -1e-9 * np.real(np.trace(corr.entries))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            array_correlation(np.zeros(GEO.csi_shape, dtype=complex), 1)


class TestRootMusic:
    def test_broadside_all_ones(self):
        corr = array_correlation(steering_csi(0.0), 0)
        assert root_music_azimuth(corr) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_matrix_in_a_stack_is_nan_without_a_warning(self):
        steer = np.exp(1j * math.pi * np.arange(4) * math.sin(math.radians(30)))
        entries = np.stack([np.outer(steer, steer.conj())] * 2)
        entries[1, 0, 1] = entries[1, 1, 0] = np.inf
        azimuths = root_music_azimuth(CorrelationMatrix(entries))
        assert math.degrees(azimuths[0]) == pytest.approx(30.0, abs=0.1)
        assert math.isnan(azimuths[1])

    def test_thirty_degrees_from_steering_outer_product(self):
        target = math.radians(30)
        cols = np.arange(4)
        steer = np.exp(1j * math.pi * cols * math.sin(target))
        corr = CorrelationMatrix(np.outer(steer, steer.conj()))
        assert math.degrees(root_music_azimuth(corr)) == pytest.approx(30.0, abs=0.1)

    def test_minus_45_at_20db_snr(self):
        target = math.radians(-45)
        rng = np.random.default_rng(47)
        cols = np.arange(4)
        steer = np.exp(1j * math.pi * cols * math.sin(target))
        snapshots = 500
        signal = steer[None, :] * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(snapshots, 1)))
        noise_scale = math.sqrt(10 ** (-20 / 10) / 2)
        noise = noise_scale * (
            rng.standard_normal((snapshots, 4)) + 1j * rng.standard_normal((snapshots, 4))
        )
        data = signal + noise
        # R[c1, c2] = sum_s H[s, c1] conj(H[s, c2])
        entries = data.T @ data.conj()
        entries = (entries + entries.conj().T) / 2
        estimate = math.degrees(root_music_azimuth(CorrelationMatrix(entries)))
        assert estimate == pytest.approx(-45.0, abs=1.0)

    def test_scaling_invariance(self):
        corr = array_correlation(steering_csi(math.radians(17.0)), 0)
        base = root_music_azimuth(corr)
        for factor in (1e-6, 1.0, 1e6):
            scaled = CorrelationMatrix(corr.entries * factor)
            assert abs(root_music_azimuth(scaled) - base) < 1e-9

    def test_no_signal_error(self):
        with pytest.raises(NoSignalError):
            root_music_azimuth(CorrelationMatrix(np.zeros((4, 4), dtype=complex)))

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            root_music_azimuth(CorrelationMatrix(np.ones((1, 1), dtype=complex)))

    def test_polished_phase_past_pi_wraps_onto_a_spectrum_minimum(self):
        csi = wrapped_phase_probe_csi()
        azimuth = root_music_azimuth(array_correlation(csi, 0))
        assert math.isfinite(azimuth)
        # brute-force MUSIC scan over s = sin(azimuth): ||a||^2 - |v^H a|^2
        # with the principal eigenvector v of the column correlation
        snapshots = np.moveaxis(csi[0], 1, 0).reshape(4, -1)
        _, vectors = np.linalg.eigh(snapshots @ snapshots.conj().T)
        grid = np.arange(-1.0, 1.0, 1e-4)
        steering = np.exp(1j * math.pi * np.outer(grid, np.arange(4)))
        denominator = 4.0 - np.abs(steering @ vectors[:, -1].conj()) ** 2
        before, after = np.roll(denominator, 1), np.roll(denominator, -1)
        minima = grid[(denominator <= before) & (denominator <= after)]
        gaps = (math.sin(azimuth) - minima) % 2.0  # circular in pi * s
        assert np.minimum(gaps, 2.0 - gaps).min() <= 1e-3


def noisy_correlation(seed):
    """Four columns of 32 snapshots with unequal column gains and no
    dominant source: a pseudo-spectrum with shallow, non-convex stretches."""
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))) * rng.uniform(
        0.2, 2, size=(4, 1)
    )
    entries = x @ x.conj().T
    return CorrelationMatrix((entries + entries.conj().T) / 2.0)


SCAN_STEP = 2.0 * math.pi / 4096


def gap_to_scanned_minimum(corr, azimuth):
    """Circular distance (rad) from the phase pi*sin(azimuth) to the nearest
    local minimum of a brute-force MUSIC scan ||a||^2 - |v^H a|^2 over the
    phase w of the steering vector a = exp(j w n), v the principal
    eigenvector."""
    m = corr.entries.shape[0]
    _, vectors = np.linalg.eigh(corr.entries)
    phases = np.arange(4096) * SCAN_STEP - math.pi
    steering = np.exp(1j * np.outer(phases, np.arange(m)))
    spectrum = m - np.abs(steering @ vectors[:, -1].conj()) ** 2
    minima = phases[(spectrum <= np.roll(spectrum, 1)) & (spectrum <= np.roll(spectrum, -1))]
    gaps = (math.pi * math.sin(azimuth) - minima) % (2.0 * math.pi)
    return np.minimum(gaps, 2.0 * math.pi - gaps).min()


class TestRootMusicPolish:
    def test_descent_leaves_a_non_convex_start_for_the_minimum(self):
        # the unguarded Newton polish stopped at phase 1.4630, where the
        # slope is -0.0995; the only scanned minimum is at 1.9695
        corr = noisy_correlation(238)
        phase = math.pi * math.sin(root_music_azimuth(corr))
        assert phase == pytest.approx(1.9695, abs=1e-3)
        assert gap_to_scanned_minimum(corr, root_music_azimuth(corr)) <= SCAN_STEP

    def test_seed_sweep_ends_at_scanned_minima(self):
        off = [
            seed
            for seed in range(600)
            if gap_to_scanned_minimum(corr := noisy_correlation(seed), root_music_azimuth(corr))
            > SCAN_STEP
        ]
        assert off == []


class TestHistogramDensity:
    def test_all_in_one_bin(self):
        density = histogram_density(np.full(20, 0.35), np.linspace(0, 1, 11))
        assert density.probabilities[3] == 1.0
        assert density.probabilities.sum() == pytest.approx(1.0)

    def test_uniform_law_of_large_numbers(self):
        rng = np.random.default_rng(53)
        values = rng.uniform(0, 1, size=10**6)
        density = histogram_density(values, np.linspace(0, 1, 11))
        assert np.all(np.abs(density.probabilities - 0.1) < 0.005)

    def test_single_value(self):
        density = histogram_density(np.array([0.5]), np.linspace(0, 1, 5))
        assert density.probabilities[2] == 1.0
        assert np.count_nonzero(density.probabilities) == 1

    def test_out_of_range_clipped_into_end_bins(self):
        density = histogram_density(np.array([-5.0, 0.1, 99.0]), np.linspace(0, 1, 3))
        assert density.probabilities[0] == pytest.approx(2 / 3)
        assert density.probabilities[1] == pytest.approx(1 / 3)

    def test_empty_values_error(self):
        with pytest.raises(ValueError):
            histogram_density(np.array([]), np.linspace(0, 1, 3))

    def test_pooled_edges_span(self):
        edges = pooled_edges([np.array([1.0, 2.0]), np.array([0.5, 3.0])], n_bins=10)
        assert edges[0] == 0.5 and edges[-1] == 3.0 and edges.size == 11
        with pytest.raises(ValueError):
            pooled_edges([np.array([1.0])], n_bins=1)


class TestJsDistance:
    def test_identical_is_zero(self):
        edges = np.linspace(0, 1, 4)
        p = Density(edges, np.array([0.2, 0.5, 0.3]))
        assert js_distance(p, p) == 0.0

    def test_disjoint_supports_hit_upper_bound(self):
        edges = np.linspace(0, 1, 5)
        p = Density(edges, np.array([0.5, 0.5, 0.0, 0.0]))
        q = Density(edges, np.array([0.0, 0.0, 0.25, 0.75]))
        assert js_distance(p, q) == pytest.approx(math.sqrt(math.log(2)), abs=1e-12)
        assert JS_DISTANCE_MAX == pytest.approx(0.8325546111576977)

    def test_symmetry_and_range_on_random_pairs(self):
        rng = np.random.default_rng(59)
        edges = np.linspace(0, 1, 21)
        for _ in range(1000):
            p_raw = rng.uniform(0, 1, 20)
            q_raw = rng.uniform(0, 1, 20)
            # sparsify some bins so zero-handling is exercised
            p_raw[rng.uniform(size=20) < 0.3] = 0.0
            q_raw[rng.uniform(size=20) < 0.3] = 0.0
            if p_raw.sum() == 0 or q_raw.sum() == 0:
                continue
            p = Density(edges, p_raw / p_raw.sum())
            q = Density(edges, q_raw / q_raw.sum())
            forward = js_distance(p, q)
            backward = js_distance(q, p)
            assert abs(forward - backward) < 1e-12
            assert 0.0 <= forward <= JS_DISTANCE_MAX + 1e-12

    def test_mismatched_edges(self):
        p = Density(np.linspace(0, 1, 3), np.array([1.0, 0.0]))
        q = Density(np.linspace(0, 2, 3), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            js_distance(p, q)

    def test_matches_a_per_bin_sum(self):
        # brute force: the mixture and each KL term bin by bin, in math.log
        rng = np.random.default_rng(71)
        edges = np.linspace(0, 1, 13)
        for _ in range(500):
            p_raw, q_raw = rng.uniform(0, 1, (2, 12))
            p_raw[rng.uniform(size=12) < 0.3] = 0.0
            q_raw[rng.uniform(size=12) < 0.3] = 0.0
            if p_raw.sum() == 0 or q_raw.sum() == 0:
                continue
            p, q = (raw / raw.sum() for raw in (p_raw, q_raw))
            divergence = 0.0
            for p_i, q_i in zip(p.tolist(), q.tolist()):
                m_i = (p_i + q_i) / 2
                for a_i in (p_i, q_i):
                    if a_i > 0:
                        divergence += a_i * math.log(a_i / m_i) / 2
            expected = math.sqrt(max(divergence, 0.0))
            assert js_distance(Density(edges, p), Density(edges, q)) == pytest.approx(
                expected, abs=1e-15)

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(61)
        edges = np.linspace(0, 1, 11)
        raw = rng.uniform(0.1, 1, 10)
        p = Density(edges, raw / raw.sum())
        assert js_distance(p, Density(edges, p.probabilities.copy())) == 0.0
        nudged = p.probabilities.copy()
        nudged[0] += 0.01
        nudged /= nudged.sum()
        assert js_distance(p, Density(edges, nudged)) > 0.0


def pooled_densities(value_sets, n_bins=150):
    """Densities of the value sets on their pooled edges, as ``evaluate``
    bins them."""
    edges = pooled_edges(value_sets, n_bins=n_bins)
    return [histogram_density(values, edges) for values in value_sets]


class TestJsdMatrix:
    def test_identical_sets(self):
        values = np.array([1.0, 2.0, 3.0, 2.0])
        matrix = jsd_matrix(pooled_densities([values, values.copy()]))
        assert matrix.shape == (2, 2)
        assert np.all(matrix == 0.0)

    def test_known_overlap_structure(self):
        rng = np.random.default_rng(67)
        base = rng.uniform(0, 1, 4000)
        shifted = base + 10.0  # disjoint support after pooling
        matrix = jsd_matrix(pooled_densities([base, base.copy(), shifted], n_bins=50))
        assert matrix[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert matrix[0, 2] == pytest.approx(math.sqrt(math.log(2)), abs=1e-6)

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(71)
        matrix = jsd_matrix(pooled_densities([rng.standard_normal(500) * (1 + i) for i in range(4)]))
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            pooled_densities([np.array([1.0]), np.array([])])

    def test_needs_two_densities_on_shared_edges(self):
        density = histogram_density(np.array([0.5]), np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="two densities"):
            jsd_matrix([density])
        other = histogram_density(np.array([0.5]), np.linspace(0, 2, 5))
        with pytest.raises(ValueError, match="identical bin edges"):
            jsd_matrix([density, other])


class TestGaussianFit:
    def test_moments_recovered(self):
        values = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
        samples = gaussian_fit_samples(values, n=200_000, seed=5)
        assert samples.mean() == pytest.approx(2.0, rel=0.02)
        assert samples.std(ddof=1) == pytest.approx(values.std(ddof=1), rel=0.02)
        assert values.std(ddof=1) == pytest.approx(1.0954451, rel=1e-6)

    def test_seeded_determinism(self):
        values = np.array([0.0, 1.0, 2.0])
        first = gaussian_fit_samples(values, n=100, seed=9)
        second = gaussian_fit_samples(values, n=100, seed=9)
        assert np.array_equal(first, second)

    def test_zero_draws(self):
        assert gaussian_fit_samples(np.array([0.0, 1.0]), n=0, seed=1).size == 0

    def test_zero_variance_error(self):
        with pytest.raises(ValueError):
            gaussian_fit_samples(np.array([2.0, 2.0, 2.0]), n=5, seed=1)
