import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csigen.core
from csigen.core import (
    ArrayGeometry,
    CsiDataset,
    MinMaxScaler,
    dataset_powers,
    freq_to_time,
    index_rngs,
    power_db,
    total_rx_power,
)

GEO = ArrayGeometry(
    num_arrays=2,
    rows_per_array=2,
    cols_per_array=4,
    num_taps=48,
    carrier_frequency=1.272e9,
    bandwidth=50e6,
)


def direct_dft(x):
    """O(N^2) forward DFT, independently coded as the round-trip oracle."""
    n = x.shape[-1]
    k = np.arange(n)
    twiddle = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ twiddle.T


class TestFreqToTime:
    def test_flat_spectrum_is_unit_impulse(self):
        freq = np.ones((1, 1, 1, 8), dtype=complex)
        time = freq_to_time(freq, n_tap=4)
        assert time.shape == (1, 1, 1, 4)
        assert time[0, 0, 0, 0] == pytest.approx(1.0 + 0.0j)
        assert np.allclose(time[0, 0, 0, 1:], 0.0, atol=1e-15)

    def test_linear_phase_shifts_impulse(self):
        k = np.arange(8)
        freq = np.exp(-2j * np.pi * k * 3 / 8)[None, None, None, :]
        time = freq_to_time(freq, n_tap=8)
        expected = np.zeros(8, dtype=complex)
        expected[3] = 1.0
        assert np.allclose(time[0, 0, 0], expected, atol=1e-14)

    def test_round_trip_against_direct_dft(self):
        rng = np.random.default_rng(7)
        for n_sub in (4, 16, 33):
            freq = rng.standard_normal((2, 1, 2, n_sub)) + 1j * rng.standard_normal((2, 1, 2, n_sub))
            time = freq_to_time(freq, n_tap=n_sub)
            back = direct_dft(time)
            assert np.max(np.abs(back - freq)) < 1e-12 * np.max(np.abs(freq))

    def test_tap_count_validation(self):
        freq = np.ones((1, 1, 1, 8), dtype=complex)
        with pytest.raises(ValueError):
            freq_to_time(freq, n_tap=9)
        with pytest.raises(ValueError):
            freq_to_time(freq, n_tap=0)


class TestTotalRxPower:
    def test_zero_tensor(self):
        csi = np.zeros(GEO.csi_shape, dtype=complex)
        assert total_rx_power(csi, 0) == 0.0

    def test_single_unit_entry(self):
        values = np.zeros(GEO.csi_shape, dtype=complex)
        values[1, 0, 2, 5] = 1j
        assert total_rx_power(values, 1) == pytest.approx(1.0)
        assert total_rx_power(values, 0) == 0.0

    def test_all_unit_magnitude_counts_entries(self):
        values = np.exp(1j * 0.3) * np.ones(GEO.csi_shape)
        assert total_rx_power(values, 0) == pytest.approx(2 * 4 * 48)

    def test_index_out_of_range(self):
        csi = np.zeros(GEO.csi_shape, dtype=complex)
        with pytest.raises(IndexError):
            total_rx_power(csi, 2)
        with pytest.raises(IndexError):
            total_rx_power(csi, -1)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(GEO.csi_shape) + 1j * rng.standard_normal(GEO.csi_shape)
        rotated = values * np.exp(1j * 1.234)
        assert total_rx_power(rotated, 0) == pytest.approx(total_rx_power(values, 0), rel=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(GEO.csi_shape) + 1j * rng.standard_normal(GEO.csi_shape)
        alpha = 0.37 - 1.1j
        scaled = total_rx_power(alpha * values, 0)
        assert scaled == pytest.approx(abs(alpha) ** 2 * total_rx_power(values, 0), rel=1e-12)


def _dataset_with_powers(powers):
    """One-antenna dataset whose datapoint k has total power powers[k]."""
    geo = ArrayGeometry(1, 1, 1, 4, 1e9, 50e6)
    csi = np.zeros((len(powers), 1, 1, 1, 4), dtype=complex)
    for k, p in enumerate(powers):
        csi[k, 0, 0, 0, 0] = np.sqrt(p)
    positions = np.zeros((len(powers), 2))
    return CsiDataset(geo, csi, positions)


class TestDatasetPowers:
    def test_tensor_and_array_bases(self):
        geo = ArrayGeometry(2, 1, 1, 2, 1e9, 50e6)
        csi = np.zeros((1, 2, 1, 1, 2), dtype=complex)
        csi[0, 0, 0, 0, 0] = 1.0
        csi[0, 1, 0, 0, 0] = 3.0
        dataset = CsiDataset(geo, csi, np.zeros((1, 2)))
        assert np.allclose(dataset_powers(dataset, basis="tensor"), [10.0], rtol=1e-15)
        assert np.allclose(dataset_powers(dataset, basis="array"), [[1.0, 9.0]], rtol=1e-15)
        with pytest.raises(ValueError):
            dataset_powers(dataset, basis="antenna")


class TestNormalizeDatasetPower:
    """Dataset powers in dB below the dataset maximum, the 0 dB reference of reports."""

    def test_two_point_reference(self):
        linear = dataset_powers(_dataset_with_powers([2.0, 8.0]))
        db = power_db(linear, linear.max())
        assert db[1] == pytest.approx(0.0, abs=1e-12)
        assert db[0] == pytest.approx(10 * np.log10(0.25), abs=1e-12)
        assert power_db(0.0) == -np.inf

    def test_max_zero_and_order_preserved(self):
        rng = np.random.default_rng(11)
        powers = rng.uniform(0.1, 50.0, size=100)
        linear = dataset_powers(_dataset_with_powers(powers))
        db = power_db(linear, linear.max())
        assert db.max() == pytest.approx(0.0, abs=1e-9)
        assert np.array_equal(np.argsort(db), np.argsort(powers))
        assert np.argmax(db) == np.argmax(powers)


class TestTypes:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0, 1, 1, 4, 1e9, 50e6)
        with pytest.raises(ValueError):
            ArrayGeometry(1, 1, 1, 4, 1e9, -50e6)
        with pytest.raises(ValueError):
            ArrayGeometry(1, 1, 1, 4, 1e9, 50e6, element_spacing=0.7)

    def test_tap_duration(self):
        assert GEO.tap_duration == pytest.approx(20e-9)

    def test_csi_tensor_rejects_nan(self):
        geo = ArrayGeometry(1, 1, 1, 4, 1e9, 50e6)
        for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            csi = np.zeros((2, 1, 1, 1, 4), dtype=complex)
            csi[1, 0, 0, 0, 3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                CsiDataset(geo, csi, np.zeros((2, 2)))

    def test_datapoint_rejects_nonfinite_position(self):
        geo = ArrayGeometry(1, 1, 1, 4, 1e9, 50e6)
        for bad in (np.inf, -np.inf, np.nan):
            positions = np.zeros((2, 2))
            positions[1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                CsiDataset(geo, np.zeros((2, 1, 1, 1, 4), dtype=complex), positions)

    def test_dataset_shape_checks(self):
        geo = ArrayGeometry(1, 1, 1, 4, 1e9, 50e6)
        with pytest.raises(ValueError):
            CsiDataset(geo, np.zeros((3, 1, 1, 1, 5), dtype=complex), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            CsiDataset(geo, np.zeros((3, 1, 1, 1, 4), dtype=complex), np.zeros((2, 2)))

    def test_dataset_immutable(self):
        geo = ArrayGeometry(1, 1, 1, 4, 1e9, 50e6)
        dataset = CsiDataset(geo, np.zeros((3, 1, 1, 1, 4), dtype=complex), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            dataset.csi[0, 0, 0, 0, 0] = 1.0


class TestMinMaxScaler:
    def test_scalar_bounds_scale_every_value_alike(self):
        scaler = MinMaxScaler(2.0, 6.0)
        values = np.array([[2.0, 4.0], [6.0, 10.0]])
        assert np.array_equal(scaler.scale(values), [[-1.0, 0.0], [1.0, 3.0]])
        assert np.array_equal(scaler.unscale(scaler.scale(values)), values)
        assert np.array_equal(scaler.times_gain(np.array([1.0, -4.0])), [0.5, -2.0])

    def test_vector_bounds_scale_the_last_axis(self):
        scaler = MinMaxScaler([0.0, -1.0], [4.0, 1.0])
        assert np.array_equal(scaler.scale([[2.0, 1.0], [0.0, 0.0]]), [[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(scaler.times_gain(np.ones((3, 2))), [[0.5, 1.0]] * 3)

    def test_maps_keep_the_floating_dtype_of_their_argument(self):
        scaler = MinMaxScaler([0.0, -1.0], [4.0, 1.0])
        for values, dtype in ((np.ones((3, 2), np.float32), np.float32),
                              (np.ones((3, 2), np.float64), np.float64),
                              (np.ones((3, 2), np.int64), np.float64)):
            for mapped in (scaler.scale(values), scaler.unscale(values), scaler.times_gain(values)):
                assert mapped.dtype == dtype
        assert np.array_equal(scaler.scale(np.array([[2, 0]])), [[0.0, 0.0]])

    def test_fit_reduces_over_axis_0(self):
        values = np.array([[1.0, 5.0], [3.0, -2.0], [2.0, 0.0]])
        scaler = MinMaxScaler.fit(values)
        assert np.array_equal(scaler.minimum, [1.0, -2.0])
        assert np.array_equal(scaler.maximum, [3.0, 5.0])
        flat = MinMaxScaler.fit(values.ravel())
        assert flat.minimum.shape == () and (flat.minimum, flat.maximum) == (-2.0, 5.0)

    @pytest.mark.parametrize(
        "minimum, maximum",
        [
            ([0.0, 0.0], 1.0),  # shapes differ
            (0.0, np.nan),
            (-np.inf, 1.0),
            (1.0, 1.0),  # degenerate
            ([0.0, 2.0], [1.0, 1.0]),  # inverted in one component
        ],
    )
    def test_rejects_bounds(self, minimum, maximum):
        with pytest.raises(ValueError):
            MinMaxScaler(minimum, maximum)

    def test_fit_on_no_values(self):
        with pytest.raises(ValueError):
            MinMaxScaler.fit(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            MinMaxScaler.fit(np.zeros(0))


def numpy_stream(seed, index):
    """The per-index stream built the way numpy documents it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def assert_numpy_streams(seed, first, count):
    streams = index_rngs(seed, first, count)
    assert len(streams) == count
    for index, stream in enumerate(streams, start=first):
        expected = numpy_stream(seed, index)
        assert stream.bit_generator.state == expected.bit_generator.state, index
        assert np.array_equal(stream.standard_normal(4), expected.standard_normal(4)), index


class TestIndexRngs:
    # seeds of one, two and five uint32 words; ranges from 0, inside a
    # 256-row block, and across 2**32, where the spawn key grows a word
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**40 + 1, 2**140 + 3])
    @pytest.mark.parametrize("first, count", [(0, 5), (300, 40), (2**32 - 3, 6)])
    def test_matches_numpy(self, seed, first, count):
        assert_numpy_streams(seed, first, count)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**160 - 1),
        first=st.integers(0, 2**40 - 1),
        count=st.integers(0, 300),
    )
    def test_matches_numpy_property(self, seed, first, count):
        assert_numpy_streams(seed, first, count)

    @pytest.mark.parametrize("seed, first", [(-1, 0), (0, -1), (-(2**70), 5)])
    def test_negative_seed_or_index_raises_like_numpy(self, seed, first):
        with pytest.raises(ValueError):
            numpy_stream(seed, first)
        with pytest.raises(ValueError):
            index_rngs(seed, first, 3)

    def test_a_different_hash_raises(self, monkeypatch):
        monkeypatch.setattr(csigen.core, "_MULT_B", csigen.core._MULT_B ^ 2)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            index_rngs(5, 0, 3)
