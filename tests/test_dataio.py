import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csigen.core import ArrayGeometry, CsiDataset, MinMaxScaler
from csigen.dataio import (
    BadMagicError,
    DatasetFormatError,
    EmptySplitError,
    LengthMismatchError,
    NonFinitePayloadError,
    SplitSpec,
    TruncatedPayloadError,
    VersionMismatchError,
    import_hdf5,
    load_dataset,
    save_dataset,
    split_train_test,
)

GEO = ArrayGeometry(2, 2, 4, 16, 1.272e9, 50e6)
HEADER_BYTES = 42  # magic, version, 5 x u32, 2 x f64


def random_dataset(n, seed=0, geometry=GEO):
    rng = np.random.default_rng(seed)
    shape = (n,) + geometry.csi_shape
    csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    positions = rng.uniform(-10, 10, size=(n, 2))
    return CsiDataset(geometry, csi, positions)


def line_dataset(n, geometry=None):
    geometry = geometry or ArrayGeometry(1, 1, 1, 4, 1e9, 50e6)
    csi = np.zeros((n, 1, 1, 1, 4), dtype=complex)
    csi[:, 0, 0, 0, 0] = np.arange(n) + 1.0
    positions = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    return CsiDataset(geometry, csi, positions)


class TestFileFormat:
    def test_round_trip_exact_at_f32(self, tmp_path):
        dataset = random_dataset(10)
        path = tmp_path / "ds.csit"
        save_dataset(dataset, path, provenance={"note": "round trip"})
        loaded = load_dataset(path)
        assert loaded.geometry == dataset.geometry
        assert len(loaded) == 10
        assert np.array_equal(loaded.positions, dataset.positions.astype(np.float32))
        assert np.array_equal(loaded.csi.real, dataset.csi.real.astype(np.float32))
        assert np.array_equal(loaded.csi.imag, dataset.csi.imag.astype(np.float32))

    def test_second_round_trip_is_lossless(self, tmp_path):
        dataset = random_dataset(5, seed=1)
        first = tmp_path / "a.csit"
        second = tmp_path / "b.csit"
        save_dataset(dataset, first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loads_without_sidecar(self, tmp_path):
        dataset = random_dataset(2)
        path = tmp_path / "ds.csit"
        save_dataset(dataset, path, provenance={"command": "synth"})
        sidecar = tmp_path / "ds.csit.meta.json"
        meta = json.loads(sidecar.read_text())
        assert meta == {"format": "CSIT", "version": 1, "provenance": {"command": "synth"}}
        sidecar.unlink()
        loaded = load_dataset(path)
        assert np.array_equal(loaded.csi, dataset.csi.astype(np.complex64))
        assert np.array_equal(loaded.positions, dataset.positions.astype(np.float32))

    def test_corrupt_sidecar_is_not_read(self, tmp_path):
        dataset = random_dataset(3)
        path = tmp_path / "ds.csit"
        save_dataset(dataset, path)
        expected = load_dataset(path)
        (tmp_path / "ds.csit.meta.json").write_text('{"power_reference": ')
        loaded = load_dataset(path)
        assert np.array_equal(loaded.csi, expected.csi)
        assert np.array_equal(loaded.positions, expected.positions)

    @pytest.mark.parametrize(
        "offset, value",
        [(0, np.nan), (1, np.inf), (2, -np.inf), (513, np.nan)],
        ids=["x-nan", "y-inf", "first-re-inf", "last-im-nan"],
    )
    def test_non_finite_payload(self, tmp_path, offset, value):
        path = tmp_path / "ds.csit"
        save_dataset(random_dataset(3), path)
        blob = bytearray(path.read_bytes())
        record_floats = 2 + 2 * GEO.num_antennas * GEO.num_taps
        assert offset < record_floats
        struct.pack_into("<f", blob, HEADER_BYTES + 4 * (record_floats + offset), value)
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFinitePayloadError):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["plus-inf", "minus-inf"])
    def test_infinite_imaginary_part_raises_without_a_warning(self, tmp_path, value):
        path = tmp_path / "ds.csit"
        save_dataset(random_dataset(3), path)
        blob = bytearray(path.read_bytes())
        record_floats = 2 + 2 * GEO.num_antennas * GEO.num_taps
        # record 1, imaginary part of its first CSI entry
        struct.pack_into("<f", blob, HEADER_BYTES + 4 * (record_floats + 3), value)
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinitePayloadError, match="record 1"):
                load_dataset(path)

    @pytest.mark.parametrize(
        "field, slot", [("position", 1), ("CSI", 7)], ids=["position", "csi"]
    )
    def test_value_beyond_float32_is_refused_before_writing(self, tmp_path, field, slot):
        dataset = random_dataset(3)
        if field == "position":
            positions = dataset.positions.copy()
            positions[2, slot] = -1e150
            dataset = CsiDataset(GEO, dataset.csi, positions)
        else:
            csi = dataset.csi.copy()
            csi.reshape(3, -1)[2, slot] = 1j * 1e39
            dataset = CsiDataset(GEO, csi, dataset.positions)
        path = tmp_path / "ds.csit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="record 2 holds a value beyond the float32 range"):
                save_dataset(dataset, path)
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic(self, tmp_path):
        dataset = random_dataset(2)
        path = tmp_path / "ds.csit"
        save_dataset(dataset, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        dataset = random_dataset(2)
        path = tmp_path / "ds.csit"
        save_dataset(dataset, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_dataset(path)

    def test_truncated_payload(self, tmp_path):
        dataset = random_dataset(5)
        path = tmp_path / "ds.csit"
        save_dataset(dataset, path)
        blob = path.read_bytes()
        record_bytes = (len(blob) - 42) // 5
        path.write_bytes(blob[: 42 + 4 * record_bytes])  # header says 5, file holds 4
        with pytest.raises(TruncatedPayloadError):
            load_dataset(path)

    def test_trailing_bytes_disagreement(self, tmp_path):
        dataset = random_dataset(3)
        path = tmp_path / "ds.csit"
        save_dataset(dataset, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(LengthMismatchError):
            load_dataset(path)

    def test_empty_dataset_round_trip(self, tmp_path):
        dataset = random_dataset(0)
        path = tmp_path / "empty.csit"
        save_dataset(dataset, path)
        assert len(load_dataset(path)) == 0

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=3),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_corrupt_file_loads_or_raises_a_format_error(self, tmp_path, csit_blob, flips, cut):
        blob = bytearray(csit_blob)
        for position, mask in flips:
            blob[position % len(blob)] ^= mask
        if cut is not None:
            del blob[cut % len(blob):]
        path = tmp_path / "fuzz.csit"
        path.write_bytes(bytes(blob))
        try:
            load_dataset(path)
        except DatasetFormatError:
            pass


@pytest.fixture(scope="module")
def csit_blob(tmp_path_factory):
    """A 6-point CSIT file on a small geometry, so that most flips land in
    positions and CSI values."""
    path = tmp_path_factory.mktemp("csit") / "ds.csit"
    save_dataset(random_dataset(6, seed=4, geometry=ArrayGeometry(1, 1, 2, 4, 1.272e9, 50e6)), path)
    return path.read_bytes()


class TestSplit:
    def test_line_split_without_hole(self):
        dataset = line_dataset(12)
        spec = SplitSpec(hole_center=(1e6, 1e6), hole_diameter=0.0)
        train, test = split_train_test(dataset, spec)
        assert list(test.positions[:, 0]) == [0, 4, 8]
        assert list(train.positions[:, 0]) == [2, 6, 10]

    def test_line_split_with_hole_on_point(self):
        dataset = line_dataset(12)
        spec = SplitSpec(hole_center=(6.0, 0.0), hole_diameter=2.0)
        train, _ = split_train_test(dataset, spec)
        assert list(train.positions[:, 0]) == [2, 10]

    def test_synthetic_count_ratio(self):
        rng = np.random.default_rng(5)
        geometry = ArrayGeometry(1, 1, 1, 4, 1e9, 50e6)
        csi = np.ones((2000, 1, 1, 1, 4), dtype=complex)
        positions = rng.uniform(0, 14, size=(2000, 2))
        dataset = CsiDataset(geometry, csi, positions)
        spec = SplitSpec(hole_center=(7.0, 7.0), hole_diameter=4.0)
        train, test = split_train_test(dataset, spec)
        # direct recount
        idx = np.arange(2000)
        expected_test = (idx % 4 == 0).sum()
        in_class = idx[idx % 4 == 2]
        dist = np.linalg.norm(positions[in_class] - np.array([7.0, 7.0]), axis=1)
        expected_train = (dist > 2.0).sum()
        assert len(test) == expected_test
        assert len(train) == expected_train
        assert 0.7 <= len(train) / len(test) <= 1.0

    def test_partition_properties(self):
        dataset = random_dataset(101, seed=9)
        spec = SplitSpec(hole_center=(0.0, 0.0), hole_diameter=6.0, stride=4)
        train, test = split_train_test(dataset, spec)
        train_keys = {tuple(p) for p in train.positions}
        test_keys = {tuple(p) for p in test.positions}
        assert not train_keys & test_keys
        # every test index is congruent to the test offset
        for position in test.positions:
            original = np.where((dataset.positions == position).all(axis=1))[0][0]
            assert original % 4 == 0
        for position in train.positions:
            assert np.linalg.norm(position) > 3.0

    def test_stride_larger_than_dataset(self):
        dataset = line_dataset(3)
        with pytest.raises(EmptySplitError):
            split_train_test(dataset, SplitSpec(hole_center=(0.0, 0.0), stride=4))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(hole_center=(0, 0), stride=0)
        with pytest.raises(ValueError):
            SplitSpec(hole_center=(0, 0), test_offset=4)
        with pytest.raises(ValueError):
            SplitSpec(hole_center=(0, 0), test_offset=1, train_offset=1)
        with pytest.raises(ValueError):
            SplitSpec(hole_center=(0, 0), hole_diameter=-1.0)


class TestConditionScaler:
    """A :class:`MinMaxScaler` on 2-D positions, as training fits it."""

    def test_midpoint_maps_to_origin(self):
        scaler = MinMaxScaler(np.array([0.0, 0.0]), np.array([10.0, 20.0]))
        assert np.allclose(scaler.scale(np.array([5.0, 10.0])), [0.0, 0.0])

    def test_corner_maps_to_minus_one(self):
        scaler = MinMaxScaler(np.array([0.0, 0.0]), np.array([10.0, 20.0]))
        assert np.allclose(scaler.scale(np.array([0.0, 0.0])), [-1.0, -1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        scaler = MinMaxScaler(np.array([-3.0, 1.0]), np.array([4.0, 9.0]))
        points = rng.uniform([-3, 1], [4, 9], size=(100, 2))
        scaled = scaler.scale(points)
        # the inverse affine map, written out
        back = (scaled + 1.0) / 2.0 * (np.array([4.0, 9.0]) - np.array([-3.0, 1.0])) + np.array([-3.0, 1.0])
        assert np.max(np.abs(back - points)) < 1e-9

    def test_fit_on_training_set(self):
        dataset = random_dataset(50, seed=21)
        scaler = MinMaxScaler.fit(dataset.positions)
        scaled = scaler.scale(dataset.positions)
        assert scaled.min() >= -1.0 - 1e-12 and scaled.max() <= 1.0 + 1e-12
        assert scaled[:, 0].min() == pytest.approx(-1.0)
        assert scaled[:, 1].max() == pytest.approx(1.0)

    def test_outside_box_not_clamped(self):
        scaler = MinMaxScaler(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        assert scaler.scale(np.array([4.0, 1.0]))[0] == pytest.approx(3.0)

    def test_degenerate_extent(self):
        with pytest.raises(ValueError):
            MinMaxScaler(np.array([1.0, 0.0]), np.array([1.0, 5.0]))
        flat = line_dataset(5)  # all y equal
        with pytest.raises(ValueError):
            MinMaxScaler.fit(flat.positions)

    def test_fit_empty(self):
        with pytest.raises(ValueError):
            MinMaxScaler.fit(line_dataset(0).positions)


class TestHdf5Converter:
    def test_hdf5_import(self, tmp_path):
        h5py = pytest.importorskip("h5py")
        rng = np.random.default_rng(13)
        n_sub, n_tap = 32, 8
        freq = rng.standard_normal((6, 1, 2, 2, n_sub, 2)).astype(np.float32)
        positions = rng.uniform(0, 5, size=(6, 3)).astype(np.float32)
        h5_path = tmp_path / "export.h5"
        with h5py.File(h5_path, "w") as handle:
            handle.create_dataset("csi_freq", data=freq)
            handle.create_dataset("positions", data=positions)
            handle.attrs["carrier_hz"] = 1.272e9
            handle.attrs["bandwidth_hz"] = 50e6
        out = tmp_path / "converted.csit"
        dataset = import_hdf5(h5_path, out, n_tap=n_tap)
        assert dataset.geometry.num_taps == n_tap
        assert len(load_dataset(out)) == 6
        # spot-check one antenna against a direct inverse DFT
        freq_c = freq[3, 0, 1, 0, :, 0] + 1j * freq[3, 0, 1, 0, :, 1]
        expected = np.fft.ifft(freq_c)[:n_tap]
        assert np.allclose(dataset.csi[3, 0, 1, 0], expected, atol=1e-9)
