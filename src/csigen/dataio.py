"""Dataset persistence ("CSIT" binary format) and train/test splitting.

CSIT file layout (all integers little-endian):

    magic         4 bytes  b"CSIT"
    version       u16      currently 1
    B, M_r, M_c,
    N_tap, L      5 x u32  geometry and datapoint count
    carrier_hz    f64
    bandwidth_hz  f64
    records       L x [position: 2 x f32][csi: B*M_r*M_c*N_tap x (re f32, im f32)]

CSI payload order is tap-fastest, then column, row, array (C order of the
(B, M_r, M_c, N_tap) tensor) with real/imag interleaved per entry.  Every
payload value is finite.  :func:`save_dataset` also writes a JSON sidecar
``<path>.meta.json`` holding free-form provenance only; loading never reads
it, so a missing or corrupt sidecar does not affect the dataset.  Both files
are written atomically (see :mod:`csigen.atomic`).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csigen.atomic import atomic_write
from csigen.core import ArrayGeometry, CsiDataset, all_finite, freq_to_time

FORMAT_MAGIC = b"CSIT"
FORMAT_VERSION = 1
CSIT_VALUE_MAX = float(np.finfo("<f4").max)  # the largest float32 payload magnitude
# payload floats per slice that save_dataset converts and writes at a time
SAVE_CHUNK = 65536

_HEADER = struct.Struct("<5I2d")
# Dataset names inside the HDF5 exports read by import_hdf5.
HDF5_CSI_KEY = "csi_freq"
HDF5_POSITION_KEY = "positions"


class DatasetFormatError(Exception):
    """Base class for CSIT file format violations."""


class BadMagicError(DatasetFormatError):
    """File does not start with the CSIT magic bytes."""


class VersionMismatchError(DatasetFormatError):
    """File declares an unsupported format version."""


class TruncatedPayloadError(DatasetFormatError):
    """File ends before the header-declared records are complete."""


class LengthMismatchError(DatasetFormatError):
    """File holds more payload bytes than the header declares."""


class NonFinitePayloadError(DatasetFormatError):
    """Payload decodes to a NaN or infinite position or CSI value."""


class EmptySplitError(ValueError):
    """Split parameters cannot produce a non-empty train/test pair."""


def save_dataset(dataset: CsiDataset, path: str | Path, provenance: dict | None = None) -> None:
    """Write a dataset to ``path`` in CSIT format plus a JSON provenance
    sidecar.

    The payload is float32, and loading back reproduces values exactly at
    that precision; a value beyond its range raises ``ValueError`` naming
    the record, and ``path`` keeps what it held.  The records are converted
    and written in slices of whole records, about ``SAVE_CHUNK`` floats
    each, so no full-size float32 copy of the payload is made.
    """
    path = Path(path)
    geo = dataset.geometry
    count = len(dataset)
    header = FORMAT_MAGIC + struct.pack("<H", FORMAT_VERSION) + _HEADER.pack(
        geo.num_arrays,
        geo.rows_per_array,
        geo.cols_per_array,
        geo.num_taps,
        count,
        geo.carrier_frequency,
        geo.bandwidth,
    )
    entries = geo.num_antennas * geo.num_taps
    flat = dataset.csi.reshape(count, entries)
    rows = max(1, SAVE_CHUNK // (2 + 2 * entries))
    block = np.empty((min(rows, count), 2 + 2 * entries), dtype="<f4")
    with atomic_write(path) as handle:
        handle.write(header)
        for start in range(0, count, rows):
            stop = min(start + rows, count)
            records = block[: stop - start]
            # the dataset is finite, so an inf here overflowed the cast
            with np.errstate(over="ignore"):
                records[:, 0:2] = dataset.positions[start:stop]
                records[:, 2::2] = flat[start:stop].real
                records[:, 3::2] = flat[start:stop].imag
            if not all_finite(records):
                record = start + np.argwhere(np.isinf(records))[0, 0]
                raise ValueError(f"{path}: record {record} holds a value beyond the float32 range")
            handle.write(records)
    meta = {
        "format": "CSIT",
        "version": FORMAT_VERSION,
        "provenance": dict(provenance or {}),
    }
    with atomic_write(str(path) + ".meta.json", "w") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")


def load_dataset(path: str | Path) -> CsiDataset:
    """Read a CSIT dataset; the provenance sidecar is not read.  Raises a
    distinct :class:`DatasetFormatError` subclass for each corruption mode
    (bad magic, version mismatch, truncation, length disagreement,
    non-finite payload values)."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 4 or blob[:4] != FORMAT_MAGIC:
        raise BadMagicError(f"{path}: not a CSIT file (magic {blob[:4]!r})")
    if len(blob) < 6 + _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file ends inside the header")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}"
        )
    b, m_r, m_c, n_tap, count = _HEADER.unpack_from(blob, 6)[:5]
    carrier, bandwidth = _HEADER.unpack_from(blob, 6)[5:]
    try:
        geometry = ArrayGeometry(
            num_arrays=int(b),
            rows_per_array=int(m_r),
            cols_per_array=int(m_c),
            num_taps=int(n_tap),
            carrier_frequency=carrier,
            bandwidth=bandwidth,
        )
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: invalid header field ({exc})") from exc
    entries = geometry.num_antennas * geometry.num_taps
    record_floats = 2 + 2 * entries
    offset = 6 + _HEADER.size
    payload_bytes = len(blob) - offset
    expected = count * record_floats * 4
    if payload_bytes < expected:
        raise TruncatedPayloadError(
            f"{path}: header declares {count} records ({expected} payload bytes), "
            f"file holds {payload_bytes}"
        )
    if payload_bytes > expected:
        raise LengthMismatchError(
            f"{path}: {payload_bytes - expected} unexpected trailing bytes "
            f"after {count} declared records"
        )
    records = np.frombuffer(blob, dtype="<f4", offset=offset, count=count * record_floats)
    records = records.reshape(count, record_floats)
    # checked on the float32 values, before the complex product below could
    # turn an infinite imaginary part into a NaN with a RuntimeWarning; only
    # a failed check pays for locating the value
    if not all_finite(records):
        record, slot = np.argwhere(~np.isfinite(records))[0]
        kind = "position" if slot < 2 else "CSI"
        raise NonFinitePayloadError(f"{path}: record {record} holds a non-finite {kind} value")
    positions = records[:, 0:2].astype(np.float64)
    # re + 1j * im, run in place as that expression's two ufuncs; assigning
    # the real and imaginary parts instead would keep a -0.0 that the sum
    # makes +0.0
    csi = np.empty((count,) + geometry.csi_shape, dtype=np.complex128)
    flat = csi.reshape(count, entries)
    np.multiply(records[:, 3::2], 1j, out=flat, dtype=np.complex128)
    np.add(flat, records[:, 2::2], out=flat, dtype=np.complex128)
    return CsiDataset(geometry, csi, positions)


@dataclass(frozen=True)
class SplitSpec:
    """Decimation split: test set takes indices == test_offset (mod stride),
    train set takes indices == train_offset (mod stride) minus a disc-shaped
    hole cut around ``hole_center``."""

    hole_center: np.ndarray  # (2,) meters
    stride: int = 4
    test_offset: int = 0
    train_offset: int = 2
    hole_diameter: float = 4.0

    def __post_init__(self) -> None:
        center = np.asarray(self.hole_center, dtype=np.float64)
        if center.shape != (2,) or not np.all(np.isfinite(center)):
            raise ValueError("hole_center must be a finite 2-vector")
        object.__setattr__(self, "hole_center", center)
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not (0 <= self.test_offset < self.stride):
            raise ValueError("test_offset must lie in [0, stride)")
        if not (0 <= self.train_offset < self.stride):
            raise ValueError("train_offset must lie in [0, stride)")
        if self.test_offset == self.train_offset:
            raise ValueError("test_offset and train_offset must differ")
        if not self.hole_diameter >= 0:
            raise ValueError("hole_diameter must be >= 0")


def split_train_test(dataset: CsiDataset, spec: SplitSpec) -> tuple[CsiDataset, CsiDataset]:
    """Partition a trajectory-ordered dataset into (train, test).

    Test: every ``stride``-th datapoint starting at ``test_offset``.
    Train: every ``stride``-th datapoint starting at ``train_offset``, with
    points inside the hole disc removed.  The two residue classes are
    disjoint by construction.
    """
    count = len(dataset)
    if spec.stride > count:
        raise EmptySplitError(
            f"stride {spec.stride} exceeds dataset size {count}; split undefined"
        )
    indices = np.arange(count)
    test_idx = indices[indices % spec.stride == spec.test_offset]
    train_idx = indices[indices % spec.stride == spec.train_offset]
    # hypot, unlike a sum of squares, stays finite up to the float64
    # maximum; a distance beyond it is inf, outside every finite hole
    with np.errstate(over="ignore"):
        offsets = dataset.positions[train_idx] - spec.hole_center
        distances = np.hypot(offsets[:, 0], offsets[:, 1])
    train_idx = train_idx[distances > spec.hole_diameter / 2.0]
    return dataset.subset(train_idx), dataset.subset(test_idx)


def _real_scalar(attrs, key: str, h5_path) -> float:
    """The HDF5 attribute ``key`` as a float; it must hold one real number."""
    value = np.asarray(attrs[key])
    if value.ndim != 0 or value.dtype.kind not in "iuf":
        raise DatasetFormatError(
            f"{h5_path}: attribute {key} must be a real scalar, got {value.dtype} of shape {value.shape}"
        )
    return float(value)


def import_hdf5(h5_path: str | Path, out_path: str | Path, n_tap: int) -> CsiDataset:
    """Convert an HDF5 channel-sounder export into a CSIT dataset (optional
    converter; requires h5py).

    Expected HDF5 layout: dataset ``csi_freq`` of shape
    (L, B, M_r, M_c, N_sub, 2) float (last axis real/imag, frequency
    domain), dataset ``positions`` of shape (L, 2) or (L, 3) (first two
    coordinates used), root attributes ``carrier_hz`` and ``bandwidth_hz``.
    Subcarriers are converted to ``n_tap`` time-domain taps.  Raises
    ImportError without h5py, and :class:`DatasetFormatError` naming each
    dataset or attribute that the file lacks, a ``positions`` dataset of
    another shape, or an attribute that is not a real scalar.
    """
    try:
        import h5py
    except ImportError as exc:
        raise ImportError("the HDF5 converter requires h5py (install csigen[hdf5])") from exc
    with h5py.File(h5_path, "r") as handle:
        missing = [key for key in (HDF5_CSI_KEY, HDF5_POSITION_KEY) if key not in handle]
        missing += [key for key in ("carrier_hz", "bandwidth_hz") if key not in handle.attrs]
        if missing:
            raise DatasetFormatError(f"{h5_path}: the HDF5 export lacks {', '.join(missing)}")
        raw = np.asarray(handle[HDF5_CSI_KEY])
        positions = np.asarray(handle[HDF5_POSITION_KEY], dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] < 2:
            raise DatasetFormatError(
                f"{h5_path}: {HDF5_POSITION_KEY} must have shape (L, k) with k >= 2, "
                f"got {positions.shape}"
            )
        carrier, bandwidth = (
            _real_scalar(handle.attrs, key, h5_path) for key in ("carrier_hz", "bandwidth_hz")
        )
    if raw.ndim != 6 or raw.shape[-1] != 2:
        raise ValueError(
            f"expected frequency CSI of shape (L, B, M_r, M_c, N_sub, 2), got {raw.shape}"
        )
    freq = raw[..., 0].astype(np.float64) + 1j * raw[..., 1].astype(np.float64)
    time = freq_to_time(freq, n_tap)
    geometry = ArrayGeometry(
        num_arrays=raw.shape[1],
        rows_per_array=raw.shape[2],
        cols_per_array=raw.shape[3],
        num_taps=n_tap,
        carrier_frequency=carrier,
        bandwidth=bandwidth,
    )
    dataset = CsiDataset(geometry, time, positions[:, :2])
    save_dataset(dataset, out_path, provenance={"source": str(h5_path)})
    return dataset
