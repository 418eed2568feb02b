"""The whole CLI pipeline on the paper's array geometry: four 2x4 arrays
facing into a room, 48 taps, and the per-array report columns checked
against oracles that do not run the report's kernels."""

import csv
import math

import numpy as np
import pytest

from csigen.cli import EXIT_OK, main
from csigen.dataio import load_dataset
from csigen.gan.train import load_checkpoint

# (position, broadside in degrees) of each array: one per wall, outside the
# grid's bounds, each facing into the room
ARRAYS = (((10.0, 0.0), 90.0), ((20.0, 10.0), 180.0), ((10.0, 20.0), 270.0), ((0.0, 10.0), 0.0))
# (position, gain) of each reflector, off the grid:20x15 points
REFLECTORS = (((5.3, 13.7), 0.3), ((14.6, 4.1), 0.3))
BANDWIDTH = 100e6
NUM_TAPS = 48

SCENE = "".join(
    [
        "geometry.num_arrays = 4\ngeometry.rows = 2\ngeometry.cols = 4\n",
        f"geometry.num_taps = {NUM_TAPS}\ngeometry.carrier_hz = 1.272e9\n",
        f"geometry.bandwidth_hz = {BANDWIDTH!r}\n",
    ]
    + [
        f"array.{b}.position = {x!r}, {y!r}\narray.{b}.broadside_deg = {deg!r}\n"
        for b, ((x, y), deg) in enumerate(ARRAYS)
    ]
    + [
        f"reflector.{k}.position = {x!r}, {y!r}\nreflector.{k}.gain = {gain!r}\n"
        for k, ((x, y), gain) in enumerate(REFLECTORS)
    ]
    + ["noise_power = 1e-8\nseed = 3\nbounds = 1.0, 1.0, 19.0, 19.0\n"]
)
TRAIN_CONFIG = "generator_steps = 2\nhidden_scale = 0.05\nnoise_dim = 8\nbatch_size = 16\n"
LABELS = ("test", "gen", "interp")


def run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == EXIT_OK


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> split -> train -> generate -> interpolate -> evaluate, with
    the test half as the reference and the generated and interpolated
    datasets at its positions as the candidates."""
    d = tmp_path_factory.mktemp("paper")
    (d / "scene.cfg").write_text(SCENE)
    (d / "train.cfg").write_text(TRAIN_CONFIG)
    run("synth", "--scenario", d / "scene.cfg", "--positions", "grid:20x15", "--out", d / "all.csit")
    run("split", "--dataset", d / "all.csit", "--hole-center", "10,10",
        "--out-train", d / "train.csit", "--out-test", d / "test.csit")
    run("train", "--train", d / "train.csit", "--config", d / "train.cfg", "--out", d / "run")
    test_positions = f"from-dataset:{d / 'test.csit'}"
    run("generate", "--checkpoint", d / "run" / "checkpoint_final.wgck",
        "--positions", test_positions, "--out", d / "gen.csit")
    run("interpolate", "--train", d / "train.csit", "--positions", test_positions,
        "--out", d / "interp.csit")
    run("evaluate", "--reference", d / "test.csit", "--candidates", d / "gen.csit",
        d / "interp.csit", "--out", d / "report")
    return d


def report(directory, label) -> dict[str, np.ndarray]:
    with open(directory / "report" / f"points_{label}.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    values = np.array([[float(value) for value in row] for row in rows[1:]])
    return {name: values[:, k] for k, name in enumerate(rows[0])}


def test_every_stage_keeps_the_geometry(pipeline):
    test = load_dataset(pipeline / "test.csit")
    assert test.csi.shape[1:] == (4, 2, 4, NUM_TAPS) and len(test) == 75
    assert load_checkpoint(pipeline / "run" / "checkpoint_final.wgck").step == 2
    for label in ("gen", "interp"):
        dataset = load_dataset(pipeline / f"{label}.csit")
        assert dataset.geometry == test.geometry
        assert np.array_equal(dataset.positions, test.positions)
        assert np.isfinite(dataset.csi).all()


@pytest.mark.parametrize("label", LABELS)
def test_power_and_delay_spread_columns_match_brute_force(pipeline, label):
    datasets = {name: load_dataset(pipeline / f"{name}.csit").csi for name in LABELS}
    # the 0 dB reference: the largest per-array power of any compared dataset
    reference = max(
        float(np.sum(np.abs(csi[i, b]) ** 2)) for csi in datasets.values()
        for i in range(len(csi)) for b in range(len(ARRAYS))
    )
    csi, columns = datasets[label], report(pipeline, label)
    taps = np.arange(NUM_TAPS)
    for b in range(len(ARRAYS)):
        power = [float(np.sum(np.abs(csi[i, b]) ** 2)) for i in range(len(csi))]
        assert np.allclose(columns[f"power_db_b{b}"], 10.0 * np.log10(np.array(power) / reference),
                           rtol=0.0, atol=1e-9)
        # each antenna's power-weighted second central moment of the tap
        # delay, averaged over the array's eight antennas
        spreads = []
        for i in range(len(csi)):
            antennas = []
            for profile in np.abs(csi[i, b].reshape(-1, NUM_TAPS)) ** 2:
                mean = (profile * taps).sum() / profile.sum()
                variance = (profile * (taps - mean) ** 2).sum() / profile.sum()
                antennas.append(math.sqrt(variance) / BANDWIDTH * 1e9)
            spreads.append(sum(antennas) / len(antennas))
        assert np.allclose(columns[f"mean_ds_ns_b{b}"], spreads, rtol=0.0, atol=1e-9)


def test_azimuth_column_finds_the_line_of_sight(pipeline):
    """On rows where the line-of-sight amplitude 1/d is at least three times
    the reflections' summed amplitudes gain/(hop + leg) and the arrival lies
    within 1 rad of broadside, away from the half-wavelength phase wrap at
    endfire, root-MUSIC's single-source azimuth is within 0.05 rad of the
    line-of-sight azimuth (measured: at most 0.032 rad)."""
    positions = load_dataset(pipeline / "test.csit").positions
    columns = report(pipeline, "test")
    for b, (array, broadside) in enumerate(ARRAYS):
        offsets = positions - np.array(array)
        heading = np.array([math.atan2(y, x) for x, y in offsets])
        azimuth = (heading - math.radians(broadside) + math.pi) % (2.0 * math.pi) - math.pi
        line_of_sight = 1.0 / np.hypot(offsets[:, 0], offsets[:, 1])
        reflected = sum(
            gain / (np.hypot(*(positions - np.array(spot)).T) + math.dist(spot, array))
            for spot, gain in REFLECTORS
        )
        rows = (line_of_sight >= 3.0 * reflected) & (np.abs(azimuth) <= 1.0)
        assert rows.sum() >= 10, b
        error = np.abs(columns[f"aoa_rad_b{b}"][rows] - azimuth[rows])
        assert error.max() < 0.05, (b, error.max())
