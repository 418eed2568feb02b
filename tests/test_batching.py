"""The batched kernels of synth, generate, interpolate and evaluate, row by
row: a synth row's noise is its index's own stream, and every row of a
stacked generate, interpolate or evaluate call is bit-identical to the
single call on that row.  No result of synth, interpolate or evaluate
depends on the block size a stage works in; generate's bits do depend on
``SAMPLE_BLOCK_ROWS``, and every call runs blocks of exactly that shape."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csigen
import csigen.interp
import csigen.metrics
import csigen.synth
from csigen.core import ArrayGeometry, CsiDataset
from csigen.gan.sample import SAMPLE_BLOCK_ROWS, _generate, sample_fixed, sample_variable
from csigen.gan.train import TrainingConfig, save_checkpoint, train
from csigen.interp import Interpolant, interpolate_dataset
from csigen.metrics import CorrelationMatrix, array_correlation, root_music_azimuth
from csigen.synth import ArrayPlacement, Obstacle, Reflector, Scenario, synth_dataset
from test_metrics import noisy_correlation, wrapped_phase_probe_csi

GEO = ArrayGeometry(2, 2, 4, 16, 1.272e9, 100e6)


def scene(noise_power=1e-7):
    """Two arrays, one facing +y and one facing +x from the left edge, so
    positions left of it put its LoS arrival in the back null; the first
    reflector lies behind that array, and a wall shadows part of the box."""
    return Scenario(
        geometry=GEO,
        placements=(
            ArrayPlacement(np.array([6.0, 0.0]), math.pi / 2),
            ArrayPlacement(np.array([0.0, 5.0]), 0.0),
        ),
        reflectors=(
            Reflector(np.array([0.0, 6.0]), 2.5),
            Reflector(np.array([12.0, 7.0]), 2.0 * np.exp(0.7j)),
        ),
        obstacles=(Obstacle(np.array([2.5, 4.0]), np.array([9.5, 4.0]), transmission=0.03),),
        noise_power=noise_power,
        seed=7,
        bounds=((-3.0, 1.5), (12.0, 10.5)),
        delay_offset_taps=4.0,
    )


def scene_positions(count=37, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform([-3.0, 1.5], [12.0, 10.5], size=(count, 2))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("block", [1, 7, "default"])
def test_synth_noise_rows_are_index_streams(monkeypatch, block):
    """Positions behind both arrays of a scene without reflectors receive
    no path, so each row is pure noise: sigma (re + j im) from one draw of
    numpy's own index-i stream, whichever block the row falls in."""
    if block != "default":
        monkeypatch.setattr(csigen.synth, "SYNTH_BLOCK_ROWS", block)
    scenario = Scenario(
        geometry=GEO,
        placements=(
            ArrayPlacement(np.array([0.0, 0.0]), math.pi / 2),  # faces +y
            ArrayPlacement(np.array([-1.0, 5.0]), 0.0),  # faces +x
        ),
        noise_power=1e-7,
        seed=7,
        bounds=((-10.0, -10.0), (10.0, 10.0)),
    )
    positions = np.random.default_rng(5).uniform([-10.0, -10.0], [-2.0, -1.0], size=(20, 2))
    dataset = synth_dataset(scenario, positions)
    sigma = math.sqrt(scenario.noise_power / 2.0)
    for index in range(len(positions)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(index,)))
        draws = rng.standard_normal((2,) + GEO.csi_shape)
        assert same_bits(dataset.csi[index], sigma * (draws[0] + 1j * draws[1])), index


def interpolation_case():
    """An interpolant whose first triangle has all-zero CSI at its corners,
    and queries covering blends, that zero triangle, training vertices,
    edge midpoints and positions outside the hull."""
    rng = np.random.default_rng(11)
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
    positions = grid + rng.uniform(-0.2, 0.2, size=grid.shape)
    shape = (len(positions),) + GEO.csi_shape
    csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    first = Interpolant(CsiDataset(GEO, csi, positions))
    zero_corners = first.vertex_indices[first.triangulation.simplices[0]]
    csi[zero_corners] = 0.0
    interp = Interpolant(CsiDataset(GEO, csi, positions))
    corners = interp.points[interp.triangulation.simplices]
    queries = np.concatenate(
        [
            rng.uniform([0.0, 0.0], [5.0, 4.0], size=(40, 2)),
            corners[0].mean(axis=0)[None],  # inside the zero triangle
            interp.points[:5],
            (corners[1:6, 0] + corners[1:6, 1]) / 2.0,
            np.array([[-3.0, 2.0], [8.0, 8.0], [2.5, -4.0]]),
        ]
    )
    return interp, queries


def test_interpolate_dataset_rows_are_single_queries():
    interp, queries = interpolation_case()
    dataset, fallback_rows = interpolate_dataset(interp, queries)
    assert fallback_rows.tolist() == [len(queries) - 3, len(queries) - 2, len(queries) - 1]
    assert np.all(dataset.csi[40] == 0.0)  # the zero-input blend
    for index, position in enumerate(queries):
        query = interp.query(position)
        assert query.fallback_used == (index in fallback_rows)
        assert same_bits(dataset.csi[index], query.csi), index


def correlation(kind, seed, m):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((m, m), dtype=complex)
    if kind == "probe":
        if m != 4:
            return np.zeros((m, m), dtype=complex)
        return array_correlation(wrapped_phase_probe_csi(), 0).entries
    if kind == "noisy" and m == 4:
        return noisy_correlation(seed).entries
    if kind == "one-column":  # a single nonzero polynomial coefficient
        entries = np.zeros((m, m), dtype=complex)
        entries[seed % m, seed % m] = 10 ** rng.uniform(-20, 20)
        return entries
    if kind == "non-finite":
        entries = np.eye(m, dtype=complex)
        entries[0, 1] = entries[1, 0] = np.inf
        return entries
    # rank-deficient: one or two plane waves, scaled over many decades
    waves = 1 if kind == "rank-one" else 2
    phases = math.pi * rng.uniform(-1.0, 1.0, size=(waves, 1)) * np.arange(m)
    steer = np.exp(1j * phases) * 10 ** rng.uniform(-20, 20)
    entries = steer.T @ steer.conj()
    if kind == "noisy":
        x = rng.standard_normal((m, 8)) + 1j * rng.standard_normal((m, 8))
        entries = x @ x.conj().T
    return (entries + entries.conj().T) / 2.0


KINDS = ["zero", "rank-one", "rank-two", "noisy", "probe", "one-column", "non-finite"]


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([2, 3, 4, 6]),
    rows=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1)), min_size=1, max_size=10),
)
def test_stacked_root_music_rows_are_single_calls(m, rows):
    stack = np.stack([correlation(kind, seed, m) for kind, seed in rows])
    stacked = root_music_azimuth(CorrelationMatrix(stack))
    assert stacked.shape == (len(rows),)
    for index, entries in enumerate(stack):
        try:
            single = root_music_azimuth(CorrelationMatrix(entries))
        except ValueError:  # NoSignalError and LinAlgError included
            assert math.isnan(stacked[index]), rows[index]
        else:
            assert same_bits(stacked[index], np.float64(single)), rows[index]


def test_stacked_root_music_with_one_column_is_all_nan():
    stacked = root_music_azimuth(CorrelationMatrix(np.ones((3, 1, 1), dtype=complex)))
    assert np.all(np.isnan(stacked))
    with pytest.raises(ValueError):
        root_music_azimuth(CorrelationMatrix(np.ones((1, 1), dtype=complex)))


def stage_outputs():
    scenario = scene()
    dataset = synth_dataset(scenario, scene_positions())
    csi = dataset.csi.copy()
    csi[[2, 9]] = 0.0  # correlations without signal
    azimuths = [root_music_azimuth(array_correlation(csi, b)) for b in range(GEO.num_arrays)]
    interp, queries = interpolation_case()
    interpolated, fallback_rows = interpolate_dataset(interp, queries)
    return dataset.csi, np.stack(azimuths), interpolated.csi, fallback_rows


@pytest.fixture(scope="module")
def default_outputs():
    return stage_outputs()


@pytest.mark.parametrize("block", [1, 3, "default"])
def test_results_do_not_depend_on_block_size(monkeypatch, default_outputs, block):
    if block != "default":
        monkeypatch.setattr(csigen.synth, "SYNTH_BLOCK_ROWS", block)
        monkeypatch.setattr(csigen.interp, "INTERP_BLOCK_ROWS", block)
        monkeypatch.setattr(csigen.metrics, "MUSIC_BLOCK_ROWS", block)
    outputs = stage_outputs()
    assert np.isnan(outputs[1][:, [2, 9]]).all()
    for got, expected in zip(outputs, default_outputs):
        assert same_bits(got, expected)


@pytest.fixture(scope="module")
def sampling_case():
    """A checkpoint after one training step, whose generator layers are not
    multiples of a GEMM tile wide, and positions filling two whole sample
    blocks and a short third one."""
    config = TrainingConfig(
        generator_steps=1, batch_size=8, n_critic=1, noise_dim=13, hidden_scale=0.1,
        critic_hidden_scale=0.1,
    )
    checkpoint = train(synth_dataset(scene(), scene_positions(40)), config).checkpoint
    return checkpoint, scene_positions(2 * SAMPLE_BLOCK_ROWS + 37, seed=8)


# start index 40 puts the batch's first block mid-grid: its first 40 rows
# hold no position
START_INDICES = (0, 40)


def test_sample_variable_rows_are_single_calls(sampling_case):
    checkpoint, positions = sampling_case
    for start in START_INDICES:
        batch = sample_variable(checkpoint, positions, seed=21, start_index=start)
        assert batch.csi.shape == (len(positions),) + GEO.csi_shape
        for index in range(len(positions)):
            single = sample_variable(
                checkpoint, positions[index : index + 1], seed=21, start_index=start + index
            )
            assert same_bits(batch.csi[index], single.csi[0]), (start, index)


# Run by a second interpreter, whose BLAS starts with a set thread count;
# the command line does not pin threads.
SINGLE_AGAINST_BATCH = """
import sys
import numpy as np
from csigen.gan.sample import sample_variable
from csigen.gan.train import load_checkpoint
checkpoint = load_checkpoint(sys.argv[1])
positions = np.load(sys.argv[2])
differ = []
for start in map(int, sys.argv[3:]):
    batch = sample_variable(checkpoint, positions, seed=21, start_index=start).csi
    differ += [
        (start, index) for index in range(len(positions))
        if batch[index].tobytes()
        != sample_variable(checkpoint, positions[index : index + 1], seed=21, start_index=start + index).csi[0].tobytes()
    ]
print(differ)
sys.exit(1 if differ else 0)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sample_variable_rows_are_single_calls_at_set_blas_threads(sampling_case, tmp_path, threads):
    checkpoint, positions = sampling_case
    save_checkpoint(checkpoint, tmp_path / "ck.wgck")
    np.save(tmp_path / "positions.npy", positions)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(csigen.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", SINGLE_AGAINST_BATCH, str(tmp_path / "ck.wgck"), str(tmp_path / "positions.npy"),
         *map(str, START_INDICES)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_nan_position_leaves_other_sample_rows_unchanged(sampling_case):
    # A dataset cannot hold the NaN row, so this runs the block kernel itself.
    checkpoint, positions = sampling_case
    poisoned = positions.copy()
    nan_rows = [100, 2 * SAMPLE_BLOCK_ROWS + 5]  # inside a full block and the short one
    poisoned[nan_rows, 0] = np.nan

    def fill_noise(noise, start):
        noise[...] = np.random.default_rng(start).standard_normal(noise.shape)

    clean = _generate(checkpoint, positions, fill_noise)
    dirty = _generate(checkpoint, poisoned, fill_noise)
    keep = np.setdiff1d(np.arange(len(positions)), nan_rows)
    assert same_bits(dirty[keep], clean[keep])
    assert np.isnan(dirty[nan_rows]).all()


def test_empty_sample_batch(sampling_case):
    checkpoint, _ = sampling_case
    for sample in (sample_variable, sample_fixed):
        out = sample(checkpoint, np.zeros((0, 2)), seed=3)
        assert len(out) == 0 and out.csi.shape == (0,) + GEO.csi_shape
