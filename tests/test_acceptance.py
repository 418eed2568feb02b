"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 8 trains a reduced generative model end to end and takes
a few minutes; everything else is fast.
"""

import math
import struct
import time

import numpy as np
import pytest

from csigen.core import ArrayGeometry, CsiDataset, MinMaxScaler
from csigen.dataio import (
    BadMagicError,
    LengthMismatchError,
    SplitSpec,
    TruncatedPayloadError,
    VersionMismatchError,
    load_dataset,
    save_dataset,
    split_train_test,
)
from csigen.gan.fastgrad import critic_loss_fast, generator_loss_fast
from csigen.gan.mlp import init_mlp, mlp_backward, mlp_forward
from csigen.gan.nets import CriticParams, delay_spread_flat
from csigen.gan.sample import sample_fixed, sample_variable
from csigen.gan.train import (
    CheckpointBadMagicError,
    CheckpointLengthError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    TrainingConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)
from csigen.interp import (
    BarycentricCoords,
    build_interpolant,
    phase_aligned_blend,
    phase_aligned_nmse,
)
from csigen.metrics import (
    CorrelationMatrix,
    Density,
    JS_DISTANCE_MAX,
    array_correlation,
    dataset_delay_spreads,
    delay_spread_taps,
    gaussian_fit_samples,
    js_distance,
    jsd_matrix,
    root_music_azimuth,
)
from csigen.synth import (
    ArrayPlacement,
    Obstacle,
    Reflector,
    Scenario,
    grid_positions,
    synth_csi,
    synth_dataset,
)
from graph_reference import gradient_penalty


def central_difference(func, array, h=1e-5):
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        upper = func()
        flat[i] = original - h
        lower = func()
        flat[i] = original
        out[i] = (upper - lower) / (2 * h)
    return grad


def relative_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


def assert_matches_central_differences(value, arrays, grads, tolerance=1e-3, flat=1e-12):
    """Each gradient array against central differences of ``value`` over
    the matching parameter array; arrays that both sides find flat (below
    ``flat``) are skipped."""
    for array, grad in zip(arrays, grads):
        fd = central_difference(value, array, h=1e-5)
        if np.abs(fd).max() < flat and np.abs(grad).max() < flat:
            continue
        assert relative_error(grad, fd) < tolerance


def small_critic(geometry, rng):
    # widths below init_critic's floor of 8: trunk (6, 5), fusion (4,)
    csi_width = 2 * geometry.num_antennas * geometry.num_taps
    trunk = init_mlp([csi_width, 6, 5], ["relu", "relu"], rng)
    fusion = init_mlp([5 + geometry.num_antennas + 2, 4, 1], ["relu", "linear"], rng)
    critic = CriticParams(trunk, fusion).copy()
    for mats in (critic.trunk, critic.fusion):
        for layer in mats.layers:
            layer.bias += rng.uniform(-0.2, 0.2, size=layer.bias.shape)
    return critic


def test_criterion_1_gradient_correctness():
    """Analytic gradients vs central finite differences on random toy nets."""
    start = time.time()
    rng = np.random.default_rng(1001)
    networks = 0
    while networks < 20:
        depth = int(rng.integers(2, 4))
        widths = [int(rng.integers(3, 17)) for _ in range(depth)] + [1]
        widths = [int(rng.integers(3, 17))] + widths
        params = init_mlp(widths, ["relu"] * (len(widths) - 2) + ["linear"], rng)
        for layer in params.layers:
            layer.bias += rng.uniform(-0.3, 0.3, size=layer.bias.shape)
        x = rng.standard_normal((3, widths[0])) * 1.3 + 0.07

        def loss():
            out, _ = mlp_forward(params, x)
            return float(out.sum())

        out, cache = mlp_forward(params, x)
        grads = [np.zeros_like(a) for a in params.arrays()]
        dx = mlp_backward(params, cache, np.ones_like(out), grads)
        for grad, array in zip(grads, params.arrays()):
            assert relative_error(grad, central_difference(loss, array)) < 1e-4
        assert relative_error(dx, central_difference(loss, x)) < 1e-4
        networks += 1

    # gradient-penalty double backpropagation on small critics
    geometry = ArrayGeometry(1, 1, 2, 3, 1.272e9, 50e6)
    scaler = MinMaxScaler(0.0, geometry.num_taps * geometry.tap_duration)
    csi_width = 2 * geometry.num_antennas * geometry.num_taps
    for trial in range(5):
        critic = small_critic(geometry, rng)
        real = rng.standard_normal((3, csi_width)) * 1.5
        fake = rng.standard_normal((3, csi_width)) * 1.5
        pos = rng.uniform(-1, 1, (3, 2))
        eps = rng.uniform(0.2, 0.8, (3, 1))

        def penalty_value():
            value, _ = gradient_penalty(critic, geometry, scaler, real, fake, pos, eps)
            return value

        _, grads = gradient_penalty(critic, geometry, scaler, real, fake, pos, eps)
        assert_matches_central_differences(penalty_value, critic.arrays(), grads)

    # the training losses themselves, on the same small critics with a
    # small generator, under both penalty paths.  The critic's output bias
    # cancels from mean[C(fake)] - mean[C(real)]: its gradient is exactly 0,
    # and central differences of the O(1) loss leave ~2e-11 of rounding there.
    rng = np.random.default_rng(1004)
    noise_dim = 4
    for trial in range(3):
        critic = small_critic(geometry, rng)
        generator = init_mlp([noise_dim + 2, 7, csi_width], ["relu", "linear"], rng)
        for layer in generator.layers:
            layer.bias += rng.uniform(-0.2, 0.2, size=layer.bias.shape)
        real = rng.standard_normal((3, csi_width)) * 1.5
        pos = rng.uniform(-1, 1, (3, 2))
        noise = rng.standard_normal((3, noise_dim))
        eps = rng.uniform(0.2, 0.8, (3, 1))
        ds_real = scaler.scale(delay_spread_flat(real, geometry))
        for ds_through in (True, False):
            args = (critic, generator, geometry, scaler, real, pos, ds_real, noise, eps, 10.0, ds_through)
            _, grads, _ = critic_loss_fast(*args)
            assert_matches_central_differences(
                lambda: critic_loss_fast(*args)[0], critic.arrays(), grads, flat=1e-9
            )
        args = (critic, generator, geometry, scaler, pos, noise)
        _, grads = generator_loss_fast(*args)
        assert_matches_central_differences(
            lambda: generator_loss_fast(*args)[0], generator.arrays(), grads, flat=1e-9
        )
    elapsed = time.time() - start
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f} s (budget 30 s)"
    print(f"\nACCEPTANCE 1 (gradient correctness, {elapsed:.1f} s): PASS")


def test_criterion_2_metric_closed_forms():
    """RMS delay spread closed forms against a brute-force oracle."""
    geometry = ArrayGeometry(1, 1, 1, 48, 1.272e9, 50e6)
    # single nonzero tap -> exactly zero spread
    for tap in (0, 17, 47):
        profile = np.zeros(48, dtype=complex)
        profile[tap] = 1.7 - 0.3j
        spread, _ = delay_spread_taps(profile)
        assert spread == 0.0
    # equal taps at t=1,3 (1-based): spread exactly 1 tap = 20 ns at 50 MHz
    profile = np.zeros(48, dtype=complex)
    profile[0] = 1.0
    profile[2] = 1.0
    spread, _ = delay_spread_taps(profile)
    assert abs(spread - 1.0) < 1e-12
    assert abs(spread * geometry.tap_duration - 20e-9) < 1e-12 * 20e-9
    # uniform 48-tap profile vs brute-force summation oracle
    uniform = np.ones(48, dtype=complex)
    spread, _ = delay_spread_taps(uniform)
    taps = np.arange(1, 49, dtype=float)
    power = np.abs(uniform) ** 2
    mean = sum(t * p for t, p in zip(taps, power)) / power.sum()
    brute = math.sqrt(sum((t - mean) ** 2 * p for t, p in zip(taps, power)) / power.sum())
    assert abs(spread - brute) < 1e-12
    assert abs(spread - math.sqrt((48**2 - 1) / 12)) < 1e-9
    print("\nACCEPTANCE 2 (delay-spread closed forms): PASS")


def test_criterion_3_jsd_identities():
    edges = np.linspace(0.0, 1.0, 7)
    p = Density(edges, np.array([0.1, 0.3, 0.2, 0.15, 0.15, 0.1]))
    assert js_distance(p, p) == 0.0  # Table-style diagonal is exactly 0.000
    disjoint_p = Density(edges, np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]))
    disjoint_q = Density(edges, np.array([0.0, 0.0, 0.0, 0.2, 0.3, 0.5]))
    assert abs(js_distance(disjoint_p, disjoint_q) - math.sqrt(math.log(2))) < 1e-12
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        raw_p = rng.uniform(0, 1, 6) * (rng.uniform(size=6) > 0.25)
        raw_q = rng.uniform(0, 1, 6) * (rng.uniform(size=6) > 0.25)
        if raw_p.sum() == 0 or raw_q.sum() == 0:
            continue
        p = Density(edges, raw_p / raw_p.sum())
        q = Density(edges, raw_q / raw_q.sum())
        forward, backward = js_distance(p, q), js_distance(q, p)
        assert abs(forward - backward) < 1e-12
        assert -1e-15 <= forward <= JS_DISTANCE_MAX + 1e-12
    print("\nACCEPTANCE 3 (Jensen-Shannon identities): PASS")


def test_criterion_4_root_music():
    start = time.time()
    geometry = ArrayGeometry(1, 2, 4, 48, 1.272e9, 50e6)
    scene = Scenario(
        geometry=geometry,
        placements=(ArrayPlacement(np.array([0.0, 0.0]), math.pi / 2),),
        noise_power=0.0,
        bounds=((-100.0, 0.5), (100.0, 150.0)),
    )
    from csigen.synth import enumerate_paths

    for degrees in range(-60, 61, 10):
        azimuth = math.radians(degrees)
        ue = 25.0 * np.array([-math.sin(azimuth), math.cos(azimuth)])
        csi = synth_csi(scene, ue)
        estimate = root_music_azimuth(array_correlation(csi, 0))
        truth = enumerate_paths(scene, 0, ue)[0].azimuth
        assert abs(math.degrees(estimate - truth)) < 0.5, f"{degrees} deg"
    # scaling invariance
    csi = synth_csi(scene, np.array([-8.0, 20.0]))
    corr = array_correlation(csi, 0)
    base = root_music_azimuth(corr)
    for factor in (1e-6, 1.0, 1e6):
        scaled = CorrelationMatrix(corr.entries * factor, 0)
        assert abs(root_music_azimuth(scaled) - base) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0, f"root-MUSIC checks took {elapsed:.1f} s (budget 10 s)"
    print(f"\nACCEPTANCE 4 (root-MUSIC azimuth sweep, {elapsed:.1f} s): PASS")


def test_criterion_5_interpolator():
    rng = np.random.default_rng(1005)
    geometry = ArrayGeometry(1, 2, 2, 8, 1.272e9, 50e6)
    shape = (40,) + geometry.csi_shape
    dataset = CsiDataset(
        geometry,
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        rng.uniform(0, 5, (40, 2)),
    )
    interp = build_interpolant(dataset)
    for index in (0, 13, 39):
        estimate = interp.query(dataset.positions[index]).csi
        residual = math.sqrt(phase_aligned_nmse(estimate, dataset.csi[index]))
        assert residual < 1e-9
    # objective monotonically non-increasing on 100 random triples
    for _ in range(100):
        tensors = [
            rng.standard_normal(geometry.csi_shape) + 1j * rng.standard_normal(geometry.csi_shape)
            for _ in range(3)
        ]
        weights = rng.dirichlet(np.ones(3))
        result = phase_aligned_blend(*tensors, BarycentricCoords(weights))
        assert all(
            later <= earlier + 1e-12 * max(result.objectives[0], 1.0)
            for earlier, later in zip(result.objectives, result.objectives[1:])
        )
    # held-out NMSE strictly improves when training density doubles
    scene = Scenario(
        geometry=ArrayGeometry(1, 2, 4, 16, 1.272e9, 50e6),
        placements=(ArrayPlacement(np.array([0.6, -2.0]), math.pi / 2),),
        reflectors=(Reflector(np.array([-0.5, 2.5]), 0.6),),
        noise_power=0.0,
        bounds=((-0.2, -0.2), (1.4, 1.4)),
        delay_offset_taps=4.0,
    )
    queries = np.random.default_rng(1006).uniform(0.1, 1.1, size=(50, 2))
    reference = synth_dataset(scene, queries)
    errors = []
    for nx in (11, 21):
        train_set = synth_dataset(scene, grid_positions(((0.0, 0.0), (1.2, 1.2)), nx, nx))
        dense_interp = build_interpolant(train_set)
        nmse = [
            phase_aligned_nmse(dense_interp.query(q).csi, reference.csi[i])
            for i, q in enumerate(queries)
        ]
        errors.append(float(np.mean(nmse)))
    assert errors[1] < errors[0]
    print(
        f"\nACCEPTANCE 5 (interpolator; NMSE {errors[0]:.4f} -> {errors[1]:.4f}): PASS"
    )


def test_criterion_6_delaunay_validity():
    rng = np.random.default_rng(1007)
    geometry = ArrayGeometry(1, 1, 1, 4, 1e9, 50e6)
    positions = rng.uniform(0, 10, size=(200, 2))
    csi = rng.standard_normal((200,) + geometry.csi_shape) + 0j
    interp = build_interpolant(CsiDataset(geometry, csi, positions))
    points = interp.points
    violations = 0
    for tri in interp.triangulation.simplices:
        a, b, c = points[tri]
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0:
            b, c = c, b
        others = np.delete(np.arange(len(points)), tri)
        for idx in others:
            d = points[idx]
            rows = np.array([a, b, c]) - d[None, :]
            lifted = np.column_stack([rows, (rows**2).sum(axis=1)])
            det = np.linalg.det(lifted)
            if det > 1e-9 * max(abs(lifted).max() ** 3, 1e-30):
                violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 6 (empty circumcircle, {len(interp.triangulation.simplices)} triangles): PASS")


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    """A small synthetic dataset reused by the determinism criterion."""
    geometry = ArrayGeometry(1, 2, 4, 16, 1.272e9, 100e6)
    scene = Scenario(
        geometry=geometry,
        placements=(ArrayPlacement(np.array([6.0, 0.0]), math.pi / 2),),
        reflectors=(Reflector(np.array([0.0, 6.0]), 2.5),),
        noise_power=1e-7,
        seed=7,
        bounds=((0.0, 1.5), (12.0, 10.5)),
        delay_offset_taps=4.0,
    )
    dataset = synth_dataset(scene, grid_positions(((0.2, 2.0), (11.8, 10.0)), 10, 8))
    path = tmp_path_factory.mktemp("determinism") / "desk.csit"
    save_dataset(dataset, path)
    return path


def test_criterion_7_determinism(desk_dataset, tmp_path):
    from csigen.cli import main

    config = tmp_path / "train.cfg"
    config.write_text(
        "generator_steps = 5\nseed = 3\nbatch_size = 16\nn_critic = 2\n"
        "noise_dim = 16\nhidden_scale = 0.05\n"
    )
    digests = []
    for name in ("run1", "run2"):
        run_dir = tmp_path / name
        assert main(
            ["train", "--train", str(desk_dataset), "--config", str(config),
             "--out", str(run_dir)]
        ) == 0
        digests.append(
            (
                (run_dir / "checkpoint_final.wgck").read_bytes(),
                (run_dir / "training_log.csv").read_bytes(),
            )
        )
    assert digests[0] == digests[1]

    checkpoint = load_checkpoint(tmp_path / "run1" / "checkpoint_final.wgck")
    positions = np.random.default_rng(1008).uniform(1, 9, (12, 2))
    fixed_a = sample_fixed(checkpoint, positions, seed=4)
    fixed_b = sample_fixed(checkpoint, positions, seed=4)
    assert np.array_equal(fixed_a.csi, fixed_b.csi)
    variable_a = sample_variable(checkpoint, positions, seed=4)
    variable_b = sample_variable(checkpoint, positions, seed=4)
    assert np.array_equal(variable_a.csi, variable_b.csi)
    single = sample_variable(checkpoint, positions[5:6], seed=4, start_index=5)
    assert np.array_equal(variable_a.csi[5], single.csi[0])
    print("\nACCEPTANCE 7 (training and sampling determinism): PASS")


def _accept8_scene():
    geometry = ArrayGeometry(1, 2, 4, 16, 1.272e9, 100e6)
    return Scenario(
        geometry=geometry,
        placements=(ArrayPlacement(np.array([6.0, 0.0]), math.pi / 2),),
        reflectors=(
            Reflector(np.array([0.0, 6.0]), 2.5),
            Reflector(np.array([12.0, 7.0]), 2.0),
        ),
        obstacles=(Obstacle(np.array([2.5, 4.0]), np.array([9.5, 4.0]), transmission=0.03),),
        noise_power=1e-7,
        seed=7,
        bounds=((0.0, 1.5), (12.0, 10.5)),
        delay_offset_taps=4.0,
    )


@pytest.mark.slow
def test_criterion_8_desk_scale_ordering(tmp_path):
    """Qualitative Table-I ordering at desk scale:
    JSD(test, train) < JSD(GAN-var, train) < JSD(Gaussian, train)."""
    start = time.time()
    scene = _accept8_scene()
    grid = grid_positions(((0.2, 2.0), (11.8, 10.0)), 50, 40)
    jitter = np.random.default_rng(123).uniform(-0.08, 0.08, size=grid.shape)
    dataset = synth_dataset(scene, grid + jitter)
    assert len(dataset) == 2000
    train_set, test_set = split_train_test(
        dataset, SplitSpec(hole_center=(6.0, 2.5), hole_diameter=4.0)
    )

    # Desk-scale configuration: paper-shaped critic at full width, reduced
    # generator, and a light gradient penalty that leaves the delay-spread
    # side input out of the penalty path (the ablation switch); at this data
    # scale the defaults smear the learned delay-spread distribution.
    config = TrainingConfig(
        generator_steps=6000,
        seed=0,
        batch_size=64,
        noise_dim=128,
        hidden_scale=0.25,
        critic_hidden_scale=1.0,
        learning_rate=1e-4,
        gp_lambda=1.0,
        gp_ds_through_csi=False,
        checkpoint_every=500,
    )
    result = train(train_set, config, out_dir=tmp_path)
    pools = []
    for step in range(4500, 6001, 500):
        checkpoint = load_checkpoint(tmp_path / f"checkpoint_{step:07d}.wgck")
        generated = sample_variable(checkpoint, test_set.positions, seed=1000 + step)
        pools.append(dataset_delay_spreads(generated).ravel())
    ds_gan = np.concatenate(pools) * 1e9

    ds_train = dataset_delay_spreads(train_set).ravel() * 1e9
    ds_test = dataset_delay_spreads(test_set).ravel() * 1e9
    gauss = gaussian_fit_samples(ds_train, n=ds_test.size, seed=5)
    labels, matrix = jsd_matrix(
        [("train", ds_train), ("test", ds_test), ("ganvar", ds_gan), ("gauss", gauss)],
        n_bins=150,
    )
    elapsed = time.time() - start
    jsd_test, jsd_gan, jsd_gauss = matrix[0, 1], matrix[0, 2], matrix[0, 3]
    assert elapsed < 600.0, f"desk-scale run took {elapsed:.0f} s (budget 600 s)"
    assert jsd_gan < jsd_gauss, f"GAN {jsd_gan:.3f} must beat Gaussian {jsd_gauss:.3f}"
    assert jsd_test < jsd_gan, f"test {jsd_test:.3f} must undercut GAN {jsd_gan:.3f}"
    print(
        f"\nACCEPTANCE 8 (desk-scale ordering in {elapsed/60:.1f} min): "
        f"{jsd_test:.3f} < {jsd_gan:.3f} < {jsd_gauss:.3f}: PASS"
    )


def test_criterion_9_file_formats(tmp_path):
    rng = np.random.default_rng(1009)
    geometry = ArrayGeometry(1, 2, 2, 8, 1.272e9, 50e6)
    shape = (6,) + geometry.csi_shape
    dataset = CsiDataset(
        geometry,
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        rng.uniform(0, 5, (6, 2)),
    )
    # CSIT round trip is lossless (second generation identical)
    first = tmp_path / "a.csit"
    second = tmp_path / "b.csit"
    save_dataset(dataset, first)
    save_dataset(load_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()

    blob = bytearray(first.read_bytes())
    corrupted = tmp_path / "corrupt.csit"
    corrupted.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(BadMagicError):
        load_dataset(corrupted)
    corrupted.write_bytes(bytes(blob[:4]) + struct.pack("<H", 77) + bytes(blob[6:]))
    with pytest.raises(VersionMismatchError):
        load_dataset(corrupted)
    corrupted.write_bytes(bytes(blob[:-40]))
    with pytest.raises(TruncatedPayloadError):
        load_dataset(corrupted)
    corrupted.write_bytes(bytes(blob) + b"\x00\x00")
    with pytest.raises(LengthMismatchError):
        load_dataset(corrupted)

    # WGCK round trip
    train_result = train(
        dataset,
        TrainingConfig(generator_steps=1, batch_size=4, n_critic=1, noise_dim=6,
                       hidden_scale=0.02),
    )
    ck_first = tmp_path / "a.wgck"
    ck_second = tmp_path / "b.wgck"
    save_checkpoint(train_result.checkpoint, ck_first)
    save_checkpoint(load_checkpoint(ck_first), ck_second)
    assert ck_first.read_bytes() == ck_second.read_bytes()

    ck_blob = bytearray(ck_first.read_bytes())
    ck_bad = tmp_path / "bad.wgck"
    ck_bad.write_bytes(b"ZZZZ" + bytes(ck_blob[4:]))
    with pytest.raises(CheckpointBadMagicError):
        load_checkpoint(ck_bad)
    ck_bad.write_bytes(bytes(ck_blob[:4]) + struct.pack("<H", 9) + bytes(ck_blob[6:]))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(ck_bad)
    ck_bad.write_bytes(bytes(ck_blob[:-16]))
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(ck_bad)
    ck_bad.write_bytes(bytes(ck_blob) + b"\x00" * 8)
    with pytest.raises(CheckpointLengthError):
        load_checkpoint(ck_bad)
    print("\nACCEPTANCE 9 (file formats and distinct corruption errors): PASS")


@pytest.mark.skipif(
    "CSIGEN_REAL_DATASET" not in __import__("os").environ,
    reason="criterion 10 is optional: set CSIGEN_REAL_DATASET to a CSIT "
    "conversion of the public measurement dataset",
)
def test_criterion_10_real_dataset_split_counts():
    import os

    dataset = load_dataset(os.environ["CSIGEN_REAL_DATASET"])
    target = (17857, 20973)
    best = None
    # documented search: both leftover offsets and a coarse hole-center grid
    xs = np.linspace(dataset.positions[:, 0].min(), dataset.positions[:, 0].max(), 25)
    ys = np.linspace(dataset.positions[:, 1].min(), dataset.positions[:, 1].max(), 25)
    for train_offset in (1, 2, 3):
        for x in xs:
            for y in ys:
                spec = SplitSpec(
                    hole_center=(x, y), train_offset=train_offset, hole_diameter=4.0
                )
                train_set, test_set = split_train_test(dataset, spec)
                counts = (len(train_set), len(test_set))
                if best is None or abs(counts[0] - target[0]) < abs(best[0][0] - target[0]):
                    best = (counts, train_offset, (x, y))
                if counts == target:
                    print(f"\nACCEPTANCE 10 (real-data split {counts}): PASS")
                    return
    raise AssertionError(f"no split matched {target}; closest {best}")
