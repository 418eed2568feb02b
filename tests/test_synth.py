import math

import numpy as np
import pytest

from csigen.core import ArrayGeometry, total_rx_power
from csigen.metrics import array_correlation, delay_spread_taps, root_music_azimuth
from csigen.synth import (
    ArrayPlacement,
    Obstacle,
    PathSpec,
    Reflector,
    Scenario,
    csi_from_paths,
    enumerate_paths,
    grid_positions,
    synth_csi,
    synth_dataset,
)

GEO = ArrayGeometry(1, 2, 4, 48, 1.272e9, 50e6)


def scenario(noise_power=0.0, reflectors=(), geometry=GEO, seed=0):
    return Scenario(
        geometry=geometry,
        placements=(ArrayPlacement(np.array([0.0, 0.0]), math.pi / 2),),  # faces +y
        reflectors=tuple(reflectors),
        noise_power=noise_power,
        seed=seed,
        bounds=((-60.0, 0.5), (60.0, 120.0)),
    )


class TestCsiFromPaths:
    def test_integer_delay_lands_on_single_tap(self):
        for k in (0, 3, 40):
            path = PathSpec(0.0, 0.0, k * GEO.tap_duration, 1.0)
            csi = csi_from_paths(GEO, [[path]])
            profile = np.abs(csi[0, 0, 0]) ** 2
            assert np.argmax(profile) == k
            spread, _ = delay_spread_taps(csi[0, 0, 0])
            assert spread < 0.05

    def test_fractional_delay_peak_and_leakage(self):
        path = PathSpec(0.0, 0.0, 8.4 * GEO.tap_duration, 1.0)
        csi = csi_from_paths(GEO, [[path]])
        profile = np.abs(csi[0, 0, 0]) ** 2
        assert np.argmax(profile) == 8
        assert profile.sum() == pytest.approx(1.0, rel=1e-12)  # unit-energy pulse
        spread, _ = delay_spread_taps(csi[0, 0, 0])
        assert spread < 1.0

    def test_two_equal_paths_delay_spread(self):
        paths = [
            PathSpec(0.0, 0.0, 1 * GEO.tap_duration, 1.0),
            PathSpec(0.0, 0.0, 3 * GEO.tap_duration, 1.0),
        ]
        csi = csi_from_paths(GEO, [paths])
        spread, _ = delay_spread_taps(csi[0, 0, 0])
        assert spread == pytest.approx(1.0, rel=0.02)

    def test_doubling_gains_quadruples_power(self):
        paths = [
            PathSpec(math.radians(10), 0.0, 2.2 * GEO.tap_duration, 0.8 + 0.1j),
            PathSpec(math.radians(-30), 0.0, 7.9 * GEO.tap_duration, 0.3 - 0.2j),
        ]
        doubled = [PathSpec(p.azimuth, p.elevation, p.delay, 2 * p.gain) for p in paths]
        base = total_rx_power(csi_from_paths(GEO, [paths]), 0)
        scaled = total_rx_power(csi_from_paths(GEO, [doubled]), 0)
        assert scaled == pytest.approx(4.0 * base, rel=1e-9)

    def test_delay_outside_window_rejected(self):
        with pytest.raises(ValueError):
            csi_from_paths(GEO, [[PathSpec(0.0, 0.0, 48 * GEO.tap_duration, 1.0)]])

    def test_path_behind_array_rejected(self):
        with pytest.raises(ValueError):
            PathSpec(math.radians(95), 0.0, 0.0, 1.0)


class TestSynthCsi:
    def test_broadside_ue_gives_zero_azimuth(self):
        sc = scenario()
        csi = synth_csi(sc, np.array([0.0, 7.0]))  # straight ahead of the array
        estimate = root_music_azimuth(array_correlation(csi, 0))
        assert abs(estimate) < 1e-3

    def test_azimuth_sweep_recovery(self):
        sc = scenario()
        distance = 20.0
        for deg in range(-60, 61, 10):
            azimuth = math.radians(deg)
            # scene azimuth is measured counterclockwise from broadside (+y)
            ue = distance * np.array([-math.sin(azimuth), math.cos(azimuth)])
            csi = synth_csi(sc, ue)
            estimate = root_music_azimuth(array_correlation(csi, 0))
            geometric = enumerate_paths(sc, 0, ue)[0].azimuth
            assert math.degrees(abs(estimate - geometric)) < 0.5

    def test_rank_one_spatial_structure(self):
        sc = scenario()
        csi = synth_csi(sc, np.array([4.0, 11.0]))
        corr = array_correlation(csi, 0)
        eigenvalues = np.linalg.eigvalsh(corr.entries)
        assert eigenvalues[-1] / eigenvalues.sum() > 0.999

    def test_ue_on_array_rejected(self):
        sc = Scenario(
            geometry=GEO,
            placements=(ArrayPlacement(np.array([0.0, 1.0]), math.pi / 2),),
            bounds=((-10.0, 0.0), (10.0, 20.0)),
        )
        with pytest.raises(ValueError):
            synth_csi(sc, np.array([0.0, 1.0]))

    def test_position_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            synth_csi(scenario(), np.array([0.0, 121.0]))

    def test_reflector_adds_second_path(self):
        sc = scenario(reflectors=[Reflector(np.array([10.0, 10.0]), 0.9)])
        paths = enumerate_paths(sc, 0, np.array([-5.0, 8.0]))
        assert len(paths) == 2
        assert paths[1].delay > paths[0].delay

    def test_free_space_amplitude_decay(self):
        sc = scenario()
        near = enumerate_paths(sc, 0, np.array([0.0, 5.0]))[0]
        far = enumerate_paths(sc, 0, np.array([0.0, 50.0]))[0]
        assert abs(far.gain) == pytest.approx(abs(near.gain) / 10.0, rel=1e-12)


class TestSynthDataset:
    def test_determinism_bitwise(self):
        sc = scenario(noise_power=1e-4, seed=77)
        positions = grid_positions(((-5.0, 5.0), (5.0, 15.0)), 4, 3)
        first = synth_dataset(sc, positions)
        second = synth_dataset(sc, positions)
        assert np.array_equal(first.csi, second.csi)
        assert np.array_equal(first.positions, second.positions)

    def test_different_seeds_differ(self):
        positions = grid_positions(((-5.0, 5.0), (5.0, 15.0)), 3, 3)
        first = synth_dataset(scenario(noise_power=1e-4, seed=1), positions)
        second = synth_dataset(scenario(noise_power=1e-4, seed=2), positions)
        assert not np.array_equal(first.csi, second.csi)

    def test_power_monotone_with_distance(self):
        sc = scenario()
        distances = np.linspace(3.0, 60.0, 100)
        positions = np.stack([np.zeros(100), distances], axis=1)
        dataset = synth_dataset(sc, positions)
        powers = [total_rx_power(dataset.csi[i], 0) for i in range(100)]
        assert all(p1 >= p2 for p1, p2 in zip(powers, powers[1:]))

    def test_inverse_square_law(self):
        sc = scenario()
        dataset = synth_dataset(sc, np.array([[0.0, 5.0], [0.0, 10.0]]))
        p_near = total_rx_power(dataset.csi[0], 0)
        p_far = total_rx_power(dataset.csi[1], 0)
        assert p_near / p_far == pytest.approx(4.0, rel=1e-6)

    def test_empty_positions(self):
        dataset = synth_dataset(scenario(), np.zeros((0, 2)))
        assert len(dataset) == 0

    def test_noise_power_level(self):
        geometry = ArrayGeometry(1, 2, 4, 48, 1.272e9, 50e6)
        sc = Scenario(
            geometry=geometry,
            placements=(ArrayPlacement(np.array([0.0, -100.0]), math.pi / 2),),
            noise_power=0.25,
            seed=5,
            bounds=((-10.0, 0.0), (10.0, 10.0)),
        )
        # transmitter ~105 m away: signal power per entry is ~1e-4 of the noise
        dataset = synth_dataset(sc, np.tile(np.array([[0.0, 5.0]]), (50, 1)))
        per_entry = np.mean(np.abs(dataset.csi) ** 2)
        assert per_entry == pytest.approx(0.25, rel=0.05)


class TestObstacles:
    def wall_scenario(self, transmission=0.0):
        return Scenario(
            geometry=GEO,
            placements=(ArrayPlacement(np.array([0.0, 0.0]), math.pi / 2),),
            reflectors=(Reflector(np.array([30.0, 10.0]), 1.0),),
            obstacles=(Obstacle(np.array([-5.0, 5.0]), np.array([5.0, 5.0]), transmission),),
            bounds=((-60.0, 0.5), (60.0, 120.0)),
        )

    def test_blocked_los_is_attenuated(self):
        blocked = self.wall_scenario(transmission=0.1)
        paths = enumerate_paths(blocked, 0, np.array([0.0, 10.0]))  # LoS crosses the wall
        clear = enumerate_paths(self.wall_scenario(0.1), 0, np.array([20.0, 10.0]))
        assert abs(paths[0].gain) < abs(clear[0].gain)
        # the reflector leg from (0,10) to (30,10) does not cross the wall
        direct_ratio = abs(paths[0].gain) / abs(clear[0].gain)
        assert direct_ratio == pytest.approx(0.1 * np.linalg.norm([20.0, 10.0]) / 10.0, rel=1e-9)

    def test_shadow_changes_power_and_spread(self):
        # behind the wall only the single echo path remains: lower power,
        # and a near-single-path delay spread instead of the two-path mix
        shadowed = synth_csi(self.wall_scenario(0.0), np.array([0.0, 10.0]))
        lit = synth_csi(self.wall_scenario(0.0), np.array([-20.0, 10.0]))
        ds_shadow, _ = delay_spread_taps(shadowed[0, 0, 0])
        ds_lit, _ = delay_spread_taps(lit[0, 0, 0])
        assert ds_shadow < 1.0 < ds_lit
        assert total_rx_power(shadowed, 0) < total_rx_power(lit, 0)

    def test_segment_intersection_is_proper(self):
        wall = Obstacle(np.array([0.0, 0.0]), np.array([10.0, 0.0]), 0.0)
        assert wall.blocks(np.array([5.0, -1.0]), np.array([5.0, 1.0]))
        assert not wall.blocks(np.array([11.0, -1.0]), np.array([11.0, 1.0]))
        assert not wall.blocks(np.array([5.0, 1.0]), np.array([6.0, 2.0]))

    def test_transmission_validation(self):
        with pytest.raises(ValueError):
            Obstacle(np.array([0.0, 0.0]), np.array([1.0, 0.0]), transmission=1.5)


class TestGridPositions:
    def test_serpentine_order(self):
        grid = grid_positions(((0.0, 0.0), (2.0, 1.0)), 3, 2)
        assert np.allclose(grid[:3, 0], [0.0, 1.0, 2.0])
        assert np.allclose(grid[3:, 0], [2.0, 1.0, 0.0])
        assert grid.shape == (6, 2)
