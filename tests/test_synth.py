import math

import numpy as np
import pytest

from csigen.core import ArrayGeometry
from csigen.metrics import array_correlation, delay_spread_taps, root_music_azimuth
from csigen.synth import (
    SPEED_OF_LIGHT,
    ArrayPlacement,
    Obstacle,
    Reflector,
    Scenario,
    _fractional_delay_pulses,
    grid_positions,
    synth_dataset,
)

GEO = ArrayGeometry(1, 2, 4, 48, 1.272e9, 50e6)


def scenario(noise_power=0.0, reflectors=(), geometry=GEO, seed=0, bounds=((-60.0, 0.5), (60.0, 120.0))):
    return Scenario(
        geometry=geometry,
        placements=(ArrayPlacement(np.array([0.0, 0.0]), math.pi / 2),),  # faces +y
        reflectors=tuple(reflectors),
        noise_power=noise_power,
        seed=seed,
        bounds=bounds,
    )


def synth_at(sc, position):
    """The CSI tensor ``synth_dataset`` writes for one position."""
    return synth_dataset(sc, np.asarray(position, dtype=float)[None, :]).csi[0]


def array_power(csi, b=0):
    """Brute-force received power of array ``b``: sum of |h|^2 over its slice."""
    return sum(abs(complex(h)) ** 2 for h in csi[b].ravel())


def delay_taps(distance):
    """Recorded path delay in taps: the flight time plus the default offset."""
    return distance / SPEED_OF_LIGHT * GEO.bandwidth + Scenario.delay_offset_taps


class TestCsiFromPaths:
    """Paths into the tap-delay line: the pulse kernel directly, and
    ``synth_dataset`` on scenes whose paths the test lays out."""

    def test_integer_delay_lands_on_single_tap(self):
        pulses = _fractional_delay_pulses(np.array([0.0, 3.0, 40.0]), GEO.num_taps)
        for k, pulse in zip((0, 3, 40), pulses):
            assert np.argmax(pulse**2) == k
            spread, _ = delay_spread_taps(pulse)
            assert spread < 0.05

    def test_fractional_delay_peak_and_leakage(self):
        (pulse,) = _fractional_delay_pulses(np.array([8.4]), GEO.num_taps)
        profile = pulse**2
        assert np.argmax(profile) == 8
        assert profile.sum() == pytest.approx(1.0, rel=1e-12)  # unit-energy pulse
        spread, _ = delay_spread_taps(pulse)
        assert spread < 1.0

    def test_two_equal_paths_delay_spread(self):
        pulses = _fractional_delay_pulses(np.array([1.0, 3.0]), GEO.num_taps)
        spread, _ = delay_spread_taps(pulses.sum(axis=0))
        assert spread == pytest.approx(1.0, rel=0.02)

    def test_doubling_gains_quadruples_power(self):
        # the transmitter stands behind the array, so only the two
        # reflector bounces arrive
        def bounces(scale):
            reflectors = [Reflector(np.array([10.0, 10.0]), scale * (0.8 + 0.1j)),
                          Reflector(np.array([-20.0, 15.0]), scale * (0.3 - 0.2j))]
            sc = scenario(reflectors=reflectors, bounds=((-60.0, -10.0), (60.0, 120.0)))
            return array_power(synth_at(sc, [3.0, -4.0]))

        base = bounces(1.0)
        assert base > 0.0
        assert bounces(2.0) == pytest.approx(4.0 * base, rel=1e-9)

    def test_delay_outside_window_rejected(self):
        # 250 m of flight is 41.7 taps, past the 47-tap window with the offset
        sc = scenario(bounds=((-60.0, 0.5), (60.0, 300.0)))
        with pytest.raises(ValueError, match="observation window"):
            synth_dataset(sc, np.array([[0.0, 20.0], [0.0, 250.0]]))

    def test_path_behind_array_rejected(self):
        # the array takes no arrival from behind its broadside half-plane
        sc = scenario(bounds=((-60.0, -60.0), (60.0, 120.0)))
        dataset = synth_dataset(sc, np.array([[0.0, -7.0], [30.0, -1.0], [0.0, 7.0]]))
        assert np.all(dataset.csi[:2] == 0.0)
        assert array_power(dataset.csi[2]) > 0.0


class TestSynthCsi:
    """The CSI ``synth_dataset`` writes at single positions, against the
    scene geometry."""

    def test_broadside_ue_gives_zero_azimuth(self):
        csi = synth_at(scenario(), [0.0, 7.0])  # straight ahead of the array
        estimate = root_music_azimuth(array_correlation(csi, 0))
        assert abs(estimate) < 1e-3

    def test_azimuth_sweep_recovery(self):
        sc = scenario()
        placement = sc.placements[0]
        distance = 20.0
        sweep = np.radians(np.arange(-60, 61, 10))
        # scene azimuth is measured counterclockwise from broadside (+y)
        positions = distance * np.stack([-np.sin(sweep), np.cos(sweep)], axis=1)
        dataset = synth_dataset(sc, positions)
        estimates = root_music_azimuth(array_correlation(dataset.csi, 0))
        for position, estimate in zip(positions, estimates):
            offset = position - placement.position
            geometric = math.atan2(offset[1], offset[0]) - placement.broadside
            assert math.degrees(abs(estimate - geometric)) < 0.5

    def test_rank_one_spatial_structure(self):
        corr = array_correlation(synth_at(scenario(), [4.0, 11.0]), 0)
        eigenvalues = np.linalg.eigvalsh(corr.entries)
        assert eigenvalues[-1] / eigenvalues.sum() > 0.999

    def test_ue_on_array_rejected(self):
        sc = Scenario(
            geometry=GEO,
            placements=(ArrayPlacement(np.array([0.0, 1.0]), math.pi / 2),),
            bounds=((-10.0, 0.0), (10.0, 20.0)),
        )
        with pytest.raises(ValueError):
            synth_dataset(sc, np.array([[0.0, 1.0]]))

    def test_position_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(scenario(), np.array([[0.0, 121.0]]))

    def test_reflector_adds_second_path(self):
        reflector = np.array([10.0, 10.0])
        ue = np.array([-5.0, 8.0])
        los = synth_at(scenario(), ue)
        both = synth_at(scenario(reflectors=[Reflector(reflector, 0.9)]), ue)
        # what the reflector adds peaks at the tap nearest the bounce delay,
        # after the line of sight
        los_taps = delay_taps(np.linalg.norm(ue))
        bounce_taps = delay_taps(np.linalg.norm(ue - reflector) + np.linalg.norm(reflector))
        los_peak = np.argmax(np.sum(np.abs(los[0]) ** 2, axis=(0, 1)))
        bounce_peak = np.argmax(np.sum(np.abs(both[0] - los[0]) ** 2, axis=(0, 1)))
        assert los_peak == round(los_taps)
        assert bounce_peak == round(bounce_taps)
        assert bounce_peak > los_peak

    def test_free_space_amplitude_decay(self):
        dataset = synth_dataset(scenario(), np.array([[0.0, 5.0], [0.0, 50.0]]))
        near, far = (array_power(csi) for csi in dataset.csi)
        assert far / near == pytest.approx(1.0 / 100.0, rel=1e-12)


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
        powers = [array_power(csi) for csi in dataset.csi]
        assert all(p1 >= p2 for p1, p2 in zip(powers, powers[1:]))

    def test_inverse_square_law(self):
        sc = scenario()
        dataset = synth_dataset(sc, np.array([[0.0, 5.0], [0.0, 10.0]]))
        p_near = array_power(dataset.csi[0])
        p_far = array_power(dataset.csi[1])
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
    WALL = (np.array([-5.0, 5.0]), np.array([5.0, 5.0]))

    def wall_scenario(self, transmission=0.0, reflectors=(Reflector(np.array([30.0, 10.0]), 1.0),)):
        return Scenario(
            geometry=GEO,
            placements=(ArrayPlacement(np.array([0.0, 0.0]), math.pi / 2),),
            reflectors=reflectors,
            obstacles=(Obstacle(*self.WALL, transmission),),
            bounds=((-60.0, 0.5), (60.0, 120.0)),
        )

    def test_blocked_los_is_attenuated(self):
        los_only = self.wall_scenario(transmission=0.1, reflectors=())
        # the LoS from (0, 10) crosses the wall, the one from (20, 10) does not
        blocked, clear = synth_dataset(los_only, np.array([[0.0, 10.0], [20.0, 10.0]])).csi
        ratio = array_power(blocked) / array_power(clear)
        assert ratio < 1.0
        assert ratio == pytest.approx((0.1 * np.linalg.norm([20.0, 10.0]) / 10.0) ** 2, rel=1e-9)

    def test_shadow_changes_power_and_spread(self):
        # behind the wall only the single echo path remains: lower power,
        # and a near-single-path delay spread instead of the two-path mix
        shadowed, lit = synth_dataset(
            self.wall_scenario(0.0), np.array([[0.0, 10.0], [-20.0, 10.0]])
        ).csi
        ds_shadow, _ = delay_spread_taps(shadowed[0, 0, 0])
        ds_lit, _ = delay_spread_taps(lit[0, 0, 0])
        assert ds_shadow < 1.0 < ds_lit
        assert array_power(shadowed) < array_power(lit)

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
