"""Deterministic geometric-multipath CSI generator.

Produces desk-scale datasets with known ground truth (angles, delays,
powers) from a small scene description: antenna arrays at fixed poses, a
line-of-sight path per array, and one single-bounce path per point
reflector.  Each path deposits a Hann-windowed fractional-delay sinc pulse
into the tap-delay line; element phases follow the half-wavelength UPA
steering model with phase increment pi*sin(azimuth) along columns and
pi*sin(elevation) along rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from csigen.core import ArrayGeometry, CsiDataset

SPEED_OF_LIGHT = 299_792_458.0

# Half-width of the Hann-windowed sinc pulse used for fractional delays, in
# taps.  Keeps spectral leakage bounded so delay-spread targets are testable.
SINC_HALF_WIDTH = 8


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: arrival angles at the array, absolute delay,
    and complex gain (amplitude decay already applied)."""

    azimuth: float  # rad, relative to array broadside, |azimuth| < pi/2
    elevation: float  # rad
    delay: float  # seconds
    gain: complex

    def __post_init__(self) -> None:
        if not abs(self.azimuth) < math.pi / 2:
            raise ValueError(
                f"path azimuth {self.azimuth:.4f} rad outside the front hemisphere"
            )
        if self.delay < 0:
            raise ValueError(f"path delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class ArrayPlacement:
    """Pose of one UPA: position in the plane and broadside direction."""

    position: np.ndarray  # (2,) meters
    broadside: float  # rad, direction the array faces

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=np.float64)
        if position.shape != (2,):
            raise ValueError("array position must be a 2-vector")
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class Reflector:
    """Point scatterer producing one single-bounce path per array."""

    position: np.ndarray  # (2,) meters
    gain: complex  # bounce coefficient (dimensionless)

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=np.float64)
        if position.shape != (2,):
            raise ValueError("reflector position must be a 2-vector")
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class Obstacle:
    """Wall segment; every propagation leg crossing it is attenuated by the
    transmission coefficient (shadowing, like a metal container in the
    scene)."""

    start: np.ndarray  # (2,) meters
    end: np.ndarray  # (2,) meters
    transmission: float = 0.0

    def __post_init__(self) -> None:
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        if start.shape != (2,) or end.shape != (2,):
            raise ValueError("obstacle endpoints must be 2-vectors")
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError("transmission must lie in [0, 1]")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def blocks(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Proper segment intersection test between leg a-b and the wall."""

        def orient(p, q, r):
            return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

        d1 = orient(self.start, self.end, a)
        d2 = orient(self.start, self.end, b)
        d3 = orient(a, b, self.start)
        d4 = orient(a, b, self.end)
        return (d1 * d2 < 0.0) and (d3 * d4 < 0.0)


@dataclass(frozen=True)
class Scenario:
    """Complete scene: geometry, array poses, reflectors, noise level, seed,
    and the bounding region transmit positions must stay inside.

    ``delay_offset_taps`` shifts all recorded path delays by a fixed amount,
    mimicking a channel sounder's alignment margin; it keeps the leading
    tail of short-delay pulses inside the observation window so received
    power follows the free-space law exactly.
    """

    geometry: ArrayGeometry
    placements: tuple[ArrayPlacement, ...]
    reflectors: tuple[Reflector, ...] = ()
    obstacles: tuple[Obstacle, ...] = ()
    noise_power: float = 0.0
    seed: int = 0
    bounds: tuple[tuple[float, float], tuple[float, float]] = ((-100.0, -100.0), (100.0, 100.0))
    delay_offset_taps: float = 8.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", tuple(self.placements))
        object.__setattr__(self, "reflectors", tuple(self.reflectors))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if len(self.placements) != self.geometry.num_arrays:
            raise ValueError(
                f"need {self.geometry.num_arrays} array placements, got {len(self.placements)}"
            )
        if self.noise_power < 0:
            raise ValueError("noise_power must be >= 0")
        if self.delay_offset_taps < 0:
            raise ValueError("delay_offset_taps must be >= 0")
        (x0, y0), (x1, y1) = self.bounds
        if not (x0 < x1 and y0 < y1):
            raise ValueError("bounds must span a non-empty region")

    def contains(self, point: np.ndarray) -> bool:
        (x0, y0), (x1, y1) = self.bounds
        return bool(x0 <= point[0] <= x1 and y0 <= point[1] <= y1)


def _arrival(placement: ArrayPlacement, source: np.ndarray) -> tuple[float, float]:
    """(azimuth, distance) of a wave arriving at the array from ``source``.

    Azimuth is the signed angle from the broadside direction,
    counterclockwise positive.
    """
    offset = np.asarray(source, dtype=np.float64) - placement.position
    distance = float(np.hypot(offset[0], offset[1]))
    if distance < 1e-9:
        raise ValueError("source position coincides with an array position")
    heading = math.atan2(offset[1], offset[0])
    azimuth = heading - placement.broadside
    # wrap to (-pi, pi]
    azimuth = (azimuth + math.pi) % (2 * math.pi) - math.pi
    return azimuth, distance


def enumerate_paths(scenario: Scenario, b: int, ue_position: np.ndarray) -> list[PathSpec]:
    """All propagation paths from the transmitter to array ``b``: the LoS
    path plus one bounce per reflector.

    Gains carry free-space 1/distance amplitude decay and the carrier phase
    exp(-2j pi f_c tau) of the physical delay; the recorded PathSpec delay
    additionally includes the scenario's fixed alignment offset.
    """
    placement = scenario.placements[b]
    carrier = scenario.geometry.carrier_frequency
    offset = scenario.delay_offset_taps * scenario.geometry.tap_duration
    ue = np.asarray(ue_position, dtype=np.float64)

    def shadowing(a: np.ndarray, b_point: np.ndarray) -> float:
        factor = 1.0
        for obstacle in scenario.obstacles:
            if obstacle.blocks(a, b_point):
                factor *= obstacle.transmission
        return factor

    paths = []
    azimuth, distance = _arrival(placement, ue)
    flight = distance / SPEED_OF_LIGHT
    # arrivals outside the front hemisphere fall into the array's back null
    # and contribute nothing
    if abs(azimuth) < math.pi / 2:
        gain = (
            shadowing(ue, placement.position) * np.exp(-2j * math.pi * carrier * flight) / distance
        )
        paths.append(PathSpec(azimuth, 0.0, flight + offset, complex(gain)))

    for reflector in scenario.reflectors:
        hop = float(np.linalg.norm(ue - reflector.position))
        if hop < 1e-9:
            raise ValueError("transmitter position coincides with a reflector")
        azimuth, to_array = _arrival(placement, reflector.position)
        if abs(azimuth) >= math.pi / 2:
            continue
        total = hop + to_array
        flight = total / SPEED_OF_LIGHT
        blocked = shadowing(ue, reflector.position) * shadowing(
            reflector.position, placement.position
        )
        gain = blocked * reflector.gain * np.exp(-2j * math.pi * carrier * flight) / total
        paths.append(PathSpec(azimuth, 0.0, flight + offset, complex(gain)))
    return paths


def _fractional_delay_pulse(delay_taps: float, num_taps: int) -> tuple[int, np.ndarray]:
    """Unit-energy windowed-sinc pulse centered at a fractional tap position.

    The pulse is normalized over its full +-SINC_HALF_WIDTH extent (so its
    energy is independent of the fractional delay), then clipped to the
    observed tap range [0, num_taps).
    """
    full = np.arange(
        math.ceil(delay_taps - SINC_HALF_WIDTH),
        math.floor(delay_taps + SINC_HALF_WIDTH) + 1,
        dtype=np.float64,
    )
    u = full - delay_taps
    window = 0.5 * (1.0 + np.cos(math.pi * u / SINC_HALF_WIDTH))
    pulse = np.sinc(u) * window
    pulse /= math.sqrt(float(np.sum(pulse**2)))
    keep = (full >= 0) & (full <= num_taps - 1)
    if not np.any(keep):
        return 0, np.zeros(0)
    return int(full[keep][0]), pulse[keep]


def csi_from_paths(geometry: ArrayGeometry, paths_per_array: list[list[PathSpec]]) -> np.ndarray:
    """Assemble a noiseless CSI tensor of shape ``geometry.csi_shape`` from
    explicit per-array path lists."""
    if len(paths_per_array) != geometry.num_arrays:
        raise ValueError("need one path list per array")
    values = np.zeros(geometry.csi_shape, dtype=np.complex128)
    rows = np.arange(geometry.rows_per_array)[:, None]
    cols = np.arange(geometry.cols_per_array)[None, :]
    for b, paths in enumerate(paths_per_array):
        for path in paths:
            if path.delay >= (geometry.num_taps - 1) * geometry.tap_duration:
                raise ValueError(
                    f"path delay {path.delay:.3e} s falls outside the "
                    f"{geometry.num_taps}-tap observation window"
                )
            steer = np.exp(
                1j * math.pi * (cols * math.sin(path.azimuth) + rows * math.sin(path.elevation))
            )
            start, pulse = _fractional_delay_pulse(
                path.delay * geometry.bandwidth, geometry.num_taps
            )
            values[b, :, :, start : start + pulse.size] += (
                path.gain * steer[:, :, None] * pulse[None, None, :]
            )
    return values


def synth_csi(
    scenario: Scenario,
    ue_position: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """CSI tensor at one transmitter position, shape ``geometry.csi_shape``.

    Deterministic given (scenario, position, rng state); with rng=None a
    fresh generator seeded from the scenario seed is used.
    """
    ue_position = np.asarray(ue_position, dtype=np.float64)
    if not scenario.contains(ue_position):
        raise ValueError(
            f"position {ue_position} outside the scenario bounds {scenario.bounds}"
        )
    paths = [enumerate_paths(scenario, b, ue_position) for b in range(scenario.geometry.num_arrays)]
    clean = csi_from_paths(scenario.geometry, paths)
    if scenario.noise_power == 0.0:
        return clean
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    sigma = math.sqrt(scenario.noise_power / 2.0)
    shape = scenario.geometry.csi_shape
    noise = sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return clean + noise


def synth_dataset(scenario: Scenario, positions: np.ndarray) -> CsiDataset:
    """Map :func:`synth_csi` over positions with independent per-position
    noise streams derived from (scenario seed, index); bit-reproducible for
    a fixed scenario."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    shape = scenario.geometry.csi_shape
    csi = np.zeros((len(positions),) + shape, dtype=np.complex128)
    for index, position in enumerate(positions):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=scenario.seed, spawn_key=(index,))
        )
        csi[index] = synth_csi(scenario, position, rng=rng)
    return CsiDataset(scenario.geometry, csi, positions)


def grid_positions(
    bounds: tuple[tuple[float, float], tuple[float, float]],
    nx: int,
    ny: int,
) -> np.ndarray:
    """Row-major serpentine grid over a bounding box, ordered like a survey
    trajectory (left-to-right, then right-to-left on the next row)."""
    (x0, y0), (x1, y1) = bounds
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    rows = []
    for j, y in enumerate(ys):
        ordered = xs if j % 2 == 0 else xs[::-1]
        rows.append(np.stack([ordered, np.full(nx, y)], axis=1))
    return np.concatenate(rows, axis=0)


def scenario_from_config(entries: dict[str, str]) -> Scenario:
    """Build a scenario from flat key-value text config entries.

    Recognized keys (see README for the file syntax):

    - geometry.num_arrays / rows / cols / num_taps
    - geometry.carrier_hz / bandwidth_hz
    - array.<i>.position (``x,y``), array.<i>.broadside_deg
    - reflector.<i>.position, reflector.<i>.gain, reflector.<i>.phase_deg
    - noise_power, seed, bounds (``x0,y0,x1,y1``)

    Unknown keys are a hard error.
    """
    from csigen.config import ConfigError, pop_float, pop_int, pop_vector

    remaining = dict(entries)
    geometry = ArrayGeometry(
        num_arrays=pop_int(remaining, "geometry.num_arrays"),
        rows_per_array=pop_int(remaining, "geometry.rows"),
        cols_per_array=pop_int(remaining, "geometry.cols"),
        num_taps=pop_int(remaining, "geometry.num_taps"),
        carrier_frequency=pop_float(remaining, "geometry.carrier_hz"),
        bandwidth=pop_float(remaining, "geometry.bandwidth_hz"),
    )
    placements = []
    for b in range(geometry.num_arrays):
        position = pop_vector(remaining, f"array.{b}.position", 2)
        broadside = pop_float(remaining, f"array.{b}.broadside_deg")
        placements.append(ArrayPlacement(position, math.radians(broadside)))
    reflectors = []
    index = 0
    while f"reflector.{index}.position" in remaining:
        position = pop_vector(remaining, f"reflector.{index}.position", 2)
        magnitude = pop_float(remaining, f"reflector.{index}.gain")
        phase = pop_float(remaining, f"reflector.{index}.phase_deg", default=0.0)
        reflectors.append(Reflector(position, magnitude * np.exp(1j * math.radians(phase))))
        index += 1
    obstacles = []
    index = 0
    while f"obstacle.{index}.start" in remaining:
        start = pop_vector(remaining, f"obstacle.{index}.start", 2)
        end = pop_vector(remaining, f"obstacle.{index}.end", 2)
        transmission = pop_float(remaining, f"obstacle.{index}.transmission", default=0.0)
        obstacles.append(Obstacle(start, end, transmission))
        index += 1
    noise_power = pop_float(remaining, "noise_power", default=0.0)
    seed = pop_int(remaining, "seed", default=0)
    delay_offset = pop_float(remaining, "delay_offset_taps", default=8.0)
    box = pop_vector(remaining, "bounds", 4)
    bounds = ((box[0], box[1]), (box[2], box[3]))
    if remaining:
        raise ConfigError(f"unknown scenario config keys: {sorted(remaining)}")
    return Scenario(
        geometry=geometry,
        placements=tuple(placements),
        reflectors=tuple(reflectors),
        obstacles=tuple(obstacles),
        noise_power=noise_power,
        seed=seed,
        bounds=bounds,
        delay_offset_taps=delay_offset,
    )
