"""Deterministic geometric-multipath CSI generator.

Produces desk-scale datasets with known ground truth (angles, delays,
powers) from a small scene description: antenna arrays at fixed poses, a
line-of-sight path per array, and one single-bounce path per point
reflector.  Each path deposits a Hann-windowed fractional-delay sinc pulse
into the tap-delay line; element phases follow the half-wavelength UPA
steering model with phase increment pi*sin(azimuth) along columns; the rows
of an array share their phases.

:func:`synth_dataset` is the one entry point.  It works on blocks of
``SYNTH_BLOCK_ROWS`` positions, one path at a time, and draws the noise of
row i from the index-i stream of :func:`csigen.core.index_rngs`, so no row
depends on the block size or on the other rows.  The position-dependent
``atan2`` and ``sin`` are scalar :mod:`math` calls, because numpy's array
versions round some inputs differently and every output byte depends on
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from csigen.core import ArrayGeometry, CsiDataset, index_rngs

SPEED_OF_LIGHT = 299_792_458.0

# Half-width of the Hann-windowed sinc pulse used for fractional delays, in
# taps.  Keeps spectral leakage bounded so delay-spread targets are testable.
SINC_HALF_WIDTH = 8

# Positions per block in synth_dataset.  The per-path temporaries of a
# block are (rows, M_r, M_c, N_tap) complex arrays, 0.5 MB for 2x4-element,
# 16-tap arrays at this size; 1024 rows ran no faster and raised the peak
# memory of a 10,000-point synth by 6 MB.  Results do not depend on it.
SYNTH_BLOCK_ROWS = 256


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

    def blocks(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Proper segment intersection test between leg a-b and the wall.

        ``a`` and ``b`` are 2-vectors or broadcastable stacks of them
        (..., 2); the result holds one flag per leg."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)

        def orient(p, q, r):
            return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (q[..., 1] - p[..., 1]) * (
                r[..., 0] - p[..., 0]
            )

        d1 = orient(self.start, self.end, a)
        d2 = orient(self.start, self.end, b)
        d3 = orient(a, b, self.start)
        d4 = orient(a, b, self.end)
        return (d1 * d2 < 0.0) & (d3 * d4 < 0.0)


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

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Whether each row of the float array ``points`` (rows, 2) is inside the bounds."""
        (x0, y0), (x1, y1) = self.bounds
        x, y = points[..., 0], points[..., 1]
        return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)


def _arrivals(placement: ArrayPlacement, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, distance) of waves arriving at the array from each row of
    ``sources`` (rows, 2).

    Azimuth is the signed angle from the broadside direction,
    counterclockwise positive.
    """
    offset = sources - placement.position
    distance = np.hypot(offset[:, 0], offset[:, 1])
    if np.any(distance < 1e-9):
        raise ValueError("source position coincides with an array position")
    # math.atan2 row by row: np.arctan2 rounds differently on some inputs,
    # and the heading feeds every output byte
    heading = np.array([math.atan2(y, x) for x, y in offset.tolist()], dtype=np.float64)
    azimuth = heading - placement.broadside
    # wrap to (-pi, pi]
    azimuth = (azimuth + math.pi) % (2 * math.pi) - math.pi
    return azimuth, distance


def _shadowing(scenario: Scenario, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of the transmission coefficients of the obstacles each leg
    a-b crosses, one factor per leg."""
    factor = np.ones(np.broadcast_shapes(a.shape, b.shape)[:-1])
    for obstacle in scenario.obstacles:
        factor = np.where(obstacle.blocks(a, b), factor * obstacle.transmission, factor)
    return factor


def _textbook_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex a * b by the textbook formula, as numpy multiplies two
    complex scalars; its vectorised array multiply fuses the products and
    rounds some results differently."""
    product = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    product.real = a.real * b.real - a.imag * b.imag
    product.imag = a.real * b.imag + a.imag * b.real
    return product


def _path_rows(
    scenario: Scenario, b: int, ue: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The paths to array ``b`` from every transmitter position in ``ue``
    (rows, 2), one path at a time: the LoS path, then one bounce per
    reflector in front of the array.  Each entry is (azimuth, delay, gain,
    present) with one value per position; ``present`` is False where the
    LoS arrival falls behind the array."""
    placement = scenario.placements[b]
    carrier = scenario.geometry.carrier_frequency
    offset = scenario.delay_offset_taps * scenario.geometry.tap_duration
    rows = len(ue)

    paths = []
    azimuth, distance = _arrivals(placement, ue)
    flight = distance / SPEED_OF_LIGHT
    # arrivals outside the front hemisphere fall into the array's back null
    # and contribute nothing
    gain = (
        _shadowing(scenario, ue, placement.position)
        * np.exp(-2j * math.pi * carrier * flight)
        / distance
    )
    paths.append((azimuth, flight + offset, gain, np.abs(azimuth) < math.pi / 2))

    for reflector in scenario.reflectors:
        leg = ue - reflector.position
        # the dot product np.linalg.norm takes, so hops round as it rounds them
        hop = np.sqrt(np.vecdot(leg, leg))
        if np.any(hop < 1e-9):
            raise ValueError("transmitter position coincides with a reflector")
        bounce = reflector.position[None, :]
        (azimuth,), (to_array,) = _arrivals(placement, bounce)
        if abs(azimuth) >= math.pi / 2:
            continue
        total = hop + to_array
        flight = total / SPEED_OF_LIGHT
        blocked = _shadowing(scenario, ue, reflector.position) * _shadowing(
            scenario, bounce, placement.position
        )
        phase = np.exp(-2j * math.pi * carrier * flight)
        gain = _textbook_product(blocked * reflector.gain, phase) / total
        paths.append((np.full(rows, azimuth), flight + offset, gain, np.ones(rows, dtype=bool)))
    return paths


def _fractional_delay_pulses(delay_taps: np.ndarray, num_taps: int) -> np.ndarray:
    """Unit-energy windowed-sinc pulses centered at fractional tap
    positions, one per row, on the observed taps: shape (rows, num_taps).

    Each pulse is normalized over its full +-SINC_HALF_WIDTH extent (so its
    energy is independent of the fractional delay), then clipped to the
    observed tap range [0, num_taps).
    """
    first = np.ceil(delay_taps - SINC_HALF_WIDTH)
    taps = first[:, None] + np.arange(2 * SINC_HALF_WIDTH + 1, dtype=np.float64)
    # a pulse spans 2 * SINC_HALF_WIDTH + 1 taps at an integer delay, one
    # fewer otherwise; the zero at the end leaves the energy sum unchanged
    support = taps <= np.floor(delay_taps + SINC_HALF_WIDTH)[:, None]
    u = taps - delay_taps[:, None]
    window = 0.5 * (1.0 + np.cos(math.pi * u / SINC_HALF_WIDTH))
    pulse = np.where(support, np.sinc(u) * window, 0.0)
    pulse /= np.sqrt(np.sum(pulse**2, axis=1, keepdims=True))
    pulses = np.zeros((len(delay_taps), num_taps))
    row, slot = np.nonzero(support & (taps >= 0) & (taps <= num_taps - 1))
    pulses[row, taps[row, slot].astype(np.intp)] = pulse[row, slot]
    return pulses


def _deposit(
    values: np.ndarray,
    geometry: ArrayGeometry,
    azimuth: np.ndarray,
    delay: np.ndarray,
    gain: np.ndarray,
) -> None:
    """Add one path per row to ``values`` (rows, M_r, M_c, N_tap), the
    tensors of one array: the gain times the steering phases, shared by the
    array's rows, times the delay pulse."""
    late = delay >= (geometry.num_taps - 1) * geometry.tap_duration
    if np.any(late):
        raise ValueError(
            f"path delay {delay[late][0]:.3e} s falls outside the "
            f"{geometry.num_taps}-tap observation window"
        )
    cols = np.arange(geometry.cols_per_array)
    # math.sin row by row, as the rounding of every output byte was set by it
    sin_azimuth = np.array([math.sin(a) for a in azimuth.tolist()])[:, None, None]
    steer = np.exp(1j * math.pi * (cols * sin_azimuth))
    pulses = _fractional_delay_pulses(delay * geometry.bandwidth, geometry.num_taps)
    values += gain[:, None, None, None] * steer[..., None] * pulses[:, None, None, :]


def _synth_rows(
    scenario: Scenario, positions: np.ndarray, rngs: list[np.random.Generator] | None
) -> np.ndarray:
    """CSI tensors at the positions (rows, 2), the noise of row i drawn
    from ``rngs[i]``; ``rngs`` is None when the scenario is noiseless."""
    outside = ~scenario.contains(positions)
    if np.any(outside):
        raise ValueError(
            f"position {positions[outside][0]} outside the scenario bounds {scenario.bounds}"
        )
    geometry = scenario.geometry
    paths = [_path_rows(scenario, b, positions) for b in range(geometry.num_arrays)]
    values = np.zeros((len(positions),) + geometry.csi_shape, dtype=np.complex128)
    for b, array_paths in enumerate(paths):
        for azimuth, delay, gain, present in array_paths:
            live = np.flatnonzero(present)
            tensors = values[live, b]
            _deposit(tensors, geometry, azimuth[live], delay[live], gain[live])
            values[live, b] = tensors
    if rngs is None:
        return values
    sigma = math.sqrt(scenario.noise_power / 2.0)
    # one call per row draws the real parts, then the imaginary parts
    draws = np.stack([rng.standard_normal((2,) + geometry.csi_shape) for rng in rngs])
    noise = sigma * (draws[:, 0] + 1j * draws[:, 1])
    return values + noise


def synth_dataset(scenario: Scenario, positions: np.ndarray) -> CsiDataset:
    """CSI tensors at the transmitter positions (rows, 2), one row each,
    with independent per-position noise streams from
    :func:`csigen.core.index_rngs` (scenario seed, index); bit-reproducible
    for a fixed scenario.

    Row i carries the noiseless paths at ``positions[i]`` plus complex
    Gaussian noise drawn from the index-i stream.  Positions are worked in
    blocks of ``SYNTH_BLOCK_ROWS``, which bounds the temporaries and leaves
    the output unchanged.  Raises ``ValueError`` for a position outside the
    scenario bounds or on an array or reflector, and for a path that
    arrives after the observation window.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    shape = scenario.geometry.csi_shape
    csi = np.zeros((len(positions),) + shape, dtype=np.complex128)
    for start in range(0, len(positions), SYNTH_BLOCK_ROWS):
        stop = min(start + SYNTH_BLOCK_ROWS, len(positions))
        rngs = None
        if scenario.noise_power != 0.0:
            rngs = index_rngs(scenario.seed, start, stop - start)
        csi[start:stop] = _synth_rows(scenario, positions[start:stop], rngs)
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

    Unknown keys, non-finite numbers and out-of-range values raise
    :class:`~csigen.config.ConfigError`.
    """
    from csigen.config import ConfigError, pop_float, pop_int, pop_vector

    remaining = dict(entries)
    try:
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
            transmission = pop_float(
                remaining, f"obstacle.{index}.transmission", default=Obstacle.transmission
            )
            obstacles.append(Obstacle(start, end, transmission))
            index += 1
        noise_power = pop_float(remaining, "noise_power", default=Scenario.noise_power)
        seed = pop_int(remaining, "seed", default=Scenario.seed)
        if seed < 0:
            raise ConfigError(f"config key 'seed': expected a non-negative integer, got {seed}")
        delay_offset = pop_float(remaining, "delay_offset_taps", default=Scenario.delay_offset_taps)
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
    except ConfigError:
        raise
    except ValueError as exc:  # a scene value out of its range
        raise ConfigError(str(exc)) from exc
