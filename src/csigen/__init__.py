"""csigen: generative massive-MIMO channel modeling toolkit.

Learns a position-conditioned WGAN-GP channel model from CSI datasets,
provides a phase-aligned linear-interpolation baseline, and evaluates both
against reference CSI via power, delay-spread, angle-of-arrival and
Jensen-Shannon-distance statistics.
"""

from csigen.core import (
    ArrayGeometry,
    CsiDataset,
    freq_to_time,
)

__all__ = [
    "ArrayGeometry",
    "CsiDataset",
    "freq_to_time",
]

__version__ = "0.1.0"
