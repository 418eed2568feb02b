"""Search for the phase-wrap probe seeds used by ``pipeline-dense``.

Builds :func:`oracle.probe_csi` for trial seeds 0..N-1, rounds each tensor
to float32 as a CSIT file stores it, and runs the program's root-MUSIC on
it.  Prints every seed whose estimate raises ``AmbiguousAngleError`` (the
polished root phase lands past +-pi), with the raised sine and the sine a
grid scan of the MUSIC pseudo-spectrum finds, largest overshoot first.

    python3 bench/probe.py [--trials 60000]

The four largest overshoots form ``oracle.PROBE_TRIALS``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=60000)
    args = parser.parse_args()

    import numpy as np

    import oracle
    from csigen.metrics import AmbiguousAngleError, array_correlation, root_music_azimuth

    hits = []
    for trial in range(args.trials):
        csi = oracle.probe_csi(trial).astype(np.complex64).astype(np.complex128)
        try:
            root_music_azimuth(array_correlation(csi, 0))
        except AmbiguousAngleError as exc:
            raised = float(str(exc).rsplit("=", 1)[1])
            grid, denominator, _ = oracle.music_scan(csi[0], 1e-4)
            hits.append((abs(raised) - 1.0, trial, raised, float(grid[np.argmin(denominator)])))
    hits.sort(reverse=True)
    for overshoot, trial, raised, scanned in hits:
        print(f"trial {trial}: raised sin {raised:+.4f}, grid-scan sin {scanned:+.4f}")
    print(f"{len(hits)} of {args.trials} trials hit the phase wrap")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
