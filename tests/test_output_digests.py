"""The bit-identity recipe: ``tools/output_digests.py`` prints the same
listing in two fresh processes, and no run directory holds the same
checkpoint twice."""

import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest_listing(out: Path) -> list[tuple[str, str]]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), str(ROOT / "src"), str(out)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return [tuple(line.split("  ", 1)) for line in result.stdout.splitlines()]


def test_listing_repeats_and_holds_no_duplicate_checkpoint(tmp_path):
    first = digest_listing(tmp_path / "first")
    assert first and first == digest_listing(tmp_path / "second")
    checkpoints = defaultdict(list)
    for digest, path in first:
        if path.endswith(".wgck"):
            checkpoints[str(Path(path).parent), digest].append(path)
    duplicates = [paths for paths in checkpoints.values() if len(paths) > 1]
    assert not duplicates, duplicates
