"""Print the SHA-256 of every file a fixed csigen pipeline writes.

Usage: python3 tools/output_digests.py SRC OUT

Imports csigen from the source tree SRC and runs, inside the new directory
OUT: synth of a seeded random 300-point scene (one 2x4 array, 16 taps);
split of that scene with a 4 m hole at (6, 6); train for 8 steps at batch
64 with a checkpoint every 4 steps, once with ``gp_ds_through_csi`` true
and once false; for each run, train --resume from step 4 into a new
directory and from the final checkpoint in place; train for 4 steps at
``n_critic`` 2, batch 16, ``noise_dim`` 8 and ``gp_lambda`` 0; generate in
both modes; interpolate; and evaluate.  Then it prints one
``sha256  relative-path`` line per file in OUT, sorted by path.  Every
command runs with relative paths from OUT, so the listings of two source
trees compare line by line: equal listings mean byte-identical output.
BLAS threads come from the environment (``OPENBLAS_NUM_THREADS``).
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np

SCENE = """\
geometry.num_arrays = 1
geometry.rows = 2
geometry.cols = 4
geometry.num_taps = 16
geometry.carrier_hz = 1.272e9
geometry.bandwidth_hz = 100e6
array.0.position = 6.0, 0.0
array.0.broadside_deg = 90
reflector.0.position = 0.0, 6.0
reflector.0.gain = 2.5
reflector.1.position = 12.0, 7.0
reflector.1.gain = 2.0
reflector.1.phase_deg = 40
obstacle.0.start = 2.5, 4.0
obstacle.0.end = 9.5, 4.0
obstacle.0.transmission = 0.03
noise_power = 1e-7
seed = 7
delay_offset_taps = 4.0
bounds = 0.0, 1.5, 12.0, 10.5
"""

TRAIN = """\
generator_steps = 8
seed = 0
batch_size = 64
noise_dim = 128
hidden_scale = 0.25
critic_hidden_scale = 1.0
learning_rate = 1e-4
gp_lambda = 1.0
checkpoint_every = 4
gp_ds_through_csi = {}
"""

# another block shape, and the critic loss without interpolates
SMALL_TRAIN = """\
generator_steps = 4
seed = 1
n_critic = 2
batch_size = 16
noise_dim = 8
hidden_scale = 0.25
critic_hidden_scale = 1.0
gp_lambda = 0
"""


def write_positions(path: Path, count: int, seed: int) -> None:
    points = np.random.default_rng(seed).uniform([0.0, 1.5], [12.0, 10.5], size=(count, 2))
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))


def run_pipeline(main) -> None:
    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"csigen {' '.join(argv)} exited {code}")

    Path("scene.cfg").write_text(SCENE)
    write_positions(Path("positions.csv"), 300, seed=0)
    write_positions(Path("queries.csv"), 60, seed=1)
    cli("synth", "--scenario", "scene.cfg", "--positions", "file:positions.csv", "--out", "data.csit")
    cli("split", "--dataset", "data.csit", "--hole-center", "6,6", "--hole-diameter", "4",
        "--out-train", "split_train.csit", "--out-test", "split_test.csit")
    for through_csi in ("true", "false"):
        config, run = f"train_{through_csi}.cfg", f"run_{through_csi}"
        Path(config).write_text(TRAIN.format(through_csi))
        cli("train", "--train", "data.csit", "--config", config, "--out", run)
        cli("train", "--train", "data.csit", "--resume", f"{run}/checkpoint_0000004.wgck",
            "--out", f"resumed_{through_csi}")
        cli("train", "--train", "data.csit", "--resume", f"{run}/checkpoint_final.wgck", "--out", run)
    Path("train_small.cfg").write_text(SMALL_TRAIN)
    cli("train", "--train", "data.csit", "--config", "train_small.cfg", "--out", "run_small")
    for mode in ("fixed", "variable"):
        cli("generate", "--checkpoint", "run_true/checkpoint_final.wgck", "--positions",
            "file:queries.csv", "--mode", mode, "--seed", "1", "--out", f"gan_{mode}.csit")
    cli("interpolate", "--train", "data.csit", "--positions", "file:queries.csv", "--out", "interp.csit")
    cli("evaluate", "--reference", "data.csit", "--candidates", "gan_fixed.csit", "gan_variable.csit",
        "interp.csit", "--gaussian-baseline", "--bins", "20", "--out", "report")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    import csigen.cli

    if not Path(csigen.cli.__file__).resolve().is_relative_to(src):
        print(f"csigen was imported from {csigen.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    os.chdir(out)
    run_pipeline(csigen.cli.main)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
