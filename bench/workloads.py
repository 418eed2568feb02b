"""The benchmark's workloads, their measurement loops and their checks.

Every workload drives the program through ``csigen.cli.main`` in-process,
on files the benchmark writes from its seed.  ``run_workload`` returns the
result dictionary that ``run.py`` prints.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import csigen.cli
from csigen.gan.fastgrad import critic_loss_fast, generator_loss_fast
from csigen.gan.train import load_checkpoint, save_checkpoint
from csigen.interp import build_interpolant
from csigen.metrics import AmbiguousAngleError, array_correlation, root_music_azimuth
from csigen.dataio import load_dataset

import oracle
from tracer import Tracer, self_times

SETUP_REPEATS = 5
DS_VARIANCE_FLOOR = 1e-9  # taps^2, documented next to the critic's delay-spread input
JS_DISTANCE_MAX = math.sqrt(math.log(2.0))


@dataclass(frozen=True)
class TrainSpec:
    steps: int  # generator steps per `csigen train` command
    config: str  # training config body, without generator_steps and seed


DESK_CONFIG = (
    "batch_size = 64\nnoise_dim = 128\nhidden_scale = 0.25\ncritic_hidden_scale = 1.0\n"
    "learning_rate = 1e-4\ngp_lambda = 1.0\ngp_ds_through_csi = false\n"
)
TRAIN_DESK = TrainSpec(steps=20, config=DESK_CONFIG + "checkpoint_every = 5\n")
TRAIN_SETUP = TrainSpec(steps=10, config=DESK_CONFIG)  # pipeline-dense set-up checkpoint

DESK_GRID = (50, 40, 0.08)  # nx, ny, jitter (m): the criterion-8 grid, 2000 points
DENSE_GRID = (125, 80, 0.03)  # the criterion-8 box at 5x the density, 10,000 points


@dataclass(frozen=True)
class Workload:
    grid: tuple  # the scene the timed round runs on
    train: TrainSpec
    train_in_round: bool  # train is a timed stage; otherwise set-up trains the checkpoint


WORKLOADS = {
    "train-desk": Workload(DESK_GRID, TRAIN_DESK, True),
    "pipeline-dense": Workload(DENSE_GRID, TRAIN_SETUP, False),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed correctness checks
    info: dict = field(default_factory=dict)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Runner:
    """Runs CLI commands in-process, counts them, and times them."""

    def __init__(self, tally: Tally, tracer: Tracer) -> None:
        self.tally = tally
        self.tracer = tracer
        self.counting = True  # set-up commands are not counted as operations

    def cli(self, *argv) -> tuple[int, float]:
        argv = [str(a) for a in argv]
        sink, errors = io.StringIO(), io.StringIO()
        scope = self.tracer.span("cli." + argv[0]) if self.tracer.enabled else nullcontext()
        start = time.perf_counter()
        with redirect_stdout(sink), redirect_stderr(errors), scope:
            try:
                code = csigen.cli.main(argv)
            except Exception:  # an escaped traceback is a failed command
                traceback.print_exc()
                code = -1
        elapsed = time.perf_counter() - start
        if self.counting:
            self.tally.count(1, int(code != 0))
        else:
            self.tally.check(code == 0, f"set-up command {argv[0]} exited {code}")
        if code != 0:
            print(f"command {' '.join(argv)} exited {code}:\n{errors.getvalue()}", file=sys.stderr)
        return code, elapsed


def _write_scene(work: Path, name: str, grid: tuple, rng: np.random.Generator) -> tuple[Path, Path]:
    scene = work / f"{name}.cfg"
    scene.write_text(oracle.SCENE_TEMPLATE.format(seed=int(rng.integers(1, 2**31))))
    positions = work / f"{name}_positions.csv"
    oracle.write_positions(positions, oracle.jittered_grid(*grid, rng))
    return scene, positions


def _write_train_config(path: Path, spec: TrainSpec, seed: int) -> Path:
    path.write_text(f"generator_steps = {spec.steps}\nseed = {seed}\n{spec.config}")
    return path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _log_rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return [[float(v) for v in row] for row in rows]


# --------------------------------------------------------------------------
# set-up and the timed rounds


def _setup(runner: Runner, workload: Workload, directory: Path, seed: int, stage_s: dict) -> dict:
    """Writes every input from the seed, then runs `synth` and `split` on a
    2000-point desk scene of its own.  That warms the program up before the
    timed rounds.  For pipeline-dense, set-up also trains the checkpoint on
    that split."""
    paths = {"probe": directory / "probe.csit"}
    trials = oracle.PROBE_TRIALS
    oracle.write_csit(paths["probe"], np.column_stack([np.arange(len(trials)), np.ones(len(trials))]),
                      np.concatenate([oracle.probe_csi(t) for t in trials]))
    paths["scene"], paths["positions"] = _write_scene(directory, "scene", workload.grid,
                                                      np.random.default_rng([seed, 0]))
    train_seed = int(np.random.default_rng([seed, 1]).integers(0, 2**31))
    paths["config"] = _write_train_config(directory / "train.cfg", workload.train, train_seed)
    scene, positions = _write_scene(directory, "desk", DESK_GRID, np.random.default_rng([seed, 5]))
    data, train, test = (directory / f"desk{suffix}.csit" for suffix in ("", "_train", "_test"))
    runner.cli("synth", "--scenario", scene, "--positions", f"file:{positions}", "--out", data)
    runner.cli("split", "--dataset", data, "--hole-center", "6,2.5", "--out-train", train, "--out-test", test)
    if not workload.train_in_round:
        paths["run"] = directory / "run"
        _, stage_s["train"] = runner.cli("train", "--train", train, "--config", paths["config"], "--out", paths["run"])
    return paths


def _round_commands(workload: Workload, setup: dict, out: Path, sample_seed: int) -> tuple[dict, dict]:
    files = {name: out / f"{name}.csit" for name in ("data", "train", "test", "gan_var", "gan_fix", "interp")}
    commands = {
        "synth": ("synth", "--scenario", setup["scene"], "--positions", f"file:{setup['positions']}",
                  "--out", files["data"]),
        "split": ("split", "--dataset", files["data"], "--hole-center", "6,2.5",
                  "--out-train", files["train"], "--out-test", files["test"]),
    }
    if workload.train_in_round:
        files["run"] = out / "run"
        commands["train"] = ("train", "--train", files["train"], "--config", setup["config"], "--out", files["run"])
    else:
        files["run"] = setup["run"]
    checkpoint = files["run"] / "checkpoint_final.wgck"
    for mode, name in (("variable", "gan_var"), ("fixed", "gan_fix")):
        commands[f"generate-{mode}"] = ("generate", "--checkpoint", checkpoint, "--positions",
                                        f"from-dataset:{files['test']}", "--mode", mode,
                                        "--seed", sample_seed, "--out", files[name])
    commands["interpolate"] = ("interpolate", "--train", files["train"], "--positions",
                               f"from-dataset:{files['test']}", "--out", files["interp"])
    commands["evaluate"] = ("evaluate", "--reference", files["test"], "--candidates", files["gan_var"],
                            files["interp"], "--gaussian-baseline", "--bins", 150, "--seed", sample_seed,
                            "--out", out / "report")
    return files, commands


def _another_round(rounds: list, elapsed: float, seconds: float, minimum: int) -> bool:
    """Whole rounds only, so that every run attempts the same operations per
    round.  A round starts if it is expected to end within ``seconds``, at
    the median length of the rounds so far."""
    if len(rounds) < minimum:
        return True
    return elapsed + statistics.median(sum(t.values()) for t, _ in rounds) <= seconds


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, trace_path: Path) -> dict:
    workload = WORKLOADS[name]
    tally, tracer = Tally(), Tracer()
    runner = Runner(tally, tracer)
    if trace:
        tracer.install()
        tracer.enabled = True
    sample_seed = int(np.random.default_rng([seed, 3]).integers(0, 2**31))

    setup_s, setup_stage_s = [], []
    runner.counting = False
    for repeat in range(SETUP_REPEATS):
        directory = work / f"setup{repeat}"
        directory.mkdir(parents=True)
        tracer.run = f"setup{repeat}"
        stage_s = {}
        start = time.perf_counter()
        setup = _setup(runner, workload, directory, seed, stage_s)
        setup_s.append(time.perf_counter() - start)
        setup_stage_s.append(stage_s)

    runner.counting = True
    out = work / "round"
    out.mkdir()
    files, commands = _round_commands(workload, setup, out, sample_seed)
    n_points = workload.grid[0] * workload.grid[1]
    n_test = n_points // 4  # every 4th point; the hole is cut from the train side only
    rounds = []  # ({stage: seconds}, traced)
    failed_stage = False
    start = time.perf_counter()
    while _another_round(rounds, time.perf_counter() - start, seconds, 2 if trace else 1):
        traced = trace and len(rounds) % 2 == 1
        tracer.enabled, tracer.run = traced, f"op{len(rounds)}"
        times = {}
        for stage, argv in commands.items():
            code, times[stage] = runner.cli(*argv)
            failed_stage |= code != 0
            if stage == "train":
                finite = 0
                if code == 0:
                    rows = _log_rows(files["run"] / "training_log.csv")
                    finite = sum(all(math.isfinite(v) for v in row) for row in rows)
                tally.count(workload.train.steps, workload.train.steps - finite)
            if stage == "interpolate":
                tally.count(n_test, n_test * int(code != 0))
        tracer.enabled = False
        # the phase-wrap probe: fixed input, outside the timed sequence
        runner.cli("evaluate", "--reference", setup["probe"], "--candidates", setup["probe"], "--out", out / "probe")
        azimuths = _report_columns(out / "probe" / "points_probe.csv")["aoa_rad_b0"]
        tally.count(len(oracle.PROBE_TRIALS), int(np.isnan(azimuths).sum()))
        rounds.append((times, traced))
    if trace:
        tracer.restore()

    tally.check(not failed_stage, "a command failed; outputs not checked")
    checkpoint = files["run"] / "checkpoint_final.wgck"
    if not failed_stage:
        check_train(tally, workload.train, files["run"], files["train"], seed)
        check_pipeline(tally, files, out, checkpoint, setup["probe"], sample_seed, seed)
        tally.info["final_checkpoint_sha256"] = _sha256(checkpoint)

    untraced = [times for times, traced in rounds if not traced]

    def rate(items, stage):  # items over the median seconds of the untraced rounds, else the set-ups
        seconds_taken = [t[stage] for t in untraced if stage in t] or [t[stage] for t in setup_stage_s]
        return items / statistics.median(seconds_taken)

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "pipeline_s": (statistics.median(sum(t.values()) for t in untraced), "s"),
            "train_steps_per_s": (rate(workload.train.steps, "train"), "1/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    else:
        traced_total = statistics.median(sum(t.values()) for t, traced in rounds if traced)
        untraced_total = statistics.median(sum(t.values()) for t in untraced)
        traced_runs = {f"op{i}" for i, (_, t) in enumerate(rounds) if t}
        metrics = layer_metrics(tracer, traced_runs, checkpoint, tally.info)
        metrics["trace.overhead_pct"] = (100.0 * (traced_total / untraced_total - 1.0), "%")
        # command throughputs, from the untraced rounds of this run
        metrics["synth_points_per_s"] = (rate(n_points, "synth"), "1/s")
        metrics["sample_positions_per_s"] = (rate(n_test, "generate-variable"), "1/s")
        metrics["interp_queries_per_s"] = (rate(n_test, "interpolate"), "1/s")
        metrics["eval_points_per_s"] = (rate(3 * n_test, "evaluate"), "1/s")
        spans_per_round = sum(s.run in traced_runs for s in tracer.spans) / len(traced_runs)
        cost = tracer.span_cost()
        tally.info["trace_overhead_estimate"] = (
            f"{spans_per_round:.0f} spans per round x {cost * 1e6:.2f} us per span = "
            f"{100.0 * spans_per_round * cost / untraced_total:.2f}% of an untraced round")
        tracer.dump(trace_path)
    samples = {"setup_s": setup_s, "setup_stage_s": setup_stage_s,
               "stage_s": [t for t, _ in rounds], "traced": [t for _, t in rounds]}
    return finish(tally, metrics, samples)


def check_train(tally: Tally, spec: TrainSpec, run_dir: Path, train_csit: Path, seed: int) -> None:
    rows = _log_rows(run_dir / "training_log.csv")
    tally.check(len(rows) == spec.steps, f"training log holds {len(rows)} rows for {spec.steps} steps")
    tally.check(all(math.isfinite(v) for row in rows for v in row), "non-finite value in training log")

    final = run_dir / "checkpoint_final.wgck"
    resaved = run_dir / "resaved.wgck"
    save_checkpoint(load_checkpoint(final), resaved)
    tally.check(final.read_bytes() == resaved.read_bytes(), "WGCK load-then-save changed the bytes")

    ck = load_checkpoint(final)
    own = oracle.read_wgck(final)
    meta, config = own.meta, own.meta["config"]
    data = oracle.read_csit(train_csit)
    n_ant, n_tap = int(np.prod(data.shape[:3])), data.shape[3]
    tap = 1.0 / data.bandwidth
    rng = np.random.default_rng([seed, 2])
    batch = 32
    idx = rng.integers(0, len(data.positions), size=batch)
    real = oracle.flatten(data.csi[idx])
    pos = oracle.affine(data.positions[idx], meta["condition_scaler"]["min"], meta["condition_scaler"]["max"])
    ds_lo, ds_hi = meta["ds_scaler"]["min"], meta["ds_scaler"]["max"]

    def ds_scaled(flat):
        return oracle.affine(oracle.delay_spread_moments(flat, n_ant, n_tap, DS_VARIANCE_FLOOR) * tap, ds_lo, ds_hi)

    ds_real = ds_scaled(real)
    noise = rng.standard_normal((batch, config["noise_dim"]))
    eps_mix = rng.uniform(size=(batch, 1))

    def critic_loss(gp_lambda=config["gp_lambda"]):
        return critic_loss_fast(ck.critic, ck.generator, ck.geometry, ck.ds_scaler, real, pos, ds_real,
                                noise, eps_mix, gp_lambda, config["gp_ds_through_csi"])

    # Wasserstein part against an independent forward pass
    wloss = critic_loss(0.0)[0]
    fake = oracle.mlp(own.generator, np.concatenate([noise, pos], axis=1))

    def score(flat, ds):
        return oracle.mlp(own.fusion, np.concatenate([oracle.mlp(own.trunk, flat), ds, pos], axis=1))

    own_w = float(score(fake, ds_scaled(fake)).mean() - score(real, ds_real).mean())
    tally.check(abs(wloss - own_w) <= 1e-9 * (1.0 + abs(own_w)),
                f"critic Wasserstein term {wloss!r} != independent forward {own_w!r}")
    tally.info["wasserstein_estimate"] = own_w

    def gen_loss():
        return generator_loss_fast(ck.critic, ck.generator, ck.geometry, ck.ds_scaler, pos, noise)

    _fd_check(tally, "critic_loss_fast", critic_loss, ck.critic.arrays(), rng)
    _fd_check(tally, "generator_loss_fast", gen_loss, ck.generator.arrays(), rng)


def _fd_check(tally: Tally, name: str, loss_fn, arrays: list, rng, samples: int = 6) -> None:
    """Finite differences of the returned loss on sampled weight
    coordinates against the returned gradient.  A ReLU switching inside the
    difference interval breaks central differences, so a coordinate passes
    if it agrees at either of two step sizes.  A ReLU switching at the
    point itself puts a kink there, where the gradient is one of the two
    one-sided derivatives, so the forward and backward differences count
    as estimates too."""
    center, grads = loss_fn()[:2]
    scale = max(float(np.abs(g).max()) for g in grads)
    weight_arrays = [i for i, a in enumerate(arrays) if a.ndim == 2]
    for _ in range(samples):
        a = int(rng.choice(weight_arrays))
        e = int(rng.integers(arrays[a].size))
        analytic = float(grads[a].flat[e])
        estimates = []
        for h in (1e-6, 1e-7):
            original = arrays[a].flat[e]
            arrays[a].flat[e] = original + h
            plus = loss_fn()[0]
            arrays[a].flat[e] = original - h
            minus = loss_fn()[0]
            arrays[a].flat[e] = original
            estimates += [(plus - minus) / (2.0 * h), (plus - center) / h, (center - minus) / h]
        tolerance = 1e-4 * abs(analytic) + 1e-6 * scale
        tally.check(min(abs(fd - analytic) for fd in estimates) <= tolerance,
                    f"{name}: array {a} entry {e} gradient {analytic!r}, finite differences {estimates!r}")


# --------------------------------------------------------------------------
# checks on the round's outputs


def _report_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}


def _close_f32(own: np.ndarray, stored: np.ndarray) -> bool:
    """Equal at float32 precision: within two float32 ulps of each value,
    with a floor at 1e-6 of the largest magnitude for values near zero."""
    own = own.astype(np.complex64).astype(np.complex128)
    gap = np.abs(own - stored)
    return bool(np.all(gap <= 2.4e-7 * np.abs(stored) + 1e-6 * np.abs(stored).max()))


# A correlation whose second eigenvalue exceeds a third of the first has no
# dominant source; there the single-source pseudo-spectrum is nearly flat and
# root-MUSIC's Newton polish can stop anywhere (see CHANGES.md).
SINGLE_SOURCE_RATIO = 1.0 / 3.0


def _azimuth_kind(tally: Tally, label: str, row: int, tensor: np.ndarray, azimuth: float,
                  always: bool = False) -> str:
    """Checks one report azimuth of array 0 against a brute-force MUSIC
    scan and returns what it is:

    - "multi": the correlation has no dominant source (see
      SINGLE_SOURCE_RATIO); not checked unless ``always``;
    - "minimum": a finite azimuth within one scan step of a local minimum
      of the scanned MUSIC denominator, as a polished root-MUSIC estimate
      must be;
    - "wrapped": NaN from the phase-wrap fault.  Root-MUSIC raises
      AmbiguousAngleError for a sine past +-1, and that sine wrapped by one
      turn lies within one scan step of a local minimum.

    Anything else fails the check."""
    step = 1e-3
    grid, denominator, ratio = oracle.music_scan(tensor[0], step)
    if ratio > SINGLE_SOURCE_RATIO and not always:
        return "multi"
    wrapped = math.isnan(azimuth)
    if wrapped:
        try:
            root_music_azimuth(array_correlation(tensor, 0))
            tally.check(False, f"{label} row {row}: NaN in the report, finite azimuth on recomputation")
            return "wrapped"
        except AmbiguousAngleError as exc:
            raised = float(str(exc).rsplit("=", 1)[1])
        tally.check(abs(raised) >= 1.0, f"{label} row {row}: NaN azimuth from sine {raised:+.4f}")
        sine = raised - math.copysign(2.0, raised)
        tolerance = step + 1e-4  # the raised sine carries 4 decimals
    else:
        sine = math.sin(azimuth)
        tolerance = step * (1 + 1e-6)
    gap = min(oracle.circular_sine_gap(sine, s) for s in grid[oracle.local_minima(denominator)])
    tally.check(gap <= tolerance, f"{label} row {row}: azimuth sin {sine:+.5f} (report {azimuth!r}) "
                f"is {gap:.2e} from every scanned minimum")
    return "wrapped" if wrapped else "minimum"


def check_pipeline(tally: Tally, f: dict, out: Path, checkpoint: Path, probe_csit: Path,
                   sample_seed: int, seed: int) -> None:
    rng = np.random.default_rng([seed, 4])
    samples = 12
    data = {name: oracle.read_csit(f[name]) for name in ("test", "gan_var", "gan_fix", "interp")}
    test = data["test"]
    tap_ns = 1e9 / test.bandwidth

    # generate: sampled rows against an independent generator forward
    own = oracle.read_wgck(checkpoint)
    scaler = own.meta["condition_scaler"]
    noise_dim = own.meta["config"]["noise_dim"]
    rows = rng.choice(len(test.positions), size=samples, replace=False)
    conditions = oracle.affine(test.positions[rows], scaler["min"], scaler["max"])
    shared = np.random.default_rng(sample_seed).standard_normal(noise_dim)
    per_index = np.stack([
        np.random.default_rng(np.random.SeedSequence(entropy=sample_seed, spawn_key=(int(i),)))
        .standard_normal(noise_dim) for i in rows
    ])
    for mode, noise in (("gan_var", per_index), ("gan_fix", np.tile(shared, (samples, 1)))):
        flat = oracle.mlp(own.generator, np.concatenate([noise, conditions], axis=1))
        tally.check(np.array_equal(data[mode].positions, test.positions), f"{mode}: positions differ from the test set")
        tally.check(_close_f32(oracle.unflatten(flat, test.shape), data[mode].csi[rows]),
                    f"{mode}: generated rows differ from the independent generator forward")

    # interpolate: vertex reproduction and barycentric consistency
    train_set = load_dataset(f["train"])
    interpolant = build_interpolant(train_set)
    for vertex in rng.choice(len(interpolant.points), size=samples, replace=False):
        query = interpolant.query(interpolant.points[vertex])
        reference = train_set.csi[interpolant.vertex_indices[vertex]].ravel()
        estimate = query.csi.ravel()
        cross = abs(np.vdot(reference, estimate))
        ref_power = float(np.vdot(reference, reference).real)
        nmse = (float(np.vdot(estimate, estimate).real) + ref_power - 2.0 * cross) / ref_power
        tally.check(nmse <= 1e-12, f"interpolation at training vertex {vertex}: NMSE {nmse:.3e}")
    for row in rows:
        x = test.positions[row]
        query = interpolant.query(x)
        tally.check(_close_f32(query.csi[None], data["interp"].csi[row : row + 1]),
                    f"interpolate: output row {row} differs from the interpolant's query")
        if query.fallback_used:
            continue
        corners = interpolant.points[interpolant.triangulation.simplices[query.simplex]]
        weights = np.asarray(query.coords)
        tally.check(np.abs(weights @ corners - x).max() <= 1e-9 and abs(weights.sum() - 1.0) <= 1e-9
                    and weights.min() >= -1e-9, f"interpolate: barycentric weights {weights} do not reproduce {x}")

    # evaluate: delay spreads, azimuths, JSD matrix
    report = out / "report"
    kinds = {"minimum": 0, "wrapped": 0, "multi": 0}
    nan_count = 0
    for name in ("test", "gan_var", "interp"):
        label = f[name].stem  # evaluate labels each dataset by its file stem
        columns = _report_columns(report / f"points_{label}.csv")
        dataset = data[name]
        azimuths = columns["aoa_rad_b0"]
        tally.check(azimuths.size == len(dataset.positions), f"points_{label}.csv row count")
        for row in rows:
            brute = statistics.fmean(oracle.delay_spread_taps_brute(p)
                                     for p in dataset.csi[row, 0].reshape(-1, dataset.shape[3]))
            reported = columns["mean_ds_ns_b0"][row]
            tally.check(abs(reported - brute * tap_ns) <= 1e-9 * abs(brute * tap_ns) + 1e-12,
                        f"points_{label}.csv row {row}: delay spread {reported!r} ns, brute force {brute * tap_ns!r}")
        for row in sorted(set(rows) | set(np.nonzero(np.isnan(azimuths))[0])):
            kinds[_azimuth_kind(tally, label, int(row), dataset.csi[row], float(azimuths[row]))] += 1
        nan_count += int(np.isnan(azimuths).sum())
    tally.info["seeded_nan_azimuths"] = nan_count
    tally.info["azimuths_checked"] = f"{kinds['minimum']} at a scanned minimum, {kinds['wrapped']} wrapped NaN, " \
                                     f"{kinds['multi']} skipped without a dominant source"

    with open(report / "jsd_matrix.csv", newline="") as handle:
        table = list(csv.reader(handle))
    labels = table[0][1:]
    matrix = np.array([[float(v) for v in r[1:]] for r in table[1:]])
    tally.check(labels == [f[n].stem for n in ("test", "gan_var", "interp")] + ["gaussian"], f"JSD labels {labels}")
    tally.check(np.array_equal(matrix, matrix.T), "JSD matrix is not symmetric")
    tally.check(np.all(np.diag(matrix) == 0.0), "JSD matrix diagonal is not zero")
    tally.check(bool(np.all((matrix >= 0.0) & (matrix <= JS_DISTANCE_MAX + 5e-7))), "JSD entry outside [0, sqrt(ln 2)]")
    with open(report / "ds_histograms.csv", newline="") as handle:
        hist_rows = list(csv.reader(handle))[1:]
    edges = np.array([float(r[0]) for r in hist_rows] + [float(hist_rows[-1][1])])
    n_ant, n_tap = int(np.prod(test.shape[:3])), test.shape[3]
    pools = {name: oracle.delay_spread_moments(oracle.flatten(data[name].csi), n_ant, n_tap, 0.0).ravel() * tap_ns
             for name in ("test", "interp")}
    tally.check(all(edges[0] <= p.min() and p.max() <= edges[-1] for p in pools.values()),
                "histogram edges do not span the pooled delay spreads")
    own_jsd = oracle.js_distance(oracle.histogram(pools["test"], edges), oracle.histogram(pools["interp"], edges))
    tally.check(abs(own_jsd - matrix[0, 2]) <= 1e-6, f"JSD(test, interp) {matrix[0, 2]} != recomputed {own_jsd:.7f}")

    # the phase-wrap probe: each NaN must be the known fault
    probe = oracle.read_csit(probe_csit)
    azimuths = _report_columns(out / "probe" / "points_probe.csv")["aoa_rad_b0"]
    for row, azimuth in enumerate(azimuths):
        _azimuth_kind(tally, "probe", row, probe.csi[row], float(azimuth), always=True)


# --------------------------------------------------------------------------
# per-layer metrics from the spans


def _flop_and_adam_bytes(checkpoint: Path) -> tuple[float, float]:
    """GEMM flops (2 per multiply-add) of one generator step as fastgrad runs
    it today, discarded gradients included, and the Adam traffic of one step
    at 7 float64 accesses per parameter (read p, g, m, v; write p, m, v)."""
    meta = oracle.read_wgck(checkpoint).meta
    config = meta["config"]
    macs = {key: sum(o * i for o, i, _ in meta["layers"][key]) for key in meta["layers"]}
    params = {key: sum(o * i + o for o, i, _ in meta["layers"][key]) for key in meta["layers"]}
    g, c = macs["generator"], macs["critic_trunk"] + macs["critic_fusion"]
    batch, n_critic = config["batch_size"], config["n_critic"]
    # critic loss: generator forward; fake and real passes (forward 1, backward 2);
    # penalty pass forward 1, backward 2, JVP 1, JVP backward 2
    critic_call = batch * g + (6 + (6 if config["gp_lambda"] != 0.0 else 0)) * batch * c
    # generator loss: generator forward and backward, critic forward and backward
    generator_call = 3 * batch * g + 3 * batch * c
    flop = 2.0 * (n_critic * critic_call + generator_call)
    adam = 7 * 8 * (n_critic * (params["critic_trunk"] + params["critic_fusion"]) + params["generator"])
    return flop, float(adam)


def layer_metrics(tracer: Tracer, op_runs: set, checkpoint: Path, info: dict) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    by_parent: dict[int, list] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)

    def pick(name):
        measured = [s for s in spans if s.name == name and s.run in op_runs]
        return measured or [s for s in spans if s.name == name and s.run.startswith("setup")]

    def median(values, scale=1.0):
        values = list(values)
        return statistics.median(values) * scale if values else 0.0

    def per_call(name, scale):
        return median((s.duration for s in pick(name)), scale)

    def per_item(name, scale):
        return median((s.duration / s.note for s in pick(name) if s.note), scale)

    # step structure inside each train() span: a step ends with the
    # generator's Adam update, the one that follows generator_loss_fast
    steps, step_self, critic_calls, adam_c, adam_g = [], [], [], [], []
    for train_span in pick("train.train"):
        children = sorted(by_parent.get(train_span.id, []), key=lambda s: s.start)
        critic_calls.append(sum(s.name == "fastgrad.critic_loss_fast" for s in children))
        previous, step_end, inside = None, None, []
        for child in children:
            if child.name == "train.adam_update":
                (adam_g if previous == "fastgrad.generator_loss_fast" else adam_c).append(child.duration)
            inside.append(child)
            if child.name == "train.adam_update" and previous == "fastgrad.generator_loss_fast":
                if step_end is not None:
                    interval = child.end - step_end
                    steps.append(interval)
                    step_self.append(interval - sum(s.duration for s in inside))
                step_end, inside = child.end, []
            previous = child.name
    flop, adam_bytes = _flop_and_adam_bytes(checkpoint)
    step_ms = median(steps, 1e3)
    saves = [s for s in pick("train.save_checkpoint") if s.parent >= 0 and spans[s.parent].name == "train.train"]
    n_steps = max(len(steps) + len(pick("train.train")), 1)
    critic_ms, generator_ms = per_call("fastgrad.critic_loss_fast", 1e3), per_call("fastgrad.generator_loss_fast", 1e3)
    n_critic = oracle.read_wgck(checkpoint).meta["config"]["n_critic"]
    parts = {
        "critic_loss": n_critic * critic_ms,
        "generator_loss": generator_ms,
        "adam": n_critic * median(adam_c, 1e3) + median(adam_g, 1e3),
        "checkpoint_saves": sum(s.duration for s in saves) * 1e3 / n_steps,
        "step_self": median(step_self, 1e3),
    }
    accounting = " + ".join(f"{k} {v:.2f}" for k, v in parts.items())
    info["step_accounting_ms"] = f"{accounting} = {sum(parts.values()):.2f} of a {step_ms:.2f} traced step"

    interpolations = pick("interp.interpolate_dataset")
    blends = [s for s in spans if s.name == "interp.phase_aligned_blend" and s.run in op_runs]
    cli_self = {}
    for span in spans:
        if span.name.startswith("cli.") and span.run in op_runs:
            cli_self[span.run] = cli_self.get(span.run, 0.0) + selfs[span.id]

    return {
        "fastgrad.critic_loss_ms": (critic_ms, "ms"),
        "fastgrad.generator_loss_ms": (generator_ms, "ms"),
        "fastgrad.critic_loss_calls": (median(critic_calls), "count"),
        "train.adam_critic_ms": (median(adam_c, 1e3), "ms"),
        "train.adam_generator_ms": (median(adam_g, 1e3), "ms"),
        "train.adam_bytes_per_step": (adam_bytes, "B"),
        "train.step_ms": (step_ms, "ms"),
        "train.step_self_ms": (median(step_self, 1e3), "ms"),
        "train.flop_per_step": (flop, "flop"),
        "train.gflop_per_s": (flop / step_ms / 1e6 if step_ms else 0.0, "Gflop/s"),
        "train.checkpoint_save_ms": (per_call("train.save_checkpoint", 1e3), "ms"),
        "train.checkpoint_bytes": (float(checkpoint.stat().st_size), "B"),
        "dataio.csit_save_ms": (per_call("dataio.save_dataset", 1e3), "ms"),
        "dataio.csit_load_ms": (per_call("dataio.load_dataset", 1e3), "ms"),
        "dataio.csit_bytes": (median(s.note for s in pick("dataio.save_dataset")), "B"),
        "dataio.split_ms": (per_call("dataio.split_train_test", 1e3), "ms"),
        "synth.point_us": (per_item("synth.synth_dataset", 1e6), "us"),
        "sample.variable_position_us": (per_item("sample.sample_variable", 1e6), "us"),
        "sample.fixed_ms": (per_call("sample.sample_fixed", 1e3), "ms"),
        "interp.build_ms": (per_call("interp.build_interpolant", 1e3), "ms"),
        "interp.query_us": (per_item("interp.interpolate_dataset", 1e6), "us"),
        "interp.blend_iterations": (statistics.fmean(s.note for s in blends) if blends else 0.0, "count"),
        "interp.fallback_queries": (median(s.note - sum(c.name == "interp.phase_aligned_blend"
                                                        for c in by_parent.get(s.id, []))
                                           for s in interpolations), "count"),
        "metrics.array_correlation_us": (per_call("metrics.array_correlation", 1e6), "us"),
        "metrics.root_music_us": (per_call("metrics.root_music_azimuth", 1e6), "us"),
        "metrics.delay_spread_ms": (per_call("metrics.dataset_delay_spreads", 1e3), "ms"),
        "metrics.jsd_matrix_ms": (per_call("metrics.jsd_matrix", 1e3), "ms"),
        "cli.self_ms": (median(cli_self.values(), 1e3), "ms"),
    }


def finish(tally: Tally, metrics: dict, samples: dict) -> dict:
    return {
        "samples": samples,
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
        "problems": tally.problems,
        "info": tally.info,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    work = out_root / f"work-{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(name, seed, seconds, trace, work, out_root / f"trace_{name}_s{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
