"""Command-line entry points wiring the toolkit into a batch workflow:
synthesize datasets, split them, train the generative model, sample it,
interpolate, and emit plot-ready evaluation reports.

Exit codes: 0 success; 2 usage or configuration error; 3 data or file
format error, or a path that cannot be read or written; 4 empty train/test
split; 5 numerical abort during training.
Every command that owns an output directory writes a resolved-config copy
next to its outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys
from pathlib import Path

import numpy as np

from csigen import config as cfg
from csigen.atomic import atomic_write
from csigen.core import CsiDataset, dataset_powers, power_db
from csigen.dataio import (
    CSIT_VALUE_MAX,
    DatasetFormatError,
    EmptySplitError,
    SplitSpec,
    import_hdf5,
    load_dataset,
    save_dataset,
    split_train_test,
)
from csigen.gan.train import (
    LOG_COLUMNS,
    CheckpointFormatError,
    TrainingConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
)
from csigen.gan.sample import sample_fixed, sample_variable
from csigen.interp import build_interpolant, interpolate_dataset
from csigen.metrics import (
    array_correlation,
    dataset_delay_spreads,
    gaussian_fit_samples,
    histogram_density,
    jsd_matrix,
    pooled_edges,
    root_music_azimuth,
)
from csigen.synth import grid_positions, scenario_from_config, synth_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EMPTY_SPLIT = 4
EXIT_DIVERGED = 5

# Config-file parser for each TrainingConfig field type (the annotation
# strings, under postponed evaluation).
_TRAIN_FIELD_PARSERS = {
    "int": cfg.pop_int,
    "float": cfg.pop_float,
    "float | None": cfg.pop_float,
    "bool": cfg.pop_bool,
}


def _seed(text: str) -> int:
    """``--seed`` and ``--jitter-seed`` values: numpy seeds are non-negative."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_positions(spec: str, fallback_bounds=None) -> np.ndarray:
    """Position source: ``grid:NXxNY`` (over the scenario bounds),
    ``file:<csv>`` (rows of x,y), or ``from-dataset:<csit>``."""
    if spec.startswith("grid:"):
        if fallback_bounds is None:
            raise cfg.ConfigError("grid positions need a scenario for their bounds")
        dims = spec[len("grid:") :].lower().split("x")
        if len(dims) != 2:
            raise cfg.ConfigError(f"grid spec must look like grid:50x40, got {spec!r}")
        try:
            nx, ny = int(dims[0]), int(dims[1])
            if nx < 1 or ny < 1:
                raise ValueError("a grid needs at least one point per axis")
        except ValueError as exc:
            raise cfg.ConfigError(f"bad grid dimensions in {spec!r}: {exc}") from exc
        return grid_positions(fallback_bounds, nx, ny)
    if spec.startswith("file:"):
        path = Path(spec[len("file:") :])
        rows = []
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#") or line.lower().startswith("x"):
                    continue
                parts = line.replace(",", " ").split()
                try:
                    row = [float(parts[0]), float(parts[1])]
                except (IndexError, ValueError):
                    raise ValueError(f"{path}:{number}: expected x,y, got {line!r}") from None
                if not all(abs(value) <= CSIT_VALUE_MAX for value in row):  # NaN fails too
                    raise ValueError(f"{path}:{number}: position {line!r} is not a finite float32")
                rows.append(row)
        return np.asarray(rows, dtype=np.float64).reshape(-1, 2)
    if spec.startswith("from-dataset:"):
        return load_dataset(spec[len("from-dataset:") :]).positions.copy()
    raise cfg.ConfigError(
        f"position spec {spec!r} must start with grid:, file: or from-dataset:"
    )


def _write_resolved_config(path: Path, entries: dict, preamble: str = "") -> None:
    with atomic_write(path, "w") as handle:
        handle.write(preamble + cfg.format_config(entries))


def cmd_synth(args) -> int:
    if not 0.0 <= 2.0 * args.jitter < math.inf:  # uniform(-j, j) needs a finite width
        raise cfg.ConfigError(f"--jitter must be finite and >= 0, got {args.jitter!r}")
    entries = cfg.load_config(args.scenario)
    scenario = scenario_from_config(entries)
    positions = _parse_positions(args.positions, fallback_bounds=scenario.bounds)
    if args.jitter > 0.0:
        rng = np.random.default_rng(args.jitter_seed)
        positions = positions + rng.uniform(-args.jitter, args.jitter, size=positions.shape)
        (x0, y0), (x1, y1) = scenario.bounds
        positions = np.clip(positions, [x0, y0], [x1, y1])
    dataset = synth_dataset(scenario, positions)
    save_dataset(
        dataset,
        args.out,
        provenance={
            "command": "synth",
            "scenario": str(args.scenario),
            "positions": args.positions,
            "jitter": args.jitter,
            "jitter_seed": args.jitter_seed,
        },
    )
    print(f"wrote {len(dataset)} datapoints to {args.out}")
    return EXIT_OK


def cmd_split(args) -> int:
    try:
        spec = SplitSpec(
            hole_center=np.array([float(v) for v in args.hole_center.split(",")]),
            stride=args.stride,
            test_offset=args.test_offset,
            train_offset=args.train_offset,
            hole_diameter=args.hole_diameter,
        )
    except ValueError as exc:
        raise cfg.ConfigError(f"bad split arguments: {exc}") from exc
    dataset = load_dataset(args.dataset)
    train_set, test_set = split_train_test(dataset, spec)
    if len(train_set) == 0 or len(test_set) == 0:
        raise EmptySplitError(
            f"{len(train_set)} train and {len(test_set)} test datapoints; nothing written"
        )
    save_dataset(train_set, args.out_train, provenance={"command": "split", "role": "train"})
    save_dataset(test_set, args.out_test, provenance={"command": "split", "role": "test"})
    print(f"train: {len(train_set)} datapoints -> {args.out_train}")
    print(f"test:  {len(test_set)} datapoints -> {args.out_test}")
    return EXIT_OK


def _training_config_from_file(path: str | Path) -> TrainingConfig:
    """One config key per TrainingConfig field, with the field's default;
    a field without a default is a required key."""
    entries = cfg.load_config(path)
    values = {}
    for field in dataclasses.fields(TrainingConfig):
        parse = _TRAIN_FIELD_PARSERS[field.type]
        if field.default is dataclasses.MISSING:
            values[field.name] = parse(entries, field.name)
        else:
            values[field.name] = parse(entries, field.name, default=field.default)
    if entries:
        raise cfg.ConfigError(f"unknown training config keys: {sorted(entries)}")
    try:
        return TrainingConfig(**values)
    except ValueError as exc:
        raise cfg.ConfigError(str(exc)) from exc


def cmd_train(args) -> int:
    if bool(args.resume) == bool(args.config):
        # a resumed run takes its config from the checkpoint
        raise cfg.ConfigError("train takes exactly one of --config and --resume")
    dataset = load_dataset(args.train)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    resume = load_checkpoint(args.resume) if args.resume else None
    config = resume.config if resume is not None else _training_config_from_file(args.config)
    # loads back with --config: an unset critic_hidden_scale (None) is left
    # out, and the checkpoint a run resumed from is a comment
    resolved = {key: value for key, value in config.to_dict().items() if value is not None}
    resumed = f"# resumed_from = {args.resume}\n" if args.resume else ""
    resolved_path = out_dir / "resolved_config.cfg"
    existed = resolved_path.exists()
    _write_resolved_config(resolved_path, resolved, resumed)
    try:
        result = train(dataset, config, out_dir=out_dir, resume=resume)
    except (MemoryError, ValueError):
        # train() raises these before it writes a file: the run leaves none
        if not existed:
            resolved_path.unlink()
        raise
    save_checkpoint(result.checkpoint, out_dir / "checkpoint_final.wgck")
    log_path = out_dir / "training_log.csv"
    # a resume into the same directory extends the log it finds there
    old_log = log_path.read_bytes() if args.resume and log_path.exists() else None
    lines = io.StringIO()
    writer = csv.writer(lines)
    if old_log is None:
        writer.writerow(LOG_COLUMNS)
    writer.writerows([repr(row[column]) for column in LOG_COLUMNS] for row in result.log_rows)
    with atomic_write(log_path) as handle:
        if old_log is not None:
            handle.write(old_log)
        handle.write(lines.getvalue().encode())
    print(f"trained to step {result.checkpoint.step}; checkpoint in {out_dir}")
    return EXIT_OK


def cmd_generate(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    positions = _parse_positions(args.positions)
    if args.mode == "fixed":
        dataset = sample_fixed(checkpoint, positions, seed=args.seed)
    else:
        dataset = sample_variable(checkpoint, positions, seed=args.seed)
    save_dataset(
        dataset,
        args.out,
        provenance={
            "command": "generate",
            "mode": args.mode,
            "seed": args.seed,
            "checkpoint": str(args.checkpoint),
            "generator_step": checkpoint.step,
        },
    )
    print(f"generated {len(dataset)} datapoints ({args.mode} noise) -> {args.out}")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    train_set = load_dataset(args.train)
    positions = _parse_positions(args.positions)
    fallback = "nearest-neighbor" if args.fallback == "nn" else "error"
    interpolant = build_interpolant(train_set, fallback=fallback)
    dataset, fallback_rows = interpolate_dataset(interpolant, positions)
    save_dataset(
        dataset,
        args.out,
        provenance={
            "command": "interpolate",
            "train": str(args.train),
            "fallback": args.fallback,
            "fallback_rows": [int(i) for i in fallback_rows],
        },
    )
    print(f"interpolated {len(dataset)} datapoints ({len(fallback_rows)} fallback) -> {args.out}")
    return EXIT_OK


def _dataset_label(path: str, used: list[str]) -> str:
    """The file stem of ``path``; when ``used`` holds it, the stem with the
    first suffix ``_2``, ``_3``, ... that ``used`` does not hold."""
    base = Path(path).stem
    label = base
    counter = 2
    while label in used:
        label = f"{base}_{counter}"
        counter += 1
    return label


def _write_columns(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A CSV report of equal-length columns, each value written as its ``repr``."""
    table = np.column_stack(columns).tolist()
    with atomic_write(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([map(repr, row) for row in table])


def _write_points_csv(path: Path, dataset: CsiDataset, db: np.ndarray, spreads: np.ndarray) -> None:
    """One row per datapoint, from its per-array powers ``db`` in dB, shape
    (L, B), and its per-antenna delay ``spreads``.  A NaN azimuth marks a
    correlation that root-MUSIC cannot resolve."""
    geometry = dataset.geometry
    num_arrays = geometry.num_arrays
    header = ["x1", "x2"]
    for b in range(num_arrays):
        header += [f"power_db_b{b}", f"mean_ds_ns_b{b}", f"aoa_rad_b{b}"]
    per_array = (len(dataset), num_arrays, geometry.rows_per_array * geometry.cols_per_array)
    mean_ds_ns = spreads.reshape(per_array).mean(axis=-1) * 1e9
    azimuths = [root_music_azimuth(array_correlation(dataset.csi, b)) for b in range(num_arrays)]
    columns = [dataset.positions[:, 0], dataset.positions[:, 1]]
    for b in range(num_arrays):
        columns += [db[:, b], mean_ds_ns[:, b], azimuths[b]]
    _write_columns(path, header, columns)


def cmd_evaluate(args) -> int:
    if args.bins < 2:
        raise cfg.ConfigError("need at least 2 histogram bins")
    labels: list[str] = []
    datasets: list[CsiDataset] = []
    # the moment-fit pool, appended last, keeps the label "gaussian"
    reserved = ["gaussian"] if args.gaussian_baseline else []
    for path in [args.reference, *args.candidates]:
        dataset = load_dataset(path)
        if len(dataset) == 0:
            raise ValueError(f"{path}: no datapoints to evaluate")
        labels.append(_dataset_label(path, labels + reserved))
        datasets.append(dataset)

    # 0 dB reference: maximum per-array power pooled over all datasets
    powers = [dataset_powers(ds) for ds in datasets]
    pooled_max = max(float(p.max()) for p in powers)
    if pooled_max == 0.0:
        raise ValueError("every dataset has zero received power, so the 0 dB reference is undefined")

    spreads = [dataset_delay_spreads(ds) for ds in datasets]
    ds_pools = [s.ravel() * 1e9 for s in spreads]
    if args.gaussian_baseline:
        ds_pools.append(gaussian_fit_samples(ds_pools[0], n=ds_pools[0].size, seed=args.seed))
        labels.append("gaussian")
    # each pool is binned once: both the histograms and the JSD matrix use these densities
    edges = pooled_edges(ds_pools, n_bins=args.bins)
    densities = [histogram_density(pool, edges) for pool in ds_pools]
    matrix = jsd_matrix(densities)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, dataset, power, spread in zip(labels, datasets, powers, spreads):
        _write_points_csv(out_dir / f"points_{label}.csv", dataset, power_db(power, pooled_max), spread)
    _write_columns(
        out_dir / "ds_histograms.csv",
        ["bin_left_ns", "bin_right_ns"] + labels,
        [edges[:-1], edges[1:]] + [d.probabilities for d in densities],
    )
    with atomic_write(out_dir / "jsd_matrix.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label"] + labels)
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [f"{value:.6f}" for value in row])

    _write_resolved_config(
        out_dir / "resolved_config.cfg",
        {
            "reference": args.reference,
            "candidates": ", ".join(args.candidates),
            "bins": args.bins,
            "gaussian_baseline": args.gaussian_baseline,
            "seed": args.seed,
            "power_reference_linear": pooled_max,
        },
    )
    print(f"evaluation report ({len(labels)} datasets) -> {out_dir}")
    print("JSD matrix:")
    for label, row in zip(labels, matrix):
        print(f"  {label:>12s}: " + " ".join(f"{value:.3f}" for value in row))
    return EXIT_OK


def cmd_import_hdf5(args) -> int:
    try:
        dataset = import_hdf5(args.infile, args.out, n_tap=args.n_tap)
    except ImportError as exc:  # the optional h5py is not installed
        raise cfg.ConfigError(str(exc)) from exc
    print(f"converted {len(dataset)} datapoints -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csigen",
        description="Generative massive-MIMO channel model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a CSI dataset from a scenario config")
    p.add_argument("--scenario", required=True)
    p.add_argument("--positions", required=True, help="grid:NXxNY | file:<csv>")
    p.add_argument("--jitter", type=float, default=0.0, help="uniform position jitter in meters")
    p.add_argument("--jitter-seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="split a dataset into train/test")
    p.add_argument("--dataset", required=True)
    p.add_argument("--stride", type=int, default=SplitSpec.stride)
    p.add_argument("--test-offset", type=int, default=SplitSpec.test_offset)
    p.add_argument("--train-offset", type=int, default=SplitSpec.train_offset)
    p.add_argument("--hole-center", required=True, help="x,y in meters")
    p.add_argument("--hole-diameter", type=float, default=SplitSpec.hole_diameter)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train the generative model")
    p.add_argument("--train", required=True)
    p.add_argument("--config", help="key-value training config file")
    p.add_argument("--resume", help="checkpoint to continue from, with its stored config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample the trained generator at positions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--positions", required=True, help="file:<csv> | from-dataset:<csit>")
    p.add_argument("--mode", choices=("fixed", "variable"), default="variable")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("interpolate", help="phase-aligned linear interpolation baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--positions", required=True, help="file:<csv> | from-dataset:<csit>")
    p.add_argument("--fallback", choices=("nn", "error"), default="nn")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("evaluate", help="emit power/delay-spread/angle reports and JSD matrix")
    p.add_argument("--reference", required=True)
    p.add_argument("--candidates", nargs="+", required=True)
    p.add_argument("--gaussian-baseline", action="store_true")
    p.add_argument("--bins", type=int, default=150)
    p.add_argument("--seed", type=_seed, default=0, help="seed for the Gaussian baseline draw")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("import-hdf5", help="convert an HDF5 channel-sounder export to CSIT")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n-tap", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import_hdf5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptySplitError as exc:
        print(f"empty split: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SPLIT
    except TrainingDivergedError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DatasetFormatError, CheckpointFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
