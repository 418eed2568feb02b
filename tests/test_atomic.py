"""Atomic writes: an exception in the middle of a write leaves the previous
file intact and no temporary file behind.  Periodic checkpoints, which
``train()`` writes on a worker thread while its next steps run, keep that
promise too, and no worker thread outlives ``train()``."""

import builtins
import dataclasses
import importlib
import math
import threading
import time

import numpy as np
import pytest

import csigen.atomic
from csigen.atomic import atomic_write
from csigen.cli import EXIT_DATA, main
from csigen.core import ArrayGeometry, CsiDataset
from csigen.dataio import save_dataset
from csigen.gan.train import (
    TrainingConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
)

GEO = ArrayGeometry(1, 2, 2, 8, 1.272e9, 50e6)
# the module; the package's name ``train`` is the function
TRAIN_MODULE = importlib.import_module("csigen.gan.train")


class DiskFull(OSError):
    pass


class FailingHandle:
    """A file handle whose first write puts half of its data in the file
    and then raises."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise DiskFull("no space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        self._handle.__enter__()
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)


@pytest.fixture
def fail_writes_to(monkeypatch):
    """fail_writes_to(name): a write through atomic_write to a file called
    ``name`` fails half-way through its first write call."""

    def arm(name):
        def failing_open(path, *args, **kwargs):
            handle = builtins.open(path, *args, **kwargs)
            return FailingHandle(handle) if f".{name}." in str(path) else handle

        monkeypatch.setattr(csigen.atomic, "open", failing_open, raising=False)

    return arm


def snapshot(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def dataset(n, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) + GEO.csi_shape
    csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return CsiDataset(GEO, csi, rng.uniform(0, 10, size=(n, 2)))


def test_atomic_write_replaces_only_on_success(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as handle:
            handle.write(b"partial")
            raise RuntimeError("interrupted")
    assert snapshot(tmp_path) == {"out.bin": b"old"}
    with atomic_write(target, "w") as handle:
        handle.write("new")
    assert snapshot(tmp_path) == {"out.bin": b"new"}


@pytest.mark.parametrize("name", ["ds.csit", "ds.csit.meta.json"])
def test_failed_dataset_save_keeps_the_old_files(tmp_path, fail_writes_to, name):
    path = tmp_path / "ds.csit"
    save_dataset(dataset(4, seed=1), path, provenance={"run": 1})
    before = snapshot(tmp_path)
    fail_writes_to(name)
    with pytest.raises(DiskFull):
        save_dataset(dataset(4, seed=2), path, provenance={"run": 2})
    after = snapshot(tmp_path)
    assert set(after) == set(before)  # no temporary file left
    assert after[name] == before[name]


def test_failed_checkpoint_save_keeps_the_old_file(tmp_path, fail_writes_to):
    config = TrainingConfig(generator_steps=1, batch_size=4, noise_dim=4, hidden_scale=0.01, seed=3)
    checkpoint = train(dataset(12, seed=3), config).checkpoint
    path = tmp_path / "model.wgck"
    save_checkpoint(checkpoint, path)
    before = snapshot(tmp_path)
    checkpoint.step += 1
    fail_writes_to("model.wgck")
    with pytest.raises(DiskFull):
        save_checkpoint(checkpoint, path)
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "name", ["points_reference.csv", "ds_histograms.csv", "jsd_matrix.csv", "resolved_config.cfg"]
)
def test_failed_report_write_keeps_the_old_report(tmp_path, fail_writes_to, name):
    save_dataset(dataset(6, seed=4), tmp_path / "reference.csit")
    save_dataset(dataset(6, seed=5), tmp_path / "candidate.csit")
    report = tmp_path / "report"
    argv = ["evaluate", "--reference", str(tmp_path / "reference.csit"), "--candidates",
            str(tmp_path / "candidate.csit"), "--bins", "8", "--out", str(report)]
    assert main(argv) == 0
    before = snapshot(report)
    fail_writes_to(name)
    assert main(argv[:-3] + ["9", "--out", str(report)]) == EXIT_DATA  # an OSError
    after = snapshot(report)
    assert set(after) == set(before)  # no temporary file left
    assert after[name] == before[name]


def test_failed_train_config_write_keeps_the_old_config(tmp_path, fail_writes_to):
    save_dataset(dataset(12, seed=6), tmp_path / "train.csit")
    config = tmp_path / "train.cfg"
    config.write_text("generator_steps = 1\nbatch_size = 4\nnoise_dim = 4\nhidden_scale = 0.01\n")
    run = tmp_path / "run"
    argv = ["train", "--train", str(tmp_path / "train.csit"), "--out", str(run)]
    assert main(argv + ["--config", str(config)]) == 0
    before = snapshot(run)
    fail_writes_to("resolved_config.cfg")
    assert main(argv + ["--resume", str(run / "checkpoint_final.wgck")]) == EXIT_DATA
    assert snapshot(run) == before  # old config kept, no temporary file left


def test_failed_resume_log_write_keeps_the_old_log(tmp_path, fail_writes_to):
    save_dataset(dataset(12, seed=6), tmp_path / "train.csit")
    config = tmp_path / "train.cfg"
    config.write_text("generator_steps = 2\nbatch_size = 4\nnoise_dim = 4\nhidden_scale = 0.01\n")
    run = tmp_path / "run"
    argv = ["train", "--train", str(tmp_path / "train.csit"), "--out", str(run)]
    assert main(argv + ["--config", str(config)]) == 0
    log = (run / "training_log.csv").read_bytes()
    fail_writes_to("training_log.csv")
    assert main(argv + ["--resume", str(run / "checkpoint_final.wgck")]) == EXIT_DATA
    assert (run / "training_log.csv").read_bytes() == log
    assert not [path.name for path in run.iterdir() if path.name.startswith(".")]


def small_config(**overrides):
    settings = dict(generator_steps=4, checkpoint_every=1, batch_size=4, noise_dim=4,
                    hidden_scale=0.01, seed=3)
    return TrainingConfig(**{**settings, **overrides})


@pytest.fixture
def slow_writes(monkeypatch):
    """Checkpoint writes that take 0.2 s longer; returns the list of
    ("start" | "end", file name) events they record, in order."""
    events = []
    write = TRAIN_MODULE._write_checkpoint

    def slow_write(checkpoint, path):
        events.append(("start", path.name))
        time.sleep(0.2)
        write(checkpoint, path)
        events.append(("end", path.name))

    monkeypatch.setattr(TRAIN_MODULE, "_write_checkpoint", slow_write)
    return events


def test_failed_periodic_checkpoint_write_is_raised_by_train(tmp_path, fail_writes_to):
    data, config = dataset(12, seed=3), small_config()
    train(data, config, out_dir=tmp_path / "clean")
    clean = snapshot(tmp_path / "clean")
    fail_writes_to("checkpoint_0000002.wgck")
    threads = set(threading.enumerate())
    # the write fails on the worker thread; the next save raises its error
    # before it writes step 3
    with pytest.raises(DiskFull):
        train(data, config, out_dir=tmp_path / "run")
    assert set(threading.enumerate()) == threads
    after = snapshot(tmp_path / "run")
    assert set(after) == {"checkpoint_0000001.wgck"}
    for name, content in after.items():
        assert content == clean[name]


def test_failed_periodic_checkpoint_write_exits_3(tmp_path, fail_writes_to, capsys):
    save_dataset(dataset(12, seed=6), tmp_path / "train.csit")
    config = tmp_path / "train.cfg"
    config.write_text("generator_steps = 3\ncheckpoint_every = 1\nbatch_size = 4\n"
                      "noise_dim = 4\nhidden_scale = 0.01\n")
    run = tmp_path / "run"
    # the run's last periodic save: no later save waits for it, train's
    # own wait raises its error
    fail_writes_to("checkpoint_0000002.wgck")
    argv = ["train", "--train", str(tmp_path / "train.csit"), "--config", str(config),
            "--out", str(run)]
    assert main(argv) == EXIT_DATA
    assert "no space left on device" in capsys.readouterr().err
    assert set(snapshot(run)) == {"resolved_config.cfg", "checkpoint_0000001.wgck"}
    assert load_checkpoint(run / "checkpoint_0000001.wgck").step == 1


@pytest.fixture
def diverge_at_step_2(monkeypatch):
    """Training whose generator loss turns NaN at step 2."""
    losses = []
    generator_loss = TRAIN_MODULE.generator_loss_fast

    def nan_at_step_2(*args, **kwargs):
        loss, grads = generator_loss(*args, **kwargs)
        losses.append(loss)
        return (math.nan if len(losses) == 2 else loss), grads

    monkeypatch.setattr(TRAIN_MODULE, "generator_loss_fast", nan_at_step_2)


def test_divergence_during_a_periodic_write_leaves_both_files_whole(
    tmp_path, slow_writes, diverge_at_step_2
):
    threads = set(threading.enumerate())
    with pytest.raises(TrainingDivergedError):
        train(dataset(12, seed=7), small_config(), out_dir=tmp_path)
    assert set(threading.enumerate()) == threads
    # step 1's write ends before the diverged save starts
    assert slow_writes == [
        ("start", "checkpoint_0000001.wgck"), ("end", "checkpoint_0000001.wgck"),
        ("start", "checkpoint_diverged.wgck"), ("end", "checkpoint_diverged.wgck"),
    ]
    assert set(snapshot(tmp_path)) == {"checkpoint_0000001.wgck", "checkpoint_diverged.wgck"}
    assert load_checkpoint(tmp_path / "checkpoint_0000001.wgck").step == 1
    assert load_checkpoint(tmp_path / "checkpoint_diverged.wgck").step == 2


def test_train_writes_every_checkpoint_on_the_writer_thread(
    tmp_path, monkeypatch, diverge_at_step_2
):
    writers = []
    write = TRAIN_MODULE._write_checkpoint

    def recording_write(checkpoint, path):
        writers.append((path.name, threading.current_thread()))
        write(checkpoint, path)

    monkeypatch.setattr(TRAIN_MODULE, "_write_checkpoint", recording_write)
    with pytest.raises(TrainingDivergedError):
        train(dataset(12, seed=7), small_config(), out_dir=tmp_path)
    assert [name for name, _ in writers] == ["checkpoint_0000001.wgck", "checkpoint_diverged.wgck"]
    assert all(thread is not threading.current_thread() for _, thread in writers)


def test_no_writer_thread_outlives_train(tmp_path, slow_writes):
    threads = set(threading.enumerate())
    config = small_config(generator_steps=2)
    train(dataset(12, seed=8), config, out_dir=tmp_path)
    # step 1's write was still running when the steps ended
    assert set(threading.enumerate()) == threads
    assert slow_writes == [("start", "checkpoint_0000001.wgck"), ("end", "checkpoint_0000001.wgck")]
    # the file holds the state a 1-step run returns, under the 2-step config
    one_step = train(dataset(12, seed=8), small_config(generator_steps=1)).checkpoint
    save_checkpoint(dataclasses.replace(one_step, config=config), tmp_path / "one_step.wgck")
    saved = tmp_path / "checkpoint_0000001.wgck"
    assert saved.read_bytes() == (tmp_path / "one_step.wgck").read_bytes()
