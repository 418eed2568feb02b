"""Atomic writes: an exception in the middle of a write leaves the previous
file intact and no temporary file behind."""

import builtins

import numpy as np
import pytest

import csigen.atomic
from csigen.atomic import atomic_write
from csigen.cli import EXIT_DATA, main
from csigen.core import ArrayGeometry, CsiDataset
from csigen.dataio import save_dataset
from csigen.gan.train import TrainingConfig, save_checkpoint, train

GEO = ArrayGeometry(1, 2, 2, 8, 1.272e9, 50e6)


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
