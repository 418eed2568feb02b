"""End-to-end runs of every command, exit codes, and report round trips."""

import collections
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import csigen
import csigen.cli
import csigen.metrics
from csigen import config as cfg
from csigen.cli import (
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_EMPTY_SPLIT,
    EXIT_OK,
    EXIT_USAGE,
    _training_config_from_file,
    main,
)
from csigen.core import ArrayGeometry, CsiDataset
from csigen.dataio import load_dataset, save_dataset
from csigen.gan.train import TrainingConfig, load_checkpoint

SCENARIO = """
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
obstacle.0.start = 2.5, 4.0
obstacle.0.end = 9.5, 4.0
obstacle.0.transmission = 0.03
noise_power = 1e-7
seed = 7
delay_offset_taps = 4.0
bounds = 0.0, 1.5, 12.0, 10.5
"""

TRAIN_CONFIG = """
generator_steps = 3
seed = 0
batch_size = 8
n_critic = 2
noise_dim = 8
hidden_scale = 0.02
learning_rate = 1e-4
"""


def cli_process(*argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so that a traceback or a numpy
    warning reaches stderr as a user sees it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(csigen.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "csigen.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENARIO)
    return path


@pytest.fixture()
def small_dataset(tmp_path, scenario_file):
    out = tmp_path / "data.csit"
    code = main(
        ["synth", "--scenario", str(scenario_file), "--positions", "grid:8x6", "--out", str(out)]
    )
    assert code == EXIT_OK
    return out


class TestSynth:
    def test_grid_synthesis_loads_back(self, tmp_path, scenario_file):
        out = tmp_path / "ds.csit"
        code = main(
            ["synth", "--scenario", str(scenario_file), "--positions", "grid:10x10",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        dataset = load_dataset(out)
        assert len(dataset) == 100
        assert dataset.geometry.num_taps == 16

    def test_same_invocation_byte_identical(self, tmp_path, scenario_file):
        first = tmp_path / "a.csit"
        second = tmp_path / "b.csit"
        for out in (first, second):
            assert main(
                ["synth", "--scenario", str(scenario_file), "--positions", "grid:5x4",
                 "--out", str(out)]
            ) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_scenario_key_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCENARIO + "\nmystery_knob = 3\n")
        code = main(
            ["synth", "--scenario", str(bad), "--positions", "grid:3x3",
             "--out", str(tmp_path / "x.csit")]
        )
        assert code == EXIT_USAGE
        assert "mystery_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["scenario", "jitter"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, scenario_file, capsys, where):
        scenario, extra = scenario_file, []
        if where == "scenario":
            scenario = tmp_path / "negative.cfg"
            scenario.write_text(SCENARIO.replace("seed = 7", "seed = -5"))
        else:
            extra = ["--jitter", "0.01", "--jitter-seed", "-1"]
        out = tmp_path / "x.csit"
        code = main(
            ["synth", "--scenario", str(scenario), "--positions", "grid:3x3", "--out", str(out)]
            + extra
        )
        assert code == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jitter", ["inf", "1e308", "-1", "nan", "-0.5", "abc"])
    def test_bad_jitter_is_a_usage_error(self, tmp_path, scenario_file, capsys, jitter):
        out = tmp_path / "x.csit"
        code = main(
            ["synth", "--scenario", str(scenario_file), "--positions", "grid:3x3",
             "--jitter", jitter, "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "--jitter" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["grid:-3x4", "grid:0x4", "grid:4x0"])
    def test_grid_counts_below_one_are_usage_errors(self, tmp_path, scenario_file, capsys, grid):
        out = tmp_path / "x.csit"
        code = main(["synth", "--scenario", str(scenario_file), "--positions", grid,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_positions_from_file(self, tmp_path, scenario_file):
        pos = tmp_path / "pos.csv"
        pos.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        out = tmp_path / "ds.csit"
        assert main(
            ["synth", "--scenario", str(scenario_file), "--positions", f"file:{pos}",
             "--out", str(out)]
        ) == EXIT_OK
        assert np.allclose(load_dataset(out).positions, [[1, 2], [3, 4]])


class TestSplit:
    def test_counts_printed(self, tmp_path, small_dataset, capsys):
        code = main(
            ["split", "--dataset", str(small_dataset), "--hole-center", "100,100",
             "--out-train", str(tmp_path / "train.csit"),
             "--out-test", str(tmp_path / "test.csit")]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "train: 12" in out
        assert "test:  12" in out

    def test_disjointness_across_files(self, tmp_path, small_dataset):
        main(
            ["split", "--dataset", str(small_dataset), "--hole-center", "6,6",
             "--out-train", str(tmp_path / "train.csit"),
             "--out-test", str(tmp_path / "test.csit")]
        )
        train_set = load_dataset(tmp_path / "train.csit")
        test_set = load_dataset(tmp_path / "test.csit")
        train_keys = {tuple(p) for p in train_set.positions}
        test_keys = {tuple(p) for p in test_set.positions}
        assert not train_keys & test_keys

    def test_hole_covering_everything(self, tmp_path, small_dataset, capsys):
        code = main(
            ["split", "--dataset", str(small_dataset), "--hole-center", "6,6",
             "--hole-diameter", "1000",
             "--out-train", str(tmp_path / "train.csit"),
             "--out-test", str(tmp_path / "test.csit")]
        )
        assert code == EXIT_EMPTY_SPLIT
        assert capsys.readouterr().err == (
            "empty split: 0 train and 12 test datapoints; nothing written\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csit", "data.csit.meta.json", "scene.cfg"]

    @pytest.mark.parametrize("argv", [
        ["--hole-center", "abc,1"],
        ["--hole-center", "1,2,3"],
        ["--hole-center", "nan,1"],
        ["--hole-center", "6,6", "--stride", "0"],
        ["--hole-center", "6,6", "--test-offset", "2"],
        ["--hole-center", "6,6", "--hole-diameter", "-1"],
        ["--hole-center", "6,6", "--hole-diameter", "nan"],
    ], ids=["center-text", "center-3d", "center-nan", "stride-0", "offsets-equal",
            "diameter-negative", "diameter-nan"])
    def test_bad_arguments_are_config_errors(self, tmp_path, small_dataset, capsys, argv):
        code = main(
            ["split", "--dataset", str(small_dataset), *argv,
             "--out-train", str(tmp_path / "train.csit"),
             "--out-test", str(tmp_path / "test.csit")]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "train.csit").exists()

    def test_missing_dataset(self, tmp_path):
        code = main(
            ["split", "--dataset", str(tmp_path / "nope.csit"), "--hole-center", "0,0",
             "--out-train", str(tmp_path / "a.csit"), "--out-test", str(tmp_path / "b.csit")]
        )
        assert code == EXIT_DATA


class TestTrain:
    def test_short_run_writes_artifacts(self, tmp_path, small_dataset):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        run_dir = tmp_path / "run"
        code = main(
            ["train", "--train", str(small_dataset), "--config", str(config),
             "--out", str(run_dir)]
        )
        assert code == EXIT_OK
        assert (run_dir / "checkpoint_final.wgck").exists()
        assert (run_dir / "resolved_config.cfg").exists()
        with open(run_dir / "training_log.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "critic_loss", "gen_loss", "real_score", "fake_score"]
        assert len(rows) == 4  # header + 3 steps
        # log parses back losslessly
        assert all(math.isfinite(float(v)) for v in rows[1][1:])

    def test_same_seed_bitwise_identical(self, tmp_path, small_dataset):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        runs = []
        for name in ("run_a", "run_b"):
            run_dir = tmp_path / name
            assert main(
                ["train", "--train", str(small_dataset), "--config", str(config),
                 "--out", str(run_dir)]
            ) == EXIT_OK
            runs.append(run_dir)
        assert (runs[0] / "checkpoint_final.wgck").read_bytes() == (
            runs[1] / "checkpoint_final.wgck"
        ).read_bytes()
        assert (runs[0] / "training_log.csv").read_text() == (
            runs[1] / "training_log.csv"
        ).read_text()

    def test_resume_continues_step_counter(self, tmp_path, small_dataset):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        first = tmp_path / "first"
        assert main(
            ["train", "--train", str(small_dataset), "--config", str(config),
             "--out", str(first)]
        ) == EXIT_OK
        second = tmp_path / "second"
        assert main(
            ["train", "--train", str(small_dataset),
             "--resume", str(first / "checkpoint_final.wgck"), "--out", str(second)]
        ) == EXIT_OK
        checkpoint = load_checkpoint(second / "checkpoint_final.wgck")
        assert checkpoint.step == 6

    def test_resume_in_place_extends_the_log(self, tmp_path, small_dataset):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        run = tmp_path / "run"
        argv = ["train", "--train", str(small_dataset), "--out", str(run)]
        assert main(argv + ["--config", str(config)]) == EXIT_OK
        first = (run / "training_log.csv").read_bytes()
        assert main(argv + ["--resume", str(run / "checkpoint_final.wgck")]) == EXIT_OK
        log = (run / "training_log.csv").read_bytes()
        assert log.startswith(first)
        rows = list(csv.reader(log.decode().splitlines()))
        assert rows[0][0] == "step" and [row[0] for row in rows[1:]] == [str(k) for k in range(1, 7)]

    def test_resume_with_config_is_a_config_error(self, tmp_path, small_dataset, capsys):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        first = tmp_path / "first"
        assert main(
            ["train", "--train", str(small_dataset), "--config", str(config),
             "--out", str(first)]
        ) == EXIT_OK
        capsys.readouterr()
        second = tmp_path / "second"
        code = main(
            ["train", "--train", str(small_dataset), "--config", str(config),
             "--resume", str(first / "checkpoint_final.wgck"), "--out", str(second)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--resume" in err
        assert not second.exists()

    @pytest.mark.parametrize("extra", ["", "critic_hidden_scale = 0.03\n"],
                             ids=["critic-scale-unset", "critic-scale-set"])
    def test_resolved_config_loads_back(self, tmp_path, small_dataset, extra):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG + extra)
        expected = _training_config_from_file(config)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(
            ["train", "--train", str(small_dataset), "--config", str(config),
             "--out", str(first)]
        ) == EXIT_OK
        assert main(
            ["train", "--train", str(small_dataset),
             "--resume", str(first / "checkpoint_final.wgck"), "--out", str(second)]
        ) == EXIT_OK
        for run_dir in (first, second):
            assert _training_config_from_file(run_dir / "resolved_config.cfg") == expected
        resolved = (second / "resolved_config.cfg").read_text()
        assert f"# resumed_from = {first / 'checkpoint_final.wgck'}" in resolved
        # and a fresh run from the resolved config writes the same checkpoint
        again = tmp_path / "again"
        assert main(
            ["train", "--train", str(small_dataset),
             "--config", str(first / "resolved_config.cfg"), "--out", str(again)]
        ) == EXIT_OK
        assert (again / "checkpoint_final.wgck").read_bytes() == (
            first / "checkpoint_final.wgck"
        ).read_bytes()

    def test_unknown_config_key(self, tmp_path, small_dataset, capsys):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG + "\nwarp_factor = 9\n")
        code = main(
            ["train", "--train", str(small_dataset), "--config", str(config),
             "--out", str(tmp_path / "run")]
        )
        assert code == EXIT_USAGE
        assert "warp_factor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", dataclasses.fields(TrainingConfig), ids=lambda field: field.name
    )
    def test_config_file_sets_one_field(self, tmp_path, field):
        default = field.default
        if default is dataclasses.MISSING:
            value = 7  # generator_steps, the one required key
        elif default is None:
            value = 0.5
        elif isinstance(default, bool):
            value = not default
        elif isinstance(default, int):
            value = default + 3
        else:
            # inside every float field's range: (0, 1) stays in [0, 1)
            value = (default + 0.5) / 2.0
        values = {"generator_steps": 1, field.name: value}
        path = tmp_path / "train.cfg"
        path.write_text("".join(f"{key} = {val!r}\n" for key, val in values.items()))
        config = _training_config_from_file(path)
        assert config == TrainingConfig(**values)
        assert getattr(config, field.name) == value

    @pytest.mark.parametrize("key, value", [
        (key, value)
        for key, values in {
            "learning_rate": ["0", "-1e-4", "nan", "inf"],
            "adam_beta1": ["-0.1", "1.0", "nan"],
            "adam_beta2": ["1.0", "2.3", "nan"],
            "adam_eps": ["0", "nan", "inf"],
            "gp_lambda": ["-1", "nan", "inf"],
            "checkpoint_every": ["-1"],
        }.items()
        for value in values
    ])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, small_dataset, capsys, key, value):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG.replace(f"{key} = 1e-4\n", "") + f"{key} = {value}\n")
        code = main(
            ["train", "--train", str(small_dataset), "--config", str(config),
             "--out", str(tmp_path / "run")]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "run" / "checkpoint_diverged.wgck").exists()

    def test_negative_seed_is_a_config_error(self, tmp_path, small_dataset, capsys):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG.replace("seed = 0", "seed = -1"))
        run_dir = tmp_path / "run"
        code = main(
            ["train", "--train", str(small_dataset), "--config", str(config), "--out", str(run_dir)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err
        assert not (run_dir / "resolved_config.cfg").exists()

    @pytest.mark.parametrize("key", ["noise_dim", "batch_size"])
    def test_a_size_no_memory_holds_is_a_data_error(self, tmp_path, small_dataset, capsys, key):
        # 1e15 elements: no 64-bit process can map them, so nothing is allocated
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG.replace(f"{key} = 8", f"{key} = {10**15}"))
        run_dir = tmp_path / "run"
        code = main(
            ["train", "--train", str(small_dataset), "--config", str(config), "--out", str(run_dir)]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: Unable to allocate")
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize("value", ["learning_rate = 10", "learning_rate = 1e300",
                                       "adam_eps = 1e-300", "gp_lambda = 1e38"])
    def test_a_valid_config_that_overflows_is_a_numerical_abort(
        self, tmp_path, small_dataset, capsys, value
    ):
        config = tmp_path / "train.cfg"
        text = TRAIN_CONFIG.replace("generator_steps = 3", "generator_steps = 2")
        config.write_text(text.replace("learning_rate = 1e-4\n", "") + value + "\n")
        run_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(
                ["train", "--train", str(small_dataset), "--config", str(config),
                 "--out", str(run_dir)]
            )
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("numerical abort:")
        assert sorted(path.name for path in run_dir.iterdir()) == [
            "checkpoint_diverged.wgck", "resolved_config.cfg"]
        assert load_checkpoint(run_dir / "checkpoint_diverged.wgck").step >= 1

    @pytest.mark.parametrize("field", ["hidden_scale", "critic_hidden_scale"])
    def test_nan_scale_is_a_config_error(self, tmp_path, small_dataset, capsys, field):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG.replace("hidden_scale = 0.02\n", f"{field} = nan\n"))
        code = main(
            ["train", "--train", str(small_dataset), "--config", str(config),
             "--out", str(tmp_path / "run")]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err


@pytest.fixture()
def trained_checkpoint(tmp_path, small_dataset):
    config = tmp_path / "train.cfg"
    config.write_text(TRAIN_CONFIG)
    run_dir = tmp_path / "run"
    assert main(
        ["train", "--train", str(small_dataset), "--config", str(config), "--out", str(run_dir)]
    ) == EXIT_OK
    return run_dir / "checkpoint_final.wgck"


class TestGenerate:
    def test_fixed_and_variable_modes(self, tmp_path, small_dataset, trained_checkpoint):
        for mode in ("fixed", "variable"):
            out = tmp_path / f"gen_{mode}.csit"
            code = main(
                ["generate", "--checkpoint", str(trained_checkpoint),
                 "--positions", f"from-dataset:{small_dataset}",
                 "--mode", mode, "--seed", "3", "--out", str(out)]
            )
            assert code == EXIT_OK
            generated = load_dataset(out)
            assert len(generated) == 48
            assert np.all(np.isfinite(generated.csi.view(np.float64)))

    def test_seeded_reproducibility(self, tmp_path, small_dataset, trained_checkpoint):
        outs = []
        for name in ("g1.csit", "g2.csit"):
            out = tmp_path / name
            main(
                ["generate", "--checkpoint", str(trained_checkpoint),
                 "--positions", f"from-dataset:{small_dataset}",
                 "--mode", "variable", "--seed", "3", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_negative_seed_is_a_usage_error(self, tmp_path, small_dataset, trained_checkpoint, capsys):
        out = tmp_path / "g.csit"
        code = main(
            ["generate", "--checkpoint", str(trained_checkpoint),
             "--positions", f"from-dataset:{small_dataset}", "--seed", "-1", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_checkpoint_magic(self, tmp_path, small_dataset, trained_checkpoint):
        bad = tmp_path / "bad.wgck"
        blob = bytearray(Path(trained_checkpoint).read_bytes())
        blob[:4] = b"ZZZZ"
        bad.write_bytes(bytes(blob))
        code = main(
            ["generate", "--checkpoint", str(bad),
             "--positions", f"from-dataset:{small_dataset}", "--out", str(tmp_path / "g.csit")]
        )
        assert code == EXIT_DATA

    def test_truncated_checkpoint(self, tmp_path, small_dataset, trained_checkpoint, capsys):
        blob = Path(trained_checkpoint).read_bytes()
        bad = tmp_path / "bad.wgck"
        for cut in range(1, 16):
            bad.write_bytes(blob[: len(blob) - cut])
            code = main(
                ["generate", "--checkpoint", str(bad),
                 "--positions", f"from-dataset:{small_dataset}", "--out", str(tmp_path / "g.csit")]
            )
            assert code == EXIT_DATA, cut
            assert capsys.readouterr().err.startswith("data error:"), cut
        assert not (tmp_path / "g.csit").exists()

    def test_corrupt_checkpoint_metadata(self, tmp_path, small_dataset, trained_checkpoint, capsys):
        blob = bytearray(Path(trained_checkpoint).read_bytes())
        blob[11] ^= 0x80  # breaks the UTF-8 of the metadata block
        bad = tmp_path / "bad.wgck"
        bad.write_bytes(bytes(blob))
        code = main(
            ["generate", "--checkpoint", str(bad),
             "--positions", f"from-dataset:{small_dataset}", "--out", str(tmp_path / "g.csit")]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.update(step="4"),
            lambda meta: meta["adam_t"].update(critic="20"),
            lambda meta: meta["adam_t"].update(generator=-2),
            lambda meta: meta["config"].update(noise_dim=13.0),
            lambda meta: meta["config"].update(gp_ds_through_csi="false"),
            lambda meta: meta["config"].update(hidden_scale=True),
            lambda meta: meta["config"].update(noise_dim=meta["config"]["noise_dim"] + 1),
            lambda meta: meta["geometry"].update(num_taps=meta["geometry"]["num_taps"] // 2),
        ],
        ids=["string-step", "string-adam-t", "negative-adam-t", "float-noise-dim",
             "string-gp-ds-through-csi", "bool-hidden-scale", "noise-dim-off-the-table",
             "taps-off-the-table"],
    )
    def test_wrong_typed_metadata_is_a_data_error(
        self, tmp_path, small_dataset, trained_checkpoint, capsys, edit
    ):
        blob = Path(trained_checkpoint).read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 6)
        meta = json.loads(blob[10 : 10 + meta_len])
        edit(meta)
        meta_bytes = json.dumps(meta).encode()
        bad = tmp_path / "bad.wgck"
        bad.write_bytes(blob[:6] + struct.pack("<I", len(meta_bytes)) + meta_bytes
                        + blob[10 + meta_len :])
        generated = tmp_path / "g.csit"
        commands = [
            ["train", "--train", str(small_dataset), "--resume", str(bad),
             "--out", str(tmp_path / "resumed")],
            ["generate", "--checkpoint", str(bad), "--positions", f"from-dataset:{small_dataset}",
             "--out", str(generated)],
        ]
        for argv in commands:
            assert main(argv) == EXIT_DATA, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "Traceback" not in err, argv[0]
        assert not generated.exists()
        assert not (tmp_path / "resumed" / "checkpoint_final.wgck").exists()

    @pytest.mark.parametrize(
        "bad_row", ["3", "1.0,abc", "nan,2.0", "1.0,inf", "-inf 4.0", "1e39,0", "1e150,0",
                    "1e308,1e308"],
        ids=["short-row", "non-numeric", "nan", "inf", "minus-inf", "beyond-float32",
             "far-1e150", "far-1e308"],
    )
    def test_bad_positions_file_is_a_data_error(self, tmp_path, trained_checkpoint, bad_row):
        positions = tmp_path / "bad.csv"
        positions.write_text(f"x,y\n1.0,2.0\n{bad_row}\n5.0,6.0\n")
        out = tmp_path / "g.csit"
        result = cli_process(
            "generate", "--checkpoint", trained_checkpoint,
            "--positions", f"file:{positions}", "--mode", "variable", "--out", out,
        )
        assert result.returncode == EXIT_DATA, result.stderr
        assert result.stderr.startswith("data error:"), result.stderr
        assert f"{positions}:3" in result.stderr
        assert "Traceback" not in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()


class TestInterpolate:
    def test_vertex_idempotence_and_fallback(self, tmp_path, small_dataset):
        out = tmp_path / "interp.csit"
        code = main(
            ["interpolate", "--train", str(small_dataset),
             "--positions", f"from-dataset:{small_dataset}", "--out", str(out)]
        )
        assert code == EXIT_OK
        source = load_dataset(small_dataset)
        interp = load_dataset(out)
        # vertex idempotence up to a global phase, at f32 precision
        from csigen.interp import phase_aligned_nmse

        for index in (0, 17, 40):
            assert phase_aligned_nmse(interp.csi[index], source.csi[index]) < 1e-9

    def test_outside_hull_error_policy(self, tmp_path, small_dataset):
        pos = tmp_path / "far.csv"
        pos.write_text("500,500\n")
        code = main(
            ["interpolate", "--train", str(small_dataset), "--positions", f"file:{pos}",
             "--fallback", "error", "--out", str(tmp_path / "x.csit")]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("far_row", ["1e39,0", "1e150,0", "1e200,0", "-1e308,1e308"])
    def test_far_position_is_a_data_error(self, tmp_path, small_dataset, far_row):
        positions = tmp_path / "far.csv"
        positions.write_text(f"1.0,2.0\n{far_row}\n")
        out = tmp_path / "i.csit"
        result = cli_process(
            "interpolate", "--train", small_dataset, "--positions", f"file:{positions}",
            "--out", out,
        )
        assert result.returncode == EXIT_DATA, result.stderr
        assert result.stderr.startswith(f"data error: {positions}:2:"), result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert not out.exists()


def counted_calls(monkeypatch, modules, *function_names) -> collections.Counter:
    """Count the calls of ``csigen.metrics`` functions, whichever of
    ``modules`` the caller looks them up in."""
    calls = collections.Counter()
    for name in function_names:
        function = getattr(csigen.metrics, name)

        def counted(*args, _name=name, _function=function, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    return calls


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestEvaluate:
    def test_bins_each_pool_once(self, tmp_path, small_dataset, monkeypatch):
        calls = counted_calls(
            monkeypatch, [csigen.cli, csigen.metrics], "pooled_edges", "histogram_density"
        )
        code = main(
            ["evaluate", "--reference", str(small_dataset), "--candidates", str(small_dataset),
             "--gaussian-baseline", "--bins", "20", "--out", str(tmp_path / "report")]
        )
        assert code == EXIT_OK
        # three pools: the reference, the candidate and the Gaussian fit
        assert calls == {"pooled_edges": 1, "histogram_density": 3}

    def test_jsd_matrix_is_the_js_distance_of_the_written_histograms(
        self, tmp_path, small_dataset, trained_checkpoint
    ):
        gen = tmp_path / "gen.csit"
        assert main(
            ["generate", "--checkpoint", str(trained_checkpoint),
             "--positions", f"from-dataset:{small_dataset}", "--out", str(gen)]
        ) == EXIT_OK
        report = tmp_path / "report"
        assert main(
            ["evaluate", "--reference", str(small_dataset), "--candidates", str(gen),
             "--gaussian-baseline", "--bins", "25", "--out", str(report)]
        ) == EXIT_OK
        histograms = read_csv(report / "ds_histograms.csv")
        labels = histograms[0][2:]
        columns = [[float(row[2 + k]) for row in histograms[1:]] for k in range(len(labels))]
        matrix = read_csv(report / "jsd_matrix.csv")
        assert matrix[0] == ["label"] + labels
        assert [row[0] for row in matrix[1:]] == labels

        def kl(p, q):  # nats, over the bins where p > 0
            return sum(pk * math.log(pk / qk) for pk, qk in zip(p, q) if pk > 0.0)

        for i, p in enumerate(columns):
            for j, q in enumerate(columns):
                m = [(pk + qk) / 2.0 for pk, qk in zip(p, q)]
                expected = math.sqrt(max((kl(p, m) + kl(q, m)) / 2.0, 0.0))
                # the file holds 6 decimals
                assert abs(float(matrix[1 + i][1 + j]) - expected) <= 5e-7 + 1e-12, (i, j)
        assert any(float(value) > 0.01 for row in matrix[1:] for value in row[1:])

    def test_a_bin_count_no_memory_holds_is_a_data_error(self, tmp_path, small_dataset, capsys):
        # 1e15 edges: no 64-bit process can map them, so nothing is allocated
        report = tmp_path / "report"
        code = main(
            ["evaluate", "--reference", str(small_dataset), "--candidates", str(small_dataset),
             "--bins", str(10**15), "--out", str(report)]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: Unable to allocate")
        assert not report.exists()

    def test_zero_pooled_power_is_a_data_error(self, tmp_path, small_dataset):
        dataset = load_dataset(small_dataset)
        silent = tmp_path / "silent.csit"
        silent_dataset = CsiDataset(dataset.geometry, np.zeros_like(dataset.csi), dataset.positions)
        save_dataset(silent_dataset, silent)
        report = tmp_path / "report"
        result = cli_process(
            "evaluate", "--reference", silent, "--candidates", silent, "--out", report
        )
        assert result.returncode == EXIT_DATA, result.stderr
        assert result.stderr.startswith("data error:"), result.stderr
        assert "0 dB reference is undefined" in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr
        assert not report.exists()

    def test_full_report(self, tmp_path, small_dataset, trained_checkpoint):
        gen = tmp_path / "gen.csit"
        main(
            ["generate", "--checkpoint", str(trained_checkpoint),
             "--positions", f"from-dataset:{small_dataset}", "--mode", "variable",
             "--seed", "1", "--out", str(gen)]
        )
        report = tmp_path / "report"
        code = main(
            ["evaluate", "--reference", str(small_dataset), "--candidates", str(gen),
             "--gaussian-baseline", "--bins", "40", "--out", str(report)]
        )
        assert code == EXIT_OK
        assert (report / "points_data.csv").exists()
        assert (report / "points_gen.csv").exists()
        assert (report / "resolved_config.cfg").exists()

        with open(report / "jsd_matrix.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["label", "data", "gen", "gaussian"]
        matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

        with open(report / "ds_histograms.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["bin_left_ns", "bin_right_ns", "data", "gen", "gaussian"]
        probs = np.array([[float(v) for v in row[2:]] for row in rows[1:]])
        assert np.allclose(probs.sum(axis=0), 1.0)

        with open(report / "points_data.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x1", "x2", "power_db_b0", "mean_ds_ns_b0", "aoa_rad_b0"]
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        assert values[:, 2].max() <= 0.0 + 1e-12  # 0 dB pooled reference

    @pytest.mark.parametrize("baseline", [True, False], ids=["baseline", "no-baseline"])
    def test_candidate_named_gaussian_is_told_from_the_baseline(
        self, tmp_path, small_dataset, baseline
    ):
        candidate = tmp_path / "gaussian.csit"
        save_dataset(load_dataset(small_dataset), candidate)
        report = tmp_path / "report"
        argv = ["evaluate", "--reference", str(small_dataset), "--candidates", str(candidate),
                "--bins", "20", "--out", str(report)]
        assert main(argv + ["--gaussian-baseline"] * baseline) == EXIT_OK
        datasets = ["data", "gaussian_2"] if baseline else ["data", "gaussian"]
        pools = datasets + ["gaussian"] * baseline
        assert read_csv(report / "jsd_matrix.csv")[0] == ["label"] + pools
        assert read_csv(report / "ds_histograms.csv")[0] == ["bin_left_ns", "bin_right_ns"] + pools
        points = sorted(path.name for path in report.glob("points_*.csv"))
        assert points == [f"points_{label}.csv" for label in datasets]

    def test_reference_vs_itself_zero_diagonal(self, tmp_path, small_dataset):
        copy = tmp_path / "copy.csit"
        save_dataset(load_dataset(small_dataset), copy)
        report = tmp_path / "report"
        code = main(
            ["evaluate", "--reference", str(small_dataset), "--candidates", str(copy),
             "--bins", "30", "--out", str(report)]
        )
        assert code == EXIT_OK
        with open(report / "jsd_matrix.csv") as handle:
            rows = list(csv.reader(handle))
        matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert matrix[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_negative_seed_is_a_usage_error(self, tmp_path, small_dataset, capsys):
        report = tmp_path / "report"
        code = main(
            ["evaluate", "--reference", str(small_dataset), "--candidates", str(small_dataset),
             "--gaussian-baseline", "--seed", "-2", "--out", str(report)]
        )
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("empty_reference", [True, False], ids=["both-empty", "candidate-empty"])
    def test_empty_dataset_is_named(self, tmp_path, small_dataset, capsys, empty_reference):
        dataset = load_dataset(small_dataset)
        empty = tmp_path / "empty.csit"
        save_dataset(CsiDataset(dataset.geometry, dataset.csi[:0], dataset.positions[:0]), empty)
        reference = empty if empty_reference else small_dataset
        report = tmp_path / "report"
        code = main(
            ["evaluate", "--reference", str(reference), "--candidates", str(empty),
             "--out", str(report)]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {empty}: no datapoints to evaluate\n"
        assert not report.exists()

    def test_bad_bin_count(self, tmp_path, small_dataset):
        code = main(
            ["evaluate", "--reference", str(small_dataset), "--candidates", str(small_dataset),
             "--bins", "1", "--out", str(tmp_path / "r")]
        )
        assert code == EXIT_USAGE


def stub_h5py(datasets: dict, attrs: dict) -> types.ModuleType:
    """An h5py stand-in: every ``File`` it opens holds ``datasets`` and ``attrs``."""

    class File(dict):
        def __init__(self, path, mode):
            super().__init__(datasets)
            self.attrs = attrs

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

    module = types.ModuleType("h5py")
    module.File = File
    return module


class TestImportHdf5:
    def test_without_h5py_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "h5py", None)
        code = main(["import-hdf5", "--in", str(tmp_path / "export.h5"), "--n-tap", "8",
                     "--out", str(tmp_path / "imported.csit")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "h5py" in err, err

    @pytest.mark.parametrize("key", [None, "csi_freq", "positions", "carrier_hz", "bandwidth_hz"])
    def test_a_missing_key_is_a_data_error(self, tmp_path, monkeypatch, capsys, key):
        rng = np.random.default_rng(3)
        datasets = {"csi_freq": rng.standard_normal((4, 1, 2, 2, 16, 2)),
                    "positions": rng.uniform(0, 5, (4, 2))}
        attrs = {"carrier_hz": 1.272e9, "bandwidth_hz": 50e6}
        datasets.pop(key, None)
        attrs.pop(key, None)
        monkeypatch.setitem(sys.modules, "h5py", stub_h5py(datasets, attrs))
        out = tmp_path / "imported.csit"
        code = main(["import-hdf5", "--in", str(tmp_path / "export.h5"), "--n-tap", "8",
                     "--out", str(out)])
        if key is None:
            assert code == EXIT_OK
            assert load_dataset(out).geometry.num_taps == 8
            return
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert f"lacks {key}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("positions", np.arange(4.0)),  # 1-D
            ("positions", np.float64(1.0)),  # 0-D
            ("positions", np.ones((4, 1))),  # one coordinate per point
            ("carrier_hz", np.array([1.272e9, 1.3e9])),
            ("carrier_hz", 1.272e9 + 1j),
            ("bandwidth_hz", np.array([[50e6]])),
            ("bandwidth_hz", "50e6"),
        ],
        ids=["positions-1d", "positions-0d", "positions-one-column", "carrier-array",
             "carrier-complex", "bandwidth-array", "bandwidth-text"],
    )
    def test_a_malformed_value_is_a_data_error(self, tmp_path, monkeypatch, capsys, key, value):
        rng = np.random.default_rng(3)
        datasets = {"csi_freq": rng.standard_normal((4, 1, 2, 2, 16, 2)),
                    "positions": rng.uniform(0, 5, (4, 2))}
        attrs = {"carrier_hz": 1.272e9, "bandwidth_hz": 50e6}
        (datasets if key in datasets else attrs)[key] = value
        monkeypatch.setitem(sys.modules, "h5py", stub_h5py(datasets, attrs))
        out = tmp_path / "imported.csit"
        code = main(["import-hdf5", "--in", str(tmp_path / "export.h5"), "--n-tap", "8",
                     "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert key in err
        assert not out.exists()

    def test_round_trip(self, tmp_path):
        h5py = pytest.importorskip("h5py")
        rng = np.random.default_rng(3)
        freq = rng.standard_normal((4, 1, 2, 2, 16, 2)).astype(np.float32)
        h5_path = tmp_path / "export.h5"
        with h5py.File(h5_path, "w") as handle:
            handle.create_dataset("csi_freq", data=freq)
            handle.create_dataset("positions", data=rng.uniform(0, 5, (4, 2)).astype(np.float32))
            handle.attrs["carrier_hz"] = 1.272e9
            handle.attrs["bandwidth_hz"] = 50e6
        out = tmp_path / "imported.csit"
        assert main(["import-hdf5", "--in", str(h5_path), "--n-tap", "8", "--out", str(out)]) == EXIT_OK
        assert load_dataset(out).geometry.num_taps == 8


class TestPathErrors:
    """A path that cannot be read or written is a data error named on
    stderr, not a traceback."""

    @pytest.mark.parametrize("command", ["synth", "split", "train", "evaluate", "generate"])
    def test_unusable_path_exits_3(self, tmp_path, scenario_file, small_dataset, command):
        directory = tmp_path / "a_directory"
        directory.mkdir()
        existing = tmp_path / "a_file"
        existing.write_text("")
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        argv, path = {  # the path each command cannot use
            "synth": (["--scenario", scenario_file, "--positions", "grid:2x2", "--out", directory],
                      directory),
            "split": (["--dataset", small_dataset, "--hole-center", "6,5",
                       "--out-train", directory, "--out-test", tmp_path / "test.csit"], directory),
            "train": (["--train", small_dataset, "--config", config, "--out", existing], existing),
            "evaluate": (["--reference", small_dataset, "--candidates", small_dataset,
                          "--out", existing], existing),
            "generate": (["--checkpoint", directory, "--positions", "grid:2x2",
                          "--out", tmp_path / "g.csit"], directory),
        }[command]
        result = cli_process(command, *argv)
        assert result.returncode == EXIT_DATA, result.stderr
        assert result.stderr.startswith("data error:"), result.stderr
        assert f"'{path}'" in result.stderr
        assert ".tmp" not in result.stderr
        assert "Traceback" not in result.stderr


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_train_without_config(self, tmp_path, small_dataset):
        code = main(["train", "--train", str(small_dataset), "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE


# A 1x2x2x32 scene whose reflector lies off the position grid.
SMALL_SCENE = {
    "geometry.num_arrays": "1",
    "geometry.rows": "2",
    "geometry.cols": "2",
    "geometry.num_taps": "32",
    "geometry.carrier_hz": "1.272e9",
    "geometry.bandwidth_hz": "100e6",
    "array.0.position": "6.0, 0.0",
    "array.0.broadside_deg": "90",
    "reflector.0.position": "0.0, 12.0",
    "reflector.0.gain": "2.5",
    "reflector.0.phase_deg": "40",
    "obstacle.0.start": "2.5, 4.0",
    "obstacle.0.end": "9.5, 4.0",
    "obstacle.0.transmission": "0.5",
    "noise_power": "1e-7",
    "seed": "7",
    "delay_offset_taps": "4.0",
    "bounds": "0.0, 1.5, 12.0, 10.5",
}

# In-range values of each numeric key, bounded so that no draw allocates
# more than a few MB; a vector key's draw replaces one of its components.
_COORDINATE = st.floats(-20.0, 20.0)
IN_RANGE = {
    "geometry.num_arrays": st.integers(1, 2),
    "geometry.rows": st.integers(1, 4),
    "geometry.cols": st.integers(1, 4),
    "geometry.num_taps": st.integers(1, 64),
    "geometry.carrier_hz": st.floats(1e8, 1e10),
    "geometry.bandwidth_hz": st.floats(1e6, 1e9),
    "array.0.position": _COORDINATE,
    "array.0.broadside_deg": st.floats(-360.0, 360.0),
    "reflector.0.position": _COORDINATE,
    "reflector.0.gain": st.floats(0.0, 10.0),
    "reflector.0.phase_deg": st.floats(-360.0, 360.0),
    "obstacle.0.start": _COORDINATE,
    "obstacle.0.end": _COORDINATE,
    "obstacle.0.transmission": st.floats(0.0, 1.0),
    "noise_power": st.floats(0.0, 1e-3),
    "seed": st.integers(0, 2**32),
    "delay_offset_taps": st.floats(0.0, 16.0),
    "bounds": _COORDINATE,
}
NOT_FINITE = ("nan", "inf", "-inf", "not-a-number")


@st.composite
def scene_values(draw, key):
    """The text of ``key``'s value: in range, 0, negative, NaN, +-inf or
    non-numeric."""
    integral = key in ("geometry.num_arrays", "geometry.rows", "geometry.cols",
                       "geometry.num_taps", "seed")
    negative = st.integers(-5, -1) if integral else st.floats(-1e3, -1e-3)
    value = str(draw(st.one_of(
        IN_RANGE[key], st.just(0), negative, st.sampled_from(NOT_FINITE)
    )))
    parts = SMALL_SCENE[key].split(", ")
    if len(parts) == 1:
        return value
    parts[draw(st.integers(0, len(parts) - 1))] = value
    return ", ".join(parts)


@st.composite
def scene_overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(SMALL_SCENE)), min_size=1, max_size=3, unique=True))
    return {key: draw(scene_values(key)) for key in keys}


class TestSynthConfigValues:
    """``csigen synth`` over generated scenario values: a documented exit
    code, never a traceback or a numpy warning, and a non-finite or
    non-numeric value is a config error that names its key."""

    @settings(max_examples=300, deadline=None)
    @given(overrides=scene_overrides(), nx=st.integers(1, 5), ny=st.integers(1, 5))
    def test_synth_exits_with_a_documented_code(self, overrides, nx, ny):
        scene = {**SMALL_SCENE, **overrides}
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            (directory / "scene.cfg").write_text(
                "".join(f"{key} = {value}\n" for key, value in scene.items())
            )
            out = directory / "out.csit"
            argv = ["synth", "--scenario", str(directory / "scene.cfg"),
                    "--positions", f"grid:{nx}x{ny}", "--out", str(out)]
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA)
            if code == EXIT_OK:
                dataset = load_dataset(out)
                assert len(dataset) == nx * ny and np.isfinite(dataset.csi).all()
            else:
                assert sorted(path.name for path in directory.iterdir()) == ["scene.cfg"]
            bad = [key for key, value in overrides.items()
                   if any(word in value for word in NOT_FINITE)]
            if bad:
                assert code == EXIT_USAGE, stderr.getvalue()
                assert stderr.getvalue().startswith("config error:")
            if len(overrides) == 1 and bad:
                assert repr(bad[0]) in stderr.getvalue()


# Coordinates that reach the float32 and float64 edges: 1e39 is beyond
# float32, and from about 1e155 a squared distance overflows float64.
FAR_COORDINATES = (1e30, -1e30, 1e39, 1e150, 1e200, 1e308)
TINY_GEOMETRIES = [ArrayGeometry(1, 1, cols, taps, 1.272e9, 100e6) for cols in (1, 2) for taps in (1, 3)]


@st.composite
def positions_rows(draw):
    """One to three x,y rows: inside the grid:8x6 hull, outside it, or with
    a far coordinate."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["far", "inside", "outside"]))
        if kind == "inside":
            row = [draw(st.floats(0.5, 11.5)), draw(st.floats(2.0, 10.0))]
        elif kind == "outside":
            row = [draw(st.floats(20.0, 60.0)), draw(st.floats(-60.0, 60.0))]
        else:
            row = [draw(st.sampled_from(FAR_COORDINATES)), draw(st.floats(0.0, 12.0))]
            if draw(st.booleans()):
                row.reverse()
        rows.append(row)
    return rows


@st.composite
def tiny_datasets(draw, geometry):
    """One to four datapoints, each with zero power, a single tap or a
    random profile, at one of three power scales."""
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    csi = np.zeros((count,) + geometry.csi_shape, dtype=complex)
    for row in range(count):
        kind = draw(st.sampled_from(["zero", "single-tap", "random"]))
        scale = draw(st.sampled_from([1e-20, 1.0, 1e20]))
        values = scale * (rng.standard_normal(geometry.csi_shape)
                          + 1j * rng.standard_normal(geometry.csi_shape))
        if kind == "single-tap":
            tap = draw(st.integers(0, geometry.num_taps - 1))
            csi[row, ..., tap] = values[..., tap]
        elif kind == "random":
            csi[row] = values
    return CsiDataset(geometry, csi, rng.uniform(0.0, 12.0, size=(count, 2)))


@pytest.fixture(scope="class")
def trained_scene(tmp_path_factory):
    """The grid:8x6 scene of ``small_dataset`` and a checkpoint trained on it."""
    directory = tmp_path_factory.mktemp("scene")
    (directory / "scene.cfg").write_text(SCENARIO)
    (directory / "train.cfg").write_text(TRAIN_CONFIG)
    data = directory / "data.csit"
    assert main(["synth", "--scenario", str(directory / "scene.cfg"),
                 "--positions", "grid:8x6", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--train", str(data), "--config", str(directory / "train.cfg"),
                 "--out", str(directory / "run")]) == EXIT_OK
    return data, directory / "run" / "checkpoint_final.wgck"


class TestSampleInterpolateEvaluateInputs:
    """``generate``, ``interpolate`` and ``evaluate`` over far positions and
    tiny datasets with zero-power or single-tap rows: exit 0 or 3 without a
    traceback or a numpy warning, no output file after a failure, and a
    CSIT written on success loads."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exits_0_or_3_and_writes_only_whole_outputs(self, trained_scene, data):
        scene_data, checkpoint = trained_scene
        command = data.draw(st.sampled_from(["generate", "interpolate", "evaluate"]))
        geometry = data.draw(st.sampled_from(TINY_GEOMETRIES))
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            out = directory / ("report" if command == "evaluate" else "out.csit")
            rows = []
            if command == "evaluate":
                inputs = [directory / f"d{k}.csit" for k in range(data.draw(st.integers(2, 3)))]
                for path in inputs:
                    save_dataset(data.draw(tiny_datasets(geometry)), path)
                argv = ["evaluate", "--reference", inputs[0], "--candidates", *inputs[1:],
                        "--bins", data.draw(st.sampled_from([2, 3, 150])), "--out", out]
                if data.draw(st.booleans()):
                    argv.append("--gaussian-baseline")
            else:
                rows = data.draw(positions_rows())
                positions = directory / "positions.csv"
                positions.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows))
                if command == "generate":
                    argv = ["generate", "--checkpoint", checkpoint,
                            "--mode", data.draw(st.sampled_from(["fixed", "variable"]))]
                else:
                    train = scene_data
                    if data.draw(st.booleans()):
                        train = directory / "train.csit"
                        save_dataset(data.draw(tiny_datasets(geometry)), train)
                    argv = ["interpolate", "--train", train]
                argv += ["--positions", f"file:{positions}", "--out", out]
            before = sorted(directory.iterdir())
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code = main([str(arg) for arg in argv])
            event(f"{command} exits {code}")
            assert code in (EXIT_OK, EXIT_DATA), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
            if code != EXIT_OK:
                assert sorted(directory.iterdir()) == before
            elif command != "evaluate":
                assert len(load_dataset(out)) == len(rows)


# Split option values beyond the in-range ones: negative, huge (to the
# float32 and float64 edges and past them), NaN, +-inf and not a number.
SPLIT_EDGE_FLOATS = ("-1e-3", "-7.5", "1e30", "-1e30", "1e39", "1e150", "-1e200", "1e308",
                     "-1e308", "1e400", "nan", "inf", "-inf", "abc", "", "1.5.2")
SPLIT_EDGE_INTS = ("-1", "-5", str(10**30), "nan", "inf", "1.5", "abc", "")


@st.composite
def split_arguments(draw):
    """``csigen split`` options after ``--dataset``: in-range values, a
    hole centre with an edge component or the wrong arity, and up to one
    other option at an edge value."""
    stride = draw(st.integers(2, 60))
    test_offset = draw(st.integers(0, stride - 1))
    center = [repr(draw(st.floats(-5.0, 20.0))) for _ in range(2)]
    values = {
        "--hole-diameter": repr(draw(st.floats(0.0, 30.0))),
        "--stride": str(stride),
        "--test-offset": str(test_offset),
        "--train-offset": str((test_offset + draw(st.integers(1, stride - 1))) % stride),
    }
    center_kind = draw(st.sampled_from(["in range", "edge", "arity"]))
    if center_kind == "edge":
        center[draw(st.integers(0, 1))] = draw(st.sampled_from(SPLIT_EDGE_FLOATS))
    elif center_kind == "arity":
        center = draw(st.sampled_from([center[:1], center + center[:1]]))
    for option in draw(st.lists(st.sampled_from(sorted(values)), max_size=1)):
        edges = SPLIT_EDGE_FLOATS if option == "--hole-diameter" else SPLIT_EDGE_INTS
        values[option] = draw(st.sampled_from(edges))
    # "--option=value", so that argparse reads "-inf" or "-5,3" as a value
    values["--hole-center"] = ",".join(center)
    return [f"{option}={value}" for option, value in values.items()]


@pytest.fixture(scope="class")
def split_scene(tmp_path_factory):
    """The grid:8x6 scene of ``small_dataset``."""
    directory = tmp_path_factory.mktemp("split")
    (directory / "scene.cfg").write_text(SCENARIO)
    data = directory / "data.csit"
    assert main(["synth", "--scenario", str(directory / "scene.cfg"),
                 "--positions", "grid:8x6", "--out", str(data)]) == EXIT_OK
    return data


class TestSplitArguments:
    """``csigen split`` over generated hole, stride and offset values: exit
    0, 2, 3 or 4 without a traceback or a numpy warning, no output file
    after a non-zero exit, and two loadable, disjoint halves after exit 0."""

    @settings(max_examples=300, deadline=None)
    @given(argv=split_arguments())
    def test_exits_with_a_documented_code(self, split_scene, argv):
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            train, test = directory / "train.csit", directory / "test.csit"
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["split", "--dataset", str(split_scene), *argv,
                             "--out-train", str(train), "--out-test", str(test)])
            event(f"split exits {code}")
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_EMPTY_SPLIT), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
            if code != EXIT_OK:
                assert list(directory.iterdir()) == []
                return
            train_set, test_set = load_dataset(train), load_dataset(test)
            assert len(train_set) > 0 and len(test_set) > 0
            assert not {tuple(p) for p in train_set.positions} & {tuple(p) for p in test_set.positions}


# Training config values from their valid ranges, kept to runs of at most
# two steps at hidden_scale <= 0.1; every float key may take any valid
# value, so a valid config that overflows is among them.
TRAIN_IN_RANGE = {
    "generator_steps": st.integers(1, 2),
    "seed": st.integers(0, 2**80),
    "gp_lambda": st.floats(0.0, 1e308),
    "n_critic": st.integers(1, 3),
    "batch_size": st.integers(1, 16),
    "learning_rate": st.floats(0.0, 1e308, exclude_min=True),
    "adam_beta1": st.floats(0.0, 1.0, exclude_max=True),
    "adam_beta2": st.floats(0.0, 1.0, exclude_max=True),
    "adam_eps": st.floats(0.0, 1e308, exclude_min=True),
    "noise_dim": st.integers(1, 16),
    "hidden_scale": st.floats(0.0, 0.1, exclude_min=True),
    "critic_hidden_scale": st.floats(0.0, 0.1, exclude_min=True),
    "gp_ds_through_csi": st.sampled_from(["true", "false", "yes", "off", "1", "0"]),
    "checkpoint_every": st.integers(0, 3),
}
# sizes of at least 1e15 elements: no 64-bit process can map them, so the
# allocation fails at once
TRAIN_HUGE = {"noise_dim": "1000000000000000", "batch_size": "1000000000000000",
              "hidden_scale": "1e15", "critic_hidden_scale": "1e15"}
TRAIN_BASE = TRAIN_CONFIG.replace("generator_steps = 3", "generator_steps = 2")


@st.composite
def train_overrides(draw):
    """One to three training config keys, each in range, 0, negative, NaN,
    +-inf, non-numeric, a bool word or, for a size, huge."""
    keys = draw(st.lists(st.sampled_from(sorted(TRAIN_IN_RANGE)), min_size=1, max_size=3,
                         unique=True))
    overrides = {}
    for key in keys:
        # in range as often as the other kinds together, so that whole runs
        # are common
        kinds = ["in range"] * 4 + ["zero", "negative", "word"] + (
            ["huge"] if key in TRAIN_HUGE else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "in range":
            overrides[key] = str(draw(TRAIN_IN_RANGE[key]))
        elif kind == "zero":
            overrides[key] = "0"
        elif kind == "negative":
            overrides[key] = draw(st.sampled_from(["-1", "-0.5", "-1e300"]))
        elif kind == "word":
            overrides[key] = draw(st.sampled_from(NOT_FINITE + ("true", "false")))
        else:
            overrides[key] = TRAIN_HUGE[key]
    return overrides


@pytest.fixture(scope="class")
def train_scene(tmp_path_factory):
    """A 16-point grid of the ``small_dataset`` scene."""
    directory = tmp_path_factory.mktemp("train")
    (directory / "scene.cfg").write_text(SCENARIO)
    data = directory / "data.csit"
    assert main(["synth", "--scenario", str(directory / "scene.cfg"),
                 "--positions", "grid:4x4", "--out", str(data)]) == EXIT_OK
    return data


class TestTrainConfigValues:
    """``csigen train`` over generated config values: exit 0, 2, 3 or 5
    without a traceback or a numpy warning, no file after exit 2 or 3, a
    loadable diagnostic checkpoint after exit 5, and a loadable final
    checkpoint and a full log after exit 0."""

    @settings(max_examples=300, deadline=None)
    @given(overrides=train_overrides())
    def test_exits_with_a_documented_code(self, train_scene, overrides):
        entries = cfg.parse_config_text(TRAIN_BASE)
        entries.update(overrides)
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            config, run = directory / "train.cfg", directory / "run"
            config.write_text(cfg.format_config(entries))
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["train", "--train", str(train_scene), "--config", str(config),
                             "--out", str(run)])
            event(f"train exits {code}")
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_DIVERGED), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
            if code in (EXIT_USAGE, EXIT_DATA):
                assert not run.exists() or list(run.iterdir()) == []
            elif code == EXIT_DIVERGED:
                assert load_checkpoint(run / "checkpoint_diverged.wgck").step >= 1
            else:
                steps = int(entries["generator_steps"])
                assert load_checkpoint(run / "checkpoint_final.wgck").step == steps
                assert len(read_csv(run / "training_log.csv")) == 1 + steps
