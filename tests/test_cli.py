"""End-to-end runs of every command, exit codes, and report round trips."""

import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csigen
from csigen.cli import (
    EXIT_DATA,
    EXIT_EMPTY_SPLIT,
    EXIT_OK,
    EXIT_USAGE,
    _training_config_from_file,
    main,
)
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
        assert "warning" in capsys.readouterr().err.lower()
        assert len(load_dataset(tmp_path / "train.csit")) == 0

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
        "bad_row", ["3", "1.0,abc", "nan,2.0", "1.0,inf", "-inf 4.0"],
        ids=["short-row", "non-numeric", "nan", "inf", "minus-inf"],
    )
    def test_bad_positions_file_is_a_data_error(self, tmp_path, trained_checkpoint, bad_row):
        # a fresh interpreter, so that a traceback or a numpy warning would
        # reach stderr as a user sees it
        positions = tmp_path / "bad.csv"
        positions.write_text(f"x,y\n1.0,2.0\n{bad_row}\n5.0,6.0\n")
        out = tmp_path / "g.csit"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(csigen.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-m", "csigen.cli", "generate", "--checkpoint", str(trained_checkpoint),
             "--positions", f"file:{positions}", "--mode", "variable", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
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


class TestEvaluate:
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

    def test_bad_bin_count(self, tmp_path, small_dataset):
        code = main(
            ["evaluate", "--reference", str(small_dataset), "--candidates", str(small_dataset),
             "--bins", "1", "--out", str(tmp_path / "r")]
        )
        assert code == EXIT_USAGE


class TestImportHdf5:
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


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_train_without_config(self, tmp_path, small_dataset):
        code = main(["train", "--train", str(small_dataset), "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
