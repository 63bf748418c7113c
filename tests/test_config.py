import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freqlab.cli import build_parser, main, resolve_config
from freqlab.config import (
    PRESETS,
    ExperimentConfig,
    apply_overrides,
    config_to_text,
    default_config,
    parse_config_text,
    preset_config,
    validate,
)
from freqlab.errors import ConfigError
from freqlab.nn import HIDDEN_ACTIVATIONS
from freqlab.poisson import METHODS
from freqlab.spectral import DF_DENOMINATORS


class TestParsing:
    def test_roundtrip_through_text(self):
        cfg = preset_config("desk-toy-ce")
        text = config_to_text(cfg)
        parsed = apply_overrides(ExperimentConfig(), parse_config_text(text))
        assert parsed == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rate = 0.1")

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("epochs = twelve")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# a comment\n\nseed = 3  # trailing\n")
        assert values == {"seed": 3}

    def test_hash_inside_a_value_is_kept(self):
        assert parse_config_text("out_dir = runs/#3\n") == {"out_dir": "runs/#3"}
        assert parse_config_text("out_dir = runs/#3\t# trailing\n") == {"out_dir": "runs/#3"}
        assert parse_config_text("  # indented comment\nseed = 4\n") == {"seed": 4}
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("seed = 4#5")  # no whitespace before #: part of the value

    def test_roundtrip_keeps_hash_in_paths(self):
        cfg = dataclasses.replace(preset_config("desk-mnist-pca"), out_dir="runs/#3",
                                  mnist_images="data/#1/images.idx")
        parsed = apply_overrides(ExperimentConfig(), parse_config_text(config_to_text(cfg)))
        assert parsed == cfg

    def test_width_lists_accept_dashes_and_commas(self):
        assert parse_config_text("hidden_widths = 400-400-200-100")["hidden_widths"] == (400, 400, 200, 100)
        assert parse_config_text("hidden_widths = 64,32")["hidden_widths"] == (64, 32)

    @pytest.mark.parametrize("raw", ["-8", "8--4", "8,,4", "8,"])
    def test_width_list_with_empty_part_rejected(self, raw):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text(f"hidden_widths = {raw}")

    def test_bool_forms(self):
        assert parse_config_text("svg = true")["svg"] is True
        assert parse_config_text("svg = 0")["svg"] is False

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ConfigError, match=r"^line 3: key 'lr' is already set on line 1$"):
            parse_config_text("lr = 1\nseed = 2\nlr = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("seed 3")


class TestPresets:
    def test_all_presets_validate(self):
        for name in PRESETS:
            cfg = preset_config(name)
            if cfg.experiment == "mnist_pca" and not cfg.synthetic:
                cfg = dataclasses.replace(cfg, synthetic=True)  # fig3 takes file paths at run time
            validate(cfg)

    def test_paper_scale_fig_settings(self):
        fig2 = preset_config("fig2")
        assert fig2.hidden_widths == (400, 400, 200, 100)
        assert fig2.lr == 2e-4 and fig2.init_std == 0.1 and fig2.samples == 201
        fig3 = preset_config("fig3")
        assert fig3.hidden_widths == (400, 200)
        assert fig3.batch_size == 128 and fig3.lr == 1e-5 and fig3.init_std == 0.2
        assert fig3.samples == 10_000
        fig4 = preset_config("fig4")
        assert fig4.hidden_widths == (4000, 800)
        assert fig4.lr == 5e-6 and fig4.lr_halve_every == 10_000
        assert fig4.beta == 10.0 and fig4.init_std == 0.05
        assert fig4.grid_n == 50 and fig4.record_every == 4
        fig5 = preset_config("fig5")
        assert fig5.hidden_widths == (4000, 500, 400)
        assert fig5.lr == 5e-4 and fig5.init_std == 0.02
        assert fig5.grid_n == 1000 and fig5.beta == 10.0

    def test_desk_presets_shrink_only_run_scale(self):
        desk, paper = preset_config("desk-poisson-dnn"), preset_config("fig4")
        assert desk.beta == paper.beta
        assert len(desk.hidden_widths) == len(paper.hidden_widths)
        assert desk.epochs < paper.epochs
        assert max(desk.hidden_widths) < max(paper.hidden_widths)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("fig9")


class TestValidation:
    def test_beta_zero_rejected_for_energy_training(self):
        cfg = dataclasses.replace(preset_config("desk-poisson-dnn"), beta=0.0)
        with pytest.raises(ConfigError, match="beta"):
            validate(cfg)

    def test_mnist_requires_dataset_or_synthetic(self):
        cfg = default_config("mnist_pca")
        cfg.hidden_widths = (8,)
        with pytest.raises(ConfigError, match="synthetic"):
            validate(cfg)

    def test_empty_widths_rejected(self):
        cfg = dataclasses.replace(preset_config("desk-toy-ce"), hidden_widths=())
        with pytest.raises(ConfigError):
            validate(cfg)

    @pytest.mark.parametrize("key,value", [("activation", a) for a in HIDDEN_ACTIVATIONS]
                             + [("hybrid_method", m) for m in METHODS]
                             + [("df_denominator", d) for d in DF_DENOMINATORS])
    def test_choices_are_the_implementing_modules(self, key, value):
        validate(dataclasses.replace(preset_config("desk-d-jacobi"), **{key: value}))

    @pytest.mark.parametrize("experiment", ["poisson_direct", "poisson_jacobi"])
    def test_grid_n_2_allowed_without_a_network(self, experiment):
        validate(dataclasses.replace(default_config(experiment), grid_n=2))

    def test_bad_denominator_rejected(self):
        cfg = dataclasses.replace(preset_config("desk-toy-ce"), df_denominator="both")
        with pytest.raises(ConfigError):
            validate(cfg)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            validate(ExperimentConfig(experiment="lattice_qcd"))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)
                                     if isinstance(f.default, float)])
    def test_non_finite_float_rejected(self, key, value):
        cfg = dataclasses.replace(preset_config("desk-d-jacobi"), **{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            validate(cfg)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            validate(dataclasses.replace(default_config("poisson_direct"), seed=-1))

    @pytest.mark.parametrize("value", ["runs #3", "#runs", "runs\nb", "runs\n", " runs", "runs\t"])
    def test_string_that_would_not_read_back_rejected(self, value):
        cfg = dataclasses.replace(default_config("poisson_direct"), out_dir=value)
        with pytest.raises(ConfigError, match="would not read back"):
            validate(cfg)

    @pytest.mark.parametrize("value", ["runs/#3", "my runs", "a=b", ""])
    def test_string_that_reads_back_accepted(self, value):
        cfg = dataclasses.replace(default_config("poisson_direct"), out_dir=value)
        validate(cfg)
        assert parse_config_text(config_to_text(cfg))["out_dir"] == value


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["poisson-dnn", "--set", "beta=0", "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_set_key_exit_code(self, tmp_path):
        assert main(["toy-ce", "--set", "bogus=1", "--out", str(tmp_path)]) == 2

    def test_preset_experiment_mismatch(self, tmp_path):
        assert main(["toy-ce", "--preset", "fig4", "--out", str(tmp_path)]) == 2

    def test_set_experiment_mismatch(self, tmp_path):
        out = tmp_path / "run"
        assert main(["poisson-dnn", "--set", "experiment=poisson_jacobi", "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_file_experiment_mismatch(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("experiment = toy_ce\n")
        out = tmp_path / "run"
        assert main(["poisson-direct", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_repeated_key_in_a_config_file_exits_2_but_repeated_set_overrides(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lr = 1\nlr = 2\n")
        out = tmp_path / "run"
        assert main(["toy-ce", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "config error: line 2: key 'lr' is already set on line 1" in capsys.readouterr().err
        assert not out.exists()
        assert resolve_config(build_parser().parse_args(["toy-ce", "--set", "lr=1", "--set", "lr=2"])).lr == 2.0

    @pytest.mark.parametrize("args", [
        ["poisson-dnn", "--preset", "desk-poisson-dnn", "--set", "lr=inf"],
        ["toy-ce", "--preset", "desk-toy-ce", "--set", "init_mean=inf"],
        ["toy-ce", "--preset", "desk-toy-ce", "--set", "first_passage_tau=nan"],
        ["toy-ce", "--preset", "desk-toy-ce", "--seed", "-1"],
        ["poisson-dnn", "--preset", "desk-poisson-dnn", "--set", "grid_n=2"],
        ["d-jacobi", "--preset", "desk-d-jacobi", "--set", "grid_n=2"],
    ], ids=["lr-inf", "init-mean-inf", "tau-nan", "seed-negative", "poisson-dnn-grid-2", "d-jacobi-grid-2"])
    def test_bad_numbers_exit_2_before_the_run_directory(self, tmp_path, capsys, args):
        out = tmp_path / "run"
        assert main([*args, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--config", "{tmp}/nonexistent.cfg"], "cannot read config file {tmp}/nonexistent.cfg"),
        (["--set", "lr"], "--set expects KEY=VALUE, got 'lr'"),
        (["--set", "svg=maybe"], "cannot parse svg = 'maybe' as bool"),
    ], ids=["missing-config-file", "set-without-equals", "set-bool-unparsed"])
    def test_unusable_arguments_exit_2_before_the_run_directory(self, tmp_path, capsys, args, message):
        out = tmp_path / "run"
        assert main(["toy-ce", *(a.format(tmp=tmp_path) for a in args), "--out", str(out)]) == 2
        assert f"config error: {message.format(tmp=tmp_path)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--mnist-images", "--mnist-labels"])
    def test_one_dataset_file_without_the_other_exits_2_before_the_run_directory(self, tmp_path, capsys, flag):
        # the preset sets synthetic = true, which must not hide the half given
        out = tmp_path / "run"
        args = ["mnist-pca", "--preset", "desk-mnist-pca", "--set", "samples=60", "--set", "epochs=2",
                flag, str(tmp_path / "missing.idx"), "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "give both files or neither" in err
        assert not out.exists()

    def test_learning_rate_that_underflows_exits_2_before_the_run_directory(self, tmp_path, capsys):
        # 1e-4 halved every epoch is 0.0 from epoch 1062 on, the last update of 1063 epochs
        args = ["toy-ce", "--set", "hidden_widths=4", "--set", "lr_halve_every=1", "--set", "record_every=1"]
        out = tmp_path / "run"
        assert main([*args, "--set", "epochs=1063", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and all(key in err for key in ("lr =", "lr_halve_every =", "epochs ="))
        assert not out.exists()
        assert main([*args, "--set", "epochs=1062", "--out", str(out)]) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + 1063

    # flag arguments, then the config key they set, that key's value as --set reads
    # it and another value for a --set the flag must override; each differs from the default
    @pytest.mark.parametrize("flag,key,value,other", [
        (["--seed", "7"], "seed", "7", "3"),
        (["--seeds", "2"], "seeds", "2", "5"),
        (["--out", "elsewhere"], "out_dir", "elsewhere", "here"),
        (["--svg"], "svg", "true", "false"),
        (["--timing"], "timing", "true", "false"),
        (["--mnist-images", "im.idx"], "mnist_images", "im.idx", "other.idx"),
        (["--mnist-labels", "lb.idx"], "mnist_labels", "lb.idx", "other.idx"),
        (["--synthetic"], "synthetic", "true", "false"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_direct_flag_sets_its_config_key_after_set(self, flag, key, value, other):
        def resolved(*args):
            return resolve_config(build_parser().parse_args(["mnist-pca", *args]))

        expected = resolved("--set", f"{key}={value}")
        assert expected != resolved()
        assert resolved(*flag) == expected
        assert resolved("--set", f"{key}={other}", *flag) == expected

    def test_divergence_exit_code(self, tmp_path):
        code = main([
            "poisson-dnn", "--out", str(tmp_path),
            "--set", "hidden_widths=16", "--set", "grid_n=16",
            "--set", "epochs=4000", "--set", "lr=100.0", "--set", "init_std=1.0",
        ])
        assert code == 3

    def test_seeds_that_finished_are_summarised_when_a_later_seed_diverges(self, tmp_path, capsys):
        # seed 25 diverges at epoch 153 at this learning rate; seed 24 runs all 400 epochs
        code = main(["poisson-dnn", "--preset", "desk-poisson-dnn", "--set", "epochs=400",
                     "--set", "record_every=4", "--seed", "24", "--seeds", "2", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.startswith(f"[seed 24] poisson_dnn -> {tmp_path / 'seed24'}  final_loss=")
        assert "[seed 25]" not in captured.out
        assert "seed 25: loss diverged at epoch 153" in captured.err
        assert (tmp_path / "seed24" / "config.txt").exists()

    @pytest.mark.parametrize("args,epoch", [
        (["poisson-dnn", "--set", "hidden_widths=16", "--set", "grid_n=16", "--set", "epochs=4000",
          "--set", "lr=100.0", "--set", "init_std=1.0"], 33),
        (["poisson-dnn", "--preset", "desk-poisson-dnn", "--set", "epochs=400", "--set", "record_every=4",
          "--seed", "25"], 153),
        # the untrained network's logits overflow to inf - inf = NaN while its parameters are finite
        (["toy-ce", "--set", "activation=relu", "--set", "init_std=1e200", "--set", "hidden_widths=8,8",
          "--set", "epochs=5"], 0),
    ], ids=["lr-100", "desk-seed-25", "relu-init-std-1e200"])
    def test_divergence_raises_no_runtime_warning(self, tmp_path, args, epoch):
        # the overflow on the way to a non-finite loss is silenced once per run; a
        # warning turned into an error would crash the run with exit 1 instead
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "freqlab.cli", *args,
                               "--out", str(tmp_path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        assert f"loss diverged at epoch {epoch}\n" in proc.stderr

    def test_io_error_exit_code(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = main(["poisson-direct", "--out", str(target / "sub"), "--set", "grid_n=8"])
        assert code == 4

    def test_successful_run_and_flag_override(self, tmp_path, capsys):
        code = main(["poisson-direct", "--out", str(tmp_path), "--set", "grid_n=8", "--seed", "5"])
        assert code == 0
        assert "peaks=[" in capsys.readouterr().out  # list metrics are printed too
        assert (tmp_path / "solution.csv").exists()
        snapshot = (tmp_path / "config.txt").read_text()
        assert "seed = 5" in snapshot
        assert "grid_n = 8" in snapshot

    def test_out_dir_that_would_not_read_back_exits_2(self, tmp_path, capsys):
        # its snapshot line `out_dir = .../runs #3` would read back as `.../runs`
        assert main(["poisson-direct", "--out", str(tmp_path / "runs #3"), "--set", "grid_n=8"]) == 2
        assert "would not read back" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_with_hash_after_slash_runs(self, tmp_path):
        out = tmp_path / "runs" / "#3"
        assert main(["poisson-direct", "--out", str(out), "--set", "grid_n=8"]) == 0
        assert parse_config_text((out / "config.txt").read_text())["out_dir"] == str(out)

    def test_config_file_plus_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("grid_n = 8\nseed = 1\n")
        out = tmp_path / "out"
        code = main(["poisson-direct", "--config", str(cfg_file), "--seed", "2", "--out", str(out)])
        assert code == 0
        assert "seed = 2" in (out / "config.txt").read_text()

    def test_snapshot_reruns_identically(self, tmp_path):
        out1 = tmp_path / "a"
        assert main(["toy-ce", "--preset", "desk-toy-ce", "--out", str(out1),
                     "--set", "epochs=50", "--set", "record_every=10"]) == 0
        # rerun from the emitted snapshot into a fresh directory
        out2 = tmp_path / "b"
        snapshot = out1 / "config.txt"
        assert main(["toy-ce", "--config", str(snapshot), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "first_passage.csv").read_bytes() == (out2 / "first_passage.csv").read_bytes()

    def test_files_are_read_and_written_without_the_locale_encoding(self, tmp_path):
        # an EncodingWarning marks a text file opened in the locale's encoding; as an error it exits 1
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        cli = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "freqlab.cli"]
        first, second = tmp_path / "a", tmp_path / "b"
        for args in (["toy-ce", "--set", "hidden_widths=4", "--set", "samples=16", "--set", "epochs=4",
                      "--out", str(first)],
                     ["toy-ce", "--config", str(first / "config.txt"), "--out", str(second)]):
            proc = subprocess.run([*cli, *args], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()

    def test_multi_seed_runs_write_subdirectories(self, tmp_path):
        code = main(["poisson-direct", "--out", str(tmp_path), "--set", "grid_n=8",
                     "--seeds", "2", "--seed", "7"])
        assert code == 0
        assert (tmp_path / "seed7" / "solution.csv").exists()
        assert (tmp_path / "seed8" / "solution.csv").exists()

    def test_seed_snapshot_reruns_into_its_own_directory(self, tmp_path):
        parent = tmp_path / "g"
        assert main(["diagnose-grad", "--out", str(parent), "--set", "hidden_widths=4",
                     "--set", "samples=8", "--seeds", "2"]) == 0
        seed_dir = parent / "seed1"
        written = {p.name: p.read_bytes() for p in seed_dir.iterdir()}
        (seed_dir / "decomposition.csv").unlink()
        # no --out: the snapshot alone says where the run goes
        assert main(["diagnose-grad", "--config", str(seed_dir / "config.txt")]) == 0
        assert {p.name: p.read_bytes() for p in seed_dir.iterdir()} == written
        assert sorted(p.name for p in parent.iterdir()) == ["seed0", "seed1"]
