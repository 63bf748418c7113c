import csv
import dataclasses
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import freqlab
import freqlab.experiments as ex
import freqlab.poisson as poisson_mod
from freqlab.cli import main
from freqlab.config import default_config, preset_config
from freqlab.errors import ConfigError, DivergenceError
from freqlab.experiments import run_experiment, run_single, target_toy
from freqlab.nn import layer_views
from freqlab.poisson import (
    Grid1D,
    TrainPhase,
    assemble_poisson,
    g_rhs,
    hand_off,
    iterate,
    mode_amplitudes,
    thomas_solve,
)

from poisson_helpers import sweep_once


def tiny(preset, **kw):
    return dataclasses.replace(preset_config(preset), **kw)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def grid_stream(cfg, seed, grid):
    """(full-grid network values, loss) per step of _energy_descent, as TrainPhase reads a stream."""
    return ((out[:, 0], loss) for _, out, loss in ex._energy_descent(cfg, seed, grid))


class TestTargetToy:
    def test_right_half(self):
        assert np.array_equal(target_toy(0.5), [1.0, 0.0])

    def test_left_half(self):
        assert np.array_equal(target_toy(-0.5), [0.0, 1.0])

    def test_overlap_at_origin(self):
        assert np.array_equal(target_toy(0.0), [1.0, 1.0])

    def test_batch_shape(self):
        out = target_toy(np.linspace(-1, 1, 11))
        assert out.shape == (11, 2)
        assert out[5].tolist() == [1.0, 1.0]


class TestToyCe:
    def test_zero_epochs_single_initial_row(self, tmp_path):
        cfg = tiny("desk-toy-ce", epochs=0)
        report = run_single(cfg, 0, tmp_path)
        rows = read_csv(tmp_path / "trace.csv")
        assert len(rows) == 1
        assert rows[0]["step"] == "0" and rows[0]["epoch"] == "0"

    def test_short_run_emits_all_files(self, tmp_path):
        cfg = tiny("desk-toy-ce", epochs=50, record_every=10, svg=True)
        report = run_single(cfg, 0, tmp_path)
        for name in ("trace.csv", "first_passage.csv", "config.txt", "trace.svg"):
            assert (tmp_path / name).exists(), name
        rows = read_csv(tmp_path / "trace.csv")
        assert len(rows) == 6  # initial row + 5 recordings
        assert report.metrics["peaks"] == [0, 3, 5, 7]
        # one df column per peak, in ascending frequency order
        assert list(rows[0]) == ["step", "epoch", "wall_ms", "loss", "df_0", "df_3", "df_5", "df_7"]

    def test_wall_ms_zero_without_timing(self, tmp_path):
        cfg = tiny("desk-toy-ce", epochs=20, record_every=10)
        run_single(cfg, 0, tmp_path)
        for row in read_csv(tmp_path / "trace.csv"):
            assert float(row["wall_ms"]) == 0.0

    def test_timing_mode_produces_positive_walls(self, tmp_path):
        cfg = tiny("desk-toy-ce", epochs=20, record_every=10, timing=True)
        run_single(cfg, 0, tmp_path)
        rows = read_csv(tmp_path / "trace.csv")
        assert float(rows[-1]["wall_ms"]) > 0.0


class TestMnistPca:
    def test_synthetic_end_to_end(self, tmp_path):
        cfg = tiny("desk-mnist-pca", samples=120, epochs=10, record_every=5)
        report = run_single(cfg, 0, tmp_path)
        for name in ("projected.csv", "trace.csv", "first_passage.csv", "config.txt"):
            assert (tmp_path / name).exists(), name
        rows = read_csv(tmp_path / "projected.csv")
        assert len(rows) == 120
        xs = [float(r["x"]) for r in rows]
        assert min(xs) == 0.0 and max(xs) == 1.0
        onehot_cols = [f"y{j}" for j in range(10)]
        assert all(sum(float(r[c]) for c in onehot_cols) == 1.0 for r in rows)

    def test_target_spectrum_invariant_over_training(self, tmp_path):
        # identical model rows across steps would be a bug; the *target* must not move
        cfg = tiny("desk-mnist-pca", samples=100, epochs=8, record_every=2,
                   df_denominator="target")
        run_single(cfg, 1, tmp_path)
        a = run_single(cfg, 1, tmp_path / "again")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "again" / "trace.csv").read_bytes()

    @pytest.mark.parametrize("samples", [2, 3])
    @pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
    def test_flat_target_spectrum_exits_2_before_training(self, tmp_path, capsys, samples, svg):
        out = tmp_path / "run"
        args = ["mnist-pca", "--synthetic", "--set", "hidden_widths=4", "--set", f"samples={samples}",
                "--set", "epochs=1", "--out", str(out)]
        assert main(args + (["--svg"] if svg else [])) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "no peak" in err and "samples" in err and "nufft_freqs" in err
        assert list(out.iterdir()) == []

    def test_missing_dataset_is_config_error(self, tmp_path):
        cfg = tiny("desk-mnist-pca", synthetic=False)
        with pytest.raises(ConfigError):
            run_single(cfg, 0, tmp_path)

    def test_real_idx_files_path(self, tmp_path):
        import struct
        rng = np.random.default_rng(0)
        count = 40
        pixels = rng.integers(0, 256, size=count * 784, dtype=np.uint8)
        (tmp_path / "im.idx").write_bytes(struct.pack(">IIII", 0x803, count, 28, 28) + bytes(pixels))
        labels = rng.integers(0, 10, size=count).astype(np.uint8)
        (tmp_path / "lb.idx").write_bytes(struct.pack(">II", 0x801, count) + bytes(labels))
        cfg = tiny("desk-mnist-pca", synthetic=False, samples=40, epochs=4, record_every=2,
                   mnist_images=str(tmp_path / "im.idx"), mnist_labels=str(tmp_path / "lb.idx"))
        report = run_single(cfg, 0, tmp_path / "out")
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_file_dataset_cut_to_samples(self, tmp_path):
        import struct
        rng = np.random.default_rng(1)
        count, samples = 40, 25
        pixels = rng.integers(0, 256, size=(count, 784), dtype=np.uint8)
        labels = rng.integers(0, 10, size=count).astype(np.uint8)
        for name, n in (("all", count), ("head", samples)):
            (tmp_path / f"{name}.im").write_bytes(struct.pack(">IIII", 0x803, n, 28, 28) + pixels[:n].tobytes())
            (tmp_path / f"{name}.lb").write_bytes(struct.pack(">II", 0x801, n) + labels[:n].tobytes())
            cfg = tiny("desk-mnist-pca", synthetic=False, samples=samples, epochs=4, record_every=2,
                       mnist_images=str(tmp_path / f"{name}.im"), mnist_labels=str(tmp_path / f"{name}.lb"))
            run_single(cfg, 0, tmp_path / name)
        rows = read_csv(tmp_path / "all" / "projected.csv")
        assert [int(r["label"]) for r in rows] == labels[:samples].tolist()
        for csv_name in ("projected.csv", "trace.csv", "first_passage.csv"):
            assert (tmp_path / "all" / csv_name).read_bytes() == (tmp_path / "head" / csv_name).read_bytes()

    def test_file_dataset_shorter_than_samples_exits_2(self, tmp_path, capsys):
        import struct
        count = 30
        pixels = np.random.default_rng(3).integers(0, 256, size=(count, 784), dtype=np.uint8)
        (tmp_path / "im.idx").write_bytes(struct.pack(">IIII", 0x803, count, 28, 28) + pixels.tobytes())
        (tmp_path / "lb.idx").write_bytes(struct.pack(">II", 0x801, count) + bytes(range(10)) * 3)
        out = tmp_path / "run"
        args = ["mnist-pca", "--preset", "desk-mnist-pca", "--set", "synthetic=false", "--set", "samples=100",
                "--mnist-images", str(tmp_path / "im.idx"), "--mnist-labels", str(tmp_path / "lb.idx"),
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "30 images" in err and "samples = 100" in err
        assert not (out / "config.txt").exists()

    def test_file_dataset_whose_first_samples_are_equal_exits_2(self, tmp_path, capsys):
        # only an image past the first samples differs, so the cut leaves PCA no direction
        import struct
        count, samples = 30, 20
        pixels = np.full((count, 4), 7, dtype=np.uint8)
        pixels[samples] = 9
        (tmp_path / "im.idx").write_bytes(struct.pack(">IIII", 0x803, count, 2, 2) + pixels.tobytes())
        (tmp_path / "lb.idx").write_bytes(struct.pack(">II", 0x801, count) + bytes(range(10)) * 3)
        out = tmp_path / "run"
        args = ["mnist-pca", "--preset", "desk-mnist-pca", "--set", "synthetic=false", "--set", f"samples={samples}",
                "--mnist-images", str(tmp_path / "im.idx"), "--mnist-labels", str(tmp_path / "lb.idx"),
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"config error: the first {samples} images of {tmp_path / 'im.idx'} are all equal" in err
        assert not (out / "config.txt").exists()

    def test_power_iteration_that_does_not_converge_exits_2(self, tmp_path, capsys):
        # 1x2-pixel images, the four 0/255 pairs 100 times each and one 255 made 254: the two
        # leading variances differ by a ratio of 0.99994, too close for the power iteration
        import struct
        count = 400
        pixels = np.array([[0, 0], [0, 255], [255, 0], [255, 255]] * (count // 4), dtype=np.uint8)
        pixels[1, 1] = 254
        (tmp_path / "im.idx").write_bytes(struct.pack(">IIII", 0x803, count, 1, 2) + pixels.tobytes())
        (tmp_path / "lb.idx").write_bytes(struct.pack(">II", 0x801, count) + bytes(range(10)) * (count // 10))
        out = tmp_path / "run"
        args = ["mnist-pca", "--preset", "desk-mnist-pca", "--set", "synthetic=false", "--set", f"samples={count}",
                "--mnist-images", str(tmp_path / "im.idx"), "--mnist-labels", str(tmp_path / "lb.idx"),
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "power iteration did not converge" in err
        assert not (out / "config.txt").exists()

    def test_file_dataset_cut_frees_the_rest_of_the_file(self, tmp_path):
        # the cut is a copy: a view would keep the whole file's fp64 matrix alive for the run
        import struct
        rng = np.random.default_rng(2)
        count, samples = 4000, 400
        pixels = rng.integers(0, 256, size=(count, 64), dtype=np.uint8)
        (tmp_path / "im.idx").write_bytes(struct.pack(">IIII", 0x803, count, 8, 8) + pixels.tobytes())
        labels = rng.integers(0, 10, size=count).astype(np.uint8)
        (tmp_path / "lb.idx").write_bytes(struct.pack(">II", 0x801, count) + labels.tobytes())
        cfg = tiny("desk-mnist-pca", synthetic=False, samples=samples,
                   mnist_images=str(tmp_path / "im.idx"), mnist_labels=str(tmp_path / "lb.idx"))
        tracemalloc.start()
        try:
            images, cut_labels = ex._load_images(cfg, 0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert images.shape == (64, samples) and images.flags.f_contiguous
        assert cut_labels.tolist() == labels[:samples].tolist()
        assert held < 2 * (images.nbytes + cut_labels.nbytes)


class TestPoissonRunners:
    def test_direct_solution_and_spectrum(self, tmp_path):
        cfg = dataclasses.replace(default_config("poisson_direct"), grid_n=32)
        report = run_single(cfg, 0, tmp_path)
        rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == 33
        assert float(rows[0]["u_star"]) == 0.0 and float(rows[-1]["u_star"]) == 0.0
        assert report.metrics["residual_inf"] < 1e-12

    def test_jacobi_runner_tracks_peak_modes(self, tmp_path):
        cfg = dataclasses.replace(default_config("poisson_jacobi"), grid_n=32,
                                  max_iters=500, iter_tol_rel=1e-2)
        report = run_single(cfg, 0, tmp_path)
        rows = read_csv(tmp_path / "iters.csv")
        assert report.metrics["tracked_modes"] == [2, 6, 16]  # twice the peak indexes
        assert f"alpha_{report.metrics['tracked_modes'][0]}" in rows[0]
        sups = [float(r["sup_error"]) for r in rows]
        assert sups[-1] < sups[0]

    def test_iters_csv_row_i_is_iteration_i(self, tmp_path):
        n = 16
        cfg = dataclasses.replace(default_config("poisson_jacobi"), grid_n=n, max_iters=40)
        report = run_single(cfg, 0, tmp_path)
        rows = read_csv(tmp_path / "iters.csv")
        assert len(rows) == report.metrics["iterations"] + 1 == 41
        # replay the sweeps: every column of row i describes the state after i sweeps
        rhs = assemble_poisson(Grid1D(n=n), g_rhs)
        ref = thomas_solve(rhs)
        u = np.zeros(n - 1)
        for i, row in enumerate(rows):
            assert int(row["iter"]) == i
            err = u - ref[1:-1]
            assert float(row["sup_error"]) == np.max(np.abs(err))
            amps = mode_amplitudes(err, n)
            for k in report.metrics["tracked_modes"]:
                assert float(row[f"alpha_{k}"]) == pytest.approx(amps[k - 1], rel=1e-12, abs=1e-15)
            u = sweep_once("jacobi", rhs, u)

    def test_timing_walls_rise_through_the_iterations(self, tmp_path):
        cfg = dataclasses.replace(default_config("poisson_jacobi"), grid_n=16, max_iters=300, timing=True)
        run_single(cfg, 0, tmp_path)
        walls = [float(r["wall_ms"]) for r in read_csv(tmp_path / "iters.csv")]
        assert len(walls) > 2 and min(walls[1:]) > 0.0
        assert walls == sorted(walls)

    def test_poisson_dnn_short_run(self, tmp_path):
        cfg = tiny("desk-poisson-dnn", hidden_widths=(32, 16), epochs=40, record_every=20)
        report = run_single(cfg, 0, tmp_path)
        for name in ("trace.csv", "sup_error.csv", "solution.csv", "first_passage.csv"):
            assert (tmp_path / name).exists(), name
        assert len(read_csv(tmp_path / "trace.csv")) == 3
        assert report.metrics["peaks"] == [1, 3, 8]

    def test_beta_zero_rejected_before_running(self, tmp_path):
        cfg = tiny("desk-poisson-dnn", beta=0.0)
        with pytest.raises(ConfigError):
            run_single(cfg, 0, tmp_path)


class TestDJacobi:
    def test_short_run_emits_sweep_files(self, tmp_path):
        cfg = tiny("desk-d-jacobi", hidden_widths=(32, 16), epochs=400,
                   record_every=5, plateau_window=20, max_iters=20_000)
        report = run_single(cfg, 0, tmp_path)
        for name in ("hybrid_early.csv", "hybrid_plateau.csv", "hybrid_late.csv",
                     "baseline.csv", "summary.csv", "config.txt"):
            assert (tmp_path / name).exists(), name
        summary = read_csv(tmp_path / "summary.csv")
        assert [r["label"] for r in summary] == ["early", "plateau", "late", "cold"]
        plateau_rows = read_csv(tmp_path / "hybrid_plateau.csv")
        phases = {r["phase"] for r in plateau_rows}
        assert phases == {"dnn", "jacobi"}

    def test_gauss_seidel_hybrid_variant(self, tmp_path):
        cfg = tiny("desk-d-jacobi", hidden_widths=(32, 16), epochs=400,
                   record_every=5, plateau_window=20, max_iters=20_000,
                   hybrid_method="gauss_seidel")
        run_single(cfg, 0, tmp_path)
        rows = read_csv(tmp_path / "hybrid_plateau.csv")
        assert {r["phase"] for r in rows} == {"dnn", "gauss_seidel"}
        baseline = read_csv(tmp_path / "baseline.csv")
        assert baseline[0]["phase"] == "gauss_seidel"

    def test_timing_iterative_walls_carry_on_from_training(self, tmp_path):
        cfg = tiny("desk-d-jacobi", hidden_widths=(16, 8), grid_n=16, epochs=400, record_every=5,
                   plateau_window=10, max_iters=20_000, timing=True)
        run_single(cfg, 0, tmp_path)
        for label in ("early", "plateau", "late"):
            rows = read_csv(tmp_path / f"hybrid_{label}.csv")
            dnn = [float(r["cum_wall_ms"]) for r in rows if r["phase"] == "dnn"]
            sweeps = [float(r["cum_wall_ms"]) for r in rows if r["phase"] == "jacobi"]
            assert len(dnn) + len(sweeps) == len(rows) and dnn and len(sweeps) > 1, label
            assert dnn == sorted(dnn) and dnn[-1] > 0.0, label
            assert sweeps[0] >= dnn[-1] and sweeps == sorted(sweeps), label

    def test_switch_step_zero_equals_cold_from_untrained_net(self, tmp_path):
        # an untrained-but-seeded net is a fixed function; switching immediately
        # must reproduce a plain iteration from that function's interior values
        cfg = tiny("desk-d-jacobi", hidden_widths=(16, 8), grid_n=16)
        grid, rhs, ref = ex._poisson_setup(cfg)
        at = TrainPhase(grid_stream(cfg, 3, grid), ref).run(0)
        run = hand_off(rhs, ref, at, "jacobi", 50_000, 1e-4)
        u0_full = next(grid_stream(cfg, 3, grid))[0]
        direct = iterate(rhs, u0_full[1:-1], ref[1:-1], max_iters=50_000, tol=1e-4)
        assert run.iterations == direct.iterations


def _replayed_hybrids(cfg, seed):
    """The three hand-offs as independent TrainPhase runs and hand_offs, each
    training a fresh stream from step 0: (SwitchPoint, IterativeRun) pairs."""
    grid, rhs, ref = ex._poisson_setup(cfg)

    def hybrid(switch_step):
        at = TrainPhase(grid_stream(cfg, seed, grid), ref, cfg.record_every, cfg.plateau_window,
                        cfg.plateau_tol, cfg.epochs).run(switch_step)
        return at, hand_off(rhs, ref, at, cfg.hybrid_method, cfg.max_iters,
                            cfg.iter_tol_rel * float(np.max(np.abs(ref[1:-1]))))

    plateau = hybrid(None)
    p = plateau[0].step
    return [hybrid(max(1, p // 4)), plateau, hybrid(min(2 * p, cfg.epochs))]


def _hand_off_fields(at, run):
    """Everything a hand-off reports, comparable with ==: the switch step, the
    plateau flag, the grid values, every phase-one column and the IterativeRun."""
    return (at.step, at.plateau_detected, at.grid_values.tolist(),
            at.steps, at.wall_ms, at.sup_errors, run)


class TestDJacobiOneStream:
    # one stream runs to the plateau and on to the late switch; the early switch is
    # built from the grid values kept on the way, or replayed over _EARLY_STATES_CAP
    PLATEAU = dict(hidden_widths=(16, 8), grid_n=16, epochs=400, record_every=5,
                   plateau_window=10, max_iters=20_000)
    NO_PLATEAU = dict(PLATEAU, plateau_window=100)

    def _run(self, tmp_path, monkeypatch, **shrink):
        """The run's report, its forward calls and its three warm hand-offs as
        _hand_off_fields, in call order; the fourth, checked here, is the cold start."""
        forwards, hand_offs = [], []
        real_forward, real_hand_off = ex.forward, poisson_mod.hand_off

        def counted(*args):
            forwards.append(1)
            return real_forward(*args)

        def captured(rhs, reference, at, *args, **kwargs):
            run = real_hand_off(rhs, reference, at, *args, **kwargs)
            hand_offs.append(_hand_off_fields(at, run))
            return run

        monkeypatch.setattr(ex, "forward", counted)
        monkeypatch.setattr(poisson_mod, "hand_off", captured)
        cfg = tiny("desk-d-jacobi", **shrink)
        report = run_single(cfg, 0, tmp_path)
        *warm, (step, plateau, values, steps, wall_ms, sup_errors, _) = hand_offs
        assert (step, plateau, values) == (0, False, [0.0] * (cfg.grid_n + 1))
        assert steps == wall_ms == sup_errors == []
        return cfg, report, len(forwards), warm

    def test_forward_calls_are_one_stream_to_2p(self, tmp_path, monkeypatch):
        cfg, report, forwards, _ = self._run(tmp_path, monkeypatch, **self.PLATEAU)
        p = report.metrics["plateau_step"]
        assert report.metrics["plateau_detected"] and 2 * p <= cfg.epochs
        assert p // 4 % cfg.record_every != 0  # the early switch is not a recorded step
        assert forwards == 2 * p + 1

    def test_over_the_cap_the_early_prefix_is_replayed(self, tmp_path, monkeypatch):
        # ten 17-point states fit; the run's candidates between p // 4 and p need more
        monkeypatch.setattr(poisson_mod, "_EARLY_STATES_CAP", 10 * 17 * 8)
        cfg, report, forwards, hand_offs = self._run(tmp_path, monkeypatch, **self.PLATEAU)
        p = report.metrics["plateau_step"]
        assert forwards == 2 * p + max(1, p // 4) + 2
        assert hand_offs == [_hand_off_fields(*replay) for replay in _replayed_hybrids(cfg, 0)]

    @pytest.mark.parametrize("record_every,epochs", [(1, 60), (5, 103), (20, 400), (7, 9)])
    def test_early_states_keep_every_possible_early_switch_and_nothing_below_a_quarter(
            self, record_every, epochs):
        plateaus = sorted({*range(0, epochs + 1, record_every), epochs})
        # the early switches of every stop q, step 0 that of q = 0
        switches = {min(max(1, q // 4), q) for q in plateaus}
        for p in plateaus:
            states = poisson_mod._EarlyStates(record_every, epochs)
            for t, (values, _) in enumerate(states.passing((np.full(3, float(t)), 0.0) for t in range(p + 1))):
                values[:] = -1.0  # the descent's next step overwrites its outputs
                assert all(min(max(1, t // 4), t) <= s and s in switches for s, _ in states._kept)
            early = states.take(min(max(1, p // 4), p))
            assert states._kept is None
            assert early.tolist() == [float(min(max(1, p // 4), p))] * 3

    def test_early_states_past_the_cap_are_dropped_for_good(self, monkeypatch):
        # fig5's 1,001-point states with every step a candidate, under a cap of 100 states
        monkeypatch.setattr(poisson_mod, "_EARLY_STATES_CAP", 100 * 1001 * 8)
        states = poisson_mod._EarlyStates(1, 200_000)
        held = []
        for t, _ in enumerate(states.passing((np.zeros(1001), 0.0) for _ in range(400))):
            held.append(None if states._kept is None else len(states._kept))
        # steps max(1, t // 4) .. t are held: 100 states at t = 132, the 101st would be at 133
        assert held[132] == 100 and held[133:] == [None] * (400 - 133)
        assert states.take(100) is None

    # at epochs = 0 the stream stops at step 0, which is every switch
    @pytest.mark.parametrize("shrink", [PLATEAU, NO_PLATEAU, dict(PLATEAU, epochs=0)],
                             ids=["plateau", "no-plateau", "epochs-0"])
    def test_reports_equal_three_replays(self, tmp_path, monkeypatch, shrink):
        cfg, report, _, hand_offs = self._run(tmp_path, monkeypatch, **shrink)
        assert hand_offs == [_hand_off_fields(*replay) for replay in _replayed_hybrids(cfg, 0)]
        assert [fields[0] for fields in hand_offs] == [
            int(row["switch_step"]) for row in read_csv(tmp_path / "summary.csv")[:3]]

    def test_epochs_0_takes_the_plateau_state_without_a_replay(self, tmp_path, monkeypatch):
        cfg, report, forwards, (early, plateau, late) = self._run(tmp_path, monkeypatch,
                                                                  **dict(self.PLATEAU, epochs=0))
        assert report.metrics["plateau_step"] == 0
        assert early == plateau == late
        assert forwards == 1

    def test_no_plateau_late_equals_plateau_without_extra_steps(self, tmp_path, monkeypatch):
        cfg, report, forwards, (early, plateau, late) = self._run(tmp_path, monkeypatch,
                                                                  **self.NO_PLATEAU)
        assert not report.metrics["plateau_detected"]
        assert report.metrics["plateau_step"] == cfg.epochs
        assert late == plateau
        assert forwards == cfg.epochs + 1

    def test_divergence_between_plateau_and_late_switch_writes_nothing(self, tmp_path, monkeypatch):
        cfg = tiny("desk-d-jacobi", **self.PLATEAU)
        p = run_single(cfg, 0, tmp_path / "clean").metrics["plateau_step"]
        real = ex.energy_loss
        calls = []

        def nan_after_plateau(*args):
            calls.append(1)
            value, grad = real(*args)
            if len(calls) > p + p // 2:  # step p + p // 2 of the plateau stream
                value = float("nan")
            return value, grad

        monkeypatch.setattr(ex, "energy_loss", nan_after_plateau)
        with pytest.raises(DivergenceError) as info:
            run_single(cfg, 0, tmp_path / "diverged")
        assert info.value.step == p + p // 2
        assert list((tmp_path / "diverged").iterdir()) == []


def _first_passages(trace_rows, peaks, tau):
    """Each peak's first trace.csv step with df <= tau, or None."""
    return {g: next((int(r["step"]) for r in trace_rows if float(r[f"df_{g}"]) <= tau), None) for g in peaks}


class TestTraceColumns:
    """_emit_trace on hand-made recorder columns (steps 0..4: peak 0 stays below
    tau, peak 3 falls through it) and _spectral_recorder on a two-tone target."""

    def emit(self, out_dir, tau=0.3, svg=False):
        steps = list(range(5))
        columns = [steps, [10 * s for s in steps], [0.5 * s for s in steps], [1.0 - 0.1 * s for s in steps],
                   [0.05] * 5, [0.9, 0.7, 0.4, 0.3, 0.1]]
        cfg = tiny("desk-toy-ce", first_passage_tau=tau, svg=svg)
        out_dir.mkdir(exist_ok=True)
        return ex._emit_trace(cfg, out_dir, [0, 3], columns, "hand-made trace"), columns

    def test_first_passage_starts_below(self, tmp_path):
        metrics, _ = self.emit(tmp_path)
        assert metrics["first_passage"][0] == 0

    def test_first_passage_crossing(self, tmp_path):
        metrics, _ = self.emit(tmp_path, tau=0.5)
        assert metrics["first_passage"] == {0: 0, 3: 2}

    def test_first_passage_equal_to_tau_counts(self, tmp_path):
        metrics, _ = self.emit(tmp_path, tau=0.3)
        assert metrics["first_passage"] == {0: 0, 3: 3}

    def test_never_crossing_returns_none(self, tmp_path):
        metrics, _ = self.emit(tmp_path, tau=0.05)
        assert metrics["first_passage"] == {0: 0, 3: None}
        assert (tmp_path / "first_passage.csv").read_text() == "gamma,first_step\n0,0\n3,\n"

    def test_trace_csv_is_the_columns_in_peak_order(self, tmp_path):
        metrics, columns = self.emit(tmp_path)
        with open(tmp_path / "trace.csv") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["step", "epoch", "wall_ms", "loss", "df_0", "df_3"]
        assert [[float(v) for v in row] for row in rows] == [list(row) for row in zip(*columns)]
        assert metrics["final_loss"] == columns[3][-1] and metrics["peaks"] == [0, 3]

    def test_svg_only_when_asked(self, tmp_path):
        self.emit(tmp_path / "plain")
        assert not (tmp_path / "plain" / "trace.svg").exists()
        self.emit(tmp_path / "drawn", svg=True)
        assert "gamma=3" in (tmp_path / "drawn" / "trace.svg").read_text()

    def test_recorder_columns_follow_ascending_peaks(self, monkeypatch):
        cfg = tiny("desk-toy-ce", record_every=5)
        x = np.arange(16) / 16
        phase = ex.dft_matrix(16)
        target = np.cos(2 * np.pi * 3 * x) + 0.5 * np.cos(2 * np.pi * x)
        clock = iter([1.5, 4.0])
        monkeypatch.setattr(ex, "stopwatch", lambda timing: lambda: next(clock))
        peaks, columns, record = ex._spectral_recorder(cfg, phase, target)
        assert peaks == [1, 3]
        outputs = [np.cos(2 * np.pi * 3 * x), 0.5 * np.cos(2 * np.pi * x)]
        record(0, 0.8, outputs[0])
        record(5, 0.2, outputs[1])
        assert columns[:4] == [[0, 1], [0, 5], [1.5, 4.0], [0.8, 0.2]]
        target_spec = ex.spectrum(phase, target)
        assert columns[4:] == [[ex.rel_freq_diff(ex.spectrum(phase, v), target_spec, g, cfg.df_denominator)
                                for v in outputs] for g in peaks]


class TestTrainingLoop:
    @pytest.mark.parametrize("preset,shrink", [
        ("desk-toy-ce", dict(epochs=23, record_every=5)),
        ("desk-poisson-dnn", dict(hidden_widths=(16, 8), epochs=23, record_every=5)),
        ("desk-mnist-pca", dict(samples=80, batch_size=32, epochs=7, record_every=3)),
    ])
    def test_one_forward_per_epoch_plus_final(self, tmp_path, monkeypatch, preset, shrink):
        # full-batch recordings reuse the outputs of the descent step instead of a second
        # forward, and training stops at the last recorded epoch (20 of 23, 6 of 7)
        calls = []
        real = ex.forward

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ex, "forward", counted)
        cfg = tiny(preset, **shrink)
        run_single(cfg, 0, tmp_path)
        last = cfg.epochs - cfg.epochs % cfg.record_every
        if cfg.experiment == "mnist_pca":
            # ceil(n / batch) minibatches an epoch, a full batch per recording, and the first
            # minibatch of epoch last, evaluated before its recording and never read
            assert len(calls) == last * -(-cfg.samples // cfg.batch_size) + (last // cfg.record_every + 1) + 1
        else:
            assert len(calls) == last + 1

    def test_minibatch_forwards_reuse_one_cache_per_batch_length(self, tmp_path, monkeypatch):
        # 80 samples in batches of 32 have two batch lengths, 32 and 16; the other
        # forwards without a cache are the full-batch recordings
        fresh = []
        real = ex.forward

        def counted(*args):
            if len(args) < 3 or args[2] is None:
                fresh.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(ex, "forward", counted)
        cfg = tiny("desk-mnist-pca", samples=80, batch_size=32, epochs=7, record_every=3)
        run_single(cfg, 0, tmp_path)
        recordings = (cfg.epochs - cfg.epochs % cfg.record_every) // cfg.record_every + 1
        assert sorted(fresh) == [16, 32] + [80] * recordings

    # each tau leaves some peaks crossed and some not
    @pytest.mark.parametrize("preset,shrink", [
        ("desk-toy-ce", dict(epochs=300, record_every=20)),
        ("desk-mnist-pca", dict(samples=80, epochs=6, record_every=2, first_passage_tau=0.5)),
        ("desk-poisson-dnn", dict(hidden_widths=(16, 8), epochs=300, record_every=20, first_passage_tau=0.95)),
    ])
    def test_first_passage_metric_is_the_csv(self, tmp_path, preset, shrink):
        cfg = tiny(preset, **shrink)
        metrics = run_single(cfg, 0, tmp_path).metrics
        rows = read_csv(tmp_path / "first_passage.csv")
        assert metrics["first_passage"] == {int(r["gamma"]): int(r["first_step"]) if r["first_step"] else None
                                            for r in rows}
        assert list(metrics["first_passage"]) == metrics["peaks"]
        assert None in metrics["first_passage"].values() and set(metrics["first_passage"].values()) != {None}
        # each passage is the first trace.csv step with df <= tau: at step 0, later, or never
        trace = read_csv(tmp_path / "trace.csv")
        assert metrics["first_passage"] == _first_passages(trace, metrics["peaks"], cfg.first_passage_tau)
        # a tau equal to the least df of a peak that never crossed is crossed where that df first occurs
        g = next(g for g, step in metrics["first_passage"].items() if step is None)
        tau = min(float(r[f"df_{g}"]) for r in trace)
        again = run_single(dataclasses.replace(cfg, first_passage_tau=tau), 0, tmp_path / "again").metrics
        assert again["first_passage"][g] is not None
        assert again["first_passage"] == _first_passages(trace, metrics["peaks"], tau)

    @pytest.mark.parametrize("preset,shrink", [
        ("desk-toy-ce", dict(epochs=4, record_every=2)),
        ("desk-mnist-pca", dict(samples=80, epochs=2, record_every=1)),
    ])
    def test_value_error_with_finite_parameters_is_not_divergence(self, tmp_path, monkeypatch,
                                                                    preset, shrink):
        real = ex.cross_entropy_loss
        calls = []

        def broken(probs, onehot):  # fails after the untrained network's loss
            calls.append(1)
            if len(calls) > 1:
                raise ValueError("broken loss")
            return real(probs, onehot)

        monkeypatch.setattr(ex, "cross_entropy_loss", broken)
        with pytest.raises(ValueError, match="broken loss"):
            run_single(tiny(preset, **shrink), 0, tmp_path)

    @pytest.mark.parametrize("preset,shrink", [
        ("desk-toy-ce", dict(epochs=4)),
        ("desk-mnist-pca", dict(samples=80, epochs=2, record_every=1)),
    ])
    def test_value_error_with_non_finite_parameters_is_not_divergence(self, tmp_path, monkeypatch,
                                                                        preset, shrink):
        # divergence is a non-finite loss alone: a loss that raises is a bug, whatever the parameters
        real = ex.init_mlp

        def poisoned(*args):
            net = real(*args)
            layer_views(net.widths, net.params)[0][1][0] = np.nan
            return net

        def broken(probs, onehot):
            raise ValueError("broken loss")

        monkeypatch.setattr(ex, "init_mlp", poisoned)
        monkeypatch.setattr(ex, "cross_entropy_loss", broken)
        with pytest.raises(ValueError, match="broken loss"):
            run_single(tiny(preset, **shrink), 0, tmp_path)

    @pytest.mark.parametrize("preset,shrink", [
        ("desk-toy-ce", dict(epochs=4)),
        ("desk-mnist-pca", dict(samples=80, epochs=2, record_every=1)),
    ])
    def test_nan_logits_from_non_finite_parameters_are_divergence(self, tmp_path, monkeypatch,
                                                                   preset, shrink):
        real = ex.init_mlp

        def poisoned(*args):
            net = real(*args)
            layer_views(net.widths, net.params)[0][0][0, 0] = np.nan
            return net

        monkeypatch.setattr(ex, "init_mlp", poisoned)
        with pytest.raises(DivergenceError):
            run_single(tiny(preset, **shrink), 0, tmp_path)


class TestLoopBuffers:
    """_descent writes every step into one cache and one gradient vector."""

    def test_a_step_allocates_less_than_one_activation(self):
        # desk-poisson-dnn's 256-64 network on its 65 grid points; one 65x256
        # fp64 activation is 133,120 bytes, past glibc's 128 KiB mmap threshold
        cfg = preset_config("desk-poisson-dnn")
        grid = Grid1D(n=cfg.grid_n)
        descent = ex._energy_descent(cfg, 0, grid)
        for _ in range(3):
            next(descent)
        tracemalloc.start()
        try:
            next(descent)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (cfg.grid_n + 1) * cfg.hidden_widths[0] * 8

    def test_switch_point_keeps_its_grid_when_the_phase_runs_on(self):
        cfg = tiny("desk-d-jacobi", hidden_widths=(16, 8), grid_n=16)
        grid = Grid1D(n=cfg.grid_n)
        ref = thomas_solve(assemble_poisson(grid, g_rhs))

        def phase():
            return TrainPhase(grid_stream(cfg, 0, grid), ref,
                              cfg.record_every, cfg.plateau_window, cfg.plateau_tol, cfg.epochs)

        k = 30
        stream = phase()
        at_k = stream.run(k)
        kept = at_k.grid_values.copy()
        at_2k = stream.run(2 * k)
        assert (at_k.step, at_2k.step) == (k, 2 * k)
        assert np.array_equal(at_k.grid_values, kept)
        assert not np.array_equal(at_2k.grid_values, kept)
        assert np.array_equal(phase().run(k).grid_values, kept)

    def test_poisson_dnn_solution_is_the_last_recorded_state(self, tmp_path):
        cfg = tiny("desk-poisson-dnn", hidden_widths=(16, 8), epochs=43, record_every=10)
        run_single(cfg, 0, tmp_path)
        grid = Grid1D(n=cfg.grid_n)
        descent = ex._energy_descent(cfg, 0, grid)
        states = {epoch: out[:, 0].copy() for epoch, out, _ in itertools.islice(descent, 42)}
        u_dnn = [float(row["u_dnn"]) for row in read_csv(tmp_path / "solution.csv")]
        assert np.array_equal(u_dnn, states[40])
        assert not np.array_equal(u_dnn, states[41])


class TestRunDirectory:
    # subcommand, shrinking flags, files written without svg, files svg adds
    RUNS = {
        "toy-ce": (["--preset", "desk-toy-ce", "--set", "epochs=20", "--set", "record_every=10"],
                   {"trace.csv", "first_passage.csv"}, {"trace.svg"}),
        "mnist-pca": (["--preset", "desk-mnist-pca", "--set", "samples=60", "--set", "epochs=2",
                       "--set", "record_every=1"],
                      {"projected.csv", "trace.csv", "first_passage.csv"}, {"trace.svg"}),
        "poisson-direct": (["--set", "grid_n=16"], {"solution.csv", "spectrum.csv"}, set()),
        "poisson-jacobi": (["--set", "grid_n=16", "--set", "max_iters=200"], {"iters.csv"}, {"iters.svg"}),
        "poisson-dnn": (["--preset", "desk-poisson-dnn", "--set", "hidden_widths=8", "--set", "grid_n=16",
                         "--set", "epochs=20", "--set", "record_every=10"],
                        {"trace.csv", "first_passage.csv", "sup_error.csv", "solution.csv"}, {"trace.svg"}),
        "d-jacobi": (["--preset", "desk-d-jacobi", "--set", "hidden_widths=8", "--set", "grid_n=16",
                      "--set", "epochs=40", "--set", "record_every=5", "--set", "plateau_window=2",
                      "--set", "max_iters=2000"],
                     {"hybrid_early.csv", "hybrid_plateau.csv", "hybrid_late.csv", "baseline.csv",
                      "summary.csv"}, {"hybrid.svg"}),
        "diagnose-grad": (["--set", "hidden_widths=8", "--set", "samples=16"], {"decomposition.csv"}, set()),
    }

    def test_failed_rerun_leaves_no_config_of_the_finished_run(self, tmp_path, monkeypatch):
        # a rerun over a finished run that fails partway leaves a directory that does not look complete
        out = tmp_path / "run"
        args = ["toy-ce", "--preset", "desk-toy-ce", "--set", "record_every=10", "--out", str(out)]
        assert main([*args, "--set", "epochs=50"]) == 0
        assert "epochs = 50" in (out / "config.txt").read_text()
        real, calls = ex.write_csv, []

        def second_fails(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*a, **kw)

        monkeypatch.setattr(ex, "write_csv", second_fails)
        assert main([*args, "--set", "epochs=60"]) == 4
        assert read_csv(out / "trace.csv")[-1]["epoch"] == "60"
        assert not (out / "config.txt").exists()

    @pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_each_subcommand_writes_exactly_its_files(self, tmp_path, command, svg):
        flags, files, svg_files = self.RUNS[command]
        out = tmp_path / "run"
        assert main([command, *flags, "--out", str(out)] + (["--svg"] if svg else [])) == 0
        expected = files | {"config.txt"} | (svg_files if svg else set())
        assert {p.name for p in out.iterdir()} == expected


class TestReproducibility:
    @pytest.mark.parametrize("preset,shrink", [
        ("desk-toy-ce", dict(epochs=60, record_every=20)),
        ("desk-mnist-pca", dict(samples=80, epochs=6, record_every=3)),
        ("desk-poisson-dnn", dict(hidden_widths=(24, 12), epochs=60, record_every=20)),
        ("desk-d-jacobi", dict(hidden_widths=(24, 12), epochs=300, record_every=5,
                               plateau_window=10, max_iters=20_000)),
    ])
    def test_same_seed_byte_identical_csvs(self, tmp_path, preset, shrink):
        cfg = tiny(preset, **shrink)
        run_single(cfg, 9, tmp_path / "a")
        run_single(cfg, 9, tmp_path / "b")
        csvs = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        cfg = tiny("desk-toy-ce", epochs=60, record_every=20)
        run_single(cfg, 0, tmp_path / "a")
        run_single(cfg, 1, tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() != (tmp_path / "b" / "trace.csv").read_bytes()

    def test_multi_seed_layout(self, tmp_path):
        cfg = tiny("desk-toy-ce", epochs=20, record_every=10, seeds=2,
                   out_dir=str(tmp_path))
        reports = run_experiment(cfg)
        assert len(reports) == 2
        assert (tmp_path / "seed0" / "trace.csv").exists()
        assert (tmp_path / "seed1" / "trace.csv").exists()


class TestBlasThreads:
    def test_trace_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # minibatch SGD amplifies the different rounding of a threaded BLAS
        src = str(Path(freqlab.__file__).parents[1])
        traces = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "freqlab.cli", "mnist-pca", "--preset", "desk-mnist-pca",
                            "--set", "samples=120", "--set", "epochs=10", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_run_single_after_numpy_writes_the_cli_bytes(self, tmp_path):
        # numpy loads first with two BLAS threads, so only the pin on the loaded library holds
        src = str(Path(freqlab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
        script = ("import sys, dataclasses, numpy\n"
                  "from freqlab.config import preset_config\n"
                  "from freqlab.experiments import run_single\n"
                  "cfg = dataclasses.replace(preset_config('desk-mnist-pca'), samples=120, epochs=10)\n"
                  "run_single(cfg, 0, sys.argv[1])\n")
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "library")],
                       env=env, check=True, capture_output=True)
        subprocess.run([sys.executable, "-m", "freqlab.cli", "mnist-pca", "--preset", "desk-mnist-pca",
                        "--set", "samples=120", "--set", "epochs=10", "--out", str(tmp_path / "cli")],
                       env=env, check=True, capture_output=True)
        library, cli = ((tmp_path / name / "trace.csv").read_bytes() for name in ("library", "cli"))
        assert library == cli


class TestRelaxMemory:
    def test_relax_peak_rss_over_its_imports(self, tmp_path):
        # the benchmark's relax run against a process that only imports the CLI: the
        # difference is the run's own memory, about 8.5 MB with 8-byte history columns
        # and a row-blocked DFT, 16.7 MB before; relax's RSS drifts by up to 1.5 MB
        src = str(Path(freqlab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        # a child's ru_maxrss counts its parent's pages up to the exec, so a small
        # wrapper, not this test process, starts each measured child
        wrapper = ("import resource, subprocess, sys\n"
                   "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
                   "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")

        def peak_kib(*args):
            done = subprocess.run([sys.executable, "-c", wrapper, sys.executable, *args],
                                  env=env, check=True, capture_output=True, text=True)
            return int(done.stdout)

        run = peak_kib("-m", "freqlab.cli", "poisson-jacobi", "--set", "grid_n=512", "--set", "max_iters=2000000",
                       "--svg", "--out", str(tmp_path))
        imports = peak_kib("-c", "import freqlab.cli")
        assert (tmp_path / "iters.svg").exists()
        assert run - imports <= 12 * 1024


class TestTracer:
    def test_traced_d_jacobi_finds_the_names_it_wraps(self, tmp_path, monkeypatch):
        # perfbench/tracer.py wraps experiments' module globals by name; a span
        # count of zero would mean the runners no longer call through them
        root = Path(__file__).resolve().parents[1]
        spans_path, out = tmp_path / "spans.json", tmp_path / "run"
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans_path), "--",
             "d-jacobi", "--preset", "desk-d-jacobi", "--set", "hidden_widths=16,8", "--set", "grid_n=16",
             "--set", "epochs=400", "--set", "record_every=5", "--set", "plateau_window=10",
             "--set", "max_iters=20000", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        spans = json.loads(spans_path.read_text())["spans"]
        names = [span[2] for span in spans]
        p = int(re.search(r"plateau_step=(\d+)", proc.stdout).group(1))
        assert names.count("poisson.iterate") == 4
        assert names.count("nn.forward") == 2 * p + 1
        assert [span[5] for span in spans if span[2] == "poisson.run_hybrid"] == [2 * p + 1]
        # the benchmark's own per-layer arithmetic, tracer.py loaded without writing a bytecode cache
        spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(tracer)
        calls, _, counts = tracer.self_times(spans)
        assert counts["poisson.run_hybrid"] == calls["nn.forward"]
