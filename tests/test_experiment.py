import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import graphcomplete as gc
from graphcomplete.data import two_block_features
from graphcomplete import downstream, experiment
from graphcomplete.experiment import (
    BASELINE_METHOD,
    RECON_METHOD,
    ExperimentConfig,
    main,
    make_config,
    parse_config_file,
    run_experiment,
)

from conftest import SBM256_FLAGS, row_block_threads, sbm256_fixture
from oracles import read_embeddings


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blocks"
    ds = gc.generate_sbm(10, 2, 0.5, 0.05, two_block_features(8), 0.3, seed=0)
    gc.write_dataset(ds, str(path))
    return str(path)


def quick_config(dataset_dir, out, **overrides):
    base = dict(dataset=dataset_dir, out=out, feature_missing=(0.3,),
                edge_missing=(0.2,), seeds=(0, 1), k=3, epochs=5,
                imputer_hidden=8, pe_hidden=16, ppnp_hidden=8, gcn_hidden=8,
                attention_dim=4, down_max_epochs=30, down_patience=10)
    base.update(overrides)
    return ExperimentConfig(**base)


# a non-default value for each setting the two training phases read
PHASE_SETTINGS = dict(alpha=0.2, k=4, temperature=0.7, imputer_hidden=6, pe_hidden=12,
                      ppnp_hidden=6, gcn_hidden=6, attention_dim=3, epochs=4,
                      recon_lr=0.02, recon_weight_decay=1e-4, recon_dropout=0.2,
                      down_lr=0.03, down_weight_decay=1e-3, down_dropout=0.3,
                      down_max_epochs=25, down_patience=8)


def output_tree(root):
    """Every output file's bytes by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def read_runs_csv(path):
    lines = open(path).read().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return lines[0], header, rows


class TestConfig:
    def test_digest_stable_and_sensitive(self, dataset_dir):
        a = quick_config(dataset_dir, "out")
        b = quick_config(dataset_dir, "out")
        assert a.digest() == b.digest()
        c = quick_config(dataset_dir, "out", alpha=0.2)
        assert c.digest() != a.digest()
        assert len(a.digest()) == 12

    def test_canonical_text_is_sorted_key_value(self, dataset_dir):
        text = quick_config(dataset_dir, "out").canonical_text()
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "alpha=0.1" in lines
        assert "seeds=0,1" in lines

    def test_digest_independent_of_container_type(self, dataset_dir):
        as_lists = quick_config(dataset_dir, "out", feature_missing=[0.3],
                                edge_missing=[0.2], seeds=[0, 1])
        as_tuples = quick_config(dataset_dir, "out")
        assert as_lists.canonical_text() == as_tuples.canonical_text()
        assert as_lists.digest() == as_tuples.digest()
        assert hash(as_lists) == hash(as_tuples)

    @pytest.mark.parametrize("key, value, message", [
        ("feature_mode", "bogus", "feature_mode"),
        ("feature_missing", (1.5,), "feature_missing"),
        ("edge_missing", (-0.1,), "edge_missing"),
        ("recon_dropout", 1.5, "recon_dropout"),
        ("recon_dropout", -0.1, "recon_dropout"),
        ("down_dropout", 1.0, "down_dropout"),
        ("imputer_hidden", 0, "imputer_hidden"),
        ("pe_hidden", 0, "pe_hidden"),
        ("ppnp_hidden", 0, "ppnp_hidden"),
        ("gcn_hidden", 0, "gcn_hidden"),
        ("attention_dim", 0, "attention_dim"),
        ("recon_lr", 10**400, "^recon_lr outside the float range$"),
        ("edge_missing", (0.1, -10**400), "^edge_missing outside the float range$"),
    ])
    def test_bad_value_names_its_field(self, dataset_dir, key, value, message):
        with pytest.raises(ValueError, match=message):
            quick_config(dataset_dir, "out", **{key: value})

    def test_empty_rate_list_rejected(self, dataset_dir):
        with pytest.raises(ValueError, match="pair"):
            quick_config(dataset_dir, "out", feature_missing=())

    def test_rate_pairs_broadcast(self, dataset_dir):
        cfg = quick_config(dataset_dir, "out",
                           feature_missing=(0.1, 0.3), edge_missing=(0.2,))
        assert cfg.rate_pairs() == [(0.1, 0.2), (0.3, 0.2)]
        cfg = quick_config(dataset_dir, "out",
                           feature_missing=(0.5,), edge_missing=(0.1, 0.2))
        assert cfg.rate_pairs() == [(0.5, 0.1), (0.5, 0.2)]

    def test_mismatched_rate_lists_rejected(self, dataset_dir):
        with pytest.raises(ValueError, match="pair"):
            quick_config(dataset_dir, "out",
                         feature_missing=(0.1, 0.2), edge_missing=(0.1, 0.2, 0.3))

    def test_validation(self, dataset_dir, tmp_path):
        # a config without a dataset is valid; running it is not, and fails
        # before anything is written
        out = tmp_path / "runs"
        with pytest.raises(ValueError, match="dataset"):
            run_experiment(ExperimentConfig(out=str(out)))
        assert not out.exists()
        with pytest.raises(ValueError, match="rate"):
            quick_config(dataset_dir, "out", feature_missing=(1.5,))
        with pytest.raises(ValueError, match="baseline"):
            quick_config(dataset_dir, "out", baseline="maybe")
        with pytest.raises(ValueError, match="seed"):
            quick_config(dataset_dir, "out", seeds=())
        with pytest.raises(ValueError, match="alpha"):
            quick_config(dataset_dir, "out", alpha=2.0)

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", 2.5, "epochs: expected int, got 2.5"),
        ("k", True, "k: expected int, got True"),
        ("seeds", (0, 0.0), "seeds: expected int, got 0.0"),
        ("alpha", "0.5", "alpha: expected float, got '0.5'"),
        ("feature_missing", (0.3, None), "feature_missing: expected float, got None"),
        ("dump_embeddings", 1, "dump_embeddings: expected bool, got 1"),
        ("dataset", 7, "dataset: expected str, got 7"),
    ])
    def test_wrong_type_names_its_field(self, key, value, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**{key: value})

    def test_int_accepted_for_float_setting(self):
        cfg = ExperimentConfig(temperature=2, feature_missing=[0, 1], down_lr=1)
        assert (cfg.temperature, cfg.feature_missing, cfg.down_lr) == (2, (0, 1), 1)

    @pytest.mark.parametrize("key, given, plain", [
        ("recon_lr", 1, 1.0),
        ("temperature", np.float64(2), 2.0),
        ("feature_missing", (np.float64(0.3),), (0.3,)),
        ("edge_missing", (0, 1), (0.0, 1.0)),
    ], ids=["int", "numpy-scalar", "numpy-element", "int-elements"])
    def test_equal_values_share_a_digest(self, key, given, plain):
        # a float setting is stored as float, whatever type the equal value came as
        cfg, ref = ExperimentConfig(**{key: given}), ExperimentConfig(**{key: plain})
        assert cfg.canonical_text() == ref.canonical_text()
        assert cfg.digest() == ref.digest()
        values = getattr(cfg, key)
        assert all(type(v) is float for v in (values if isinstance(values, tuple) else (values,)))

    def test_nan_rejected_for_every_ranged_setting(self):
        for key in experiment._RANGES:
            with pytest.raises(ValueError, match=rf"^{key} nan outside "):
                ExperimentConfig(**{key: float("nan")})

    @pytest.mark.parametrize("overrides, name", [
        (dict(seeds=(0, 0)), "fr0.3_er0.2_seed0"),
        (dict(feature_missing=(0.1000001, 0.1000002)), "fr0.1_er0.2_seed0"),
    ], ids=["repeated-seed", "rates-equal-when-printed"])
    def test_repeated_cell_name_rejected(self, dataset_dir, overrides, name):
        with pytest.raises(ValueError, match=rf"^sweep cell {name} is listed twice$"):
            quick_config(dataset_dir, "out", **overrides)

    def test_methods_per_baseline_setting(self, dataset_dir):
        assert quick_config(dataset_dir, "out").methods() == [RECON_METHOD,
                                                              BASELINE_METHOD]
        assert quick_config(dataset_dir, "out",
                            baseline="only").methods() == [BASELINE_METHOD]
        assert quick_config(dataset_dir, "out",
                            baseline="off").methods() == [RECON_METHOD]

    def test_subconfigs_inherit_fields(self, monkeypatch):
        # each phase hands the library its diffusion, contrastive and optimizer
        # settings as plain values read from the config's keys
        seen = []

        def recording(name, skip):
            inner = getattr(downstream, name)

            def wrapper(*args):
                seen.append(args[skip:])
                return inner(*args)
            monkeypatch.setattr(downstream, name, wrapper)

        # each call's leading arguments are data, not settings
        for name, skip in (("build_diffusion", 2), ("total_contrastive_loss", 3),
                           ("Optimizer", 1)):
            recording(name, skip)
        cfg = ExperimentConfig(alpha=0.4, k=3, temperature=0.9, epochs=1,
                               recon_lr=0.02, recon_weight_decay=0.003,
                               down_lr=0.05, down_weight_decay=0.001, down_max_epochs=1,
                               imputer_hidden=4, pe_hidden=4, ppnp_hidden=4,
                               gcn_hidden=4, attention_dim=4)
        ds = gc.generate_sbm(5, 2, 0.5, 0.05, two_block_features(4), 0.3, seed=0)
        splits = gc.make_splits(ds, seed=0)
        recon = gc.run_reconstruction(ds, cfg, seed=0)
        gc.train_downstream(recon, ds.labels, ds.num_classes, splits, cfg, seed=0)
        assert seen == [(0.4, 3), (0.02, 0.003), (0.9,), (0.05, 0.001)]

    def test_each_setting_moves_only_its_phase(self):
        # a phase that reads the other phase's key, or ignores one of its own,
        # shows here as a setting that moves the wrong phase
        ds = gc.apply_mask(gc.generate_sbm(5, 2, 0.5, 0.05, two_block_features(4), 0.3,
                                           seed=0), gc.MaskSpec(0.3, 0.2, "entry", 0))
        splits = gc.make_splits(ds, seed=0)
        base = ExperimentConfig(k=3, epochs=2, imputer_hidden=4, pe_hidden=4, ppnp_hidden=4,
                                gcn_hidden=4, attention_dim=4, down_max_epochs=6)
        recon = gc.run_reconstruction(ds, base, seed=0)

        def phases(cfg):
            state = gc.run_reconstruction(ds, cfg, seed=0)
            fit = gc.train_downstream(recon, ds.labels, ds.num_classes, splits, cfg, seed=0)
            return ((state.loss_history.tolist(), state.imputed.tolist()),
                    (fit.logits.tolist(), fit.metrics.loss_curve))

        recon_keys = {"alpha", "k", "temperature", "imputer_hidden", "pe_hidden",
                      "ppnp_hidden", "epochs", "recon_lr", "recon_weight_decay",
                      "recon_dropout"}
        # with 2 validation nodes, patience 1 stops within the 6 epochs
        changed = dict(alpha=0.2, k=4, temperature=0.7, imputer_hidden=5, pe_hidden=5,
                       ppnp_hidden=5, epochs=3, recon_lr=0.02, recon_weight_decay=1e-3,
                       recon_dropout=0.2, gcn_hidden=5, attention_dim=5, down_lr=0.02,
                       down_weight_decay=1e-3, down_dropout=0.3, down_max_epochs=7,
                       down_patience=1)
        assert set(changed) == set(experiment._RANGES) - {"workers"}
        before = phases(base)
        for key, value in changed.items():
            after = phases(dataclasses.replace(base, **{key: value}))
            moved = [a != b for a, b in zip(before, after)]
            assert moved == [key in recon_keys, key not in recon_keys], key


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.conf"
        path.write_text(text)
        return str(path)

    def test_parse_with_comments(self, tmp_path):
        path = self.write(tmp_path, """
# sweep settings
dataset = data/blocks
feature_missing = 0.1,0.5   # two rates
seeds = 0,1,2
alpha = 0.3
dump_embeddings = true
""")
        values = parse_config_file(path)
        assert values["dataset"] == "data/blocks"
        assert values["feature_missing"] == (0.1, 0.5)
        assert values["seeds"] == (0, 1, 2)
        assert values["alpha"] == 0.3
        assert values["dump_embeddings"] is True

    def test_unknown_key_reports_line(self, tmp_path):
        # ppr_method was a setting once; removed keys are unknown, not ignored
        for key, value in (("learning_rate", "0.1"), ("ppr_method", "closed_form")):
            path = self.write(tmp_path, f"dataset = x\n{key} = {value}\n")
            with pytest.raises(ValueError, match=rf":2: unknown key '{key}'"):
                parse_config_file(path)

    def test_key_set_twice_reports_both_lines(self, tmp_path):
        path = self.write(tmp_path, "epochs = 5\nepochs = 7\n")
        with pytest.raises(ValueError, match=r"run\.conf:2: key 'epochs' already set on line 1"):
            parse_config_file(path)

    def test_missing_equals_reports_line(self, tmp_path):
        path = self.write(tmp_path, "dataset x\n")
        with pytest.raises(ValueError, match=r":1: expected key=value"):
            parse_config_file(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = self.write(tmp_path, "dump_structure = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            parse_config_file(path)

    def test_overrides_beat_file_values(self, dataset_dir):
        file_values = {"dataset": dataset_dir, "epochs": 5, "alpha": "0.3"}
        cfg = make_config(file_values, {"epochs": "7", "alpha": None, "k": 3})
        assert cfg.epochs == 7          # override wins
        assert cfg.alpha == 0.3         # None override is skipped
        assert cfg.k == 3

    def test_int_fields_reject_floats(self, dataset_dir):
        with pytest.raises(ValueError):
            make_config({"dataset": dataset_dir, "epochs": "2.5"}, {})

    @pytest.mark.parametrize("key, raw", [
        ("epochs", "2.5"), ("alpha", "high"), ("seeds", "0,x"),
        ("feature_missing", "0.1,a"), ("dump_embeddings", "sometimes"),
        ("seeds", "0,,1"), ("feature_missing", "0.3,"), ("seeds", ""),
    ])
    def test_unreadable_value_error_names_the_key(self, dataset_dir, key, raw):
        with pytest.raises(ValueError, match=rf"^{key}: expected"):
            make_config({"dataset": dataset_dir}, {key: raw})


class TestEmbeddingsIO:
    def test_layout_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(2, 3))
        path = str(tmp_path / "emb.tsv")
        experiment._write_tsv(path, "view=test", m)
        lines = open(path).read().splitlines()
        assert lines[0] == "# view=test"
        assert len(lines) == 3
        assert all(len(ln.split("\t")) == 4 for ln in lines[1:])
        np.testing.assert_allclose(read_embeddings(path), m, rtol=1e-11)


class TestRunExperiment:
    def test_artifact_layout_and_summary(self, dataset_dir, tmp_path):
        out = str(tmp_path / "runs")
        cfg = quick_config(dataset_dir, out)
        result = run_experiment(cfg)

        first, header, rows = read_runs_csv(os.path.join(out, "runs.csv"))
        assert first == f"# config={cfg.digest()}"
        assert header == ["feature_missing", "edge_missing", "seed", "method",
                          "test_accuracy", "val_accuracy", "train_accuracy",
                          "best_epoch"]
        # 1 rate pair x 2 seeds x 2 methods
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {RECON_METHOD, BASELINE_METHOD}
        assert {r["seed"] for r in rows} == {"0", "1"}

        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["digest"] == cfg.digest()
        # the config copy holds what the digest covers: no out, no workers
        digested = {line.split("=", 1)[0] for line in cfg.canonical_text().splitlines()}
        assert set(summary["config"]) == digested == {
            f.name for f in dataclasses.fields(cfg)} - {"out", "workers"}
        key = "feature_missing=0.3,edge_missing=0.2"
        for method in (RECON_METHOD, BASELINE_METHOD):
            got = [float(r["test_accuracy"]) for r in rows if r["method"] == method]
            stats = summary["results"][method][key]
            assert stats["n"] == 2
            assert stats["mean"] == pytest.approx(np.mean(got), abs=1e-9)
            assert stats["sd"] == pytest.approx(np.std(got), abs=1e-9)
            assert sorted(stats["test_accuracies"]) == sorted(got)
        # the returned summary is the file's content (json writes the config's tuples as arrays)
        assert json.loads(json.dumps(result["summary"])) == summary

        # per-cell loss curves: reconstruction has one line per epoch
        for seed in (0, 1):
            tag = f"fr0.3_er0.2_seed{seed}"
            recon_csv = os.path.join(out, "losses", f"recon_{tag}.csv")
            lines = open(recon_csv).read().splitlines()
            assert lines[0].startswith("# config=")
            assert lines[1] == "epoch,feature_term,structure_term,total"
            assert len(lines) == 2 + cfg.epochs
            for method in (RECON_METHOD, BASELINE_METHOD):
                down_csv = os.path.join(out, "losses",
                                        f"downstream_{tag}_{method}.csv")
                assert os.path.exists(down_csv)

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        out = str(tmp_path / "runs")
        cfg = quick_config(dataset_dir, out, seeds=(0,))
        run_experiment(cfg)
        before = {}
        for root, _, names in os.walk(out):
            for name in names:
                p = os.path.join(root, name)
                before[p] = open(p, "rb").read()
        run_experiment(cfg)
        for p, blob in before.items():
            assert open(p, "rb").read() == blob, p

    def test_workers_do_not_change_outputs(self, dataset_dir, tmp_path):
        trees = {}
        for name, workers in (("serial", 1), ("pooled", 4)):
            root = tmp_path / name
            run_experiment(quick_config(dataset_dir, str(root), seeds=(0, 1, 2),
                                        dump_embeddings=True, dump_structure=True,
                                        workers=workers))
            trees[name] = output_tree(root)
        serial, pooled = trees["serial"], trees["pooled"]
        # runs.csv and summary.json, then per cell 3 loss curves, 4 embedding
        # tables and its structure
        assert len(serial) == 2 + 3 * (3 + 4 + 1)
        assert sorted(serial) == sorted(pooled)
        for name, blob in serial.items():
            assert pooled[name] == blob, name

    def test_row_block_threads_do_not_change_outputs(self, tmp_path):
        data = tmp_path / "sbm256"
        gc.write_dataset(sbm256_fixture(), str(data))
        flags = [*SBM256_FLAGS, "--dataset", str(data)]
        trees = {}
        for threads, workers in ((1, 1), (2, 1), (2, 2), (1, 2)):
            root = tmp_path / f"threads{threads}_workers{workers}"
            with row_block_threads(threads):
                assert main([*flags, "--out", str(root), "--workers", str(workers)]) == 0
            trees[threads, workers] = output_tree(root)
        reference = trees.pop((1, 1))
        assert len(reference) == 2 + 2 * (3 + 4 + 1)
        for tree in trees.values():
            assert tree == reference

    def test_baseline_only_matches_direct_call(self, dataset_dir, tmp_path):
        # at a non-default value of every phase setting, each runs.csv row is
        # what direct phase calls with the same config give, bit for bit
        default = ExperimentConfig()
        assert set(PHASE_SETTINGS) == set(experiment._RANGES) - {"workers"}
        assert all(v != getattr(default, k) for k, v in PHASE_SETTINGS.items())
        ds = gc.load_dataset(dataset_dir)
        masked = gc.apply_mask(ds, gc.MaskSpec(0.3, 0.2, "entry", 3))
        splits = gc.make_splits(masked, seed=3)
        for baseline in ("only", "with"):
            out = str(tmp_path / baseline)
            cfg = quick_config(dataset_dir, out, baseline=baseline, seeds=(3,),
                               **PHASE_SETTINGS)
            run_experiment(cfg)
            _, _, rows = read_runs_csv(os.path.join(out, "runs.csv"))
            direct = {BASELINE_METHOD: gc.train_gcn_baseline(masked, splits, cfg, seed=3)}
            if baseline == "with":
                recon = gc.run_reconstruction(masked, cfg, seed=3)
                direct[RECON_METHOD] = gc.train_downstream(
                    recon, masked.labels, masked.num_classes, splits, cfg, seed=3)
            assert [r["method"] for r in rows] == cfg.methods()
            for row in rows:
                m = direct[row["method"]].metrics
                assert row == {"feature_missing": "0.3", "edge_missing": "0.2", "seed": "3",
                               "method": row["method"],
                               "test_accuracy": f"{m.test_accuracy:.10g}",
                               "val_accuracy": f"{m.val_accuracy:.10g}",
                               "train_accuracy": f"{m.train_accuracy:.10g}",
                               "best_epoch": str(m.best_epoch)}
                curve = os.path.join(out, "losses",
                                     f"downstream_fr0.3_er0.2_seed3_{row['method']}.csv")
                assert open(curve).read().splitlines()[2:] == [
                    f"{e},{v:.10g}" for e, v in enumerate(m.loss_curve)]

    def test_dump_flags_write_artifacts(self, dataset_dir, tmp_path):
        out = str(tmp_path / "runs")
        cfg = quick_config(dataset_dir, out, seeds=(0,), baseline="off",
                           dump_embeddings=True, dump_structure=True)
        run_experiment(cfg)
        tag = "fr0.3_er0.2_seed0"
        cell = os.path.join(out, "embeddings", tag)
        for name in ("fused.tsv", "imputed.tsv", "propagated.tsv"):
            emb = read_embeddings(os.path.join(cell, name))
            assert emb.shape[0] == 20
        weights = open(os.path.join(cell, "fusion_weights.tsv")).read().splitlines()
        assert weights[1] == "node\tw_feature\tw_structure"
        structure = open(os.path.join(out, "structure", f"{tag}.tsv")).read()
        assert structure.startswith("# config=")
        for line in structure.splitlines()[1:]:
            u, v, w = line.split("\t")
            int(u), int(v), float(w)

    def test_failed_cell_reports_its_coordinates(self, tmp_path):
        # a 2-member class makes split construction fail inside the cell;
        # the sweep must say which cell died
        features = np.ones((10, 2))
        labels = np.array([0] * 8 + [1] * 2)
        ds = gc.GraphDataset(features, np.ones_like(features, dtype=bool),
                             np.zeros((0, 2), dtype=np.int64), labels, 2).validate()
        path = tmp_path / "lopsided"
        gc.write_dataset(ds, str(path))
        cfg = quick_config(str(path), str(tmp_path / "out"), seeds=(0,))
        with pytest.raises(RuntimeError,
                           match=r"cell feature_missing=0.3 edge_missing=0.2 seed=0"):
            run_experiment(cfg)


    def test_failed_cell_stops_the_sweep(self, dataset_dir, tmp_path, monkeypatch):
        # the queued cells are cancelled: besides the failed cell, only those
        # already running when it failed get to finish
        ran, release = [], threading.Event()

        def stub(ds, cfg, fr, er, seed):
            ran.append(seed)
            if seed == 0:
                raise ValueError("first cell fails")
            release.wait(0.5)
            return None, {}

        monkeypatch.setattr(experiment, "_run_cell", stub)
        cfg = quick_config(dataset_dir, str(tmp_path / "out"), seeds=tuple(range(10)),
                           workers=2)
        with pytest.raises(RuntimeError, match="seed=0 failed: first cell fails"):
            run_experiment(cfg)
        assert 1 <= len(ran) <= 1 + cfg.workers

    @pytest.mark.parametrize("failing, on_caller", [(1, False), (2, True)],
                             ids=["pools_cell", "callers_cell"])
    def test_failed_cell_is_raised_after_the_cells_before_it(self, dataset_dir, tmp_path,
                                                             monkeypatch, failing, on_caller):
        # at two workers the caller runs cell 0 and the pool thread cell 1;
        # then either the pool thread's cell 1 fails, or the caller's cell 2
        # fails while the pool thread's cell 1 still runs.  The error names
        # the failed cell, and runs.csv holds the rows of every cell before it
        real, threads = experiment._run_cell, {}
        started = {seed: threading.Event() for seed in (0, 1, 2)}

        def stub(ds, cfg, fr, er, seed):
            threads[seed] = threading.current_thread()
            started[seed].set()
            if seed < 2 and (seed == 0 or on_caller):   # cell 1, then cell 2, has started
                assert started[seed + 1].wait(10)
            if seed == failing:
                raise ValueError(f"cell {seed} fails")
            return real(ds, cfg, fr, er, seed)

        monkeypatch.setattr(experiment, "_run_cell", stub)
        out = tmp_path / "out"
        cfg = quick_config(dataset_dir, str(out), seeds=(0, 1, 2), workers=2)
        with row_block_threads(2):
            with pytest.raises(RuntimeError, match=f"seed={failing} failed: cell {failing} fails"):
                run_experiment(cfg)
        assert (threads[failing] is threading.main_thread()) == on_caller
        _, _, rows = read_runs_csv(out / "runs.csv")
        assert [(r["seed"], r["method"]) for r in rows] == [
            (str(seed), method) for seed in range(failing) for method in cfg.methods()]

    def test_failed_write_stops_the_sweep(self, dataset_dir, tmp_path, monkeypatch):
        # an error in the writer cancels the queued cells as well: only the
        # written cell and those already running get computed.  The first
        # cell is done at once, so it is written while the others still run.
        ran = []

        def stub(ds, cfg, fr, er, seed):
            ran.append(seed)
            time.sleep(0.2 if seed else 0.0)
            return None, {}

        def full_disk(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(experiment, "_run_cell", stub)
        monkeypatch.setattr(experiment, "_write_cell", full_disk)
        cfg = quick_config(dataset_dir, str(tmp_path / "out"), seeds=tuple(range(10)),
                           workers=2)
        with pytest.raises(OSError, match="no space left"):
            run_experiment(cfg)
        assert 1 <= len(ran) <= 1 + cfg.workers


class TestMain:
    def test_package_runs_as_a_module_without_warning(self):
        # the package directory this suite imports, so the child imports it too
        src = os.path.dirname(os.path.dirname(gc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "graphcomplete", "--help"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: graphcomplete")

    def test_cli_run_prints_summary(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code = main(["--dataset", dataset_dir, "--out", out,
                     "--feature-missing", "0.3", "--edge-missing", "0.2",
                     "--seeds", "0", "--epochs", "3", "--k", "3",
                     "--imputer-hidden", "8", "--pe-hidden", "16",
                     "--ppnp-hidden", "8", "--gcn-hidden", "8",
                     "--attention-dim", "4", "--down-max-epochs", "10",
                     "--down-patience", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "feature_missing=0.3,edge_missing=0.2" in captured.out
        assert "mean=" in captured.out
        assert os.path.exists(os.path.join(out, "summary.json"))

    def test_config_file_plus_override(self, dataset_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"""dataset = {dataset_dir}
out = {tmp_path / 'file-out'}
feature_missing = 0.3
edge_missing = 0.2
seeds = 0
epochs = 3
k = 3
imputer_hidden = 8
pe_hidden = 16
ppnp_hidden = 8
gcn_hidden = 8
attention_dim = 4
down_max_epochs = 10
down_patience = 5
""")
        override_out = str(tmp_path / "cli-out")
        code = main(["--config", str(conf), "--out", override_out])
        assert code == 0
        assert os.path.exists(os.path.join(override_out, "runs.csv"))
        assert not os.path.exists(os.path.join(str(tmp_path / "file-out"), "runs.csv"))

    def test_error_exits_nonzero(self, tmp_path, capsys):
        code = main(["--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


# a non-default value for every config field, as it would be typed on the
# command line; adding a field without adding it here fails the parity test
NON_DEFAULT_FLAGS = {
    "dataset": "data/other", "out": "elsewhere", "feature_missing": "0.1,0.5",
    "edge_missing": "0.4", "feature_mode": "row", "seeds": "3,4",
    "baseline": "only", "alpha": "0.2", "k": "7", "temperature": "0.7",
    "imputer_hidden": "9", "pe_hidden": "10", "ppnp_hidden": "11",
    "gcn_hidden": "12", "attention_dim": "13", "epochs": "3", "recon_lr": "0.02",
    "recon_weight_decay": "0.1", "recon_dropout": "0.1", "down_lr": "0.05",
    "down_weight_decay": "0.001", "down_dropout": "0.2", "down_max_epochs": "9",
    "down_patience": "4",
    "dump_embeddings": True, "dump_structure": True, "workers": "2",
}


# a value each flag rejects, with the key its error names: every ranged
# setting out of range, unreadable values, a repeated sweep cell and an
# empty dataset path
BAD_VALUES = [
    ("--feature-mode", "bogus", "feature_mode"),
    ("--down-dropout", "1.0", "down_dropout"),
    ("--recon-dropout", "1.5", "recon_dropout"),
    ("--recon-dropout", "-0.1", "recon_dropout"),
    ("--imputer-hidden", "0", "imputer_hidden"),
    ("--epochs", "2.5", "epochs"),
    ("--seeds", "0,x", "seeds"),
    ("--recon-lr", "-1", "recon_lr"),
    ("--down-lr", "-1", "down_lr"),
    ("--recon-weight-decay", "-1", "recon_weight_decay"),
    ("--down-weight-decay", "-1", "down_weight_decay"),
    ("--workers", "0", "workers"),
    ("--epochs", "-1", "epochs"),
    ("--down-max-epochs", "-1", "down_max_epochs"),
    ("--down-patience", "0", "down_patience"),
    ("--down-patience", "-3", "down_patience"),
    ("--alpha", "1.0", "alpha"),
    ("--k", "-1", "k"),
    ("--temperature", "0", "temperature"),
    ("--pe-hidden", "0", "pe_hidden"),
    ("--ppnp-hidden", "0", "ppnp_hidden"),
    ("--gcn-hidden", "0", "gcn_hidden"),
    ("--attention-dim", "0", "attention_dim"),
    ("--seeds", "0,0", "fr0.3_er0.3_seed0"),
    ("--dataset", "", "dataset"),
]


class TestCommandLine:
    def test_destinations_are_the_config_fields(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        dests = {a.dest for a in experiment._build_parser()._actions} - {"help"}
        assert dests == names | {"config"}
        assert set(NON_DEFAULT_FLAGS) == names

    def test_every_flag_reaches_the_config_typed(self, monkeypatch):
        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            return {"summary": {"results": {}, "digest": "x"}, "paths": {"out": "x"}}

        monkeypatch.setattr(experiment, "run_experiment", fake_run)
        argv = []
        for name, value in NON_DEFAULT_FLAGS.items():
            argv.append("--" + name.replace("_", "-"))
            if value is not True:
                argv.append(value)
        assert main(argv) == 0
        cfg, = seen
        default = ExperimentConfig(dataset="d")
        for f in dataclasses.fields(ExperimentConfig):
            value = getattr(cfg, f.name)
            assert value != getattr(default, f.name), f.name
            assert type(value) is type(f.default), f.name
            if isinstance(value, tuple):
                assert all(type(v) is type(f.default[0]) for v in value), f.name
        assert cfg.seeds == (3, 4) and cfg.recon_lr == 0.02 and cfg.baseline == "only"

    def test_help_shows_the_help_strings(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for f in dataclasses.fields(ExperimentConfig):
            assert f.metadata["help"] in text, f.name
        for kept in ("dataset directory", "reconstruction epochs",
                     "comma list of seeds", "write per-cell embedding tsv files"):
            assert kept in text

    def test_removed_setting_is_an_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--dataset", "d", "--ppr-method", "closed_form"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --ppr-method" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, key", BAD_VALUES)
    def test_bad_value_fails_before_any_work(self, dataset_dir, tmp_path, capsys,
                                             flag, value, key):
        out = tmp_path / "out"
        code = main(["--dataset", dataset_dir, "--out", str(out), flag, value])
        err = capsys.readouterr().err
        assert code == 1
        # a ranged setting's error starts with its key
        assert re.match(rf"error: {key}[ :]" if key in experiment._RANGES else "error: ", err)
        assert key in err
        assert not out.exists()

    def test_every_ranged_setting_fails_through_the_cli(self):
        assert {key for _, _, key in BAD_VALUES} >= set(experiment._RANGES)
