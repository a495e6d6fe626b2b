"""Experiment pipeline, sweep, and CLI surface tests."""

import csv
import io
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
import yaml

import driftrec.cli as cli
from driftrec.cli import main
from driftrec.data import timestamp_split
from driftrec.decay import DecaySpec, build_weighted_graph
from driftrec.experiment import (
    ExperimentConfig,
    build_positives,
    load_config,
    load_split,
    run,
    sweep,
    write_sweep_csv,
)
from driftrec.positives import AUDIT_CHUNK, PositiveSampleSet, build_pss, filtrate
from driftrec.synthetic import SyntheticSpec, generate, write_tsv
from conftest import (
    checkpoint_bytes,
    damaged_checkpoints,
    pair_weight_lookup,
    read_checkpoint_members,
)


@pytest.fixture(scope="module")
def tiny_tsv(tmp_path_factory):
    """Small synthetic drift log on disk, shared by the CLI tests."""
    log = generate(SyntheticSpec(num_users=25, num_items=40, num_events=900,
                                 groups_per_pool=5, seed=13))
    path = tmp_path_factory.mktemp("data") / "events.tsv"
    with open(path, "w") as f:
        write_tsv(log, f)
    return str(path)


def fast_overrides(**extra):
    base = dict(d=8, epochs=4, eval_every=2, batch_size=256, lr=0.02, seeds=(0,))
    base.update(extra)
    return base


class TestLoadConfig:
    def test_defaults(self):
        config = load_config()
        assert config.variant == "layered"
        assert config.layers == 3
        assert config.ks == (20, 30)
        assert config.seeds == (0,)

    def test_yaml_overrides_defaults(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text(yaml.safe_dump({"rate": 0.05, "layers": 2, "sampler": "dns"}))
        config = load_config(str(path))
        assert config.rate == 0.05 and config.layers == 2 and config.sampler == "dns"
        assert config.lr == 0.001  # untouched default

    def test_overrides_beat_yaml(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text(yaml.safe_dump({"rate": 0.05}))
        config = load_config(str(path), {"rate": 0.2})
        assert config.rate == 0.2

    def test_none_overrides_ignored(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text(yaml.safe_dump({"rate": 0.05}))
        config = load_config(str(path), {"rate": None})
        assert config.rate == 0.05

    def test_exponent_float_in_yaml_is_a_number(self, tmp_path):
        """YAML 1.2 floats: PyYAML's YAML 1.1 resolver reads 1e-3 as a string."""
        path = tmp_path / "conf.yaml"
        path.write_text("lr: 1e-3\nl2: 5.0e-5\nrate: 2E+1\n")
        config = load_config(str(path))
        assert (config.lr, config.l2, config.rate) == (0.001, 5e-5, 20.0)

    def test_unknown_yaml_key_errors(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text(yaml.safe_dump({"learning_rate": 0.1}))
        with pytest.raises(ValueError, match="unknown config keys: learning_rate"):
            load_config(str(path))

    def test_unknown_override_errors(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(None, {"momentum": 0.9})

    def test_non_mapping_yaml_errors(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ValueError, match="flat mapping"):
            load_config(str(path))

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            ExperimentConfig(variant="hybrid")

    def test_no_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seeds=())

    @pytest.mark.parametrize("key,value,message", [
        ("lr", 0, "lr must be positive"),
        ("optimizer", "rmsprop", "unknown optimizer 'rmsprop'"),
        ("pool", 0, "pool must be >= 1"),
        ("decay", "step", "unknown decay kind 'step'"),
        ("rate", -1, "decay rate must be >= 0"),
        ("ks", (), "cutoffs must be positive"),
        ("ks", (0,), "cutoffs must be positive"),
        ("ks", (5, -1), "cutoffs must be positive"),
        ("layers", 0, "n must be >= 1"),
        ("range_mode", "quantile", "unknown range_mode 'quantile'"),
        ("recent_k", 0, "k must be >= 1"),
        ("train_fraction", 1.5, r"train_fraction must be in \(0, 1\)"),
        ("val_fraction_of_holdout", -0.5, r"val_fraction_of_holdout must be in \[0, 1\]"),
        ("backbone", "gcn", r"unknown backbone 'gcn', expected one of \('mf', 'lightgcn'\)"),
        ("data_format", "xml", "unknown format 'xml', expected 'tsv' or 'csv'"),
        # a repeated seed is one run counted twice; a repeated cutoff, its summary rows twice
        ("ks", (20, 30, 20), r"ks must not repeat a value, got \(20, 30, 20\)$"),
        ("seeds", [0, 0], r"seeds must not repeat a value, got \(0, 0\)$"),
    ])
    def test_every_checked_key_is_checked_when_built(self, key, value, message):
        """Training, sampler, decay and cutoff keys fail at load, even where
        the variant (baseline) or sampler (rns) would never use them."""
        with pytest.raises(ValueError, match=f"^{message}"):
            load_config(None, {"variant": "baseline", "sampler": "rns", key: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig) if f.type == "float"])
    def test_non_finite_float_key_is_rejected_when_built(self, key, value):
        """NaN passes every sign and range check, so each float key is
        checked for finiteness first."""
        with pytest.raises(ValueError, match=f"^{key} must be a finite number, got {value!r}$"):
            load_config(None, {"variant": "baseline", "sampler": "rns", key: value})


@pytest.fixture(scope="module")
def split():
    log = generate(SyntheticSpec(num_users=30, num_items=50, num_events=1500, seed=21))
    return timestamp_split(log)


@pytest.fixture(scope="module")
def log():
    return generate(SyntheticSpec(num_users=30, num_items=50, num_events=1500, seed=22))


class TestBuildPositives:
    def test_layered_matches_direct_construction(self, split):
        config = ExperimentConfig(variant="layered", rate=0.03, layers=4)
        pss, weights = build_positives(split, config)
        assert weights is None
        graph = build_weighted_graph(split.train, DecaySpec(rate=0.03))
        want = build_pss(filtrate(graph, 4))
        assert np.array_equal(pss.users, want.users)
        assert np.array_equal(pss.items, want.items)
        assert np.array_equal(pss.layers, want.layers)
        layered = filtrate(graph, 4)
        sizes = [layered.layer_edge_indices(i).size for i in range(1, 5)]
        assert len(pss) == sum((i + 1) * s for i, s in enumerate(sizes))

    @pytest.mark.parametrize("variant", ["layered", "baseline", "weighted_bpr", "recent_k"])
    def test_no_multiset_pair_in_holdout(self, variant, tiny_tsv):
        """The split keeps train and holdout pairs apart, so no variant needs a filter."""
        split = load_split(ExperimentConfig(data_path=tiny_tsv))
        pss, _ = build_positives(split, ExperimentConfig(variant=variant, recent_k=5))
        held = {
            (u, i)
            for part in (split.validation, split.test)
            for u, i in zip(part.users.tolist(), part.items.tolist())
        }
        assert held and len(pss)
        assert not held & set(zip(pss.users.tolist(), pss.items.tolist()))

    def test_baseline_is_train_edges(self, split):
        pss, weights = build_positives(split, ExperimentConfig(variant="baseline"))
        assert weights is None
        assert np.array_equal(pss.users, split.train.users)
        assert np.array_equal(pss.items, split.train.items)

    def test_recent_k_caps_per_user(self, split):
        config = ExperimentConfig(variant="recent_k", recent_k=3)
        pss, weights = build_positives(split, config)
        assert weights is None
        counts = np.bincount(pss.users, minlength=split.num_users)
        assert counts.max() <= 3

    def test_weighted_bpr_weights_match_graph(self, split):
        config = ExperimentConfig(variant="weighted_bpr", rate=0.02)
        pss, weights = build_positives(split, config)
        assert weights is not None and weights.shape == (len(pss),)
        lookup = pair_weight_lookup(build_weighted_graph(split.train, DecaySpec(rate=0.02)))
        for u, p, w in zip(pss.users.tolist(), pss.items.tolist(), weights.tolist()):
            assert w == lookup[(u, p)]


    def test_weighted_bpr_set_carries_its_loss_weights(self, split):
        """The one-layer set records the recency weights that scale its loss,
        so its audit shows them."""
        pss, weights = build_positives(split, ExperimentConfig(variant="weighted_bpr", rate=0.02))
        graph = build_weighted_graph(split.train, DecaySpec(rate=0.02))
        assert pss.weights.tobytes() == weights.tobytes() == graph.weights.tobytes()
        assert np.all(pss.layers == 1)
        assert np.array_equal(pss.users, split.train.users)
        assert np.array_equal(pss.items, split.train.items)


class TestRun:
    def test_record_per_seed_and_summary(self, log):
        config = ExperimentConfig(**fast_overrides(seeds=(0, 1, 2), ks=(5, 10)))
        result = run(config, log)
        assert [r["seed"] for r in result.results] == [0, 1, 2]
        for rec in result.results:
            assert rec["variant"] == "layered"
            assert {"recall@5", "ndcg@5", "recall@10", "ndcg@10",
                    "best_epoch", "pss_size", "users_evaluated"} <= set(rec)
        assert len(result.summary) == 4  # 2 metrics x 2 cutoffs
        for row in result.summary:
            assert row["num_seeds"] == 3

    def test_rerun_byte_identical(self, log):
        config = ExperimentConfig(**fast_overrides(seeds=(0, 1), ks=(5,)))
        a = run(config, log)
        b = run(config, log)
        assert a.results_jsonl() == b.results_jsonl()
        assert a.summary_csv() == b.summary_csv()

    def test_out_dir_files(self, log, tmp_path):
        out = str(tmp_path / "exp")
        config = ExperimentConfig(**fast_overrides(
            ks=(5,), out_dir=out, write_epoch_metrics=True))
        result = run(config, log)
        assert open(os.path.join(out, "results.jsonl")).read() == result.results_jsonl()
        # newline="" stops universal-newline translation of csv's \r\n
        assert open(os.path.join(out, "summary.csv"), newline="").read() == result.summary_csv()
        saved = json.load(open(os.path.join(out, "config.json")))
        assert saved["ks"] == [5] and saved["out_dir"] == out
        metrics = [json.loads(line)
                   for line in open(os.path.join(out, "epoch_metrics_seed0.jsonl"))]
        assert len(metrics) == 4 // 2
        assert all("wall_ms" in m for m in metrics)

    def test_results_have_no_wall_times(self, log):
        config = ExperimentConfig(**fast_overrides(ks=(5,)))
        result = run(config, log)
        for rec in result.results:
            assert not any("wall" in key for key in rec)

    def test_variants_all_run(self, log):
        for variant in ("layered", "baseline", "weighted_bpr", "recent_k"):
            config = ExperimentConfig(**fast_overrides(
                variant=variant, epochs=2, ks=(5,)))
            result = run(config, log)
            assert result.results[0]["variant"] == variant

    def test_missing_data_path(self):
        with pytest.raises(ValueError, match="data_path"):
            load_split(ExperimentConfig())


class TestSweep:
    def test_one_at_a_time_rows(self, log):
        config = ExperimentConfig(**fast_overrides(epochs=2, ks=(5,)))
        rows = sweep(config, {"rate": [0.005, 0.02, 0.1]}, log=log)
        assert len(rows) == 3
        assert [row["rate"] for row in rows] == [0.005, 0.02, 0.1]
        assert all(row["error"] == "" for row in rows)
        assert all("recall@5" in row for row in rows)

    def test_layer_count_sweep(self, log):
        config = ExperimentConfig(**fast_overrides(epochs=2, ks=(5,)))
        rows = sweep(config, {"layers": [1, 2, 3, 4, 5]}, log=log)
        assert [row["layers"] for row in rows] == [1, 2, 3, 4, 5]
        assert all(row["error"] == "" for row in rows)

    def test_grid_mode(self, log):
        config = ExperimentConfig(**fast_overrides(epochs=2, ks=(5,)))
        rows = sweep(config, {"rate": [0.01, 0.05], "layers": [1, 2]},
                     mode="grid", log=log)
        assert len(rows) == 4
        combos = {(row["rate"], row["layers"]) for row in rows}
        assert combos == {(0.01, 1), (0.01, 2), (0.05, 1), (0.05, 2)}

    def test_multiple_seeds_multiply_rows(self, log):
        config = ExperimentConfig(**fast_overrides(epochs=2, ks=(5,), seeds=(0, 1)))
        rows = sweep(config, {"rate": [0.01, 0.05]}, log=log)
        assert len(rows) == 4
        assert [row["seed"] for row in rows] == [0, 1, 0, 1]

    def test_error_rows_keep_sweep_alive(self, log):
        config = ExperimentConfig(**fast_overrides(epochs=2, ks=(5,)))
        rows = sweep(config, {"rate": [-1.0, 0.02]}, log=log)
        assert len(rows) == 2
        assert rows[0]["error"].startswith("ValueError")
        assert "recall@5" not in rows[0]
        assert rows[1]["error"] == "" and "recall@5" in rows[1]

    def test_setting_bad_for_training_is_an_error_row(self, log):
        config = ExperimentConfig(**fast_overrides(epochs=2, ks=(5,)))
        rows = sweep(config, {"lr": [0, 0.02]}, log=log)
        assert rows[0] == {"lr": 0, "seed": "", "error": "ValueError: lr must be positive"}
        assert rows[1]["error"] == "" and "recall@5" in rows[1]

    def test_unknown_param_errors_upfront(self, log):
        config = ExperimentConfig(**fast_overrides())
        with pytest.raises(ValueError, match="unknown sweep parameters: gamma"):
            sweep(config, {"gamma": [1]}, log=log)

    def test_bad_mode_and_empty_grid(self, log):
        config = ExperimentConfig(**fast_overrides())
        with pytest.raises(ValueError, match="sweep mode"):
            sweep(config, {"rate": [0.1]}, mode="random", log=log)
        with pytest.raises(ValueError, match="empty"):
            sweep(config, {}, log=log)

    def test_csv_export(self, log):
        config = ExperimentConfig(**fast_overrides(epochs=2, ks=(5,)))
        rows = sweep(config, {"rate": [-1.0, 0.02]}, log=log)
        buf = io.StringIO()
        write_sweep_csv(rows, ["rate"], (5,), buf)
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert list(parsed[0]) == ["rate", "seed", "recall@5", "ndcg@5", "error"]
        assert parsed[0]["error"].startswith("ValueError")
        assert parsed[1]["error"] == ""
        float(parsed[1]["recall@5"])


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_split_manifest(self, tiny_tsv, tmp_path, capsys):
        out = str(tmp_path / "manifest.jsonl")
        rc = self.run_cli("split", "--data", tiny_tsv, "--out", out)
        assert rc == 0
        lines = [json.loads(line) for line in open(out)]
        assert {rec["split"] for rec in lines} == {"train", "validation", "test"}
        assert set(lines[0]) == {"split", "user_index", "item_index", "timestamp"}
        summary = json.loads(capsys.readouterr().err)
        assert summary["train"] + summary["validation"] + summary["test"] == len(lines)

    def test_build_pss_dump(self, tiny_tsv, tmp_path, capsys):
        out = str(tmp_path / "pss.jsonl")
        rc = self.run_cli("build-pss", "--data", tiny_tsv, "--layers", "2",
                          "--rate", "0.05", "--out", out)
        assert rc == 0
        recs = [json.loads(line) for line in open(out)]
        assert all(set(r) == {"user_index", "item_index", "multiplicity", "layer", "weight"}
                   for r in recs)
        assert {r["layer"] for r in recs} <= {1, 2}
        stats = json.loads(capsys.readouterr().err)
        assert stats["pss_size"] == sum(r["multiplicity"] for r in recs)

    def test_build_pss_dump_is_json_of_each_record(self, tiny_tsv, tmp_path, monkeypatch):
        """Each audit line is json.dumps(record, sort_keys=True), for weights
        of every float form and missing ones, across several audit chunks."""
        rng = np.random.default_rng(12)
        keys = np.sort(rng.choice(10**6, size=3 * AUDIT_CHUNK, replace=False))
        weights = rng.random(keys.size) * 10.0 ** rng.integers(-320, 300, size=keys.size)
        weights[:6] = [np.nan, 0.1, 1 / 3, 5e-324, 1e16, 1e-05]
        weights[::5] = np.nan
        pss = PositiveSampleSet(users=keys // 1000, items=keys % 1000,
                                layers=rng.integers(0, 4, size=keys.size), weights=weights,
                                num_users=1000, num_items=1000)
        monkeypatch.setattr(cli, "build_positives", lambda split, config: (pss, None))
        out = tmp_path / "pss.jsonl"
        assert self.run_cli("build-pss", "--data", tiny_tsv, "--out", str(out)) == 0
        want = "".join(json.dumps(r, sort_keys=True) + "\n" for r in pss.audit_records())
        assert out.read_text() == want

    def test_train_eval_round_trip(self, tiny_tsv, tmp_path, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        metrics = str(tmp_path / "epochs.jsonl")
        rc = self.run_cli(
            "train", "--data", tiny_tsv, "--epochs", "4", "--eval-every", "2",
            "--d", "8", "--lr", "0.02", "--batch-size", "256",
            "--sampler", "dns", "--pool", "5",
            "--checkpoint-out", ckpt, "--metrics-out", metrics,
        )
        assert rc == 0
        test_doc = json.loads(capsys.readouterr().out)
        assert "recall@20" in test_doc and "ndcg@30" in test_doc
        assert test_doc["best_epoch"] in (2, 4)
        epoch_lines = [json.loads(line) for line in open(metrics)]
        assert [rec["epoch"] for rec in epoch_lines] == [2, 4]
        assert set(epoch_lines[0]) == {
            "epoch", "loss", "recall@20", "ndcg@20", "recall@30", "ndcg@30", "wall_ms",
        }

        csv_out = str(tmp_path / "eval.csv")
        per_user = str(tmp_path / "per_user.jsonl")
        rc = self.run_cli("eval", "--data", tiny_tsv, "--checkpoint", ckpt,
                          "--ks", "5,10", "--csv-out", csv_out,
                          "--per-user-out", per_user)
        assert rc == 0
        eval_doc = json.loads(capsys.readouterr().out)
        assert set(eval_doc["metrics"]) == {"5", "10"}
        rows = list(csv.DictReader(open(csv_out)))
        assert [row["k"] for row in rows] == ["5", "10"]
        user_rows = [json.loads(line) for line in open(per_user)]
        assert "recall@5" in user_rows[0]

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--ks", "20,x"),
        ("train", "--ks", "20,,30"),
        ("run", "--seeds", "1.5"),
    ])
    def test_malformed_list_flag_names_its_key(self, command, flag, value, capsys):
        assert self.run_cli(command, "--data", "/nonexistent", flag, value) == 1
        key = flag[2:]
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"{key} must be a list of integers, got {value!r}",
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dns_score_overflow_is_the_diverged_record(self, tiny_tsv, capsys):
        """At lr=1e200 the first Adam step leaves finite parameters whose dns
        candidate scores overflow to NaN; the run ends in the divergence
        record, not an index error."""
        rc = self.run_cli("train", "--data", tiny_tsv, "--epochs", "2", "--d", "8",
                          "--lr", "1e200", "--batch-size", "256", "--sampler", "dns",
                          "--pool", "5")
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "TrainingDiverged",
            "message": "non-finite candidate scores in batch 2 of the epoch",
        }

    def test_train_metrics_stream_is_rewritten_per_run(self, tiny_tsv, tmp_path):
        metrics = tmp_path / "epochs.jsonl"
        for _ in range(2):
            assert self.run_cli("train", "--data", tiny_tsv, "--epochs", "4", "--eval-every", "2",
                                "--d", "8", "--metrics-out", str(metrics)) == 0
        assert [json.loads(line)["epoch"] for line in metrics.read_text().splitlines()] == [2, 4]

    def test_run_summary(self, tiny_tsv, tmp_path, capsys):
        out_dir = str(tmp_path / "exp")
        rc = self.run_cli(
            "run", "--data", tiny_tsv, "--epochs", "2", "--eval-every", "2",
            "--d", "8", "--batch-size", "256", "--seeds", "0,1",
            "--ks", "5", "--out-dir", out_dir,
        )
        assert rc == 0
        assert "recall" in capsys.readouterr().out
        results = [json.loads(line) for line in open(os.path.join(out_dir, "results.jsonl"))]
        assert [r["seed"] for r in results] == [0, 1]

    def test_sweep_csv(self, tiny_tsv, tmp_path):
        out = str(tmp_path / "sweep.csv")
        rc = self.run_cli(
            "sweep", "--data", tiny_tsv, "--epochs", "2", "--eval-every", "2",
            "--d", "8", "--batch-size", "256", "--ks", "5",
            "--param", "layers=1,2", "--out", out,
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert [row["layers"] for row in rows] == ["1", "2"]
        assert all(row["error"] == "" for row in rows)

    def test_sweep_exponent_floats(self, tiny_tsv, tmp_path):
        out = str(tmp_path / "sweep.csv")
        rc = self.run_cli(
            "sweep", "--data", tiny_tsv, "--epochs", "2", "--eval-every", "2",
            "--d", "8", "--batch-size", "256", "--ks", "5",
            "--param", "lr=1e-3,1e-2", "--out", out,
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert [row["lr"] for row in rows] == ["0.001", "0.01"]
        assert all(row["error"] == "" for row in rows)

    def test_probe_csv(self, tiny_tsv, tmp_path, capsys):
        out = str(tmp_path / "probes.csv")
        rc = self.run_cli(
            "probe", "--data", tiny_tsv, "--d", "8", "--num-pairs", "20",
            "--etas", "0.001,0.0001", "--out", out,
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 40  # 20 pairs x 2 etas
        assert list(rows[0]) == [
            "user", "pos_item", "neg_item", "eta", "optimizer",
            "margin_before", "margin_after", "grad_norm_sq", "bound_rhs", "gain",
        ]
        assert {row["optimizer"] for row in rows} == {"identity"}
        summary = json.loads(capsys.readouterr().err)
        assert summary["probes"] == 40

    def test_probe_adam_mode(self, tiny_tsv, tmp_path):
        out = str(tmp_path / "probes_adam.csv")
        rc = self.run_cli(
            "probe", "--data", tiny_tsv, "--d", "8", "--num-pairs", "5",
            "--etas", "0.001", "--optimizer", "adam", "--out", out,
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert {row["optimizer"] for row in rows} == {"adam_diag"}

    def test_probe_adam_mode_under_sgd_config(self, tiny_tsv, tmp_path):
        """The adam probe starts from zero moments whatever optimizer the
        config trains with, so an SGD config writes the same probes."""
        config = tmp_path / "sgd.yaml"
        config.write_text(yaml.safe_dump({"optimizer": "sgd"}))
        outs = []
        for extra in ([], ["--config", str(config)]):
            outs.append(tmp_path / f"probes{len(extra)}.csv")
            rc = self.run_cli("probe", "--data", tiny_tsv, *extra, "--d", "8",
                              "--num-pairs", "5", "--optimizer", "adam",
                              "--out", str(outs[-1]))
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("etas", ["nan,inf", "0.01,-inf", "NaN"])
    def test_probe_non_finite_eta_is_json_error(self, tiny_tsv, tmp_path, capsys, etas):
        """A NaN or infinite step size would write NaN rows and a summary
        that is not JSON; it fails before the CSV is opened."""
        out = tmp_path / "probes.csv"
        rc = self.run_cli("probe", "--data", tiny_tsv, "--d", "8", "--num-pairs", "5",
                          "--etas", etas, "--out", str(out))
        assert rc == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": f"etas must be finite numbers, got {etas!r}"}

    def test_gen_synth_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "synth.tsv")
        rc = self.run_cli(
            "gen-synth", "--users", "20", "--items", "30", "--events", "500",
            "--seed", "7", "--out", out,
        )
        assert rc == 0
        stats = json.loads(capsys.readouterr().err)
        lines = open(out).read().strip().splitlines()
        assert stats["interactions"] == len(lines)
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_failure_reports_json_error(self, tmp_path, capsys):
        rc = self.run_cli("split", "--data", str(tmp_path / "missing.tsv"))
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_out_of_range_timestamp_is_json_error(self, tmp_path, capsys):
        data = tmp_path / "f.tsv"
        data.write_text("u1\ti1\t5\nu2\ti1\t9223372036854775808\n")
        rc = self.run_cli("split", "--data", str(data))
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith("line 2: timestamp out of range")

    @pytest.mark.parametrize("epochs,eval_every", [(6, 1), (2, 5)])
    def test_train_writes_checkpoint_once_per_improvement(self, tiny_tsv, tmp_path, capsys,
                                                          monkeypatch, epochs, eval_every):
        """fit writes on each validation improvement and restores that model,
        and writes the final model once when no validation pass ran."""
        import driftrec.experiment as experiment
        import driftrec.models as models

        real_save, real_fit = models.save_checkpoint, experiment.fit
        saves, fitted = [], []

        def counting_save(model, path):
            saves.append(path)
            real_save(model, path)

        def capturing_fit(*args, **kwargs):
            result = real_fit(*args, **kwargs)
            fitted.append(result[0])
            return result

        monkeypatch.setattr(models, "save_checkpoint", counting_save)
        monkeypatch.setattr(experiment, "fit", capturing_fit)
        ckpt, metrics = tmp_path / "model.ckpt", tmp_path / "epochs.jsonl"
        rc = self.run_cli("train", "--data", tiny_tsv, "--epochs", str(epochs),
                          "--eval-every", str(eval_every), "--d", "8", "--lr", "0.02",
                          "--batch-size", "256", "--checkpoint-out", str(ckpt),
                          "--metrics-out", str(metrics))
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        best, improvements = -1.0, 0
        for line in metrics.read_text().splitlines():
            recall = json.loads(line)["recall@20"]
            if recall > best:
                best, improvements = recall, improvements + 1
        if eval_every > epochs:
            assert improvements == 0 and doc["best_epoch"] is None
            assert len(saves) == 1
        else:
            assert improvements >= 1 and doc["best_epoch"] is not None
            assert len(saves) == improvements
        assert set(saves) == {str(ckpt)}
        # the file holds exactly what a final save of the returned model writes
        final = tmp_path / "final.ckpt"
        real_save(fitted[0], str(final))
        assert ckpt.read_bytes() == final.read_bytes()

    def assert_eval_json_error(self, tiny_tsv, ckpt, capsys):
        """eval of `ckpt` prints nothing to stdout and one ValueError record
        naming the file to stderr, with exit code 1; returns its message."""
        capsys.readouterr()
        rc = self.run_cli("eval", "--data", tiny_tsv, "--checkpoint", str(ckpt))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and str(ckpt) in err["message"]
        return err["message"]

    def test_corrupt_checkpoint_is_json_error(self, tiny_tsv, tmp_path, capsys):
        """Truncation, a flipped byte, a missing member, a params array of
        another shape or dtype, a version 1 text checkpoint and other foreign
        files all end in the JSON error record."""
        ckpt = tmp_path / "model.ckpt"
        rc = self.run_cli("train", "--data", tiny_tsv, "--epochs", "1", "--eval-every", "1",
                          "--d", "4", "--checkpoint-out", str(ckpt))
        assert rc == 0
        for name, data in damaged_checkpoints(ckpt).items():
            ckpt.write_bytes(data)
            message = self.assert_eval_json_error(tiny_tsv, ckpt, capsys)
            if name == "version 1 text":
                assert "not a readable driftrec-checkpoint archive" in message

    def test_non_finite_checkpoint_is_json_error(self, tiny_tsv, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        rc = self.run_cli("train", "--data", tiny_tsv, "--epochs", "1", "--eval-every", "1",
                          "--d", "4", "--checkpoint-out", str(ckpt))
        assert rc == 0
        header, params = read_checkpoint_members(ckpt)
        params[2, 0] = np.nan
        params[header["num_users"] + 3, 0] = np.inf
        ckpt.write_bytes(checkpoint_bytes(header=header, params=params))
        message = self.assert_eval_json_error(tiny_tsv, ckpt, capsys)
        assert message == f"{ckpt}: user row 2 holds a non-finite value"

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_checkpoint_of_another_dataset_is_json_error(self, tiny_tsv, tmp_path, capsys,
                                                         backbone):
        other = tmp_path / "other.tsv"
        with open(other, "w") as f:
            write_tsv(generate(SyntheticSpec(num_users=30, num_items=50, num_events=900,
                                             groups_per_pool=5, seed=14)), f)
        ckpt = str(tmp_path / "model.ckpt")
        rc = self.run_cli("train", "--data", str(other), "--epochs", "1", "--eval-every", "1",
                          "--d", "4", "--backbone", backbone, "--checkpoint-out", ckpt)
        assert rc == 0
        capsys.readouterr()
        rc = self.run_cli("eval", "--data", tiny_tsv, "--checkpoint", ckpt)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert "does not match the split" in err["message"]

    def test_negative_prop_layers_is_json_error(self, tiny_tsv, capsys):
        rc = self.run_cli("train", "--data", tiny_tsv, "--epochs", "1", "--d", "4",
                          "--backbone", "lightgcn", "--prop-layers", "-1")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError",
                                            "message": "prop_layers must be >= 0"}

    @pytest.mark.parametrize("layers", [-1, "two", 1.5, None])
    def test_bad_prop_layers_in_checkpoint_header_is_json_error(self, tiny_tsv, tmp_path,
                                                                capsys, layers):
        ckpt = tmp_path / "model.ckpt"
        rc = self.run_cli("train", "--data", tiny_tsv, "--epochs", "1", "--eval-every", "1",
                          "--d", "4", "--backbone", "lightgcn", "--checkpoint-out", str(ckpt))
        assert rc == 0
        header, params = read_checkpoint_members(ckpt)
        header["num_prop_layers"] = layers
        ckpt.write_bytes(checkpoint_bytes(header=header, params=params))
        assert "num_prop_layers" in self.assert_eval_json_error(tiny_tsv, ckpt, capsys)

    @pytest.mark.parametrize("key,value", [
        ("backbone", None), ("seed", None), ("backbone", "gcn"), ("seed", "x"), ("seed", 1.5),
    ])
    def test_bad_backbone_or_seed_in_checkpoint_header_is_json_error(self, tiny_tsv, tmp_path,
                                                                     capsys, key, value):
        """A missing (None here) or malformed header key fails naming the file."""
        ckpt = tmp_path / "model.ckpt"
        rc = self.run_cli("train", "--data", tiny_tsv, "--epochs", "1", "--eval-every", "1",
                          "--d", "4", "--checkpoint-out", str(ckpt))
        assert rc == 0
        header, params = read_checkpoint_members(ckpt)
        if value is None:
            del header[key]
        else:
            header[key] = value
        ckpt.write_bytes(checkpoint_bytes(header=header, params=params))
        assert key in self.assert_eval_json_error(tiny_tsv, ckpt, capsys)

    @pytest.mark.parametrize("command,config,message", [
        ("split", {"lr": 0}, "lr must be positive"),
        ("build-pss", {"sampler": "rns", "pool": 0}, "pool must be >= 1"),
    ])
    def test_bad_training_key_in_config_is_json_error(self, tiny_tsv, tmp_path, capsys,
                                                      command, config, message):
        """split and build-pss reject a config that train would reject."""
        path, out = tmp_path / "config.yaml", tmp_path / "out.jsonl"
        path.write_text(yaml.safe_dump(config))
        rc = self.run_cli(command, "--data", tiny_tsv, "--config", str(path), "--out", str(out))
        assert rc == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("config,message", [
        ("ks: 20\n", "ks must be a list, got 20"),
        ('lr: "0.01"\n', "lr must be a number, got '0.01'"),
        ("ks: [20.5]\n", "ks must be a list of integers, got [20.5]"),
        ('seeds: ["3"]\n', "seeds must be a list of integers, got ['3']"),
        ("d: true\n", "d must be an integer, got True"),
        ("lr: true\n", "lr must be a number, got True"),
        ("layers: yes\n", "layers must be an integer, got True"),
    ], ids=["ks", "lr", "ks-element", "seeds-element", "d-bool", "lr-bool", "layers-yes"])
    def test_wrong_typed_config_value_names_its_key(self, tiny_tsv, tmp_path, capsys,
                                                    config, message):
        path, out = tmp_path / "config.yaml", tmp_path / "manifest.jsonl"
        path.write_text(config)
        rc = self.run_cli("split", "--data", tiny_tsv, "--config", str(path), "--out", str(out))
        assert rc == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("config,message", [
        ("layers: 0\n", "n must be >= 1"),
        ("range_mode: quantile\n",
         "unknown range_mode 'quantile', expected one of ('unit_interval', 'data_range')"),
        ("recent_k: 0\n", "k must be >= 1"),
        ("train_fraction: 1.5\n", "train_fraction must be in (0, 1)"),
        ("val_fraction_of_holdout: 2\n", "val_fraction_of_holdout must be in [0, 1]"),
        ("backbone: gcn\n", "unknown backbone 'gcn', expected one of ('mf', 'lightgcn')"),
        ("data_format: xml\n", "unknown format 'xml', expected 'tsv' or 'csv'"),
    ], ids=["layers", "range_mode", "recent_k", "train_fraction", "val_fraction_of_holdout",
            "backbone", "data_format"])
    def test_bad_data_or_graph_key_fails_before_any_data_is_read(self, tmp_path, capsys,
                                                                config, message):
        """The data path does not exist: the key is rejected when the config is built."""
        path = tmp_path / "config.yaml"
        path.write_text(f"data_path: {tmp_path / 'nonexistent.tsv'}\nvariant: baseline\n{config}")
        rc = self.run_cli("run", "--config", str(path))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("flags,config", [(["--ks", "0"], None), ([], "ks: []\n")],
                             ids=["flag", "config"])
    def test_bad_cutoffs_fail_before_any_data_is_read(self, tmp_path, capsys, flags, config):
        """The data path does not exist: the cutoffs are rejected first."""
        if config is not None:
            (tmp_path / "config.yaml").write_text(config)
            flags = ["--config", str(tmp_path / "config.yaml")]
        rc = self.run_cli("train", "--data", str(tmp_path / "missing.tsv"), "--epochs", "3000",
                          *flags)
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": "cutoffs must be positive"}

    def test_fractional_time_unit_is_json_error(self, tiny_tsv, tmp_path, capsys):
        out = tmp_path / "pss.jsonl"
        rc = self.run_cli("build-pss", "--data", tiny_tsv, "--time-unit", "1.5",
                          "--out", str(out))
        assert rc == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": "time_unit must be a whole number of seconds, got 1.5"}
        rc = self.run_cli("build-pss", "--data", tiny_tsv, "--time-unit", "2.0",
                          "--out", str(out))
        assert rc == 0 and out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["build-pss", "--rate", "nan"], "rate must be a finite number, got nan"),
        (["train", "--rate", "nan"], "rate must be a finite number, got nan"),
        (["train", "--rate", "inf"], "rate must be a finite number, got inf"),
        (["train", "--sampler", "pns", "--alpha", "nan"], "alpha must be a finite number, got nan"),
        (["run", "--seeds", "0,0"], "seeds must not repeat a value, got (0, 0)"),
        (["run", "--ks", "20,20"], "ks must not repeat a value, got (20, 20)"),
    ], ids=["build-pss-rate-nan", "train-rate-nan", "train-rate-inf", "train-alpha-nan",
            "run-seeds", "run-ks"])
    def test_non_finite_or_repeated_value_is_json_error(self, tiny_tsv, tmp_path, capsys,
                                                        argv, message):
        out = tmp_path / "pss.jsonl"
        extra = ["--out", str(out)] if argv[0] == "build-pss" else ["--epochs", "1"]
        rc = self.run_cli(*argv, "--data", tiny_tsv, *extra)
        assert rc == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}

    def test_bad_flag_value_is_json_error(self, tiny_tsv, capsys):
        rc = self.run_cli("train", "--data", tiny_tsv, "--epochs", "2",
                          "--layers", "0")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"


_DATA_FLAGS = [
    ("--data", "data", None, None),
    ("--format", "data_format", ("tsv", "csv"), None),
    ("--skip-header", "skip_header", None, None),
    ("--train-fraction", "train_fraction", None, float),
    ("--val-fraction", "val_fraction_of_holdout", None, float),
    ("--drop-cold-items", "drop_cold_items", None, None),
]
_GRAPH_FLAGS = [
    ("--decay", "decay", ("exponential", "linear", "power"), None),
    ("--rate", "rate", None, float),
    ("--time-unit", "time_unit", None, float),
    ("--layers", "layers", None, int),
    ("--range-mode", "range_mode", ("unit_interval", "data_range"), None),
]
_VARIANT_FLAGS = [
    ("--variant", "variant", ("layered", "baseline", "weighted_bpr", "recent_k"), None),
    ("--recent-k", "recent_k", None, int),
]
_SAMPLER_FLAGS = [
    ("--sampler", "sampler", ("rns", "pns", "dns", "dns-mn"), None),
    ("--pool", "pool", None, int),
    ("--alpha", "alpha", None, float),
    ("--m", "m", None, int),
    ("--n", "n", None, int),
]
_PIPELINE_FLAGS = _DATA_FLAGS + _GRAPH_FLAGS + _VARIANT_FLAGS + [
    ("--backbone", "backbone", ("mf", "lightgcn"), None),
    ("--d", "d", None, int),
    ("--lr", "lr", None, float),
    ("--batch-size", "batch_size", None, int),
    ("--l2", "l2", None, float),
    ("--epochs", "epochs", None, int),
    ("--eval-every", "eval_every", None, int),
    ("--optimizer", "optimizer", ("adam", "sgd"), None),
    ("--epoch-mode", "epoch_mode", ("full_pass", "pi_sample"), None),
    ("--prop-layers", "prop_layers", None, int),
    ("--ks", "ks", None, None),
] + _SAMPLER_FLAGS
_CONFIG = [("--config", "config", None, None)]
_OUT = [("--out", "out", None, None)]
CLI_SURFACE = {
    "split": _DATA_FLAGS + _CONFIG + _OUT,
    "build-pss": _DATA_FLAGS + _GRAPH_FLAGS + _VARIANT_FLAGS + _CONFIG + _OUT,
    "train": _PIPELINE_FLAGS + _CONFIG + [
        ("--seed", "seed", None, int),
        ("--checkpoint-out", "checkpoint_out", None, None),
        ("--metrics-out", "metrics_out", None, None),
    ],
    "eval": _DATA_FLAGS + _CONFIG + [
        ("--checkpoint", "checkpoint", None, None),
        ("--part", "part", ("validation", "test"), None),
        ("--ks", "ks", None, None),
        ("--csv-out", "csv_out", None, None),
        ("--per-user-out", "per_user_out", None, None),
    ],
    "run": _PIPELINE_FLAGS + _CONFIG + [
        ("--seeds", "seeds", None, None),
        ("--out-dir", "out_dir", None, None),
    ],
    "sweep": _PIPELINE_FLAGS + _CONFIG + [
        ("--param", "param", None, None),
        ("--mode", "mode", ("one_at_a_time", "grid"), None),
    ] + _OUT,
    "probe": _DATA_FLAGS + _SAMPLER_FLAGS + _CONFIG + [
        ("--seed", "seed", None, int),
        ("--d", "d", None, int),
        ("--num-pairs", "num_pairs", None, int),
        ("--etas", "etas", None, None),
        ("--optimizer", "probe_optimizer", ("identity", "adam"), None),
    ] + _OUT,
    "gen-synth": [
        ("--users", "users", None, int),
        ("--items", "items", None, int),
        ("--events", "events", None, int),
        ("--horizon-days", "horizon_days", None, float),
        ("--drift-time", "drift_time", None, float),
        ("--drift-strength", "drift_strength", None, float),
        ("--seed", "seed", None, int),
    ] + _OUT,
}


class TestCliSurface:
    """Every subcommand's flags: option string, dest, choices and type, in order."""

    def test_flag_table(self):
        import argparse

        from driftrec.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(CLI_SURFACE)
        for name, parser in sub.choices.items():
            got = [
                (*a.option_strings, a.dest,
                 tuple(a.choices) if a.choices is not None else None, a.type)
                for a in parser._actions if not isinstance(a, argparse._HelpAction)
            ]
            assert got == CLI_SURFACE[name], name

    def test_malformed_cutoffs_are_json_error(self, tiny_tsv, capsys):
        assert main(["run", "--data", tiny_tsv, "--ks", "2x"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_unknown_choice_is_usage_error(self, tiny_tsv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", tiny_tsv, "--sampler", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("num_pairs", ["0", "5"])
    def test_probe_rejects_lightgcn_config(self, tiny_tsv, tmp_path, capsys, num_pairs):
        config, out = tmp_path / "lightgcn.yaml", tmp_path / "probes.csv"
        config.write_text(yaml.safe_dump({"backbone": "lightgcn"}))
        rc = main(["probe", "--data", tiny_tsv, "--config", str(config), "--d", "8",
                   "--num-pairs", num_pairs, "--out", str(out)])
        assert rc == 1 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "dot-product backbone" in err["message"]
