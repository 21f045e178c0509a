import os

import numpy as np
import pytest

from biocompass.cli import main
from biocompass.data import load_csv
from biocompass.model import Model


SMALL_SYNTH = """\
synthetic:
  n_cohorts: 4
  samples_per_cohort: [20, 20, 20, 20]
  n_genes: 16
  n_latents: 4
  seed: 3
  active_concepts:
    PD-1: [0]
    PD-L1: [1]
    CTLA-4: [2]
    CTLA-4+PD-1: [3]
model:
  token_dim: 4
  gate_hidden: 4
train:
  epochs: 2
seeds: [0, 1]
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.yaml"
    path.write_text(SMALL_SYNTH)
    return str(path)


class TestSynth:
    def test_writes_loadable_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "synth_out"
        assert main(["synth", "--config", config_path,
                     "--out-dir", str(out)]) == 0
        ds = load_csv(out / "synthetic.csv")
        assert len(ds) == 80
        assert "wrote 80 samples" in capsys.readouterr().out


class TestSchema:
    def test_prints_dimensions(self, config_path, tmp_path, capsys):
        assert main(["schema", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "samples: 80" in out
        assert "G: 16" in out
        assert "CTLA-4+PD-1" in out

    def test_schema_of_csv_dataset(self, config_path, tmp_path, capsys):
        out = tmp_path / "s"
        main(["synth", "--config", config_path, "--out-dir", str(out)])
        assert main(["schema", "--dataset", str(out / "synthetic.csv")]) == 0
        assert "samples: 80" in capsys.readouterr().out


class TestTrain:
    def test_checkpoint_and_curve(self, config_path, tmp_path, capsys):
        out = tmp_path / "train_out"
        assert main(["train", "--config", config_path,
                     "--out-dir", str(out)]) == 0
        model = Model.load(out / "model.npz")
        assert model.config.encoder.gene_count == 16
        lines = (out / "training_curve.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3  # header + 2 epochs


class TestEval:
    def test_emits_full_report(self, config_path, tmp_path):
        out = tmp_path / "eval_out"
        assert main(["eval", "--config", config_path,
                     "--out-dir", str(out)]) == 0
        assert (out / "perfold.csv").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "roc_auc.svg").exists()
        perfold = (out / "perfold.csv").read_text().splitlines()
        assert perfold[0] == "fold_id,group_value,seed,metric,value"
        assert len(perfold) == 1 + 4 * 2 * 5  # folds x seeds x metrics

    def test_rerun_is_deterministic(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["eval", "--config", config_path, "--out-dir", str(a)])
        main(["eval", "--config", config_path, "--out-dir", str(b)])
        assert (a / "aggregate.csv").read_text() == \
            (b / "aggregate.csv").read_text()

    def test_seed_list_flag_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "one_seed"
        main(["eval", "--config", config_path, "--out-dir", str(out),
              "--seed-list", "5"])
        perfold = (out / "perfold.csv").read_text().splitlines()
        assert len(perfold) == 1 + 4 * 1 * 5
        assert all(",5," in line for line in perfold[1:])

    def test_loto_protocol_flag(self, config_path, tmp_path):
        out = tmp_path / "loto_out"
        main(["eval", "--config", config_path, "--out-dir", str(out),
              "--protocol", "loto", "--seed-list", "0"])
        perfold = (out / "perfold.csv").read_text().splitlines()
        groups = {line.split(",")[1] for line in perfold[1:]}
        assert groups == {"PD-1", "PD-L1", "CTLA-4", "CTLA-4+PD-1"}


class TestAblate:
    def test_five_configs(self, config_path, tmp_path):
        out = tmp_path / "ablate_out"
        assert main(["ablate", "--config", config_path, "--out-dir", str(out),
                     "--seed-list", "0"]) == 0
        table = (out / "ablation.csv").read_text().splitlines()
        assert table[0] == "config,metric,mean,ci_low,ci_high,n"
        configs = {line.split(",")[0] for line in table[1:]}
        assert configs == {"full", "no_gating", "no_pathway", "no_alignment",
                           "no_auxiliary"}
        for name in configs:
            assert (out / name / "perfold.csv").exists()


class TestBaselines:
    def test_emits_both_tables(self, config_path, tmp_path):
        out = tmp_path / "base_out"
        assert main(["baselines", "--config", config_path,
                     "--out-dir", str(out), "--seed-list", "0"]) == 0
        perfold = (out / "baselines_perfold.csv").read_text().splitlines()
        assert perfold[0] == "method,fold_id,group_value,seed,metric,value"
        methods = {line.split(",")[0] for line in perfold[1:]}
        assert "lr_expression" in methods and "lr_biomarkers" in methods
        agg = (out / "baselines_aggregate.csv").read_text().splitlines()
        assert agg[0] == "method,bucket,metric,mean,ci_low,ci_high,n"


class TestErrors:
    def test_unknown_config_key_fails(self, tmp_path, capsys):
        # at the top level, then inside each section
        for text, named in [
            ("learning_rate: 0.1\n", "learning_rate"),
            ("train: {learning_rate: 0.1}\n", "'train': learning_rate"),
            ("train: {optimizer: sgd}\n", "'train': optimizer"),
            ("model: {pooling: attention}\n", "'model': pooling"),
            ("weights: {cls_weight: 1.0}\n", "'weights': cls_weight"),
            ("ablation: {disable_gate: true}\n", "'ablation': disable_gate"),
            ("synthetic: {n_cohort: 3}\n", "'synthetic': n_cohort"),
            # a value of the wrong type
            ("train: 5\n", "'train' must be of type dict, got int"),
            ("seeds: 3\n", "'seeds' must be of type list, got int"),
            ("seeds: [0, x]\n", "'seeds' must be a list of integers"),
            ("jobs: two\n", "'jobs' must be of type int, got str"),
        ]:
            bad = tmp_path / "bad.yaml"
            bad.write_text(text)
            assert main(["eval", "--config", str(bad)]) == 1, text
            err = capsys.readouterr().err
            assert "error:" in err and named in err, (text, err)

    def test_missing_dataset_file_fails(self, capsys):
        assert main(["schema", "--dataset", "/nonexistent.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_env_seed_fallback(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("BIOCOMPASS_SEED", "9")
        out = tmp_path / "env_seed"
        main(["synth", "--out-dir", str(out)])  # no config: env seed applies
        # with a config file present the config seeds win; just confirm the
        # no-config path ran and produced the default synthetic dataset
        assert (out / "synthetic.csv").exists()
