import csv
import os

import numpy as np
import pytest

from biocompass import data, evaluation
from biocompass.cli import main
from biocompass.data import load_csv
from biocompass.evaluation import TrainConfig, make_model_config, train_model
from biocompass.model import Model
from biocompass.objective import LossWeights


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
        assert main(["train", "--config", config_path, "--seed-list", "0",
                     "--out-dir", str(out)]) == 0
        model = Model.load(out / "model.npz")
        assert model.config.encoder.gene_count == 16
        lines = (out / "training_curve.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3  # header + 2 epochs


    @pytest.mark.parametrize("mode, normalize_calls", [("pft", 0),
                                                        ("fft", 1)])
    def test_checkpoint_is_training_on_the_z_scored_panel(
            self, config_path, tmp_path, monkeypatch, mode, normalize_calls):
        """`train` fits its statistics once, on every row; under PFT it
        pools its one table and z-scores no panel, under FFT it z-scores
        the panel once. It trains the model that `train_model` trains on
        `x_norm`."""
        main(["synth", "--config", config_path, "--out-dir", str(tmp_path)])
        path = str(tmp_path / "synthetic.csv")
        calls = {"fit_normalization": [], "apply_normalization": []}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name].append(args)
                return fn(*args, **kw)
            return wrapper

        for name in calls:
            fn = counted(name, getattr(data, name))
            monkeypatch.setattr(data, name, fn)
            monkeypatch.setattr(evaluation, name, fn, raising=False)
        out = tmp_path / "train_out"
        assert main(["train", "--config", config_path, "--dataset", path,
                     "--seed-list", "0", f"--{mode}",
                     "--out-dir", str(out)]) == 0
        [(_, rows)] = calls["fit_normalization"]
        assert rows.tolist() == list(range(80))
        assert len(calls["apply_normalization"]) == normalize_calls
        monkeypatch.undo()
        dataset = load_csv(path)
        rows = np.arange(len(dataset))
        reference = Model(make_model_config(dataset, token_dim=4,
                                            gate_hidden=4), seed=0)
        train_model(reference, dataset, rows,
                    data.normalize(dataset, rows)[0], LossWeights(),
                    TrainConfig(epochs=2, mode=mode), 0)
        saved = Model.load(out / "model.npz")
        for name, p in reference.params.items():
            scale = np.abs(p.data).max()
            np.testing.assert_allclose(saved.params[name].data, p.data,
                                       rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)

    @pytest.mark.parametrize("config, seed_list, named", [
        ("seedless", "3,4", "--seed-list gives seeds [3, 4]"),
        ("seeded", None, "config key 'seeds' gives seeds [0, 1]"),
    ])
    def test_more_than_one_seed_fails_before_writing(
            self, config_path, tmp_path, capsys, config, seed_list, named):
        argv = ["train", "--out-dir", str(tmp_path / "out"), "--config",
                seedless_config(tmp_path) if config == "seedless"
                else config_path]
        if seed_list:
            argv += ["--seed-list", seed_list]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: train trains one model, but {named}" in err, err
        assert not (tmp_path / "out").exists()

    def test_trains_the_one_seed_given_or_seed_0(self, config_path,
                                                 tmp_path):
        def checkpoint(name, *argv):
            out = tmp_path / name
            assert main(["train", "--config", seedless_config(tmp_path),
                         "--out-dir", str(out), *argv]) == 0
            return (out / "model.npz").read_bytes()

        assert checkpoint("seed4", "--seed-list", "4") \
            != checkpoint("seed0", "--seed-list", "0")
        assert checkpoint("default") == checkpoint("seed0", "--seed-list",
                                                   "0")


def seedless_config(tmp_path) -> str:
    """The test config without its `seeds` key."""
    path = tmp_path / "seedless.yaml"
    path.write_text(SMALL_SYNTH.replace("seeds: [0, 1]\n", ""))
    return str(path)


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
    def test_five_configs(self, config_path, tmp_path, capsys):
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
        assert "no_pathway reports full's runs" in capsys.readouterr().out
        # under PFT no_pathway's rows are full's
        assert ((out / "no_pathway" / "perfold.csv").read_bytes()
                == (out / "full" / "perfold.csv").read_bytes())

    def test_fft_trains_no_pathway(self, config_path, tmp_path, capsys):
        out = tmp_path / "ablate_fft"
        assert main(["ablate", "--config", config_path, "--out-dir", str(out),
                     "--seed-list", "0", "--fft"]) == 0
        assert "no_pathway reports" not in capsys.readouterr().out

    @pytest.mark.parametrize("text, argv, named", [
        ("ablation: {disable_gate: true}\n", [], "'ablation': disable_gate"),
        ("ablation: {disable_pathway: true}\n", [],
         "disable_pathway (--disable-pathway)"),
        ("", ["--disable-gating"], "disable_gating (--disable-gating)"),
        ("", ["--disable-aux", "--disable-alignment"],
         "disable_aux (--disable-aux), disable_alignment (--disable-alignment)"),
    ])
    def test_ablation_section_and_flags_rejected(self, tmp_path, capsys, text,
                                                 argv, named):
        cfg = tmp_path / "experiment.yaml"
        cfg.write_text(SMALL_SYNTH + text)
        out = tmp_path / "out"
        assert main(["ablate", "--config", str(cfg), "--out-dir", str(out)]
                    + argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and named in err, err
        assert not out.exists()


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

    def test_signature_name_with_comma_is_quoted(self, tmp_path):
        sigs = tmp_path / "sigs.txt"
        sigs.write_text("name a,b\nkind gene_set_mean\ngenes g0001 g0002\n")
        config = tmp_path / "experiment.yaml"
        config.write_text(SMALL_SYNTH + f"signatures_file: {sigs}\n")
        out = tmp_path / "base_out"
        assert main(["baselines", "--config", str(config),
                     "--out-dir", str(out), "--seed-list", "0"]) == 0
        for name, width in (("baselines_perfold.csv", 6),
                            ("baselines_aggregate.csv", 7)):
            with open(out / name, newline="") as f:
                rows = list(csv.reader(f))
            assert {len(r) for r in rows} == {width}, name
            assert rows[1][0] == "sig_a,b", name

    def test_malformed_signature_file_fails(self, tmp_path, capsys):
        sigs = tmp_path / "sigs.txt"
        sigs.write_text("name\nkind pc1\ngenes g0 g1\n")
        config = tmp_path / "experiment.yaml"
        config.write_text(SMALL_SYNTH + f"signatures_file: {sigs}\n")
        out = tmp_path / "base_out"
        assert main(["baselines", "--config", str(config),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {sigs}: line 1: 'name' takes one value" in err, err
        assert not out.exists()


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
            # ... and inside a section, or out of range
            ("train: {epochs: ten}\n",
             "'train': 'epochs' must be of type int, got str"),
            ("synthetic: {samples_per_cohort: 5}\n",
             "'synthetic': 'samples_per_cohort' must be of type list"),
            ("weights: {pathway: high}\n",
             "'weights': 'pathway' must be of type float"),
            ("synthetic: {active_concepts: {PD-1: 3}}\n",
             "'synthetic': active_concepts['PD-1'] must be a list"),
            ("train: {epochs: 0}\n", "'train': epochs must be >= 1, got 0"),
            ("train: {batch_size: 0}\n",
             "'train': batch_size must be >= 1, got 0"),
            ("model: {gate_hidden: 0}\n",
             "'model': gate_hidden must be >= 1, got 0"),
            ("train: {threshold: 2.0}\n",
             "'train': threshold must be in (0, 1), got 2.0"),
            ("train: {lr: -0.01}\n", "'train': lr must be > 0, got -0.01"),
            ("train: {mode: xft}\n", "'train': mode must be 'pft' or 'fft'"),
            ("jobs: 0\n", "'jobs' must be >= 1, got 0"),
            ("seeds: []\n", "'seeds' must not be empty"),
            ("seeds: [1, -2]\n", "'seeds' must be nonnegative"),
            ("seeds: [3, 1, 3]\n", "'seeds' must not repeat a seed"),
        ]:
            bad = tmp_path / "bad.yaml"
            bad.write_text(text)
            assert main(["eval", "--config", str(bad)]) == 1, text
            err = capsys.readouterr().err
            assert "error:" in err and named in err, (text, err)

    def test_bad_synthetic_value_fails_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("synthetic:\n  n_cohorts: 2\n"
                       "  samples_per_cohort: [true, 10]\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(bad),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert ("error: config section 'synthetic': samples_per_cohort must "
                "hold integers >= 1, got (True, 10)") in err, err
        assert not out.exists()

    def test_nan_loss_weight_fails_before_writing(self, tmp_path, capsys):
        # NaN fails `align > 0`, so it would train without the alignment term
        bad = tmp_path / "bad.yaml"
        bad.write_text("weights: {align: .nan}\n")
        out = tmp_path / "out"
        assert main(["eval", "--config", str(bad),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert ("error: config section 'weights': loss weight align must "
                "be finite, got nan") in err, err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_out_of_range_jobs_flag_fails(self, config_path, tmp_path, capsys,
                                          jobs):
        argv = ["eval", "--config", config_path, "--jobs", jobs,
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: 'jobs' must be >= 1, got {jobs}" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_unknown_protocol_in_config_fails_before_any_work(
            self, config_path, tmp_path, capsys, command):
        bad = tmp_path / "bad.yaml"
        bad.write_text(open(config_path).read() + "protocol: xyz\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(bad),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert ("error: config file: 'protocol' must be one of loco, locto, "
                "loto, got 'xyz'") in err, err
        assert not out.exists()

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
        # synth reads no seed; confirm the no-config path ran and produced
        # the default synthetic dataset
        main(["synth", "--out-dir", str(out)])
        assert (out / "synthetic.csv").exists()


_DISABLE = [[f"--disable-{f}"] for f in ("gating", "pathway", "aux",
                                           "alignment")]
_RUN = [["--jobs", "2"], ["--protocol", "loto"], ["--weighted"], ["--pft"],
        ["--fft"], *_DISABLE]
# the flags that each command does not read
_UNREAD = {
    "synth": [["--dataset", "x.csv"], ["--seed-list", "0"], *_RUN],
    "schema": [["--out-dir", "out"], ["--seed-list", "0"], *_RUN],
    "train": [["--jobs", "2"], ["--protocol", "loto"], ["--weighted"]],
    "baselines": [["--jobs", "2"], ["--pft"], ["--fft"], *_DISABLE],
}


class TestFlags:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in _UNREAD.items()
        for flag in flags], ids=lambda v: " ".join(v) if isinstance(
            v, list) else v)
    def test_flag_the_command_does_not_read_is_a_usage_error(
            self, capsys, command, flag):
        """A subcommand registers only the flags it reads, so one it
        would ignore stops argparse before any work."""
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSeeds:
    @pytest.mark.parametrize("command", ["eval", "baselines"])
    @pytest.mark.parametrize("seeds, named", [
        ("-1", "'seeds' must be nonnegative, got [-1]"),
        ("0,0", "'seeds' must not repeat a seed, got [0, 0]"),
    ])
    def test_bad_seed_list_fails_before_any_work(
            self, config_path, tmp_path, capsys, command, seeds, named):
        out = tmp_path / "out"
        assert main([command, "--config", config_path, "--out-dir", str(out),
                     f"--seed-list={seeds}"]) == 1
        err = capsys.readouterr().err
        assert f"error: {named}" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "baselines"])
    def test_non_integer_seed_list_names_flag_and_token(
            self, config_path, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--config", config_path, "--out-dir", str(out),
                     "--seed-list", "0,a"]) == 1
        err = capsys.readouterr().err
        assert "error: --seed-list: seed 'a' is not an integer" in err, err
        assert not out.exists()

    def test_non_integer_env_seed_names_variable_and_token(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIOCOMPASS_SEED", "x")
        out = tmp_path / "out"
        assert main(["eval", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: BIOCOMPASS_SEED: seed 'x' is not an integer" in err, err
        assert not out.exists()

    def test_negative_env_seed_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIOCOMPASS_SEED", "-3")
        out = tmp_path / "out"
        assert main(["eval", "--out-dir", str(out)]) == 1
        assert ("error: 'seeds' must be nonnegative, got [-3]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "schema"])
    def test_command_without_seeds_ignores_env_seed(
            self, config_path, tmp_path, monkeypatch, command):
        monkeypatch.setenv("BIOCOMPASS_SEED", "x")
        argv = [command, "--config", config_path]
        if command == "synth":
            argv += ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0


    @pytest.mark.parametrize("config, seed_list, seeds", [
        (None, None, {7}),
        ("seedless", None, {7}),
        ("seeded", None, {0, 1}),
        (None, "5", {5}),
        ("seedless", "5", {5}),
        ("seeded", "5", {5}),
    ])
    def test_env_seed_applies_unless_seeds_are_set(
            self, config_path, tmp_path, monkeypatch, config, seed_list,
            seeds):
        """BIOCOMPASS_SEED is the seed when neither the config file nor
        `--seed-list` gives one."""
        main(["synth", "--config", config_path, "--out-dir", str(tmp_path)])
        argv = ["eval", "--dataset", str(tmp_path / "synthetic.csv"),
                "--out-dir", str(tmp_path / "out")]
        if config == "seedless":
            argv += ["--config", seedless_config(tmp_path)]
        elif config == "seeded":
            argv += ["--config", config_path]
        if seed_list:
            argv += ["--seed-list", seed_list]
        monkeypatch.setenv("BIOCOMPASS_SEED", "7")
        assert main(argv) == 0
        with open(tmp_path / "out" / "perfold.csv", newline="") as f:
            assert {int(row["seed"]) for row in csv.DictReader(f)} == seeds


class TestCsvInput:
    @staticmethod
    def _synth_csv(config_path, tmp_path):
        main(["synth", "--config", config_path, "--out-dir",
              str(tmp_path / "synth")])
        return (tmp_path / "synth" / "synthetic.csv").read_text().splitlines()

    def test_missing_pathway_block_evaluates_like_empty_pw_columns(
            self, config_path, tmp_path):
        lines = self._synth_csv(config_path, tmp_path)
        header = lines[0].split(",")
        pw = [j for j, c in enumerate(header) if c.startswith("pw_")]
        assert len(pw) == 42
        rows = [line.split(",") for line in lines]
        dropped = [[c for j, c in enumerate(r) if j not in pw] for r in rows]
        blank = rows[:1] + [["" if j in pw else c for j, c in enumerate(r)]
                            for r in rows[1:]]
        for name, table in (("blank", blank), ("dropped", dropped)):
            (tmp_path / f"{name}.csv").write_text(
                "".join(",".join(r) + "\n" for r in table))
            assert main(["eval", "--config", config_path, "--dataset",
                         str(tmp_path / f"{name}.csv"), "--out-dir",
                         str(tmp_path / name)]) == 0
        for name in ("perfold.csv", "aggregate.csv"):
            assert ((tmp_path / "blank" / name).read_bytes()
                    == (tmp_path / "dropped" / name).read_bytes()), name

    def test_oversized_cell_fails_with_error(self, config_path, tmp_path,
                                             capsys):
        lines = self._synth_csv(config_path, tmp_path)
        cells = lines[2].split(",")
        cells[0] = "s" * 200000
        lines[2] = ",".join(cells)
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["schema", "--dataset", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: row 3: field larger than field limit" in err

    def test_oversized_header_cell_fails_with_error(self, config_path,
                                                    tmp_path, capsys):
        lines = self._synth_csv(config_path, tmp_path)
        lines[0] = "s" * 200000 + lines[0]
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["schema", "--dataset", str(path)]) == 1
        err = capsys.readouterr().err
        assert (f"error: {path}: row 1: field larger than field limit "
                f"({csv.field_size_limit()})") in err, err

    def test_undecodable_byte_names_path_and_line(self, config_path,
                                                  tmp_path, capsys):
        lines = self._synth_csv(config_path, tmp_path)
        lines[2] = lines[2].replace(",", ",\udcff", 1)
        path = tmp_path / "latin.csv"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape")
                         + b"\n")
        out = tmp_path / "out"
        assert main(["eval", "--config", config_path, "--dataset", str(path),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"error: {path}: line 3: byte 0xff is not UTF-8 "
                "(invalid start byte)") in err, err
        assert not out.exists()
