"""The command-line interface (driven in-process via cli.main)."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_models_and_datasets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "D2STGNN" in out
        assert "metr-la-sim" in out
        assert "statistical" in out


class TestSimulate:
    def test_writes_dataset_file(self, tmp_path, capsys):
        out_file = tmp_path / "ds.npz"
        code = main([
            "simulate", "--dataset", "pems08-sim",
            "--nodes", "6", "--steps", "400", "--out", str(out_file),
        ])
        assert code == 0
        assert out_file.exists()
        assert "6 nodes" in capsys.readouterr().out

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--dataset", "nope", "--out", "x.npz"])


class TestTrainEvaluate:
    def test_statistical_model_flow(self, tmp_path, capsys):
        code = main([
            "train", "--dataset", "metr-la-sim", "--model", "HA",
            "--nodes", "6", "--steps", "420",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "horizon 3" in out

    def test_neural_train_checkpoint_evaluate(self, tmp_path, capsys):
        ds_file = tmp_path / "ds.npz"
        ckpt = tmp_path / "model.npz"
        main(["simulate", "--dataset", "metr-la-sim", "--nodes", "6",
              "--steps", "420", "--out", str(ds_file)])
        code = main([
            "train", "--dataset", str(ds_file), "--model", "D2STGNN",
            "--epochs", "1", "--hidden", "8", "--layers", "1",
            "--checkpoint", str(ckpt),
        ])
        assert code == 0
        assert ckpt.exists()
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds_file)])
        assert code == 0
        assert "MAE" in capsys.readouterr().out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--model", "NotAModel"])


class TestProfile:
    def test_profile_writes_baseline_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "profile.json"
        code = main([
            "profile", "--dataset", "metr-la-sim", "--model", "d2stgnn",
            "--nodes", "6", "--steps", "420", "--hidden", "8", "--layers", "1",
            "--batches", "1", "--out", str(out),
        ])
        assert code == 0
        assert "distinct ops" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.obs.profile/v1"
        assert payload["model"] == "D2STGNN"  # case-insensitive resolution
        assert payload["distinct_ops"] >= 10
        for row in payload["ops"]:
            assert {"op", "phase", "count", "time", "bytes"} <= set(row)

    def test_train_step_leaves_bench_baseline_alone(self, tmp_path, monkeypatch, capsys):
        import json

        # BENCH_train_step.json belongs to benchmarks/bench_train_step.py
        # (schema repro.bench.train_step/v1); the CLI has its own default.
        monkeypatch.chdir(tmp_path)
        code = main([
            "profile", "--dataset", "metr-la-sim", "--model", "FC-LSTM",
            "--nodes", "6", "--steps", "420", "--hidden", "8", "--layers", "1",
            "--batches", "1", "--warmup", "0", "--train-step",
        ])
        assert code == 0
        assert "speedup" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_train_step.json").exists()
        payload = json.loads((tmp_path / "profile_train_step.json").read_text())
        assert payload["schema"] == "repro.obs.train_step/v1"
        assert payload["model"] == "FC-LSTM"

    def test_statistical_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "--model", "HA"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "--model", "NotAModel"])


class TestExperiments:
    def test_registry_lists_every_bench(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["experiments"]) == 0
        out = capsys.readouterr().out
        for artifact in ("Table 2", "Table 3", "Table 4", "Table 5",
                         "Figure 6", "Figure 7", "Figure 8"):
            assert artifact in out

    def test_registry_benches_exist_on_disk(self):
        from pathlib import Path

        from repro.experiments import EXPERIMENTS

        root = Path(__file__).resolve().parent.parent
        for spec in EXPERIMENTS.values():
            assert (root / spec.bench).exists(), spec.bench

    def test_get_experiment_validates(self):
        import pytest as _pytest

        from repro.experiments import get_experiment

        assert get_experiment("table3").paper_artifact == "Table 3"
        with _pytest.raises(KeyError):
            get_experiment("table99")

class TestLint:
    def test_repo_head_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_findings_yield_nonzero_exit(self, capsys):
        fixture = "tests/fixtures/lint_violations.py"
        assert main(["lint", fixture]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "finding(s)" in out

    def test_json_output(self, capsys):
        import json

        fixture = "tests/fixtures/lint_violations.py"
        assert main(["lint", fixture, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == len(payload["findings"]) > 0
        assert {"path", "line", "rule", "message"} <= set(payload["findings"][0])


class TestCheck:
    def test_single_model_single_preset_is_clean(self, capsys):
        code = main(["check", "--model", "FC-LSTM", "--dataset", "metr-la-sim"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FC-LSTM" in out
        assert "0 finding(s)" in out

    def test_json_output(self, capsys):
        import json

        code = main(["check", "--model", "fc-lstm", "--dataset", "metr-la-sim",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.check.models/v1"
        assert payload["findings_total"] == 0
        [row] = payload["checks"]
        assert row["model"] == "FC-LSTM"  # case-insensitive resolution

    def test_statistical_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--model", "HA"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--model", "NotAModel"])


class TestTrainResume:
    def test_resume_flag_round_trip(self, tmp_path, capsys):
        state = tmp_path / "state.npz"
        args = [
            "train", "--dataset", "metr-la-sim", "--model", "GraphWaveNet",
            "--nodes", "6", "--steps", "420", "--epochs", "1",
            "--hidden", "8", "--layers", "1", "--resume", str(state),
        ]
        assert main(args) == 0
        assert state.exists()
        assert "starting fresh" in capsys.readouterr().out
        # Second invocation with more epochs picks the run back up.
        args[args.index("--epochs") + 1] = "2"
        assert main(args) == 0
        assert f"resuming from {state}" in capsys.readouterr().out
