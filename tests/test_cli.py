"""Command-line behaviour, kept at toy sizes."""

import json

import pytest

from catebounds.cli import main


def write_config(tmp_path, **overrides):
    base = dict(
        dataset=dict(n_train=90, n_test=30), d_phi=1, deltas=[0.001], k=120,
        seeds=[0], stage0=dict(n_iter=30, batch_size=32),
        prop_x=dict(n_iter=30), prop_phi=dict(n_iter=30),
        flow=dict(n_iter=30))
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


class TestVerbs:
    def test_generate(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "train.csv").exists() and (out / "test.csv").exists()
        header = (out / "train.csv").read_text().splitlines()[0]
        assert header == "x1,x2,a,y,mu0,mu1"

    def test_run_writes_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "aggregate.csv").exists()
        assert "aggregate.csv" in capsys.readouterr().out

    def test_staged_verbs_match_run(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "full", tmp_path / "staged"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        for verb in ("train", "refute", "evaluate"):
            assert main([verb, "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "aggregate.csv").read_text() == (b / "aggregate.csv").read_text()

    def test_refute_without_train_fails(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(FileNotFoundError, match="train step"):
            main(["refute", "--config", str(cfg), "--out", str(tmp_path / "x")])

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0, 1, 2])
        out = tmp_path / "one"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "7"]) == 0
        payload = json.loads((out / "results.json").read_text())
        assert [r["seed"] for r in payload["records"]] == [7]
        assert (out / "seed_7").is_dir()

    def test_grid_writes_tuned_config(self, tmp_path):
        cfg = write_config(tmp_path, tuning="grid", n_grid=1, cv_folds=2)
        out = tmp_path / "tuned"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        tuned = json.loads((out / "tuned_config.json").read_text())
        assert tuned["tuning"] == "fixed"
        assert tuned["stage0"]["learning_rate"] in (0.001, 0.005, 0.01)

    def test_defaults_without_config_file(self, tmp_path):
        # no --config: built-in synthetic defaults; just check verb wiring
        out = tmp_path / "gen"
        assert main(["generate", "--out", str(out)]) == 0
        assert (out / "train.csv").exists()

    def test_missing_verb_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_verb_rejected(self):
        with pytest.raises(SystemExit):
            main(["plot"])
