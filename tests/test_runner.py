"""Runner tests: config plumbing, dataset resolution, tuning, pipeline
determinism, and results emission (kept at toy sizes)."""

import dataclasses
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from fixture_files import idx_images_bytes, idx_labels_bytes, toy_mnist, write_ihdp_pair
from hypothesis import given, settings, strategies as st
from numeric_oracles import EDGE_FLOATS

from catebounds import (config as config_module, estimators,
                        flow as flow_module, runner, sensitivity)
from catebounds.autodiff import NonFiniteError
from catebounds.balancing import BalancingConfig
from catebounds.bounds import cate_bounds
from catebounds.config import (DatasetSpec, ExperimentConfig, FlowParams,
                               PropensityParams, Stage0Params,
                               config_from_dict, config_hash, config_to_dict)
from catebounds.data import gen_synthetic, read_table, synthetic_tau
from catebounds.estimators import (NEEDS_BALANCING, EstimatorConfig,
                                   EstimatorKind, Stage0Model, build_stage0,
                                   predict_heads, representation)
from catebounds.evaluation import (PolicyReport, bounds_policy, make_grid,
                                   write_decision_grid_csv)
from catebounds.flow import ConditionalFlow, FlowDivergenceError
from catebounds.nets import TrainRun
from catebounds.sensitivity import (PropensityModel, build_gamma_field,
                                    train_propensity)
from catebounds.runner import (
    RunRecord,
    emit_results,
    evaluate_seed,
    grid_search_cv,
    load_dataset,
    refute_seed,
    run_experiment,
    run_pipeline,
    _read_tau_csv,
    _write_train_tau,
    train_seed,
    tune_config,
)


def tiny_config(out_dir, **overrides):
    base = dict(
        dataset=DatasetSpec(n_train=100, n_test=40),
        d_phi=1, deltas=(0.001,), k=150, seeds=(0,), out_dir=str(out_dir),
        stage0=Stage0Params(n_iter=40, batch_size=32),
        prop_x=PropensityParams(n_iter=40),
        prop_phi=PropensityParams(n_iter=40),
        flow=FlowParams(n_iter=40))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, method="cfr", balancing_metric="mmd",
                          balancing_alpha=0.5, deltas=(0.0005, 0.05))
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            config_from_dict({"metod": "tarnet"})
        with pytest.raises(ValueError, match="unknown stage0"):
            config_from_dict({"stage0": {"lr": 0.1}})

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, method="mystery")
        with pytest.raises(ValueError):
            tiny_config(tmp_path, tuning="bayesian")
        with pytest.raises(ValueError):
            tiny_config(tmp_path, seeds=())
        with pytest.raises(ValueError):
            tiny_config(tmp_path, deltas=(-0.1,))
        with pytest.raises(ValueError):
            DatasetSpec(kind="tabular")
        for sizes in (dict(n_train=0), dict(n_train=float("nan"), n_test=5),
                      dict(n_test=float("nan"))):
            with pytest.raises(ValueError, match="split sizes must be positive"):
                DatasetSpec(**sizes)

    @pytest.mark.parametrize("n_grid", [0, -1])
    def test_non_positive_n_grid_rejected(self, tmp_path, n_grid):
        with pytest.raises(ValueError, match="n_grid must be positive"):
            tiny_config(tmp_path, tuning="grid", n_grid=n_grid)

    @pytest.mark.parametrize("name, value", [("grid_resolution", 1),
                                             ("grid_resolution", -2),
                                             ("jobs", 0)])
    def test_grid_and_jobs_checked_at_load(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            tiny_config(tmp_path, **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be"):
            config_from_dict({name: value})

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"seeds must be distinct, got \(1, 1\)"):
            tiny_config(tmp_path, seeds=(1, 1))
        with pytest.raises(ValueError, match="seeds must be distinct"):
            config_from_dict({"seeds": [0, 2, 0]})
        assert tiny_config(tmp_path, seeds=(2, 0)).seeds == (2, 0)

    @pytest.mark.parametrize("deltas", [(float("nan"),), (0.01, float("nan")),
                                        (-0.1,)])
    def test_nan_or_negative_delta_rejected(self, tmp_path, deltas):
        with pytest.raises(ValueError, match="non-negative"):
            tiny_config(tmp_path, deltas=deltas)

    def test_duplicate_deltas_rejected(self, tmp_path):
        with pytest.raises(ValueError,
                           match=r"deltas must be distinct, got \(0.01, 0.01\)"):
            tiny_config(tmp_path, deltas=(0.01, 0.01))
        with pytest.raises(ValueError, match="deltas must be distinct"):
            config_from_dict({"deltas": [0.05, 0.001, 0.05]})
        assert tiny_config(tmp_path, deltas=(0.05, 0.0)).deltas == (0.05, 0.0)

    def test_hash_ignores_output_location_only(self, tmp_path):
        a = tiny_config(tmp_path / "a")
        b = tiny_config(tmp_path / "b", jobs=4)
        c = tiny_config(tmp_path / "a", k=151)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_balancing_requirements(self, tmp_path):
        with pytest.raises(ValueError, match="balancing_metric"):
            tiny_config(tmp_path, method="cfr")

    @pytest.mark.parametrize("overrides, message", [
        (dict(flow=FlowParams(learning_rate=0.0)),
         "flow: learning_rate must be positive"),
        (dict(flow=FlowParams(knots=1)), "flow: knots must be at least 2"),
        (dict(flow=FlowParams(noise_y=-0.1)),
         "flow: noise intensities must be non-negative"),
        (dict(flow=FlowParams(hidden_multiplier=float("nan"))),
         "flow: hidden_multiplier must be positive"),
        (dict(prop_x=PropensityParams(batch_size=0)),
         "prop_x: batch_size must be positive"),
        (dict(prop_phi=PropensityParams(weight_decay=-0.1)),
         "prop_phi: weight_decay must be non-negative"),
        (dict(prop_phi=PropensityParams(hidden_multiplier=-1.0)),
         "prop_phi: hidden_multiplier must be positive"),
        (dict(stage0=Stage0Params(n_iter=0)), "stage0: n_iter must be positive"),
        (dict(stage0=Stage0Params(rep_multiplier=0.0)),
         "stage0: rep_multiplier must be positive"),
        (dict(stage0=Stage0Params(prop_learning_rate=-1.0)),
         "stage0: prop_learning_rate must be positive"),
        (dict(method="cfr", balancing_metric="mmd", balancing_kernel="cubic"),
         "unknown kernel 'cubic'"),
        (dict(method="cfr", balancing_metric="wasserstein", sinkhorn_epsilon=0.0),
         "sinkhorn_epsilon must be positive"),
    ])
    def test_stage_settings_checked_at_load(self, tmp_path, overrides, message):
        # each must fail when the config is built, before any stage trains
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            tiny_config(tmp_path, **overrides)

    @pytest.mark.parametrize("section, name, message", [
        *[("stage0", name, f"stage0: {name} must be {sign}")
          for name, sign in (("learning_rate", "positive"),
                             ("weight_decay", "non-negative"),
                             ("prop_learning_rate", "positive"),
                             ("prop_weight_decay", "non-negative"))],
        *[(section, name, f"{section}: {name} must be {sign}")
          for section in ("prop_x", "prop_phi")
          for name, sign in (("learning_rate", "positive"),
                             ("weight_decay", "non-negative"))],
        ("flow", "learning_rate", "flow: learning_rate must be positive"),
        ("flow", "noise_y", "flow: noise intensities must be non-negative, "
                            "got noise_y=nan"),
        ("flow", "noise_context", "flow: noise intensities must be "
                                  "non-negative, got noise_y=0.1, "
                                  "noise_context=nan"),
        (None, "balancing_alpha", "alpha must be non-negative"),
        (None, "sinkhorn_epsilon", "sinkhorn_epsilon must be positive"),
    ])
    def test_nan_setting_refused_at_load(self, tmp_path, section, name,
                                         message):
        # cfr with Wasserstein balancing reads every one of them
        base = tiny_config(tmp_path, method="cfr",
                           balancing_metric="wasserstein")
        overrides = ({name: float("nan")} if section is None else
                     {section: replace(getattr(base, section),
                                       **{name: float("nan")})})
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            replace(base, **overrides)

    @pytest.mark.parametrize("section, name, value, message", [
        ("stage0", "batch_size", 64.0, "stage0: batch_size must be an integer"),
        ("prop_x", "n_iter", 10.5, "prop_x: n_iter must be an integer"),
        ("flow", "knots", True, "flow: knots must be an integer"),
        (None, "k", 100.0, "k must be an integer"),
        (None, "jobs", False, "jobs must be an integer"),
        (None, "seeds", (0, 1.0), "seeds[1] must be an integer"),
        ("dataset", "n_train", 100.0, "dataset: n_train must be an integer"),
    ])
    def test_int_setting_must_be_an_integer(self, tmp_path, section, name,
                                            value, message):
        base = tiny_config(tmp_path)
        overrides = ({name: value} if section is None else
                     {section: replace(getattr(base, section), **{name: value})})
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            replace(base, **overrides)

    @pytest.mark.parametrize("knob, message", [
        (dict(balancing_metric="energy"), "'energy' is not a valid BalancingMetric"),
        (dict(balancing_alpha=-1.0), "alpha must be non-negative"),
        (dict(balancing_kernel="cubic"), "unknown kernel 'cubic'"),
        (dict(sinkhorn_epsilon=-1.0), "sinkhorn_epsilon must be positive"),
        (dict(sinkhorn_iters=0), "sinkhorn_iters must be positive"),
    ])
    def test_balancing_knobs_checked_without_balancing(self, tmp_path, knob,
                                                       message):
        # tarnet does not balance, yet the knobs enter config_hash
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            tiny_config(tmp_path, method="tarnet", **knob)

    @pytest.mark.parametrize("method", ["tarnet", "inv_tarnet", "bnn"])
    @pytest.mark.parametrize("knob", [
        dict(balancing_metric="wasserstein"), dict(balancing_alpha=5.0),
        dict(balancing_kernel="rbf"), dict(sinkhorn_epsilon=0.5),
        dict(sinkhorn_iters=3)])
    def test_balancing_knob_refused_where_unused(self, tmp_path, method, knob):
        # a knob the method ignores would still change config_hash
        [name] = knob
        with pytest.raises(ValueError, match=f"^{method} does not use {name}"):
            tiny_config(tmp_path, method=method, **knob)
        # accepted with the metric that reads it
        metric = "wasserstein" if name.startswith("sinkhorn_") else "mmd"
        cfg = tiny_config(tmp_path, method="cfr",
                          **{"balancing_metric": metric, **knob})
        assert getattr(cfg, name) == knob[name]

    @pytest.mark.parametrize("metric, knob", [
        ("mmd", dict(sinkhorn_epsilon=0.5)), ("mmd", dict(sinkhorn_iters=3)),
        ("wasserstein", dict(balancing_kernel="rbf"))])
    def test_balancing_knob_refused_by_metric_that_ignores_it(
            self, tmp_path, metric, knob):
        [name] = knob
        with pytest.raises(ValueError, match=f"^{metric} balancing does not "
                                             f"use {name}; leave it at its "
                                             "default"):
            tiny_config(tmp_path, method="cfr", balancing_metric=metric, **knob)

    @pytest.mark.parametrize("method, balancing", [
        ("tarnet", {}), ("cfr", dict(balancing_metric="mmd")),
        ("bwcfr", dict(balancing_metric="wasserstein")), ("bnn", {})])
    @pytest.mark.parametrize("name", ["prop_learning_rate", "prop_weight_decay"])
    def test_joint_propensity_setting_refused_without_cfr_isw(
            self, tmp_path, method, balancing, name):
        # only cfr_isw trains a propensity subnet in stage 0
        stage0 = Stage0Params(n_iter=40, batch_size=32, **{name: 0.1})
        with pytest.raises(ValueError, match=f"^stage0: {method} does not use "
                                             f"{name}; leave it at its default "
                                             "None"):
            tiny_config(tmp_path, method=method, stage0=stage0, **balancing)
        cfg = tiny_config(tmp_path, method="cfr_isw", balancing_metric="mmd",
                          stage0=stage0)
        assert getattr(cfg.stage0, name) == 0.1

    @pytest.mark.parametrize("kind", ["ihdp", "hcmnist"])
    def test_grid_resolution_refused_on_real_data(self, tmp_path, kind):
        # the decision grid spans the synthetic covariates only
        with pytest.raises(ValueError, match=f"^{kind} data does not use "
                                             "grid_resolution; leave it at "
                                             "its default 0"):
            tiny_config(tmp_path, dataset=DatasetSpec(kind=kind),
                        grid_resolution=4)
        assert tiny_config(tmp_path, grid_resolution=4).grid_resolution == 4

    def test_r_multiplier(self, tmp_path):
        assert tiny_config(tmp_path).r_multiplier == 2
        ihdp = tiny_config(tmp_path, dataset=DatasetSpec(kind="ihdp"))
        assert ihdp.r_multiplier == 1


class TestLoadDataset:
    def test_synthetic_splits(self):
        train, test = load_dataset(DatasetSpec(n_train=60, n_test=25, seed=3))
        assert train.n == 60 and test.n == 25
        assert not np.array_equal(train.x[:25], test.x)

    IHDP = dict(kind="ihdp", replicate=2, n_train=672, n_test=75)

    def test_ihdp_path_and_env(self, tmp_path, monkeypatch):
        write_ihdp_pair(tmp_path, 2)
        spec = DatasetSpec(**self.IHDP, path=str(tmp_path))
        train, test = load_dataset(spec)
        assert train.n == 672 and test.n == 75

        monkeypatch.delenv("RICB_DATA_DIR", raising=False)
        with pytest.raises(ValueError, match="RICB_DATA_DIR"):
            load_dataset(DatasetSpec(**self.IHDP))
        monkeypatch.setenv("RICB_DATA_DIR", str(tmp_path))
        train2, _ = load_dataset(DatasetSpec(**self.IHDP))
        assert np.array_equal(train2.x, train.x)

    @staticmethod
    def write_toy_idx(directory):
        images, labels = toy_mnist(n_per_class=6)
        pix = images.reshape(-1, 28, 28)
        (directory / "train-images-idx3-ubyte").write_bytes(idx_images_bytes(pix))
        (directory / "train-labels-idx1-ubyte").write_bytes(idx_labels_bytes(labels))
        (directory / "t10k-images-idx3-ubyte").write_bytes(idx_images_bytes(pix[:30]))
        (directory / "t10k-labels-idx1-ubyte").write_bytes(idx_labels_bytes(labels[:30]))

    def test_hcmnist_from_idx_files(self, tmp_path):
        self.write_toy_idx(tmp_path)
        train, test = load_dataset(DatasetSpec(kind="hcmnist", n_train=60,
                                               n_test=30, path=str(tmp_path)))
        assert train.d_x == 785 and test.d_x == 785
        assert train.n == 60 and test.n == 30

    def test_split_size_mismatch_raises(self, tmp_path):
        # the spec's sizes are recorded in config_hash and results.json, so a
        # file of another size is refused rather than silently used
        self.write_toy_idx(tmp_path)
        with pytest.raises(ValueError, match="train split has 60 rows .* 1000"):
            load_dataset(DatasetSpec(kind="hcmnist", path=str(tmp_path)))
        with pytest.raises(ValueError, match="test split has 30 rows .* 29"):
            load_dataset(DatasetSpec(kind="hcmnist", n_train=60, n_test=29,
                                     path=str(tmp_path)))
        write_ihdp_pair(tmp_path, 2)
        with pytest.raises(ValueError, match="train split has 672 rows .* 600"):
            load_dataset(DatasetSpec(**{**self.IHDP, "n_train": 600},
                                     path=str(tmp_path)))

    def test_missing_idx_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(DatasetSpec(kind="hcmnist", path=str(tmp_path)))

    def test_hcmnist_holds_one_float_copy_of_the_images(self, tmp_path):
        # the pixels stay uint8 until build_hcmnist divides them into the
        # covariates; a float copy of the images on top of the covariates
        # would take the peak to about twice the two matrices
        rng = np.random.default_rng(0)
        rows = {"train": 4096, "t10k": 512}
        for split, n in rows.items():
            pixels = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
            labels = np.arange(n) % 10
            (tmp_path / f"{split}-images-idx3-ubyte").write_bytes(
                idx_images_bytes(pixels))
            (tmp_path / f"{split}-labels-idx1-ubyte").write_bytes(
                idx_labels_bytes(labels))
        spec = DatasetSpec(kind="hcmnist", n_train=rows["train"],
                           n_test=rows["t10k"], path=str(tmp_path))
        tracemalloc.start()
        try:
            train, test = runner.load_dataset(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pixel_bytes = sum(rows.values()) * 784
        assert train.x.nbytes + test.x.nbytes == sum(rows.values()) * 785 * 8
        assert peak < pixel_bytes + 1.25 * (train.x.nbytes + test.x.nbytes)


class TestGridSearch:
    def test_one_point_grid_selected(self, tmp_path):
        cfg = tiny_config(tmp_path, n_grid=1, cv_folds=2)
        train, _ = load_dataset(cfg.dataset)
        won = grid_search_cv("prop_x", cfg, train)
        again = grid_search_cv("prop_x", cfg, train)
        assert won == again  # sampling and scoring are seed-deterministic

    def test_winner_attains_minimum_cv_score(self, tmp_path):
        from catebounds.runner import (_candidate_score, _sample_count,
                                       _stage_grid, _stratified_folds)
        import zlib

        cfg = tiny_config(tmp_path, n_grid=3, cv_folds=2)
        train, _ = load_dataset(cfg.dataset)
        won = grid_search_cv("prop_x", cfg, train)

        # independent replay of the sampling, folds, and scoring
        grid = _stage_grid("prop_x", cfg)
        tag = zlib.crc32(b"prop_x")
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seeds[0], tag)))
        picked = rng.choice(len(grid), size=3, replace=False)
        folds = _stratified_folds(train.a, 2, rng)
        fit_seed = int(np.random.SeedSequence(
            (cfg.seeds[0], tag, 1)).generate_state(1)[0])
        all_idx = np.arange(train.n)
        scores = {}
        for gi in picked:
            per_fold = []
            for va in folds:
                tr = np.setdiff1d(all_idx, va, assume_unique=True)
                per_fold.append(_candidate_score(
                    "prop_x", cfg, grid[int(gi)], train, None, tr, va, fit_seed))
            scores[int(gi)] = float(np.mean(per_fold))
        best_gi = min(scores, key=lambda g: (scores[g], list(picked).index(g)))
        assert won == grid[best_gi]

    def test_selects_better_fit_on_linear_toy(self, tmp_path):
        # candidates that barely train lose to ones that reach the signal
        rng = np.random.default_rng(0)
        base = gen_synthetic(200, seed=9)
        cfg = tiny_config(tmp_path, n_grid=6, cv_folds=2,
                          prop_x=PropensityParams(n_iter=300))
        won = grid_search_cv("prop_x", cfg, base)
        assert won.n_iter == 300  # grid varies lr/batch/wd/width, not length
        assert won.learning_rate in (0.001, 0.005, 0.01)

    def test_stage_grid_matches_nested_loops(self, tmp_path):
        from catebounds.runner import _stage_grid

        lrs, batches = (0.001, 0.005, 0.01), (32, 64, 128)
        wds, mults = (0.0, 0.001, 0.01, 0.1), (1.0, 1.5, 2.0)
        knots, noises = (5, 10, 20), (0.05, 0.1, 0.5)

        def oracle(stage, cfg, isw):
            base = getattr(cfg, stage)
            out = []
            if stage == "stage0":
                for lr in lrs:
                    for b in batches:
                        for wd in wds:
                            for rm in mults:
                                for hm in mults:
                                    p = replace(base, learning_rate=lr,
                                                batch_size=b, weight_decay=wd,
                                                rep_multiplier=rm,
                                                head_multiplier=hm)
                                    if not isw:
                                        out.append(p)
                                        continue
                                    for plr in lrs:
                                        for pwd in wds:
                                            out.append(replace(
                                                p, prop_learning_rate=plr,
                                                prop_weight_decay=pwd))
            elif stage == "flow":
                for lr in lrs:
                    for b in batches:
                        for m in mults:
                            for kn in knots:
                                for ny in noises:
                                    for nc in noises:
                                        out.append(replace(
                                            base, learning_rate=lr,
                                            batch_size=b, hidden_multiplier=m,
                                            knots=kn, noise_y=ny,
                                            noise_context=nc))
            else:
                for lr in lrs:
                    for b in batches:
                        for wd in wds:
                            for m in mults:
                                out.append(replace(
                                    base, learning_rate=lr, batch_size=b,
                                    weight_decay=wd, hidden_multiplier=m))
            return out

        for cfg, isw in ((tiny_config(tmp_path), False),
                         (tiny_config(tmp_path, method="cfr_isw",
                                      balancing_metric="mmd",
                                      balancing_alpha=0.5), True)):
            for stage in ("stage0", "prop_x", "prop_phi", "flow"):
                assert _stage_grid(stage, cfg) == oracle(stage, cfg, isw)
        sizes = [len(_stage_grid(s, cfg)) for s in ("stage0", "prop_x", "flow")]
        assert sizes == [3888, 108, 729]

    def test_stratification_failure_message(self, tmp_path):
        cfg = tiny_config(tmp_path, cv_folds=5, n_grid=1)
        x = np.random.default_rng(0).normal(size=(40, 2))
        a = np.zeros(40)
        a[:3] = 1.0  # three treated rows cannot spread over five folds
        from catebounds.data import Dataset

        train = Dataset(x=x, a=a, y=np.zeros(40))
        with pytest.raises(ValueError, match="stratify"):
            grid_search_cv("prop_x", cfg, train)

    def test_fixed_mode_passthrough(self, tmp_path):
        cfg = tiny_config(tmp_path)
        train, _ = load_dataset(cfg.dataset)
        assert tune_config(cfg, train) is cfg

    def test_tuned_stage0_matches_a_fresh_fit(self, tmp_path):
        cfg = tiny_config(tmp_path / "tuned", tuning="grid", n_grid=1,
                          cv_folds=2)
        train, _ = load_dataset(cfg.dataset)
        run_experiment(cfg)
        resolved = tune_config(cfg, train)
        train_seed(replace(resolved, out_dir=str(tmp_path / "fresh")), train, 0)
        assert ((tmp_path / "tuned" / "seed_0" / "stage0.json").read_bytes()
                == (tmp_path / "fresh" / "seed_0" / "stage0.json").read_bytes())

    def test_unknown_stage(self, tmp_path):
        cfg = tiny_config(tmp_path)
        train, _ = load_dataset(cfg.dataset)
        with pytest.raises(ValueError, match="stage"):
            grid_search_cv("stage3", cfg, train)


class TestSeeds:
    """The seeds that seed 0 derives, as literals: every trained model and
    every output depends on them, so a change to one reseeds every run."""

    STAGE0 = {"phi": 3757552657, "head0": 673228719, "head1": 3241444873,
              "snet": 3685993406, "decoder": 1216546553, "weight": 2078861726,
              "prop_phi": 2471122328, "prop_x": 23012616, "shuffle": 3031610183}
    # stage0, prop_x, prop_phi, flow
    STAGES = [3757552657, 673228719, 3241444873, 3685993406]

    def test_build_stage0(self):
        seen = {}
        for kind in EstimatorKind:
            model = build_stage0(EstimatorConfig(
                kind=kind, d_x=2, d_phi=1, rep_hidden=2, head_hidden=2,
                balancing=(BalancingConfig(alpha=0.1)
                           if kind in NEEDS_BALANCING else None), seed=0))
            seen.update({name: net.cfg.seed for name, net in model.nets.items()},
                        shuffle=model.shuffle_seed)
        assert seen == self.STAGE0

    def test_train_propensity(self):
        x = np.arange(4.0).reshape(-1, 1)
        model = train_propensity(x, np.array([0.0, 1.0, 0.0, 1.0]),
                                 TrainRun(n_iter=1), hidden_units=2, seed=0)
        assert model.net.cfg.seed == self.STAGES[0]

    def test_runner(self, tmp_path, monkeypatch):
        seeds = []
        for name in ("_fit_stage0", "_fit_propensity", "_fit_flow"):
            def spy(*args, fit=getattr(runner, name)):
                seeds.append(args[-1])
                return fit(*args)
            monkeypatch.setattr(runner, name, spy)
        cfg = tiny_config(tmp_path)
        train, test = load_dataset(cfg.dataset)
        run_pipeline(cfg, train, test, 0)
        assert seeds == self.STAGES


class TestPipeline:
    def test_run_record_contents(self, tmp_path):
        cfg = tiny_config(tmp_path / "r")
        train, test = load_dataset(cfg.dataset)
        rec = run_pipeline(cfg, train, test, 0)
        assert rec.seed == 0
        assert rec.rpehe_out > 0.0
        assert len(rec.per_delta) == 1
        assert 0.0 <= rec.per_delta[0].deferral_rate <= 1.0
        assert rec.config_hash == config_hash(cfg)
        for name in ("stage0", "prop_x", "prop_phi", "flow"):
            assert (Path(cfg.out_dir) / "seed_0" / f"{name}.json").exists()

    @pytest.mark.parametrize("method, balancing", [
        ("tarnet", {}), ("cfr_isw", {"balancing_metric": "mmd"}),
        ("bwcfr", {"balancing_metric": "mmd"})])
    def test_trained_models_infer_without_recording(self, tmp_path, monkeypatch,
                                                    recorded, method, balancing):
        # the models the pipeline trained, as each trainer returns them
        trained = {}
        for name in ("train_stage0", "train_propensity", "train_cnf"):
            def keep(*args, _name=name, _train=getattr(runner, name), **kwargs):
                model = _train(*args, **kwargs)
                trained.setdefault(_name, []).append(model)
                return model
            monkeypatch.setattr(runner, name, keep)
        cfg = tiny_config(tmp_path, method=method, **balancing)
        train, test = load_dataset(cfg.dataset)
        run_pipeline(cfg, train, test, 0)
        [model], props, [flow] = (trained[name] for name in
                                  ("train_stage0", "train_propensity", "train_cnf"))

        recorded.clear()  # the pipeline's own nodes
        phi = representation(model, test.x)
        predict_heads(model, phi)
        props[0].predict(test.x)
        props[1].predict(phi)
        flow.sample(test.a, phi, 20)
        flow.log_density(test.y, test.a, phi)
        flow.nll(test.y, test.a, phi)
        assert recorded and not any(recorded)

    def test_pipeline_deterministic(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = tiny_config(tmp_path / "b")
        train, test = load_dataset(cfg_a.dataset)
        ra = run_pipeline(cfg_a, train, test, 5)
        rb = run_pipeline(cfg_b, train, test, 5)
        assert ra.rpehe_out == rb.rpehe_out
        assert ra.per_delta == rb.per_delta
        ba = (Path(cfg_a.out_dir) / "seed_5" / "bounds_0.001.csv").read_bytes()
        bb = (Path(cfg_b.out_dir) / "seed_5" / "bounds_0.001.csv").read_bytes()
        assert ba == bb

    def test_one_forward_per_network_per_split(self, tmp_path, monkeypatch):
        """refute_seed runs phi and each fitted propensity net once on the
        training split and once on the test split, and reuses the results."""
        from catebounds.nets import Mlp
        from catebounds.sensitivity import PropensityModel

        cfg = tiny_config(tmp_path / "fwd", deltas=(0.001, 0.01))
        train, test = load_dataset(cfg.dataset)
        model = train_seed(cfg, train, 0)
        phi_rows, prop_rows = [], {}
        net_predict, predict = Mlp.predict, PropensityModel.predict

        def counted_net_predict(self, x, prepare=None):
            if self is model.nets["phi"]:
                phi_rows.append(len(x))
            return net_predict(self, x, prepare)

        def counted_predict(self, inputs):
            prop_rows.setdefault(id(self), []).append(len(inputs))
            return predict(self, inputs)

        monkeypatch.setattr(Mlp, "predict", counted_net_predict)
        monkeypatch.setattr(PropensityModel, "predict", counted_predict)
        refute_seed(cfg, train, test, 0, model=model)
        splits = sorted([train.n, test.n])
        assert sorted(phi_rows) == splits
        assert len(prop_rows) == 2  # pi^x and pi^phi
        for rows in prop_rows.values():
            assert sorted(rows) == splits

    def test_refute_requires_stage0_checkpoint(self, tmp_path):
        cfg = tiny_config(tmp_path / "r2")
        train, test = load_dataset(cfg.dataset)
        with pytest.raises(FileNotFoundError, match="train step"):
            refute_seed(cfg, train, test, 0)

    def test_evaluate_requires_refute_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path / "r3", deltas=(0.001, 0.01))
        train, test = load_dataset(cfg.dataset)
        with pytest.raises(FileNotFoundError, match="refute step"):
            evaluate_seed(cfg, train, test, 0)
        # every delta's bounds file is required, not only the first
        refute_seed(cfg, train, test, 0, model=train_seed(cfg, train, 0))
        (Path(cfg.out_dir) / "seed_0" / "bounds_0.01.csv").unlink()
        with pytest.raises(FileNotFoundError, match="refute step"):
            evaluate_seed(cfg, train, test, 0)

    def test_oracle_required(self, tmp_path):
        from catebounds.data import Dataset

        cfg = tiny_config(tmp_path / "r4")
        train, test = load_dataset(cfg.dataset)
        bare = Dataset(x=test.x, a=test.a, y=test.y)
        with pytest.raises(ValueError, match="oracle"):
            run_pipeline(cfg, train, bare, 0)

    def test_run_experiment_sorts_seeds_and_emits(self, tmp_path):
        cfg = tiny_config(tmp_path / "exp", seeds=(2, 0))
        records = run_experiment(cfg)
        assert [r.seed for r in records] == [0, 2]
        out = Path(cfg.out_dir)
        assert (out / "aggregate.csv").exists()
        assert (out / "results.json").exists()
        assert (out / "table.txt").exists()
        payload = json.loads((out / "results.json").read_text())
        assert payload["schema"] == "v1"
        assert "wall_time" not in json.dumps(payload)

    def test_results_per_delta_match_curves(self, tmp_path):
        cfg = tiny_config(tmp_path / "curves", seeds=(0, 1),
                          deltas=(0.001, 0.05, 0.2))
        run_experiment(cfg)
        out = Path(cfg.out_dir)
        payload = json.loads((out / "results.json").read_text())
        assert [r["seed"] for r in payload["records"]] == [0, 1]
        for record in payload["records"]:
            header, rows = read_table(out / f"seed_{record['seed']}" / "curve.csv")
            assert header == ["delta", "error_rate", "deferral_rate", "n_decided"]
            assert [[entry["delta"], entry["er_out"], entry["dr_out"],
                     entry["n_decided"]] for entry in record["per_delta"]] == [
                [float(d), None if er == "" else float(er), float(dr), int(n)]
                for d, er, dr, n in rows]

    def test_decision_grid_emitted_when_requested(self, tmp_path):
        cfg = tiny_config(tmp_path / "grid", grid_resolution=4, k=60,
                          deltas=(0.001, 0.05))
        train, test = load_dataset(cfg.dataset)
        run_pipeline(cfg, train, test, 0)
        sdir = Path(cfg.out_dir) / "seed_0"
        path = sdir / "decision_grid.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,tau_oracle,tau_hat,decision"
        assert len(lines) == 17
        # the grid is bounded at the first delta of the seed's field
        model = runner._load_checkpoint(sdir / "stage0.json", Stage0Model)
        prop_x, prop_phi = (runner._load_checkpoint(sdir / f"{name}.json",
                                                    PropensityModel)
                            for name in ("prop_x", "prop_phi"))
        flow = runner._load_checkpoint(sdir / "flow.json", ConditionalFlow)
        phi = representation(model, train.x)
        field = build_gamma_field(phi, prop_x.predict(train.x),
                                  prop_phi.predict(phi), cfg.deltas)
        grid = make_grid(resolution=4)
        full = cate_bounds(grid, model, prop_x, prop_phi, field, flow, cfg.k)
        assert len(full) == 2
        expected = tmp_path / "expected.csv"
        write_decision_grid_csv(expected, grid, synthetic_tau(grid),
                                full[0].point, bounds_policy(full[0]))
        assert path.read_bytes() == expected.read_bytes()


class TestStageErrors:
    """A stage whose fit fails names the pipeline seed and the stage, and a
    non-finite value also the iteration."""

    @staticmethod
    def poison(monkeypatch, module, name, call):
        """Make the loss `module.name` returns on its `call`-th call
        infinite, through a tape op."""
        original, calls = getattr(module, name), []

        def poisoned(*args):
            out = original(*args)
            calls.append(None)
            if len(calls) != call:
                return out
            if isinstance(out, tuple):  # stage0_loss: (loss, parts)
                return (out[0] / 0.0, *out[1:])
            return out / 0.0

        monkeypatch.setattr(module, name, poisoned)

    def test_stage0_names_seed_stage_and_iteration(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        train, _ = load_dataset(cfg.dataset)
        self.poison(monkeypatch, estimators, "stage0_loss", 3)
        with pytest.raises(NonFiniteError) as info:
            train_seed(cfg, train, 7)
        assert str(info.value) == ("seed 7, stage stage0: non-finite values "
                                   "produced by op 'div' at iteration 3")

    def test_prop_phi_names_seed_stage_and_iteration(self, tmp_path,
                                                     monkeypatch):
        cfg = tiny_config(tmp_path)
        train, test = load_dataset(cfg.dataset)
        model = train_seed(cfg, train, 7)
        # prop_x's 40 steps come first, so call 45 is prop_phi's 5th step
        self.poison(monkeypatch, sensitivity, "bce_logits",
                    cfg.prop_x.n_iter + 5)
        with pytest.raises(NonFiniteError) as info:
            refute_seed(cfg, train, test, 7, model=model)
        assert str(info.value) == ("seed 7, stage prop_phi: non-finite values "
                                   "produced by op 'div' at iteration 5")

    def test_flow_divergence_names_seed_and_stage(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        train, test = load_dataset(cfg.dataset)
        model = train_seed(cfg, train, 2)
        monkeypatch.setattr(flow_module, "DIVERGENCE_FACTOR", -1.0)
        monkeypatch.setattr(flow_module, "DIVERGENCE_PATIENCE", 1)
        with pytest.raises(FlowDivergenceError,
                           match=r"^seed 2, stage flow: NLL .* for 1 steps$"):
            refute_seed(cfg, train, test, 2, model=model)


class TestTrainTau:
    def test_round_trip_bitwise(self, tmp_path):
        tau = np.array([0.1, -2.5, 5e-324, -0.0, 1e308])
        path = tmp_path / "train_tau.csv"
        _write_train_tau(path, tau)
        assert _read_tau_csv(path).tobytes() == tau.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(tau=st.lists(EDGE_FLOATS, max_size=8))
    def test_read_parses_as_the_float_array_cast(self, tmp_path_factory, tau):
        path = tmp_path_factory.mktemp("tau") / "train_tau.csv"
        _write_train_tau(path, np.array(tau, dtype=np.float64))
        _, rows = read_table(path)
        cast = np.array(rows, dtype=np.float64).reshape(len(rows), 2)[:, 1]
        assert _read_tau_csv(path).tobytes() == cast.tobytes()

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "train_tau.csv"
        path.write_text("id,tau_hat\r\n0,0.5\r\n1,0.25,7\r\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            _read_tau_csv(path)


class TestEmitResults:
    def make_record(self, seed, er_point, er_b, dr, rp_in, rp_out):
        return RunRecord(
            config_hash="h", seed=seed,
            er_point_out=er_point, rpehe_in=rp_in, rpehe_out=rp_out,
            per_delta=(PolicyReport(er_b, dr, 10, None if er_b is None else
                                    er_b - er_point),))

    def test_hand_computed_aggregation(self, tmp_path):
        cfg = tiny_config(tmp_path / "agg")
        records = [
            self.make_record(0, 0.30, 0.20, 0.10, 1.0, 2.0),
            self.make_record(1, 0.10, 0.10, 0.30, 2.0, 3.0),
            self.make_record(2, 0.20, None, 1.00, 3.0, 4.0),
        ]
        emit_results(cfg, records)
        lines = (Path(cfg.out_dir) / "aggregate.csv").read_text().splitlines()
        head = lines[0].split(",")
        point = dict(zip(head, lines[1].split(",")))
        row = dict(zip(head, lines[2].split(",")))
        assert float(point["er_out"]) == pytest.approx(0.2)       # (3+1+2)/30
        assert float(row["er_out"]) == pytest.approx(0.15)        # over 2 seeds
        assert float(row["delta_er_out"]) == pytest.approx(-0.05)
        assert float(row["dr_out"]) == pytest.approx(1.4 / 3)
        assert float(row["rpehe_in"]) == pytest.approx(2.0)
        assert float(row["rpehe_out"]) == pytest.approx(3.0)
        assert row["seeds"] == "3"

    def test_json_round_trips(self, tmp_path):
        cfg = tiny_config(tmp_path / "rt")
        emit_results(cfg, [self.make_record(0, 0.1, 0.1, 0.2, 1.0, 1.0)])
        payload = json.loads((Path(cfg.out_dir) / "results.json").read_text())
        record = payload["records"][0]
        assert record["per_delta"][0]["dr_out"] == 0.2
        assert record["per_delta"][0]["delta"] == cfg.deltas[0]
        # method, d_phi and checkpoint paths come from the config
        assert (record["method"], record["d_phi"]) == ("tarnet", 1)
        assert record["checkpoints"] == {
            name: f"seed_0/{name}.json"
            for name in ("stage0", "prop_x", "prop_phi", "flow")}
        assert payload["config"]["k"] == 150

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results(tiny_config(tmp_path / "e"), [])

    # every float setting: (section or None, field)
    FLOAT_FIELDS = [
        (section, f.name)
        for section, cls in [(None, ExperimentConfig),
                             *((s, type(getattr(ExperimentConfig(), s)))
                               for s in config_module._STAGES)]
        for f in dataclasses.fields(cls)
        if config_module._NUMERIC.get(f.type) is float]

    @pytest.mark.parametrize("section, name", FLOAT_FIELDS + [(None, "deltas")])
    def test_float_setting_given_as_int_is_one_config(self, tmp_path, section,
                                                      name):
        # cfr_isw with Wasserstein balancing, so that every float setting,
        # the balancing knobs and the joint propensity's included, may move
        base = tiny_config(tmp_path, method="cfr_isw",
                           balancing_metric="wasserstein")

        def written(value):
            overrides = ({name: value} if section is None else
                         {section: replace(getattr(base, section), **{name: value})})
            cfg = replace(base, **overrides)
            emit_results(cfg, [self.make_record(0, 0.1, 0.1, 0.2, 1.0, 1.0)])
            results = json.loads((Path(cfg.out_dir) / "results.json").read_text())
            return config_hash(cfg), results["config"]

        as_int, as_float = ((1,), (1.0,)) if name == "deltas" else (1, 1.0)
        assert written(as_int) == written(as_float)
        _, config = written(as_int)
        stored = config[name] if section is None else config[section][name]
        assert json.dumps(stored) == json.dumps(as_float)
