"""Grid configs, run directories, aggregation, pareto emission, CLI."""

import copy
import csv
import functools
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflab import (
    ConfigurationError,
    DpoConfig,
    Judge,
    JudgeSpec,
    OpCounters,
    Policy,
    PromptUniverse,
    SelectionConfig,
    SftConfig,
    TrainConfig,
    TrainingError,
    UniverseConfig,
    aggregate_summary,
    capability_delta,
    counters_report,
    parse_config,
    run_grid,
    run_online_dpo,
    sft_fit,
)
from preflab import cli, harness, report
from preflab.cli import main
from preflab.harness import EvalSettings, ExperimentGrid, run_id_for
from preflab.report import EVAL_CSV_HEADER, EvalRow, discover_run_dirs, write_summary
from preflab.trainer import RunResult


SMOKE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smoke.json"
GOODHART_CONFIG = SMOKE_CONFIG.parent / "goodhart_weak.json"


def grid_config(out_dir, **overrides):
    config = {
        "universe": {
            "num_train_prompts": 16,
            "num_eval_prompts": 8,
            "num_probe_prompts": 8,
            "responses_per_prompt": 4,
            "feature_dim": 8,
            "true_reward_scale": 2.0,
            "misalignment_rho": -0.5,
            "seed": 99,
        },
        "train": {
            "dpo": {"beta": 0.1, "learning_rate": 0.02, "max_steps": 5, "updates_per_sample": 2},
            "selection": {
                "batch_prompts": 4,
                "candidates_per_prompt": 4,
                "apl_top_prompts": 2,
                "label_budget": 4,
            },
            "sft": {"learning_rate": 0.05, "epochs": 2, "batch": 8},
        },
        "selectors": ["random", "apl"],
        "annotators": [
            {"label": "weak", "misalignment": 0.9, "noise_temperature": 1.0, "seed": 1}
        ],
        "evaluators": [
            {"label": "weak-eval", "misalignment": 0.9, "noise_temperature": 1.0, "seed": 2},
            {"label": "oracle", "kind": "deterministic", "misalignment": 0.0, "seed": 3},
        ],
        "seeds": [42, 43, 44],
        "eval": {"n_trials": 200, "collapse_fraction": 0.1},
        "output_dir": str(out_dir),
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


# one-cell smoke grids ending each way a cell can end, with the error it records
SMOKE_OUTCOMES = {
    "completed": ({}, None),
    "failed": (
        {"sft": {"learning_rate": 1e308}},
        "supervised fit diverged at update 3; reduce sft.learning_rate",
    ),
    # Adam's first step moves each parameter by about 1e308; the second update
    # overflows, and the parameter check aborts the cell
    "aborted": (
        {"dpo": {"learning_rate": 1e308, "beta": 50.0, "warmup_ratio": 0.0}},
        "non-finite parameters at update 2",
    ),
}


def one_cell_smoke(outcome="completed", seeds=(42,), selectors=("random",)):
    config = json.loads(SMOKE_CONFIG.read_text())
    config.update(seeds=list(seeds), selectors=list(selectors))
    for section, values in SMOKE_OUTCOMES[outcome][0].items():
        config["train"][section].update(values)
    return config


class TestParseConfig:
    def test_minimal_single_cell_grid(self, tmp_path):
        config = grid_config(tmp_path / "runs", selectors=["random"], seeds=[42])
        grid, manifest = parse_config(write_config(tmp_path, config))
        assert grid.selectors == ["random"]
        assert grid.seeds == [42]
        assert manifest["config"]["train"]["dpo"]["beta"] == 0.1

    def test_duplicate_seeds_rejected(self, tmp_path):
        config = grid_config(tmp_path / "runs", seeds=[42, 42])
        with pytest.raises(ConfigurationError, match="duplicates"):
            parse_config(write_config(tmp_path, config))

    def test_unknown_key_rejected(self, tmp_path):
        config = grid_config(tmp_path / "runs")
        config["train"]["dpo"]["bets"] = 0.2
        with pytest.raises(ConfigurationError, match="bets"):
            parse_config(write_config(tmp_path, config))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        config = grid_config(tmp_path / "runs")
        config["universes"] = {}
        with pytest.raises(ConfigurationError, match="universes"):
            parse_config(write_config(tmp_path, config))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("optimizer", "sgd"),
            ("adam_beta1", 0.9),
            ("adam_beta2", 0.999),
            ("adam_eps", 1e-8),
            ("weight_decay", 0.0),
            ("lr_schedule", "constant"),
        ],
    )
    def test_removed_dpo_knobs_are_unknown_keys(self, tmp_path, key, value):
        # Adam at fixed constants is the only optimizer, and each stage fixes its schedule
        config = grid_config(tmp_path / "runs")
        config["train"]["dpo"][key] = value
        with pytest.raises(ConfigurationError, match=rf"train\.dpo: unknown key\(s\) \['{key}'\]"):
            parse_config(write_config(tmp_path, config))

    def test_omitted_beta_is_echoed_with_default(self, tmp_path):
        config = grid_config(tmp_path / "runs")
        del config["train"]["dpo"]["beta"]
        grid, manifest = parse_config(write_config(tmp_path, config))
        assert grid.train.dpo.beta == 0.1
        assert "train.dpo.beta" in manifest["defaulted_fields"]
        assert manifest["config"]["train"]["dpo"]["beta"] == 0.1

    def test_smoke_config_lists_every_defaulted_field(self):
        # the universe section's omitted fields included; manifest_hash does not cover them
        _, manifest = parse_config(SMOKE_CONFIG)
        assert manifest["defaulted_fields"] == [
            "annotators[0].kind",
            "evaluators[0].kind",
            "evaluators[1].noise_temperature",
            "train.dpo.warmup_ratio",
            "universe.feature_scale",
            "universe.tabular_mode",
            "universe_path",
        ]

    def test_minimal_config_is_the_dataclass_defaults(self, tmp_path):
        universe, judge, evaluator = UniverseConfig(**UNIVERSE), JudgeSpec("a"), JudgeSpec("b")
        config = {"universe": asdict(universe), "annotators": [asdict(judge)],
                  "evaluators": [asdict(evaluator)]}
        grid, manifest = parse_config(write_config(tmp_path, config))
        assert grid == ExperimentGrid(universe=universe, annotators=[judge], evaluators=[evaluator])
        assert manifest["defaulted_fields"] == [
            "eval", "output_dir", "seeds", "selectors", "train", "universe_path"
        ]

    def test_an_evaluator_sharing_an_annotator_label_is_refused(self, tmp_path):
        # judges with one label and seed draw one noise stream: such an evaluator
        # would replay the annotator's training labels in its win-rate trials
        config = grid_config(tmp_path / "runs")
        config["evaluators"].append(dict(config["annotators"][0]))
        with pytest.raises(ConfigurationError, match=r"share label\(s\) \['weak'\]"):
            parse_config(write_config(tmp_path, config))
        out = tmp_path / "out"
        argv = ["train", "--config", str(write_config(tmp_path, config)), "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_eval_is_the_json_key_of_eval_settings(self, tmp_path):
        config = grid_config(tmp_path / "runs", eval={"n_trials": 7})
        grid, manifest = parse_config(write_config(tmp_path, config))
        assert grid.eval_settings == EvalSettings(n_trials=7)
        assert manifest["config"]["eval"] == {"n_trials": 7, "collapse_fraction": 0.1}
        assert "eval.collapse_fraction" in manifest["defaulted_fields"]
        del config["eval"]
        config["eval_settings"] = {"n_trials": 7}
        with pytest.raises(ConfigurationError, match=r"top level: unknown key\(s\) \['eval_settings'\]"):
            parse_config(write_config(tmp_path, config))

    @pytest.mark.parametrize(
        "config,fragment",
        [
            (dict(grid_config("runs"), train=None), "train: expected an object, got NoneType"),
            ([grid_config("runs")], "top level: expected an object, got list"),
        ],
        ids=["null_train", "list_top_level"],
    )
    def test_a_non_object_names_the_file_and_the_key(self, tmp_path, config, fragment):
        path = write_config(tmp_path, config)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: {fragment}$"):
            parse_config(path)

    @pytest.mark.parametrize(
        "old,new,key_path",
        [
            ('"seeds":', '"seeds": [42, 43], "seeds":', "seeds"),
            ('"beta":', '"beta": 0.2, "beta":', r"train\.dpo\.beta"),
            ('"label":', '"label": "x", "label":', r"annotators\[0\]\.label"),
            ('"kind":', '"kind": "deterministic", "kind":', r"evaluators\[1\]\.kind"),
        ],
        ids=["top_level", "nested", "in_a_list", "in_a_later_list_item"],
    )
    def test_a_repeated_key_names_the_file_and_its_path(self, tmp_path, old, new, key_path):
        # json.loads alone would keep the last value without a word
        path = tmp_path / "config.json"
        path.write_text(SMOKE_CONFIG.read_text().replace(old, new, 1))
        with pytest.raises(
            ConfigurationError, match=f"^{re.escape(str(path))}: {key_path}: repeated key$"
        ):
            parse_config(path)

    def test_bytes_that_are_not_utf8_are_a_configuration_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(SMOKE_CONFIG.read_bytes().replace(b'"runs/', b'"\xffruns/', 1))
        with pytest.raises(
            ConfigurationError, match=f"^cannot read config {re.escape(str(path))}: 'utf-8' codec"
        ):
            parse_config(path)

    def test_json_error_carries_line_context(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{\n  "universe": ,\n}')
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key_path,value,fragment",
        [
            (("seeds",), "42", "seeds: expected a list"),
            (("seeds",), [42.7], r"seeds\[0\]: expected int"),
            (("train", "dpo", "beta"), "0.1", "train.dpo.beta: expected a finite float"),
            (("eval", "n_trials"), 500.5, "eval.n_trials: expected int"),
            (("eval", "n_trials"), True, "eval.n_trials: expected int"),
            (("annotators", 0, "misalignment"), float("nan"), r"annotators\[0\]\.misalignment"),
            (("annotators", 0, "misalignment"), 1.5, r"annotators\[0\]: misalignment must lie"),
        ],
    )
    def test_wrong_type_names_the_key_path(self, tmp_path, key_path, value, fragment):
        config = json.loads(SMOKE_CONFIG.read_text())
        _set(config, key_path, value)
        with pytest.raises(ConfigurationError, match=fragment):
            parse_config(write_config(tmp_path, config))

    def test_int_is_accepted_as_float(self, tmp_path):
        config = grid_config(tmp_path / "runs")
        config["train"]["dpo"]["learning_rate"] = 1
        grid, manifest = parse_config(write_config(tmp_path, config))
        assert grid.train.dpo.learning_rate == 1

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_any_bad_value_raises_configuration_error(self, tmp_path_factory, data):
        # an unknown key, a wrong type or an out-of-range value anywhere in a
        # valid config is a ConfigurationError, never another exception
        config = json.loads(SMOKE_CONFIG.read_text())
        key_path = data.draw(st.sampled_from(_paths(config)))
        node = _get(config, key_path)
        kind = data.draw(st.sampled_from(["unknown key", "wrong type", "out of range"]))
        if kind == "unknown key" and isinstance(node, dict):
            key = data.draw(st.text(min_size=1).filter(lambda k: k not in node))
            key_path, value = (*key_path, key), 0
        elif kind == "out of range" and _out_of_range(key_path, node) is not None:
            value = data.draw(_out_of_range(key_path, node))
        else:
            value = data.draw(_wrong_type(node))
        config = _set(copy.deepcopy(config), key_path, value)
        path = tmp_path_factory.getbasetemp() / "bad_config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ConfigurationError):
            parse_config(path)


def _get(node, key_path):
    for key in key_path:
        node = node[key]
    return node


def _set(config, key_path, value):
    if not key_path:
        return value
    _get(config, key_path[:-1])[key_path[-1]] = value
    return config


def _paths(node, key_path=()):
    """Every key path in a config, the root included."""
    children = ()
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    return [key_path] + [p for key, child in children for p in _paths(child, (*key_path, key))]


def _wrong_type(node):
    """Values of any JSON type but the one ``node`` has (an int stands for a float)."""
    values = {
        bool: st.booleans(),
        int: st.integers(),
        float: st.floats(allow_nan=False),
        str: st.text(),
        type(None): st.none(),
        list: st.lists(st.integers(), max_size=2),
        dict: st.dictionaries(st.text(), st.integers(), max_size=1),
    }
    accepted = (int, float) if type(node) is float else (type(node),)
    return st.one_of([s for t, s in values.items() if t not in accepted])


def _out_of_range(key_path, node):
    """Values that the config types reject when built at ``key_path``, or None
    where every value of the right type is valid (seeds and output_dir)."""
    name = key_path[-1] if key_path else None
    if isinstance(node, list):
        return st.just([])
    if "seed" in str(name) or key_path[:1] == ("seeds",) or name == "output_dir":
        return None
    if isinstance(node, float):
        return st.one_of(st.floats(max_value=-1.01), st.sampled_from([math.inf, math.nan]))
    if isinstance(node, int):
        return st.integers(max_value=-1)
    if isinstance(node, str):
        return st.just("") if name == "label" else st.text().map(lambda s: "x-" + s)
    return None


UNIVERSE = dict(
    num_train_prompts=10,
    num_eval_prompts=5,
    num_probe_prompts=5,
    responses_per_prompt=4,
    feature_dim=8,
)
GRID = dict(
    universe=UniverseConfig(**UNIVERSE), annotators=[JudgeSpec("a")], evaluators=[JudgeSpec("e")]
)


class TestConfigTypes:
    @pytest.mark.parametrize(
        "cls,valid,overrides,fragment",
        [
            (UniverseConfig, UNIVERSE, dict(feature_dim=0), "feature_dim"),
            (UniverseConfig, UNIVERSE, dict(tabular_mode=True), "tabular_mode"),
            (DpoConfig, {}, dict(beta=0.0), "beta"),
            (DpoConfig, {}, dict(warmup_ratio=1.0), "warmup_ratio"),
            (SelectionConfig, {}, dict(apl_top_prompts=65), "apl_top_prompts"),
            (SelectionConfig, {}, dict(label_budget=10_000), "capacity"),
            (SftConfig, {}, dict(batch=0), "sft batch"),
            (TrainConfig, {}, dict(selector="greedy"), "unknown selector"),
            (JudgeSpec, dict(label="a"), dict(misalignment=1.5), "misalignment"),
            (JudgeSpec, dict(label="a"), dict(label=""), "label"),
            (EvalSettings, {}, dict(collapse_fraction=1.0), "collapse_fraction"),
            (ExperimentGrid, GRID, dict(seeds=[42, 42]), "duplicates"),
            (ExperimentGrid, GRID, dict(selectors=["random", "greedy"]), "unknown selector"),
            (ExperimentGrid, GRID, dict(universe_path="universe.npz"), "exactly one"),
            (JudgeSpec, dict(label="a"), dict(label=".."), "label"),
        ],
    )
    def test_out_of_range_config_cannot_be_built(self, cls, valid, overrides, fragment):
        # checked once, when built: neither the constructor nor replace yields it
        with pytest.raises(ConfigurationError, match=fragment):
            cls(**{**valid, **overrides})
        with pytest.raises(ConfigurationError, match=fragment):
            replace(cls(**valid), **overrides)


class TestRunGrid:
    def test_grid_product_and_artifacts(self, tmp_path):
        out = tmp_path / "runs"
        grid, manifest = parse_config(write_config(tmp_path, grid_config(out)))
        run_dirs = run_grid(grid, grid_manifest=manifest)
        assert len(run_dirs) == 6  # 2 selectors x 1 annotator x 3 seeds
        for run_dir in run_dirs:
            for name in (
                "manifest.json",
                "metrics.csv",
                "events.jsonl",
                "eval.csv",
                "counters.json",
                "run.npz",
            ):
                assert (run_dir / name).exists(), name
        manifest_doc = json.loads((run_dirs[0] / "manifest.json").read_text())
        assert "manifest_hash" in manifest_doc and "universe_hash" in manifest_doc

    def test_rerun_refused_without_overwrite(self, tmp_path):
        out = tmp_path / "runs"
        config = grid_config(out, seeds=[42], selectors=["random"])
        grid, manifest = parse_config(write_config(tmp_path, config))
        run_grid(grid, grid_manifest=manifest)
        with pytest.raises(ConfigurationError, match=r"refusing to overwrite existing run "
                           r"directories \(pass --overwrite\)"):
            run_grid(grid, grid_manifest=manifest)
        run_grid(grid, grid_manifest=manifest, overwrite=True)

    def test_paired_candidate_streams(self, tmp_path):
        out = tmp_path / "runs"
        grid, manifest = parse_config(write_config(tmp_path, grid_config(out, seeds=[42])))
        run_dirs = run_grid(grid, grid_manifest=manifest)
        first_candidates = {}
        for run_dir in run_dirs:
            with open(run_dir / "events.jsonl") as fh:
                for line in fh:
                    event = json.loads(line)
                    if event["type"] == "candidates" and event["iteration"] == 1:
                        first_candidates[run_dir.name] = event
                        break
        values = list(first_candidates.values())
        assert len(values) == 2
        assert values[0] == values[1]

    def test_serial_grid_encodes_universe_once(self, tmp_path, monkeypatch, stream_run):
        encodings = []
        content_hash = PromptUniverse.content_hash

        def counting_content_hash(self):
            if self._content_hash is None:  # a computation, not a cached answer
                encodings.append(1)
            return content_hash(self)

        streams, cells = [], []

        def capturing_loop(universe, sft_policy, cfg):
            result, lines = stream_run(universe, sft_policy, cfg)
            streams.append(lines)
            cells.append(run_id_for(cfg.selector, cfg.annotator.label, cfg.run_seed))
            return result

        monkeypatch.setattr(PromptUniverse, "content_hash", counting_content_hash)
        monkeypatch.setattr(harness, "run_online_dpo", capturing_loop)
        grid, manifest = parse_config(SMOKE_CONFIG)
        grid = replace(grid, output_dir=str(tmp_path / "runs"))
        run_dirs = run_grid(grid, grid_manifest=manifest)
        assert len(run_dirs) == 4
        assert len(encodings) == 1  # every cell's manifest shares one hash computation

        universe_hash = PromptUniverse.load(tmp_path / "runs" / "universe.npz").content_hash()
        # serial cells run in run_dirs order, each rendering into its own file
        assert cells == [run_dir.name for run_dir in run_dirs]
        for run_dir, stream in zip(run_dirs, streams):
            run_manifest = json.loads((run_dir / "manifest.json").read_text())
            assert run_manifest["universe_hash"] == universe_hash
            lines = (run_dir / "events.jsonl").read_text(encoding="utf-8").split("\n")
            events = [json.loads(line) for line in stream]
            assert lines == [json.dumps(event, sort_keys=True) for event in events] + [""]

    def test_evaluation_asks_each_evaluator_once_per_cell(self, tmp_path, monkeypatch):
        # the loop labels through the judge's kernel and the evaluators through
        # prefer_batch, which checks and calls the kernel: count the kernel
        batch_calls, scalar_calls = {}, []
        prefer_batch, prefer = Judge._prefer_batch, Judge.prefer

        def counting_prefer_batch(self, *args):
            batch_calls[self.label] = batch_calls.get(self.label, 0) + 1
            return prefer_batch(self, *args)

        def counting_prefer(self, *args):
            scalar_calls.append(self.label)
            return prefer(self, *args)

        monkeypatch.setattr(Judge, "_prefer_batch", counting_prefer_batch)
        monkeypatch.setattr(Judge, "prefer", counting_prefer)
        grid, manifest = parse_config(SMOKE_CONFIG)
        grid = replace(grid, output_dir=str(tmp_path / "runs"))
        run_dirs = run_grid(grid, grid_manifest=manifest)
        # the annotator labels once per iteration; each evaluator judges once per cell
        annotator_calls = batch_calls.pop(grid.annotators[0].label)
        assert annotator_calls == len(run_dirs) * grid.train.dpo.max_steps
        assert batch_calls == {spec.label: len(run_dirs) for spec in grid.evaluators}
        assert scalar_calls == []

    def test_a_serial_grid_fits_each_seeds_sft_once(self, tmp_path, monkeypatch):
        fits, fit = [], harness.sft_fit

        def counting_fit(universe, cfg):
            fits.append(cfg.run_seed)
            return fit(universe, cfg)

        monkeypatch.setattr(harness, "sft_fit", counting_fit)
        grid, manifest = parse_config(SMOKE_CONFIG)
        out = tmp_path / "runs"
        run_grid(replace(grid, output_dir=str(out)), grid_manifest=manifest)
        assert fits == grid.seeds
        universe = PromptUniverse.load(out / "universe.npz")
        for seed in grid.seeds:
            cfg = TrainConfig(**vars(grid.train), annotator=grid.annotators[0], run_seed=seed)
            fresh = fit(universe, cfg).theta.tobytes()
            for selector in ("random", "apl"):
                with np.load(out / run_id_for(selector, "weak", seed) / "run.npz") as run:
                    assert run["sft_theta"].tobytes() == fresh, (selector, seed)
        # the fits do not outlive the grid: the next one fits again
        run_grid(replace(grid, output_dir=str(tmp_path / "again")), grid_manifest=manifest)
        assert fits == grid.seeds * 2 and harness._sft_fits is None

    def test_a_fit_that_raises_is_not_reused(self, tmp_path, monkeypatch):
        fits, fit = [], harness.sft_fit

        def fail_seed_43(universe, cfg):
            fits.append(cfg.run_seed)
            if cfg.run_seed == 43:
                raise TrainingError("diverged")
            return fit(universe, cfg)

        monkeypatch.setattr(harness, "sft_fit", fail_seed_43)
        grid, manifest = parse_config(SMOKE_CONFIG)
        run_dirs = run_grid(replace(grid, output_dir=str(tmp_path)), grid_manifest=manifest)
        # cells run random 42, random 43, apl 42, apl 43: each seed-43 cell fits
        assert fits == [42, 43, 43]
        assert [json.loads((d / "manifest.json").read_text())["status"] for d in run_dirs] == [
            "completed", "failed", "completed", "failed"
        ]

    def test_runtime_reads_only_the_universe_arrays(self, tmp_path, monkeypatch):
        def smoke_files():
            grid, manifest = parse_config(SMOKE_CONFIG)
            grid = replace(grid, output_dir=str(tmp_path / "runs"))
            run_grid(grid, grid_manifest=manifest, overwrite=True)
            out = Path(grid.output_dir)
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        plain = smoke_files()
        assert len(plain) == 4 * 6 + 1  # six files per run, and universe.npz

        def refuse(*args):
            raise AssertionError("the runtime called a single-prompt function")

        # the runtime works on stacks of prompts: every one-prompt function is
        # refused in each preflab module that looks it up, and on Judge
        single = ("log_prob", "grad_log_prob", "sample_response", "response_probabilities",
                  "implicit_reward", "dpo_example_loss")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "preflab"]
        patched = [(m, n) for m in modules for n in single if hasattr(m, n)]
        assert {n for _, n in patched} == set(single)
        for module, name in patched:
            monkeypatch.setattr(module, name, refuse)
        for name in ("prefer", "proxy_reward", "preference_probability"):
            monkeypatch.setattr(Judge, name, refuse)
        assert smoke_files() == plain

    def test_parallel_workers_get_the_universe_without_loading(self, tmp_path, monkeypatch):
        # forked workers inherit the patched methods, so a load or a hash
        # computation in any process logs
        log = tmp_path / "calls.log"
        load, content_hash = PromptUniverse.load.__func__, PromptUniverse.content_hash

        def logged(line):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{line}\n")

        def logging_load(cls, path):
            logged(f"load {path}")
            return load(cls, path)

        def logging_content_hash(self):
            if self._content_hash is None:
                logged(f"hash in {os.getpid()}")
            return content_hash(self)

        monkeypatch.setattr(PromptUniverse, "load", classmethod(logging_load))
        monkeypatch.setattr(PromptUniverse, "content_hash", logging_content_hash)
        fork_pool = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(harness, "ProcessPoolExecutor", fork_pool)
        grid, manifest = parse_config(SMOKE_CONFIG)
        grid = replace(grid, output_dir=str(tmp_path / "par"))
        par_dirs = run_grid(grid, grid_manifest=manifest, parallel=2)
        # one hash, in the main process before the pool starts, and no load
        assert log.read_text().splitlines() == [f"hash in {os.getpid()}"]

        grid = replace(grid, output_dir=str(tmp_path / "seq"))
        seq_dirs = run_grid(grid, grid_manifest=manifest)
        universe_hash = PromptUniverse.load(tmp_path / "par" / "universe.npz").content_hash()
        for a, b in zip(seq_dirs, par_dirs):
            assert json.loads((b / "manifest.json").read_text())["universe_hash"] == universe_hash
            for name in ("metrics.csv", "events.jsonl", "counters.json", "eval.csv", "run.npz"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_manifest_hash_names_each_cell(self, tmp_path):
        def smoke_hashes(out):
            grid, manifest = parse_config(SMOKE_CONFIG)
            run_dirs = run_grid(replace(grid, output_dir=str(out)), grid_manifest=manifest)
            return [json.loads((d / "manifest.json").read_text())["manifest_hash"] for d in run_dirs]

        first = smoke_hashes(tmp_path / "a")
        assert len(first) == 4 and len(set(first)) == 4  # selector and annotator are hashed
        assert smoke_hashes(tmp_path / "b") == first

    def test_parallel_matches_sequential(self, tmp_path):
        config = grid_config(tmp_path / "seq", seeds=[42], selectors=["random", "apl"])
        grid, manifest = parse_config(write_config(tmp_path, config))
        seq_dirs = run_grid(grid, grid_manifest=manifest)
        grid = replace(grid, output_dir=str(tmp_path / "par"))
        par_dirs = run_grid(grid, grid_manifest=manifest, parallel=2)
        for a, b in zip(seq_dirs, par_dirs):
            assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()
            assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("parallel", [0, -1])
    def test_parallel_below_one_is_refused_before_any_file(self, tmp_path, capsys, parallel):
        out = tmp_path / "runs"
        argv = ["sweep", "--config", str(SMOKE_CONFIG), "--out", str(out)]
        assert main(argv + ["--parallel", str(parallel)]) == 2
        assert capsys.readouterr().err == f"error: --parallel must be >= 1, got {parallel}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "selectors, parallel, workers",
        [(["random", "apl"], 8, [4]), (["random", "apl"], 3, [3]), (["random"], 2, [2]),
         (["random"], 1, [])],
    )
    def test_pool_forks_at_most_one_worker_per_cell(
        self, tmp_path, monkeypatch, selectors, parallel, workers
    ):
        seen = []

        class InlinePool:
            """Records max_workers and runs the cells in this process; starts no process."""

            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_worker_universe", None)
        grid, manifest = parse_config(SMOKE_CONFIG)
        # 2 or 4 cells: the smoke grid's two seeds under one or both selectors
        grid = replace(grid, selectors=selectors, output_dir=str(tmp_path / "pool"))
        pool_dirs = run_grid(grid, grid_manifest=manifest, parallel=parallel)
        assert seen == workers and len(pool_dirs) == 2 * len(selectors)
        serial_dirs = run_grid(replace(grid, output_dir=str(tmp_path / "serial")), manifest)
        for a, b in zip(serial_dirs, pool_dirs):
            assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()


def lab_manifest(run_id, annotator, seed):
    """A completed run's manifest with what ``report`` reads of one that
    ``run_cell`` writes: the cell, a universe hash and the grid echo of
    ``configs/smoke.json``."""
    _, grid_manifest = parse_config(SMOKE_CONFIG)
    return {
        "run_id": run_id, "seed": seed, "annotator": asdict(JudgeSpec(label=annotator)),
        "universe_hash": "0" * 64, "status": "completed", "aborted": False,
        "grid": grid_manifest,
    }


def run_without_iterations(counters):
    """A finished ``RunResult`` of zero iterations, its record empty."""
    return RunResult(
        final_policy=Policy(np.zeros(2)),
        sft_policy=Policy(np.zeros(2)),
        per_iteration=[],
        counters=counters,
        abort_reason=None,
        prompt_ids=np.zeros((0, 1), np.uint8),
        candidates=np.zeros((0, 1, 2), np.uint8),
        selections=np.zeros((0, 4), np.uint8),
        scores=None,
    )


def fake_run_dir(
    root, selector, annotator, seed, win_rate, delta, scoring=0, collapse=False, queries=10
):
    """A completed run written through the lab's own writer, with one eval row."""
    run_id = f"{selector}__{annotator}__seed{seed}"
    run_dir = root / run_id
    run_dir.mkdir(parents=True)
    row = EvalRow(
        run_id, selector, annotator, "eval-judge", seed, win_rate, max(win_rate - 0.02, 0.0),
        min(win_rate + 0.02, 1.0), 0.5, delta, 1.0, collapse,
    )
    result = run_without_iterations(OpCounters(
        policy_logprob_evals=scoring, ref_logprob_evals=scoring, judge_queries=queries,
        generated_samples=40,
    ))
    harness._write_run_outputs(
        run_dir, result, TrainConfig(), [row], lab_manifest(run_id, annotator, seed)
    )
    return run_dir


class TestEvalCsv:
    def test_the_header_is_the_eval_row_fields(self):
        assert EVAL_CSV_HEADER == [f.name for f in fields(EvalRow)]

    def test_rows_round_trip_through_the_cell_writer_and_reader(self, tmp_path):
        run_id = "apl__weak__seed42"
        written = [
            EvalRow(run_id, "apl", "weak", "weak-eval", 42, 0.1 + 0.2, 1 / 3, 2 / 3, 0.75,
                    -96.25, 1e-300, True),
            EvalRow(run_id, "apl", "weak", "oracle", 42, 1.0, -0.0, float("inf"), 0.0,
                    5e-324, float("nan"), False),
        ]
        result = run_without_iterations(OpCounters(judge_queries=7))
        run_dir = tmp_path / run_id
        run_dir.mkdir()
        harness._write_run_outputs(
            run_dir, result, TrainConfig(), written, lab_manifest(run_id, "weak", 42)
        )
        rows, counters, skipped = report._read_runs([run_dir])
        assert skipped == [] and len(rows) == len(written)
        for got, want in zip(rows, written):
            for f in fields(EvalRow):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert (type(a), repr(a)) == (type(b), repr(b)), f.name
        assert counters == {run_id: result.counters}


def _drop_last_cell(text, lines):
    """``text`` with the last cell cut from each of its lines numbered in ``lines``."""
    return "".join(
        line.rsplit(",", 1)[0] + "\n" if i in lines else line
        for i, line in enumerate(text.splitlines(keepends=True))
    )


def _json_with(text, key_path, value=None):
    """``text``'s JSON with the value at the dotted ``key_path`` set, or removed if None."""
    data = json.loads(text)
    *parents, leaf = key_path.split(".")
    node = functools.reduce(lambda d, k: d[k], parents, data)
    if value is None:
        del node[leaf]
    else:
        node[leaf] = value
    return json.dumps(data)


class TestMalformedRunFiles:
    # (file, how it is corrupted, or None where it is deleted): each leaves its
    # run out with a warning naming the file
    CASES = {
        "collapse_flag True": ("eval.csv", lambda t: t.replace(",false\n", ",True\n")),
        "collapse_flag 1": ("eval.csv", lambda t: t.replace(",false\n", ",1\n")),
        "collapse_flag column dropped": ("eval.csv", lambda t: _drop_last_cell(t, {0, 1})),
        "a short row": ("eval.csv", lambda t: _drop_last_cell(t, {1})),
        "an unparsable seed": ("eval.csv", lambda t: t.replace(",43,", ",forty-three,")),
        "a header without rows": ("eval.csv", lambda t: t.splitlines(keepends=True)[0]),
        "no eval.csv": ("eval.csv", None),
        "counters.json truncated": ("counters.json", lambda t: t[:40]),
        "a counter missing": ("counters.json", lambda t: _json_with(t, "judge_queries")),
        "a counter that is a bool": ("counters.json", lambda t: _json_with(t, "judge_queries", True)),
        "a counter that is a float": ("counters.json", lambda t: _json_with(t, "judge_queries", 10.0)),
        "an unknown counter": ("counters.json", lambda t: _json_with(t, "wall_s", 1)),
        "a list": ("counters.json", lambda t: "[]"),
        "a counter repeated": ("counters.json", lambda t: t.replace("{", '{"judge_queries": 0,', 1)),
        "no counters.json": ("counters.json", None),
        "a grid that is a list": ("manifest.json", lambda t: _json_with(t, "grid", [])),
        "no grid": ("manifest.json", lambda t: _json_with(t, "grid")),
        "an annotator that is a string": ("manifest.json", lambda t: _json_with(t, "annotator", "weak")),
        "evaluators that are a string": (
            "manifest.json", lambda t: _json_with(t, "grid.config.evaluators", "oracle")
        ),
        "a judge spec without a label": ("manifest.json", lambda t: _json_with(t, "annotator.label")),
        "a judge label that is a list": (
            "manifest.json", lambda t: _json_with(t, "annotator.label", ["weak"])
        ),
        # json.loads would keep the last of each: a run counted as completed
        "a status repeated": (
            "manifest.json", lambda t: t.replace("{", '{"status": "failed",', 1)
        ),
        "a nested key repeated": (
            "manifest.json", lambda t: t.replace('"config": {', '"config": {"eval": 0,', 1)
        ),
        "a key repeated in a list": (
            "manifest.json",
            lambda t: t.replace('"label": "weak-eval"', '"label": "weak-eval", "label": "x"', 1),
        ),
    }
    # the whole reason given, where the case pins it
    REASONS = {"no grid": "missing key 'grid'", "a judge spec without a label": "missing key 'label'",
               "a counter repeated": "judge_queries: repeated key",
               "a status repeated": "status: repeated key",
               "a nested key repeated": "grid.config.eval: repeated key",
               "a key repeated in a list": "grid.config.evaluators[0].label: repeated key"}

    @pytest.mark.parametrize("case", CASES)
    def test_the_run_is_left_out_with_a_warning(self, tmp_path, capsys, case):
        name, corrupt = self.CASES[case]
        kept = fake_run_dir(tmp_path, "random", "weak", 42, 0.6, -1.0)
        bad = fake_run_dir(tmp_path, "random", "weak", 43, 0.7, -2.0)
        if corrupt is None:
            (bad / name).unlink()
        else:
            (bad / name).write_text(corrupt((bad / name).read_text()))
        summary, _, pareto = aggregate_summary([kept, bad])
        assert [(row.n_seeds, row.win_rate_mean) for row in summary] == [(1, 0.6)]
        assert [point.run_id for point in pareto] == [kept.name]
        (warning,) = capsys.readouterr().err.splitlines()
        head = f"warning: {bad} is left out of the report (unreadable {name}: "
        assert warning.startswith(head)
        if case in self.REASONS:
            assert warning == f"{head}{self.REASONS[case]})"


@pytest.fixture(scope="module")
def swept_smoke(tmp_path_factory):
    """The output directory of ``configs/smoke.json`` swept and reported."""
    out = tmp_path_factory.mktemp("smoke")
    assert main(["sweep", "--config", str(SMOKE_CONFIG), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    return out


class TestPublishedNumbers:
    # eval.csv and summary.csv publish the values of the functions the acceptance
    # criteria test, computed again here from the run files

    def test_delta_acc_pp_is_the_capability_delta_of_the_checkpoints(self, swept_smoke):
        universe = PromptUniverse.load(swept_smoke / "universe.npz")
        run_dirs = discover_run_dirs(swept_smoke)
        assert len(run_dirs) == 4
        for run_dir in run_dirs:
            with np.load(run_dir / "run.npz", allow_pickle=False) as run:
                final, sft = (Policy(run[f"{name}_theta"]) for name in ("final", "sft"))
            with open(run_dir / "eval.csv", newline="") as fh:
                published = [float(row["delta_acc_pp"]) for row in csv.DictReader(fh)]
            assert published == [capability_delta(final, sft, universe)] * 2, run_dir.name

    def test_run_npz_holds_the_cells_sft_fit_and_final_policy(self, swept_smoke):
        # every run saves its own SFT theta, so no verb writes one apart from a run
        grid, _ = parse_config(SMOKE_CONFIG)
        universe = PromptUniverse.load(swept_smoke / "universe.npz")
        cells = {
            run_id_for(selector, annotator.label, seed): (selector, annotator, seed)
            for selector in grid.selectors for annotator in grid.annotators for seed in grid.seeds
        }
        run_dirs = discover_run_dirs(swept_smoke)
        assert sorted(run_dir.name for run_dir in run_dirs) == sorted(cells)
        for run_dir in run_dirs:
            selector, annotator, seed = cells[run_dir.name]
            cfg = TrainConfig(
                **vars(grid.train), selector=selector, annotator=annotator, run_seed=seed
            )
            sft = sft_fit(universe, cfg)
            final = run_online_dpo(universe, sft, cfg).final_policy
            with np.load(run_dir / "run.npz", allow_pickle=False) as run:
                assert sorted(run.files) == ["final_theta", "sft_theta"]
                for name, policy in (("sft_theta", sft), ("final_theta", final)):
                    assert run[name].shape == (universe.features.shape[-1],), run_dir.name
                    assert run[name].tobytes() == policy.theta.tobytes(), run_dir.name

    def test_extra_scoring_ops_mean_is_the_mean_of_counters_report(self, swept_smoke):
        grid, _ = parse_config(SMOKE_CONFIG)
        counters = {
            run_dir.name: OpCounters(**json.loads((run_dir / "counters.json").read_text()))
            for run_dir in discover_run_dirs(swept_smoke)
        }
        with open(swept_smoke / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 4
        for row in summary:
            extras = [
                counters_report(
                    counters[run_id_for(row["selector"], row["annotator"], seed)],
                    counters[run_id_for("random", row["annotator"], seed)],
                )["extra_scoring_evals"]
                for seed in grid.seeds
            ]
            assert float(row["extra_scoring_ops_mean"]) == float(np.mean(extras))
            assert (min(extras) > 0) == (row["selector"] == "apl")


# every CSV header as the lab writes it: a field reorder in a row dataclass fails here
CSV_HEADERS = {
    "summary.csv": "selector,annotator,evaluator,n_seeds,win_rate_mean,win_rate_std,"
    "delta_acc_mean,delta_acc_std,collapse_runs,extra_scoring_ops_mean",
    "welch.csv": "annotator,evaluator,metric,selector_a,selector_b,n_a,n_b,mean_a,mean_b,"
    "t_stat,p_value,note",
    "pareto.csv": "run_id,selector,annotator,evaluator,seed,win_rate,delta_acc_pp,collapse_flag",
    "eval.csv": "run_id,selector,annotator_label,evaluator_label,seed,win_rate,ci_low,ci_high,"
    "probe_acc,delta_acc_pp,mean_entropy,collapse_flag",
    "metrics.csv": "iteration,mean_loss,labeled_pairs,lr,entropy_min,entropy_mean,entropy_max",
}


@pytest.mark.parametrize("name", CSV_HEADERS)
def test_every_csv_header_the_lab_writes_is_pinned(swept_smoke, name):
    paths = sorted(swept_smoke.glob(f"**/{name}"))
    assert len(paths) == (1 if name in ("summary.csv", "welch.csv", "pareto.csv") else 4)
    for path in paths:
        assert path.read_text().splitlines()[0] == CSV_HEADERS[name], path


class TestAggregation:
    def test_mean_and_sample_std_oracle(self, tmp_path):
        dirs = [
            fake_run_dir(tmp_path, "random", "weak", 42, 0.60, -1.0),
            fake_run_dir(tmp_path, "random", "weak", 43, 0.62, -2.0),
            fake_run_dir(tmp_path, "random", "weak", 44, 0.64, -3.0),
        ]
        summary, _, _ = aggregate_summary(dirs)
        (row,) = summary
        assert row.win_rate_mean == pytest.approx(0.62)
        assert row.win_rate_std == pytest.approx(0.02)  # ddof=1 over {.60,.62,.64}
        assert row.n_seeds == 3

    def test_single_seed_reports_zero_std(self, tmp_path):
        dirs = [fake_run_dir(tmp_path, "random", "weak", 42, 0.7, 0.0)]
        summary, welch, _ = aggregate_summary(dirs)
        assert summary[0].n_seeds == 1
        assert summary[0].win_rate_std == 0.0
        assert welch == []

    def test_identical_values_give_degenerate_welch(self, tmp_path):
        dirs = []
        for seed in (42, 43):
            dirs.append(fake_run_dir(tmp_path, "random", "weak", seed, 0.7, -1.0))
            dirs.append(fake_run_dir(tmp_path, "apl", "weak", seed, 0.7, -1.0, scoring=24))
        # unequal seed counts: two apl runs against one random run
        dirs.append(fake_run_dir(tmp_path, "apl", "strong", 42, 0.7, -1.0, scoring=24))
        dirs.append(fake_run_dir(tmp_path, "apl", "strong", 43, 0.8, -2.0, scoring=24))
        dirs.append(fake_run_dir(tmp_path, "random", "strong", 42, 0.6, -1.0))
        _, welch, _ = aggregate_summary(dirs)
        assert welch and all(record.note == "degenerate" for record in welch)
        strong = [r for r in welch if r.annotator == "strong"]
        assert len(strong) == 2
        assert all((r.selector_a, r.n_a, r.n_b) == ("apl", 2, 1) for r in strong)

    def test_extra_scoring_ops_paired_by_seed(self, tmp_path, capsys):
        dirs = []
        for seed in (42, 43, 44):
            dirs.append(fake_run_dir(tmp_path, "random", "weak", seed, 0.7, -1.0))
            dirs.append(
                fake_run_dir(tmp_path, "apl", "weak", seed, 0.8, -0.5, scoring=24)
            )
        # seed 44's apl run has no counters: it is left out whole, not only of the extras
        (dirs[-1] / "counters.json").unlink()
        # an apl run without a paired random run is charged its own scoring
        dirs.append(fake_run_dir(tmp_path, "apl", "solo", 42, 0.8, -0.5, scoring=24))
        summary, _, _ = aggregate_summary(dirs)
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith(
            f"warning: {dirs[5]} is left out of the report (unreadable counters.json: "
        )
        by_cell = {(row.selector, row.annotator): row for row in summary}
        assert by_cell["apl", "weak"].extra_scoring_ops_mean == 48.0
        assert by_cell["apl", "weak"].n_seeds == 2
        assert by_cell["random", "weak"].extra_scoring_ops_mean == 0.0
        assert by_cell["apl", "solo"].extra_scoring_ops_mean == 48.0

    def test_welch_oracle_against_scipy(self, tmp_path):
        from scipy import stats

        a_vals = [0.60, 0.62, 0.64]
        b_vals = [0.70, 0.71, 0.75]
        dirs = []
        for seed, (a, b) in enumerate(zip(a_vals, b_vals), start=42):
            dirs.append(fake_run_dir(tmp_path, "random", "weak", seed, a, -1.0))
            dirs.append(fake_run_dir(tmp_path, "apl", "weak", seed, b, -1.0, scoring=24))
        _, welch, _ = aggregate_summary(dirs)
        record = next(r for r in welch if r.metric == "win_rate")
        want_t, want_p = stats.ttest_ind(b_vals, a_vals, equal_var=False)
        assert record.t_stat == pytest.approx(float(want_t))
        assert record.p_value == pytest.approx(float(want_p))

    def test_unmatched_budgets_warned_once_per_seed(self, tmp_path, capsys):
        summaries = {}
        for name, apl_queries in (("matched", 10), ("unmatched", 8)):
            out = tmp_path / name
            for seed in (42, 43):
                fake_run_dir(out, "random", "weak", seed, 0.6, -1.0)
                queries = apl_queries if seed == 43 else 10
                fake_run_dir(out, "apl", "weak", seed, 0.7, -1.0, scoring=24, queries=queries)
            # a run without counters.json is left out, so it cannot show an unmatched budget
            fake_run_dir(out, "random", "weak", 44, 0.6, -1.0)
            no_counters = fake_run_dir(out, "apl", "weak", 44, 0.7, -1.0, scoring=24, queries=8)
            (no_counters / "counters.json").unlink()
            assert main(["report", "--out", str(out)]) == 0
            summaries[name] = (out / "summary.csv").read_bytes()
            left_out, *warnings = [
                line for line in capsys.readouterr().err.splitlines() if "warning" in line
            ]
            assert left_out.startswith(
                f"warning: {no_counters} is left out of the report (unreadable counters.json: "
            )
            if apl_queries == 10:
                assert warnings == []
            else:
                (warning,) = warnings
                assert "'weak' seed 43" in warning
                assert "apl 8" in warning and "random 10" in warning
        assert summaries["unmatched"] == summaries["matched"]

    def test_failed_run_is_named_once_and_summary_unchanged(self, tmp_path, capsys):
        summaries = {}
        for name, plant_failed in (("clean", False), ("with_failed", True)):
            out = tmp_path / name
            for seed in (42, 43):
                fake_run_dir(out, "random", "weak", seed, 0.6 + 0.01 * seed, -1.0)
            if plant_failed:
                failed = out / "random__weak__seed44"
                failed.mkdir()
                (failed / "manifest.json").write_text(
                    json.dumps(
                        {"run_id": failed.name, "status": "failed", "seed": 44, "error": "boom"}
                    )
                )
            assert main(["report", "--out", str(out)]) == 0
            summaries[name] = (out / "summary.csv").read_bytes()
            warnings = [
                line for line in capsys.readouterr().err.splitlines() if "warning" in line
            ]
            if plant_failed:
                assert warnings == [
                    f"warning: {failed} is left out of the report (the run failed: boom)"
                ]
            else:
                assert warnings == []
        assert summaries["with_failed"] == summaries["clean"]

    @pytest.mark.parametrize(
        "manifest, why",
        [
            ({"status": "failed", "error": "boom"}, "the run failed: boom"),
            ({"status": "completed", "aborted": True, "error": "x"}, "the run aborted: x"),
            ({"status": "failed"}, "the run failed: no error recorded"),
            ({"run_id": "no status"}, "unreadable manifest.json: missing key 'status'"),
            ([], "unreadable manifest.json: 'list' object has no attribute 'get'"),
        ],
    )
    def test_the_manifest_decides_inclusion_over_a_stale_eval_csv(
        self, tmp_path, capsys, manifest, why
    ):
        dirs = [fake_run_dir(tmp_path, "random", "weak", seed, 0.6, -1.0) for seed in (42, 43)]
        clean = aggregate_summary(dirs)
        # an old run's eval.csv beside a manifest that says the run is no result
        stale = fake_run_dir(tmp_path, "random", "weak", 44, 0.99, 50.0)
        (stale / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        tables = aggregate_summary(dirs + [stale])
        assert tables == clean  # summary, welch and pareto rows alike
        assert capsys.readouterr().err == f"warning: {stale} is left out of the report ({why})\n"
        assert [row.seed for row in tables[2]] == [42, 43]
        pareto = write_summary(*tables, tmp_path)[2].read_text()
        assert "seed44" not in pareto and len(pareto.splitlines()) == 3

    @pytest.mark.parametrize(
        "recorded, refused",
        [
            # a completed manifest without its annotator is left out, not compared on less
            (("annotator", None), False),
            (("annotator", asdict(JudgeSpec(label="weak"))), False),  # the same spec
            (("annotator.misalignment", 0.123), True),
            (("grid.config.evaluators", [{"label": "weak", "misalignment": 0.0}]), True),
            (("grid.config.evaluators", [{"label": "new", "misalignment": 0.0}]), False),
        ],
    )
    def test_a_judge_label_names_one_spec(self, tmp_path, capsys, recorded, refused):
        first, second = (
            fake_run_dir(tmp_path, "random", "weak", seed, 0.6, -1.0) for seed in (42, 43)
        )
        path = second / "manifest.json"
        path.write_text(_json_with(path.read_text(), *recorded))
        if not refused:
            left_out = recorded == ("annotator", None)
            (row,), _, _ = aggregate_summary([first, second])
            assert row.n_seeds == (1 if left_out else 2)
            assert capsys.readouterr().err == (
                f"warning: {second} is left out of the report "
                "(unreadable manifest.json: missing key 'annotator')\n" if left_out else ""
            )
            return
        with pytest.raises(ConfigurationError) as caught:
            aggregate_summary([first, second])
        assert str(caught.value) == (
            f"{second} and {first} give judge 'weak' different specs; "
            "a judge label must name one judge"
        )

    def test_report_reads_each_run_once(self, tmp_path, monkeypatch, capsys):
        grid, manifest = parse_config(SMOKE_CONFIG)
        reads, read_runs = [], report._read_runs

        def counting_read_runs(dirs):
            reads.append(list(dirs))
            return read_runs(dirs)

        monkeypatch.setattr(report, "_read_runs", counting_read_runs)
        for parallel in (1, 2):
            out = tmp_path / f"runs{parallel}"
            run_dirs = run_grid(
                replace(grid, output_dir=str(out)), grid_manifest=manifest, parallel=parallel
            )
            reads.clear()
            capsys.readouterr()
            assert main(["report", "--out", str(out)]) == 0
            # every run the lab writes is read whole: none is left out (smoke's
            # selectors still buy unmatched judge-query counts, which report warns of)
            assert "is left out" not in capsys.readouterr().err
            assert reads == [sorted(run_dirs)]
            with open(out / "pareto.csv") as fh:
                assert len(list(csv.DictReader(fh))) == len(run_dirs) * len(grid.evaluators)

    def test_a_completed_run_without_eval_csv_is_named(self, tmp_path, capsys):
        dirs = [fake_run_dir(tmp_path, "random", "weak", seed, 0.6, -1.0) for seed in (42, 43)]
        (dirs[1] / "eval.csv").unlink()
        (row,), _, _ = aggregate_summary(dirs)
        assert row.n_seeds == 1
        assert capsys.readouterr().err.startswith(
            f"warning: {dirs[1]} is left out of the report (unreadable eval.csv: "
        )


TAIL_DFS = [1, 1.5, 2, 2.37, 5, 10.2, 30, 58, 200, 1000]
TAIL_TS = [0, 1e-8, 0.1, 1, 2.5, 10, 100]


class TestStudentTail:
    """``report._t_two_sided_p`` against mpmath's regularized incomplete beta.

    mpmath is the reference, not scipy: scipy.special.stdtr(1, -1e-8) is itself
    3.1e-9 off the exact tail.
    """

    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_matches_mpmath_within_1e_12(self, df):
        with mp.workdps(50):
            for t in TAIL_TS:
                nu = mp.mpf(df)
                x = nu / (nu + mp.mpf(t) ** 2)
                want = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, x, regularized=True)
                for sign in (1, -1):
                    got = report._t_two_sided_p(sign * t, df)
                    if want >= mp.mpf("1e-300"):
                        assert abs(got - want) <= 1e-12 * want, (df, sign * t, got)
                    else:
                        assert 0.0 <= got < 1e-299, (df, sign * t, got)

    @pytest.mark.parametrize("t", [1e-8, 0.3, 1, 2.5, 10, 100])
    def test_closed_forms_at_one_and_two_df(self, t):
        with mp.workdps(50):
            one = 1 - 2 / mp.pi * mp.atan(mp.mpf(t))
            two = 1 - mp.mpf(t) / mp.sqrt(2 + mp.mpf(t) ** 2)
            assert abs(report._t_two_sided_p(t, 1.0) - one) <= 1e-12 * one
            assert abs(report._t_two_sided_p(-t, 2.0) - two) <= 1e-12 * two

    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_zero_and_infinite_t(self, df):
        assert report._t_two_sided_p(0.0, df) == 1.0
        assert report._t_two_sided_p(-0.0, df) == 1.0
        assert report._t_two_sided_p(math.inf, df) == 0.0
        assert report._t_two_sided_p(-math.inf, df) == 0.0

    def test_nan_data_returns_none_before_the_tail(self, monkeypatch):
        def tail(t, df):
            raise AssertionError(f"tail evaluated at t={t}, df={df}")

        monkeypatch.setattr(report, "_t_two_sided_p", tail)
        assert report._welch([0.5, math.nan, 0.7], [0.6, 0.8]) is None
        assert report._welch([0.5, 0.6], [math.nan, math.nan]) is None


class TestPareto:
    def test_rows_header_and_ordering(self, tmp_path):
        dirs = [
            fake_run_dir(tmp_path, "random", "weak", 43, 0.61, -1.0),
            fake_run_dir(tmp_path, "random", "weak", 42, 0.60, -1.0),
            fake_run_dir(tmp_path, "apl", "weak", 42, 0.62, -0.5, scoring=24),
        ]
        tables = aggregate_summary(dirs)
        assert [(row.selector, row.seed, row.win_rate) for row in tables[2]] == [
            ("apl", 42, 0.62), ("random", 42, 0.60), ("random", 43, 0.61)
        ]
        path = write_summary(*tables, tmp_path)[2]
        assert path == tmp_path / "pareto.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "run_id,selector,annotator,evaluator,seed,win_rate,delta_acc_pp,collapse_flag"
        assert len(lines) == 4
        keys = [tuple(line.split(",")[1:3]) + (line.split(",")[4],) for line in lines[1:]]
        assert keys == sorted(keys)


class TestCli:
    def test_sweep_then_report(self, tmp_path):
        out = tmp_path / "runs"
        config_path = write_config(
            tmp_path, grid_config(out, seeds=[42, 43], selectors=["random", "apl"])
        )
        assert main(["sweep", "--config", str(config_path)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        assert (out / "welch.csv").exists()
        assert (out / "pareto.csv").exists()
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["selector"] for row in rows} == {"random", "apl"}

    def test_generate_and_train_single_cell(self, tmp_path):
        out = tmp_path / "runs"
        config_path = write_config(tmp_path, grid_config(out))
        universe_path = tmp_path / "universe.npz"
        assert main(["generate", "--config", str(config_path), "--out", str(universe_path)]) == 0
        assert universe_path.is_file()
        assert (
            main(["train", "--config", str(config_path), "--seed", "42", "--selector", "apl"])
            == 0
        )
        assert (out / "apl__weak__seed42" / "eval.csv").exists()

    def test_generate_out_is_a_file_only_with_the_npz_suffix(self, tmp_path):
        generate = ["generate", "--config", str(SMOKE_CONFIG), "--out"]
        for name in ("smoke.npz", "smoke.json", "runs"):
            assert main(generate + [str(tmp_path / name)]) == 0
        smoke_bytes = (tmp_path / "smoke.npz").read_bytes()
        for directory in ("smoke.json", "runs"):
            assert [p.name for p in (tmp_path / directory).iterdir()] == ["universe.npz"]
            assert (tmp_path / directory / "universe.npz").read_bytes() == smoke_bytes

    @pytest.mark.parametrize(
        "flag, value, error",
        [("--selector", "greedy", "unknown selector 'greedy'"),
         ("--annotator", "nobody", "annotator 'nobody' not in config (['weak'])")],
    )
    def test_train_refuses_an_unknown_cell_before_any_file(
        self, tmp_path, capsys, flag, value, error
    ):
        out = tmp_path / "runs"
        argv = ["train", "--config", str(SMOKE_CONFIG), "--out", str(out), flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_sft_is_not_a_subcommand(self, tmp_path, capsys):
        # run.npz keeps each run's SFT theta; the parser refuses the old verb
        out = tmp_path / "runs"
        config_path = write_config(tmp_path, grid_config(out))
        with pytest.raises(SystemExit) as exit_info:
            main(["sft", "--config", str(config_path), "--seed", "42"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'sft'" in capsys.readouterr().err
        assert not out.exists()

    def test_report_on_a_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr().err.startswith("error: no run directories found")

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, preflab.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_failed_cells_write_full_manifests_and_report_exits_2(self, tmp_path, capsys):
        config = json.loads(SMOKE_CONFIG.read_text())
        config["train"]["sft"]["learning_rate"] = 1e308
        out = tmp_path / "runs"
        # the sweep exits non-zero and names every failed cell; the diverging
        # fit warns nothing (pytest turns warnings into errors)
        assert main(["sweep", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 1
        run_dirs = discover_run_dirs(out)
        assert len(run_dirs) == 4
        err = capsys.readouterr().err.splitlines()
        assert sorted(err[:4]) == [
            f"error: run {d.name} failed: supervised fit diverged at update 3; "
            "reduce sft.learning_rate"
            for d in run_dirs
        ]
        assert err[4:] == [f"4 of 4 runs failed under {out}"]
        for run_dir in run_dirs:
            assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json"]
            manifest = json.loads((run_dir / "manifest.json").read_text())
            # a completed run's manifest, with error for aborted
            assert sorted(manifest) == [
                "annotator", "error", "grid", "manifest_hash", "package_version",
                "run_id", "seed", "selector", "status", "universe_hash",
            ]
            assert manifest["status"] == "failed"
            assert manifest["error"] == "supervised fit diverged at update 3; reduce sft.learning_rate"
            assert manifest["run_id"] == run_dir.name
            assert manifest["grid"]["config"]["train"]["sft"]["learning_rate"] == 1e308
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[:4] == [
            f"warning: {d} is left out of the report (the run failed: supervised fit diverged "
            "at update 3; reduce sft.learning_rate)"
            for d in run_dirs
        ]
        assert err[4:] == ["error: no eval.csv rows found under the given run directories"]

    def test_sweep_names_only_the_failed_cells(self, tmp_path, capsys, monkeypatch):
        fit = harness.sft_fit

        def fail_seed_43(universe, cfg):
            if cfg.run_seed == 43:
                raise TrainingError("supervised fit diverged at update 1; reduce sft.learning_rate")
            return fit(universe, cfg)

        monkeypatch.setattr(harness, "sft_fit", fail_seed_43)
        out = tmp_path / "runs"
        config_path = write_config(tmp_path, grid_config(out, seeds=[42, 43]))
        assert main(["sweep", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: run {selector}__weak__seed43 failed: supervised fit diverged at update 1; "
            "reduce sft.learning_rate"
            for selector in ("random", "apl")
        ] + [f"2 of 4 runs failed under {out}"]
        for selector in ("random", "apl"):
            # completed cells still write every output
            assert (out / f"{selector}__weak__seed42" / "eval.csv").exists()
            assert not (out / f"{selector}__weak__seed43" / "eval.csv").exists()

    def test_a_cell_failing_mid_stream_keeps_only_its_manifest(self, tmp_path, monkeypatch):
        def failing_loop(universe, sft_policy, cfg):
            raise TrainingError("non-finite parameters at update 1")

        monkeypatch.setattr(harness, "run_online_dpo", failing_loop)
        config = json.loads(SMOKE_CONFIG.read_text())
        out = tmp_path / "runs"
        assert main(["sweep", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 1
        run_dirs = discover_run_dirs(out)
        assert len(run_dirs) == 4
        for run_dir in run_dirs:
            assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json"]
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert (manifest["status"], manifest["error"]) == (
                "failed", "non-finite parameters at update 1"
            )

    def test_aborted_runs_are_named_and_not_evaluated(self, tmp_path, capsys):
        # Adam's first step moves each parameter by about 1e308; the second
        # update overflows, and the parameter check aborts every cell
        config = json.loads(SMOKE_CONFIG.read_text())
        config["train"]["dpo"].update(learning_rate=1e308, beta=50.0, warmup_ratio=0.0)
        out = tmp_path / "runs"
        argv = ["sweep", "--config", str(write_config(tmp_path, config)), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        run_dirs = discover_run_dirs(out)
        assert len(run_dirs) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: run {d.name} aborted: non-finite parameters at update 2"
            for d in sorted(run_dirs, key=lambda d: d.name.startswith("apl"))
        ] + [f"4 of 4 runs aborted under {out}"]
        for run_dir in run_dirs:
            assert sorted(p.name for p in run_dir.iterdir()) == [
                "counters.json", "events.jsonl", "manifest.json", "metrics.csv", "run.npz",
            ]
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert (manifest["status"], manifest["aborted"], manifest["error"]) == (
                "completed", True, "non-finite parameters at update 2"
            )
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[:4] == [
            f"warning: {d} is left out of the report "
            "(the run aborted: non-finite parameters at update 2)"
            for d in run_dirs
        ]

    @pytest.mark.parametrize("outcome", sorted(SMOKE_OUTCOMES))
    def test_train_and_sweep_report_one_outcome(self, tmp_path, capsys, outcome):
        config_path = write_config(tmp_path, one_cell_smoke(outcome))
        error = SMOKE_OUTCOMES[outcome][1]
        named = [] if error is None else [f"error: run random__weak__seed42 {outcome}: {error}"]
        for command in ("train", "sweep"):
            out = tmp_path / command
            code = main([command, "--config", str(config_path), "--out", str(out)])
            err = capsys.readouterr().err.splitlines()
            assert (code, [line for line in err if line.startswith("error:")]) == (
                0 if error is None else 1, named
            )
            run_dir = out / "random__weak__seed42"
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest.get("error") == error
            assert manifest["status"] == ("failed" if outcome == "failed" else "completed")
            assert (run_dir / "eval.csv").exists() == (error is None)
            assert main(["report", "--out", str(out)]) == (0 if error is None else 2)
            warnings = [
                line for line in capsys.readouterr().err.splitlines() if "warning" in line
            ]
            assert warnings == (
                [] if error is None
                else [f"warning: {run_dir} is left out of the report (the run {outcome}: {error})"]
            )

    @pytest.mark.parametrize("outcome", ["failed", "aborted"])
    def test_overwrite_leaves_no_old_outcome(self, tmp_path, capsys, outcome):
        out = tmp_path / "runs"
        run_dir = out / "random__weak__seed42"
        argv = ["sweep", "--config", str(tmp_path / "config.json"), "--out", str(out)]
        write_config(tmp_path, one_cell_smoke())
        assert main(argv) == 0
        (run_dir / "notes.txt").write_text("not a run file")
        write_config(tmp_path, one_cell_smoke(outcome))
        assert main(argv + ["--overwrite"]) == 1
        written = ["manifest.json"]
        if outcome == "aborted":
            written += ["counters.json", "events.jsonl", "metrics.csv", "run.npz"]
        # the old eval.csv and the rest are gone; files a run does not write stay
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(written + ["notes.txt"])
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {run_dir} is left out of the report "
            f"(the run {outcome}: {SMOKE_OUTCOMES[outcome][1]})",
            "error: no eval.csv rows found under the given run directories",
        ]

    def test_a_killed_rerun_leaves_no_old_outcome(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "runs"
        argv = ["train", "--config", str(write_config(tmp_path, one_cell_smoke())), "--out", str(out)]
        assert main(argv) == 0

        def killed(universe, cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "sft_fit", killed)
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--overwrite"])
        run_dir = out / "random__weak__seed42"
        assert list(run_dir.iterdir()) == []
        # the killed run still counts as a run directory, and report names it
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {run_dir} is left out of the report (unreadable manifest.json: "
            f"[Errno 2] No such file or directory: '{run_dir / 'manifest.json'}')",
            "error: no eval.csv rows found under the given run directories",
        ]

    @pytest.mark.parametrize(
        "section, key, value",
        [("train", "dpo.max_steps", 10), ("eval", "n_trials", 100), ("universe", "seed", 8)],
    )
    def test_report_refuses_a_directory_mixing_grids(self, tmp_path, capsys, section, key, value):
        out = tmp_path / "runs"
        argv = ["sweep", "--config", str(tmp_path / "config.json"), "--out", str(out)]
        write_config(tmp_path, one_cell_smoke())
        assert main(argv) == 0
        config = one_cell_smoke(seeds=[43])
        *path, leaf = key.split(".")
        functools.reduce(lambda d, k: d[k], [section, *path], config)[leaf] = value
        write_config(tmp_path, config)
        assert main(argv + ["--overwrite"]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'random__weak__seed43'} and {out / 'random__weak__seed42'} differ in "
            "universe_hash, grid.config.train or grid.config.eval; report one grid per directory\n"
        )
        assert not (out / "summary.csv").exists()

    def test_report_refuses_two_runs_of_one_cell(self, tmp_path, capsys, swept_smoke):
        out = tmp_path / "runs"
        shutil.copytree(swept_smoke, out)
        for name in ("summary.csv", "welch.csv", "pareto.csv"):
            (out / name).unlink()
        original = out / "apl__weak__seed42"
        backup = shutil.copytree(original, out / "apl__weak__seed42.bak")
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {backup} and {original} both report selector 'apl', annotator 'weak', "
            "seed 42; report one run per cell\n"
        )
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("group, label", [("annotators", "weak"), ("evaluators", "oracle")])
    def test_report_refuses_a_judge_label_naming_two_specs(self, tmp_path, capsys, group, label):
        out = tmp_path / "runs"
        argv = ["sweep", "--config", str(tmp_path / "config.json"), "--out", str(out)]
        write_config(tmp_path, one_cell_smoke())
        assert main(argv) == 0
        config = one_cell_smoke(seeds=[43])
        next(spec for spec in config[group] if spec["label"] == label)["misalignment"] = 0.5
        write_config(tmp_path, config)
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'random__weak__seed43'} and {out / 'random__weak__seed42'} give "
            f"judge {label!r} different specs; a judge label must name one judge\n"
        )
        assert not (out / "summary.csv").exists()

    def test_report_accepts_a_later_sweep_adding_judges(self, tmp_path):
        out = tmp_path / "runs"
        argv = ["sweep", "--config", str(tmp_path / "config.json"), "--out", str(out)]
        write_config(tmp_path, one_cell_smoke())
        assert main(argv) == 0
        config = one_cell_smoke(seeds=[43])
        config["annotators"].append(dict(config["annotators"][0], label="weak-2"))
        config["evaluators"].append(dict(config["evaluators"][1], label="oracle-2"))
        write_config(tmp_path, config)
        assert main(argv) == 0
        assert main(["report", "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            n_seeds = {(row["annotator"], row["evaluator"]): row["n_seeds"] for row in csv.DictReader(fh)}
        assert n_seeds == {
            ("weak", "oracle"): "2", ("weak", "weak-eval"): "2", ("weak", "oracle-2"): "1",
            ("weak-2", "oracle"): "1", ("weak-2", "weak-eval"): "1", ("weak-2", "oracle-2"): "1",
        }

    def test_report_accepts_a_later_sweep_adding_seeds_and_selectors(self, tmp_path):
        out = tmp_path / "runs"
        argv = ["sweep", "--config", str(tmp_path / "config.json"), "--out", str(out)]
        write_config(tmp_path, one_cell_smoke())
        assert main(argv) == 0
        write_config(tmp_path, one_cell_smoke(seeds=[43], selectors=["random", "apl"]))
        assert main(argv) == 0
        assert main(["report", "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            n_seeds = {(row["selector"], row["evaluator"]): row["n_seeds"] for row in csv.DictReader(fh)}
        assert n_seeds == {
            ("apl", "oracle"): "1", ("apl", "weak-eval"): "1",
            ("random", "oracle"): "2", ("random", "weak-eval"): "2",
        }

    def test_a_grid_grows_in_one_directory_without_overwrite(self, tmp_path, capsys):
        out = tmp_path / "runs"
        universe = out / "universe.npz"
        smoke = ["--config", str(SMOKE_CONFIG), "--out", str(out)]
        assert main(["generate", *smoke]) == 0
        smoke_bytes = universe.read_bytes()
        assert main(["generate", *smoke]) == 0  # the same universe is kept
        assert capsys.readouterr().out.splitlines()[1].startswith(f"kept {universe} (hash ")
        assert main(["sweep", *smoke]) == 0
        assert main(["train", *smoke, "--seed", "45"]) == 0
        assert universe.read_bytes() == smoke_bytes
        assert main(["report", "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            n_seeds = {(row["selector"], row["evaluator"]): row["n_seeds"] for row in csv.DictReader(fh)}
        assert n_seeds == {
            ("apl", "oracle"): "2", ("apl", "weak-eval"): "2",
            ("random", "oracle"): "3", ("random", "weak-eval"): "3",
        }
        with open(out / "pareto.csv") as fh:
            assert {row["seed"] for row in csv.DictReader(fh)} == {"42", "43", "45"}
        # an existing cell is still refused
        assert main(["train", *smoke, "--seed", "45"]) == 2
        capsys.readouterr()

        goodhart = ["--config", str(GOODHART_CONFIG), "--out", str(out)]
        assert main(["generate", *goodhart]) == 2
        assert capsys.readouterr().err == (
            f"error: {universe} holds another universe (pass --overwrite)\n"
        )
        assert universe.read_bytes() == smoke_bytes
        assert main(["generate", *goodhart, "--overwrite"]) == 0
        elsewhere = tmp_path / "goodhart.npz"
        assert main(["generate", "--config", str(GOODHART_CONFIG), "--out", str(elsewhere)]) == 0
        assert universe.read_bytes() == elsewhere.read_bytes() != smoke_bytes

    def test_a_universe_path_grid_keeps_only_its_own_universe(self, tmp_path, capsys):
        smoke_universe, other = tmp_path / "smoke.npz", tmp_path / "other" / "universe.npz"
        assert main(["generate", "--config", str(SMOKE_CONFIG), "--out", str(smoke_universe)]) == 0
        assert main(["generate", "--config", str(GOODHART_CONFIG), "--out", str(other)]) == 0
        other_bytes = other.read_bytes()
        config = one_cell_smoke()
        del config["universe"]
        config["universe_path"] = str(smoke_universe)
        argv = ["sweep", "--config", str(write_config(tmp_path, config)), "--out"]
        capsys.readouterr()
        assert main(argv + [str(other.parent)]) == 2
        assert capsys.readouterr().err == (
            f"error: {other} holds another universe (pass --overwrite)\n"
        )
        assert other.read_bytes() == other_bytes
        assert sorted(p.name for p in other.parent.iterdir()) == ["universe.npz"]
        # the directory holding the universe_path file itself keeps it
        assert main(argv + [str(tmp_path)]) == 0
        assert (tmp_path / "universe.npz").read_bytes() == smoke_universe.read_bytes()

    def test_oversized_batch_is_refused_before_any_file(self, tmp_path, capsys):
        config = json.loads(SMOKE_CONFIG.read_text())
        config["train"]["selection"]["batch_prompts"] = 40
        out = tmp_path / "runs"
        for args in ([], ["--parallel", "2"]):
            argv = ["sweep", "--config", str(write_config(tmp_path, config)), "--out", str(out)]
            assert main(argv + args) == 2
            assert capsys.readouterr().err == (
                "error: batch_prompts 40 exceeds the 32 train prompts\n"
            )
            assert not out.exists()
        # a single cell is refused before its run directory exists
        argv = ["train", "--config", str(write_config(tmp_path, config)), "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_oversized_batch_is_refused_on_a_universe_path(self, tmp_path):
        config = json.loads(SMOKE_CONFIG.read_text())
        universe_path = tmp_path / "universe.npz"
        config_path = write_config(tmp_path, config)
        assert main(["generate", "--config", str(config_path), "--out", str(universe_path)]) == 0
        del config["universe"]
        config["universe_path"] = str(universe_path)
        config["train"]["selection"]["batch_prompts"] = 40
        config["output_dir"] = str(tmp_path / "runs")
        grid, manifest = parse_config(write_config(tmp_path, config))
        with pytest.raises(ConfigurationError, match="batch_prompts 40 exceeds the 32 train prompts"):
            run_grid(grid, grid_manifest=manifest)
        assert not (tmp_path / "runs").exists()

    def test_config_error_returns_nonzero(self, tmp_path):
        config = grid_config(tmp_path / "runs", seeds=[42, 42])
        config_path = write_config(tmp_path, config)
        assert main(["sweep", "--config", str(config_path)]) == 2

    @pytest.mark.parametrize(
        "config_bytes,error",
        [
            (SMOKE_CONFIG.read_bytes().replace(b'"seeds":', b'"seeds": [7], "seeds":'),
             "seeds: repeated key"),
            (SMOKE_CONFIG.read_bytes().replace(b'"runs/', b'"\xffruns/'), "'utf-8' codec"),
        ],
        ids=["repeated_key", "not_utf8"],
    )
    def test_a_config_that_does_not_parse_cleanly_exits_2(
        self, tmp_path, capsys, config_bytes, error
    ):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(config_bytes)
        out = tmp_path / "runs"
        assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and error in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb,out_name",
        [("sweep", "out"), ("train", "out"), ("generate", "out"), ("sweep", "out/runs"),
         ("generate", "out/universe.npz")],
    )
    def test_an_output_path_through_a_regular_file_is_refused(
        self, tmp_path, capsys, verb, out_name
    ):
        # the file stands where the output directory (or one of its parents) goes
        blocker = tmp_path / "out"
        blocker.write_bytes(b"not a directory\n")
        argv = [verb, "--config", str(SMOKE_CONFIG), "--out", str(tmp_path / out_name)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert blocker.read_bytes() == b"not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("overwrite", [[], ["--overwrite"]])
    def test_generate_onto_a_directory_is_refused(self, tmp_path, capsys, overwrite):
        # a directory stands where the universe file goes
        target = tmp_path / "smoke.npz"
        (target / "inside").mkdir(parents=True)
        argv = ["generate", "--config", str(SMOKE_CONFIG), "--out", str(target), *overwrite]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(target) in line
        assert [p.name for p in tmp_path.iterdir()] == ["smoke.npz"]
        assert [p.name for p in target.iterdir()] == ["inside"]

    @pytest.mark.parametrize("label", ["../x", "a/b"])
    def test_a_label_that_is_not_one_path_component_is_refused(self, tmp_path, capsys, label):
        # the annotator label names the run directory; a path in it would escape output_dir
        config = one_cell_smoke()
        config["annotators"][0]["label"] = label
        out = tmp_path / "out" / "runs"
        argv = ["sweep", "--config", str(write_config(tmp_path, config)), "--out", str(out)]
        assert main(argv) == 2
        assert f"judge label {label!r}" in capsys.readouterr().err
        assert not out.parent.exists()
