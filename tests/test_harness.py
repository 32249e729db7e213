"""Grid configs, run directories, aggregation, pareto emission, CLI."""

import copy
import csv
import functools
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
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
    PromptUniverse,
    SelectionConfig,
    SftConfig,
    TrainConfig,
    UniverseConfig,
    aggregate_summary,
    emit_pareto,
    parse_config,
    run_grid,
)
from preflab import harness
from preflab.cli import main
from preflab.harness import (
    EVAL_CSV_HEADER,
    EvalSettings,
    ExperimentGrid,
    discover_run_dirs,
    write_summary,
)


SMOKE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smoke.json"


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
    """Values that ``validate`` rejects at ``key_path``, or None where every
    value of the right type is valid (seeds and output_dir)."""
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
            (ExperimentGrid, GRID, dict(universe_path="universe.json"), "exactly one"),
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
                "sft_policy.json",
                "final_policy.json",
            ):
                assert (run_dir / name).exists(), name
        manifest_doc = json.loads((run_dirs[0] / "manifest.json").read_text())
        assert "manifest_hash" in manifest_doc and "universe_hash" in manifest_doc

    def test_rerun_refused_without_overwrite(self, tmp_path):
        out = tmp_path / "runs"
        config = grid_config(out, seeds=[42], selectors=["random"])
        grid, manifest = parse_config(write_config(tmp_path, config))
        run_grid(grid, grid_manifest=manifest)
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
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

    def test_serial_grid_encodes_universe_once(self, tmp_path, monkeypatch):
        encodings = []
        to_json_dict = PromptUniverse.to_json_dict

        def counting_to_json_dict(self):
            encodings.append(1)
            return to_json_dict(self)

        results = {}
        write_run_outputs = harness._write_run_outputs

        def capturing_write(run_dir, result, *args):
            results[run_dir] = result
            return write_run_outputs(run_dir, result, *args)

        monkeypatch.setattr(PromptUniverse, "to_json_dict", counting_to_json_dict)
        monkeypatch.setattr(harness, "_write_run_outputs", capturing_write)
        grid, manifest = parse_config(SMOKE_CONFIG)
        grid = replace(grid, output_dir=str(tmp_path / "runs"))
        run_dirs = run_grid(grid, grid_manifest=manifest)
        assert len(run_dirs) == 4
        assert len(encodings) == 1  # universe.json and every cell's hash share one encoding

        universe_bytes = (tmp_path / "runs" / "universe.json").read_bytes()
        assert universe_bytes.endswith(b"\n")
        universe_hash = hashlib.sha256(universe_bytes[:-1]).hexdigest()
        for run_dir in run_dirs:
            run_manifest = json.loads((run_dir / "manifest.json").read_text())
            assert run_manifest["universe_hash"] == universe_hash
            lines = (run_dir / "events.jsonl").read_text(encoding="utf-8").split("\n")
            events = results[run_dir].events
            assert lines == [json.dumps(event, sort_keys=True) for event in events] + [""]

    def test_evaluation_asks_each_evaluator_once_per_cell(self, tmp_path, monkeypatch):
        batch_calls, scalar_calls = {}, []
        prefer_batch, prefer = Judge.prefer_batch, Judge.prefer

        def counting_prefer_batch(self, *args):
            batch_calls[self.label] = batch_calls.get(self.label, 0) + 1
            return prefer_batch(self, *args)

        def counting_prefer(self, *args):
            scalar_calls.append(self.label)
            return prefer(self, *args)

        monkeypatch.setattr(Judge, "prefer_batch", counting_prefer_batch)
        monkeypatch.setattr(Judge, "prefer", counting_prefer)
        grid, manifest = parse_config(SMOKE_CONFIG)
        grid = replace(grid, output_dir=str(tmp_path / "runs"))
        run_dirs = run_grid(grid, grid_manifest=manifest)
        # the annotator labels once per iteration; each evaluator judges once per cell
        annotator_calls = batch_calls.pop(grid.annotators[0].label)
        assert annotator_calls == len(run_dirs) * grid.train.dpo.max_steps
        assert batch_calls == {spec.label: len(run_dirs) for spec in grid.evaluators}
        assert scalar_calls == []

    def test_runtime_reads_only_the_universe_arrays(self, tmp_path, monkeypatch):
        def smoke_files():
            grid, manifest = parse_config(SMOKE_CONFIG)
            grid = replace(grid, output_dir=str(tmp_path / "runs"))
            run_grid(grid, grid_manifest=manifest, overwrite=True)
            out = Path(grid.output_dir)
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        plain = smoke_files()
        assert len(plain) == 4 * 7 + 1  # seven files per run, and universe.json

        def refuse(*args):
            raise AssertionError("the runtime read a PromptRecord")

        monkeypatch.setattr(PromptUniverse, "prompts", property(refuse))
        monkeypatch.setattr(PromptUniverse, "prompts_with_role", refuse)
        assert smoke_files() == plain

    def test_parallel_workers_get_the_universe_without_loading(self, tmp_path, monkeypatch):
        # forked workers inherit the patched load, so a load in any process logs
        log = tmp_path / "loads.log"
        load = PromptUniverse.load.__func__

        def logging_load(cls, path):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{path}\n")
            return load(cls, path)

        monkeypatch.setattr(PromptUniverse, "load", classmethod(logging_load))
        fork_pool = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(harness, "ProcessPoolExecutor", fork_pool)
        grid, manifest = parse_config(SMOKE_CONFIG)
        grid = replace(grid, output_dir=str(tmp_path / "par"))
        par_dirs = run_grid(grid, grid_manifest=manifest, parallel=2)
        assert not log.exists(), log.read_text()

        grid = replace(grid, output_dir=str(tmp_path / "seq"))
        seq_dirs = run_grid(grid, grid_manifest=manifest)
        universe_bytes = (tmp_path / "par" / "universe.json").read_bytes()
        universe_hash = hashlib.sha256(universe_bytes[:-1]).hexdigest()
        for a, b in zip(seq_dirs, par_dirs):
            assert json.loads((b / "manifest.json").read_text())["universe_hash"] == universe_hash
            for name in ("metrics.csv", "events.jsonl", "counters.json", "eval.csv",
                         "sft_policy.json", "final_policy.json"):
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


def fake_run_dir(
    root, selector, annotator, seed, win_rate, delta, scoring=0, collapse=False, queries=10
):
    run_id = f"{selector}__{annotator}__seed{seed}"
    run_dir = root / run_id
    run_dir.mkdir(parents=True)
    rows = [
        [
            run_id,
            selector,
            annotator,
            "eval-judge",
            seed,
            repr(win_rate),
            repr(max(win_rate - 0.02, 0.0)),
            repr(min(win_rate + 0.02, 1.0)),
            "0.5",
            repr(delta),
            "1.0",
            "true" if collapse else "false",
        ]
    ]
    with open(run_dir / "eval.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVAL_CSV_HEADER)
        writer.writerows(rows)
    (run_dir / "counters.json").write_text(
        json.dumps(
            {
                "policy_logprob_evals": scoring,
                "ref_logprob_evals": scoring,
                "judge_queries": queries,
                "generated_samples": 40,
            }
        )
    )
    (run_dir / "manifest.json").write_text(json.dumps({"run_id": run_id, "seed": seed}))
    return run_dir


class TestAggregation:
    def test_mean_and_sample_std_oracle(self, tmp_path):
        dirs = [
            fake_run_dir(tmp_path, "random", "weak", 42, 0.60, -1.0),
            fake_run_dir(tmp_path, "random", "weak", 43, 0.62, -2.0),
            fake_run_dir(tmp_path, "random", "weak", 44, 0.64, -3.0),
        ]
        summary, _ = aggregate_summary(dirs)
        (row,) = summary
        assert row.win_rate_mean == pytest.approx(0.62)
        assert row.win_rate_std == pytest.approx(0.02)  # ddof=1 over {.60,.62,.64}
        assert row.n_seeds == 3

    def test_single_seed_reports_zero_std(self, tmp_path):
        dirs = [fake_run_dir(tmp_path, "random", "weak", 42, 0.7, 0.0)]
        summary, welch = aggregate_summary(dirs)
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
        _, welch = aggregate_summary(dirs)
        assert welch and all(record["note"] == "degenerate" for record in welch)
        strong = [r for r in welch if r["annotator"] == "strong"]
        assert len(strong) == 2
        assert all((r["selector_a"], r["n_a"], r["n_b"]) == ("apl", 2, 1) for r in strong)

    def test_extra_scoring_ops_paired_by_seed(self, tmp_path):
        dirs = []
        for seed in (42, 43, 44):
            dirs.append(fake_run_dir(tmp_path, "random", "weak", seed, 0.7, -1.0))
            dirs.append(
                fake_run_dir(tmp_path, "apl", "weak", seed, 0.8, -0.5, scoring=24)
            )
        # seed 44's apl run has no counters: left out of the extras, still a seed
        (dirs[-1] / "counters.json").unlink()
        # an apl run without a paired random run is charged its own scoring
        dirs.append(fake_run_dir(tmp_path, "apl", "solo", 42, 0.8, -0.5, scoring=24))
        summary, _ = aggregate_summary(dirs)
        by_cell = {(row.selector, row.annotator): row for row in summary}
        assert by_cell["apl", "weak"].extra_scoring_ops_mean == 48.0
        assert by_cell["apl", "weak"].n_seeds == 3
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
        _, welch = aggregate_summary(dirs)
        record = next(r for r in welch if r["metric"] == "win_rate")
        want_t, want_p = stats.ttest_ind(b_vals, a_vals, equal_var=False)
        assert record["t_stat"] == pytest.approx(float(want_t))
        assert record["p_value"] == pytest.approx(float(want_p))

    def test_unmatched_budgets_warned_once_per_seed(self, tmp_path, capsys):
        summaries = {}
        for name, apl_queries in (("matched", 10), ("unmatched", 8)):
            out = tmp_path / name
            for seed in (42, 43):
                fake_run_dir(out, "random", "weak", seed, 0.6, -1.0)
                queries = apl_queries if seed == 43 else 10
                fake_run_dir(out, "apl", "weak", seed, 0.7, -1.0, scoring=24, queries=queries)
            # a run without counters.json cannot show an unmatched budget
            fake_run_dir(out, "random", "weak", 44, 0.6, -1.0)
            no_counters = fake_run_dir(out, "apl", "weak", 44, 0.7, -1.0, scoring=24, queries=8)
            (no_counters / "counters.json").unlink()
            assert main(["report", "--out", str(out)]) == 0
            summaries[name] = (out / "summary.csv").read_bytes()
            warnings = [
                line for line in capsys.readouterr().err.splitlines() if "warning" in line
            ]
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
                    json.dumps({"run_id": failed.name, "status": "failed", "seed": 44})
                )
            assert main(["report", "--out", str(out)]) == 0
            summaries[name] = (out / "summary.csv").read_bytes()
            warnings = [
                line for line in capsys.readouterr().err.splitlines() if "warning" in line
            ]
            if plant_failed:
                assert len(warnings) == 1
                assert "random__weak__seed44" in warnings[0] and "'failed'" in warnings[0]
            else:
                assert warnings == []
        assert summaries["with_failed"] == summaries["clean"]


TAIL_DFS = [1, 1.5, 2, 2.37, 5, 10.2, 30, 58, 200, 1000]
TAIL_TS = [0, 1e-8, 0.1, 1, 2.5, 10, 100]


class TestStudentTail:
    """``harness._t_two_sided_p`` against mpmath's regularized incomplete beta.

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
                    got = harness._t_two_sided_p(sign * t, df)
                    if want >= mp.mpf("1e-300"):
                        assert abs(got - want) <= 1e-12 * want, (df, sign * t, got)
                    else:
                        assert 0.0 <= got < 1e-299, (df, sign * t, got)

    @pytest.mark.parametrize("t", [1e-8, 0.3, 1, 2.5, 10, 100])
    def test_closed_forms_at_one_and_two_df(self, t):
        with mp.workdps(50):
            one = 1 - 2 / mp.pi * mp.atan(mp.mpf(t))
            two = 1 - mp.mpf(t) / mp.sqrt(2 + mp.mpf(t) ** 2)
            assert abs(harness._t_two_sided_p(t, 1.0) - one) <= 1e-12 * one
            assert abs(harness._t_two_sided_p(-t, 2.0) - two) <= 1e-12 * two

    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_zero_and_infinite_t(self, df):
        assert harness._t_two_sided_p(0.0, df) == 1.0
        assert harness._t_two_sided_p(-0.0, df) == 1.0
        assert harness._t_two_sided_p(math.inf, df) == 0.0
        assert harness._t_two_sided_p(-math.inf, df) == 0.0

    def test_nan_data_returns_none_before_the_tail(self, monkeypatch):
        def tail(t, df):
            raise AssertionError(f"tail evaluated at t={t}, df={df}")

        monkeypatch.setattr(harness, "_t_two_sided_p", tail)
        assert harness._welch([0.5, math.nan, 0.7], [0.6, 0.8]) is None
        assert harness._welch([0.5, 0.6], [math.nan, math.nan]) is None


class TestPareto:
    def test_rows_header_and_ordering(self, tmp_path):
        dirs = [
            fake_run_dir(tmp_path, "random", "weak", 43, 0.61, -1.0),
            fake_run_dir(tmp_path, "random", "weak", 42, 0.60, -1.0),
            fake_run_dir(tmp_path, "apl", "weak", 42, 0.62, -0.5, scoring=24),
        ]
        path = emit_pareto(dirs, tmp_path / "pareto.csv")
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
        universe_path = tmp_path / "universe.json"
        assert main(["generate", "--config", str(config_path), "--out", str(universe_path)]) == 0
        assert universe_path.exists()
        assert (
            main(["train", "--config", str(config_path), "--seed", "42", "--selector", "apl"])
            == 0
        )
        assert (out / "apl__weak__seed42" / "eval.csv").exists()

    def test_sft_subcommand(self, tmp_path):
        out = tmp_path / "runs"
        config_path = write_config(tmp_path, grid_config(out))
        assert main(["sft", "--config", str(config_path), "--seed", "42"]) == 0
        doc = json.loads((out / "sft_policy.json").read_text())
        assert doc["label"] == "sft" and len(doc["theta"]) == doc["d"]

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
        with np.errstate(all="ignore"):
            assert main(["sweep", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        run_dirs = discover_run_dirs(out)
        assert len(run_dirs) == 4
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
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[:4] == [
            f"warning: {d} has no eval.csv (manifest status 'failed'); it is left out of the report"
            for d in run_dirs
        ]
        assert err[4:] == ["error: no eval.csv rows found under the given run directories"]

    def test_config_error_returns_nonzero(self, tmp_path):
        config = grid_config(tmp_path / "runs", seeds=[42, 42])
        config_path = write_config(tmp_path, config)
        assert main(["sweep", "--config", str(config_path)]) == 2
