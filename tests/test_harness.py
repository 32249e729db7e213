"""Grid configs, run directories, aggregation, pareto emission, CLI."""

import csv
import json

import numpy as np
import pytest

from preflab import ConfigurationError, aggregate_summary, emit_pareto, parse_config, run_grid
from preflab.cli import main
from preflab.harness import EVAL_CSV_HEADER, discover_run_dirs, write_summary


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

    def test_parallel_matches_sequential(self, tmp_path):
        config = grid_config(tmp_path / "seq", seeds=[42], selectors=["random", "apl"])
        grid, manifest = parse_config(write_config(tmp_path, config))
        seq_dirs = run_grid(grid, grid_manifest=manifest)
        grid.output_dir = str(tmp_path / "par")
        par_dirs = run_grid(grid, grid_manifest=manifest, parallel=2)
        for a, b in zip(seq_dirs, par_dirs):
            assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()
            assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def fake_run_dir(root, selector, annotator, seed, win_rate, delta, scoring=0, collapse=False):
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
                "judge_queries": 10,
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
        _, welch = aggregate_summary(dirs)
        assert welch and all(record["note"] == "degenerate" for record in welch)

    def test_extra_scoring_ops_paired_by_seed(self, tmp_path):
        dirs = []
        for seed in (42, 43):
            dirs.append(fake_run_dir(tmp_path, "random", "weak", seed, 0.7, -1.0))
            dirs.append(
                fake_run_dir(tmp_path, "apl", "weak", seed, 0.8, -0.5, scoring=24)
            )
        summary, _ = aggregate_summary(dirs)
        by_selector = {row.selector: row for row in summary}
        assert by_selector["apl"].extra_scoring_ops_mean == 48.0
        assert by_selector["random"].extra_scoring_ops_mean == 0.0

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

    def test_config_error_returns_nonzero(self, tmp_path):
        config = grid_config(tmp_path / "runs", seeds=[42, 42])
        config_path = write_config(tmp_path, config)
        assert main(["sweep", "--config", str(config_path)]) == 2
