"""Supervised fit and the online loop: determinism, budgets, aborts."""

import json
import math

import numpy as np
import pytest

from preflab import (
    ConfigurationError,
    DpoConfig,
    JudgeSpec,
    Policy,
    SelectionConfig,
    SftConfig,
    TrainConfig,
    TrainingError,
    UniverseConfig,
    generate_universe,
    log_prob,
    reference_preset,
    response_probabilities,
    probe_accuracy,
    run_online_dpo,
    sft_fit,
)
from preflab.trainer import _json_floats


def mean_chosen_log_prob(policy, universe):
    """Mean log-likelihood of the best response over train prompts."""
    train = universe.train_prompts()
    return sum(log_prob(policy, r, int(np.argmax(r.true_reward))) for r in train) / len(train)


def dense_universe(seed=5):
    return generate_universe(
        UniverseConfig(
            num_train_prompts=32,
            num_eval_prompts=8,
            num_probe_prompts=16,
            responses_per_prompt=6,
            feature_dim=12,
            true_reward_scale=2.0,
            misalignment_rho=-0.5,
            seed=seed,
        )
    )


def train_config(**overrides):
    base = dict(
        dpo=DpoConfig(beta=0.1, learning_rate=0.02, max_steps=10, updates_per_sample=4),
        selection=SelectionConfig(
            batch_prompts=8, candidates_per_prompt=4, apl_top_prompts=4, label_budget=8
        ),
        selector="random",
        annotator=JudgeSpec(label="annotator", misalignment=0.0, noise_temperature=1.0, seed=1),
        sft=SftConfig(learning_rate=0.05, epochs=4, batch=16),
        run_seed=42,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSftFit:
    def test_improves_chosen_log_likelihood(self):
        u = dense_universe()
        cfg = train_config()
        fitted = sft_fit(u, cfg)
        baseline = mean_chosen_log_prob(Policy(np.zeros(u.config.feature_dim)), u)
        assert mean_chosen_log_prob(fitted, u) > baseline

    def test_tabular_long_fit_approaches_point_mass(self):
        cfg_u = UniverseConfig(
            num_train_prompts=6,
            num_eval_prompts=2,
            num_probe_prompts=2,
            responses_per_prompt=4,
            feature_dim=10 * 4,
            tabular_mode=True,
            seed=3,
        )
        u = generate_universe(cfg_u)
        cfg = train_config(sft=SftConfig(learning_rate=0.2, epochs=200, batch=6))
        fitted = sft_fit(u, cfg)
        for record in u.train_prompts():
            chosen = int(np.argmax(record.true_reward))
            assert response_probabilities(fitted, record)[chosen] > 0.9

    def test_same_seed_identical_theta(self):
        u = dense_universe()
        a = sft_fit(u, train_config(run_seed=7))
        b = sft_fit(u, train_config(run_seed=7))
        np.testing.assert_array_equal(a.theta, b.theta)


class TestReferencePreset:
    def test_headline_values(self):
        preset = reference_preset()
        assert preset.dpo.max_steps == 625
        assert preset.selection.batch_prompts == 64
        assert preset.dpo.updates_per_sample == 4
        assert preset.dpo.warmup_ratio == 0.05
        # artifact defaults, not protocol constants
        assert preset.dpo.beta == 0.1
        assert preset.selection.candidates_per_prompt == 4
        assert preset.selection.apl_top_prompts == 32
        assert preset.selection.label_budget == 64


class TestOnlineLoop:
    def test_zero_iterations_returns_sft(self):
        u = dense_universe()
        cfg = train_config(dpo=DpoConfig(max_steps=0))
        sft = sft_fit(u, cfg)
        result = run_online_dpo(u, sft, cfg)
        np.testing.assert_array_equal(result.final_policy.theta, sft.theta)
        assert result.per_iteration == []
        assert result.counters.judge_queries == 0

    def test_reference_is_bitwise_sft(self):
        u = dense_universe()
        cfg = train_config()
        sft = sft_fit(u, cfg)
        result = run_online_dpo(u, sft, cfg)
        np.testing.assert_array_equal(result.sft_policy.theta, sft.theta)

    def test_judge_queries_match_labeled_pairs(self):
        u = dense_universe()
        cfg = train_config()
        sft = sft_fit(u, cfg)
        result = run_online_dpo(u, sft, cfg)
        total = sum(log.labeled_pairs for log in result.per_iteration)
        assert result.counters.judge_queries == total
        assert total <= cfg.dpo.max_steps * cfg.selection.label_budget

    def test_tabular_faithful_judge_preserves_probe_accuracy(self):
        # tabular blocks are disjoint, so training cannot move probe prompts
        cfg_u = UniverseConfig(
            num_train_prompts=8,
            num_eval_prompts=2,
            num_probe_prompts=4,
            responses_per_prompt=4,
            feature_dim=14 * 4,
            tabular_mode=True,
            seed=13,
        )
        u = generate_universe(cfg_u)
        cfg = train_config(
            annotator=JudgeSpec(label="annotator", kind="deterministic", misalignment=0.0),
            selection=SelectionConfig(
                batch_prompts=4, candidates_per_prompt=4, apl_top_prompts=2, label_budget=4
            ),
        )
        sft = sft_fit(u, cfg)
        result = run_online_dpo(u, sft, cfg)
        drop = probe_accuracy(sft, u) - probe_accuracy(result.final_policy, u)
        assert drop <= 0.01

    def test_run_result_serialization_deterministic(self):
        u = dense_universe()
        cfg = train_config(selector="apl")
        a = run_online_dpo(u, sft_fit(u, cfg), cfg)
        b = run_online_dpo(u, sft_fit(u, cfg), cfg)
        assert a.event_lines == b.event_lines
        # through json.dumps, so that a NaN mean_loss compares equal to itself
        for run_a, run_b in (
            ([vars(log) for log in a.per_iteration], [vars(log) for log in b.per_iteration]),
            (a.counters.to_json_dict(), b.counters.to_json_dict()),
            (a.final_policy.to_json_dict(), b.final_policy.to_json_dict()),
            (a.sft_policy.to_json_dict(), b.sft_policy.to_json_dict()),
        ):
            assert json.dumps(run_a, sort_keys=True) == json.dumps(run_b, sort_keys=True)
        assert a.aborted is b.aborted is False

    def test_every_event_line_is_canonical_json(self):
        u = dense_universe()
        apl_cfg, random_cfg = train_config(selector="apl"), train_config()
        apl_run = run_online_dpo(u, sft_fit(u, apl_cfg), apl_cfg)
        random_run = run_online_dpo(u, sft_fit(u, random_cfg), random_cfg)
        # a point-mass sampler: degenerate prompts and budget shortfalls
        collapsed = run_online_dpo(u, Policy(1e4 * u.probe_direction, label="sharp"), apl_cfg)
        diverging = train_config(
            dpo=DpoConfig(beta=50.0, learning_rate=1e308, warmup_ratio=0.0, max_steps=6)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            aborted = run_online_dpo(u, sft_fit(u, diverging), diverging)
        assert aborted.aborted and not apl_run.aborted

        kinds = set()
        for result in (apl_run, random_run, collapsed, aborted):
            for line in result.event_lines:
                # one line, newline-terminated, sorted keys, the encoder's own text
                assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"
                kinds.add(json.loads(line)["type"])
        assert kinds == {"candidates", "degenerate_prompt", "budget_shortfall", "selection", "abort"}
        scores = [e["score"] for e in random_run.events if e["type"] == "selection"]
        assert scores and all(score is None for score in scores)

    @pytest.mark.parametrize(
        "values", [[], [0.0], [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, -1.5e-7]]
    )
    def test_score_text_is_the_encoders(self, values):
        assert _json_floats(values) == [json.dumps(v) for v in values]

    def test_candidate_streams_paired_across_selectors(self):
        u = dense_universe()
        sft_a = sft_fit(u, train_config(selector="random"))
        res_random = run_online_dpo(u, sft_a, train_config(selector="random"))
        sft_b = sft_fit(u, train_config(selector="apl"))
        res_apl = run_online_dpo(u, sft_b, train_config(selector="apl"))
        first = lambda events: next(e for e in events if e["type"] == "candidates")
        assert first(res_random.events) == first(res_apl.events)

    def test_divergence_aborts_with_partial_result(self):
        u = dense_universe()
        # Adam's first step moves each parameter by about the learning rate,
        # which is at the float ceiling; the second overflows
        cfg = train_config(
            dpo=DpoConfig(
                beta=50.0,
                learning_rate=1e308,
                warmup_ratio=0.0,
                max_steps=6,
                updates_per_sample=2,
            )
        )
        sft = sft_fit(u, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_online_dpo(u, sft, cfg)
        aborts = [e for e in result.events if e["type"] == "abort"]
        assert len(aborts) == 1
        assert aborts[0]["reason"] == "non-finite parameters at update 2"
        assert len(result.per_iteration) <= 6
        assert np.all(np.isfinite(result.final_policy.theta))

    def test_supervised_divergence_names_the_fit(self):
        u = dense_universe()
        cfg = train_config(sft=SftConfig(learning_rate=1e308, epochs=3, batch=8))
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="supervised fit diverged at update 3"):
                sft_fit(u, cfg)

    def test_update_policies_are_not_revalidated(self, monkeypatch):
        # optimizer_step checks each update's parameters; only the reference
        # and the starting policy go through Policy validation
        u = dense_universe()
        cfg = train_config()
        sft = sft_fit(u, cfg)
        validations = []
        post_init = Policy.__post_init__

        def counting_post_init(self):
            validations.append(self.label)
            post_init(self)

        monkeypatch.setattr(Policy, "__post_init__", counting_post_init)
        result = run_online_dpo(u, sft, cfg)
        assert validations == ["sft", "step-0"]
        assert result.final_policy.label == f"step-{cfg.dpo.total_updates}"
        assert not result.final_policy.theta.flags.writeable

    def test_batch_larger_than_pool_rejected(self):
        u = dense_universe()
        cfg = train_config(
            selection=SelectionConfig(
                batch_prompts=64, candidates_per_prompt=4, apl_top_prompts=4, label_budget=8
            )
        )
        sft = sft_fit(u, cfg)
        with pytest.raises(ConfigurationError, match="train prompts"):
            run_online_dpo(u, sft, cfg)

    def test_collapsed_policy_logs_degenerate_and_shortfall(self):
        u = dense_universe()
        cfg = train_config()
        # a huge theta makes every prompt's sampler a point mass
        sharp = Policy(1e4 * u.probe_direction, label="sharp")
        result = run_online_dpo(u, sharp, cfg)
        kinds = {e["type"] for e in result.events}
        assert "degenerate_prompt" in kinds
        assert "budget_shortfall" in kinds
