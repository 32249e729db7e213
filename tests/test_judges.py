"""Judge oracles: proxy reward blend, Bradley-Terry sampling, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from preflab import (
    ConfigurationError,
    ContractError,
    Judge,
    JudgeSpec,
)
from preflab.rng import mix_seeds

SIGMOID_1 = 0.7310585786300049  # 1 / (1 + e^-1)


def bt_spec(**overrides):
    base = dict(label="annotator", kind="bradley_terry", misalignment=0.0,
                noise_temperature=1.0, seed=3)
    base.update(overrides)
    return JudgeSpec(**base)


class TestProxyReward:
    def test_faithful_judge_returns_true_reward(self, small_universe):
        judge = Judge(bt_spec(misalignment=0.0), small_universe)
        prompt_id = 0
        for y in range(small_universe.config.responses_per_prompt):
            assert judge.proxy_reward(prompt_id, y) == pytest.approx(
                small_universe.true_reward[prompt_id, y], abs=1e-15
            )

    def test_fully_misaligned_judge_scores_bias_direction(self, small_universe):
        judge = Judge(bt_spec(misalignment=1.0), small_universe)
        for y in range(small_universe.config.responses_per_prompt):
            want = float(small_universe.proxy_bias_direction @ small_universe.features[1, y])
            assert judge.proxy_reward(1, y) == pytest.approx(want, abs=1e-15)

    def test_convex_combination(self, small_universe):
        faithful = Judge(bt_spec(misalignment=0.0), small_universe)
        biased = Judge(bt_spec(misalignment=1.0), small_universe)
        mixed = Judge(bt_spec(misalignment=0.5), small_universe)
        for y in range(small_universe.config.responses_per_prompt):
            want = 0.5 * faithful.proxy_reward(2, y) + 0.5 * biased.proxy_reward(2, y)
            assert mixed.proxy_reward(2, y) == pytest.approx(want, abs=1e-12)


class TestPreferenceProbability:
    def test_equal_rewards_give_half(self, tabular_universe):
        # one-hot features with a zero bias projection difference is fiddly to
        # stage; instead compare a response against itself via antisymmetry
        judge = Judge(bt_spec(), tabular_universe)
        prompt_id = 0
        p12 = judge.preference_probability(prompt_id, 0, 1)
        p21 = judge.preference_probability(prompt_id, 1, 0)
        assert p12 + p21 == pytest.approx(1.0, abs=1e-12)
        assert judge.preference_probability(prompt_id, 0, 0) == pytest.approx(0.5, abs=1e-15)

    def test_unit_gap_matches_sigmoid(self, small_universe):
        judge = Judge(bt_spec(), small_universe)
        prompt_id = 0
        r0 = judge.proxy_reward(prompt_id, 0)
        r1 = judge.proxy_reward(prompt_id, 1)
        got = judge.preference_probability(prompt_id, 0, 1)
        want = 1.0 / (1.0 + math.exp(-(r0 - r1)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_huge_temperature_approaches_half(self, small_universe):
        judge = Judge(bt_spec(noise_temperature=1e6), small_universe)
        prompt_id = 0
        assert judge.preference_probability(prompt_id, 0, 1) == pytest.approx(0.5, abs=1e-6)

    def test_antisymmetry_over_random_pairs(self, small_universe):
        judge = Judge(bt_spec(misalignment=0.4), small_universe)
        for prompt_id in range(8):
            v = small_universe.config.responses_per_prompt
            for y1 in range(v):
                for y2 in range(v):
                    total = judge.preference_probability(
                        prompt_id, y1, y2
                    ) + judge.preference_probability(prompt_id, y2, y1)
                    assert abs(total - 1.0) < 1e-12

    def test_monotone_in_first_reward(self, small_universe):
        judge = Judge(bt_spec(), small_universe)
        prompt_id, v = 3, small_universe.config.responses_per_prompt
        rewards = [judge.proxy_reward(prompt_id, y) for y in range(v)]
        order = np.argsort(rewards)
        probs = [judge.preference_probability(prompt_id, int(y), int(order[0])) for y in order]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_deterministic_kind_rejects_probability(self, small_universe):
        judge = Judge(bt_spec(kind="deterministic"), small_universe)
        with pytest.raises(ContractError, match="bradley_terry"):
            judge.preference_probability(0, 0, 1)


class TestPrefer:
    def test_deterministic_prefers_higher_reward(self, small_universe):
        judge = Judge(bt_spec(kind="deterministic"), small_universe)
        prompt_id, v = 0, small_universe.config.responses_per_prompt
        r = [judge.proxy_reward(prompt_id, y) for y in range(v)]
        hi, lo = int(np.argmax(r)), int(np.argmin(r))
        assert judge.prefer(prompt_id, hi, lo) == hi
        assert judge.prefer(prompt_id, lo, hi) == hi

    def test_deterministic_tie_takes_lower_index(self, small_universe):
        true_reward, features = small_universe.true_reward.copy(), small_universe.features.copy()
        true_reward[0, 2], features[0, 2] = true_reward[0, 1], features[0, 1]
        tied = dataclasses.replace(small_universe, true_reward=true_reward, features=features)
        judge = Judge(bt_spec(kind="deterministic"), tied)
        assert judge.prefer(0, 2, 1) == 1

    def test_identical_responses_rejected(self, small_universe):
        judge = Judge(bt_spec(), small_universe)
        with pytest.raises(ContractError, match="identical"):
            judge.prefer(0, 1, 1)

    def test_out_of_range_response_rejected(self, small_universe):
        # -1 would score the last response without an error
        judge = Judge(bt_spec(), small_universe)
        prompt_id = 0
        for y in (small_universe.config.responses_per_prompt, -1):
            with pytest.raises(ContractError, match="out of range"):
                judge.proxy_reward(prompt_id, y)

    def test_bt_win_frequency_tracks_sigmoid(self, small_universe):
        judge = Judge(bt_spec(seed=11), small_universe)
        prompt_id = 4
        p_expected = judge.preference_probability(prompt_id, 0, 1)
        n = 100_000
        wins = sum(judge.prefer(prompt_id, 0, 1) == 0 for _ in range(n))
        se = math.sqrt(p_expected * (1 - p_expected) / n)
        assert abs(wins / n - p_expected) <= 5 * se


class TestMakeJudge:
    def test_same_spec_same_outcomes(self, small_universe):
        prompt_id = 0
        a = Judge(bt_spec(seed=21), small_universe)
        b = Judge(bt_spec(seed=21), small_universe)
        assert [a.prefer(prompt_id, 0, 1) for _ in range(64)] == [
            b.prefer(prompt_id, 0, 1) for _ in range(64)
        ]

    def test_label_distinguishes_streams(self, small_universe):
        prompt_id = 0
        a = Judge(bt_spec(label="annotator", seed=21), small_universe)
        b = Judge(bt_spec(label="evaluator", seed=21), small_universe)
        outcomes_a = [a.prefer(prompt_id, 0, 1) for _ in range(128)]
        outcomes_b = [b.prefer(prompt_id, 0, 1) for _ in range(128)]
        assert outcomes_a != outcomes_b

    def test_for_run_folds_the_run_seed_into_the_judge_seed(self, small_universe):
        judge = Judge.for_run(bt_spec(seed=21), small_universe, 42)
        assert judge.spec == bt_spec(seed=mix_seeds(21, 42))
        other_run = Judge.for_run(bt_spec(seed=21), small_universe, 43)
        assert not np.array_equal(judge._rng.random(8), other_run._rng.random(8))

    def test_faithful_deterministic_prefers_correct_probe_response(self, small_universe):
        judge = Judge(
            bt_spec(kind="deterministic", misalignment=0.0), small_universe
        )
        for prompt_id in small_universe.role_ids("probe"):
            correct = small_universe.correct_response[prompt_id]
            for y in range(small_universe.config.responses_per_prompt):
                if y != correct:
                    assert judge.prefer(prompt_id, correct, y) == correct

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(misalignment=1.5), "misalignment"),
            (dict(noise_temperature=0.0), "noise_temperature"),
            (dict(kind="llm"), "kind"),
            (dict(label=""), "label"),
        ],
    )
    def test_spec_validation(self, small_universe, overrides, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            Judge(bt_spec(**overrides), small_universe)
