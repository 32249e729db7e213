"""Judge oracles: proxy reward blend, Bradley-Terry sampling, determinism."""

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
        record = small_universe.prompts[0]
        for y in range(record.features.shape[0]):
            assert judge.proxy_reward(record, y) == pytest.approx(
                record.true_reward[y], abs=1e-15
            )

    def test_fully_misaligned_judge_scores_bias_direction(self, small_universe):
        judge = Judge(bt_spec(misalignment=1.0), small_universe)
        record = small_universe.prompts[1]
        for y in range(record.features.shape[0]):
            want = float(small_universe.proxy_bias_direction @ record.features[y])
            assert judge.proxy_reward(record, y) == pytest.approx(want, abs=1e-15)

    def test_convex_combination(self, small_universe):
        record = small_universe.prompts[2]
        faithful = Judge(bt_spec(misalignment=0.0), small_universe)
        biased = Judge(bt_spec(misalignment=1.0), small_universe)
        mixed = Judge(bt_spec(misalignment=0.5), small_universe)
        for y in range(record.features.shape[0]):
            want = 0.5 * faithful.proxy_reward(record, y) + 0.5 * biased.proxy_reward(record, y)
            assert mixed.proxy_reward(record, y) == pytest.approx(want, abs=1e-12)


class TestPreferenceProbability:
    def test_equal_rewards_give_half(self, tabular_universe):
        # one-hot features with a zero bias projection difference is fiddly to
        # stage; instead compare a response against itself via antisymmetry
        judge = Judge(bt_spec(), tabular_universe)
        record = tabular_universe.prompts[0]
        p12 = judge.preference_probability(record, 0, 1)
        p21 = judge.preference_probability(record, 1, 0)
        assert p12 + p21 == pytest.approx(1.0, abs=1e-12)
        assert judge.preference_probability(record, 0, 0) == pytest.approx(0.5, abs=1e-15)

    def test_unit_gap_matches_sigmoid(self, small_universe):
        judge = Judge(bt_spec(), small_universe)
        record = small_universe.prompts[0]
        r0 = judge.proxy_reward(record, 0)
        r1 = judge.proxy_reward(record, 1)
        got = judge.preference_probability(record, 0, 1)
        want = 1.0 / (1.0 + math.exp(-(r0 - r1)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_huge_temperature_approaches_half(self, small_universe):
        judge = Judge(bt_spec(noise_temperature=1e6), small_universe)
        record = small_universe.prompts[0]
        assert judge.preference_probability(record, 0, 1) == pytest.approx(0.5, abs=1e-6)

    def test_antisymmetry_over_random_pairs(self, small_universe):
        judge = Judge(bt_spec(misalignment=0.4), small_universe)
        for record in small_universe.prompts[:8]:
            v = record.features.shape[0]
            for y1 in range(v):
                for y2 in range(v):
                    total = judge.preference_probability(
                        record, y1, y2
                    ) + judge.preference_probability(record, y2, y1)
                    assert abs(total - 1.0) < 1e-12

    def test_monotone_in_first_reward(self, small_universe):
        judge = Judge(bt_spec(), small_universe)
        record = small_universe.prompts[3]
        rewards = [judge.proxy_reward(record, y) for y in range(record.features.shape[0])]
        order = np.argsort(rewards)
        probs = [judge.preference_probability(record, int(y), int(order[0])) for y in order]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_deterministic_kind_rejects_probability(self, small_universe):
        judge = Judge(bt_spec(kind="deterministic"), small_universe)
        with pytest.raises(ContractError, match="bradley_terry"):
            judge.preference_probability(small_universe.prompts[0], 0, 1)


class TestPrefer:
    def test_deterministic_prefers_higher_reward(self, small_universe):
        judge = Judge(bt_spec(kind="deterministic"), small_universe)
        record = small_universe.prompts[0]
        r = [judge.proxy_reward(record, y) for y in range(record.features.shape[0])]
        hi, lo = int(np.argmax(r)), int(np.argmin(r))
        assert judge.prefer(record, hi, lo) == hi
        assert judge.prefer(record, lo, hi) == hi

    def test_deterministic_tie_takes_lower_index(self, small_universe):
        judge = Judge(bt_spec(kind="deterministic"), small_universe)
        record = small_universe.prompts[0]
        tied = record.true_reward.copy()
        tied[2] = tied[1]
        swapped = type(record)(
            prompt_id=record.prompt_id,
            role=record.role,
            features=record.features.copy(),
            true_reward=tied,
        )
        swapped.features[2] = swapped.features[1]
        assert judge.prefer(swapped, 2, 1) == 1

    def test_identical_responses_rejected(self, small_universe):
        judge = Judge(bt_spec(), small_universe)
        with pytest.raises(ContractError, match="identical"):
            judge.prefer(small_universe.prompts[0], 1, 1)

    def test_out_of_range_response_rejected(self, small_universe):
        # -1 would score the last response without an error
        judge = Judge(bt_spec(), small_universe)
        record = small_universe.prompts[0]
        for y in (record.features.shape[0], -1):
            with pytest.raises(ContractError, match="out of range"):
                judge.proxy_reward(record, y)

    def test_bt_win_frequency_tracks_sigmoid(self, small_universe):
        judge = Judge(bt_spec(seed=11), small_universe)
        record = small_universe.prompts[4]
        p_expected = judge.preference_probability(record, 0, 1)
        n = 100_000
        wins = sum(judge.prefer(record, 0, 1) == 0 for _ in range(n))
        se = math.sqrt(p_expected * (1 - p_expected) / n)
        assert abs(wins / n - p_expected) <= 5 * se


class TestMakeJudge:
    def test_same_spec_same_outcomes(self, small_universe):
        record = small_universe.prompts[0]
        a = Judge(bt_spec(seed=21), small_universe)
        b = Judge(bt_spec(seed=21), small_universe)
        assert [a.prefer(record, 0, 1) for _ in range(64)] == [
            b.prefer(record, 0, 1) for _ in range(64)
        ]

    def test_label_distinguishes_streams(self, small_universe):
        record = small_universe.prompts[0]
        a = Judge(bt_spec(label="annotator", seed=21), small_universe)
        b = Judge(bt_spec(label="evaluator", seed=21), small_universe)
        outcomes_a = [a.prefer(record, 0, 1) for _ in range(128)]
        outcomes_b = [b.prefer(record, 0, 1) for _ in range(128)]
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
        for record in small_universe.probe_prompts():
            correct = record.correct_response
            for y in range(record.features.shape[0]):
                if y != correct:
                    assert judge.prefer(record, correct, y) == correct

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
