"""Win-rate protocol, probe accuracy, capability delta, collapse flags."""

import math

import numpy as np
import pytest

from preflab import (
    ContractError,
    Judge,
    JudgeSpec,
    Policy,
    capability_delta,
    collapse_metrics,
    estimate_win_rate,
    exact_entropy,
    probe_accuracy,
)


class SlotBiasedJudge:
    """Mock evaluator that always prefers whatever sits in slot one."""

    label = "slot-biased"

    def prefer_batch(self, prompt_ids, y1, y2):
        return y1


def eval_ids(universe):
    return universe.role_ids("eval")


def point_mass_policy(universe, prompt_id, response, scale=1e6):
    # a huge multiple of one response's features pins the sampler to it
    theta = scale * universe.features[prompt_id, response]
    return Policy(theta)


class TestWinRate:
    def test_self_play_close_to_half(self, small_universe, rng):
        policy = Policy(rng.normal(size=small_universe.config.feature_dim))
        evaluator = Judge(JudgeSpec(label="eval", seed=3), small_universe)
        n = 4000
        est = estimate_win_rate(
            policy, policy, evaluator, small_universe.features, eval_ids(small_universe), n, rng
        )
        sigma = math.sqrt(0.25 / n)
        assert abs(est.rate - 0.5) <= 3 * sigma

    def test_slot_bias_cancelled_by_randomization(self, small_universe, rng):
        policy = Policy(rng.normal(size=small_universe.config.feature_dim))
        n = 4000
        est = estimate_win_rate(
            policy,
            policy,
            SlotBiasedJudge(),
            small_universe.features,
            eval_ids(small_universe),
            n,
            rng,
        )
        sigma = math.sqrt(0.25 / n)
        assert abs(est.rate - 0.5) <= 3 * sigma

    def test_deterministic_faithful_evaluator_perfect_split(self, small_universe, rng):
        prompt_id = int(eval_ids(small_universe)[0])
        best = int(np.argmax(small_universe.true_reward[prompt_id]))
        worst = int(np.argmin(small_universe.true_reward[prompt_id]))
        p = point_mass_policy(small_universe, prompt_id, best)
        ref = point_mass_policy(small_universe, prompt_id, worst)
        evaluator = Judge(
            JudgeSpec(label="oracle", kind="deterministic", misalignment=0.0),
            small_universe,
        )
        ids = np.array([prompt_id])
        est = estimate_win_rate(p, ref, evaluator, small_universe.features, ids, 500, rng)
        assert est.rate == 1.0

    def test_bt_evaluator_rate_tracks_sigmoid(self, small_universe):
        prompt_id = int(eval_ids(small_universe)[1])
        order = np.argsort(small_universe.true_reward[prompt_id])
        hi, lo = int(order[-1]), int(order[0])
        p = point_mass_policy(small_universe, prompt_id, hi)
        ref = point_mass_policy(small_universe, prompt_id, lo)
        evaluator = Judge(JudgeSpec(label="bt", seed=6), small_universe)
        expected = evaluator.preference_probability(prompt_id, hi, lo)
        n = 20_000
        ids = np.array([prompt_id])
        est = estimate_win_rate(
            p, ref, evaluator, small_universe.features, ids, n, np.random.default_rng(2)
        )
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(est.rate - expected) <= 5 * se

    def test_ci_clipped_to_unit_interval(self, small_universe, rng):
        prompt_id = int(eval_ids(small_universe)[0])
        best = int(np.argmax(small_universe.true_reward[prompt_id]))
        p = point_mass_policy(small_universe, prompt_id, best)
        evaluator = Judge(JudgeSpec(label="eval", seed=1), small_universe)
        ids = np.array([prompt_id])
        est = estimate_win_rate(p, p, evaluator, small_universe.features, ids, 50, rng)
        assert 0.0 <= est.ci_low <= est.ci_high <= 1.0

    def test_requires_trials_and_prompts(self, small_universe, rng):
        p = Policy(np.zeros(small_universe.config.feature_dim))
        evaluator = Judge(JudgeSpec(label="eval"), small_universe)
        features, ids = small_universe.features, eval_ids(small_universe)
        with pytest.raises(ContractError):
            estimate_win_rate(p, p, evaluator, features, ids, 0, rng)
        with pytest.raises(ContractError):
            estimate_win_rate(p, p, evaluator, features, ids[:0], 10, rng)


class TestProbeAccuracy:
    def test_probe_direction_policy_is_perfect(self, small_universe):
        p = Policy(50.0 * small_universe.probe_direction)
        assert probe_accuracy(p, small_universe) == 1.0

    def test_zero_theta_tabular_counts_index_zero(self, tabular_universe):
        p = Policy(np.zeros(tabular_universe.config.feature_dim))
        probes = tabular_universe.role_ids("probe")
        expected = np.mean(tabular_universe.correct_response[probes] == 0)
        assert probe_accuracy(p, tabular_universe) == expected

    def test_invariant_under_positive_rescaling(self, small_universe, rng):
        theta = rng.normal(size=small_universe.config.feature_dim)
        a = probe_accuracy(Policy(theta), small_universe)
        b = probe_accuracy(Policy(7.5 * theta), small_universe)
        assert a == b


class TestCapabilityDelta:
    def test_zero_against_self(self, small_universe, rng):
        p = Policy(rng.normal(size=small_universe.config.feature_dim))
        assert capability_delta(p, p, small_universe) == 0.0

    def test_percentage_point_arithmetic(self, small_universe):
        aligned = Policy(50.0 * small_universe.probe_direction)
        misaligned = Policy(-50.0 * small_universe.probe_direction)
        delta = capability_delta(misaligned, aligned, small_universe)
        acc_hi = probe_accuracy(aligned, small_universe)
        acc_lo = probe_accuracy(misaligned, small_universe)
        assert delta == pytest.approx(100.0 * (acc_lo - acc_hi))

    def test_antisymmetric(self, small_universe, rng):
        a = Policy(rng.normal(size=small_universe.config.feature_dim))
        b = Policy(rng.normal(size=small_universe.config.feature_dim))
        assert capability_delta(a, b, small_universe) == pytest.approx(
            -capability_delta(b, a, small_universe)
        )


class TestCollapseMetrics:
    def test_self_comparison_never_flags(self, small_universe, rng):
        p = Policy(rng.normal(size=small_universe.config.feature_dim))
        _, flag = collapse_metrics(
            p, p, small_universe.features, eval_ids(small_universe), 0.1
        )
        assert flag is False

    def test_point_mass_policy_flags(self, small_universe):
        diffuse = Policy(np.zeros(small_universe.config.feature_dim))
        sharp = point_mass_policy(small_universe, eval_ids(small_universe)[0], 0)
        mean_entropy, flag = collapse_metrics(
            sharp, diffuse, small_universe.features, eval_ids(small_universe), 0.1
        )
        assert flag is True
        assert mean_entropy < 0.2

    def test_threshold_arithmetic(self, small_universe, rng):
        diffuse = Policy(np.zeros(small_universe.config.feature_dim))
        p = Policy(rng.normal(size=small_universe.config.feature_dim))
        mean_entropy, flag = collapse_metrics(
            p, diffuse, small_universe.features, eval_ids(small_universe), 0.1
        )
        sft_entropy = np.mean(
            [exact_entropy(diffuse, small_universe.features[i]) for i in eval_ids(small_universe)]
        )
        assert flag == (mean_entropy < 0.1 * sft_entropy)

    def test_stacked_mean_matches_per_record_entropy(self, small_universe):
        per_prompt = small_universe.features[eval_ids(small_universe)]
        gen = np.random.default_rng(3)
        for scale in (0.0, 0.1, 1.0, 30.0, 1e6):
            p = Policy(scale * gen.normal(size=small_universe.config.feature_dim))
            mean_entropy, _ = collapse_metrics(
                p, p, small_universe.features, eval_ids(small_universe), 0.1
            )
            expected = np.mean([exact_entropy(p, rows) for rows in per_prompt])
            assert mean_entropy == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_fraction_bounds(self, small_universe, rng):
        p = Policy(np.zeros(small_universe.config.feature_dim))
        with pytest.raises(ContractError, match="collapse_fraction"):
            collapse_metrics(p, p, small_universe.features, eval_ids(small_universe), 1.0)
