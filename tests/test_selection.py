"""Candidate pools, pair formation, both selectors, and op accounting."""

import math

import numpy as np
import pytest

from preflab import (
    ConfigurationError,
    ContractError,
    OpCounters,
    Policy,
    PromptRecord,
    SelectionConfig,
    counters_report,
    entropy_estimate,
    exact_entropy,
    form_pairs,
    generate_candidates,
    log_prob_vector,
    sample_response,
    select_apl,
    select_random,
)


def eye_record(prompt_id, v):
    return PromptRecord(
        prompt_id=prompt_id, role="train", features=np.eye(v), true_reward=np.zeros(v)
    )


def stacked(records):
    """The (n, V, d) feature array and prompt ids of records numbered 0..n-1."""
    return np.stack([r.features for r in records]), np.array([r.prompt_id for r in records])


def generate(policy, records, cfg, rng, counters=None):
    features, ids = stacked(records)
    return generate_candidates(policy, features, ids, cfg, rng, counters or OpCounters())


def selected_pairs(pairs, picked, prompt_ids):
    """Selected indices as (prompt_id, (y1, y2)) tuples."""
    return [(int(prompt_ids[r]), (int(a), int(b))) for r, a, b in pairs[picked]]


def apl(policy, ref, records, candidates, log_probs, cfg, counters=None, beta=0.1):
    """Form pairs and run select_apl; returns (prompt_id, pair) tuples and margins."""
    features, ids = stacked(records)
    pairs, _ = form_pairs(np.asarray(candidates))
    picked, margins = select_apl(
        policy, ref, features, ids, entropy_estimate(np.asarray(log_probs, dtype=float)),
        pairs, cfg, beta, counters or OpCounters(),
    )
    return selected_pairs(pairs, picked, ids), margins


class TestSelectionConfig:
    def test_valid(self):
        SelectionConfig(4, 4, 2, 8)

    @pytest.mark.parametrize(
        "args,fragment",
        [
            ((4, 1, 2, 4), "candidates_per_prompt"),
            ((4, 4, 5, 4), "apl_top_prompts"),
            ((4, 4, 2, 0), "label_budget"),
            ((4, 4, 4, 25), "random-selection capacity"),
            ((8, 4, 1, 7), "uncertainty-selection capacity"),
        ],
    )
    def test_bounds(self, args, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            SelectionConfig(*args)


class TestGenerateCandidates:
    def test_point_mass_policy_repeats_one_response(self):
        record = eye_record(0, 4)
        policy = Policy(np.array([0.0, 0.0, 1e9, 0.0]))
        rng = np.random.default_rng(1)
        candidates, _ = generate(policy, [record], SelectionConfig(1, 4, 1, 1), rng)
        assert candidates.tolist() == [[2, 2, 2, 2]]

    def test_matches_sample_response_stream(self, small_universe, rng):
        # batched inverse-CDF draws consume the uniform stream exactly like
        # repeated single-sample calls
        policy = Policy(rng.normal(size=small_universe.config.feature_dim))
        records = small_universe.train_prompts()[:3]
        cfg = SelectionConfig(3, 4, 2, 3)
        got, _ = generate(policy, records, cfg, np.random.default_rng(42))
        replay_rng = np.random.default_rng(42)
        for record, row in zip(records, got.tolist()):
            singles = [sample_response(policy, record, replay_rng) for _ in range(4)]
            assert row == singles

    def test_log_probs_recorded_at_generation(self, small_universe, rng):
        policy = Policy(rng.normal(size=small_universe.config.feature_dim))
        records = small_universe.train_prompts()[:2]
        candidates, log_probs = generate(
            policy, records, SelectionConfig(2, 4, 1, 2), np.random.default_rng(0)
        )
        for record, row, row_lp in zip(records, candidates, log_probs):
            lp = log_prob_vector(policy, record)
            np.testing.assert_allclose(row_lp, lp[row], atol=0)

    def test_sample_counter_arithmetic(self, small_universe, rng):
        policy = Policy(np.zeros(small_universe.config.feature_dim))
        counters = OpCounters()
        generate(
            policy,
            small_universe.train_prompts()[:4],
            SelectionConfig(4, 4, 2, 4),
            np.random.default_rng(0),
            counters,
        )
        assert counters.generated_samples == 16
        assert counters.policy_logprob_evals == 0


class TestFormPairs:
    def test_four_distinct_values_give_six_pairs(self):
        pairs, degenerate = form_pairs(np.array([[0, 1, 2, 3]]))
        assert len(pairs) == 6 and not degenerate.any()

    def test_identical_candidates_give_empty_pool(self):
        pairs, degenerate = form_pairs(np.array([[2, 2, 2, 2]]))
        assert pairs.shape == (0, 3) and degenerate.tolist() == [True]

    def test_value_deduplication(self):
        pairs, _ = form_pairs(np.array([[0, 0, 1, 1]]))
        assert pairs.tolist() == [[0, 0, 1]]


class TestEntropyEstimate:
    def test_uniform_policy_is_exactly_log_v(self):
        record = eye_record(0, 4)
        policy = Policy(np.zeros(4))
        _, log_probs = generate(
            policy, [record], SelectionConfig(1, 4, 1, 1), np.random.default_rng(0)
        )
        assert entropy_estimate(log_probs)[0] == math.log(4)

    def test_point_mass_is_zero(self):
        record = eye_record(0, 3)
        policy = Policy(np.array([1e9, 0.0, 0.0]))
        _, log_probs = generate(
            policy, [record], SelectionConfig(1, 4, 1, 1), np.random.default_rng(0)
        )
        assert entropy_estimate(log_probs)[0] == pytest.approx(0.0, abs=1e-12)

    def test_estimator_mean_tracks_exact_entropy(self):
        # Monte-Carlo calibration against the closed form, 10k resamples
        record = eye_record(0, 2)
        policy = Policy(np.array([0.8, 0.0]))
        exact = exact_entropy(policy, record)
        lp = log_prob_vector(policy, record)
        p = np.exp(lp)
        rng = np.random.default_rng(7)
        resamples = 10_000
        m = 4
        idx = (rng.random((resamples, m))[..., None] > np.cumsum(p)[:-1]).sum(-1)
        estimates = entropy_estimate(lp[idx])
        var_single = float(np.sum(p * lp**2) - exact**2)
        se = math.sqrt(var_single / (m * resamples))
        assert abs(estimates.mean() - exact) <= 3 * se

    def test_missing_log_probs_rejected(self):
        with pytest.raises(ContractError, match="log-probs"):
            entropy_estimate(np.zeros((1, 0)))


def margins_of(policy, ref, record, pairs, beta, counters=None):
    """select_apl's margins for the given (y1, y2) pairs of one prompt."""
    rows = np.array([[0, y1, y2] for y1, y2 in pairs])
    cfg = SelectionConfig(1, record.features.shape[0], 1, len(pairs))
    picked, margins = select_apl(
        policy, ref, record.features[None], np.zeros(1, dtype=int), np.zeros(1), rows, cfg,
        beta, counters or OpCounters(),
    )
    return dict(zip(map(tuple, rows[picked, 1:].tolist()), margins.tolist()))


class TestMarginScore:
    def test_zero_at_reference(self, small_universe, rng):
        theta = rng.normal(size=small_universe.config.feature_dim)
        p, ref = Policy(theta), Policy(theta.copy())
        counters = OpCounters()
        record = small_universe.prompts[0]
        assert margins_of(p, ref, record, [(0, 1)], 0.5, counters) == {(0, 1): 0.0}
        assert counters.policy_logprob_evals == 2
        assert counters.ref_logprob_evals == 2

    def test_tabular_two_logit_oracle(self):
        record = eye_record(0, 2)
        p = Policy(np.array([0.7, -0.1]))
        ref = Policy(np.zeros(2))
        got = margins_of(p, ref, record, [(0, 1)], 2.0)[(0, 1)]
        assert got == pytest.approx(1.6, abs=1e-12)

    def test_symmetric_under_order_swap(self, small_universe, rng):
        p = Policy(rng.normal(size=small_universe.config.feature_dim))
        ref = Policy(rng.normal(size=small_universe.config.feature_dim))
        record = small_universe.prompts[1]
        got = margins_of(p, ref, record, [(0, 2), (2, 0)], 0.3)
        assert got[(0, 2)] == got[(2, 0)]


ALL_PAIRS_OF_4 = np.array([[0, a, b] for a in range(4) for b in range(a + 1, 4)])


class TestSelectRandom:
    def test_union_exactly_budget_returns_all(self):
        pairs = np.array([[0, 0, 1], [0, 0, 2], [1, 1, 3]])
        got = selected_pairs(pairs, select_random(pairs, 3, np.random.default_rng(0)), [0, 1])
        assert sorted(got) == [(0, (0, 1)), (0, (0, 2)), (1, (1, 3))]

    def test_shortfall_returns_everything(self):
        pairs = np.array([[0, 0, 1]])
        picked = select_random(pairs, 5, np.random.default_rng(0))
        assert selected_pairs(pairs, picked, [0]) == [(0, (0, 1))]

    def test_fixed_seed_deterministic(self):
        a = select_random(ALL_PAIRS_OF_4, 3, np.random.default_rng(9))
        b = select_random(ALL_PAIRS_OF_4, 3, np.random.default_rng(9))
        assert a.tolist() == b.tolist()

    def test_uniform_inclusion_frequency(self):
        rng = np.random.default_rng(123)
        reps = 10_000
        counts = np.zeros(len(ALL_PAIRS_OF_4))
        for _ in range(reps):
            counts[select_random(ALL_PAIRS_OF_4, 3, rng)] += 1
        # hypergeometric inclusion probability L/n = 1/2
        se = math.sqrt(0.5 * 0.5 / reps)
        for count in counts:
            assert abs(count / reps - 0.5) <= 5 * se


def apl_fixture(v=8, d=6, seed=0):
    gen = np.random.default_rng(seed)
    records = [
        PromptRecord(
            prompt_id=i, role="train", features=gen.normal(size=(v, d)), true_reward=np.zeros(v)
        )
        for i in range(4)
    ]
    policy = Policy(gen.normal(size=d))
    ref = Policy(gen.normal(size=d))
    return policy, ref, records


class TestSelectApl:
    def test_stage_one_keeps_top_entropy_prompts(self):
        policy, ref, records = apl_fixture(v=2, d=6)
        cfg = SelectionConfig(3, 2, 2, 1)
        got, _ = apl(
            policy, ref, records[:3], [[0, 1]] * 3,
            [[-0.1, -0.1], [-1.4, -1.4], [-0.9, -0.9]], cfg,
        )
        kept = {prompt_id for prompt_id, _ in got}
        assert kept <= {1, 2}

    def test_reference_policy_falls_back_to_tie_order(self):
        policy, ref, records = apl_fixture()
        ref = Policy(policy.theta.copy())
        cfg = SelectionConfig(4, 4, 2, 5)
        got, _ = apl(policy, ref, records, [[0, 1, 2, 3]] * 4, [[-1.0] * 4] * 4, cfg)
        # all margins zero: first L pairs in (prompt_id, pair) order
        assert got == [(0, (0, 1)), (0, (0, 2)), (0, (0, 3)), (0, (1, 2)), (0, (1, 3))]

    def test_counting_oracle_b4_m4_n2(self):
        policy, ref, records = apl_fixture()
        counters = OpCounters()
        cfg = SelectionConfig(4, 4, 2, 12)
        log_probs = [[-0.5 - 0.1 * r.prompt_id] * 4 for r in records]
        apl(policy, ref, records, [[0, 1, 2, 3]] * 4, log_probs, cfg, counters)
        # 2 kept prompts x C(4,2) pairs x (2 policy + 2 ref) evals
        assert counters.policy_logprob_evals == 24
        assert counters.ref_logprob_evals == 24

    def test_deterministic_without_rng(self):
        policy, ref, records = apl_fixture(seed=5)
        cfg = SelectionConfig(4, 4, 2, 6)
        candidates, log_probs = generate(policy, records, cfg, np.random.default_rng(4))
        a, _ = apl(policy, ref, records, candidates, log_probs, cfg)
        b, _ = apl(policy, ref, records, candidates, log_probs, cfg)
        assert a == b and len(a) <= 6

    def test_degenerate_prompts_drop_out(self):
        policy, ref, records = apl_fixture()
        candidates = [[1, 1, 1, 1], [0, 1, 0, 1], [2, 3, 2, 3], [0, 0, 0, 0]]
        # prompt 0 has the highest entropy but no pairs
        log_probs = [[-9.0] * 4, [-0.2] * 4, [-0.1] * 4, [-8.0] * 4]
        cfg = SelectionConfig(4, 4, 2, 2)
        got, _ = apl(policy, ref, records, candidates, log_probs, cfg)
        assert {prompt_id for prompt_id, _ in got} <= {1, 2}

    def test_no_selected_pair_has_equal_responses(self):
        policy, ref, records = apl_fixture(seed=9)
        cfg = SelectionConfig(4, 4, 4, 8)
        candidates, log_probs = generate(policy, records, cfg, np.random.default_rng(11))
        got, _ = apl(policy, ref, records, candidates, log_probs, cfg)
        for _, (y1, y2) in got:
            assert y1 != y2

    def test_entropy_ranking_shift_invariant(self, tabular_universe):
        # uniform logit shift leaves the recorded log-probs, and hence the
        # stage-1 ranking, unchanged
        cfg_u = tabular_universe.config
        v = cfg_u.responses_per_prompt
        records = tabular_universe.train_prompts()
        gen = np.random.default_rng(2)
        theta = gen.normal(size=cfg_u.feature_dim)
        shifted = theta.copy()
        shifted[0:v] += 5.0
        sel = SelectionConfig(len(records), 4, 2, 3)
        ca, lpa = generate(Policy(theta), records, sel, np.random.default_rng(6))
        cb, lpb = generate(Policy(shifted), records, sel, np.random.default_rng(6))
        assert ca.tolist() == cb.tolist()
        np.testing.assert_allclose(entropy_estimate(lpa), entropy_estimate(lpb), atol=1e-12)


class TestCountersReport:
    def test_identical_counters_all_zero(self):
        c = OpCounters(10, 10, 5, 20)
        report = counters_report(c, OpCounters(10, 10, 5, 20))
        assert report["extra_scoring_evals"] == 0
        assert report["judge_queries_delta"] == 0

    def test_apl_vs_random_scenario(self):
        random_c = OpCounters(0, 0, 12, 16)
        apl_c = OpCounters(24, 24, 12, 16)
        report = counters_report(apl_c, random_c)
        assert report["extra_scoring_evals"] == 48
        assert report["judge_queries_delta"] == 0
        assert report["generated_samples_delta"] == 0
