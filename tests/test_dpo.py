"""Loss, implicit reward, analytic gradient, optimizer, and schedule."""

import math

import mpmath as mp
import numpy as np
import pytest

from preflab import (
    ConfigurationError,
    ContractError,
    DpoConfig,
    OptimizerState,
    Policy,
    PreferenceTriple,
    PromptRecord,
    TrainingError,
    dpo_batch_grad,
    dpo_example_loss,
    grad_log_prob,
    implicit_reward,
    lr_at_step,
    optimizer_step,
    preference_deltas,
)
from preflab.trainer import SftConfig, sft_lr_at_step

LN2 = 0.6931471805599453


def two_response_record():
    return PromptRecord(
        prompt_id=0, role="train", features=np.eye(2), true_reward=np.zeros(2)
    )


def random_instance(gen, n_triples=1):
    d = int(gen.integers(2, 17))
    v = int(gen.integers(2, 9))
    record = PromptRecord(
        prompt_id=0,
        role="train",
        features=gen.normal(size=(v, d)),
        true_reward=np.zeros(v),
    )
    policy = Policy(gen.normal(size=d))
    ref = Policy(gen.normal(size=d))
    triples = []
    for _ in range(n_triples):
        w, l = gen.choice(v, size=2, replace=False)
        triples.append((record, PreferenceTriple(0, int(w), int(l))))
    return policy, ref, triples


def deltas(batch):
    """Winner-minus-loser features of (record, triple) pairs, as the trainer
    gathers them for dpo_batch_grad."""
    return preference_deltas(
        np.stack([record.features for record, _ in batch]),
        np.arange(len(batch)),
        [t.winner for _, t in batch],
        [t.loser for _, t in batch],
    )


class TestImplicitReward:
    def test_zero_at_reference(self, small_universe, rng):
        theta = rng.normal(size=small_universe.config.feature_dim)
        p = Policy(theta)
        ref = Policy(theta.copy())
        for record in small_universe.prompts[:4]:
            for y in range(small_universe.config.responses_per_prompt):
                assert implicit_reward(p, ref, record, y, 0.5) == 0.0

    def test_two_logit_tabular_oracle(self):
        # mpmath: beta * (log-softmax under theta minus log-softmax under 0)
        record = two_response_record()
        p = Policy(np.array([0.7, -0.1]))
        ref = Policy(np.zeros(2))
        with mp.workdps(50):
            lse = mp.log(mp.e ** mp.mpf("0.7") + mp.e ** mp.mpf("-0.1"))
            want0 = float(2 * ((mp.mpf("0.7") - lse) - mp.log(mp.mpf("0.5"))))
            want1 = float(2 * ((mp.mpf("-0.1") - lse) - mp.log(mp.mpf("0.5"))))
        assert want0 == pytest.approx(0.6440930292243352, abs=1e-15)
        assert want1 == pytest.approx(-0.9559069707756648, abs=1e-15)
        r0 = implicit_reward(p, ref, record, 0, 2.0)
        r1 = implicit_reward(p, ref, record, 1, 2.0)
        assert r0 == pytest.approx(want0, abs=1e-12)
        assert r1 == pytest.approx(want1, abs=1e-12)
        # in tabular mode the margin collapses to beta * |logit gap|
        assert abs(r0 - r1) == pytest.approx(1.6, abs=1e-12)

    def test_linear_in_beta(self, small_universe, rng):
        p = Policy(rng.normal(size=small_universe.config.feature_dim))
        ref = Policy(rng.normal(size=small_universe.config.feature_dim))
        record = small_universe.prompts[2]
        base = implicit_reward(p, ref, record, 1, 0.3)
        assert implicit_reward(p, ref, record, 1, 0.6) == pytest.approx(
            2 * base, rel=1e-12
        )


class TestExampleLoss:
    def test_ln2_at_reference(self, small_universe, rng):
        theta = rng.normal(size=small_universe.config.feature_dim)
        p, ref = Policy(theta), Policy(theta.copy())
        for record in small_universe.prompts[:6]:
            t = PreferenceTriple(record.prompt_id, 0, 1)
            assert abs(dpo_example_loss(p, ref, record, t, 0.1) - LN2) < 1e-12

    def test_softplus_oracle_h_half(self):
        # tabular V=2, beta=0.5, theta logit gap 1.0 -> h = 0.5
        record = two_response_record()
        p = Policy(np.array([1.0, 0.0]))
        ref = Policy(np.zeros(2))
        t = PreferenceTriple(0, 0, 1)
        with mp.workdps(50):
            want = float(mp.log(1 + mp.e ** mp.mpf("-0.5")))
        assert want == pytest.approx(0.4740769841801067, abs=1e-15)
        assert dpo_example_loss(p, ref, record, t, 0.5) == pytest.approx(want, abs=1e-12)

    def test_winner_swap_identity(self):
        # softplus(h) + softplus(-h) = |h| + 2 softplus(-|h|)
        record = two_response_record()
        p = Policy(np.array([1.0, 0.0]))
        ref = Policy(np.zeros(2))
        beta = 0.5
        h = implicit_reward(p, ref, record, 0, beta) - implicit_reward(
            p, ref, record, 1, beta
        )
        loss_fwd = dpo_example_loss(p, ref, record, PreferenceTriple(0, 0, 1), beta)
        loss_rev = dpo_example_loss(p, ref, record, PreferenceTriple(0, 1, 0), beta)
        assert loss_fwd + loss_rev == pytest.approx(
            abs(h) + 2 * min(loss_fwd, loss_rev), abs=1e-12
        )

    def test_positivity(self, rng):
        gen = np.random.default_rng(17)
        for _ in range(50):
            policy, ref, triples = random_instance(gen)
            record, triple = triples[0]
            assert dpo_example_loss(policy, ref, record, triple, 0.7) > 0.0

    def test_invalid_triple_rejected(self):
        record = two_response_record()
        p = Policy(np.zeros(2))
        with pytest.raises(ContractError, match="winner == loser"):
            dpo_example_loss(p, p, record, PreferenceTriple(0, 1, 1), 0.1)
        with pytest.raises(ContractError, match="out of range"):
            dpo_example_loss(p, p, record, PreferenceTriple(0, 2, 1), 0.1)


class TestBatchGradient:
    def test_symmetric_batch_gradient_vanishes(self, small_universe, rng):
        theta = rng.normal(size=small_universe.config.feature_dim)
        p, ref = Policy(theta), Policy(theta.copy())
        record = small_universe.prompts[0]
        batch = [
            (record, PreferenceTriple(0, 0, 1)),
            (record, PreferenceTriple(0, 1, 0)),
        ]
        loss, grad = dpo_batch_grad(p, ref, deltas(batch), 0.3)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)
        assert loss == pytest.approx(LN2, abs=1e-12)

    def test_single_triple_at_reference(self, small_universe, rng):
        theta = rng.normal(size=small_universe.config.feature_dim)
        p, ref = Policy(theta), Policy(theta.copy())
        record = small_universe.prompts[1]
        beta = 0.4
        _, grad = dpo_batch_grad(p, ref, deltas([(record, PreferenceTriple(1, 2, 0))]), beta)
        want = -beta / 2 * (grad_log_prob(p, record, 2) - grad_log_prob(p, record, 0))
        np.testing.assert_allclose(grad, want, atol=1e-12)

    def test_finite_difference_50_batches(self):
        gen = np.random.default_rng(23)
        step = 1e-5
        for _ in range(50):
            policy, ref, batch = random_instance(gen, n_triples=int(gen.integers(1, 5)))
            beta = float(gen.uniform(0.05, 2.0))
            dphi = deltas(batch)
            _, grad = dpo_batch_grad(policy, ref, dphi, beta)
            d = policy.feature_dim
            fd = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = step
                lp, _ = dpo_batch_grad(Policy(policy.theta + e), ref, dphi, beta)
                lm, _ = dpo_batch_grad(Policy(policy.theta - e), ref, dphi, beta)
                fd[i] = (lp - lm) / (2 * step)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom <= 1e-6

    def test_reference_invariance_under_logit_shift(self, tabular_universe):
        # adding a constant to a prompt's theta block moves winner and loser
        # logits together: h, loss, and grad are unchanged
        cfg = tabular_universe.config
        v = cfg.responses_per_prompt
        record = tabular_universe.prompts[0]
        gen = np.random.default_rng(3)
        theta = gen.normal(size=cfg.feature_dim)
        ref = Policy(gen.normal(size=cfg.feature_dim))
        shifted = theta.copy()
        shifted[0:v] += 2.5
        triple = PreferenceTriple(0, 1, 3)
        batch = [(record, triple)]
        loss_a, grad_a = dpo_batch_grad(Policy(theta), ref, deltas(batch), 0.2)
        loss_b, grad_b = dpo_batch_grad(Policy(shifted), ref, deltas(batch), 0.2)
        assert abs(loss_a - loss_b) < 1e-12
        np.testing.assert_allclose(grad_a, grad_b, atol=1e-12)

    def test_empty_batch_rejected(self):
        p = Policy(np.zeros(2))
        with pytest.raises(ContractError, match="non-empty"):
            dpo_batch_grad(p, p, [], 0.1)


class TestOptimizer:
    def test_adam_zero_gradient_is_identity(self):
        state = OptimizerState.initial(3)
        start = np.array([1.0, -2.0, 0.5])
        theta, _ = optimizer_step(state, start, np.zeros(3), 0.1)
        np.testing.assert_array_equal(theta, start)

    def test_adam_first_step_is_signed_lr(self):
        # bias correction makes the first moments g and g^2 exactly
        state = OptimizerState.initial(3)
        grad = np.array([0.3, -2.0, 5.0])
        theta, _ = optimizer_step(state, np.zeros(3), grad, 0.01)
        np.testing.assert_allclose(theta, -0.01 * grad / (np.abs(grad) + 1e-8), rtol=1e-9)

    def test_non_finite_gradient_aborts(self):
        state = OptimizerState.initial(2)
        lr = lr_at_step(DpoConfig(), state.step)
        with pytest.raises(TrainingError, match="non-finite"):
            optimizer_step(state, np.zeros(2), np.array([np.nan, 0.0]), lr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_non_finite_gradient_is_caught_by_the_parameter_check(self, bad):
        # the one check per update reads the new parameters; a bad gradient makes
        # them non-finite even at step 0, where warmup sets the learning rate to 0
        lr = lr_at_step(DpoConfig(), 0)
        assert lr == 0.0
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match="non-finite parameters at update 1"):
                optimizer_step(OptimizerState.initial(2), np.ones(2), np.array([bad, 0.0]), lr)

    def test_overflowing_parameters_abort(self):
        # Adam's first step moves each parameter by about lr: from -1e308 that is -inf
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingError, match="non-finite parameters at update 1"):
                optimizer_step(OptimizerState.initial(1), np.array([-1e308]), np.array([10.0]), 1e308)


class TestSchedule:
    CFG = DpoConfig(learning_rate=0.4, warmup_ratio=0.05, max_steps=625, updates_per_sample=4)

    def test_zero_at_step_zero(self):
        assert lr_at_step(self.CFG, 0) == 0.0

    def test_learning_rate_at_warmup_end(self):
        # 0.05 * 2500 = 125 warmup updates
        assert lr_at_step(self.CFG, 125) == 0.4

    def test_linear_interpolation_inside_warmup(self):
        assert lr_at_step(self.CFG, 62) == pytest.approx(62 / 125 * 0.4, rel=1e-15)

    def test_constant_after_warmup(self):
        assert lr_at_step(self.CFG, 2000) == 0.4

    def test_sft_schedule_decays_to_zero_by_cosine(self):
        # 0.05 * 2500 = 125 warmup updates, then a cosine over the other 2375
        cfg = SftConfig(learning_rate=0.4)
        assert sft_lr_at_step(cfg, 0, 2500) == 0.0
        assert sft_lr_at_step(cfg, 62, 2500) == pytest.approx(62 / 125 * 0.4, rel=1e-15)
        assert sft_lr_at_step(cfg, 125, 2500) == pytest.approx(0.4)
        assert sft_lr_at_step(cfg, 2500, 2500) == pytest.approx(0.0, abs=1e-15)
        assert 0.0 < sft_lr_at_step(cfg, 1300, 2500) < 0.4


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(beta=0.0), "beta"),
            (dict(learning_rate=-1.0), "learning_rate"),
            (dict(max_steps=-1), "max_steps"),
            (dict(warmup_ratio=1.0), "warmup_ratio"),
            (dict(updates_per_sample=0), "updates_per_sample"),
        ],
    )
    def test_bounds(self, overrides, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            DpoConfig(**overrides)
