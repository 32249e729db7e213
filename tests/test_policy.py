"""Softmax policy: log-probs, sampling, gradients, entropy.

Scalar expectations are recomputed with mpmath at 50 digits; gradient checks
use central finite differences with step 1e-5.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from preflab import (
    ContractError,
    OpCounters,
    Policy,
    TrainConfig,
    UniverseConfig,
    exact_entropy,
    generate_universe,
    grad_log_prob,
    log_prob,
    log_prob_vector,
    logits,
    response_probabilities,
    sample_response,
)
from preflab import harness
from preflab.policy import check_indices
from preflab.trainer import METRICS, RunResult


TWO_LOGIT_FEATURES = np.eye(2)
TWO_LOGIT_POLICY = Policy(np.array([0.7, -0.1]))


def mp_log_softmax(values, index):
    with mp.workdps(50):
        exps = [mp.e ** mp.mpf(v) for v in values]
        return float(mp.mpf(values[index]) - mp.log(mp.fsum(exps)))


class TestLogits:
    def test_zero_theta_gives_zero_logits(self, small_universe):
        p = Policy(np.zeros(small_universe.config.feature_dim))
        np.testing.assert_array_equal(logits(p, small_universe.features[0]), 0.0)

    def test_one_hot_features_select_coordinates(self):
        np.testing.assert_array_equal(
            logits(TWO_LOGIT_POLICY, TWO_LOGIT_FEATURES), [0.7, -0.1]
        )

    def test_matches_high_precision_dot_product(self, rng):
        features = rng.normal(size=(5, 7))
        theta = rng.normal(size=7)
        got = logits(Policy(theta), features)
        with mp.workdps(50):
            for y in range(5):
                want = mp.fsum(mp.mpf(a) * mp.mpf(b) for a, b in zip(theta, features[y]))
                assert abs(got[y] - float(want)) < 1e-12

    def test_dimension_mismatch_rejected(self, small_universe):
        with pytest.raises(ContractError, match="dim"):
            logits(Policy(np.zeros(3)), small_universe.features[0])


class TestLogProb:
    def test_uniform_is_minus_log_v(self):
        features = np.eye(4)
        p = Policy(np.zeros(4))
        for y in range(4):
            assert log_prob(p, features, y) == pytest.approx(-math.log(4), abs=1e-15)

    def test_two_logit_oracle_value(self):
        # mpmath oracle: 0.7 - log(e^0.7 + e^-0.1)
        want = mp_log_softmax([0.7, -0.1], 0)
        assert want == pytest.approx(-0.3711006659477777, abs=1e-15)
        assert log_prob(TWO_LOGIT_POLICY, TWO_LOGIT_FEATURES, 0) == pytest.approx(
            want, abs=1e-12
        )

    def test_normalization_to_1e12(self, small_universe, rng):
        for features in small_universe.features:
            p = Policy(rng.normal(scale=3.0, size=small_universe.config.feature_dim))
            total = np.sum(np.exp(log_prob_vector(p, features)))
            assert abs(total - 1.0) < 1e-12

    def test_out_of_range_response_rejected(self):
        # -1 would index the last response without an error
        for fn in (log_prob, grad_log_prob):
            for y in (2, -1):
                with pytest.raises(ContractError, match="out of range"):
                    fn(TWO_LOGIT_POLICY, TWO_LOGIT_FEATURES, y)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    values=hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
        elements=st.integers(-3, 8),
    ),
    bound=st.integers(0, 6),
)
@example(values=np.zeros((0, 3), dtype=np.int64), bound=0)
def test_check_indices_raises_exactly_outside_the_bound(values, bound):
    if ((values < 0) | (values >= bound)).any():
        with pytest.raises(ContractError, match=f"idx out of range for {bound}"):
            check_indices(values, bound, "idx")
    else:
        check_indices(values, bound, "idx")


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data(), shape=hnp.array_shapes(min_dims=3, max_dims=4, min_side=1, max_side=6))
def test_stacked_calls_equal_per_prompt_calls_bit_for_bit(data, shape):
    # a (..., V, d) stack gives each prompt exactly the bytes of its own (V, d) call
    elements = st.floats(-40.0, 40.0, allow_subnormal=False)
    features = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    policy = Policy(data.draw(hnp.arrays(np.float64, shape[-1], elements=elements)))
    for fn in (logits, log_prob_vector, exact_entropy):
        stacked = fn(policy, features)
        for prompt in np.ndindex(shape[:-2]):
            assert stacked[prompt].tobytes() == fn(policy, features[prompt]).tobytes()


class TestSampling:
    def test_point_mass_always_sampled(self, rng):
        features = np.eye(3)
        p = Policy(np.array([0.0, 1e6, 0.0]))
        assert all(sample_response(p, features, rng) == 1 for _ in range(50))

    def test_uniform_frequencies_within_5_se(self):
        features = np.eye(4)
        p = Policy(np.zeros(4))
        rng = np.random.default_rng(99)
        n = 100_000
        counts = np.bincount([sample_response(p, features, rng) for _ in range(n)], minlength=4)
        se = math.sqrt(0.25 * 0.75 / n)
        np.testing.assert_allclose(counts / n, 0.25, atol=5 * se)

    def test_fixed_seed_reproduces_sequence(self, small_universe):
        p = Policy(np.linspace(-1, 1, small_universe.config.feature_dim))
        features = small_universe.features[0]
        rng1, rng2 = np.random.default_rng(12), np.random.default_rng(12)
        a = [sample_response(p, features, rng1) for _ in range(20)]
        b = [sample_response(p, features, rng2) for _ in range(20)]
        assert a == b


class TestGradient:
    def test_uniform_two_response_gradient(self):
        features = np.eye(2)
        p = Policy(np.zeros(2))
        np.testing.assert_allclose(grad_log_prob(p, features, 0), [0.5, -0.5], atol=1e-15)

    def test_point_mass_gradient_vanishes(self):
        features = np.eye(3)
        p = Policy(np.array([200.0, 0.0, 0.0]))
        np.testing.assert_allclose(grad_log_prob(p, features, 0), 0.0, atol=1e-12)

    def test_finite_difference_agreement_100_instances(self):
        gen = np.random.default_rng(31)
        step = 1e-5
        for _ in range(100):
            d = int(gen.integers(2, 17))
            v = int(gen.integers(2, 9))
            features = gen.normal(size=(v, d))
            theta = gen.normal(size=d)
            y = int(gen.integers(v))
            analytic = grad_log_prob(Policy(theta), features, y)
            fd = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = step
                fd[i] = (
                    log_prob(Policy(theta + e), features, y)
                    - log_prob(Policy(theta - e), features, y)
                ) / (2 * step)
            # floor guards saturated instances whose gradient norm is below
            # the finite-difference noise floor
            denom = max(np.linalg.norm(fd), 1e-3)
            assert np.linalg.norm(analytic - fd) / denom <= 1e-6

    def test_expected_gradient_is_zero(self, small_universe, rng):
        # sum_y pi(y|x) grad_log_prob(y) = 0
        p = Policy(rng.normal(size=small_universe.config.feature_dim))
        for features in small_universe.features[:6]:
            probs = response_probabilities(p, features)
            total = sum(
                probs[y] * grad_log_prob(p, features, y)
                for y in range(features.shape[0])
            )
            np.testing.assert_allclose(total, 0.0, atol=1e-9)


class TestEntropy:
    def test_uniform_entropy_is_log_v(self):
        features = np.eye(4)
        assert exact_entropy(Policy(np.zeros(4)), features) == pytest.approx(
            math.log(4), abs=1e-15
        )

    def test_point_mass_entropy_is_zero(self):
        features = np.eye(3)
        assert exact_entropy(Policy(np.array([500.0, 0.0, 0.0])), features) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_logit_oracle_value(self):
        with mp.workdps(50):
            z = [mp.mpf("0.7"), mp.mpf("-0.1")]
            total = mp.fsum(mp.e**v for v in z)
            probs = [mp.e**v / total for v in z]
            want = float(-mp.fsum(p * mp.log(p) for p in probs))
        assert want == pytest.approx(0.6191210810456878, abs=1e-15)
        assert exact_entropy(TWO_LOGIT_POLICY, TWO_LOGIT_FEATURES) == pytest.approx(
            want, abs=1e-12
        )

    def test_range(self, small_universe, rng):
        v = small_universe.config.responses_per_prompt
        for features in small_universe.features[:8]:
            p = Policy(rng.normal(scale=5.0, size=small_universe.config.feature_dim))
            h = exact_entropy(p, features)
            assert -1e-12 <= h <= math.log(v) + 1e-12


class TestShiftInvariance:
    def test_uniform_logit_shift_changes_nothing(self, tabular_universe):
        # shifting one prompt's theta block shifts all its logits by the same
        # constant; distribution, entropy, and samples must be unchanged
        cfg = tabular_universe.config
        v = cfg.responses_per_prompt
        features = tabular_universe.features[1]
        gen = np.random.default_rng(8)
        theta = gen.normal(size=cfg.feature_dim)
        shifted = theta.copy()
        shifted[1 * v : 2 * v] += 3.7
        a, b = Policy(theta), Policy(shifted)
        np.testing.assert_allclose(
            log_prob_vector(a, features), log_prob_vector(b, features), atol=1e-12
        )
        assert abs(exact_entropy(a, features) - exact_entropy(b, features)) < 1e-12
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        assert [sample_response(a, features, rng1) for _ in range(30)] == [
            sample_response(b, features, rng2) for _ in range(30)
        ]


class TestPolicyValue:
    def test_non_finite_theta_rejected(self):
        with pytest.raises(ContractError, match="finite"):
            Policy(np.array([1.0, np.nan]))

    def test_checkpoint_roundtrip(self, tmp_path):
        # a run's run.npz keeps both thetas bit for bit, read back without pickle
        sft = Policy(np.array([0.25, -1.5, 3.0]))
        final = Policy(np.array([5e-324, -0.0, 1.0 / 3.0]))
        result = RunResult(
            final_policy=final, sft_policy=sft, counters=OpCounters(), abort_reason=None,
            metrics=np.zeros(0, METRICS), prompt_ids=np.zeros((0, 1), np.uint8),
            candidates=np.zeros((0, 1, 2), np.uint8), selections=np.zeros((0, 4), np.uint8),
            scores=None,
        )
        harness._write_run_outputs(tmp_path, result, TrainConfig(), None, {})
        with np.load(tmp_path / "run.npz", allow_pickle=False) as run:
            assert sorted(run.files) == ["final_theta", "sft_theta"]
            for name, policy in (("sft_theta", sft), ("final_theta", final)):
                assert run[name].dtype.str == "<f8"
                assert run[name].tobytes() == policy.theta.tobytes()
