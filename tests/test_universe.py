"""Universe generation: determinism, geometry, probe construction, validation."""

import dataclasses

import mpmath as mp
import numpy as np
import pytest

from preflab import (
    ConfigurationError,
    PromptUniverse,
    UniverseConfig,
    generate_universe,
    make_tabular_features,
    validate_universe,
)


def _cfg(**overrides):
    base = dict(
        num_train_prompts=10,
        num_eval_prompts=5,
        num_probe_prompts=5,
        responses_per_prompt=4,
        feature_dim=8,
        misalignment_rho=0.3,
        seed=7,
    )
    base.update(overrides)
    return UniverseConfig(**base)


class TestGeneration:
    def test_same_seed_identical(self):
        a = generate_universe(_cfg(seed=7))
        b = generate_universe(_cfg(seed=7))
        np.testing.assert_array_equal(a.probe_direction, b.probe_direction)
        np.testing.assert_array_equal(a.proxy_bias_direction, b.proxy_bias_direction)
        for pa, pb in zip(a.prompts, b.prompts):
            assert pa.role == pb.role and pa.correct_response == pb.correct_response
            np.testing.assert_array_equal(pa.features, pb.features)
            np.testing.assert_array_equal(pa.true_reward, pb.true_reward)

    def test_rho_one_gives_equal_directions(self):
        u = generate_universe(_cfg(misalignment_rho=1.0))
        np.testing.assert_allclose(
            u.proxy_bias_direction, u.probe_direction, atol=1e-9
        )

    def test_rho_exact_dot_product(self):
        # high-precision recomputation of the cosine after Gram-Schmidt
        u = generate_universe(_cfg(misalignment_rho=0.3, feature_dim=8))
        with mp.workdps(50):
            dot = mp.fsum(
                mp.mpf(float(a)) * mp.mpf(float(b))
                for a, b in zip(u.proxy_bias_direction, u.probe_direction)
            )
            assert abs(dot - mp.mpf("0.3")) < 1e-6

    def test_empirical_cosine_over_100_configs(self):
        gen = np.random.default_rng(5)
        for _ in range(100):
            rho = float(gen.uniform(-1, 1))
            cfg = _cfg(misalignment_rho=rho, seed=int(gen.integers(1 << 62)))
            u = generate_universe(cfg)
            cosine = float(u.proxy_bias_direction @ u.probe_direction)
            assert abs(cosine - rho) <= 1e-6
            assert abs(np.linalg.norm(u.proxy_bias_direction) - 1.0) <= 1e-9
            assert abs(np.linalg.norm(u.probe_direction) - 1.0) <= 1e-9

    def test_probe_correct_response_is_unique_argmax(self):
        u = generate_universe(_cfg(num_probe_prompts=20))
        for record in u.probe_prompts():
            top = int(np.argmax(record.true_reward))
            assert top == record.correct_response
            assert np.count_nonzero(record.true_reward == record.true_reward[top]) == 1

    def test_probe_argmax_aligns_with_direction_score(self):
        # by construction the noisy reward argmax matches the clean u-score
        # argmax, so a policy pointing along u answers every probe correctly
        u = generate_universe(_cfg(num_probe_prompts=20))
        for record in u.probe_prompts():
            clean = record.features @ u.probe_direction
            assert int(np.argmax(clean)) == record.correct_response

    def test_roles_partition_in_order(self):
        u = generate_universe(_cfg())
        roles = [p.role for p in u.prompts]
        assert roles == ["train"] * 10 + ["eval"] * 5 + ["probe"] * 5
        assert [p.prompt_id for p in u.prompts] == list(range(20))

    def test_train_prompts_carry_no_correct_response(self):
        u = generate_universe(_cfg())
        assert all(p.correct_response is None for p in u.train_prompts())
        assert all(p.correct_response is None for p in u.eval_prompts())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(responses_per_prompt=1), "responses_per_prompt"),
            (dict(feature_dim=0), "feature_dim"),
            (dict(num_train_prompts=0), "num_train_prompts"),
            (dict(misalignment_rho=1.5), "misalignment_rho"),
            (dict(feature_scale=0.0), "feature_scale"),
            (dict(true_reward_scale=-1.0), "true_reward_scale"),
        ],
    )
    def test_bounds_are_named(self, overrides, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            generate_universe(_cfg(**overrides))

    def test_tabular_mode_forces_feature_dim(self):
        with pytest.raises(ConfigurationError, match="tabular_mode"):
            generate_universe(_cfg(tabular_mode=True, feature_dim=8))
        cfg = _cfg(tabular_mode=True, feature_dim=20 * 4)
        u = generate_universe(cfg)
        assert validate_universe(u) == []

    def test_fractional_rho_needs_two_dimensions(self):
        with pytest.raises(ConfigurationError, match="feature_dim"):
            generate_universe(
                _cfg(feature_dim=1, misalignment_rho=0.5, responses_per_prompt=2)
            )


class TestTabularFeatures:
    def test_one_hot_position(self):
        feats = make_tabular_features(2, 2)
        assert feats.shape == (2, 2, 4)
        np.testing.assert_array_equal(feats[1, 0], [0, 0, 1, 0])

    def test_distinct_rows_are_orthogonal(self):
        feats = make_tabular_features(3, 4).reshape(12, 12)
        np.testing.assert_array_equal(feats @ feats.T, np.eye(12))

    def test_dimension_is_product(self):
        assert make_tabular_features(3, 4).shape[2] == 12

    def test_rejects_oversized_request(self):
        with pytest.raises(ConfigurationError):
            make_tabular_features(10_000, 100)


class TestValidateUniverse:
    def test_fresh_universe_is_clean(self):
        assert validate_universe(generate_universe(_cfg())) == []

    def test_rescaled_bias_direction_reported(self):
        u = generate_universe(_cfg())
        bad = dataclasses.replace(u, proxy_bias_direction=2.0 * u.proxy_bias_direction)
        report = validate_universe(bad)
        assert any("proxy_bias_direction" in line and "unit norm" in line for line in report)

    def test_tied_probe_reward_reported(self):
        u = generate_universe(_cfg())
        probe = u.probe_prompts()[0]
        tied = probe.true_reward.copy()
        order = np.argsort(tied)
        tied[order[-2]] = tied[order[-1]]
        probe.true_reward = tied
        report = validate_universe(u)
        assert any("tied maximum" in line for line in report)

    def test_role_shuffle_reported(self):
        u = generate_universe(_cfg())
        u.prompts[0].role = "eval"
        assert any("role partition" in line for line in validate_universe(u))


class TestSerialization:
    def test_json_roundtrip_is_exact(self, tmp_path):
        u = generate_universe(_cfg())
        path = tmp_path / "universe.json"
        u.save(path)
        loaded = PromptUniverse.load(path)
        assert loaded.config == u.config
        np.testing.assert_array_equal(loaded.probe_direction, u.probe_direction)
        for a, b in zip(u.prompts, loaded.prompts):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.true_reward, b.true_reward)
            assert a.correct_response == b.correct_response
        assert loaded.content_hash() == u.content_hash()
        for universe in (u, loaded):
            # every record's features are a view into the stacked (N, V, d) array
            assert universe.features.shape == (20, 4, 8)
            assert all(np.shares_memory(r.features, universe.features) for r in universe.prompts)

    def test_ragged_features_rejected_on_load(self):
        data = generate_universe(_cfg()).to_json_dict()
        data["prompts"][3]["features"].pop()
        with pytest.raises(ConfigurationError, match="feature shape"):
            PromptUniverse.from_json_dict(data)
