"""Universe generation: determinism, geometry, probe construction, validation."""

import dataclasses
import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflab import (
    ConfigurationError,
    PromptUniverse,
    UniverseConfig,
    generate_universe,
    make_tabular_features,
    parse_config,
    validate_universe,
)
from preflab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        probe = u.role_ids("probe")[0]
        order = np.argsort(u.true_reward[probe])
        u.true_reward[probe, order[-2]] = u.true_reward[probe, order[-1]]
        assert f"prompt {probe}: probe true_reward has a tied maximum" in validate_universe(u)

    def test_role_shuffle_reported(self):
        data = generate_universe(_cfg()).to_json_dict()
        data["prompts"][12]["role"] = "Eval"
        with pytest.raises(ConfigurationError, match="role partition"):
            PromptUniverse.from_json_dict(data)


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
        # universe.json is the canonical encoding plus a newline, and the
        # content hash is the sha256 of that encoding
        data = path.read_bytes()
        assert data == json.dumps(u.to_json_dict(), sort_keys=True).encode("utf-8") + b"\n"
        digest = hashlib.sha256(data[:-1]).hexdigest()
        assert u.content_hash() == digest
        assert loaded.content_hash() == digest
        for universe in (u, loaded):
            # every record's features are a view into the stacked (N, V, d) array
            assert universe.features.shape == (20, 4, 8)
            assert all(np.shares_memory(r.features, universe.features) for r in universe.prompts)

    def test_replace_starts_caches_empty(self):
        u = generate_universe(_cfg())
        assert len(u.train_prompts()) == 10
        old_hash = u.content_hash()
        v = dataclasses.replace(u, true_reward=u.true_reward + 1.0)
        assert v.train_prompts()[0].true_reward[0] == u.true_reward[0, 0] + 1.0
        payload = json.dumps(v.to_json_dict(), sort_keys=True).encode("utf-8")
        assert v.content_hash() == hashlib.sha256(payload).hexdigest() != old_hash
        assert len(u.train_prompts()) == 10
        assert u.content_hash() == old_hash

    def test_saving_streams_one_prompt_at_a_time(self, tmp_path):
        # the goodhart_weak universe encodes to 4.6 MB; a whole-document
        # encode held about 16 MB of Python objects and copies at its peak
        grid, _ = parse_config(CONFIGS / "goodhart_weak.json")
        u = generate_universe(grid.universe)
        tracemalloc.start()
        try:
            u.save(tmp_path / "universe.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "universe.json").stat().st_size > 4_000_000
        assert peak < 1_000_000

    def test_ragged_features_rejected_on_load(self):
        data = generate_universe(_cfg()).to_json_dict()
        data["prompts"][3]["features"].pop()
        with pytest.raises(ConfigurationError, match="feature shape"):
            PromptUniverse.from_json_dict(data)


def _wrong_correct_response(data):
    probe = data["prompts"][-1]
    probe["correct_response"] = (probe["correct_response"] + 1) % len(probe["true_reward"])


MALFORMED = {
    "moved id": (lambda d: d["prompts"][3].update(prompt_id=7), "role partition"),
    "dropped prompt": (lambda d: d["prompts"].pop(), "role partition"),
    "ragged true_reward": (lambda d: d["prompts"][4]["true_reward"].pop(), "true_reward shape"),
    "short true_reward": (
        lambda d: [p["true_reward"].pop() for p in d["prompts"]],
        "true_reward shape",
    ),
    "unknown config key": (lambda d: d["config"].update(colour="red"), "colour"),
    "wrong correct_response": (_wrong_correct_response, "not the reward argmax"),
    "non-finite feature": (
        lambda d: d["prompts"][0]["features"][0].__setitem__(0, float("nan")),
        "non-finite",
    ),
    "float prompt count": (
        lambda d: d["config"].update(num_train_prompts=10.0),
        "num_train_prompts: expected int",
    ),
    "string rho": (
        lambda d: d["config"].update(misalignment_rho="0.3"),
        "misalignment_rho: expected a finite float",
    ),
    "string seed": (lambda d: d["config"].update(seed="3"), "seed: expected int"),
    "int tabular flag": (
        lambda d: d["config"].update(tabular_mode=0),
        "tabular_mode: expected bool",
    ),
    "missing config key": (lambda d: d["config"].pop("feature_dim"), "feature_dim"),
    "float correct_response": (
        lambda d: d["prompts"][-1].update(correct_response=2.0),
        r"prompts\[19\].correct_response: expected int, got 2.0",
    ),
    "missing prompts": (lambda d: d.pop("prompts"), r"malformed universe: KeyError\('prompts'\)"),
    "missing direction": (lambda d: d.pop("probe_direction"), r"KeyError\('probe_direction'\)"),
    "prompt not an object": (lambda d: d["prompts"].__setitem__(0, [0]), "malformed universe"),
    "string in direction": (
        lambda d: d["probe_direction"].__setitem__(0, "x"),
        "probe_direction values are not all numbers",
    ),
    "numeric string in direction": (
        lambda d: d["proxy_bias_direction"].__setitem__(1, str(d["proxy_bias_direction"][1])),
        "proxy_bias_direction values are not all numbers",
    ),
    "null in direction": (
        lambda d: d["probe_direction"].__setitem__(2, None),
        "probe_direction values are not all numbers",
    ),
    "NaN in direction": (
        lambda d: d["probe_direction"].__setitem__(0, float("nan")),
        "probe_direction is not unit norm",
    ),
    "long direction": (lambda d: d["probe_direction"].append(0.0), r"probe_direction shape \(9,\)"),
    "string feature": (
        lambda d: d["prompts"][2]["features"][1].__setitem__(0, "0.5"),
        "feature values are not all numbers",
    ),
    "null true_reward": (
        lambda d: d["prompts"][2]["true_reward"].__setitem__(0, None),
        "true_reward values are not all numbers",
    ),
    "true in true_reward": (
        lambda d: d["prompts"][2].update(true_reward=[True] * len(d["prompts"][2]["true_reward"])),
        r"true_reward values are not all floats \(found bool\)",
    ),
    "int feature": (
        lambda d: d["prompts"][1]["features"][0].__setitem__(3, 0),
        r"feature values are not all floats \(found int\)",
    ),
    "int in direction": (
        lambda d: d["proxy_bias_direction"].__setitem__(0, 0),
        r"proxy_bias_direction values are not all floats \(found int\)",
    ),
    "false in direction": (
        lambda d: d["probe_direction"].__setitem__(1, False),
        r"probe_direction values are not all floats \(found bool\)",
    ),
    "-1 correct_response on a non-probe prompt": (
        lambda d: d["prompts"][0].update(correct_response=-1),
        r"prompts\[0\].correct_response: expected null or >= 0, got -1",
    ),
    "-1 correct_response on a probe prompt": (
        lambda d: d["prompts"][-1].update(correct_response=-1),
        r"prompts\[19\].correct_response: expected null or >= 0, got -1",
    ),
}


class TestLoadFailsClosed:
    @pytest.mark.parametrize("edit,fragment", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_universe_raises_configuration_error(self, edit, fragment):
        data = generate_universe(_cfg()).to_json_dict()
        edit(data)
        with pytest.raises(ConfigurationError, match=fragment):
            PromptUniverse.from_json_dict(data)

    @pytest.mark.parametrize("text", [None, "{", '{"config": '])
    def test_unreadable_file_raises_configuration_error(self, tmp_path, text):
        path = tmp_path / "universe.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigurationError, match="cannot read universe"):
            PromptUniverse.load(path)

    def test_sweep_on_a_malformed_universe_path_exits_2(self, tmp_path, capsys):
        data = generate_universe(_cfg()).to_json_dict()
        _wrong_correct_response(data)
        universe_path = tmp_path / "universe.json"
        universe_path.write_text(json.dumps(data))
        config = {
            "universe_path": str(universe_path),
            "annotators": [{"label": "weak"}],
            "evaluators": [{"label": "oracle"}],
            "seeds": [1],
            "output_dir": str(tmp_path / "runs"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid universe")


@st.composite
def universe_configs(draw):
    """Small dense or tabular universe configs, feature_dim 1 included."""
    counts = [draw(st.integers(1, 5)) for _ in range(3)]
    v = draw(st.integers(2, 5))
    scales = dict(
        feature_scale=draw(st.floats(0.1, 4.0)),
        true_reward_scale=draw(st.floats(0.1, 4.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    if draw(st.booleans()):
        d = sum(counts) * v
        rho = draw(st.floats(-1.0, 1.0))
        return UniverseConfig(*counts, v, d, tabular_mode=True, misalignment_rho=rho, **scales)
    d = draw(st.integers(1, 6))
    rho = draw(st.sampled_from([-1.0, 1.0]) if d == 1 else st.floats(-1.0, 1.0))
    return UniverseConfig(*counts, v, d, misalignment_rho=rho, **scales)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(config=universe_configs())
def test_streamed_encoding_is_the_canonical_json(config):
    # universe.json is json.dumps of the dict form plus a newline, byte for
    # byte, and every way of reaching the content hash agrees with its sha256
    hashed = generate_universe(config)
    before_save = hashed.content_hash()
    saved = generate_universe(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "universe.json"
        saved.save(path)
        data = path.read_bytes()
        loaded = PromptUniverse.load(path)
    assert data == (json.dumps(saved.to_json_dict(), sort_keys=True) + "\n").encode("utf-8")
    digest = hashlib.sha256(data[:-1]).hexdigest()
    assert before_save == saved.content_hash() == loaded.content_hash() == digest


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    counts=st.tuples(*[st.integers(1, 50)] * 3),
    role=st.sampled_from(["train", "eval", "probe", "other"]),
)
def test_role_ids_are_the_ids_roles_gives_the_role(counts, role):
    # role_ids is an arange over role_layout; the list of every prompt's role agrees
    config = UniverseConfig(*counts, responses_per_prompt=2, feature_dim=2)
    universe = generate_universe(config)
    ids = universe.role_ids(role)
    expected = np.flatnonzero(np.array(config.roles()) == role)
    assert ids.dtype == expected.dtype
    np.testing.assert_array_equal(ids, expected)
