"""Universe generation: determinism, geometry, probe construction, validation."""

import dataclasses
import hashlib
import json
import tempfile
import zipfile
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
SMOKE_CONFIG = CONFIGS / "smoke.json"


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
        for name in ("features", "true_reward", "correct_response"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

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
        for prompt_id in u.role_ids("probe"):
            reward = u.true_reward[prompt_id]
            top = int(np.argmax(reward))
            assert top == u.correct_response[prompt_id]
            assert np.count_nonzero(reward == reward[top]) == 1

    def test_probe_argmax_aligns_with_direction_score(self):
        # by construction the noisy reward argmax matches the clean u-score
        # argmax, so a policy pointing along u answers every probe correctly
        u = generate_universe(_cfg(num_probe_prompts=20))
        for prompt_id in u.role_ids("probe"):
            clean = u.features[prompt_id] @ u.probe_direction
            assert int(np.argmax(clean)) == u.correct_response[prompt_id]

    def test_roles_partition_in_order(self):
        u = generate_universe(_cfg())
        ids = [u.role_ids(role).tolist() for role in ("train", "eval", "probe")]
        assert ids == [list(range(10)), list(range(10, 15)), list(range(15, 20))]

    def test_train_prompts_carry_no_correct_response(self):
        u = generate_universe(_cfg())
        assert (u.correct_response[u.role_ids("train")] == -1).all()
        assert (u.correct_response[u.role_ids("eval")] == -1).all()


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


# the universe file's arrays and their canonical dtypes, in name order
ARRAYS = {"correct_response": "<i8", "features": "<f8", "probe_direction": "<f8",
          "proxy_bias_direction": "<f8", "true_reward": "<f8"}


def _documented_hash(universe):
    """The content hash as the README defines it: the sha256 of the sorted-key
    JSON header, then each array's little-endian C-order bytes, in name order."""
    header = {"config": dataclasses.asdict(universe.config)}
    header.update(
        (name, {"dtype": dtype, "shape": list(getattr(universe, name).shape)})
        for name, dtype in ARRAYS.items()
    )
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8"))
    for name, dtype in ARRAYS.items():
        digest.update(getattr(universe, name).astype(dtype).tobytes(order="C"))
    return digest.hexdigest()


def _members(universe) -> dict:
    """The universe file's members, its config as a dict, for editing."""
    members = {name: getattr(universe, name).copy() for name in ARRAYS}
    members["config"] = dataclasses.asdict(universe.config)
    return members


def _write(path, members):
    """``np.savez`` of ``members`` to exactly ``path``, a dict config as JSON text."""
    config = members.get("config")
    if isinstance(config, dict):
        members = dict(members, config=np.array(json.dumps(config, sort_keys=True)))
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    return path


def _swap_rows(members, i, j):
    """Prompts i and j trade all their rows in a universe file's ``members``."""
    for name in ("features", "true_reward", "correct_response"):
        members[name][[i, j]] = members[name][[j, i]]


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
        # roles are row positions: a probe prompt's rows at a train position
        # leave a train prompt with a correct_response and a probe without one
        u = generate_universe(_cfg())
        train, probe = u.role_ids("train")[0], u.role_ids("probe")[0]
        members = _members(u)
        _swap_rows(members, train, probe)
        report = validate_universe(dataclasses.replace(u, **{n: members[n] for n in ARRAYS}))
        assert f"prompt {train}: non-probe prompt carries correct_response" in report
        assert any(line.startswith(f"prompt {probe}: correct_response -1 is not") for line in report)


class TestSerialization:
    def test_roundtrip_is_exact(self, tmp_path):
        u = generate_universe(_cfg())
        path = tmp_path / "universe.npz"
        u.save(path)
        loaded = PromptUniverse.load(path)
        assert loaded.config == u.config
        for name, dtype in ARRAYS.items():
            assert getattr(loaded, name).dtype == dtype
            np.testing.assert_array_equal(getattr(loaded, name), getattr(u, name))
        assert loaded.content_hash() == u.content_hash()
        # the file holds the config as sorted-key JSON text and the five arrays
        with np.load(path, allow_pickle=False) as archive:
            assert sorted(archive.files) == sorted(["config", *ARRAYS])
            config = archive["config"]
            assert config.shape == () and config.dtype.kind == "U"
            assert config.item() == json.dumps(dataclasses.asdict(u.config), sort_keys=True)
        for universe in (u, loaded):
            assert universe.features.shape == (20, 4, 8)

    def test_save_writes_exactly_its_path(self, tmp_path):
        # np.savez given a name would add ".npz"; save is given an open file
        u = generate_universe(_cfg())
        u.save(tmp_path / "universe.json")
        assert [p.name for p in tmp_path.iterdir()] == ["universe.json"]
        assert PromptUniverse.load(tmp_path / "universe.json").content_hash() == u.content_hash()

    def test_replace_starts_caches_empty(self):
        u = generate_universe(_cfg())
        table = u.bias_scores()
        old_hash = u.content_hash()
        v = dataclasses.replace(u, true_reward=u.true_reward + 1.0)
        assert v.bias_scores() is not table
        assert v.content_hash() == _documented_hash(v) != old_hash
        assert u.bias_scores() is table
        assert u.content_hash() == old_hash

    def test_ragged_features_rejected_on_load(self, tmp_path):
        # ragged rows fit only an object array, which is a pickle: load refuses it
        u = generate_universe(_cfg())
        members = _members(u)
        members["features"] = np.empty(20, dtype=object)  # the last prompt one response short
        members["features"][:] = [*u.features[:-1], u.features[-1, :-1]]
        path = _write(tmp_path / "universe.npz", members)
        with pytest.raises(ConfigurationError, match="Object arrays cannot be loaded"):
            PromptUniverse.load(path)


class TestContentHash:
    def test_hash_is_the_documented_header_and_array_bytes(self):
        for config in (_cfg(), _cfg(tabular_mode=True, feature_dim=80)):
            u = generate_universe(config)
            assert u.content_hash() == _documented_hash(u)

    def test_memory_and_byte_order_do_not_change_the_hash(self):
        u = generate_universe(_cfg())
        fortran = dataclasses.replace(u, **{n: np.asfortranarray(getattr(u, n)) for n in ARRAYS})
        assert not fortran.features.flags.c_contiguous
        big_endian = dataclasses.replace(
            u, **{n: getattr(u, n).astype(getattr(u, n).dtype.newbyteorder(">")) for n in ARRAYS}
        )
        assert big_endian.features.dtype.str == ">f8"
        assert fortran.content_hash() == big_endian.content_hash() == u.content_hash()

    @pytest.mark.parametrize("name", ARRAYS)
    def test_one_element_changes_the_hash(self, name):
        u = generate_universe(_cfg())
        changed = getattr(u, name).copy()
        changed.flat[-1] += 1
        assert dataclasses.replace(u, **{name: changed}).content_hash() != u.content_hash()


def _wrong_correct_response(members):
    probe = members["correct_response"]
    probe[-1] = (probe[-1] + 1) % members["true_reward"].shape[1]


def _drop_last_prompt(members):
    for name in ("features", "true_reward", "correct_response"):
        members[name] = members[name][:-1]


def _set(name, value):
    return lambda m: m.__setitem__(name, value(m[name]))


MALFORMED = {
    "-1 correct_response on a probe prompt": (
        lambda m: m["correct_response"].__setitem__(19, -1),
        "prompt 19: correct_response -1 is not the reward argmax",
    ),
    "a correct_response on a non-probe prompt": (
        lambda m: m["correct_response"].__setitem__(0, 1),
        "prompt 0: non-probe prompt carries correct_response",
    ),
    "wrong correct_response": (_wrong_correct_response, "not the reward argmax"),
    "moved ids: a train and a probe prompt swap rows": (
        lambda m: _swap_rows(m, 0, 19),
        "prompt 0: non-probe prompt carries correct_response",
    ),
    "non-finite feature": (
        lambda m: m["features"].__setitem__((0, 0, 0), float("nan")), "non-finite"
    ),
    "NaN in direction": (
        lambda m: m["probe_direction"].__setitem__(0, float("nan")),
        "probe_direction is not unit norm",
    ),
    "dropped prompt": (_drop_last_prompt, r"features shape \(19, 4, 8\) != \(20, 4, 8\)"),
    "short true_reward": (_set("true_reward", lambda a: a[:, :-1]), "true_reward shape"),
    "long direction": (_set("probe_direction", lambda a: np.append(a, 0.0)),
                       r"probe_direction shape \(9,\)"),
    "missing array": (lambda m: m.pop("probe_direction"), "holds arrays"),
    "extra array": (lambda m: m.__setitem__("colour", np.zeros(2)), "holds arrays"),
    "int feature": (_set("features", lambda a: a.astype(np.int64)), "'features': '<i8'"),
    "int in direction": (
        _set("proxy_bias_direction", lambda a: a.astype(np.int64)),
        "'proxy_bias_direction': '<i8'",
    ),
    "float correct_response": (
        _set("correct_response", lambda a: a.astype(np.float64)), "'correct_response': '<f8'"
    ),
    "false in direction": (_set("probe_direction", lambda a: a > 0), r"'probe_direction': '\|b1'"),
    "true in true_reward": (_set("true_reward", lambda a: a != 0), r"'true_reward': '\|b1'"),
    "big-endian features": (_set("features", lambda a: a.astype(">f8")), "'features': '>f8'"),
    "string feature": (_set("features", lambda a: a.astype(str)), "'features': '<U"),
    "string in direction": (_set("probe_direction", lambda a: np.full(a.shape, "x")),
                            "'probe_direction': '<U1'"),
    "numeric string in direction": (
        _set("proxy_bias_direction", lambda a: a.astype(str)), "'proxy_bias_direction': '<U"
    ),
    "null in direction, an object array": (
        _set("probe_direction", lambda a: np.array([None] * a.size)),
        "Object arrays cannot be loaded when allow_pickle=False",
    ),
    "null true_reward, an object array": (
        _set("true_reward", lambda a: a.astype(object)),
        "Object arrays cannot be loaded when allow_pickle=False",
    ),
    "ragged true_reward, an object array": (
        _set("true_reward", lambda a: np.array([[0.0], [0.0, 1.0]], dtype=object)),
        "Object arrays cannot be loaded when allow_pickle=False",
    ),
    "unknown config key": (lambda m: m["config"].update(colour="red"), "colour"),
    "float prompt count": (
        lambda m: m["config"].update(num_train_prompts=10.0), "num_train_prompts: expected int"
    ),
    "string rho": (
        lambda m: m["config"].update(misalignment_rho="0.3"),
        "misalignment_rho: expected a finite float",
    ),
    "string seed": (lambda m: m["config"].update(seed="3"), "seed: expected int"),
    "int tabular flag": (
        lambda m: m["config"].update(tabular_mode=0), "tabular_mode: expected bool"
    ),
    "missing config key": (lambda m: m["config"].pop("feature_dim"), "feature_dim"),
    "missing defaulted config key": (
        lambda m: m["config"].pop("seed"), r"^missing key\(s\) \['universe config.seed'\]$"
    ),
    "missing config": (lambda m: m.pop("config"), "no config string"),
    "config a list of strings": (
        _set("config", lambda c: np.array([json.dumps(c)])), "no config string"
    ),
    "config not JSON": (_set("config", lambda c: np.array("{")), "cannot read universe"),
    "config not an object": (_set("config", lambda c: np.array("[]")), "expected an object"),
    "repeated config key": (
        _set("config", lambda c: np.array(json.dumps(c)[:-1] + ', "seed": 8}')),
        r"^universe config\.seed: repeated key$",
    ),
}


class TestLoadFailsClosed:
    @pytest.mark.parametrize("edit,fragment", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_universe_raises_configuration_error(self, tmp_path, edit, fragment):
        members = _members(generate_universe(_cfg()))
        edit(members)
        path = _write(tmp_path / "universe.npz", members)
        with pytest.raises(ConfigurationError, match=fragment):
            PromptUniverse.load(path)

    @pytest.mark.parametrize("text", [None, "{", '{"config": '])
    def test_unreadable_file_raises_configuration_error(self, tmp_path, text):
        path = tmp_path / "universe.npz"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigurationError, match="cannot read universe"):
            PromptUniverse.load(path)

    @pytest.mark.parametrize("kind", ["npy file", "json universe", "truncated zip", "empty file"])
    def test_a_file_that_is_not_a_universe_archive_is_refused(self, tmp_path, kind):
        u = generate_universe(_cfg())
        path = tmp_path / "universe.npz"
        if kind == "npy file":
            np.save(tmp_path / "features.npy", u.features)
            (tmp_path / "features.npy").rename(path)
        elif kind == "json universe":  # the layout universe files once had
            prompts = [{"prompt_id": i, "features": u.features[i].tolist()} for i in range(20)]
            document = {"config": dataclasses.asdict(u.config), "prompts": prompts}
            path.write_text(json.dumps(document, sort_keys=True) + "\n")
        elif kind == "truncated zip":
            u.save(path)
            path.write_bytes(path.read_bytes()[:-100])
        else:
            path.touch()
        with pytest.raises(ConfigurationError, match=f"cannot read universe {path}: "):
            PromptUniverse.load(path)
        # a file that does not load is another universe to save_universe
        out = ["--config", str(SMOKE_CONFIG), "--out", str(path)]
        assert not u.is_saved_in(path)
        data = path.read_bytes()
        assert main(["generate", *out]) == 2
        assert path.read_bytes() == data
        assert main(["generate", *out, "--overwrite"]) == 0
        assert PromptUniverse.load(path).config == parse_config(SMOKE_CONFIG)[0].universe

    def test_a_member_that_is_not_an_array_is_refused(self, tmp_path):
        path = tmp_path / "universe.npz"
        _write(path, _members(generate_universe(_cfg())))
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("notes.txt", "not an array")
        with pytest.raises(ConfigurationError, match=r"'notes.txt': '\|S12'"):
            PromptUniverse.load(path)

    def test_sweep_on_a_malformed_universe_path_exits_2(self, tmp_path, capsys):
        members = _members(generate_universe(_cfg()))
        _wrong_correct_response(members)
        universe_path = _write(tmp_path / "universe.npz", members)
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
def test_saved_bytes_are_deterministic(config):
    # two saves, and a save of what was loaded, write the same bytes, and
    # every way of reaching the content hash agrees with the documented one
    hashed = generate_universe(config)
    before_save = hashed.content_hash()
    saved = generate_universe(config)
    with tempfile.TemporaryDirectory() as tmp:
        first, second, again = (Path(tmp) / name for name in ("a.npz", "b.npz", "c.npz"))
        saved.save(first)
        saved.save(second)
        loaded = PromptUniverse.load(first)
        loaded.save(again)
        data = first.read_bytes()
        assert second.read_bytes() == data == again.read_bytes()
    digest = _documented_hash(saved)
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
    roles = [name for name, count in config.role_layout for _ in range(count)]
    expected = np.flatnonzero(np.array(roles) == role)
    assert ids.dtype == expected.dtype
    np.testing.assert_array_equal(ids, expected)
