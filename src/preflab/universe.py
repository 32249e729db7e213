"""Synthetic preference environment: prompts, features, latent rewards.

A universe replaces text datasets with a finite, exactly solvable stand-in.
It is held as arrays over N prompts: the (N, V, d) feature vectors phi(x, y)
of V candidate responses each, the (N, V) latent true rewards r*(x, y), and
the (N,) constructed correct response of each probe prompt (-1 elsewhere).
Roles are contiguous prompt-id ranges, in the order and sizes of the config's
``role_layout`` (train, eval, probe); ``role_ids`` gives a role's ids, and a
prompt's rows are ``features[prompt_id]`` and ``true_reward[prompt_id]``. Two
unit directions shape the geometry:

* ``probe_direction`` (u): the direction that carries the true-reward signal.
  Probe prompts are constructed so their best response is decided by u alone.
* ``proxy_bias_direction`` (g): the direction a misaligned judge rewards.
  Its cosine with u is exactly ``misalignment_rho``, so rho < 0 makes
  chasing the proxy actively destructive for probe accuracy.

True rewards are ``true_reward_scale * dot(u, phi) + noise`` with noise drawn
at ``REWARD_NOISE_FRACTION`` of the reward scale. Probe prompts additionally
enforce a clean top-gap along u (``PROBE_TOP_GAP_SIGMA`` standard deviations)
and resample their noise until the noisy argmax agrees with the clean one, so
``correct_response`` is an unambiguous direction detector.

The universe file, ``universe.npz``, holds the five arrays in canonical dtypes
and the config as JSON text; ``load`` reads it without pickle and fails closed.
The content hash reads the arrays' raw bytes, not the file.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .rng import substream
from .schema import build_dataclass, load_json

ROLE_TRAIN = "train"
ROLE_EVAL = "eval"
ROLE_PROBE = "probe"

# Construction constants (not config): noise std as a fraction of the reward
# scale, and the minimum clean top-gap (in units of feature_scale) required
# on probe prompts in non-tabular mode.
REWARD_NOISE_FRACTION = 0.1
PROBE_TOP_GAP_SIGMA = 1.0

_MAX_REDRAWS = 10_000
_NOISE_DECAY_EVERY = 32
_MAX_TABULAR_CELLS = 1 << 26  # one-hot feature tensor must stay addressable

# the universe file's arrays and their canonical dtypes, in name order: the hash's order
_ARRAY_DTYPES = {"correct_response": "<i8", "features": "<f8", "probe_direction": "<f8",
                 "proxy_bias_direction": "<f8", "true_reward": "<f8"}


@dataclass(frozen=True)
class UniverseConfig:
    num_train_prompts: int
    num_eval_prompts: int
    num_probe_prompts: int
    responses_per_prompt: int
    feature_dim: int
    feature_scale: float = 1.0
    true_reward_scale: float = 1.0
    misalignment_rho: float = 0.0
    tabular_mode: bool = False
    seed: int = 0

    @property
    def role_layout(self) -> tuple[tuple[str, int], ...]:
        """Each role and its prompt count, in prompt-id order: contiguous id ranges."""
        return ((ROLE_TRAIN, self.num_train_prompts), (ROLE_EVAL, self.num_eval_prompts),
                (ROLE_PROBE, self.num_probe_prompts))

    @property
    def total_prompts(self) -> int:
        return sum(count for _, count in self.role_layout)

    def __post_init__(self) -> None:
        if self.responses_per_prompt < 2:
            raise ConfigurationError(
                f"responses_per_prompt must be >= 2, got {self.responses_per_prompt}"
            )
        if self.feature_dim < 1:
            raise ConfigurationError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for role, count in self.role_layout:
            if count < 1:
                raise ConfigurationError(f"num_{role}_prompts must be >= 1, got {count}")
        if not -1.0 <= self.misalignment_rho <= 1.0:
            raise ConfigurationError(
                f"misalignment_rho must lie in [-1, 1], got {self.misalignment_rho}"
            )
        if abs(self.misalignment_rho) < 1.0 and self.feature_dim < 2:
            raise ConfigurationError(
                "misalignment_rho strictly inside (-1, 1) needs feature_dim >= 2 "
                "to realize the requested cosine"
            )
        if self.feature_scale <= 0:
            raise ConfigurationError(f"feature_scale must be > 0, got {self.feature_scale}")
        if self.true_reward_scale <= 0:
            raise ConfigurationError(
                f"true_reward_scale must be > 0, got {self.true_reward_scale}"
            )
        if self.tabular_mode:
            expected = self.total_prompts * self.responses_per_prompt
            if self.feature_dim != expected:
                raise ConfigurationError(
                    f"tabular_mode requires feature_dim = total_prompts * V = {expected}, "
                    f"got {self.feature_dim}"
                )


@dataclass
class PromptUniverse:
    """A universe's arrays and its two unit directions.

    A universe is not changed after ``generate_universe`` or ``load``: its
    content hash and bias-score table are cached on first use and never
    invalidated (``dataclasses.replace`` starts every cache empty).
    """

    config: UniverseConfig
    features: np.ndarray  # (N, V, d)
    true_reward: np.ndarray  # (N, V)
    correct_response: np.ndarray  # (N,) ints; -1 on non-probe prompts
    proxy_bias_direction: np.ndarray  # (d,), unit norm
    probe_direction: np.ndarray  # (d,), unit norm
    _content_hash: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _bias_scores: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def role_ids(self, role: str) -> np.ndarray:
        """The prompt ids that have ``role``, ascending; none for an unknown role."""
        start = 0
        for name, count in self.config.role_layout:
            if name == role:
                return np.arange(start, start + count)
            start += count
        return np.arange(0)

    def bias_scores(self) -> np.ndarray:
        """(N, V) table of g . phi(x, y), which judges blend into their proxy
        rewards; the stacked (N, V, 1, d) @ (d, 1) product rounds each entry like
        the 1-D dot ``g @ features[i, y]`` (a test pins this), ``features @ g`` not."""
        if self._bias_scores is None:
            g = self.proxy_bias_direction[:, None]
            self._bias_scores = (self.features[:, :, None, :] @ g)[:, :, 0, 0]
        return self._bias_scores

    def _arrays(self) -> dict[str, np.ndarray]:
        """The five arrays in canonical dtype and C order (no copy where they are)."""
        return {n: np.ascontiguousarray(getattr(self, n), t) for n, t in _ARRAY_DTYPES.items()}

    def save(self, path) -> None:
        """Write the universe file to ``path`` itself (``np.savez`` adds ``.npz`` to a name)."""
        config = np.array(json.dumps(asdict(self.config), sort_keys=True))
        with open(path, "wb") as fh:
            np.savez(fh, config=config, **self._arrays())

    @classmethod
    def load(cls, path) -> "PromptUniverse":
        """Read a universe file, without pickle; ConfigurationError unless it holds a config
        string and exactly the five arrays in canonical dtypes, a complete, well-typed
        config, and a universe that passes ``validate_universe``."""
        try:
            with np.lib.npyio.NpzFile(path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
            text = arrays.pop("config", None)
            if not (isinstance(text, np.ndarray) and text.dtype.kind == "U" and text.ndim == 0):
                raise ValueError("no config string")
            data = load_json(text.item())
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigurationError(f"cannot read universe {path}: {exc}") from exc
        found = {name: np.asarray(a).dtype.str for name, a in arrays.items()}
        if found != _ARRAY_DTYPES:
            raise ConfigurationError(f"universe {path} holds arrays {found}, not {_ARRAY_DTYPES}")
        defaulted: list[str] = []
        config = build_dataclass(UniverseConfig, data, "universe config", defaulted)
        if defaulted:
            raise ConfigurationError(f"missing key(s) {defaulted}")
        universe = cls(config=config, **arrays)
        report = validate_universe(universe)
        if report:
            raise ConfigurationError("invalid universe: " + "; ".join(report))
        return universe

    def content_hash(self) -> str:
        """sha256 of the canonical header, ``json.dumps({"config": asdict(config),
        name: {"dtype": dtype, "shape": shape} for each array}, sort_keys=True)``
        in UTF-8, then each array's raw little-endian C-order bytes in name order."""
        if self._content_hash is None:
            arrays = self._arrays()
            header = {n: {"dtype": a.dtype.str, "shape": list(a.shape)} for n, a in arrays.items()}
            header["config"] = asdict(self.config)
            digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8"))
            for array in arrays.values():
                digest.update(array)
            self._content_hash = digest.hexdigest()
        return self._content_hash

    def is_saved_in(self, path) -> bool:
        """Whether the file at ``path`` loads as a universe with this content hash."""
        try:
            return self.load(path).content_hash() == self.content_hash()
        except ConfigurationError:
            return False


def make_tabular_features(num_prompts: int, responses_per_prompt: int) -> np.ndarray:
    """One-hot feature tensor: phi(x, y) is the unit vector at x*V + y.

    Returns an array of shape (num_prompts, V, num_prompts*V).
    """
    if num_prompts < 1 or responses_per_prompt < 1:
        raise ConfigurationError("tabular feature counts must be >= 1")
    dim = num_prompts * responses_per_prompt
    if num_prompts * responses_per_prompt * dim > _MAX_TABULAR_CELLS:
        raise ConfigurationError(
            f"tabular feature tensor with {num_prompts} prompts x {responses_per_prompt} "
            f"responses would exceed the {_MAX_TABULAR_CELLS}-cell limit"
        )
    features = np.zeros((num_prompts, responses_per_prompt, dim))
    rows = np.repeat(np.arange(num_prompts), responses_per_prompt)
    cols = np.tile(np.arange(responses_per_prompt), num_prompts)
    features[rows, cols, rows * responses_per_prompt + cols] = 1.0
    return features


def _unit_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.normal(size=dim)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


def _bias_direction(rng: np.random.Generator, u: np.ndarray, rho: float) -> np.ndarray:
    """Unit vector with exact cosine rho against u (Gram-Schmidt, no rejection)."""
    if abs(rho) == 1.0:
        return rho * u
    while True:
        w = rng.normal(size=u.size)
        w_perp = w - float(w @ u) * u
        norm = float(np.linalg.norm(w_perp))
        if norm > 1e-12:
            break
    w_perp /= norm
    return rho * u + np.sqrt(1.0 - rho * rho) * w_perp


def _strict_argmax(values: np.ndarray) -> Optional[int]:
    """Index of the unique maximum, or None on a tie."""
    top = int(np.argmax(values))
    return top if np.count_nonzero(values == values[top]) == 1 else None


def _fix_probe_prompt(
    rng: np.random.Generator,
    config: UniverseConfig,
    features_i: np.ndarray,
    u: np.ndarray,
    noise_scale: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Probe construction: clean top-gap along u, noise aligned with it.

    Returns (features, true_reward, correct_response) for one probe prompt.
    In tabular mode the one-hot features are fixed, so only the noise is
    redrawn (with decaying scale) until the reward argmax is strict.
    """
    v = config.responses_per_prompt
    gap_floor = PROBE_TOP_GAP_SIGMA * config.feature_scale

    if not config.tabular_mode:
        for _ in range(_MAX_REDRAWS):
            clean = features_i @ u
            order = np.sort(clean)
            if order[-1] - order[-2] >= gap_floor:
                break
            features_i = rng.normal(0.0, config.feature_scale, size=features_i.shape)
        else:
            raise RuntimeError("could not realize the probe top-gap; check feature_scale")

    clean = features_i @ u
    clean_top = _strict_argmax(clean)

    scale = noise_scale
    for attempt in range(_MAX_REDRAWS):
        if attempt > 0 and attempt % _NOISE_DECAY_EVERY == 0:
            scale *= 0.5
        noise = rng.normal(0.0, scale, size=v) if scale > 0 else np.zeros(v)
        reward = config.true_reward_scale * clean + noise
        top = _strict_argmax(reward)
        if top is not None and (config.tabular_mode or top == clean_top):
            return features_i, reward, top
    raise RuntimeError("could not break probe reward ties; degenerate direction scores")


def generate_universe(config: UniverseConfig) -> PromptUniverse:
    """Deterministically build a universe from its config.

    The rng consumption order is fixed (directions, features, noise, probe
    fix-ups in prompt order) so regeneration is bit-identical.
    """
    rng = substream(config.seed, "universe")
    n, v, d = config.total_prompts, config.responses_per_prompt, config.feature_dim

    u = _unit_gaussian(rng, d)
    g = _bias_direction(rng, u, config.misalignment_rho)

    if config.tabular_mode:
        features = make_tabular_features(n, v)
    else:
        features = rng.normal(0.0, config.feature_scale, size=(n, v, d))

    noise_scale = REWARD_NOISE_FRACTION * config.true_reward_scale
    noise = rng.normal(0.0, noise_scale, size=(n, v))
    rewards = config.true_reward_scale * (features @ u) + noise

    universe = PromptUniverse(
        config=config,
        features=features,
        true_reward=rewards,
        correct_response=np.full(n, -1),
        proxy_bias_direction=g,
        probe_direction=u,
    )
    for i in universe.role_ids(ROLE_PROBE):  # probe fix-ups, in place
        features[i], rewards[i], universe.correct_response[i] = _fix_probe_prompt(
            rng, config, features[i], u, noise_scale
        )
    return universe


def validate_universe(universe: PromptUniverse) -> list[str]:
    """Check every structural invariant; returns violation descriptions.

    Report-only: never raises on a bad universe, never mutates. The config
    checked itself when it was built, and prompt ids and roles are array
    positions, so only the arrays' shapes and values can break.
    """
    report: list[str] = []
    config = universe.config
    n, v, d = config.total_prompts, config.responses_per_prompt, config.feature_dim
    shapes = {"features": (n, v, d), "true_reward": (n, v), "correct_response": (n,)}
    shapes.update(proxy_bias_direction=(d,), probe_direction=(d,))
    wrong = [
        f"{name} shape {getattr(universe, name).shape} != {shape}"
        for name, shape in shapes.items()
        if getattr(universe, name).shape != shape
    ]
    if wrong:
        return report + wrong
    # Written as "not <=" so that a NaN norm or cosine is reported too.
    for name in ("proxy_bias_direction", "probe_direction"):
        norm = float(np.linalg.norm(getattr(universe, name)))
        if not abs(norm - 1.0) <= 1e-9:
            report.append(f"{name} is not unit norm (|norm - 1| = {abs(norm - 1.0):.3e})")
    cosine = float(universe.proxy_bias_direction @ universe.probe_direction)
    if not abs(cosine - config.misalignment_rho) <= 1e-6:
        report.append(
            f"cosine(g, u) = {cosine!r} deviates from misalignment_rho = "
            f"{config.misalignment_rho!r} by more than 1e-6"
        )
    for name in ("features", "true_reward"):
        finite = np.isfinite(getattr(universe, name).reshape(n, -1)).all(axis=1)
        report.extend(f"prompt {i}: {name} has non-finite values" for i in np.flatnonzero(~finite))

    probes = universe.role_ids(ROLE_PROBE)
    reward = universe.true_reward[probes]
    tied = np.count_nonzero(reward == reward.max(axis=1, keepdims=True), axis=1) > 1
    report.extend(f"prompt {i}: probe true_reward has a tied maximum" for i in probes[tied])
    top = reward.argmax(axis=1)
    correct = universe.correct_response
    wrong_top = ~tied & (top != correct[probes])
    report.extend(
        f"prompt {i}: correct_response {correct[i]} is not the reward argmax {t}"
        for i, t in zip(probes[wrong_top], top[wrong_top])
    )
    report.extend(
        f"prompt {i}: non-probe prompt carries correct_response"
        for i in np.setdiff1d(np.flatnonzero(correct != -1), probes)
    )
    return report
