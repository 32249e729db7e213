"""Synthetic preference environment: prompts, features, latent rewards.

A universe replaces text datasets with a finite, exactly solvable stand-in.
Each prompt carries V candidate responses described by feature vectors
phi(x, y) in R^d, a latent true reward r*(x, y), and a role (train / eval /
probe). Two unit directions shape the geometry:

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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .rng import substream

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
    def total_prompts(self) -> int:
        return self.num_train_prompts + self.num_eval_prompts + self.num_probe_prompts

    def validate(self) -> None:
        if self.responses_per_prompt < 2:
            raise ConfigurationError(
                f"responses_per_prompt must be >= 2, got {self.responses_per_prompt}"
            )
        if self.feature_dim < 1:
            raise ConfigurationError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for name in ("num_train_prompts", "num_eval_prompts", "num_probe_prompts"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
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
class PromptRecord:
    prompt_id: int
    role: str
    features: np.ndarray  # (V, d)
    true_reward: np.ndarray  # (V,)
    correct_response: Optional[int] = None


@dataclass
class PromptUniverse:
    config: UniverseConfig
    prompts: list[PromptRecord]
    features: np.ndarray  # (N, V, d); prompt i's features are the view features[i]
    proxy_bias_direction: np.ndarray  # (d,), unit norm
    probe_direction: np.ndarray  # (d,), unit norm
    _role_cache: dict = field(default_factory=dict, repr=False)

    def prompts_with_role(self, role: str) -> list[PromptRecord]:
        if role not in self._role_cache:
            self._role_cache[role] = [p for p in self.prompts if p.role == role]
        return self._role_cache[role]

    def train_prompts(self) -> list[PromptRecord]:
        return self.prompts_with_role(ROLE_TRAIN)

    def eval_prompts(self) -> list[PromptRecord]:
        return self.prompts_with_role(ROLE_EVAL)

    def probe_prompts(self) -> list[PromptRecord]:
        return self.prompts_with_role(ROLE_PROBE)

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "prompts": [
                {
                    "prompt_id": p.prompt_id,
                    "role": p.role,
                    "features": p.features.tolist(),
                    "true_reward": p.true_reward.tolist(),
                    "correct_response": p.correct_response,
                }
                for p in self.prompts
            ],
            "proxy_bias_direction": self.proxy_bias_direction.tolist(),
            "probe_direction": self.probe_direction.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PromptUniverse":
        config = UniverseConfig(**data["config"])
        try:
            features = np.asarray([e["features"] for e in data["prompts"]], dtype=np.float64)
        except ValueError as exc:
            raise ConfigurationError(f"prompts do not share one feature shape: {exc}") from exc
        prompts = [
            PromptRecord(
                prompt_id=entry["prompt_id"],
                role=entry["role"],
                features=features[i],
                true_reward=np.asarray(entry["true_reward"], dtype=np.float64),
                correct_response=entry["correct_response"],
            )
            for i, entry in enumerate(data["prompts"])
        ]
        return cls(
            config=config,
            prompts=prompts,
            features=features,
            proxy_bias_direction=np.asarray(data["proxy_bias_direction"], dtype=np.float64),
            probe_direction=np.asarray(data["probe_direction"], dtype=np.float64),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PromptUniverse":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def content_hash(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


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
    if np.count_nonzero(values == values[top]) != 1:
        return None
    return top


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
        if top is None:
            continue
        if config.tabular_mode:
            return features_i, reward, top
        if clean_top is not None and top == clean_top:
            return features_i, reward, top
    raise RuntimeError("could not break probe reward ties; degenerate direction scores")


def generate_universe(config: UniverseConfig) -> PromptUniverse:
    """Deterministically build a universe from its config.

    The rng consumption order is fixed (directions, features, noise, probe
    fix-ups in prompt order) so regeneration is bit-identical.
    """
    config.validate()
    rng = substream(config.seed, "universe")
    n = config.total_prompts
    v = config.responses_per_prompt
    d = config.feature_dim

    u = _unit_gaussian(rng, d)
    g = _bias_direction(rng, u, config.misalignment_rho)

    if config.tabular_mode:
        features = make_tabular_features(n, v)
    else:
        features = rng.normal(0.0, config.feature_scale, size=(n, v, d))

    noise_scale = REWARD_NOISE_FRACTION * config.true_reward_scale
    noise = rng.normal(0.0, noise_scale, size=(n, v))
    rewards = config.true_reward_scale * (features @ u) + noise

    roles = (
        [ROLE_TRAIN] * config.num_train_prompts
        + [ROLE_EVAL] * config.num_eval_prompts
        + [ROLE_PROBE] * config.num_probe_prompts
    )

    prompts: list[PromptRecord] = []
    for i, role in enumerate(roles):
        reward = rewards[i]
        correct: Optional[int] = None
        if role == ROLE_PROBE:
            features[i], reward, correct = _fix_probe_prompt(
                rng, config, features[i], u, noise_scale
            )
        prompts.append(
            PromptRecord(
                prompt_id=i,
                role=role,
                features=features[i],
                true_reward=np.ascontiguousarray(reward),
                correct_response=correct,
            )
        )

    return PromptUniverse(
        config=config,
        prompts=prompts,
        features=features,
        proxy_bias_direction=g,
        probe_direction=u,
    )


def validate_universe(universe: PromptUniverse) -> list[str]:
    """Check every structural invariant; returns violation descriptions.

    Report-only: never raises on a bad universe, never mutates.
    """
    report: list[str] = []
    config = universe.config
    try:
        config.validate()
    except ConfigurationError as exc:
        report.append(f"config: {exc}")

    for name, vec in (
        ("proxy_bias_direction", universe.proxy_bias_direction),
        ("probe_direction", universe.probe_direction),
    ):
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-9:
            report.append(f"{name} is not unit norm (|norm - 1| = {abs(norm - 1.0):.3e})")

    cosine = float(universe.proxy_bias_direction @ universe.probe_direction)
    if abs(cosine - config.misalignment_rho) > 1e-6:
        report.append(
            f"cosine(g, u) = {cosine!r} deviates from misalignment_rho = "
            f"{config.misalignment_rho!r} by more than 1e-6"
        )

    expected_roles = (
        [ROLE_TRAIN] * config.num_train_prompts
        + [ROLE_EVAL] * config.num_eval_prompts
        + [ROLE_PROBE] * config.num_probe_prompts
    )
    if len(universe.prompts) != len(expected_roles):
        report.append(
            f"prompt count {len(universe.prompts)} does not match config total "
            f"{len(expected_roles)}"
        )

    v = config.responses_per_prompt
    d = config.feature_dim
    for idx, prompt in enumerate(universe.prompts):
        tag = f"prompt {prompt.prompt_id}"
        if prompt.prompt_id != idx:
            report.append(f"{tag}: ids are not contiguous (position {idx})")
        if idx < len(expected_roles) and prompt.role != expected_roles[idx]:
            report.append(f"{tag}: role {prompt.role!r} breaks the role partition")
        if prompt.features.shape != (v, d):
            report.append(f"{tag}: features shape {prompt.features.shape} != ({v}, {d})")
            continue
        if not np.all(np.isfinite(prompt.features)):
            report.append(f"{tag}: features contain non-finite values")
        if prompt.true_reward.shape != (v,):
            report.append(f"{tag}: true_reward shape {prompt.true_reward.shape} != ({v},)")
            continue
        if not np.all(np.isfinite(prompt.true_reward)):
            report.append(f"{tag}: true_reward contains non-finite values")
        if prompt.role == ROLE_PROBE:
            if prompt.correct_response is None:
                report.append(f"{tag}: probe prompt lacks correct_response")
            else:
                top = _strict_argmax(prompt.true_reward)
                if top is None:
                    report.append(f"{tag}: probe true_reward has a tied maximum")
                elif top != prompt.correct_response:
                    report.append(
                        f"{tag}: correct_response {prompt.correct_response} is not the "
                        f"reward argmax {top}"
                    )
        elif prompt.correct_response is not None:
            report.append(f"{tag}: non-probe prompt carries correct_response")

    return report
