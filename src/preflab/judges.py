"""Parametric preference oracles with a controllable alignment knob.

A judge scores responses with a proxy reward

    r~(x, y) = (1 - lambda) * r*(x, y) + lambda * dot(g, phi(x, y)),

where lambda in [0, 1] blends the latent true reward with the universe's
proxy-bias direction g. lambda = 0 is a faithful judge; lambda = 1 rewards
the exploit direction only. Bradley-Terry judges then prefer y1 over y2 with
probability sigmoid((r~1 - r~2) / tau); deterministic judges take the argmax.

Judges see only (prompt, y1, y2) - they can never read policy state - and own
a private rng stream keyed by (seed, label), so an annotator and an evaluator
with equal seeds still draw independent noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .rng import substream
from .universe import PromptRecord, PromptUniverse

KIND_BRADLEY_TERRY = "bradley_terry"
KIND_DETERMINISTIC = "deterministic"


@dataclass(frozen=True)
class JudgeSpec:
    label: str
    kind: str = KIND_BRADLEY_TERRY
    misalignment: float = 0.0
    noise_temperature: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if not self.label:
            raise ConfigurationError("judge label must be non-empty")
        if self.kind not in (KIND_BRADLEY_TERRY, KIND_DETERMINISTIC):
            raise ConfigurationError(f"unknown judge kind {self.kind!r}")
        if not 0.0 <= self.misalignment <= 1.0:
            raise ConfigurationError(
                f"misalignment must lie in [0, 1], got {self.misalignment}"
            )
        if self.noise_temperature <= 0:
            raise ConfigurationError(
                f"noise_temperature must be > 0, got {self.noise_temperature}"
            )


class Judge:
    """A preference oracle bound to one universe's geometry."""

    def __init__(self, spec: JudgeSpec, universe: PromptUniverse):
        spec.validate()
        self.spec = spec
        self._bias = universe.proxy_bias_direction
        self._rng = substream(spec.seed, "judge", spec.label)

    @property
    def label(self) -> str:
        return self.spec.label

    def proxy_reward(self, record: PromptRecord, y: int) -> float:
        """(1 - lambda) * r*(x, y) + lambda * dot(g, phi(x, y)); no rng."""
        if not 0 <= y < record.features.shape[0]:
            raise ContractError(f"response index {y} out of range")
        lam = self.spec.misalignment
        return float(
            (1.0 - lam) * record.true_reward[y] + lam * (self._bias @ record.features[y])
        )

    def preference_probability(self, record: PromptRecord, y1: int, y2: int) -> float:
        """P(y1 beats y2) under the Bradley-Terry model; antisymmetric."""
        if self.spec.kind != KIND_BRADLEY_TERRY:
            raise ContractError(
                "preference_probability is only defined for bradley_terry judges"
            )
        gap = self.proxy_reward(record, y1) - self.proxy_reward(record, y2)
        return math.exp(-np.logaddexp(0.0, -gap / self.spec.noise_temperature))

    def prefer(self, record: PromptRecord, y1: int, y2: int) -> int:
        """Winner of the pair; advances the judge rng once for BT judges."""
        if y1 == y2:
            raise ContractError("judge queried with identical responses")
        if self.spec.kind == KIND_DETERMINISTIC:
            r1 = self.proxy_reward(record, y1)
            r2 = self.proxy_reward(record, y2)
            if r1 > r2:
                return y1
            if r2 > r1:
                return y2
            return min(y1, y2)
        p = self.preference_probability(record, y1, y2)
        return y1 if self._rng.random() < p else y2
