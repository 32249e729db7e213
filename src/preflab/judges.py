"""Parametric preference oracles with a controllable alignment knob.

A judge scores responses with a proxy reward

    r~(x, y) = (1 - lambda) * r*(x, y) + lambda * dot(g, phi(x, y)),

where lambda in [0, 1] blends the latent true reward with the universe's
proxy-bias direction g. lambda = 0 is a faithful judge; lambda = 1 rewards
the exploit direction only. Bradley-Terry judges then prefer y1 over y2 with
probability sigmoid((r~1 - r~2) / tau); deterministic judges take the argmax.

Judges see only (prompt, y1, y2) - they can never read policy state - and own
a private rng stream keyed by (seed, label), so an annotator and an evaluator
with equal seeds still draw independent noise. ``prefer_batch(prompt_ids, y1,
y2) -> winners`` labels a whole batch of (prompt_id, y1, y2) at once from a
per-universe table of g . phi and one draw of n uniforms (the same stream as
n single draws). Both the trainer and ``estimate_win_rate`` label through it,
once per iteration and once per estimate. ``prefer(record, y1, y2)`` scores
the record it is given and decides as a batch of one through the same method.
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

    def __post_init__(self) -> None:
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
        self.spec = spec
        self._bias = universe.proxy_bias_direction
        self._rng = substream(spec.seed, "judge", spec.label)
        self._table = self._blend(universe.true_reward, universe.bias_scores())  # (N, V)

    @property
    def label(self) -> str:
        return self.spec.label

    def _blend(self, true_reward, bias_score):
        lam = self.spec.misalignment
        return (1.0 - lam) * true_reward + lam * bias_score

    def proxy_reward(self, record: PromptRecord, y: int) -> float:
        """(1 - lambda) * r*(x, y) + lambda * dot(g, phi(x, y)); no rng."""
        if not 0 <= y < record.features.shape[0]:
            raise ContractError(f"response index {y} out of range")
        return float(self._blend(record.true_reward[y], self._bias @ record.features[y]))

    def _win_probability(self, gap: np.ndarray) -> np.ndarray:
        # math.exp (libm) rather than np.exp, whose SIMD kernels round some
        # inputs differently on some CPUs: labels stay the same on every CPU
        scaled = np.logaddexp(0.0, -gap / self.spec.noise_temperature)
        return np.array([math.exp(-x) for x in scaled.tolist()])

    def preference_probability(self, record: PromptRecord, y1: int, y2: int) -> float:
        """P(y1 beats y2) under the Bradley-Terry model; antisymmetric."""
        if self.spec.kind != KIND_BRADLEY_TERRY:
            raise ContractError(
                "preference_probability is only defined for bradley_terry judges"
            )
        gap = self.proxy_reward(record, y1) - self.proxy_reward(record, y2)
        return float(self._win_probability(np.array([gap]))[0])

    def _first_wins(self, gap: np.ndarray, y1, y2) -> np.ndarray:
        """Whether y1 beats y2, from the proxy-reward gaps r~(y1) - r~(y2); n
        uniforms for BT. A deterministic judge breaks ties to the lower index."""
        if np.count_nonzero(y1 == y2):
            raise ContractError("judge queried with identical responses")
        if self.spec.kind == KIND_DETERMINISTIC:
            return (gap > 0) | (~(gap < 0) & (y1 < y2))
        return self._rng.random(gap.size) < self._win_probability(gap)

    def prefer_batch(self, prompt_ids, y1, y2) -> np.ndarray:
        """Winner of each pair (prompt_ids[i], y1[i], y2[i]) of the judge's universe."""
        n, v = self._table.shape
        if np.any((prompt_ids < 0) | (prompt_ids >= n)):
            raise ContractError(f"prompt_id out of range for {n} prompts")
        if np.any((y1 < 0) | (y1 >= v) | (y2 < 0) | (y2 >= v)):
            raise ContractError(f"response index out of range for {v} responses")
        gap = self._table[prompt_ids, y1] - self._table[prompt_ids, y2]
        return np.where(self._first_wins(gap, y1, y2), y1, y2)

    def prefer(self, record: PromptRecord, y1: int, y2: int) -> int:
        """Winner of the pair, decided as a batch of one; advances the judge rng
        once for BT judges."""
        gap = self.proxy_reward(record, y1) - self.proxy_reward(record, y2)
        return y1 if self._first_wins(np.array([gap]), y1, y2)[0] else y2
