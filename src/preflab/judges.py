"""Parametric preference oracles with a controllable alignment knob.

A judge scores responses with a proxy reward

    r~(x, y) = (1 - lambda) * r*(x, y) + lambda * dot(g, phi(x, y)),

where lambda in [0, 1] blends the latent true reward with the universe's
proxy-bias direction g. lambda = 0 is a faithful judge; lambda = 1 rewards
the exploit direction only. Bradley-Terry judges then prefer y1 over y2 with
probability sigmoid((r~1 - r~2) / tau); deterministic judges take the argmax.

Judges see only (prompt, y1, y2) - they can never read policy state - and own
a private rng stream keyed by (seed, label), with the run seed folded in by
``Judge.for_run``. Judges with different labels draw independent noise even at
equal seeds; equal labels and seeds replay one stream, so a grid refuses an
annotator and an evaluator that share a label.

Every public method reads the judge's (N, V) proxy-reward table by prompt
id, and ``policy.check_indices`` refuses ids outside it. ``prefer_batch(prompt_ids,
y1, y2) -> winners`` labels a whole batch at once with one draw of n uniforms
(the same stream as n single draws); ``estimate_win_rate`` labels through it
once per estimate, and ``prefer(prompt_id, y1, y2)`` is ``prefer_batch`` of
one. The trainer, whose pairs are distinct responses in range by
construction, labels once per iteration through its unchecked kernel
``_prefer_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ContractError
from .policy import check_indices
from .rng import check_seed, mix_seeds, substream
from .universe import PromptUniverse

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
        # the label names run directories: it must be one path component
        if self.label in ("", ".", "..") or "/" in self.label or "\\" in self.label:
            raise ConfigurationError(
                f"judge label {self.label!r} must be non-empty, not '.' or '..', "
                "and contain no '/' or '\\'"
            )
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
        check_seed(self.seed, "seed")


class Judge:
    """A preference oracle bound to one universe's geometry."""

    def __init__(self, spec: JudgeSpec, universe: PromptUniverse):
        self.spec = spec
        self._rng = substream(spec.seed, "judge", spec.label)
        lam = spec.misalignment
        self._table = (1.0 - lam) * universe.true_reward + lam * universe.bias_scores()  # (N, V)

    @classmethod
    def for_run(cls, spec: JudgeSpec, universe: PromptUniverse, run_seed: int) -> "Judge":
        """The judge ``spec`` in the run seeded ``run_seed``."""
        return cls(replace(spec, seed=mix_seeds(spec.seed, run_seed)), universe)

    @property
    def label(self) -> str:
        return self.spec.label

    def proxy_reward(self, prompt_id: int, y: int) -> float:
        """(1 - lambda) * r*(x, y) + lambda * dot(g, phi(x, y)); no rng."""
        n, v = self._table.shape
        check_indices(prompt_id, n, "prompt_id")
        check_indices(y, v, "response index")
        return float(self._table[prompt_id, y])

    def _win_probability(self, gap: np.ndarray) -> np.ndarray:
        # math.exp (libm) rather than np.exp, whose SIMD kernels round some
        # inputs differently on some CPUs: labels stay the same on every CPU
        scaled = np.logaddexp(0.0, -gap / self.spec.noise_temperature)
        return np.array(list(map(math.exp, (-scaled).tolist())))

    def preference_probability(self, prompt_id: int, y1: int, y2: int) -> float:
        """P(y1 beats y2) under the Bradley-Terry model; antisymmetric."""
        if self.spec.kind != KIND_BRADLEY_TERRY:
            raise ContractError(
                "preference_probability is only defined for bradley_terry judges"
            )
        gap = self.proxy_reward(prompt_id, y1) - self.proxy_reward(prompt_id, y2)
        return float(self._win_probability(np.array([gap]))[0])

    def prefer_batch(self, prompt_ids, y1, y2) -> np.ndarray:
        """Winner of each pair (prompt_ids[i], y1[i], y2[i]) of the judge's universe."""
        n, v = self._table.shape
        check_indices(prompt_ids, n, "prompt_id")
        check_indices(y1, v, "y1")
        check_indices(y2, v, "y2")
        if np.count_nonzero(y1 == y2):
            raise ContractError("judge queried with identical responses")
        return self._prefer_batch(prompt_ids, y1, y2)

    def _prefer_batch(self, prompt_ids, y1, y2) -> np.ndarray:
        """``prefer_batch`` of index arrays in range with y1 != y2; unchecked.
        Bradley-Terry judges draw n uniforms; a deterministic judge breaks ties
        to the lower index."""
        gap = self._table[prompt_ids, y1] - self._table[prompt_ids, y2]
        if self.spec.kind == KIND_DETERMINISTIC:
            first_wins = (gap > 0) | (~(gap < 0) & (y1 < y2))
        else:
            first_wins = self._rng.random(gap.size) < self._win_probability(gap)
        return np.where(first_wins, y1, y2)

    def prefer(self, prompt_id: int, y1: int, y2: int) -> int:
        """Winner of the pair, ``prefer_batch`` of one; advances the judge rng
        once for BT judges."""
        return int(self.prefer_batch(np.array([prompt_id]), np.array([y1]), np.array([y2]))[0])
