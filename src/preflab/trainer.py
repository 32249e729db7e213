"""Supervised initialization and the online preference-training loop.

One run: fit an initial policy on each train prompt's best response, freeze
it as the reference, then iterate

    sample B train prompts -> generate M candidates each -> form pair pools
    -> select pairs (random or uncertainty-based) -> label them with the
    annotator judge -> take ``updates_per_sample`` optimizer steps on the
    labeled batch.

Each stage runs once per iteration on the whole batch, as index arrays over
``PromptUniverse.features``: prompt ids, (B, M) candidates, a (P, 3) pair
array, selected indices, one labelling call, and the winner-minus-loser
feature differences that every update of the iteration reuses.

Events are formatted once, as they are produced: each is one canonical JSON
line (keys sorted, ``json.dumps(event, sort_keys=True)`` plus a newline),
built from int-only templates, with the int lists and APL scores passed
through ``json.dumps`` so their text is the encoder's own.

All stochastic streams are keyed by run_seed and a purpose tag, never by the
selector, so runs that differ only in selector share prompt, generation, and
supervised-fit randomness (paired comparisons). The annotator's stream is
additionally folded with run_seed so different seeds see independent label
noise. Non-finite parameters abort the run with a partial result (checked
once per update, by ``optimizer_step``); collapse is data, not failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dpo import (
    DpoConfig,
    OptimizerState,
    dpo_batch_grad,
    lr_at_step,
    optimizer_step,
    preference_deltas,
)
from .errors import ConfigurationError, TrainingError
from .judges import Judge, JudgeSpec
from .policy import Policy, log_softmax
from .policy import grad_log_prob  # noqa: F401  (traced by bench/spans.py)
from .rng import mix_seeds, substream
from .selection import (
    SELECTOR_APL,
    SELECTOR_RANDOM,
    OpCounters,
    SelectionConfig,
    check_selector,
    entropy_estimate,
    form_pairs,
    generate_candidates,
    select_apl,
    select_random,
)
from .universe import ROLE_TRAIN, PromptUniverse


# Supervised fit: the share of its updates spent warming up.
SFT_WARMUP_RATIO = 0.05


@dataclass(frozen=True)
class SftConfig:
    learning_rate: float = 0.05
    epochs: int = 12
    batch: int = 64

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigurationError(f"sft learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigurationError(f"sft epochs must be >= 0, got {self.epochs}")
        if self.batch < 1:
            raise ConfigurationError(f"sft batch must be >= 1, got {self.batch}")


@dataclass(frozen=True)
class TrainConfig:
    dpo: DpoConfig = field(default_factory=DpoConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    selector: str = SELECTOR_RANDOM
    annotator: JudgeSpec = field(default_factory=lambda: JudgeSpec(label="annotator"))
    sft: SftConfig = field(default_factory=SftConfig)
    run_seed: int = 0

    def __post_init__(self) -> None:
        check_selector(self.selector)


@dataclass
class IterationLog:
    iteration: int
    mean_loss: float
    labeled_pairs: int
    lr: float
    entropy_min: float
    entropy_mean: float
    entropy_max: float


@dataclass
class RunResult:
    final_policy: Policy
    sft_policy: Policy
    per_iteration: list[IterationLog]
    counters: OpCounters
    event_lines: list[str]  # the lines of events.jsonl, newline included
    aborted: bool

    @property
    def events(self) -> list[dict]:
        """A decoded copy of ``event_lines``, for reading only."""
        return [json.loads(line) for line in self.event_lines]


def reference_preset() -> TrainConfig:
    """Reference hyperparameters for the full-scale protocol.

    T=625 iterations, B=64 prompts per iteration, 4 optimizer updates per
    collected batch, warmup over the first 5% of updates. The remaining knobs
    (beta=0.1, M=4, N=32, L=64, learning rates) are artifact defaults.
    """
    return TrainConfig(
        dpo=DpoConfig(beta=0.1, warmup_ratio=0.05, updates_per_sample=4, max_steps=625),
        selection=SelectionConfig(
            batch_prompts=64, candidates_per_prompt=4, apl_top_prompts=32, label_budget=64
        ),
        selector=SELECTOR_RANDOM,
        annotator=JudgeSpec(label="annotator", misalignment=0.05, noise_temperature=0.5),
        sft=SftConfig(),
        run_seed=42,
    )


def sft_lr_at_step(cfg: SftConfig, step: int, total: int) -> float:
    """Linear warmup over the first SFT_WARMUP_RATIO of ``total`` updates, then
    cosine decay to zero at ``total``."""
    warmup = SFT_WARMUP_RATIO * total
    if step < warmup:
        return cfg.learning_rate * step / warmup
    progress = min((step - warmup) / (total - warmup), 1.0)
    return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


def sft_fit(universe: PromptUniverse, cfg: TrainConfig) -> Policy:
    """Maximize mean log-likelihood of each train prompt's best response.

    Minibatch ascent (Adam, ``sft_lr_at_step``) over cfg.sft.epochs passes;
    the result is both the starting policy and the frozen reference. The
    minibatch gradient of -log pi(chosen) is -mean(phi_chosen - p^T F), over
    the batch's stacked (b, V, d) features F and probabilities p.
    """
    ids = universe.role_ids(ROLE_TRAIN)
    chosen = universe.true_reward[ids].argmax(axis=1)
    n = ids.size
    batch_size = min(cfg.sft.batch, n)
    total = max(cfg.sft.epochs * math.ceil(n / batch_size), 1)
    rng = substream(cfg.run_seed, "sft")
    dim = universe.config.feature_dim
    theta = np.zeros(dim)
    state = OptimizerState.initial(dim)
    for _ in range(cfg.sft.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            features = universe.features[ids[batch]]
            probs = np.exp(log_softmax(features @ theta))
            expected = np.einsum("bv,bvd->bd", probs, features)
            grad = -(features[np.arange(batch.size), chosen[batch]] - expected).sum(axis=0)
            grad /= batch.size
            try:
                lr = sft_lr_at_step(cfg.sft, state.step, total)
                theta, state = optimizer_step(state, theta, grad, lr)
            except TrainingError as exc:
                raise TrainingError(
                    f"supervised fit diverged at update {state.step + 1}; "
                    "reduce sft.learning_rate"
                ) from exc
    return Policy(theta, label="sft")


def _json_floats(values: list[float]) -> list[str]:
    """Each float's text as ``json.dumps`` writes it (``NaN``/``Infinity``
    included), from one encoder call for the whole list."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _annotator_for_run(cfg: TrainConfig, universe: PromptUniverse) -> Judge:
    # fold run_seed into the judge seed so seeds get independent label noise
    spec = replace(cfg.annotator, seed=mix_seeds(cfg.annotator.seed, cfg.run_seed))
    return Judge(spec, universe)


def run_online_dpo(
    universe: PromptUniverse, sft_policy: Policy, cfg: TrainConfig
) -> RunResult:
    """Execute the online loop; deterministic given (universe, cfg)."""
    sel = cfg.selection
    beta = cfg.dpo.beta
    train_ids = universe.role_ids(ROLE_TRAIN)
    if sel.batch_prompts > train_ids.size:
        raise ConfigurationError(
            f"batch_prompts {sel.batch_prompts} exceeds the {train_ids.size} train prompts"
        )

    ref = Policy(sft_policy.theta, label="sft")
    policy = Policy(sft_policy.theta, label="step-0")
    opt_state = OptimizerState.initial(policy.feature_dim)
    counters = OpCounters()
    lines: list[str] = []
    strategy = json.dumps(cfg.selector)
    logs: list[IterationLog] = []

    prompt_rng = substream(cfg.run_seed, "prompts")
    gen_rng = substream(cfg.run_seed, "generation")
    select_rng = substream(cfg.run_seed, "random-selector")
    annotator = _annotator_for_run(cfg, universe)

    features = universe.features
    aborted = False
    for t in range(1, cfg.dpo.max_steps + 1):
        prompt_ids = train_ids[prompt_rng.permutation(train_ids.size)[: sel.batch_prompts]]
        candidates, log_probs = generate_candidates(
            policy, features, prompt_ids, sel, gen_rng, counters
        )
        lines.append(
            f'{{"candidates": {json.dumps(candidates.tolist())}, "iteration": {t}, '
            f'"prompt_ids": {json.dumps(prompt_ids.tolist())}, "type": "candidates"}}\n'
        )
        pairs, degenerate = form_pairs(candidates)
        lines.extend(
            f'{{"iteration": {t}, "prompt_id": {prompt_id}, "type": "degenerate_prompt"}}\n'
            for prompt_id in prompt_ids[degenerate].tolist()
        )

        entropies = entropy_estimate(log_probs)
        if cfg.selector == SELECTOR_RANDOM:
            picked = select_random(pairs, sel.label_budget, select_rng)
            scores = ["null"] * picked.size
        else:
            picked, margins = select_apl(
                policy, ref, features, prompt_ids, entropies, pairs, sel, beta, counters
            )
            scores = _json_floats(margins.tolist())
        if picked.size < sel.label_budget:
            lines.append(
                f'{{"budget": {sel.label_budget}, "iteration": {t}, '
                f'"selected": {picked.size}, "type": "budget_shortfall"}}\n'
            )

        rows, y1, y2 = pairs[picked].T
        pair_prompts = prompt_ids[rows]
        winners = annotator.prefer_batch(pair_prompts, y1, y2)
        counters.judge_queries += picked.size
        lines.extend(
            f'{{"iteration": {t}, "pair": [{a}, {b}], "prompt_id": {prompt_id}, '
            f'"score": {score}, "strategy": {strategy}, "type": "selection", '
            f'"winner": {winner}}}\n'
            for prompt_id, a, b, score, winner in zip(
                pair_prompts.tolist(), y1.tolist(), y2.tolist(), scores, winners.tolist()
            )
        )

        mean_loss = float("nan")
        last_lr = lr_at_step(cfg.dpo, opt_state.step)
        if picked.size:
            losers = np.where(winners == y1, y2, y1)
            dphi = preference_deltas(features, pair_prompts, winners, losers)
            try:
                for _ in range(cfg.dpo.updates_per_sample):
                    loss, grad = dpo_batch_grad(policy, ref, dphi, beta)
                    if math.isnan(mean_loss):
                        mean_loss = loss
                    last_lr = lr_at_step(cfg.dpo, opt_state.step)
                    new_theta, opt_state = optimizer_step(opt_state, policy.theta, grad, last_lr)
                    policy = Policy.from_finite(new_theta, label=f"step-{opt_state.step}")
            except TrainingError as exc:
                abort = {"type": "abort", "iteration": t, "reason": str(exc)}
                lines.append(json.dumps(abort, sort_keys=True) + "\n")
                aborted = True

        logs.append(
            IterationLog(
                iteration=t,
                mean_loss=mean_loss,
                labeled_pairs=picked.size,
                entropy_min=float(np.min(entropies)),
                entropy_mean=float(np.mean(entropies)),
                entropy_max=float(np.max(entropies)),
                lr=last_lr,
            )
        )
        if aborted:
            break

    return RunResult(
        final_policy=policy,
        sft_policy=ref,
        per_iteration=logs,
        counters=counters,
        event_lines=lines,
        aborted=aborted,
    )
