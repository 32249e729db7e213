"""Supervised initialization and the online preference-training loop.

One run: fit an initial policy on each train prompt's best response, freeze
it as the reference, then iterate

    sample B train prompts -> generate M candidates each -> form pair pools
    -> select pairs (random or uncertainty-based) -> label them with the
    annotator judge -> take ``updates_per_sample`` optimizer steps on the
    labeled batch.

All stochastic streams are keyed by run_seed and a purpose tag, never by the
selector, so runs that differ only in selector share prompt, generation, and
supervised-fit randomness (paired comparisons). The annotator's stream is
additionally folded with run_seed so different seeds see independent label
noise. Non-finite parameters abort the run with a partial result; collapse is
data, not failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dpo import (
    DpoConfig,
    OptimizerState,
    PreferenceTriple,
    dpo_batch_grad,
    lr_at_step,
    optimizer_step,
)
from .errors import ConfigurationError, TrainingError
from .judges import Judge, JudgeSpec, make_judge
from .policy import Policy, log_softmax
from .policy import grad_log_prob  # noqa: F401  (traced by bench/spans.py)
from .rng import mix_seeds, substream
from .selection import (
    SELECTOR_APL,
    SELECTOR_RANDOM,
    OpCounters,
    SelectionConfig,
    entropy_estimate,
    form_pairs,
    generate_candidates,
    select_apl,
    select_random,
)
from .universe import PromptUniverse


@dataclass(frozen=True)
class SftConfig:
    learning_rate: float = 0.05
    epochs: int = 12
    batch: int = 64

    def validate(self) -> None:
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

    def validate(self) -> None:
        self.dpo.validate()
        self.selection.validate()
        self.sft.validate()
        self.annotator.validate()
        if self.selector not in (SELECTOR_RANDOM, SELECTOR_APL):
            raise ConfigurationError(f"unknown selector {self.selector!r}")


@dataclass
class IterationLog:
    iteration: int
    mean_loss: float
    labeled_pairs: int
    entropy_min: float
    entropy_mean: float
    entropy_max: float
    lr: float


@dataclass
class RunResult:
    final_policy: Policy
    sft_policy: Policy
    per_iteration: list[IterationLog]
    counters: OpCounters
    events: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "final_policy": self.final_policy.to_json_dict(),
            "sft_policy": self.sft_policy.to_json_dict(),
            "per_iteration": [vars(log) for log in self.per_iteration],
            "counters": self.counters.to_json_dict(),
            "events": self.events,
        }


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


def sft_fit(universe: PromptUniverse, cfg: TrainConfig) -> Policy:
    """Maximize mean log-likelihood of each train prompt's best response.

    Minibatch ascent (Adam, warmup + cosine) over cfg.sft.epochs passes; the
    result is both the starting policy and the frozen reference. The
    minibatch gradient of -log pi(chosen) is -mean(phi_chosen - p^T F), over
    the batch's stacked (b, V, d) features F and probabilities p.
    """
    cfg.sft.validate()
    train = universe.train_prompts()
    ids = np.array([p.prompt_id for p in train])
    chosen = np.array([int(np.argmax(p.true_reward)) for p in train])
    n = len(train)
    batch_size = min(cfg.sft.batch, n)
    steps_per_epoch = math.ceil(n / batch_size)
    schedule = DpoConfig(
        learning_rate=cfg.sft.learning_rate,
        warmup_ratio=0.05,
        lr_schedule="cosine",
        max_steps=max(cfg.sft.epochs * steps_per_epoch, 1),
        updates_per_sample=1,
    )
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
            theta, state = optimizer_step(state, theta, grad, schedule)
            if not np.all(np.isfinite(theta)):
                raise TrainingError(
                    f"supervised fit diverged at update {state.step}; "
                    "reduce sft.learning_rate"
                )
    return Policy(theta, label="sft")


def _annotator_for_run(cfg: TrainConfig, universe: PromptUniverse) -> Judge:
    # fold run_seed into the judge seed so seeds get independent label noise
    spec = replace(cfg.annotator, seed=mix_seeds(cfg.annotator.seed, cfg.run_seed))
    return make_judge(spec, universe)


def run_online_dpo(
    universe: PromptUniverse, sft_policy: Policy, cfg: TrainConfig
) -> RunResult:
    """Execute the online loop; deterministic given (universe, cfg)."""
    cfg.validate()
    sel = cfg.selection
    beta = cfg.dpo.beta
    train = universe.train_prompts()
    if sel.batch_prompts > len(train):
        raise ConfigurationError(
            f"batch_prompts {sel.batch_prompts} exceeds the {len(train)} train prompts"
        )

    ref = Policy(sft_policy.theta, label="sft")
    policy = Policy(sft_policy.theta, label="step-0")
    opt_state = OptimizerState.initial(policy.feature_dim)
    counters = OpCounters()
    events: list[dict] = []
    logs: list[IterationLog] = []

    prompt_rng = substream(cfg.run_seed, "prompts")
    gen_rng = substream(cfg.run_seed, "generation")
    select_rng = substream(cfg.run_seed, "random-selector")
    annotator = _annotator_for_run(cfg, universe)

    aborted = False
    for t in range(1, cfg.dpo.max_steps + 1):
        batch_idx = prompt_rng.permutation(len(train))[: sel.batch_prompts]
        records = [train[i] for i in batch_idx]
        csets = generate_candidates(policy, records, sel, gen_rng, counters)
        events.append(
            {
                "type": "candidates",
                "iteration": t,
                "prompt_ids": [c.prompt_id for c in csets],
                "candidates": [c.candidates for c in csets],
            }
        )
        pools = [form_pairs(c) for c in csets]
        for pool in pools:
            if not pool.pairs:
                events.append(
                    {"type": "degenerate_prompt", "iteration": t, "prompt_id": pool.prompt_id}
                )

        pair_scores: dict = {}
        if cfg.selector == SELECTOR_RANDOM:
            selected = select_random(pools, sel.label_budget, select_rng)
        else:
            selected = select_apl(
                policy, ref, csets, pools, records, sel, beta, counters, pair_scores
            )
        if len(selected) < sel.label_budget:
            events.append(
                {
                    "type": "budget_shortfall",
                    "iteration": t,
                    "selected": len(selected),
                    "budget": sel.label_budget,
                }
            )

        entropies = [entropy_estimate(c) for c in csets]
        record_by_id = {r.prompt_id: r for r in records}
        batch = []
        for prompt_id, (y1, y2) in selected:
            record = record_by_id[prompt_id]
            winner = annotator.prefer(record, y1, y2)
            counters.judge_queries += 1
            loser = y2 if winner == y1 else y1
            events.append(
                {
                    "type": "selection",
                    "iteration": t,
                    "strategy": cfg.selector,
                    "prompt_id": prompt_id,
                    "pair": [y1, y2],
                    "score": pair_scores.get((prompt_id, (y1, y2))),
                    "winner": winner,
                }
            )
            batch.append(
                (record, PreferenceTriple(prompt_id, winner, loser, annotator.label, t))
            )

        mean_loss = float("nan")
        last_lr = lr_at_step(cfg.dpo, opt_state.step)
        if batch:
            try:
                for _ in range(cfg.dpo.updates_per_sample):
                    loss, grad = dpo_batch_grad(policy, ref, batch, beta)
                    if math.isnan(mean_loss):
                        mean_loss = loss
                    last_lr = lr_at_step(cfg.dpo, opt_state.step)
                    new_theta, opt_state = optimizer_step(opt_state, policy.theta, grad, cfg.dpo)
                    if not np.all(np.isfinite(new_theta)):
                        raise TrainingError(f"non-finite parameters at update {opt_state.step}")
                    policy = Policy(new_theta, label=f"step-{opt_state.step}")
            except TrainingError as exc:
                events.append({"type": "abort", "iteration": t, "reason": str(exc)})
                aborted = True

        logs.append(
            IterationLog(
                iteration=t,
                mean_loss=mean_loss,
                labeled_pairs=len(batch),
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
        events=events,
    )
