"""Supervised initialization and the online preference-training loop.

One run: fit an initial policy on each train prompt's best response, freeze
it as the reference, then iterate

    sample B train prompts -> generate M candidates each -> form pair pools
    -> select pairs (random or uncertainty-based) -> label them with the
    annotator judge -> take ``updates_per_sample`` optimizer steps on the
    labeled batch.

Each stage runs once per iteration on the whole batch. The prompt ids index
``PromptUniverse.features`` once, and every later stage reads the gathered
(B, V, d) features by batch row: (B, M) candidates, pairs as (batch row, y1,
y2) columns, selected indices, one labelling call, and the winner-minus-loser
feature differences that all of the iteration's updates reuse, in one
``dpo_updates`` call. The loop checks its inputs once; of the stages that
check caller indices (``select_apl``, ``Judge.prefer_batch``,
``preference_deltas``) it calls the unchecked kernel, which takes the same
arguments.

The loop writes no file. It returns what happened as arrays in its
``RunResult``: each iteration's ``METRICS`` row, prompt ids and candidates,
and every labelled pair with its winner (and its APL margin) in labelling
order, each integer array in the smallest unsigned dtype of its bound. The
harness writes them as the run's ``metrics.csv`` and ``events.jsonl``.

All stochastic streams are keyed by run_seed and a purpose tag, never by the
selector, so runs that differ only in selector share prompt, generation, and
supervised-fit randomness (paired comparisons). The annotator's stream is
additionally folded with run_seed so different seeds see independent label
noise. Non-finite parameters abort the run with a partial result whose
``abort_reason`` says why (checked after every update by ``dpo_updates``,
with numpy's overflow warnings off), keeping the policy of the last finite
update; collapse is data, not failure.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dpo import (
    DpoConfig,
    OptimizerState,
    _preference_deltas,
    dpo_updates,
    lr_at_step,
    optimizer_step,
)
from .dpo import dpo_batch_grad  # noqa: F401  (traced by bench/spans.py)
from .errors import ConfigurationError, TrainingError
from .judges import Judge, JudgeSpec
from .policy import Policy, check_feature_dim, log_softmax
from .policy import grad_log_prob  # noqa: F401  (traced by bench/spans.py)
from .rng import check_seed, substream
from .selection import (
    SELECTOR_RANDOM,
    OpCounters,
    SelectionConfig,
    _select_apl,
    check_selector,
    entropy_estimate,
    form_pairs,
    generate_candidates,
    select_random,
)
from .selection import select_apl  # noqa: F401  (traced by bench/spans.py)
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
class TrainTemplate:
    """The training settings every cell of a grid shares."""

    dpo: DpoConfig = field(default_factory=DpoConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    sft: SftConfig = field(default_factory=SftConfig)


@dataclass(frozen=True)
class TrainConfig(TrainTemplate):
    """One run: the grid's template plus the cell's selector, annotator and seed."""

    selector: str = SELECTOR_RANDOM
    annotator: JudgeSpec = field(default_factory=lambda: JudgeSpec(label="annotator"))
    run_seed: int = 0

    def __post_init__(self) -> None:
        check_selector(self.selector)
        check_seed(self.run_seed, "run_seed")


# one iteration's metrics: the record's row and metrics.csv's columns, in order
METRICS = np.dtype([
    ("iteration", "<i8"), ("mean_loss", "<f8"), ("labeled_pairs", "<i8"), ("lr", "<f8"),
    ("entropy_min", "<f8"), ("entropy_mean", "<f8"), ("entropy_max", "<f8"),
])


@dataclass
class RunResult:
    final_policy: Policy
    sft_policy: Policy
    counters: OpCounters
    abort_reason: Optional[str]  # None for a run that finished
    # the record, one row per iteration run (an aborted run stops at its last)
    metrics: np.ndarray  # (T,) METRICS
    prompt_ids: np.ndarray  # (T, B)
    candidates: np.ndarray  # (T, B, M) response indices
    selections: np.ndarray  # (n, 4) rows (prompt_id, y1, y2, winner), in labelling order
    scores: Optional[np.ndarray]  # (n,) float64 APL margins; None for random


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


@np.errstate(over="ignore", invalid="ignore")
def sft_fit(universe: PromptUniverse, cfg: TrainConfig) -> Policy:
    """Maximize mean log-likelihood of each train prompt's best response.

    Minibatch ascent (Adam, ``sft_lr_at_step``) over cfg.sft.epochs passes;
    the result is both the starting policy and the frozen reference. The
    minibatch gradient of -log pi(chosen) is -mean(phi_chosen - p^T F), over
    the batch's stacked (b, V, d) features F and probabilities p. Overflow in
    the arithmetic is checked, not warned about: the first non-finite logits
    or parameters raise TrainingError.
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
    diverged = "supervised fit diverged at update {}; reduce sft.learning_rate"
    for _ in range(cfg.sft.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            features = universe.features[ids[batch]]
            z = features @ theta
            if not np.isfinite(z).all():
                raise TrainingError(diverged.format(state.step + 1))
            probs = np.exp(log_softmax(z))
            expected = np.einsum("bv,bvd->bd", probs, features)
            grad = -(features[np.arange(batch.size), chosen[batch]] - expected).sum(axis=0)
            grad /= batch.size
            try:
                lr = sft_lr_at_step(cfg.sft, state.step, total)
                theta, state = optimizer_step(state, theta, grad, lr)
            except TrainingError as exc:
                raise TrainingError(diverged.format(state.step + 1)) from exc
    return Policy(theta)


def batch_train_ids(universe: PromptUniverse, sel: SelectionConfig) -> np.ndarray:
    """The universe's train prompt ids, from which each iteration samples
    ``sel.batch_prompts``; ConfigurationError when they are fewer."""
    train_ids = universe.role_ids(ROLE_TRAIN)
    if sel.batch_prompts > train_ids.size:
        raise ConfigurationError(
            f"batch_prompts {sel.batch_prompts} exceeds the {train_ids.size} train prompts"
        )
    return train_ids


def run_online_dpo(universe: PromptUniverse, sft_policy: Policy, cfg: TrainConfig) -> RunResult:
    """Execute the online loop; deterministic given (universe, cfg).

    The inputs are checked once, here: the feature dimension against the SFT
    policy, the train prompts against the batch size, and the config by its
    types. Every index the loop then builds is in range by construction, so
    it calls the checking stages' unchecked kernels."""
    sel = cfg.selection
    train_ids = batch_train_ids(universe, sel)
    check_feature_dim(universe.features, sft_policy)

    ref = policy = sft_policy  # immutable: the frozen reference and the starting policy
    opt_state = OptimizerState.initial(policy.feature_dim)
    counters = OpCounters()

    prompt_rng = substream(cfg.run_seed, "prompts")
    gen_rng = substream(cfg.run_seed, "generation")
    select_rng = substream(cfg.run_seed, "random-selector")
    annotator = Judge.for_run(cfg.annotator, universe, cfg.run_seed)

    features = universe.features
    n_prompts, n_responses = features.shape[:2]
    steps, b, m = cfg.dpo.max_steps, sel.batch_prompts, sel.candidates_per_prompt
    metrics = np.empty(steps, METRICS)
    prompt_record = np.empty((steps, b), np.min_scalar_type(n_prompts))
    candidate_record = np.empty((steps, b, m), np.min_scalar_type(n_responses))
    # sized by the labels bought, which may be far fewer than steps * L
    selection_dtype = np.min_scalar_type(max(n_prompts, n_responses))
    selections = array.array(selection_dtype.char)
    scores = None if cfg.selector == SELECTOR_RANDOM else array.array("d")
    abort_reason, t = None, 0  # t: the iterations run
    for t in range(1, steps + 1):
        prompt_ids = train_ids[prompt_rng.permutation(train_ids.size)[: sel.batch_prompts]]
        batch_features = features[prompt_ids]
        candidates, log_probs = generate_candidates(policy, batch_features, sel, gen_rng, counters)
        prompt_record[t - 1], candidate_record[t - 1] = prompt_ids, candidates
        rows, y1, y2 = form_pairs(candidates)

        entropies = entropy_estimate(log_probs)
        if cfg.selector == SELECTOR_RANDOM:
            picked = select_random(rows, sel.label_budget, select_rng)  # reads the pair count
        else:
            picked, margins = _select_apl(
                policy, ref, batch_features, prompt_ids, entropies, rows, y1, y2, sel,
                cfg.dpo.beta, counters,
            )
            scores.frombytes(margins.tobytes())

        rows, y1, y2 = rows[picked], y1[picked], y2[picked]
        pair_prompts = prompt_ids[rows]
        winners = annotator._prefer_batch(pair_prompts, y1, y2)
        counters.judge_queries += picked.size
        labelled = np.stack([pair_prompts, y1, y2, winners], axis=1)
        selections.frombytes(labelled.astype(selection_dtype).tobytes())

        mean_loss = float("nan")
        last_lr = lr_at_step(cfg.dpo, opt_state.step)
        if picked.size:
            losers = np.where(winners == y1, y2, y1)
            dphi = _preference_deltas(batch_features, rows, winners, losers)
            batch = dpo_updates(policy, ref, opt_state, dphi, cfg.dpo)
            opt_state, mean_loss, last_lr = batch.state, batch.loss, batch.lr
            policy = Policy(batch.theta)
            abort_reason = batch.abort_reason

        entropy = (entropies.min(), entropies.sum() / entropies.size, entropies.max())
        metrics[t - 1] = (t, mean_loss, picked.size, last_lr, *entropy)
        if abort_reason is not None:
            break

    return RunResult(
        final_policy=policy,
        sft_policy=ref,
        counters=counters,
        abort_reason=abort_reason,
        metrics=metrics[:t],
        prompt_ids=prompt_record[:t],
        candidates=candidate_record[:t],
        selections=np.frombuffer(selections, selection_dtype).reshape(-1, 4),
        scores=None if scores is None else np.frombuffer(scores),
    )
