"""Experiment grids over (selector x annotator x seed): config parsing and
grid execution.

A grid config is a single JSON document, built into an ``ExperimentGrid`` by
one ``schema.build_dataclass`` walk, so the config dataclasses are the only
statement of its fields, types and defaults. Parsing is fail-closed: unknown
keys are rejected, and every field left to its default is recorded so the
echoed manifest makes each run self-describing. One run directory is produced
per (selector, annotator, seed) cell, holding the manifest, per-iteration
metrics CSV, the event stream, the SFT and final parameters (``run.npz``), op
counters, and one eval row per evaluator (none for an aborted run). Every file
is written after the loop returns: ``write_events`` renders the loop's run
record as ``events.jsonl``, the one writer of event text. The manifest records
how the run ended, and ``report.read_outcome`` is the one reader that takes
the outcome from it. Runs that share (annotator, seed) differ only in selector
and use identical random streams, so selector comparisons are paired, and
they start from one SFT policy: ``run_cell`` fits it once per universe object
and keeps it there (``PromptUniverse.sft_fits``), so a grid's cells, or direct
``run_cell`` calls on one universe, share it, and each pool worker fits from
its own copy of the universe.

``run_grid`` runs every cell (``preflab train`` is a one-cell grid) and
refuses existing run directories without overwrite; ``save_universe`` keeps
one ``universe.npz`` per output directory, so a grid grows by new cells only.
``report._write_csv`` writes eval.csv's ``EvalRow`` rows and metrics.csv's
``METRICS`` rows, and ``report`` reads the run directories back.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from . import __version__ as _package_version
from .errors import ConfigurationError, TrainingError
from .evaluation import collapse_metrics, estimate_win_rate, probe_accuracy
from .judges import Judge, JudgeSpec
from .policy import Policy
from .report import EVAL_CSV_HEADER, EvalRow, _write_csv
from .rng import check_seed, substream
from .schema import build_dataclass, json_key, load_json
from .selection import SELECTOR_APL, SELECTOR_RANDOM, check_selector, degenerate_rows
from .trainer import (
    METRICS,
    RunResult,
    TrainConfig,
    TrainTemplate,
    batch_train_ids,
    run_online_dpo,
    sft_fit,
)
from .universe import ROLE_EVAL, PromptUniverse, UniverseConfig, generate_universe

# the files a run writes; a reused run directory loses them, manifest.json first
RUN_FILES = ("manifest.json", "eval.csv", "metrics.csv", "events.jsonl", "counters.json", "run.npz")


@dataclass(frozen=True)
class EvalSettings:
    n_trials: int = 2000
    collapse_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ConfigurationError(f"eval.n_trials must be >= 1, got {self.n_trials}")
        if not 0.0 < self.collapse_fraction < 1.0:
            raise ConfigurationError(
                f"eval.collapse_fraction must lie in (0, 1), got {self.collapse_fraction}"
            )


@dataclass(frozen=True)
class ExperimentGrid:
    universe: Optional[UniverseConfig] = None
    universe_path: Optional[str] = None
    train: TrainTemplate = field(default_factory=TrainTemplate)
    selectors: list[str] = field(default_factory=lambda: [SELECTOR_RANDOM, SELECTOR_APL])
    annotators: list[JudgeSpec] = field(default_factory=list)
    evaluators: list[JudgeSpec] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [42, 43, 44])
    eval_settings: EvalSettings = field(default_factory=EvalSettings, metadata={"key": "eval"})
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        if (self.universe is None) == (self.universe_path is None):
            raise ConfigurationError(
                "exactly one of 'universe' and 'universe_path' must be given"
            )
        for name in ("selectors", "seeds", "annotators", "evaluators"):
            if not getattr(self, name):
                raise ConfigurationError(f"{name} must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds contain duplicates: {self.seeds}")
        for i, seed in enumerate(self.seeds):
            check_seed(seed, f"seeds[{i}]")
        for selector in self.selectors:
            check_selector(selector)
        if len(set(self.selectors)) != len(self.selectors):
            raise ConfigurationError("selectors contain duplicates")
        for group_name, specs in (("annotators", self.annotators), ("evaluators", self.evaluators)):
            labels = [s.label for s in specs]
            if len(set(labels)) != len(labels):
                raise ConfigurationError(f"{group_name} labels must be distinct: {labels}")
        # a judge's noise stream is keyed by its label: a shared one would replay labels
        shared = sorted({a.label for a in self.annotators} & {e.label for e in self.evaluators})
        if shared:
            raise ConfigurationError(f"annotators and evaluators share label(s) {shared}")


# --------------------------------------------------------------------------
# config parsing (fail-closed, defaults recorded)
# --------------------------------------------------------------------------


def parse_config(path) -> tuple[ExperimentGrid, dict]:
    """Load a grid config and build it with one schema walk over ``ExperimentGrid``;
    returns (grid, manifest echo): the fully-resolved config, each field under
    its JSON key, and the key path of every field filled from its default.
    Every error names the file and the key path."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    defaulted = []
    try:
        grid = build_dataclass(ExperimentGrid, load_json(text), "", defaulted)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    config = {json_key(f): value for f, value in zip(fields(grid), asdict(grid).values())}
    return grid, {"config": config, "defaulted_fields": sorted(defaulted)}


# --------------------------------------------------------------------------
# deterministic file emission
# --------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_id_for(selector: str, annotator_label: str, seed: int) -> str:
    return f"{selector}__{annotator_label}__seed{seed}"


def _json_floats(values: list[float]) -> list[str]:
    """Each float's text as ``json.dumps`` writes it (``NaN``/``Infinity``
    included), from one encoder call for the whole list."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def write_events(events: TextIO, result: RunResult, cfg: TrainConfig) -> None:
    """Render the run record as events.jsonl text into ``events``, one iteration
    at a time: its candidates, its degenerate prompts, a budget shortfall when
    it labelled fewer than L pairs, and its selections; an aborted run's abort
    line comes last. Each line is canonical JSON (``json.dumps(event,
    sort_keys=True)`` plus a newline), from f-strings that substitute only ints
    and text equal to ``json.dumps``'s."""
    budget, strategy = cfg.selection.label_budget, json.dumps(cfg.selector)
    # each response index's text, looked up: joining a gather of it writes the
    # (B, M) candidates in about half the time of str() on their list
    response_text = np.array([str(y) for y in range(result.candidates.max(initial=0) + 1)])
    degenerate = degenerate_rows(result.candidates)
    end = 0
    for t, labelled in enumerate(result.metrics["labeled_pairs"].tolist(), 1):
        prompt_ids, candidates = result.prompt_ids[t - 1], response_text[result.candidates[t - 1]]
        events.write(
            f'{{"candidates": [[{"], [".join(map(", ".join, candidates.tolist()))}]], '
            f'"iteration": {t}, "prompt_ids": {prompt_ids.tolist()}, "type": "candidates"}}\n'
        )
        degenerate_ids = prompt_ids[degenerate[t - 1]].tolist()
        if degenerate_ids:
            head, tail = f'{{"iteration": {t}, "prompt_id": ', ', "type": "degenerate_prompt"}\n'
            events.write(head + (tail + head).join(map(str, degenerate_ids)) + tail)
        if labelled < budget:
            events.write(
                f'{{"budget": {budget}, "iteration": {t}, '
                f'"selected": {labelled}, "type": "budget_shortfall"}}\n'
            )
        start, end = end, end + labelled
        scores = (
            ["null"] * labelled if result.scores is None
            else _json_floats(result.scores[start:end].tolist())
        )
        rows = zip(result.selections[start:end].tolist(), scores)
        events.write("".join([
            f'{{"iteration": {t}, "pair": [{a}, {b}], "prompt_id": {prompt_id}, '
            f'"score": {score}, "strategy": {strategy}, "type": "selection", '
            f'"winner": {winner}}}\n'
            for (prompt_id, a, b, winner), score in rows
        ]))
    if result.abort_reason is not None:
        abort = {"type": "abort", "iteration": len(result.metrics),
                 "reason": result.abort_reason}
        events.write(json.dumps(abort, sort_keys=True) + "\n")


def _write_run_outputs(
    run_dir: Path,
    result: RunResult,
    cfg: TrainConfig,
    eval_rows: Optional[list[EvalRow]],
    manifest: dict,
) -> None:
    """Write a trained cell's files, manifest.json last; eval.csv only when
    there are eval rows (an aborted run has none)."""
    _write_csv(run_dir / "metrics.csv", METRICS.names, result.metrics.tolist())
    with open(run_dir / "events.jsonl", "w", encoding="utf-8") as events:
        write_events(events, result, cfg)
    with open(run_dir / "run.npz", "wb") as fh:
        np.savez(fh, sft_theta=result.sft_policy.theta, final_theta=result.final_policy.theta)
    _write_json(run_dir / "counters.json", asdict(result.counters))
    if eval_rows is not None:
        _write_csv(run_dir / "eval.csv", EVAL_CSV_HEADER, map(astuple, eval_rows))
    _write_json(run_dir / "manifest.json", manifest)


def run_cell(
    universe: PromptUniverse,
    template: TrainTemplate,
    selector: str,
    annotator: JudgeSpec,
    seed: int,
    evaluators: Sequence[JudgeSpec],
    eval_settings: EvalSettings,
    run_dir,
    grid_manifest: dict,
) -> Path:
    """Train one (selector, annotator, seed) cell and write its run directory.

    A reused directory first loses its RUN_FILES, so a failed or killed rerun
    leaves no old outcome. A cell whose training fails keeps only manifest.json;
    an aborted run records its reason there as "error" and has no eval.csv."""
    run_dir = Path(run_dir)
    cfg = TrainConfig(**vars(template), selector=selector, annotator=annotator, run_seed=seed)
    run_id = run_id_for(selector, annotator.label, seed)
    # the manifest hash covers the cell's own fields and the grid config
    cell = {"selector": selector, "annotator": asdict(annotator), "seed": seed,
            "universe_hash": universe.content_hash()}
    hashed = json.dumps(dict(cell, config=grid_manifest["config"]), sort_keys=True)
    manifest = dict(cell, run_id=run_id, status="completed", package_version=_package_version,
                    manifest_hash=hashlib.sha256(hashed.encode("utf-8")).hexdigest(),
                    grid=grid_manifest)
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in RUN_FILES:
        (run_dir / name).unlink(missing_ok=True)
    try:
        result = run_online_dpo(universe, _fit_sft(universe, cfg), cfg)
    except TrainingError as exc:
        manifest.update(status="failed", error=str(exc))
        _write_json(run_dir / "manifest.json", manifest)
        return run_dir

    manifest["aborted"] = result.abort_reason is not None
    eval_rows = None
    if result.abort_reason is None:
        eval_rows = evaluate_run(
            universe, result, evaluators, eval_settings, run_id, selector, annotator.label, seed
        )
    else:
        manifest["error"] = result.abort_reason
    _write_run_outputs(run_dir, result, cfg, eval_rows, manifest)
    return run_dir


def evaluate_run(
    universe: PromptUniverse,
    result: RunResult,
    evaluators: Sequence[JudgeSpec],
    settings: EvalSettings,
    run_id: str,
    selector: str,
    annotator_label: str,
    seed: int,
) -> list[EvalRow]:
    """One eval.csv row per evaluator for a finished run."""
    eval_ids = universe.role_ids(ROLE_EVAL)
    final = result.final_policy
    sft = result.sft_policy
    acc = probe_accuracy(final, universe)
    delta_pp = 100.0 * (acc - probe_accuracy(sft, universe))  # capability_delta, reusing acc
    mean_entropy, collapse = collapse_metrics(
        final, sft, universe.features, eval_ids, settings.collapse_fraction
    )
    rows = []
    for spec in evaluators:
        judge = Judge.for_run(spec, universe, seed)
        rng = substream(seed, "eval", spec.label)
        estimate = estimate_win_rate(
            final, sft, judge, universe.features, eval_ids, settings.n_trials, rng
        )
        rows.append(EvalRow(
            run_id=run_id, selector=selector, annotator_label=annotator_label,
            evaluator_label=spec.label, seed=seed, win_rate=estimate.rate,
            ci_low=estimate.ci_low, ci_high=estimate.ci_high, probe_acc=acc,
            delta_acc_pp=delta_pp, mean_entropy=mean_entropy, collapse_flag=collapse,
        ))
    return rows


_worker_universe: Optional[PromptUniverse] = None


def _fit_sft(universe: PromptUniverse, cfg: TrainConfig) -> Policy:
    """``sft_fit(universe, cfg)``, fitted once per universe object for every
    selector and annotator of a seed and kept on it; a fit that raises is not
    kept, so each cell that asks for it raises again."""
    key = (cfg.sft, cfg.run_seed)
    if key not in universe.sft_fits:
        universe.sft_fits[key] = sft_fit(universe, cfg)
    return universe.sft_fits[key]


def _set_worker_universe(universe: PromptUniverse) -> None:
    """Pool initializer, run once in each worker process (never in the parent):
    the worker keeps its copy of the grid's saved, hashed universe for all its
    cells, and with it the SFT policies it fits for them."""
    global _worker_universe
    _worker_universe = universe


def _cell_worker(args: tuple) -> str:
    return str(run_cell(_worker_universe, *args))


def save_universe(universe: PromptUniverse, path: Path, overwrite: bool) -> bool:
    """The one rule for a universe file: write it when it is absent or on
    overwrite, keep a file that loads as this universe, and refuse any other.
    True when the file was written."""
    if overwrite or not path.exists():
        universe.save(path)
        return True
    if not universe.is_saved_in(path):
        raise ConfigurationError(f"{path} holds another universe (pass --overwrite)")
    return False


def run_grid(
    grid: ExperimentGrid,
    grid_manifest: dict,
    overwrite: bool = False,
    parallel: int = 1,
) -> list[Path]:
    """Execute every (selector, annotator, seed) cell of the grid, on at most
    one worker process per cell. Each seed's SFT policy is fitted once per
    process and shared by the seed's cells, through the universe built here."""
    if parallel < 1:
        raise ConfigurationError(f"--parallel must be >= 1, got {parallel}")
    out = Path(grid.output_dir)
    cells = [
        (selector, annotator, seed)
        for selector in grid.selectors
        for annotator in grid.annotators
        for seed in grid.seeds
    ]
    run_dirs = [
        out / run_id_for(selector, annotator.label, seed) for selector, annotator, seed in cells
    ]
    existing = [d for d in run_dirs if d.exists()]
    if existing and not overwrite:
        raise ConfigurationError(
            f"refusing to overwrite existing run directories (pass --overwrite): "
            f"{[str(d) for d in existing]}"
        )

    if grid.universe_path is not None:
        universe = PromptUniverse.load(grid.universe_path)
    else:
        universe = generate_universe(grid.universe)
    batch_train_ids(universe, grid.train.selection)  # refuse before writing anything
    out.mkdir(parents=True, exist_ok=True)
    save_universe(universe, out / "universe.npz", overwrite)
    universe.content_hash()  # hashed once, before any worker gets a copy of the universe

    cell_args = [
        (grid.train, selector, annotator, seed, grid.evaluators, grid.eval_settings, run_dir,
         grid_manifest)
        for (selector, annotator, seed), run_dir in zip(cells, run_dirs)
    ]
    workers = min(parallel, len(cells))  # a pool forks every worker at its first submit
    if workers == 1:
        for args in cell_args:
            run_cell(universe, *args)
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_set_worker_universe, initargs=(universe,)
        ) as pool:
            list(pool.map(_cell_worker, cell_args))
    return run_dirs
