"""Experiment grids over (selector x annotator x seed), aggregation, reports.

A grid config is a single JSON document, built into an ``ExperimentGrid`` by
one ``schema.build_dataclass`` walk, so the config dataclasses are the only
statement of its fields, types and defaults. Parsing is fail-closed: unknown
keys are rejected, and every field left to its default is recorded so the
echoed manifest makes each run self-describing. One run directory is produced
per (selector, annotator, seed) cell, holding the manifest, per-iteration
metrics CSV, the event stream (written while the loop runs), policy
checkpoints, op counters, and one eval row per evaluator (none for an aborted
run). The manifest records how the run ended, and it is the one record every
reader takes the outcome from. Runs that share (annotator, seed) differ only
in selector and use identical random streams, so selector comparisons are
paired.

``run_grid`` runs every cell (``preflab train`` is a one-cell grid) and
refuses existing run directories without overwrite; ``save_universe`` keeps
one universe per output directory, so a grid grows by new cells only.

Reports, from one read of the run directories: ``summary.csv`` (mean +/-
sample std per cell plus collapse counts and extra scoring ops), ``welch.csv``
(Welch two-sample tests between selectors per annotator/evaluator/metric), and
``pareto.csv`` (one point per run and evaluator, plot-ready).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import __version__ as _package_version
from .errors import ConfigurationError, TrainingError
from .evaluation import capability_delta, collapse_metrics, estimate_win_rate, probe_accuracy
from .judges import Judge, JudgeSpec
from .rng import substream
from .schema import build_dataclass, json_key
from .selection import SELECTOR_APL, SELECTOR_RANDOM, OpCounters, check_selector, counters_report
from .trainer import (
    IterationLog,
    RunResult,
    TrainConfig,
    TrainTemplate,
    batch_train_ids,
    run_online_dpo,
    sft_fit,
)
from .universe import ROLE_EVAL, PromptUniverse, UniverseConfig, generate_universe

PARETO_CSV_HEADER = [
    "run_id",
    "selector",
    "annotator",
    "evaluator",
    "seed",
    "win_rate",
    "delta_acc_pp",
    "collapse_flag",
]
# the files a run writes; a reused run directory loses them, manifest.json first
RUN_FILES = ("manifest.json", "eval.csv", "metrics.csv", "events.jsonl", "counters.json",
             "sft_policy.json", "final_policy.json")
# pareto.csv columns named differently in eval.csv
_EVAL_COLUMN = {"annotator": "annotator_label", "evaluator": "evaluator_label"}
WELCH_CSV_HEADER = [
    "annotator",
    "evaluator",
    "metric",
    "selector_a",
    "selector_b",
    "n_a",
    "n_b",
    "mean_a",
    "mean_b",
    "t_stat",
    "p_value",
    "note",
]


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


@dataclass
class EvalRow:
    """One eval.csv row: a finished run scored by one evaluator."""

    run_id: str
    selector: str
    annotator_label: str
    evaluator_label: str
    seed: int
    win_rate: float
    ci_low: float
    ci_high: float
    probe_acc: float
    delta_acc_pp: float
    mean_entropy: float
    collapse_flag: bool


@dataclass
class SummaryRow:
    selector: str
    annotator: str
    evaluator: str
    n_seeds: int
    win_rate_mean: float
    win_rate_std: float
    delta_acc_mean: float
    delta_acc_std: float
    collapse_runs: int
    extra_scoring_ops_mean: float


EVAL_CSV_HEADER = [f.name for f in fields(EvalRow)]
SUMMARY_CSV_HEADER = [f.name for f in fields(SummaryRow)]
METRICS_CSV_HEADER = [f.name for f in fields(IterationLog)]


def _parse_bool(text: str) -> bool:
    """A bool as _fmt writes it; ValueError on any text but true and false."""
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# how _read_eval_csv parses each eval.csv column, in header order
_EVAL_PARSERS = [_parse_bool if t is bool else t for t in get_type_hints(EvalRow).values()]


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
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    defaulted = []
    try:
        grid = build_dataclass(ExperimentGrid, json.loads(text), "", defaulted)
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], records, get=getattr) -> None:
    """One row per record, each header column read from it by ``get``: a
    dataclass row's fields by default, a dict's keys with ``dict.__getitem__``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(get(record, key)) for key in header] for record in records)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_id_for(selector: str, annotator_label: str, seed: int) -> str:
    return f"{selector}__{annotator_label}__seed{seed}"


def _write_run_outputs(
    run_dir: Path,
    result: RunResult,
    eval_rows: Optional[list[EvalRow]],
    manifest: dict,
) -> None:
    """Write a trained cell's files beside its streamed events.jsonl; eval.csv
    only when there are eval rows (an aborted run has none)."""
    _write_csv(run_dir / "metrics.csv", METRICS_CSV_HEADER, result.per_iteration)
    _write_json(run_dir / "sft_policy.json", result.sft_policy.to_json_dict())
    _write_json(run_dir / "final_policy.json", result.final_policy.to_json_dict())
    _write_json(run_dir / "counters.json", result.counters.to_json_dict())
    if eval_rows is not None:
        _write_csv(run_dir / "eval.csv", EVAL_CSV_HEADER, eval_rows)
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
    leaves no old outcome. The loop streams events.jsonl into the directory as
    it runs. A cell whose training fails keeps only manifest.json; an aborted
    run records its reason there as "error" and has no eval.csv."""
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
    events_path = run_dir / "events.jsonl"
    try:
        sft_policy = sft_fit(universe, cfg)
        with open(events_path, "w", encoding="utf-8") as events:
            result = run_online_dpo(universe, sft_policy, cfg, events)
    except TrainingError as exc:
        events_path.unlink(missing_ok=True)  # a partial stream is no output
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
    _write_run_outputs(run_dir, result, eval_rows, manifest)
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
    delta_pp = capability_delta(final, sft, universe)
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


def _resolve_universe(grid: ExperimentGrid) -> PromptUniverse:
    if grid.universe_path is not None:
        return PromptUniverse.load(grid.universe_path)
    return generate_universe(grid.universe)


_worker_universe: Optional[PromptUniverse] = None


def _set_worker_universe(universe: PromptUniverse) -> None:
    """Pool initializer, run once in each worker process (never in the parent):
    the worker keeps the grid's saved, hashed universe for all its cells."""
    global _worker_universe
    _worker_universe = universe


def _cell_worker(args: tuple) -> str:
    return str(run_cell(_worker_universe, *args))


def save_universe(universe: PromptUniverse, path: Path, overwrite: bool) -> bool:
    """The one rule for universe.json: write it when it is absent or on
    overwrite, keep a file that holds this universe, and refuse any other.
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
    one worker process per cell."""
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

    universe = _resolve_universe(grid)
    batch_train_ids(universe, grid.train.selection)  # refuse before writing anything
    out.mkdir(parents=True, exist_ok=True)
    save_universe(universe, out / "universe.json", overwrite)

    cell_args = [
        (grid.train, selector, annotator, seed, grid.evaluators, grid.eval_settings, run_dir,
         grid_manifest)
        for (selector, annotator, seed), run_dir in zip(cells, run_dirs)
    ]
    workers = min(parallel, len(cells))  # a pool forks every worker at its first submit
    if workers == 1:
        for args in cell_args:
            run_cell(universe, *args)
        return run_dirs

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_worker_universe, initargs=(universe,)
    ) as pool:
        list(pool.map(_cell_worker, cell_args))
    return run_dirs


# --------------------------------------------------------------------------
# aggregation and reports
# --------------------------------------------------------------------------


def _read_runs(
    run_dirs: Sequence[Path],
) -> tuple[list[EvalRow], dict[str, OpCounters], list[tuple[Path, str]]]:
    """From one read of each manifest.json: the eval.csv rows of the runs that
    completed without aborting, the counters.json of each such run that has one
    by its rows' run_id, and every other directory with why it is left out (an
    eval.csv or counters.json that does not parse leaves its run out). Included
    runs that differ in universe_hash, grid.config.train or grid.config.eval are
    a ConfigurationError."""
    rows, counters, skipped, first = [], {}, [], None
    for run_dir in map(Path, run_dirs):
        try:
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
            outcome = run_outcome(manifest)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            skipped.append((run_dir, "unreadable manifest"))
            continue
        if outcome != "completed":
            error = manifest.get("error", "no error recorded")
            skipped.append((run_dir, f"the run {outcome}: {error}"))
            continue
        config = manifest.get("grid", {}).get("config", {})
        grid = (manifest.get("universe_hash"), config.get("train"), config.get("eval"))
        first = first or (run_dir, grid)
        if grid != first[1]:
            raise ConfigurationError(
                f"{run_dir} and {first[0]} differ in universe_hash, grid.config.train "
                "or grid.config.eval; report one grid per directory"
            )
        path = run_dir / "eval.csv"
        if not path.exists():
            skipped.append((run_dir, "no eval.csv"))
            continue
        try:  # path names the file read last, so the warning names the one that failed
            run_rows = _read_eval_csv(path)
            path = run_dir / "counters.json"
            run_counters = _read_counters(path) if path.exists() else None
        except (OSError, ValueError, csv.Error) as exc:
            skipped.append((run_dir, f"unreadable {path.name}: {exc}"))
            continue
        if run_counters is not None:
            counters.update((row.run_id, run_counters) for row in run_rows)
        rows += run_rows
    return rows, counters, skipped


def _read_eval_csv(path: Path) -> list[EvalRow]:
    """A run's eval.csv rows; ValueError unless its header is EVAL_CSV_HEADER and it
    has at least one row, each with one cell per column that parses as its type."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != EVAL_CSV_HEADER:
            raise ValueError("its header is not the EvalRow fields")
        rows = []
        for record in reader:
            if len(record) != len(_EVAL_PARSERS):
                raise ValueError(f"line {reader.line_num} has {len(record)} cells")
            rows.append(EvalRow(*(parse(cell) for parse, cell in zip(_EVAL_PARSERS, record))))
    if not rows:
        raise ValueError("no rows")
    return rows


def _read_counters(path: Path) -> OpCounters:
    """A run's counters.json; ValueError unless it is an object of every OpCounters
    field as an int, and nothing else."""
    defaulted: list[str] = []
    data = json.loads(path.read_text(encoding="utf-8"))
    counters = build_dataclass(OpCounters, data, "", defaulted)
    if defaulted:
        raise ValueError(f"no {', '.join(defaulted)}")
    return counters


def _welch(a: Sequence[float], b: Sequence[float]) -> Optional[tuple[float, float]]:
    """Welch's t with scipy.stats.ttest_ind(equal_var=False)'s arithmetic, and its
    two-sided p within 1e-12 relative; None where the test is degenerate: fewer than
    two values on a side, zero variance on both, a NaN t or a non-finite df."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2 or (np.var(a) == 0.0 and np.var(b) == 0.0):
        return None
    va, vb = (np.mean((x - x.mean()) ** 2) * (x.size / (x.size - 1)) / x.size for x in (a, b))
    df = float((va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1)))
    t = float((a.mean() - b.mean()) / np.sqrt(va + vb))
    return None if math.isnan(t) or not math.isfinite(df) else (t, _t_two_sided_p(t, df))


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df > 0: the regularized incomplete beta
    I_x(df/2, 1/2) at x = df/(df + t^2). For df <= 1e4 it is within 1e-12
    relative of the exact tail wherever that is >= 1e-300."""
    t2 = t * t
    a, x, y = df / 2.0, df / (df + t2), t2 / (df + t2)
    if math.isinf(t2) or y == 0.0:
        return 0.0 if math.isinf(t2) else 1.0
    if a > 100:  # Stirling's series, where lgamma(a + 1/2) - lgamma(a) would cancel
        log_ratio = a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
        log_ratio += (1 / (a + 0.5) - 1 / a) / 12 - ((a + 0.5) ** -3 - a**-3) / 360
    else:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    # x^a y^(1/2) / B(a, 1/2), which is symmetric in (a, x) <-> (1/2, y)
    front = math.exp(0.5 * math.log(y) - a * math.log1p(t2 / df) + log_ratio) / math.sqrt(math.pi)
    # Lentz's continued fraction converges fast below x = (a + 1)/(a + b + 2); above, 1 - I_y(b, a)
    flip = x >= (a + 1.0) / (a + 2.5)
    a, b, x = (0.5, a, y) if flip else (a, 0.5, x)
    c, d, f = 1.0, 0.0, 1.0
    for j in range(1, 20_000):
        m = j // 2
        num = (m * (b - m) if j % 2 == 0 else -(a + m) * (a + b + m)) * x / ((a + j - 1) * (a + j))
        d = 1.0 / ((1.0 + num * d) or 1e-300)  # a zero denominator becomes tiny
        c = (1.0 + num / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return 1.0 - front / (a * f) if flip else front / (a * f)


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def aggregate_summary(
    run_dirs: Sequence[Path],
) -> tuple[list[SummaryRow], list[dict], list[dict]]:
    """From one read of the runs: mean +/- sample std per (selector, annotator,
    evaluator), the Welch tests, and the pareto points (one per run and
    evaluator).

    Welch's unequal-variance t-test compares selector pairs on win_rate and
    delta_acc_pp; cells with fewer than two seeds or zero variance on both
    sides are reported as degenerate rather than fabricating a p-value. A run
    left out (see _read_runs) is named in a warning on stderr with its reason,
    so a shrunken n_seeds never goes unnoticed, and so is each (annotator,
    seed) whose selectors bought different numbers of judge queries.
    """
    rows, counters, skipped = _read_runs(run_dirs)
    for run_dir, why in skipped:
        print(f"warning: {run_dir} is left out of the report ({why})", file=sys.stderr)
    if not rows:
        raise ConfigurationError("no eval.csv rows found under the given run directories")

    # runs that share (annotator, seed) differ only in selector: they are the compared pairs
    paired: dict[tuple[str, int], dict[str, OpCounters]] = {}
    for row in rows:
        if row.run_id in counters:
            paired.setdefault((row.annotator_label, row.seed), {})[row.selector] = counters[row.run_id]
    for (annotator, seed), by_selector in sorted(paired.items()):
        bought = {selector: run.judge_queries for selector, run in by_selector.items()}
        if len(set(bought.values())) > 1:
            counts = ", ".join(f"{sel} {n}" for sel, n in sorted(bought.items()))
            print(
                f"warning: annotator {annotator!r} seed {seed}: selectors bought "
                f"different judge-query counts ({counts})",
                file=sys.stderr,
            )

    cells: dict[tuple[str, str], dict[str, list[EvalRow]]] = {}
    for row in sorted(rows, key=lambda r: r.seed):
        key = (row.annotator_label, row.evaluator_label)
        cells.setdefault(key, {}).setdefault(row.selector, []).append(row)

    summary, welch_records = [], []
    for (annotator, evaluator), by_selector in sorted(cells.items()):
        for selector, cell in by_selector.items():
            win_rates = [r.win_rate for r in cell]
            deltas = [r.delta_acc_pp for r in cell]
            # against the paired random run, or against no scoring without one
            extras = [
                counters_report(
                    counters[r.run_id], paired[annotator, r.seed].get(SELECTOR_RANDOM, OpCounters())
                )["extra_scoring_evals"]
                for r in cell if r.run_id in counters
            ]
            summary.append(
                SummaryRow(
                    selector=selector,
                    annotator=annotator,
                    evaluator=evaluator,
                    n_seeds=len(cell),
                    win_rate_mean=float(np.mean(win_rates)),
                    win_rate_std=_sample_std(win_rates),
                    delta_acc_mean=float(np.mean(deltas)),
                    delta_acc_std=_sample_std(deltas),
                    collapse_runs=sum(1 for r in cell if r.collapse_flag),
                    extra_scoring_ops_mean=float(np.mean(extras)) if extras else 0.0,
                )
            )
        for sel_a, sel_b in combinations(sorted(by_selector), 2):
            for metric in ("win_rate", "delta_acc_pp"):
                a = [getattr(r, metric) for r in by_selector[sel_a]]
                b = [getattr(r, metric) for r in by_selector[sel_b]]
                test = _welch(a, b)
                t_stat, p_value = test if test else ("", "")
                welch_records.append(
                    {
                        "annotator": annotator,
                        "evaluator": evaluator,
                        "metric": metric,
                        "selector_a": sel_a,
                        "selector_b": sel_b,
                        "n_a": len(a),
                        "n_b": len(b),
                        "mean_a": float(np.mean(a)),
                        "mean_b": float(np.mean(b)),
                        "t_stat": t_stat,
                        "p_value": p_value,
                        "note": "" if test else "degenerate",
                    }
                )
    summary.sort(key=lambda row: (row.selector, row.annotator, row.evaluator))
    rows.sort(key=lambda r: (r.selector, r.annotator_label, r.seed, r.evaluator_label))
    pareto = [{key: getattr(r, _EVAL_COLUMN.get(key, key)) for key in PARETO_CSV_HEADER} for r in rows]
    return summary, welch_records, pareto


def write_summary(
    summary: list[SummaryRow], welch_records: list[dict], pareto: list[dict], out_dir
) -> tuple[Path, Path, Path]:
    """Write summary.csv, welch.csv and pareto.csv under out_dir; their paths."""
    out_dir = Path(out_dir)
    tables = (
        ("summary.csv", SUMMARY_CSV_HEADER, summary, getattr),
        ("welch.csv", WELCH_CSV_HEADER, welch_records, dict.__getitem__),
        ("pareto.csv", PARETO_CSV_HEADER, pareto, dict.__getitem__),
    )
    for name, header, records, get in tables:
        _write_csv(out_dir / name, header, records, get)
    return tuple(out_dir / name for name, *_ in tables)


def run_outcome(manifest: dict) -> str:
    """How a run ended, from its manifest: "completed", "failed" or "aborted"."""
    return "aborted" if manifest.get("aborted") else manifest["status"]


def discover_run_dirs(out_dir) -> list[Path]:
    """Each directory under ``out_dir``, with or without manifest.json (a killed
    run); a missing or empty ``out_dir`` is a ConfigurationError."""
    run_dirs = sorted(path for path in Path(out_dir).glob("*") if path.is_dir())
    if not run_dirs:
        raise ConfigurationError(f"no run directories found under {out_dir}")
    return run_dirs
