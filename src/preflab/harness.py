"""Experiment grids over (selector x annotator x seed), aggregation, reports.

A grid config is a single JSON document. Parsing is fail-closed: unknown keys
are rejected, and every field left to its default is recorded so the echoed
manifest makes each run self-describing. One run directory is produced per
(selector, annotator, seed) cell, holding the manifest, per-iteration metrics
CSV, the event stream, policy checkpoints, op counters, and one eval row per
evaluator. Runs that share (annotator, seed) differ only in selector and use
identical random streams, so selector comparisons are paired.

Reports: ``summary.csv`` (mean +/- sample std per cell plus collapse counts
and extra scoring ops), ``welch.csv`` (Welch two-sample tests between
selectors per annotator/evaluator/metric), and ``pareto.csv`` (one point per
run and evaluator, plot-ready).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _package_version
from .dpo import DpoConfig
from .errors import ConfigurationError, TrainingError
from .evaluation import collapse_metrics, estimate_win_rate, probe_accuracy
from .judges import Judge, JudgeSpec
from .rng import mix_seeds, substream
from .schema import build_dataclass, build_value
from .selection import SELECTOR_APL, SELECTOR_RANDOM, SelectionConfig, check_selector
from .trainer import IterationLog, RunResult, SftConfig, TrainConfig, run_online_dpo, sft_fit
from .universe import ROLE_EVAL, PromptUniverse, UniverseConfig, generate_universe

EVAL_CSV_HEADER = [
    "run_id",
    "selector",
    "annotator_label",
    "evaluator_label",
    "seed",
    "win_rate",
    "ci_low",
    "ci_high",
    "probe_acc",
    "delta_acc_pp",
    "mean_entropy",
    "collapse_flag",
]
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
class TrainTemplate:
    dpo: DpoConfig = field(default_factory=DpoConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    sft: SftConfig = field(default_factory=SftConfig)


@dataclass(frozen=True)
class ExperimentGrid:
    universe: Optional[UniverseConfig] = None
    universe_path: Optional[str] = None
    train: TrainTemplate = field(default_factory=TrainTemplate)
    selectors: list[str] = field(default_factory=lambda: [SELECTOR_RANDOM, SELECTOR_APL])
    annotators: list[JudgeSpec] = field(default_factory=list)
    evaluators: list[JudgeSpec] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [42, 43, 44])
    eval_settings: EvalSettings = field(default_factory=EvalSettings)
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


SUMMARY_CSV_HEADER = [f.name for f in fields(SummaryRow)]
METRICS_CSV_HEADER = [f.name for f in fields(IterationLog)]


# --------------------------------------------------------------------------
# config parsing (fail-closed, defaults recorded)
# --------------------------------------------------------------------------


_TOP_LEVEL_KEYS = {f.name for f in fields(ExperimentGrid)} - {"eval_settings"} | {"eval"}


def parse_config(path) -> tuple[ExperimentGrid, dict]:
    """Load and validate a grid config; returns (grid, manifest echo).

    The manifest echo carries the fully-resolved config plus the list of
    fields that were filled from defaults.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigurationError(
            f"{path}: unknown top-level key(s) {unknown}; allowed: {sorted(_TOP_LEVEL_KEYS)}"
        )

    defaulted = [k for k in ("train", "selectors", "seeds", "eval", "output_dir") if k not in data]

    def _optional(key: str, hint: type):
        return None if data.get(key) is None else build_value(hint, data[key], key, [])

    def _section(cls, key: str):
        return build_dataclass(cls, data[key], key, defaulted) if key in data else cls()

    def _list(key: str, default: list, hint: type) -> list:
        entries = data.get(key, default)
        if not isinstance(entries, list):
            raise ConfigurationError(f"{key}: expected a list, got {entries!r}")
        return [build_value(hint, e, f"{key}[{i}]", defaulted) for i, e in enumerate(entries)]

    grid = ExperimentGrid(
        universe=_optional("universe", UniverseConfig),
        universe_path=_optional("universe_path", str),
        train=_section(TrainTemplate, "train"),
        selectors=_list("selectors", [SELECTOR_RANDOM, SELECTOR_APL], str),
        annotators=_list("annotators", [], JudgeSpec),
        evaluators=_list("evaluators", [], JudgeSpec),
        seeds=_list("seeds", [42, 43, 44], int),
        eval_settings=_section(EvalSettings, "eval"),
        output_dir=build_value(str, data.get("output_dir", "runs"), "output_dir", []),
    )
    manifest = {"config": grid_to_dict(grid), "defaulted_fields": sorted(defaulted)}
    return grid, manifest


def grid_to_dict(grid: ExperimentGrid) -> dict:
    config = asdict(grid)
    config["eval"] = config.pop("eval_settings")
    return config


# --------------------------------------------------------------------------
# deterministic file emission
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_id_for(selector: str, annotator_label: str, seed: int) -> str:
    return f"{selector}__{annotator_label}__seed{seed}"


def _write_run_outputs(
    run_dir: Path,
    result: RunResult,
    eval_rows: list[list],
    manifest: dict,
) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        run_dir / "metrics.csv",
        METRICS_CSV_HEADER,
        [[getattr(log, key) for key in METRICS_CSV_HEADER] for log in result.per_iteration],
    )
    with open(run_dir / "events.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(result.event_lines)
    _write_json(run_dir / "sft_policy.json", result.sft_policy.to_json_dict())
    _write_json(run_dir / "final_policy.json", result.final_policy.to_json_dict())
    _write_json(run_dir / "counters.json", result.counters.to_json_dict())
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
    grid_manifest: Optional[dict] = None,
) -> Path:
    """Train one (selector, annotator, seed) cell and write its run directory."""
    run_dir = Path(run_dir)
    cfg = TrainConfig(
        dpo=template.dpo,
        selection=template.selection,
        selector=selector,
        annotator=annotator,
        sft=template.sft,
        run_seed=seed,
    )
    run_id = run_id_for(selector, annotator.label, seed)
    universe_hash = universe.content_hash()
    hash_payload = {
        "config": grid_manifest["config"] if grid_manifest else None,
        "universe_hash": universe_hash,
        "seed": seed,
        "selector": selector,
        "annotator": asdict(annotator),
    }
    manifest = {
        "run_id": run_id,
        "status": "completed",
        "selector": selector,
        "annotator": asdict(annotator),
        "seed": seed,
        "universe_hash": universe_hash,
        "package_version": _package_version,
        "manifest_hash": hashlib.sha256(
            json.dumps(hash_payload, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }
    if grid_manifest:
        manifest["grid"] = grid_manifest
    try:
        sft_policy = sft_fit(universe, cfg)
        result = run_online_dpo(universe, sft_policy, cfg)
    except TrainingError as exc:
        manifest.update(status="failed", error=str(exc))
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_json(run_dir / "manifest.json", manifest)
        return run_dir

    manifest["aborted"] = result.aborted
    eval_rows = evaluate_run(
        universe, result, evaluators, eval_settings, run_id, selector, annotator.label, seed
    )
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
) -> list[list]:
    """One eval.csv row per evaluator for a finished run."""
    eval_ids = universe.role_ids(ROLE_EVAL)
    final = result.final_policy
    sft = result.sft_policy
    acc = probe_accuracy(final, universe)
    delta_pp = 100.0 * (acc - probe_accuracy(sft, universe))
    mean_entropy, collapse = collapse_metrics(
        final, sft, universe.features, eval_ids, settings.collapse_fraction
    )
    rows = []
    for spec in evaluators:
        judge = Judge(replace(spec, seed=mix_seeds(spec.seed, seed)), universe)
        rng = substream(seed, "eval", spec.label)
        estimate = estimate_win_rate(
            final, sft, judge, universe.features, eval_ids, settings.n_trials, rng
        )
        rows.append(
            [
                run_id,
                selector,
                annotator_label,
                spec.label,
                seed,
                estimate.rate,
                estimate.ci_low,
                estimate.ci_high,
                acc,
                delta_pp,
                mean_entropy,
                collapse,
            ]
        )
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


def run_grid(
    grid: ExperimentGrid,
    grid_manifest: Optional[dict] = None,
    overwrite: bool = False,
    parallel: int = 1,
) -> list[Path]:
    """Execute every (selector, annotator, seed) cell of the grid."""
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
            f"refusing to overwrite existing run directories (pass overwrite): "
            f"{[str(d) for d in existing]}"
        )

    out.mkdir(parents=True, exist_ok=True)
    universe = _resolve_universe(grid)
    universe_path = out / "universe.json"
    if universe_path.exists() and not overwrite and grid.universe_path is None:
        raise ConfigurationError(f"refusing to overwrite {universe_path} (pass overwrite)")
    universe.save(universe_path)

    cell_args = [
        (grid.train, selector, annotator, seed, grid.evaluators, grid.eval_settings, run_dir)
        for (selector, annotator, seed), run_dir in zip(cells, run_dirs)
    ]
    if parallel <= 1:
        for args in cell_args:
            run_cell(universe, *args, grid_manifest)
        return run_dirs

    jobs = [(*args, grid_manifest) for args in cell_args]
    with ProcessPoolExecutor(
        max_workers=parallel, initializer=_set_worker_universe, initargs=(universe,)
    ) as pool:
        list(pool.map(_cell_worker, jobs))
    return run_dirs


# --------------------------------------------------------------------------
# aggregation and reports
# --------------------------------------------------------------------------


def _read_runs(run_dirs: Sequence[Path]) -> tuple[list[dict], list[Path]]:
    """The typed eval.csv rows of the run directories, each carrying its run's
    counters.json under "counters" (None where there is none), and the
    directories without eval.csv (failed runs)."""
    rows, skipped = [], []
    for run_dir in map(Path, run_dirs):
        if not (run_dir / "eval.csv").exists():
            skipped.append(run_dir)
            continue
        path = run_dir / "counters.json"
        counters = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
        with open(run_dir / "eval.csv", "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                row["seed"] = int(row["seed"])
                for key in ("win_rate", "ci_low", "ci_high", "probe_acc", "delta_acc_pp", "mean_entropy"):
                    row[key] = float(row[key])
                row["collapse_flag"] = row["collapse_flag"] == "true"
                row["counters"] = counters
                rows.append(row)
    return rows, skipped


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


def _scoring(counters: Optional[dict]) -> int:
    """A run's scoring log-prob evaluations; 0 for no run."""
    return counters["policy_logprob_evals"] + counters["ref_logprob_evals"] if counters else 0


def aggregate_summary(
    run_dirs: Sequence[Path],
) -> tuple[list[SummaryRow], list[dict]]:
    """Mean +/- sample std per (selector, annotator, evaluator) plus Welch tests.

    Welch's unequal-variance t-test compares selector pairs on win_rate and
    delta_acc_pp; cells with fewer than two seeds or zero variance on both
    sides are reported as degenerate rather than fabricating a p-value. A run
    directory without eval.csv (a failed run) is named in a warning on
    stderr, so a shrunken n_seeds never goes unnoticed, and so is each
    (annotator, seed) whose selectors bought different numbers of judge queries.
    """
    rows, skipped = _read_runs(run_dirs)
    for run_dir in skipped:
        try:
            status = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["status"]
        except (OSError, ValueError, KeyError):
            status = "unreadable manifest"
        print(
            f"warning: {run_dir} has no eval.csv (manifest status {status!r}); "
            "it is left out of the report",
            file=sys.stderr,
        )
    if not rows:
        raise ConfigurationError("no eval.csv rows found under the given run directories")

    # runs that share (annotator, seed) differ only in selector: they are the compared pairs
    paired: dict[tuple[str, int], dict[str, dict]] = {}
    for row in rows:
        if row["counters"] is not None:
            paired.setdefault((row["annotator_label"], row["seed"]), {})[row["selector"]] = row["counters"]
    for (annotator, seed), by_selector in sorted(paired.items()):
        bought = {selector: counters["judge_queries"] for selector, counters in by_selector.items()}
        if len(set(bought.values())) > 1:
            counts = ", ".join(f"{sel} {n}" for sel, n in sorted(bought.items()))
            print(
                f"warning: annotator {annotator!r} seed {seed}: selectors bought "
                f"different judge-query counts ({counts})",
                file=sys.stderr,
            )

    cells: dict[tuple[str, str], dict[str, list[dict]]] = {}
    for row in sorted(rows, key=lambda r: r["seed"]):
        key = (row["annotator_label"], row["evaluator_label"])
        cells.setdefault(key, {}).setdefault(row["selector"], []).append(row)

    summary, welch_records = [], []
    for (annotator, evaluator), by_selector in sorted(cells.items()):
        for selector, cell in by_selector.items():
            win_rates = [r["win_rate"] for r in cell]
            deltas = [r["delta_acc_pp"] for r in cell]
            # own scoring minus the paired random run's, or 0 without one
            extras = [
                _scoring(r["counters"]) - _scoring(paired[annotator, r["seed"]].get(SELECTOR_RANDOM))
                for r in cell if r["counters"] is not None
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
                    collapse_runs=sum(1 for r in cell if r["collapse_flag"]),
                    extra_scoring_ops_mean=float(np.mean(extras)) if extras else 0.0,
                )
            )
        for sel_a, sel_b in combinations(sorted(by_selector), 2):
            for metric in ("win_rate", "delta_acc_pp"):
                a = [r[metric] for r in by_selector[sel_a]]
                b = [r[metric] for r in by_selector[sel_b]]
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
    return summary, welch_records


def emit_pareto(run_dirs: Sequence[Path], path) -> Path:
    """Plot-ready scatter data: one row per (run, evaluator)."""
    rows, _ = _read_runs(run_dirs)
    if not rows:
        raise ConfigurationError("no eval.csv rows found under the given run directories")
    rows.sort(key=lambda r: (r["selector"], r["annotator_label"], r["seed"], r["evaluator_label"]))
    path = Path(path)
    _write_csv(
        path,
        PARETO_CSV_HEADER,
        [[r[_EVAL_COLUMN.get(key, key)] for key in PARETO_CSV_HEADER] for r in rows],
    )
    return path


def write_summary(summary: list[SummaryRow], welch_records: list[dict], out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    summary_path = out_dir / "summary.csv"
    _write_csv(
        summary_path,
        SUMMARY_CSV_HEADER,
        [[getattr(row, key) for key in SUMMARY_CSV_HEADER] for row in summary],
    )
    welch_path = out_dir / "welch.csv"
    _write_csv(
        welch_path,
        WELCH_CSV_HEADER,
        [[record[key] for key in WELCH_CSV_HEADER] for record in welch_records],
    )
    return summary_path, welch_path


def discover_run_dirs(out_dir) -> list[Path]:
    """Each directory under ``out_dir`` that holds a manifest.json; a missing
    ``out_dir`` or one without any is a ConfigurationError."""
    run_dirs = sorted(manifest.parent for manifest in Path(out_dir).glob("*/manifest.json"))
    if not run_dirs:
        raise ConfigurationError(f"no run directories found under {out_dir}")
    return run_dirs
