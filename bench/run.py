"""Wall-clock benchmark of preflab: end-to-end metrics, or a traced per-layer run.

    python3 bench/run.py --workload goodhart_sweep --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh process (``rep.py``) with BLAS/OpenMP limited
to one thread. A set-up-only warm-up repetition is discarded; full
repetitions follow for about ``--seconds``. Every full repetition's run
directories are checked (``check.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(cells) and ``metrics``, the end-to-end metrics with ``--trace 0`` or the
per-layer metrics with ``--trace 1``.

``--check-only`` runs one untraced repetition and prints the output check and
exact counts. ``--record-reference`` rewrites ``reference.json`` from one
repetition of every workload at seed 0; run it only on code whose results are
meant to be the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import check
import rep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_tmp"
REP_TIMEOUT_S = 150
SETUP_SAMPLES = 5
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def launch(workload: str, seed: int, out: Path, mode: str, trace: int, lock: bool) -> dict:
    """Run one repetition in a fresh process; return its timings and check.

    ``lock`` also compares the outputs with the recorded reference values.
    """
    out.mkdir(parents=True)
    log = out / "rep.log"
    cmd = [sys.executable, str(BENCH / "rep.py"), workload, str(seed), str(out), mode, str(trace)]
    with open(log, "wb") as fh:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREAD},
            stdout=fh,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{workload} repetition exceeded {REP_TIMEOUT_S} s")
        finally:
            # pool workers left behind by a crash are in the same process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{workload} repetition exited with {proc.returncode}:\n{tail}")
    record = json.loads((out / "rep.json").read_text(encoding="utf-8"))
    cells = record["cells"]
    if not cells:
        raise BenchError(f"{workload} repetition started no cell")
    first = cells[0]["start"]
    result = {"setup_s": first - spawn, "trace": trace, "record": record}
    if mode == "full":
        dispatch_t, dispatch_cpu = record["dispatch"]
        result.update(
            wall_s=record["end"] - first,
            cpu_s=record["cpu_end"] - dispatch_cpu,
            cell_wait_s=sum(c["start"] - dispatch_t for c in cells),
            peak_rss_mb=record["peak_rss_kb"] / 1024.0,
            cell_s={
                sel: [c["end"] - c["start"] for c in cells if c["selector"] == sel]
                for sel in ("random", "apl")
            },
        )
        cell_count, evaluators = rep.expected_cells(workload)
        reference = check.load_reference(workload) if lock else None
        result["check"] = check.check_runs(out / "runs", cell_count, evaluators, reference)
    shutil.rmtree(out / "runs", ignore_errors=True)
    return result


class Repeater:
    """Repetitions of one workload, numbered, in one scratch directory."""

    def __init__(self, workload: str, seed: int, scratch: Path, lock: bool = True):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        # the reference values exist for workload seed 0 only
        self.lock = lock and seed == 0
        self.count = 0

    def run(self, mode: str = "full", trace: int = 0) -> dict:
        self.count += 1
        out = self.scratch / f"rep{self.count:03d}"
        return launch(self.workload, self.seed, out, mode, trace, self.lock)


def measure(repeater: Repeater, seconds: float, traced: bool) -> list[dict]:
    """Warm up, then repeat (untraced, or untraced and traced in turn) for ``seconds``.

    The warm-up is a set-up-only repetition and is discarded. A round starts
    while it is expected to end no more than half a round after ``seconds``.
    """
    repeater.run(mode="setup")
    kinds = (0, 1) if traced else (0,)
    measured: list[dict] = []
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        measured += [repeater.run(trace=k) for k in kinds]
        round_s = time.monotonic() - started
        if time.monotonic() - t0 + round_s / 2 > seconds:
            return measured


def with_units(values: dict, kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the metric sets must match."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(values) != set(units):
        raise BenchError(f"{kind} metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def cell_times(reps: list[dict]) -> dict[str, list[float]]:
    """Cell wall times by selector, pooled over repetitions."""
    return {sel: [t for r in reps for t in r["cell_s"][sel]] for sel in ("random", "apl")}


def end_to_end(untraced: list[dict], setups: list[float]) -> dict:
    cell_s = cell_times(untraced)
    values = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in untraced]),
        "cpu_s": median([r["cpu_s"] for r in untraced]),
        "run_s.random": median(cell_s["random"]),
        "run_s.apl": median(cell_s["apl"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }
    return with_units(values, "end_to_end")


# per-layer metric -> (span name, span statistic) for the traced repetitions
SPAN_METRICS = {
    "dpo.batch_grad_s": ("dpo.dpo_batch_grad", "total"),
    "dpo.batch_grad_calls": ("dpo.dpo_batch_grad", "calls"),
    "dpo.optimizer_step_s": ("dpo.optimizer_step", "total"),
    "policy.log_prob_vector_calls": ("policy.log_prob_vector", "calls"),
    "policy.grad_log_prob_calls": ("policy.grad_log_prob", "calls"),
    "selection.generate_candidates_s": ("selection.generate_candidates", "total"),
    "selection.form_pairs_s": ("selection.form_pairs", "total"),
    "selection.select_apl_s": ("selection.select_apl", "total"),
    "selection.select_random_s": ("selection.select_random", "total"),
    "judges.prefer_calls": ("judges.Judge.prefer", "calls"),
    "judges.prefer_s": ("judges.Judge.prefer", "total"),
    "evaluation.win_rate_s": ("evaluation.estimate_win_rate", "total"),
    "evaluation.probe_accuracy_s": ("evaluation.probe_accuracy", "total"),
    "evaluation.collapse_metrics_s": ("evaluation.collapse_metrics", "total"),
    "universe.content_hash_calls": ("universe.PromptUniverse.content_hash", "calls"),
    "universe.content_hash_s": ("universe.PromptUniverse.content_hash", "total"),
    "universe.generate_s": ("universe.generate_universe", "total"),
    "universe.save_s": ("universe.PromptUniverse.save", "total"),
    "universe.load_calls": ("universe.PromptUniverse.load", "calls"),
    "universe.load_s": ("universe.PromptUniverse.load", "total"),
    "harness.parse_config_s": ("harness.parse_config", "total"),
    "harness.write_outputs_s": ("harness._write_run_outputs", "total"),
    "harness.report_s": ("harness.report", "total"),
    "trainer.sft_fit_s": ("trainer.sft_fit", "total"),
    "trainer.loop_self_s": ("trainer.run_online_dpo", "self"),
}


def per_layer(untraced: list[dict], traced: list[dict], failed: int, attempted: int) -> dict:
    """Per-layer metrics: medians over traced repetitions, exact counts, trace quality."""

    def timed(r) -> dict:
        layers = r["record"]["layers"]
        cells = r["record"]["cells"]
        row = {m: layers.get(span, {}).get(stat, 0) for m, (span, stat) in SPAN_METRICS.items()}
        row.update(
            {
                "policy.self_s": sum(v["self"] for k, v in layers.items() if k.startswith("policy.")),
                "cli.import_s": r["record"]["import_s"],
                "harness.cell_wait_s": r["cell_wait_s"],
                "trace.attributed_frac": 1.0
                - sum(c["self"] for c in cells) / sum(c["end"] - c["start"] for c in cells),
                "wall_s": r["wall_s"],
            }
        )
        return row

    rows = [timed(r) for r in traced]
    # call counts repeat exactly; times are medians
    metrics = {k: rows[0][k] if k.endswith("_calls") else median([row[k] for row in rows]) for k in rows[0]}
    traced_wall = metrics.pop("wall_s")
    untraced_wall = median([r["wall_s"] for r in untraced])
    cell_s = cell_times(untraced)
    counts = traced[0]["check"]["counts"]
    metrics.update(
        {
            "dpo.pairs_per_call": counts["judge_queries"] / counts["updating_iterations"],
            "selection.margin_score_calls": counts["margin_score_calls"],
            "selection.scoring_evals": counts["scoring_evals"],
            "selection.judge_queries": counts["judge_queries"],
            "selection.label_fill": counts["judge_queries"] / counts["label_budget"],
            "selection.degenerate_prompt_rate": counts["degenerate_prompts"] / counts["sampled_prompts"],
            "selection.apl_over_random": median(cell_s["apl"]) / median(cell_s["random"]),
            "evaluation.win_rate_trials": counts["win_rate_trials"],
            "universe.json_bytes": counts["universe_json_bytes"],
            "harness.output_bytes": counts["output_bytes"],
            "harness.events_lines": counts["events_lines"],
            "trainer.iterations": counts["iterations"],
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "failed_frac": failed / attempted,
        }
    )
    return with_units(metrics, "per_layer")


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass  # the sha is informational
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


def preflight() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    needed = [ROOT / "src" / "preflab" / "__init__.py"] + [
        rep.CONFIGS / name for name in (rep.GOODHART_CONFIG, rep.SMOKE_CONFIG)
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a preflab checkout, missing: {', '.join(missing)}")


def benchmark(args, scratch: Path) -> dict:
    env = environment()
    repeater = Repeater(args.workload, args.seed, scratch)
    measured = measure(repeater, args.seconds, traced=args.trace == 1)
    failed = sum(r["check"]["failed"] for r in measured)
    attempted = sum(r["check"]["attempted"] for r in measured)
    untraced = [r for r in measured if r["trace"] == 0]
    traced = [r for r in measured if r["trace"] == 1]
    for r in measured:
        report_problems(r["check"])
    if traced:
        metrics = per_layer(untraced, traced, failed, attempted)
        samples = {"traced_reps": len(traced), "untraced_reps": len(untraced)}
    else:
        setups = [r["setup_s"] for r in untraced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(repeater.run(mode="setup")["setup_s"])
        metrics = end_to_end(untraced, setups)
        samples = {
            "reps": len(untraced),
            "setup_s": len(setups),
            "run_s.random": sum(len(r["cell_s"]["random"]) for r in untraced),
            "run_s.apl": sum(len(r["cell_s"]["apl"]) for r in untraced),
        }
    env.update(measured[0]["record"]["versions"])
    return {
        "env": env,
        "samples": samples,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def report_problems(result: dict) -> None:
    for run_id, issues in result["problems"].items():
        print(f"# check failed: {run_id}: {'; '.join(issues)}", file=sys.stderr)


def check_only(args, scratch: Path) -> dict:
    c = Repeater(args.workload, args.seed, scratch).run()["check"]
    report_problems(c)
    counts = {k: {"value": v, "unit": "count"} for k, v in c["counts"].items()}
    return {
        "result": {
            "correct": c["failed"] == 0,
            "attempted": c["attempted"],
            "failed": c["failed"],
            "metrics": counts,
        }
    }


def record_reference(scratch: Path) -> dict:
    stored = {}
    for workload in rep.WORKLOADS:
        r = Repeater(workload, 0, scratch / workload, lock=False).run()
        if r["check"]["failed"]:
            raise BenchError(f"{workload}: {r['check']['problems']}")
        stored[workload] = r["check"]["reference"]
    check.REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {"result": {"recorded": sorted(stored)}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(rep.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-only", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.workload and not args.record_reference:
        parser.error("--workload is required")
    try:
        preflight()
        SCRATCH.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        try:
            if args.record_reference:
                out = record_reference(scratch)
            elif args.check_only:
                out = check_only(args, scratch)
            else:
                out = benchmark(args, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            if not any(SCRATCH.iterdir()):
                SCRATCH.rmdir()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "env" in out:
        out["env"]["loadavg_after"] = os.getloadavg()
        print("# env " + json.dumps(out["env"]))
        print("# samples " + json.dumps(out["samples"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
