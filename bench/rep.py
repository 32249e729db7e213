"""One repetition of one workload, in a fresh process.

Usage (``run.py`` starts this; it is not meant to be run by hand):

    python3 bench/rep.py WORKLOAD SEED OUT_DIR {full,setup} {0,1}

``full`` runs the whole workload; ``setup`` stops at the start of the first
cell, so only set-up is timed. With trace 1 every site in
``spans.TRACED_SITES`` is wrapped; with 0 only whole cells are timed. Run
directories go under ``OUT_DIR/runs`` and the timing record to
``OUT_DIR/rep.json``, outside every run directory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

GOODHART_CONFIG = "goodhart_weak.json"
SMOKE_CONFIG = "smoke.json"
SMOKE_SEEDS = 16
SMOKE_WORKERS = 2


def run_seeds(workload_seed: int, count: int) -> list[int]:
    """Grid run seeds for a workload seed; seed 0 gives the shipped 42, 43, ..."""
    base = 42 + 1000 * workload_seed
    return [base + i for i in range(count)]


def _write_config(name: str, seeds: list[int], out: Path) -> Path:
    config = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    config["seeds"] = seeds
    # relative to the checkout, so no output file records where the checkout is
    config["output_dir"] = str((out / "runs").relative_to(ROOT))
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def _cli(argv: list[str]) -> None:
    from preflab import cli

    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"preflab {' '.join(argv)} exited with {code}")


def goodhart_sweep(config: Path, tracer) -> None:
    _cli(["sweep", "--config", str(config)])


def smoke_grid_parallel(config: Path, tracer) -> None:
    _cli(["sweep", "--config", str(config), "--parallel", str(SMOKE_WORKERS)])
    tracer.timed("harness.report", _cli)(["report", "--out", str(config.parent / "runs")])


def reference_protocol(config: Path, tracer) -> None:
    """reference_preset() on the goodhart universe, one cell per selector."""
    from preflab import harness, trainer

    grid, manifest = harness.parse_config(config)
    runs = Path(grid.output_dir)
    runs.mkdir(parents=True)
    universe = harness.generate_universe(grid.universe)
    universe.save(runs / "universe.json")
    preset = trainer.reference_preset()
    template = harness.TrainTemplate(dpo=preset.dpo, selection=preset.selection, sft=preset.sft)
    manifest["config"].update(train=asdict(template), annotators=[asdict(preset.annotator)])
    (run_seed,) = grid.seeds
    for selector in grid.selectors:
        harness.run_cell(
            universe,
            template,
            selector,
            preset.annotator,
            run_seed,
            grid.evaluators,
            grid.eval_settings,
            runs / harness.run_id_for(selector, preset.annotator.label, run_seed),
            manifest,
        )


# name -> (function, config it starts from, run seeds per selector)
WORKLOADS = {
    "goodhart_sweep": (goodhart_sweep, GOODHART_CONFIG, 3),
    "reference_protocol": (reference_protocol, GOODHART_CONFIG, 1),
    "smoke_grid_parallel": (smoke_grid_parallel, SMOKE_CONFIG, SMOKE_SEEDS),
}


def expected_cells(workload: str) -> tuple[int, list[str]]:
    """Cells one repetition writes, and the evaluator labels each must report."""
    _, name, seeds = WORKLOADS[workload]
    config = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    annotators = 1 if workload == "reference_protocol" else len(config["annotators"])
    cells = len(config["selectors"]) * annotators * seeds
    return cells, [e["label"] for e in config["evaluators"]]


def main(argv: list[str]) -> None:
    workload, seed, out, mode, trace = argv
    out = Path(out)
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.monotonic()
    import numpy
    import scipy

    import preflab.cli  # noqa: F401  (imports every preflab module)

    import_s = time.monotonic() - t_import
    if not Path(preflab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"preflab imported from {preflab.__file__}, not {ROOT / 'src'}")

    from spans import CELL_SITES, TRACED_SITES, SetupDone, Tracer, clock, summarize

    tracer = Tracer(out / "spans", stop_at_first_cell=mode == "setup")
    tracer.install(TRACED_SITES if trace == "1" else CELL_SITES)
    run, config_name, seed_count = WORKLOADS[workload]
    config = _write_config(config_name, run_seeds(int(seed), seed_count), out)
    try:
        run(config, tracer)
    except SetupDone:
        pass  # a set-up-only repetition ends at its first cell
    t_end = clock()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    tracer.flush()
    record = {
        "import_s": import_s,
        "end": t_end,
        "cpu_end": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
        "dispatch": tracer.dispatch,
        "peak_rss_kb": max(own.ru_maxrss, children.ru_maxrss),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        **summarize(out / "spans"),
    }
    (out / "rep.json").write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
