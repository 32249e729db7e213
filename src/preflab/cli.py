"""Command-line interface.

Subcommands:
    generate  build a universe JSON from the config's universe section
    sft       fit the supervised initialization and write its checkpoint
    train     run a single (selector, annotator, seed) cell: a one-cell sweep
    sweep     run the full experiment grid
    report    aggregate run directories into summary/welch/pareto CSVs
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError, TrainingError
from .harness import _resolve_universe, _write_json, parse_config, run_grid, save_universe
from .report import aggregate_summary, discover_run_dirs, read_outcome, write_summary
from .trainer import TrainConfig, sft_fit
from .universe import generate_universe


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="preflab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help):
        p.add_argument("--config", required=True, help="path to the grid config JSON")
        p.add_argument("--out", help=out_help)
        p.add_argument("--overwrite", action="store_true", help="allow clobbering outputs")

    p = sub.add_parser("generate", help="write the universe JSON")
    add_common(p, "output file (default: <output_dir>/universe.json)")

    p = sub.add_parser("sft", help="fit and save the supervised initialization")
    add_common(p, "output directory (default: config output_dir)")
    p.add_argument("--seed", type=int, help="run seed (default: first grid seed)")

    p = sub.add_parser("train", help="run one grid cell")
    add_common(p, "output directory (default: config output_dir)")
    p.add_argument("--seed", type=int, help="run seed (default: first grid seed)")
    p.add_argument("--selector", help="selector (default: first in config)")
    p.add_argument("--annotator", help="annotator label (default: first in config)")

    p = sub.add_parser("sweep", help="run the full grid")
    add_common(p, "output directory (default: config output_dir)")
    p.add_argument("--parallel", type=int, default=1, help="concurrent runs (default 1)")

    p = sub.add_parser("report", help="aggregate finished runs")
    p.add_argument("--out", required=True, help="directory containing run directories")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _outcome(run_dirs: list[Path], out_dir) -> int:
    """Name each failed or aborted cell from its manifest on stderr; 1 if any."""
    counts = {"failed": 0, "aborted": 0}
    for run_dir in run_dirs:
        run, what = read_outcome(run_dir)
        if what in counts:
            counts[what] += 1
            print(f"error: run {run['run_id']} {what}: {run['error']}", file=sys.stderr)
    for what, count in counts.items():
        if count:
            print(f"{count} of {len(run_dirs)} runs {what} under {out_dir}", file=sys.stderr)
    if not any(counts.values()):
        print(f"completed {len(run_dirs)} runs under {out_dir}")
    return 1 if any(counts.values()) else 0


def _dispatch(args) -> int:
    if args.command == "report":
        paths = write_summary(*aggregate_summary(discover_run_dirs(args.out)), args.out)
        print(f"wrote {', '.join(map(str, paths))}")
        return 0

    grid, manifest = parse_config(args.config)
    if args.out:
        grid = replace(grid, output_dir=args.out)
        manifest["config"]["output_dir"] = args.out

    if args.command == "generate":
        out = Path(args.out) if args.out else Path(grid.output_dir) / "universe.json"
        if out.suffix != ".json":
            out = out / "universe.json"
        if grid.universe is None:
            raise ConfigurationError("generate requires a 'universe' section in the config")
        out.parent.mkdir(parents=True, exist_ok=True)
        universe = generate_universe(grid.universe)
        written = save_universe(universe, out, args.overwrite)
        print(f"{'wrote' if written else 'kept'} {out} (hash {universe.content_hash()[:12]})")
        return 0

    if args.command == "sft":
        seed = args.seed if args.seed is not None else grid.seeds[0]
        out = Path(grid.output_dir) / "sft_policy.json"
        if out.exists() and not args.overwrite:
            raise ConfigurationError(f"refusing to overwrite {out} (pass --overwrite)")
        try:
            policy = sft_fit(_resolve_universe(grid), TrainConfig(sft=grid.train.sft, run_seed=seed))
        except TrainingError as exc:
            print(f"error: sft failed: {exc}", file=sys.stderr)
            return 1
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_json(out, policy.to_json_dict())
        print(f"wrote {out}")
        return 0

    if args.command == "train":  # a one-cell grid
        annotators = {a.label: a for a in grid.annotators}
        label = args.annotator or grid.annotators[0].label
        if label not in annotators:
            raise ConfigurationError(f"annotator {label!r} not in config ({list(annotators)})")
        seed = args.seed if args.seed is not None else grid.seeds[0]
        selector = args.selector or grid.selectors[0]
        grid = replace(grid, selectors=[selector], annotators=[annotators[label]], seeds=[seed])
    run_dirs = run_grid(grid, manifest, args.overwrite, getattr(args, "parallel", 1))
    return _outcome(run_dirs, grid.output_dir)


if __name__ == "__main__":
    raise SystemExit(main())
