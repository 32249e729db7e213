"""Command-line interface.

Subcommands:
    generate  build a universe JSON from the config's universe section
    sft       fit the supervised initialization and write its checkpoint
    train     run a single (selector, annotator, seed) cell
    sweep     run the full experiment grid
    report    aggregate run directories into summary/welch/pareto CSVs
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError
from .harness import (
    _resolve_universe,
    _write_json,
    aggregate_summary,
    discover_run_dirs,
    emit_pareto,
    parse_config,
    run_cell,
    run_grid,
    run_id_for,
    write_summary,
)
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


def _dispatch(args) -> int:
    if args.command == "report":
        run_dirs = discover_run_dirs(args.out)
        summary, welch = aggregate_summary(run_dirs)
        summary_path, welch_path = write_summary(summary, welch, args.out)
        pareto_path = emit_pareto(run_dirs, Path(args.out) / "pareto.csv")
        print(f"wrote {summary_path}, {welch_path}, {pareto_path}")
        return 0

    grid, manifest = parse_config(args.config)
    if args.out:
        grid = replace(grid, output_dir=args.out)
        manifest["config"]["output_dir"] = args.out

    if args.command == "generate":
        out = Path(args.out) if args.out else Path(grid.output_dir) / "universe.json"
        if out.suffix != ".json":
            out = out / "universe.json"
        if out.exists() and not args.overwrite:
            raise ConfigurationError(f"refusing to overwrite {out} (pass --overwrite)")
        if grid.universe is None:
            raise ConfigurationError("generate requires a 'universe' section in the config")
        out.parent.mkdir(parents=True, exist_ok=True)
        universe = generate_universe(grid.universe)
        universe.save(out)
        print(f"wrote {out} (hash {universe.content_hash()[:12]})")
        return 0

    universe = _resolve_universe(grid)

    if args.command == "sft":
        seed = args.seed if args.seed is not None else grid.seeds[0]
        policy = sft_fit(universe, TrainConfig(sft=grid.train.sft, run_seed=seed))
        out_dir = Path(grid.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / "sft_policy.json"
        if out.exists() and not args.overwrite:
            raise ConfigurationError(f"refusing to overwrite {out} (pass --overwrite)")
        _write_json(out, policy.to_json_dict())
        print(f"wrote {out}")
        return 0

    if args.command == "train":
        seed = args.seed if args.seed is not None else grid.seeds[0]
        selector = args.selector or grid.selectors[0]
        if args.annotator:
            matches = [a for a in grid.annotators if a.label == args.annotator]
            if not matches:
                raise ConfigurationError(
                    f"annotator {args.annotator!r} not in config "
                    f"({[a.label for a in grid.annotators]})"
                )
            annotator = matches[0]
        else:
            annotator = grid.annotators[0]
        run_dir = Path(grid.output_dir) / run_id_for(selector, annotator.label, seed)
        if run_dir.exists() and not args.overwrite:
            raise ConfigurationError(f"refusing to overwrite {run_dir} (pass --overwrite)")
        run_cell(
            universe,
            grid.train,
            selector,
            annotator,
            seed,
            grid.evaluators,
            grid.eval_settings,
            run_dir,
            manifest,
        )
        print(f"wrote {run_dir}")
        return 0

    if args.command == "sweep":
        run_dirs = run_grid(
            grid, grid_manifest=manifest, overwrite=args.overwrite, parallel=args.parallel
        )
        print(f"completed {len(run_dirs)} runs under {grid.output_dir}")
        return 0

    raise ConfigurationError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
