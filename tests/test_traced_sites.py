"""Every name the benchmark tracer wraps or its workloads call still exists.

``bench/spans.py`` rebinds each ``TRACED_SITES`` entry at run time, and
``bench/rep.py`` drives ``harness`` directly; a name that a refactor drops
would crash ``bench/run.py`` instead of failing here. The sites are only
resolved, no wrapper is installed. Conversely, an import that ``src/`` keeps
only for the tracer must name a site the tracer patches in that module, and
must not be used anywhere else in that module: a used name needs no marker.
"""

import ast
import concurrent.futures
import importlib
import importlib.util
import inspect
from pathlib import Path

from preflab import harness

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
TRACER_ONLY = "# noqa: F401  (traced by bench/spans.py)"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    sites = load_spans().TRACED_SITES
    assert sites
    for module_name, attr in sites:
        module = importlib.import_module(module_name)
        if "." in attr:
            # methods are patched on the class that defines them
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr)), (module_name, attr)


def test_the_cell_span_and_pool_bindings_exist():
    # the tracer reads run_cell's run_dir and selector arguments by parameter
    # name, and replaces harness.ProcessPoolExecutor with a subclass of it
    assert {"run_dir", "selector"} <= set(inspect.signature(harness.run_cell).parameters)
    assert harness.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor


def test_the_reference_workload_bindings_exist():
    # bench/rep.py's reference_protocol parses a config, builds a template and
    # calls run_cell positionally with the grid's eval_settings
    for name in ("TrainTemplate", "generate_universe", "run_id_for"):
        assert callable(getattr(harness, name)), name
    grid, manifest = harness.parse_config(ROOT / "configs" / "goodhart_weak.json")
    assert isinstance(manifest["config"], dict)
    assert isinstance(grid.eval_settings, harness.EvalSettings)
    assert list(inspect.signature(harness.run_cell).parameters) == [
        "universe", "template", "selector", "annotator", "seed", "evaluators",
        "eval_settings", "run_dir", "grid_manifest",
    ]


def test_every_tracer_only_import_is_a_traced_site_of_its_module():
    sites = set(load_spans().TRACED_SITES)
    imported = []
    for path in sorted((ROOT / "src" / "preflab").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        marked = {n for n, line in enumerate(text.splitlines(), 1) if line.endswith(TRACER_ONLY)}
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            lines = set(range(node.lineno, node.end_lineno + 1))
            if marked & lines:
                marked -= lines
                names = [a.asname or a.name for a in node.names]
                stale = sorted(set(names) & used)
                assert not stale, f"{path.name} uses {stale}, so their import is not tracer-only"
                imported += [(f"preflab.{path.stem}", name) for name in names]
        assert not marked, f"{path.name} lines {sorted(marked)} mark no import"
    assert imported
    assert [site for site in imported if site not in sites] == []
