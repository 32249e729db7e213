"""Every name the benchmark tracer wraps still exists where it is looked up.

``bench/spans.py`` rebinds each ``TRACED_SITES`` entry at run time; a name
that a refactor drops would crash ``bench/run.py --trace 1`` instead of
failing here. The sites are only resolved, no wrapper is installed.
"""

import concurrent.futures
import importlib
import importlib.util
import inspect
from pathlib import Path

from preflab import harness

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
