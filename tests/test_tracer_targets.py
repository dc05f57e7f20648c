"""Every attribute the benchmark's tracer rebinds still exists.

`perfbench/tracer.py` looks each traced function up with `getattr` when it
installs itself, so a renamed or removed one would crash every traced run.
"""

import importlib.util
from pathlib import Path

import latticeplan as lp
import latticeplan.fpe  # noqa: F401  (not imported by the package itself)
import latticeplan.scenario  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_exist():
    tracer = _tracer()
    targets = list(tracer.SPANNED) + [("graph.SearchGraph", "insert"),
                                      ("graph.SearchGraph", "argmin_unexpanded"),
                                      ("fpe.Lattice", "build")]
    missing = []
    for owner, attr in targets:
        obj = lp
        for part in owner.split("."):
            obj = getattr(obj, part, None)
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert not missing
    assert all(hasattr(lp, m) for m in tracer.MODULES)

