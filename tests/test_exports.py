"""Every exported name exists, so ``from deepibp import *`` cannot break, and
every function the benchmark's tracer wraps by name resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import deepibp

SUBMODULES = ["cli", "dataio", "experiment", "ibp", "inference", "model", "oracle"]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", ["deepibp"] + [f"deepibp.{sub}" for sub in SUBMODULES])
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"


def test_top_level_names_are_the_submodule_objects():
    homes = {}
    for sub in SUBMODULES:
        module = importlib.import_module(f"deepibp.{sub}")
        for n in module.__all__:
            homes.setdefault(n, []).append(module)
    for n in deepibp.__all__:
        if n == "__version__":
            continue
        assert n in homes, f"deepibp.{n} is in no submodule's __all__"
        for module in homes[n]:
            assert getattr(deepibp, n) is getattr(module, n), f"deepibp.{n} is not {module.__name__}.{n}"


def test_star_import():
    namespace = {}
    exec("from deepibp import *", namespace)
    assert set(deepibp.__all__) <= set(namespace)


def test_benchmark_boundaries_resolve():
    # The benchmark's tracer wraps these functions by name, private ones
    # included, so a rename must fail here and not only in a traced run.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for span, (module_name, attr) in tracer.BOUNDARIES.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{span}: {module_name}.{attr} does not resolve"
