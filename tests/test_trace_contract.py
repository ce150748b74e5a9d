"""The benchmark's contract with the package it measures.

`perfbench/tracing.py` wraps named functions and methods and hands each
call's arguments to a describer with the same parameter list.  A refactor
that adds, drops or renames a parameter of a traced entry point would only
fail inside a traced benchmark run, as a TypeError from the describer; this
test fails first.  It reads the tracer's table and changes nothing.

`perfbench/worker.py` sets each workload up through `famelab.<name>` and
reads fields of the config it built; a name the package drops would only fail
inside a benchmark run, so the worker's source is checked the same way.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKER = PERFBENCH / "worker.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(module_name, path):
    """The raw function behind an entry point, or None if it is gone."""
    *owner_path, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in owner_path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return None
    return raw.__func__ if isinstance(raw, staticmethod) else raw


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/tracing.py not present")
def test_describers_bind_every_live_entry_point():
    entries = _tracing().ENTRY_POINTS
    live = 0
    for module_name, path, _span, describe in entries:
        fn = _entry(module_name, path)
        if fn is None or describe is None:
            continue
        live += 1
        params = list(inspect.signature(fn).parameters.values())
        names = [p.name for p in params]
        required = [p.name for p in params if p.default is inspect.Parameter.empty]
        described = inspect.signature(describe)
        where = f"{module_name}.{path}"
        # the tracer calls describe(result, *args, **kwargs) with the call's
        # own arguments: every call the entry point accepts must bind, and
        # every call the describer needs must be one the entry point accepts
        for args, kwargs in ((names, {}), (required, {}), ([], dict(zip(names, names)))):
            try:
                described.bind(None, *args, **kwargs)
            except TypeError as exc:
                pytest.fail(f"{where}: describer cannot take {args or kwargs}: {exc}")
        needed = [
            p.name
            for p in list(described.parameters.values())[1:]
            if p.default is inspect.Parameter.empty
        ]
        try:
            inspect.signature(fn).bind(*needed)
        except TypeError as exc:
            pytest.fail(f"{where}: entry point no longer takes {needed}: {exc}")
    assert live > 0


def _dotted(node):
    """`famelab.a.b` as ["a", "b"], or None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "famelab":
        return parts[::-1]
    return None


@pytest.mark.skipif(not WORKER.is_file(), reason="perfbench/worker.py not present")
def test_worker_reads_only_what_the_package_has():
    import famelab
    from famelab.config import ExperimentConfig

    tree = ast.parse(WORKER.read_text())
    chains, cfg_attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "cfg":
                cfg_attrs.add(node.attr)
            chain = _dotted(node)
            if chain:
                chains.add(tuple(chain))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "famelab":
            chains.update((*node.module.split(".")[1:], alias.name) for alias in node.names)
    assert chains and cfg_attrs
    cfg = ExperimentConfig()
    for attr in sorted(cfg_attrs):
        assert hasattr(cfg, attr), f"worker.py reads cfg.{attr}, which ExperimentConfig lacks"
    for chain in sorted(chains):
        owner = famelab
        for part in chain:
            assert hasattr(owner, part), f"worker.py uses famelab.{'.'.join(chain)}, which is gone"
            owner = getattr(owner, part)
