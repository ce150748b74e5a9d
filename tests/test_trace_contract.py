"""The benchmark tracer's contract with the package's entry points.

`perfbench/tracing.py` wraps named functions and methods and hands each
call's arguments to a describer with the same parameter list.  A refactor
that adds, drops or renames a parameter of a traced entry point would only
fail inside a traced benchmark run, as a TypeError from the describer; this
test fails first.  It reads the tracer's table and changes nothing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
