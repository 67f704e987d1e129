"""The benchmark tracer's targets still name real library functions.

``perfbench/run.py --trace 1`` wraps every entry of ``spans.TARGETS``; a
renamed or deleted function would break the traced run, so each one must
resolve the way ``Tracer.install`` looks it up.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "modname,path", [(m, p) for m, p, _, _ in spans.TARGETS], ids=lambda v: v
)
def test_target_resolves(modname, path):
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))
    assert attr in vars(owner)


def test_install_and_uninstall_restore_every_name():
    modules = [importlib.import_module(m) for m in spans.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer._undo
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
