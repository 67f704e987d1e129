"""The benchmark tracer's targets still name real library functions.

``perfbench/run.py --trace 1`` wraps every entry of ``spans.TARGETS``; a
renamed or deleted function would break the traced run, so each one must
resolve the way ``Tracer.install`` looks it up.
"""

import importlib
import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cli_child import SOURCE_DIR
from sextactic.series import TruncSeries

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


def test_setup_code_runs():
    # run.py times this snippet as the start-up cost; it must not fail
    proc = subprocess.run(
        [sys.executable, "-c", spans.SETUP_CODE, SOURCE_DIR], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_series_products_are_counted():
    a = TruncSeries({e: Fraction(1, e + 2) for e in range(6)}, 10)
    b = TruncSeries({e: -e for e in range(1, 7)}, 10)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        prod = a * b
        scaled = 3 * a
        tracer.active = False
    finally:
        tracer.uninstall()
    assert prod.coeffs and scaled.coeffs == {e: 3 * c for e, c in a.coeffs.items()}
    agg, _ = tracer.summary([])
    assert agg["series.mul"]["calls"] == 2
    assert tracer.counts["series.mul.coeff_pairs"] == 6 * 6 + 6
