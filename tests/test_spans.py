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
from sextactic import poly
from sextactic.poly import ST, MPoly
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


def test_packed_poly_products_are_counted(monkeypatch):
    # 9 x 10 terms: over the crossover, so the product runs the kernel
    f = MPoly(ST, {(i, 8 - i): i - 4 for i in range(9) if i != 4} | {(4, 4): 7})
    g = MPoly(ST, {(i, 9 - i): Fraction(1, i + 1) for i in range(10)})
    packed = []
    kernel = poly.kronecker_product

    def spy(a, b, end=None):
        packed.append(kernel(a, b, end))
        return packed[-1]

    monkeypatch.setattr(poly, "kronecker_product", spy)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        prod = f * g
        scaled = 3 * f
        tracer.active = False
    finally:
        tracer.uninstall()
    assert len(packed) == 1 and packed[0] is not None
    assert scaled == f * MPoly.constant(ST, 3)
    agg, _ = tracer.summary([])
    assert agg["poly.mul"]["calls"] == 2
    assert tracer.counts["poly.mul.term_pairs"] == 9 * 10 + 9
    assert tracer.counts["poly.mul.out_terms"] == len(prod.terms) + 9
