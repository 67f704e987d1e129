"""Correctness checks on job outputs, run after the timed loop.

Each check returns None when the output is right and a message otherwise.
The invariants hold for every seed; they use the library itself only to
parse outputs and to recompute the local branch at a Wronskian zero.
"""

from __future__ import annotations

from fractions import Fraction

from sextactic.branch import closed_form_ladder, weight2
from sextactic.parse import parse_param, parse_poly
from sextactic.rational import local_branch_at


def _kv(out):
    """``key = value`` lines of a text report."""
    return dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line and " | " not in line
    )


def _table(out, header):
    """Rows of the aligned table whose column line starts with ``header``."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(header + " ") or line == header:
            rows = []
            for row in lines[i + 2 :]:
                if " | " not in row:
                    break
                rows.append([cell.strip() for cell in row.split(" | ")])
            return rows
    return []


def _ratio_tuple(text):
    return tuple(Fraction(v.strip()) for v in text.strip("()").split(":"))


def check(job, out):
    """Invariant check for a job that exited 0."""
    f = job.facts
    kv = _kv(out)
    kind = job.kind
    if kind == "hessian":
        want = 3 * f["d"] - 6
        return None if kv.get("H_degree") == str(want) else f"H_degree {kv.get('H_degree')} != {want}"
    if kind == "hessian2":
        want = 12 * f["d"] - 27
        if kv.get("variant") != f["variant"]:
            return f"variant {kv.get('variant')} != {f['variant']}"
        return None if kv.get("H2_degree") == str(want) else f"H2_degree {kv.get('H2_degree')} != {want}"
    if kind == "osculate":
        conic = parse_poly(kv["O"], "xyz")
        if conic.degree() != 2 or conic.eval(f["point"]) != 0:
            return f"osculating conic {kv['O']} misses {f['point']}"
        return None
    if kind == "wronski":
        return _check_wronski(job, kv, out)
    if kind == "omega":
        want = 10 * f["d"] - 20
        forms = [v for k, v in kv.items() if k.startswith("omega[")]
        degs = {parse_poly(v, "st").degree() for v in forms if v != "0"}
        if len(forms) != 6 or degs != {want}:
            return f"conic family has {len(forms)} coefficients of degrees {degs}, want 6 of {want}"
        return None
    if kind == "omega_at":
        conic = parse_poly(kv["O"], "xyz")
        point = parse_param(f["forms"]).eval_point(f["at"])
        if conic.degree() != 2 or conic.eval(point) != 0:
            return f"osculating conic {kv['O']} misses the curve point {point}"
        return None
    if kind == "orders":
        rows = _table(out, "parameter")
        orders = [int(r[1]) for r in rows]
        if len(orders) != f["n_at"] or orders[0] < 1:
            return f"orders {orders}: the planted parameter must have order >= 1"
        if int(kv["sum_orders"]) != sum(orders):
            return "sum_orders disagrees with the table"
        degree = int(kv["pullback_degree"])
        if int(kv["sum_orders"]) + int(kv["residual_degree"]) != degree or degree != 3 * f["d"]:
            return "pullback degree budget broken"
        return None
    if kind in ("weight", "ladder", "osc-branch"):
        return _check_branch(job, kv)
    if kind == "count":
        if kv.get("identity1_residual") != "0" or kv.get("identity2_residual") != "0":
            return f"identity residuals {kv.get('identity1_residual')}, {kv.get('identity2_residual')}"
        return None if int(kv["s"]) >= 0 else "negative sextactic count"
    if kind == "predict39":
        n = len(_table(out, "label"))
        return None if n == f["n_points"] else f"{n} prediction rows for {f['n_points']} points"
    if kind == "check-lemma37":
        return None if kv.get("ok") == "yes" else f"lemma 3.7 check says {kv.get('ok')}"
    return f"no check for job kind {kind}"


def _check_wronski(job, kv, out):
    d = job.facts["d"]
    want = 6 * (2 * d - 5)
    if not (kv.get("xi_degree") == kv.get("total_weight") == str(want)):
        return f"xi_degree {kv.get('xi_degree')}, total_weight {kv.get('total_weight')} != {want}"
    param = parse_param(job.facts["forms"])
    for row in _table(out, "weight"):
        weight, _points, parameter = int(row[0]), row[1], row[2]
        if parameter == "-":
            continue
        at = _ratio_tuple(parameter)
        w2 = weight2(local_branch_at(param, at, 4 * d + 4)).w2
        if w2 != weight:
            return f"Wronskian zero {parameter} has order {weight} but weight2 gives {w2}"
    return None


def _check_branch(job, kv):
    m, l, c = job.facts["m"], job.facts["l"], job.facts["c"]
    ladder = closed_form_ladder(m, l, c)
    if job.kind == "weight":
        if (kv.get("m"), kv.get("l"), kv.get("c")) != (str(m), str(l), None if c is None else str(c)):
            return f"(m, l, c) = ({kv.get('m')}, {kv.get('l')}, {kv.get('c')}), planted ({m}, {l}, {c})"
        want = sum(ladder) - 15
        return None if kv.get("w2") == str(want) else f"w2 {kv.get('w2')} != {want}"
    if job.kind == "ladder":
        want = ",".join(map(str, ladder))
        return None if kv.get("orders") == want else f"orders {kv.get('orders')} != {want}"
    want = c if l == 2 * m else 2 * l
    return None if kv.get("contact_order") == str(want) else f"contact order {kv.get('contact_order')} != {want}"
