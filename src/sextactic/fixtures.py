"""Bundled example curves and data files.

Each fixture names a curve studied in the test suite, the inline expressions
describing it, and the data files (profiles, branches) shipped with the
package.  ``write_files`` materializes the data files so the suggested
commands can be run as printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CURVES = {
    "nodal-cubic": {
        "implicit": "y^2*z - x^3 - x^2*z",
        "param": "(s*t^2 - s^3 : t^3 - s^2*t : s^3)",
    },
    "cuspidal-quartic": {
        "implicit": "x^4 - x^3*y + y^3*z",
        "param": "(s*t^3 : t^4 : s^3*t - s^4)",
    },
    "quintic-two-cusps": {
        "implicit": "y^5 + 2*x^2*y^2*z - x^3*z^2 - x*y^4",
        "param": "(s^5 : s^3*t^2 : s*t^4 + t^5)",
    },
    "quintic-binomial": {
        "implicit": "x^3*z^2 - y^5",
        "param": "(s^5 : s^3*t^2 : t^5)",
    },
    "smooth-cubic": {
        "implicit": "x^3 + y^3 + z^3",
    },
}


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    command: tuple
    files: tuple = ()


FIXTURES = (
    Fixture(
        "nodal-cubic",
        "nodal cubic with a sextactic point at (-1:0:1)",
        ("osculate", "--implicit", CURVES["nodal-cubic"]["implicit"], "--point", "(-1:0:1)"),
    ),
    Fixture(
        "nodal-cubic-conics",
        "osculating conic family of the nodal cubic, evaluated at (1:0)",
        ("wronski", "--param", CURVES["nodal-cubic"]["param"], "--omega", "--at", "(1:0)"),
    ),
    Fixture(
        "cuspidal-quartic",
        "quartic with one triple-point cusp; excess-contact covariant factors over y^18",
        ("hessian2", "--implicit", CURVES["cuspidal-quartic"]["implicit"]),
    ),
    Fixture(
        "cuspidal-quartic-orders",
        "contact orders of the excess-contact covariant along the quartic",
        (
            "orders",
            "--param", CURVES["cuspidal-quartic"]["param"],
            "--implicit", CURVES["cuspidal-quartic"]["implicit"],
            "--poly", "@hessian2",
            "--at", "(1:0),(1:4)",
        ),
    ),
    Fixture(
        "quartic-count",
        "sextactic and inflection counts of the cuspidal quartic",
        ("count", "--profile", "profile_quartic_cusp.json"),
        ("profile_quartic_cusp.json",),
    ),
    Fixture(
        "quintic-two-cusps",
        "quintic with cusps of multiplicity 3 and 2, one inflection, two sextactic points",
        ("wronski", "--param", CURVES["quintic-two-cusps"]["param"]),
    ),
    Fixture(
        "quintic-two-cusps-count",
        "counting formulas on the two-cusp quintic profile",
        ("count", "--profile", "profile_quintic_two_cusps.json"),
        ("profile_quintic_two_cusps.json",),
    ),
    Fixture(
        "quintic-binomial",
        "binomial quintic: all conic contact weight sits at the two cusps",
        ("wronski", "--param", CURVES["quintic-binomial"]["param"]),
    ),
    Fixture(
        "quintic-binomial-count",
        "counting formulas on the binomial quintic profile",
        ("count", "--profile", "profile_quintic_binomial.json"),
        ("profile_quintic_binomial.json",),
    ),
    Fixture(
        "smooth-cubic-count",
        "smooth cubic with nine inflections: 27 sextactic points",
        ("count", "--profile", "profile_smooth_cubic.json"),
        ("profile_smooth_cubic.json",),
    ),
    Fixture(
        "branch-cusp-3-5",
        "branch (t^3 : t^5 : 1): weight 17",
        ("weight", "--branch", "branch_cusp_3_5.json"),
        ("branch_cusp_3_5.json",),
    ),
    Fixture(
        "branch-cusp-2-4",
        "branch (t^2 : t^4 + t^5 : 1): tangent-degenerate cusp, weight 10",
        ("weight", "--branch", "branch_cusp_2_4.json"),
        ("branch_cusp_2_4.json",),
    ),
    Fixture(
        "branch-smooth-sextactic",
        "branch (t : t^2 + t^6 : 1): 1-sextactic smooth point",
        ("osc-branch", "--branch", "branch_smooth_sextactic.json"),
        ("branch_smooth_sextactic.json",),
    ),
)


def read_data_file(filename: str) -> str:
    """A bundled data file's text, read through the import system, so that it
    is found in a zipped or otherwise non-file package too."""
    # imported here: importlib.resources takes 15-20 ms to import (CPython
    # 3.11), which every command-line start would otherwise pay
    from importlib.resources import files

    return (files(__package__) / "fixtures_data" / filename).read_text(encoding="utf-8")


def data_file_names():
    out = []
    for f in FIXTURES:
        for name in f.files:
            if name not in out:
                out.append(name)
    return tuple(out)


def write_files(directory) -> list:
    """Copy every bundled data file into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in data_file_names():
        target = directory / name
        target.write_text(read_data_file(name), encoding="utf-8")
        written.append(target)
    return written
