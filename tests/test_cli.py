"""End-to-end command-line runs: exit codes, determinism, goldens."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest

from cli_child import SOURCE_DIR, run_cli
from sextactic import cli, fixtures
from sextactic.branch import weight2
from sextactic.differential import hessian, second_hessian
from sextactic.parse import parse_branch, parse_poly
from sextactic.poly import XYZ, MPoly, TernaryForm, _coeff_str

QUARTIC = "x^4 - x^3*y + y^3*z"
NODAL_CUBIC = "y^2*z - x^3 - x^2*z"
LONG = "1" * 5000
README = Path(__file__).resolve().parents[1] / "README.md"


def machine_dict(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        assert _ == " = ", f"unparseable machine line: {line!r}"
        out[key] = value
    return out


class TestExitCodes:
    def test_success(self):
        assert run_cli("hessian", "--implicit", "x^3 + y^3 + z^3").returncode == 0

    def test_domain_error(self):
        r = run_cli("hessian", "--implicit", "x^2 + y^2")
        assert r.returncode == 1
        assert "error: DegreeTooSmall" in r.stderr

    def test_parse_error(self):
        r = run_cli("hessian", "--implicit", "x^3 + q")
        assert r.returncode == 1
        assert "error: ParseError" in r.stderr

    def test_missing_file(self):
        r = run_cli("count", "--profile", "does_not_exist.json")
        assert r.returncode == 1
        assert "error: FileNotFoundError" in r.stderr

    @pytest.mark.parametrize(
        "command,option",
        [
            ("weight", "--branch"),
            ("ladder", "--branch"),
            ("osc-branch", "--branch"),
            ("count", "--profile"),
            ("predict39", "--profile"),
        ],
    )
    def test_file_that_is_not_utf8_is_parse_error(self, tmp_path, command, option):
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
        r = run_cli(command, option, "bad.json", cwd=tmp_path)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: ParseError: 'bad.json' is not UTF-8 text: invalid start byte at byte 0\n"

    def test_byte_offset_past_the_first_read(self, tmp_path, capsys):
        # a valid profile padded past the 8 KiB read buffer, then a Latin-1 "é"
        path = tmp_path / "profile.json"
        path.write_bytes(b'{"d": 3, "points": []}' + b" " * 10000 + b"\xe9 ")
        assert cli.main(["count", "--profile", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: ParseError: {str(path)!r} is not UTF-8 text: invalid continuation byte at byte 10022\n"

    def test_missing_file_message(self, tmp_path, capsys):
        assert cli.main(["weight", "--branch", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: FileNotFoundError: [Errno 2] No such file or directory: {str(tmp_path / 'nope.json')!r}\n"
        )

    def test_cusp_delta_below_m_choose_2_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"d": 4, "points": [{"role": "cusp", "m": 2, "l": 3, "delta": -1}]}))
        assert cli.main(["count", "--profile", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: CensusError: ")

    def test_usage_error(self):
        assert run_cli("hessian").returncode == 2
        assert run_cli("nonsense").returncode == 2
        assert run_cli("wronski", "--param", "(s^3:t^3:s*t^2)", "--at", "(1:0)").returncode == 2

    def test_osculate_inflection_is_domain_error(self):
        r = run_cli("osculate", "--implicit", NODAL_CUBIC, "--point", "(0:1:0)")
        assert r.returncode == 1
        assert "InflectionPoint" in r.stderr

    def test_osculate_error_shows_the_point(self):
        r = run_cli("osculate", "--implicit", "x^3 + y^3 + z^3", "--point", "(1:-1:0)")
        assert r.returncode == 1
        assert r.stderr == "error: InflectionPoint: the Hessian vanishes at (1 : -1 : 0)\n"

    def test_point_not_on_curve_shows_a_fraction(self):
        r = run_cli("osculate", "--implicit", "x^3 + y^3 + z^3", "--point", "(1/2:1:0)")
        assert r.returncode == 1
        assert r.stderr == "error: PointNotOnCurve: F does not vanish at (1/2 : 1 : 0)\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("hessian", "--implicit", "x^²*y + z^3"),
            ("wronski", "--param", "(s^3 : s*t^2 : t^3)", "--omega", "--at", "(1²:1)"),
        ],
    )
    def test_non_ascii_digit_is_parse_error(self, args):
        r = run_cli(*args)
        assert r.returncode == 1
        assert r.stderr == "error: ParseError: unexpected character '²' at [2:3]\n"

    @pytest.mark.parametrize(
        "args,where",
        [
            (("hessian", "--implicit", f"{LONG}*x^3 + y^3 + z^3"), " at [0:5000]"),
            (("wronski", "--param", f"(s^3 : {LONG}*s*t^2 : t^3)"), " at [7:5007]"),
            (("weight", "--branch", "long.json"), ""),
        ],
        ids=["hessian", "wronski", "weight"],
    )
    def test_over_long_literal_is_parse_error(self, tmp_path, args, where):
        # int() refuses decimal strings over the interpreter's digit limit
        branch = '{"truncation": 5, "x": [[%s, 1, 1]], "y": [[1, 1, 2]], "z": [[1, 1, 0]]}'
        (tmp_path / "long.json").write_text(branch % LONG)
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 1
        limit = sys.get_int_max_str_digits()
        message = f"integer literal over the limit of {limit} digits{where}"
        if args[0] == "weight":
            message = "malformed branch file: " + message
        assert r.stderr == f"error: ParseError: {message}\n"

    @pytest.mark.parametrize("value", ["٥", "²", "1_0"])
    def test_check_lemma37_degree_is_ascii_integer(self, value):
        # int() reads "٥" as 5 and "1_0" as 10; both are usage errors here
        r = run_cli("check-lemma37", "--ms", "3,2", "--d", value)
        assert r.returncode == 2
        assert f"argument --d: invalid int value: {value!r}" in r.stderr

    @pytest.mark.parametrize("ms", ["٣,٢", "3,²", "1_0,2"])
    def test_check_lemma37_sequence_is_ascii_integers(self, ms):
        r = run_cli("check-lemma37", "--ms", ms, "--d", "5")
        assert r.returncode == 1
        assert r.stderr == (
            f"error: BranchError: --ms expects a comma-separated integer list, got {ms!r}\n"
        )

    @pytest.mark.parametrize(
        "args,code,option",
        [
            (("--ms", "3,2", "--d", LONG + "x"), 2, "argument --d"),
            (("--ms", "3,2", "--d", "5", "--l", "٥" * 6000), 2, "argument --l"),
            (("--ms", "3," * 3000 + "x", "--d", "5"), 1, "--ms"),
        ],
    )
    def test_check_lemma37_quotes_a_long_bad_argument_briefly(self, args, code, option):
        # the head of the argument and its length, not the whole of it
        r = run_cli("check-lemma37", *args)
        assert r.returncode == code
        assert len(r.stderr.encode()) < 1000
        assert option in r.stderr
        assert "characters)" in r.stderr

    def test_check_lemma37_blanks_around_integers(self):
        r = run_cli("check-lemma37", "--ms", " 3 , 2 ", "--d", " 5", "--format", "machine")
        assert r.returncode == 0
        assert machine_dict(r.stdout)["feasible_l"] == "5"

    @pytest.mark.parametrize(
        "command,field",
        [
            ("count", {"c": "6"}),
            ("count", {"delta": "1"}),
            ("count", {"multiplicity_sequence": 2}),
            ("count", {"label": ["a"]}),
            ("predict39", {"c": "6"}),
        ],
    )
    def test_profile_field_of_wrong_type(self, tmp_path, command, field):
        point = dict({"role": "cusp", "m": 2, "l": 4, "c": 5, "delta": 1}, **field)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"d": 5, "points": [point]}))
        r = run_cli(command, "--profile", str(path))
        assert r.returncode == 1
        assert r.stderr.startswith("error: ParseError: point #0: ")


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_byte_identical_reruns(self, fmt):
        args = ("hessian2", "--implicit", QUARTIC, "--format", fmt)
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


class TestGoldens:
    def test_hessian2_machine(self):
        r = run_cli("hessian2", "--implicit", QUARTIC, "--format", "machine")
        data = machine_dict(r.stdout)
        assert data["variant"] == "corrected"
        assert data["H2_degree"] == "21"
        assert data["H2"].startswith("-44442639360*x^3*y^18")

    def test_hessian2_normalized(self):
        r = run_cli(
            "hessian2", "--implicit", QUARTIC, "--format", "machine", "--normalize"
        )
        data = machine_dict(r.stdout)
        assert data["content"] == str(-(2**7) * 3**11 * 5 * 7)
        assert data["H2"].startswith("56*x^3*y^18")

    def test_hessian_of_cone_is_zero_with_undefined_degree(self):
        r = run_cli("hessian", "--implicit", "x^2*y", "--format", "machine")
        data = machine_dict(r.stdout)
        assert data["H"] == "0"
        assert data["H_degree"] == "undefined"

    def test_osculate(self):
        r = run_cli("osculate", "--implicit", NODAL_CUBIC, "--point", "(-1:0:1)")
        assert "O = 2*x^2 + 3*x*z + y^2 + z^2" in r.stdout

    def test_wronski_machine(self):
        r = run_cli(
            "wronski", "--param", "(s^5 : s^3*t^2 : t^5)", "--format", "machine"
        )
        data = machine_dict(r.stdout)
        assert data["content"] == str(-(2**25) * 3**13 * 5**5 * 7**5)
        assert data["factor_1"] == "s"
        assert data["factor_1_multiplicity"] == "17"
        assert data["factor_2"] == "t"
        assert data["factor_2_multiplicity"] == "13"
        assert data["total_weight"] == "30"

    def test_wronski_text_factored_content(self):
        r = run_cli("wronski", "--param", "(s^5 : s^3*t^2 : t^5)")
        assert "content_factored = -2^25 * 3^13 * 5^5 * 7^5" in r.stdout

    def test_omega_family(self):
        r = run_cli(
            "wronski",
            "--param", "(s*t^2 - s^3 : t^3 - s^2*t : s^3)",
            "--omega", "--format", "machine",
        )
        data = machine_dict(r.stdout)
        assert set(data) == {
            "d", "omega[x^2]", "omega[x*y]", "omega[x*z]",
            "omega[y^2]", "omega[y*z]", "omega[z^2]",
        }
        # the x^2 coefficient is the known degree-10 form times the shared scalar
        lam = -223948800
        assert data["omega[x^2]"] == str(
            lam * 2
        ) + "*s^10 - 1119744000*s^8*t^2 - 13436928000*s^6*t^4 - 10077696000*s^4*t^6"

    def test_omega_at(self):
        r = run_cli(
            "wronski",
            "--param", "(s*t^2 - s^3 : t^3 - s^2*t : s^3)",
            "--omega", "--at", "(1:0)",
        )
        assert "O = 2*x^2 + 3*x*z + y^2 + z^2" in r.stdout

    def test_orders(self):
        r = run_cli(
            "orders",
            "--param", "(s*t^3 : t^4 : s^3*t - s^4)",
            "--implicit", QUARTIC,
            "--poly", "@hessian",
            "--at", "(1:0),(1:2),(0:1)",
            "--format", "machine",
        )
        data = machine_dict(r.stdout)
        assert data["at_1_order"] == "22"
        assert data["at_2_order"] == "1"
        assert data["at_3_order"] == "1"
        assert data["residual_degree"] == "0"

    def test_check_lemma37(self):
        r = run_cli("check-lemma37", "--ms", "3,2", "--d", "5", "--format", "machine")
        data = machine_dict(r.stdout)
        assert data["ok"] == "yes"
        assert data["feasible_l"] == "5"

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ["--ms", "2,2,1", "--d", "6", "--l", "4", "--c", "5"],
                "ok = yes\nfeasible_l = 4,5\nfeasible_c = 5\n"
                "note_1 = l=4 realized with k=1\nnote_2 = c=5 realized with k=2\n",
            ),
            (
                ["--ms", "2,2,1", "--d", "6", "--l", "4", "--c", "7"],
                "ok = no\nfeasible_l = 4,5\nfeasible_c = 5\n"
                "note_1 = l=4 realized with k=1\nnote_2 = c=7 is not attainable; feasible: [5]\n",
            ),
            (
                ["--ms", "3,3", "--d", "3"],
                "ok = no\nfeasible_l = -\nnote_1 = no tangent contact order fits within degree 3\n",
            ),
        ],
        ids=["c-realized", "c-not-attainable", "no-l-fits"],
    )
    def test_check_lemma37_notes_in_process(self, capsys, argv, stdout):
        assert cli.main(["check-lemma37", *argv]) == 0
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("command", ["hessian2", "orders"])
    def test_variant_choices(self, capsys, command):
        argv = [command, "--implicit", "x^3 + y^3 + z^3", "--variant", "bogus"]
        if command == "orders":
            argv += ["--param", "(s:t:s)", "--poly", "@hessian2", "--at", "(1:0)"]
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        # the variants in VARIANTS order, quoted or not as argparse prints them
        assert re.search(r"\(choose from '?corrected'?, '?cayley1865'?\)", capsys.readouterr().err)

    def test_machine_format_is_line_oriented(self):
        r = run_cli(
            "count", "--profile", "-", "--format", "machine"
        )
        # '-' is not a file; just confirm the error path stays on stderr
        assert r.returncode == 1
        assert r.stdout == ""
        assert "error: FileNotFoundError" in r.stderr


class TestFormats:
    def test_machine_and_text_agree(self, tmp_path):
        fixtures.write_files(tmp_path)
        args = ("count", "--profile", "profile_quintic_two_cusps.json")
        text = run_cli(*args, cwd=tmp_path).stdout
        data = machine_dict(
            run_cli(*args, "--format", "machine", cwd=tmp_path).stdout
        )
        for key in ("s", "v", "g", "total_weight", "identity1_residual"):
            assert f"{key} = {data[key]}" in text


class TestFixtures:
    def test_listing(self):
        r = run_cli("examples")
        assert r.returncode == 0
        for f in fixtures.FIXTURES:
            assert f.name in r.stdout

    def test_write_flag(self, tmp_path):
        r = run_cli("examples", "--write", str(tmp_path))
        assert r.returncode == 0
        for name in fixtures.data_file_names():
            assert (tmp_path / name).exists()

    def test_write_flag_from_a_zipped_package(self, tmp_path):
        # the data files must be read through the import system: a zipped
        # package has no directory beside fixtures.py
        archive = tmp_path / "pkg.zip"
        package = Path(SOURCE_DIR) / "sextactic"
        with zipfile.ZipFile(archive, "w") as z:
            for path in sorted(package.rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    z.write(path, path.relative_to(package.parent).as_posix())
        out = tmp_path / "out"
        r = subprocess.run(
            [sys.executable, "-m", "sextactic", "examples", "--write", str(out)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(archive)},
        )
        assert r.returncode == 0, r.stderr
        names = fixtures.data_file_names()
        assert len(names) == 7
        for name in names:
            assert (out / name).read_text(encoding="utf-8") == fixtures.read_data_file(name)


# the expected stdout of TestRecordedStdout
WRONSKI_NORMALIZED_QUINTIC = (
    "d = 5\n"
    "xi_degree = 30\n"
    "xi = 192*s^20*t^10 + 1680*s^19*t^11 + 5275*s^18*t^12 + 5250*s^17*t^13\n"
    "content = -535188929406566400\n"
    "content_factored = -2^24 * 3^12 * 5^2 * 7^4\n"
    "# zero classes\n"
    "factor                     | degree | multiplicity\n"
    "--------------------------------------------------\n"
    "s                          | 1      | 17          \n"
    "t                          | 1      | 10          \n"
    "8*s + 15*t                 | 1      | 1           \n"
    "24*s^2 + 165*s*t + 350*t^2 | 2      | 1           \n"
    "# weights\n"
    "weight | points | parameter | point                     | factor                    \n"
    "------------------------------------------------------------------------------------\n"
    "17     | 1      | (0 : 1)   | (0 : 0 : 1)               | s                         \n"
    "10     | 1      | (1 : 0)   | (1 : 0 : 0)               | t                         \n"
    "1      | 1      | (15 : -8) | (759375 : 216000 : 28672) | 8*s + 15*t                \n"
    "1      | 2      | -         | -                         | 24*s^2 + 165*s*t + 350*t^2\n"
    "total_weight = 30\n"
)
SEXTACTIC_BRANCH_WEIGHT = (
    "m = 1\nl = 2\nc = 6\norders = 0,1,2,3,4,6\nw2 = 1\n"
    "classification = sextactic\nsextactic_order = 1\n"
)
EXAMPLES_MACHINE = (
    "example_1_name = nodal-cubic\n"
    'example_1_command = osculate --implicit "y^2*z - x^3 - x^2*z" --point "(-1:0:1)"\n'
    "example_2_name = nodal-cubic-conics\n"
    'example_2_command = wronski --param "(s*t^2 - s^3 : t^3 - s^2*t : s^3)" --omega --at "(1:0)"\n'
    "example_3_name = cuspidal-quartic\n"
    'example_3_command = hessian2 --implicit "x^4 - x^3*y + y^3*z"\n'
    "example_4_name = cuspidal-quartic-orders\n"
    'example_4_command = orders --param "(s*t^3 : t^4 : s^3*t - s^4)" --implicit "x^4 - x^3*y + y^3*z"'
    ' --poly @hessian2 --at "(1:0),(1:4)"\n'
    "example_5_name = quartic-count\n"
    "example_5_command = count --profile profile_quartic_cusp.json\n"
    "example_6_name = quintic-two-cusps\n"
    'example_6_command = wronski --param "(s^5 : s^3*t^2 : s*t^4 + t^5)"\n'
    "example_7_name = quintic-two-cusps-count\n"
    "example_7_command = count --profile profile_quintic_two_cusps.json\n"
    "example_8_name = quintic-binomial\n"
    'example_8_command = wronski --param "(s^5 : s^3*t^2 : t^5)"\n'
    "example_9_name = quintic-binomial-count\n"
    "example_9_command = count --profile profile_quintic_binomial.json\n"
    "example_10_name = smooth-cubic-count\n"
    "example_10_command = count --profile profile_smooth_cubic.json\n"
    "example_11_name = branch-cusp-3-5\n"
    "example_11_command = weight --branch branch_cusp_3_5.json\n"
    "example_12_name = branch-cusp-2-4\n"
    "example_12_command = weight --branch branch_cusp_2_4.json\n"
    "example_13_name = branch-smooth-sextactic\n"
    "example_13_command = osc-branch --branch branch_smooth_sextactic.json\n"
)


class TestRecordedStdout:
    """Whole stdout of report lines that no other test reaches."""

    def test_wronski_normalize_in_plain_mode(self, capsys):
        assert cli.main(["wronski", "--normalize", "--param", "(s^5 : s^3*t^2 : s*t^4 + t^5)"]) == 0
        assert capsys.readouterr().out == WRONSKI_NORMALIZED_QUINTIC

    def test_weight_of_a_sextactic_branch(self, tmp_path, capsys):
        fixtures.write_files(tmp_path)
        assert cli.main(["weight", "--branch", str(tmp_path / "branch_smooth_sextactic.json")]) == 0
        assert capsys.readouterr().out == SEXTACTIC_BRANCH_WEIGHT

    def test_examples_machine_format(self, capsys):
        assert cli.main(["examples", "--format", "machine"]) == 0
        assert capsys.readouterr().out == EXAMPLES_MACHINE


def readme_cli_lines():
    """The command lines of the README's CLI block, continuation lines
    joined, each without its leading ``sextactic``."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```\n")[1]
    return [line.split(None, 1)[1] for line in block.replace("\\\n", " ").splitlines()]


def readme_runs(line):
    """The argv lists of one README command line: once without its bracketed
    options, then once per bracketed flag that takes no placeholder, a flag
    with listed values (``--variant a|b``) once per value."""
    runs = [shlex.split(re.sub(r"\[[^]]*\]", "", line))]
    for flag, *value in (opt.split() for opt in re.findall(r"\[([^]]*)\]", line)):
        if not value:
            runs.append(runs[0] + [flag])
        elif "|" in value[0]:
            runs += [runs[0] + [flag, v] for v in value[0].split("|")]
    return runs


class TestReadmeCli:
    def test_every_line_runs_from_an_examples_directory(self, tmp_path, monkeypatch, capsys):
        assert cli.main(["examples", "--write", str(tmp_path)]) == 0
        monkeypatch.chdir(tmp_path)
        runs = [argv for line in readme_cli_lines() for argv in readme_runs(line)]
        failed = []
        for argv in runs:
            capsys.readouterr()
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
            if rc != 0:
                failed.append((argv, rc, capsys.readouterr().err))
        assert failed == []
        assert ["count", "--profile", "profile_smooth_cubic.json", "--per-branch"] in runs
        assert sum("--variant" in argv for argv in runs) == 2


class TestPerBranchCli:
    def test_shared_labels(self, tmp_path):
        import json

        profile = {
            "d": 6,
            "g": 2,
            "points": [
                {"role": "cusp", "label": "p", "m": 2, "l": 3, "delta": 1},
                {"role": "inflection", "label": "p", "m": 1, "l": 3},
            ],
        }
        path = tmp_path / "multibranch.json"
        path.write_text(json.dumps(profile))
        rejected = run_cli("count", "--profile", str(path))
        assert rejected.returncode == 1
        accepted = run_cli(
            "count", "--profile", str(path), "--per-branch", "--format", "machine"
        )
        assert accepted.returncode == 0
        assert machine_dict(accepted.stdout)["g"] == "2"

    def test_fixture_commands_run_clean_and_reproducibly(self, tmp_path):
        fixtures.write_files(tmp_path)
        for f in fixtures.FIXTURES:
            first = run_cli(*f.command, cwd=tmp_path)
            assert first.returncode == 0, (f.name, first.stderr)
            again = run_cli(*f.command, cwd=tmp_path)
            assert again.stdout == first.stdout, f.name

    def test_count_fixture_values(self, tmp_path):
        fixtures.write_files(tmp_path)
        for name, want_s in [
            ("profile_quintic_two_cusps.json", "2"),
            ("profile_quintic_binomial.json", "0"),
            ("profile_quartic_cusp.json", "3"),
            ("profile_smooth_cubic.json", "27"),
        ]:
            r = run_cli(
                "count", "--profile", name, "--format", "machine", cwd=tmp_path
            )
            data = machine_dict(r.stdout)
            assert data["s"] == want_s, name
            assert data["identity1_residual"] == "0"
            assert data["identity2_residual"] == "0"

    def test_weight_fixture(self, tmp_path):
        fixtures.write_files(tmp_path)
        r = run_cli(
            "weight", "--branch", "branch_cusp_3_5.json",
            "--format", "machine", cwd=tmp_path,
        )
        data = machine_dict(r.stdout)
        assert data["w2"] == "17"
        assert data["classification"] == "cusp"

    def test_predict_fixture(self, tmp_path):
        fixtures.write_files(tmp_path)
        r = run_cli(
            "predict39", "--profile", "profile_quintic_two_cusps.json",
            "--format", "machine", cwd=tmp_path,
        )
        data = machine_dict(r.stdout)
        assert data["point_1_H2_order"] == "108"
        assert data["point_2_H2_order"] == "55"
        assert data["point_1_H_order"] == "29"
        assert data["point_2_H_order"] == "15"

    def test_multiplicity_sequence_errors_keep_their_class_and_repr(self, tmp_path):
        r = run_cli("check-lemma37", "--ms", "2,3", "--d", "5")
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: BranchError: multiplicity sequence must be non-increasing: [2, 3]\n"
        profile = {"d": 5, "points": [{"role": "cusp", "m": 2, "l": 3, "multiplicity_sequence": [2, 3]}]}
        (tmp_path / "p.json").write_text(json.dumps(profile))
        r = run_cli("count", "--profile", "p.json", cwd=tmp_path)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: CensusError: multiplicity sequence must be non-increasing: (2, 3)\n"

    def test_osc_branch_fixture(self, tmp_path):
        fixtures.write_files(tmp_path)
        r = run_cli(
            "osc-branch", "--branch", "branch_smooth_sextactic.json",
            "--format", "machine", cwd=tmp_path,
        )
        data = machine_dict(r.stdout)
        assert data["conic"] == "x^2 - y*z"
        assert data["contact_order"] == "6"


class TestOmegaAtErrors:
    ZERO_FAMILY = "(s^3 : s^3 + t^3 : t^3)"

    def test_identically_zero_family(self):
        r = run_cli("wronski", "--param", self.ZERO_FAMILY, "--omega", "--at", "(1:1)")
        assert r.returncode == 1
        assert "error: DegenerateParam: conic family is identically zero" in r.stderr

    def test_family_vanishing_at_parameter(self):
        r = run_cli("wronski", "--param", "(s^3 : s*t^2 : t^3)", "--omega", "--at", "(1:0)")
        assert r.returncode == 1
        assert "error: DegenerateParam: conic family vanishes at (1 : 0)" in r.stderr

    def test_malformed_at_reported_first(self):
        # the parameter is parsed before any conic is computed, so a bad
        # --at wins over an identically zero family
        r = run_cli("wronski", "--param", self.ZERO_FAMILY, "--omega", "--at", "(1:")
        assert r.returncode == 1
        assert "error: ParseError" in r.stderr


class TestSparseBranch:
    """Exponents near 10^8 under a truncation of 10^9: series products must
    follow the stored terms, never the truncation order."""

    BRANCH = {
        "truncation": 10**9,
        "x": [[1, 1, 2], [3, 2, 10**8]],
        "y": [[1, 1, 4], [1, 1, 5], [2, 3, 3 * 10**8]],
        "z": [[1, 1, 0]],
    }

    @pytest.mark.parametrize(
        "command,want",
        [
            ("weight", {"orders": "0,2,4,5,6,8", "w2": "10"}),
            ("ladder", {"orders": "0,2,4,5,6,8", "witness_4": "x^2 - y*z"}),
            ("osc-branch", {"conic": "x^2 - y*z", "contact_order": "5"}),
        ],
    )
    def test_finishes_fast_with_the_parent_answer(self, tmp_path, capsys, command, want):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(self.BRANCH))
        start = time.perf_counter()
        assert cli.main([command, "--branch", str(path), "--format", "machine"]) == 0
        assert time.perf_counter() - start < 1.0
        out = machine_dict(capsys.readouterr().out)
        assert {k: out[k] for k in want} == want

    # x^2 - y*z vanishes along (t : t^2 : 1), so the ladder stalls at the
    # truncation order, which a dense list would have to hold
    STALL = {"truncation": 10**9, "x": [[1, 1, 1]], "y": [[1, 1, 2]], "z": [[1, 1, 0]]}

    @pytest.mark.parametrize("command", ["weight", "ladder", "osc-branch"])
    def test_stalls_fast_on_a_conic(self, tmp_path, capsys, command):
        path = tmp_path / "stall.json"
        path.write_text(json.dumps(self.STALL))
        start = time.perf_counter()
        assert cli.main([command, "--branch", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: TruncationInsufficient: series data exhausted at order 1000000000; "
            "re-supply the branch with truncation >= 1000000001\n"
        )

    def test_parse_and_weight_stay_small(self):
        text = json.dumps(self.BRANCH)
        tracemalloc.start()
        try:
            report = weight2(parse_branch(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.w2 == 10
        assert peak < 2**20


class TestInProcessSequence:
    """One process runs many ``main`` calls; each must print what a fresh
    child prints, so the parser that ``main`` keeps leaves nothing behind."""

    CALLS = [
        ("hessian", "--implicit", "x^3 + y^3 + z^3", "--normalize"),
        ("hessian2", "--implicit", QUARTIC, "--format", "machine"),
        ("weight", "--branch", "branch_cusp_3_5.json"),
        ("count", "--profile", "profile_quintic_two_cusps.json", "--format", "machine"),
        ("check-lemma37", "--ms", "3,2", "--d", "5"),
        ("wronski", "--param", "(s^3:t^3:s*t^2)", "--at", "(1:0)"),
        ("osculate", "--implicit", "x^3 + y^3 + z^3", "--point", "(1:-1:0)"),
        ("hessian", "--implicit", NODAL_CUBIC),
    ]

    def test_matches_fresh_children(self, tmp_path, capsys, monkeypatch):
        fixtures.write_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        built = []
        build = cli._build
        monkeypatch.setattr(cli, "_build", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            got = []
            for args in self.CALLS:
                try:
                    rc = cli.main(list(args))
                except SystemExit as e:
                    rc = e.code
                got.append((rc, capsys.readouterr().out))
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        want = [(r.returncode, r.stdout) for r in (run_cli(*a, cwd=tmp_path) for a in self.CALLS)]
        assert [rc for rc, _ in want] == [0, 0, 0, 0, 0, 2, 1, 0]
        assert got == want


def dense_curve(rng, d, rational):
    """A form of degree d with every coefficient nonzero, so ``hessian``
    takes the dense ``TernaryForm`` chain."""
    terms = {}
    for i in range(d + 1):
        for j in range(d + 1 - i):
            c = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
            terms[(i, j, d - i - j)] = Fraction(c, rng.randint(1, 6)) if rational else c
    return MPoly(XYZ, terms)


def public_api_lines(F, command, variant, normalize, machine):
    """The report of ``hessian`` or ``hessian2``, rendered from the public
    ``MPoly`` results of ``hessian`` and ``second_hessian``."""
    d = F.homogeneous_degree()
    if command == "hessian":
        lines, key, form = [], "H", hessian(F).H
    else:
        lines, key, form = [f"variant = {variant}", f"d = {d}"], "H2", second_hessian(F, variant)
    if normalize and not form.is_zero():
        form, scale = form.canonical_with_scale()
        lines.append(f"content = {_coeff_str(Fraction(scale))}")
        if command == "hessian2" and not machine:
            lines.append(f"content_factored = {cli._factored_str(scale)}")
    if command == "hessian":
        lines.append(f"d = {d}")
    lines.append(f"{key}_degree = {form.degree() if not form.is_zero() else 'undefined'}")
    lines.append(f"{key} = {form}")
    return "".join(f"{line}\n" for line in lines)


class TestDenseChainReports:
    """``hessian`` and ``hessian2`` normalise and print the dense chain's
    ``TernaryForm``s; each report must equal the one rendered from the
    public ``MPoly`` API.  The text grammar takes integer literals only, so a
    curve with rational coefficients enters through a patched ``parse_poly``."""

    CURVES = [(d, rational) for d in range(3, 8) for rational in (False, True)]

    @pytest.mark.parametrize("d, rational", CURVES)
    def test_reports_match_the_public_api(self, d, rational, capsys, monkeypatch):
        F = dense_curve(random.Random(100 * d + rational), d, rational)
        text = "<rational curve>" if rational else str(F)
        if rational:
            monkeypatch.setattr(cli, "parse_poly", lambda given, _: F if given == text else None)
        runs = [("hessian", "corrected")] + [("hessian2", v) for v in ("corrected", "cayley1865")]
        for command, variant in runs:
            for normalize in (False, True):
                for fmt in ("text", "machine"):
                    argv = [command, "--implicit", text, "--format", fmt]
                    argv += ["--variant", variant] if command == "hessian2" else []
                    argv += ["--normalize"] if normalize else []
                    assert cli.main(argv) == 0
                    out, err = capsys.readouterr()
                    assert err == ""
                    assert out == public_api_lines(F, command, variant, normalize, fmt == "machine")

    @pytest.mark.parametrize("normalize", [[], ["--normalize"]])
    def test_vanishing_hessian_on_the_dense_chain(self, normalize, capsys):
        cone = "(x + y + z)^3"  # ten terms
        assert cli.main(["hessian", "--implicit", cone, "--format", "machine", *normalize]) == 0
        data = machine_dict(capsys.readouterr().out)
        assert (data["H"], data["H_degree"]) == ("0", "undefined")
        assert cli.main(["hessian2", "--implicit", cone, *normalize]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: HessianVanishes: ")


class TestThreeTermCubics:
    """Three terms fill a cubic's triangle, so these cubics take the dense
    ``TernaryForm`` chain; every report of ``hessian`` and ``hessian2``
    must equal the one in ``three_term_cubics.json``, recorded when they
    still ran the sparse ``MPoly`` chain."""

    RECORDED = json.loads(Path(__file__).with_name("three_term_cubics.json").read_text())

    def test_dense_chain_prints_the_recorded_reports(self, capsys):
        cubics = ["x^3 + y^3 + z^3", "x^2*y + y^2*z + z^2*x", "y^2*z - x^3 - x*z^2", NODAL_CUBIC]
        assert list(self.RECORDED) == cubics
        for text in cubics:
            assert isinstance(hessian(parse_poly(text)).chain.f, TernaryForm)
            reports = self.RECORDED[text]
            assert len(reports) == 12  # hessian, two variants; normalised or not; two formats
            for args, want in reports.items():
                assert cli.main([*args.split(), "--implicit", text]) == 0
                assert capsys.readouterr() == (want, "")


class TestSubcommandParsing:
    """``main`` parses a known subcommand with that subcommand's parser;
    every outcome must be what the whole parser gives."""

    VALID = {
        "hessian": ["--implicit", "x^3"],
        "hessian2": ["--implicit", "x^3"],
        "osculate": ["--implicit", "x^3", "--point", "(0:0:1)"],
        "wronski": ["--param", "(s:t:s)"],
        "orders": ["--param", "(s:t:s)", "--poly", "x", "--at", "(1:0)"],
        "weight": ["--branch", "b.json"],
        "ladder": ["--branch", "b.json"],
        "osc-branch": ["--branch", "b.json"],
        "check-lemma37": ["--ms", "3,2", "--d", "5"],
        "count": ["--profile", "p.json"],
        "predict39": ["--profile", "p.json"],
        "examples": [],
    }

    CASES = (
        [[name, *args] for name, args in VALID.items()]
        + [[name, *args, "--bogus"] for name, args in VALID.items()]
        + [[name, *args, "stray", "--bogus=1"] for name, args in VALID.items()]
        + [
            [], ["-h"], ["--help"], ["--bogus"], ["nonsense"], ["nonsense", "--implicit", "x"],
            ["hessian"], ["orders", "--param", "(s:t:s)"], ["hessian", "-h"], ["count", "--help"],
            ["hessian", "--implicit"], ["hessian2", "--implicit", "x^3", "--variant", "nope"],
            ["hessian", "--implicit", "x^3", "--format", "xml"], ["hessian", "--imp", "x^3"],
            ["hessian", "--implicit", "x^3", "--", "y"], ["check-lemma37", "--ms", "3", "--d", "x"],
        ]
    )

    def test_every_subcommand_is_in_the_table(self):
        assert set(cli._parser()[1]) == set(self.VALID)

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_same_outcome_as_the_whole_parser(self, argv, capsys):
        def outcome(parse):
            try:
                result = vars(parse(list(argv)))
            except SystemExit as e:
                result = e.code
            return result, capsys.readouterr()

        want = outcome(cli.build_parser().parse_args)
        assert outcome(lambda a: cli._parse(a)[1]) == want


class TestOptionsWhereRead:
    """An option is accepted only by the subcommands whose handlers read it,
    and a handler's usage error shows its own subcommand's usage."""

    NORMALIZING = {"hessian", "hessian2", "wronski"}

    @pytest.mark.parametrize("name", TestSubcommandParsing.VALID)
    def test_normalize_only_where_a_handler_reads_it(self, name, capsys):
        argv = [name, *TestSubcommandParsing.VALID[name], "--normalize"]
        if name in self.NORMALIZING:
            assert cli._parse(argv)[1].normalize is True
            return
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --normalize" in err

    ORDERS = ["orders", "--param", "(s^4:s^3*t:t^4)", "--at", "(1:0)"]

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            (["wronski", "--param", "(s^3:t^3:s*t^2)", "--at", "(1:0)"], "--at requires --omega"),
            (
                ["orders", "--param", "(s^3:t^3:s*t^2)", "--poly", "@hessian", "--at", "(1:1)"],
                "--poly @hessian requires --implicit",
            ),
            # options accepted by a handler that would not read them
            (
                [*ORDERS, "--poly", "x*z-y^2", "--implicit", "((", "--variant", "cayley1865"],
                "--implicit requires --poly @hessian or @hessian2",
            ),
            (
                [*ORDERS, "--poly", "@hessian", "--implicit", "x^3 + y^3 + z^3", "--variant", "cayley1865"],
                "--variant requires --poly @hessian2",
            ),
            (
                ["wronski", "--param", "(s^3:t^3:s*t^2)", "--omega", "--normalize"],
                "--normalize is not allowed with --omega",
            ),
        ],
    )
    def test_handler_refusal_shows_the_subcommand_usage(self, argv, refusal, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: sextactic {argv[0]} ")
        assert err.endswith(f"sextactic {argv[0]}: error: {refusal}\n")

    def test_variant_defaults_to_corrected(self, capsys):
        argv = [*self.ORDERS, "--poly", "@hessian2", "--implicit", "x^4 - x^3*y + y^3*z"]
        assert cli.main(argv) == 0
        default = capsys.readouterr().out
        assert cli.main([*argv, "--variant", "corrected"]) == 0
        assert capsys.readouterr().out == default


class TestRepeatedParameters:
    """ROADMAP item 22: ``orders`` counts a parameter listed twice once per
    listing.  A fix may refuse the repeat (exit 1) or count the point once."""

    ARGS = ["orders", "--param", "(s^4:s^3*t:t^4)", "--poly", "x*z-y^2", "--format", "machine"]
    REASON = (
        "ROADMAP item 22: a repeated parameter is counted once per listing; the fix "
        "changes the perfbench/reference.json digests of the orders jobs that list "
        "a parameter twice"
    )

    def run(self, at, capsys):
        rc = cli.main([*self.ARGS, "--at", at])
        return rc, machine_dict(capsys.readouterr().out)

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_residual_degree_is_never_negative(self, capsys):
        rc, out = self.run(",".join(f"({k}:{k})" for k in range(1, 10)), capsys)
        assert rc == 1 or int(out["residual_degree"]) >= 0

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_a_point_listed_twice_counts_once(self, capsys):
        # the pullback's order at (1:0) is 2
        rc, out = self.run("(1:0),(1:0)", capsys)
        assert rc == 1 or int(out["sum_orders"]) <= 2


class TestIntegerPrintLimit:
    """Python refuses str() of an integer over sys.get_int_max_str_digits()."""

    # a product of literals has no digit bound of its own, so the coefficient
    # of x^3 is 10^4500 and the Hessian's 216 * 10^4500; a parenthesized
    # power of the literal would be refused while parsing
    BIG_CUBE = "*".join(["1" + "0" * 1500] * 3) + "*x^3 + y^3 + z^3"

    def test_printed_coefficient_is_domain_error(self, capsys):
        start = time.perf_counter()
        assert cli.main(["hessian", "--implicit", self.BIG_CUBE]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        limit = sys.get_int_max_str_digits()
        assert err.startswith("error: IntegerTooLong: a computed integer of ")
        assert err.endswith(f" bits is over the limit of {limit} digits for printing\n")

    def test_dense_chain_printer_refuses_the_coefficient(self, capsys):
        # four terms, so the dense chain, whose form prints H straight from
        # its rows; H's leading coefficient, -6 * 10^4500, is over the limit
        start = time.perf_counter()
        assert cli.main(["hessian", "--implicit", self.BIG_CUBE + " + x*y*z"]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: IntegerTooLong: a computed integer of ")

    def test_error_after_first_line_leaves_stdout_empty(self, capsys):
        # d and H_degree are known before H fails to print
        args = ["hessian", "--implicit", self.BIG_CUBE]
        assert cli.main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: IntegerTooLong: ")
        r = run_cli(*args)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == err

    @pytest.mark.parametrize("option", ["--d", "--c"])
    def test_check_lemma37_option_over_limit_is_usage_error(self, option):
        values = {"--d": "5", "--c": "7", option: LONG}
        argv = [a for item in values.items() for a in item]
        r = run_cli("check-lemma37", "--ms", "3,2", "--l", "6", *argv)
        limit = sys.get_int_max_str_digits()
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.endswith(
            f"argument {option}: integer literal over the limit of {limit} digits\n"
        )
        assert len(r.stderr) < 1000

    def test_check_lemma37_sequence_over_limit_is_domain_error(self, capsys):
        start = time.perf_counter()
        assert cli.main(["check-lemma37", "--ms", f"{LONG},2", "--d", "5"]) == 1
        assert time.perf_counter() - start < 1.0
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == (
            f"error: ParseError: integer literal over the limit of {limit} digits\n"
        )
