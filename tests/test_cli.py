"""End-to-end command-line runs: exit codes, determinism, goldens."""

import json
import sys
import time

import pytest

from cli_child import run_cli
from sextactic import cli, fixtures

QUARTIC = "x^4 - x^3*y + y^3*z"
NODAL_CUBIC = "y^2*z - x^3 - x^2*z"
LONG = "1" * 5000


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
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
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
        assert len(built) <= 1
        want = [(r.returncode, r.stdout) for r in (run_cli(*a, cwd=tmp_path) for a in self.CALLS)]
        assert [rc for rc, _ in want] == [0, 0, 0, 0, 0, 2, 1, 0]
        assert got == want


class TestIntegerPrintLimit:
    """Python refuses str() of an integer over sys.get_int_max_str_digits()."""

    def test_printed_coefficient_is_domain_error(self, capsys):
        big = "1" + "0" * 1500
        start = time.perf_counter()
        assert cli.main(["hessian", "--implicit", f"({big}*x)^3 + y^3 + z^3"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        limit = sys.get_int_max_str_digits()
        assert err.startswith("error: IntegerTooLong: a computed integer of ")
        assert err.endswith(f" bits is over the limit of {limit} digits for printing\n")

    def test_error_after_first_line_leaves_stdout_empty(self, capsys):
        # d and H_degree are known before H fails to print
        args = ["hessian", "--implicit", f"({'1' + '0' * 1500}*x)^3 + y^3 + z^3"]
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
