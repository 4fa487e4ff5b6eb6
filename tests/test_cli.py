"""Command-line behavior: exit codes, output formats, determinism."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hyplab import chebconnect, cli, dual, verify
from hyplab.cli import build_report, explore_rows, main, write_figure
from hyplab.families import in_V, parse_family_spec
from hyplab.linearization import check_nlp


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_worked_example(self, capsys):
        code, out, err = run(capsys, "report", "--family",
                             "modkm:alpha=2,beta=5")
        assert code == 0
        r = json.loads(out)
        assert r["haar"]["values"][1] == pytest.approx(1.8, abs=1e-12)
        assert len(r["dual"]["intervals"]) == 2
        assert r["nlp"]["is_nonnegative"] is True

    def test_nlp_finding_is_not_failure(self, capsys):
        code, out, err = run(capsys, "report", "--family", "grinspun:c1=0.7")
        assert code == 0
        r = json.loads(out)
        assert r["nlp"]["is_nonnegative"] is False
        assert r["all_checks_passed"] is True

    def test_every_numeric_check_has_tolerance(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "cosh:a=1")
        r = json.loads(out)
        for check in r["checks"]:
            assert "tolerance" in check and "measured" in check

    def test_json_is_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "report", "--family", "km:alpha=5,beta=5")
        _, out2, _ = run(capsys, "report", "--family", "km:alpha=5,beta=5")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "cheb1",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "group,value"
        assert any(line.startswith("haar.") for line in lines)

    def test_rational_parameter_literals(self, capsys):
        code, out, _ = run(capsys, "report", "--family",
                           "gencheb:alpha=-1/4,beta=-5/6")
        assert code == 0
        r = json.loads(out)
        assert r["params"]["beta"] == pytest.approx(-5.0 / 6.0, abs=1e-15)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        code, out, _ = run(capsys, "report", "--family", "cheb1",
                           "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["family"] == "cheb1"


class TestErrors:
    def test_unknown_family_is_config_error(self, capsys):
        code, _, err = run(capsys, "report", "--family", "nosuch:x=1")
        assert code == 1
        assert "configuration error" in err

    def test_custom_spec_is_config_error(self, capsys):
        # custom needs a callable cfunc, which a spec string cannot carry
        code, out, err = run(capsys, "report", "--family", "custom:cfunc=1/2")
        assert code == 1
        assert out == ""
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1

    def test_bad_parameter_value(self, capsys):
        code, _, err = run(capsys, "report", "--family", "cosh:a=-1")
        assert code == 1

    @pytest.mark.parametrize("spec,key,raw", [
        ("cosh:a=1e400", "a", "1e400"),
        ("km:alpha=1e400,beta=5", "alpha", "1e400"),
    ])
    def test_value_past_float_range_is_config_error(self, capsys, spec, key, raw):
        # float(Fraction("1e400")) overflows; it used to end in a traceback
        code, out, err = run(capsys, "report", "--family", spec)
        assert code == 1
        assert out == ""
        assert err == (f"configuration error: cannot parse value {raw!r} for "
                       f"{key!r} in {spec!r} as a float\n")
        assert "Traceback" not in err

    def test_malformed_grammar(self, capsys):
        code, _, err = run(capsys, "report", "--family", "cosh:a")
        assert code == 1

    @pytest.mark.parametrize("spec,key", [
        # a key named like one of make_family's arguments is still a key
        ("cosh:a=1,tag=2", "tag"),
        ("cosh:a=-1,unchecked=1", "unchecked"),
        ("cheb1:unchecked=1", "unchecked"),
    ])
    def test_spec_key_named_like_an_argument(self, capsys, spec, key):
        code, out, err = run(capsys, "report", "--family", spec)
        assert code == 1
        assert out == ""
        tag = spec.split(":")[0]
        assert err == ("configuration error: unexpected parameter(s) for "
                       f"{tag}: ['{key}']\n")

    def test_repeated_key_is_config_error(self, capsys):
        # the last value used to win silently: km(8,5) with exit 0
        spec = "km:alpha=2,beta=5,alpha=8"
        code, out, err = run(capsys, "report", "--family", spec)
        assert code == 1
        assert out == ""
        assert err == ("configuration error: repeated parameter 'alpha' in "
                       f"family spec {spec!r}\n")

    def test_usage_error_maps_to_one(self, capsys):
        code, _, _ = run(capsys, "report")  # --family missing
        assert code == 1

    def test_unknown_figure_rejected(self, capsys):
        code, _, _ = run(capsys, "figure", "--figure", "fig9")
        assert code == 1

    @pytest.mark.parametrize("option,value", [
        ("--grid-step", "0"),
        ("--grid-step", "-2e-4"),
        ("--grid-step", "inf"),
        ("--grid-step", "nan"),
        # a grid of more than 2,000,001 points: 1e-9 asks for 2e9 points
        ("--grid-step", "1e-9"),
        ("--grid-step", "9.99e-7"),
        ("--grid-step", "5e-324"),
        ("--max-degree", "-1"),
        ("--max-degree", "1.5"),
        ("--tol", "nan"),
        ("--tol", "-1"),
        ("--tol", "inf"),
    ])
    def test_out_of_range_option_is_config_error(self, capsys, option, value):
        code, out, err = run(capsys, "report", "--family", "cheb1",
                             option, value)
        assert code == 1
        assert out == ""
        assert err.startswith(
            f"configuration error: hyplab report: argument {option}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("option,value", [
        ("--max-degree", "0"),
        ("--tol", "0"),
    ])
    def test_range_edges_are_accepted(self, capsys, option, value):
        code, out, _ = run(capsys, "report", "--family", "cheb1",
                           option, value)
        assert code == 0
        assert json.loads(out)["all_checks_passed"] is True

    @pytest.mark.parametrize("tol,code", [
        ("999999", 0),
        (repr(float(np.nextafter(999999.0, np.inf))), 1),
        ("1e7", 1),
    ])
    def test_tol_is_bounded_by_the_divergence_threshold(self, capsys, tol, code):
        # the report's profile freezes at DIVERGE_THRESHOLD = 1e6: past
        # tol = 999999 a frozen point would sit inside the band 1 + tol
        got, out, err = run(capsys, "report", "--family", "modkm:alpha=2,beta=5",
                            "--tol", tol)
        assert got == code
        if code:
            assert out == ""
            assert err == ("configuration error: tol must be <= "
                           f"DIVERGE_THRESHOLD - 1 = 999999, got {float(tol)!r}\n")
        else:
            # the frozen points stay out: the two intervals of a 1e-9 band
            assert len(json.loads(out)["dual"]["intervals"]) == 2

    def test_smallest_grid_step_is_accepted(self):
        # parsed only: a report on 2,000,001 points takes over a second
        args = cli._build_parser().parse_args(
            ["report", "--family", "cheb1", "--grid-step", "1e-6"])
        assert args.grid_step == 1e-6
        assert dual.estimate_grid(args.grid_step).size == 2_000_001

    @pytest.mark.parametrize("step,code", [
        (repr(float(np.nextafter(4.0, 0.0))), 0),
        ("4", 1),
        ("5", 1),
    ])
    def test_largest_grid_step_keeps_both_endpoints(self, capsys, step, code):
        # round(2/grid_step) reaches 0 at grid_step = 4, which once left
        # the one-point grid [-1] and a report of it
        got, out, err = run(capsys, "report", "--family", "cheb1",
                            "--grid-step", step)
        assert got == code
        if code:
            assert out == ""
            assert err == ("configuration error: grid_step must be < 4 to hold "
                           f"both endpoints, got {float(step)!r}\n")
        else:
            block = json.loads(out)["dual"]
            assert block["intervals"] == [[-1.0, 1.0]]
            assert block["member_count"] == 2


class TestNumericalFailure:
    # a numerical failure inside a command is named on one stderr line and
    # exits 2, without a traceback
    @pytest.mark.parametrize("spec,extra,error", [
        ("cosh:a=40", (), "HaarRangeError"),
        ("gencheb:alpha=-0.9,beta=-0.9", (), "QuadratureConvergenceError"),
        # c(107) of convex rounds to 1.0 in float
        ("convex:eps=0.5", ("--max-degree", "150"), "CoefficientDomainError"),
        # cosh(a) overflows past a = 710.47: c(1) is 0.0, as at a = 710
        ("cosh:a=710.5", (), "CoefficientDomainError"),
        ("cosh:a=1000", (), "CoefficientDomainError"),
        ("cosh:a=1e300", (), "CoefficientDomainError"),
    ])
    def test_report_names_the_failure(self, capsys, spec, extra, error):
        code, out, err = run(capsys, "report", "--family", spec, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"numerical failure: {error} in hyplab report --family {spec}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


def _work_before_out_check(*args, **kwargs):
    raise AssertionError("the work ran before --out was checked")


class TestUnwritableOut:
    # an --out path that cannot be written is a configuration error; a
    # missing directory is found before the command's work runs
    WORK = {"report": (cli, "build_report"), "verify": (verify, "run_suite"),
            "explore": (cli, "explore_rows")}

    @pytest.mark.parametrize("argv", [
        ("report", "--family", "cheb1"),
        ("verify", "--suite", "appendix"),
        ("explore",),
    ])
    def test_missing_directory(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(*self.WORK[argv[0]], _work_before_out_check)
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == (f"configuration error: cannot write {target}: "
                       "No such file or directory\n")

    def test_parent_that_is_a_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "run_suite", _work_before_out_check)
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run(capsys, "verify", "--out", str(taken / "x.json"))
        assert code == 1
        assert err == (f"configuration error: cannot write {taken / 'x.json'}: "
                       "Not a directory\n")

    def test_figure_dir_is_a_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        code, out, err = run(capsys, "figure", "--figure", "fig2",
                             "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == f"configuration error: cannot write {target}: File exists\n"


class TestFailedChecks:
    def test_report_names_each_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(cli._measures, "measure_mass", lambda spec: 3.0)
        code, out, err = run(capsys, "report", "--family", "cheb1")
        assert code == 2
        assert json.loads(out)["all_checks_passed"] is False
        assert err == ("check failed: measure_mass measured 2.000e+00 "
                       "tolerance 1.0e-09\n")

    def test_verify_names_the_first_failing_criterion(self, capsys, monkeypatch):
        monkeypatch.setattr(verify._appendix, "chebyshev_partner_residual",
                            lambda nmax: 1.0)
        code, out, err = run(capsys, "verify", "--suite", "appendix")
        assert code == 2
        assert out.startswith("[FAIL] criterion-8 ")
        assert err == "first failing criterion: criterion-8\n"


class TestVerify:
    def test_appendix_suite_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "appendix")
        assert code == 0
        assert out.startswith("[PASS] criterion-8")

    def test_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "section2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        keys = [r["key"] for r in payload["results"]]
        assert keys == sorted(keys, key=lambda k: int(k.split("-")[1]))

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 1

    def test_text_lines_end_with_detail(self):
        from hyplab.verify import CriterionResult

        r = CriterionResult("criterion-5", "rescaling identity", True, "dev 0")
        assert r.line() == "[PASS] criterion-5 rescaling identity: dev 0"

    def test_text_is_byte_stable(self, capsys):
        first = run(capsys, "verify", "--suite", "section2")
        second = run(capsys, "verify", "--suite", "section2")
        assert first[0] == 0
        assert first == second


def test_csv_rows_flatten_nested_dicts():
    from hyplab.cli import _fmt, _report_csv_rows

    rows = _report_csv_rows(
        {"a": {"b": {"c": 0.5}, "d": [1.5, [2.0, 3]]}, "e": "x"}
    )
    assert rows == [
        ("a.b.c", _fmt(0.5)),
        ("a.d", f"{_fmt(1.5)};{_fmt(2.0)}/{_fmt(3)}"),
        ("e", "x"),
    ]


class TestFigures:
    def test_fig1_contains_example_pair(self, tmp_path):
        (path,) = write_figure("fig1", tmp_path)
        rows = path.read_text().splitlines()
        assert rows[0] == "alpha,beta,in_region"
        hits = [r for r in rows if r.startswith("-0.25,-0.8333")]
        assert len(hits) == 1 and hits[0].endswith(",1")

    def test_fig1_rows_match_rational_grid(self, tmp_path):
        # the Fraction loop the float grid replaced, kept as the oracle
        step = Fraction(1, 60)
        want = ["alpha,beta,in_region"]
        for i in range(1, 60):
            alpha = -i * step
            for j in range(1, 60):
                beta = -j * step
                flag = int(
                    in_V(float(alpha), float(beta))
                    and float(alpha) + float(beta) + 1.0 < 0.0
                )
                want.append(f"{cli._fmt(alpha)},{cli._fmt(beta)},{flag}")
        (path,) = write_figure("fig1", tmp_path)
        assert path.read_text().splitlines() == want

    def test_fig2_constant_row(self, tmp_path):
        (path,) = write_figure("fig2", tmp_path)
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        # alpha = -1/2 degenerates to the constant-2 weight sequence
        assert all(r[1] == "2" for r in rows[1:])

    def test_fig3_atom_row(self, tmp_path):
        paths = write_figure("fig3", tmp_path)
        atoms = paths[1].read_text().splitlines()
        assert atoms[1] == "km_8_5,0,0.375"
        assert len(atoms) == 2

    def test_fig4_header_and_values(self, tmp_path):
        (path,) = write_figure("fig4", tmp_path)
        rows = path.read_text().splitlines()
        assert rows[0] == "n,modkm_2_5,modkm_5_5,modkm_8_5"
        assert rows[2].startswith("1,1.8,")

    def test_figures_deterministic(self, tmp_path):
        a = write_figure("fig3", tmp_path / "a")[0].read_bytes()
        b = write_figure("fig3", tmp_path / "b")[0].read_bytes()
        assert a == b

    def test_lf_line_endings(self, tmp_path):
        (path,) = write_figure("fig2", tmp_path)
        assert b"\r" not in path.read_bytes()


class TestExplore:
    def test_rows_deterministic(self):
        assert explore_rows() == explore_rows()

    def test_known_counterexamples_present(self):
        rows = explore_rows()
        by_key = {(r[0], r[1], r[2]): r for r in rows}
        km_row = by_key[("modkm", "2", "5")]
        assert float(km_row[3]) == pytest.approx(1.8)
        cv_row = by_key[("convex", "0.5", "0.5")]
        assert float(cv_row[3]) == pytest.approx(1.5)

    def test_cli_output(self, capsys):
        code, out, _ = run(capsys, "explore")
        assert code == 0
        assert out.splitlines()[0] == "family,p1,p2,h1,h2,min_h,tail_min_h"


def test_build_report_direct():
    r = build_report("cosh:a=0.5", max_degree=10)
    assert r["criteria"]["haar_floor_predicted"] is True
    assert r["criteria"]["haar_floor_met"] is True


# one instance per named family
REPORT_FAMILIES = [
    "cheb1", "gencheb:alpha=-1/4,beta=-5/6", "cosh:a=1/2", "grinspun:c1=3/10",
    "km:alpha=2,beta=5", "modkm:alpha=2,beta=5", "rational25", "convex:eps=1/2",
]


@pytest.mark.parametrize("grid_step,tol", [(2e-4, 1e-9), (1e-3, 1e-6)])
@pytest.mark.parametrize("spec", REPORT_FAMILIES)
def test_report_shares_one_profile(spec, grid_step, tol, monkeypatch):
    # the report profiles both grids in one call; its criteria and dual
    # blocks equal those of the two standalone functions
    seq = parse_family_spec(spec)
    crit = chebconnect.criterion_report(
        seq, nlp_verified=check_nlp(seq, N=20).is_nonnegative)
    xs = dual.estimate_grid(grid_step)
    est = dual.classify_profile(xs, dual.max_abs_profile(seq, xs, N=400), 400,
                                grid_step, tol)

    profile = dual._profile
    calls = []

    def recording_profile(*args):
        calls.append(args[1].size)
        return profile(*args)

    monkeypatch.setattr(dual, "_profile", recording_profile)
    r = build_report(spec, grid_step=grid_step, tol=tol)
    assert calls == [chebconnect.criterion_grid().size + est.xs.size]

    def dumped(block):
        return json.dumps(block, sort_keys=True)

    assert dumped(r["criteria"]) == dumped(cli._criteria_block(crit))
    assert dumped(r["dual"]) == dumped(cli._dual_block(est))


# ---------------------------------------------------------------------------
# reports and the verify payload are serialized without a conversion pass,
# so every value in them must already be a plain Python value

GOLDEN_SPECS = sorted(json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json").read_text()
)["report"])
PLAIN = (dict, list, tuple, str, bool, int, float, type(None))


def assert_plain(obj, where):
    # numpy's float64 subclasses float, so numpy types are refused by name
    assert isinstance(obj, PLAIN) and not isinstance(obj, np.generic), (
        where, type(obj))
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_plain(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            assert_plain(v, f"{where}[{i}]")


@pytest.mark.parametrize("options", [{}, dict(grid_step=1e-3, tol=1e-6)],
                         ids=["defaults", "coarse"])
@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_report_holds_plain_values(spec, options):
    report = build_report(spec, **options)
    assert_plain(report, spec)
    json.dumps(report)


def test_verify_payload_holds_plain_values(capsys, monkeypatch):
    payloads = []
    dumps = json.dumps

    def recording_dumps(obj, **kwargs):
        payloads.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", recording_dumps)
    assert main(["verify", "--suite", "all", "--format", "json"]) == 0
    capsys.readouterr()
    (payload,) = payloads
    assert len(payload["results"]) == len(verify.SUITES["all"])
    assert_plain(payload, "verify")
    dumps(payload)
