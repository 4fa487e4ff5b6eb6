"""Command-line behavior: exit codes, output formats, determinism."""

import json

import pytest

from hyplab.cli import build_report, explore_rows, main, write_figure


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

    def test_bad_parameter_value(self, capsys):
        code, _, err = run(capsys, "report", "--family", "cosh:a=-1")
        assert code == 1

    def test_malformed_grammar(self, capsys):
        code, _, err = run(capsys, "report", "--family", "cosh:a")
        assert code == 1

    def test_usage_error_maps_to_one(self, capsys):
        code, _, _ = run(capsys, "report")  # --family missing
        assert code == 1

    def test_unknown_figure_rejected(self, capsys):
        code, _, _ = run(capsys, "figure", "--figure", "fig9")
        assert code == 1


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
