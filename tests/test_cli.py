import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rookfft
from conftest import direct_convolve_semigroup, rand_elem, sparse_element
from rookfft import cli
from rookfft.algebra import (
    GROUPOID,
    SEMIGROUP,
    from_json_dict as element_from_json,
    to_groupoid,
    to_json_dict as element_to_json,
)
from rookfft.cli import main
from rookfft.core import PartialPermutation, enumerate_rn, size
from rookfft.indexing import elements_at
from rookfft.rook_reps import dim, labels
from rookfft.spectral import Dataset
from rookfft.transforms import (
    BLOCK_FORMAT,
    fourier_invert,
    from_json_dict as fc_from_json,
    naive_transform,
    stein_fft,
    to_json_dict as blocks_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_element(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(json.dumps(element_to_json(f)), encoding="utf-8")
    return str(path)


class TestEnumerate:
    def test_r2_has_seven_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert code == 0
        assert rows[0] == "cycle_link,flat"
        assert len(rows) - 1 == 7
        assert out.splitlines()[-1] == "# size=7 recursive=7 ok=true"

    def test_r0_single_element(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "0", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["size"] == 1
        assert len(data["elements"]) == 1

    def test_guard(self, capsys):
        for n in ("9", "-1"):
            code, _, err = run(capsys, "enumerate", "--n", n)
            assert code == 2
            assert err.startswith("ERR:USAGE:")


class TestTransform:
    def test_naive_and_stein_agree_with_different_ops(self, capsys, tmp_path):
        f = rand_elem(3, GROUPOID, 1)
        path = write_element(tmp_path, "f.json", f)
        code, out_naive, _ = run(capsys, "transform", "--input", path, "--algorithm", "naive")
        assert code == 0
        code, out_stein, _ = run(capsys, "transform", "--input", path, "--algorithm", "stein")
        assert code == 0
        a, b = json.loads(out_naive), json.loads(out_stein)
        Fa, Fb = fc_from_json(a), fc_from_json(b)
        assert Fa.allclose(Fb, 1e-9)
        assert a["ops"] != b["ops"]
        assert a["within_bound"] and b["within_bound"]

    def test_recursive_reports_bound(self, capsys, tmp_path):
        f = rand_elem(4, SEMIGROUP, 2)
        path = write_element(tmp_path, "f.json", f)
        code, out, _ = run(capsys, "transform", "--input", path, "--algorithm", "recursive")
        data = json.loads(out)
        assert code == 0
        assert data["within_bound"] is True
        assert data["ops"] <= data["bound"] == 13936

    def test_empty_input_gives_zero_blocks(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 2, "basis": SEMIGROUP, "terms": []}))
        code, out, _ = run(capsys, "transform", "--input", str(path), "--algorithm", "recursive")
        data = json.loads(out)
        assert code == 0
        for block in data["blocks"]:
            flat = [e["re"] ** 2 + e["im"] ** 2 for row in block["rows"] for e in row]
            assert all(v == 0 for v in flat)

    def test_basis_mismatch_needs_convert(self, capsys, tmp_path):
        f = rand_elem(2, SEMIGROUP, 3)
        path = write_element(tmp_path, "f.json", f)
        code, _, err = run(capsys, "transform", "--input", path, "--algorithm", "stein")
        assert code == 2
        assert err.startswith("ERR:USAGE:")
        code, out, _ = run(
            capsys, "transform", "--input", path, "--algorithm", "stein", "--convert"
        )
        assert code == 0
        expected = naive_transform(to_groupoid(f))
        assert fc_from_json(json.loads(out)).allclose(expected, 1e-9)

    def test_naive_refuses_past_a_full_r6_before_any_image(self, capsys, tmp_path, monkeypatch):
        # 1,400 terms × |R_7| = 183.3 M multiply-adds, past |R_6|² = 177.6 M
        path = write_element(tmp_path, "f.json", sparse_element(7, 1400, 7))

        def never(*_):
            raise AssertionError("naive_transform ran")

        monkeypatch.setattr(cli, "naive_transform", never)
        code, out, err = run(capsys, "transform", "--input", path)
        assert code == 5 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERR:RESOURCE:")
        assert "--algorithm stein --convert" in lines[0] and "--algorithm recursive" in lines[0]

    def test_naive_admits_a_sparse_r7_element(self, capsys, tmp_path):
        f = sparse_element(7, 40, 7)
        code, out, _ = run(capsys, "transform", "--input", write_element(tmp_path, "f.json", f))
        data = json.loads(out)
        assert code == 0 and data["algorithm"] == "naive"
        assert data["ops"] == 40 * size(7)
        assert fc_from_json(data).allclose(stein_fft(f), 1e-9)

    def test_ballot_csv_input(self, capsys, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n1->1,2\n,1\n", encoding="utf-8")
        code, out, _ = run(capsys, "transform", "--input", str(path), "--n", "2",
                           "--association", GROUPOID, "--algorithm", "stein")
        data = json.loads(out)
        assert code == 0
        assert data["n"] == 2 and data["format"] == BLOCK_FORMAT

    def test_ballot_csv_suffix_in_capitals(self, capsys, tmp_path):
        path = tmp_path / "votes.CSV"
        path.write_text("ballot,count\n1->1,2\n,1\n", encoding="utf-8")
        code, out, err = run(capsys, "transform", "--input", str(path), "--n", "2",
                             "--association", GROUPOID, "--algorithm", "stein")
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 2

    def test_malformed_json_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for text in ("{not json",
                     '{"n": 2, "basis": "semigroup", "terms": [{"elem": 5, "re": 1.0}]}',
                     '{"n": 2, "basis": "semigroup", "terms": 7}'):
            path.write_text(text)
            code, out, err = run(capsys, "transform", "--input", str(path))
            assert_one_parse_error(code, err)
            assert out == ""

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "transform", "--input", str(tmp_path / "nope.json"))
        assert code == 2


class TestInvertAndConvolve:
    def test_transform_then_invert_round_trip(self, capsys, tmp_path):
        f = rand_elem(2, GROUPOID, 4)
        path = write_element(tmp_path, "f.json", f)
        out_fc = str(tmp_path / "fc.json")
        code, _, _ = run(capsys, "transform", "--input", path, "--algorithm", "stein",
                         "--output", out_fc)
        assert code == 0
        code, out, _ = run(capsys, "invert", "--input", out_fc)
        assert code == 0
        back = element_from_json(json.loads(out))
        assert back.allclose(f, 1e-9)

    def test_convolve(self, capsys, tmp_path):
        f = rand_elem(2, SEMIGROUP, 5)
        g = rand_elem(2, SEMIGROUP, 6)
        pf = write_element(tmp_path, "f.json", f)
        pg = write_element(tmp_path, "g.json", g)
        code, out, _ = run(capsys, "convolve", "--input", pf, "--input", pg)
        assert code == 0
        got = element_from_json(json.loads(out))
        assert got.allclose(direct_convolve_semigroup(f, g), 1e-9)

    @pytest.mark.parametrize("second", [(2, GROUPOID), (3, SEMIGROUP)])
    def test_convolve_refuses_mixed_operands(self, capsys, tmp_path, second):
        pf = write_element(tmp_path, "f.json", rand_elem(2, SEMIGROUP, 5))
        pg = write_element(tmp_path, "g.json", rand_elem(*second, 6))
        code, out, err = run(capsys, "convolve", "--input", pf, "--input", pg)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ERR:USAGE:")

    def test_convolve_needs_two_inputs(self, capsys, tmp_path):
        pf = write_element(tmp_path, "f.json", rand_elem(2, SEMIGROUP, 7))
        code, _, err = run(capsys, "convolve", "--input", pf)
        assert code == 2
        assert err.startswith("ERR:USAGE:") and "exactly two --input" in err

    def test_terms_listed_in_canonical_order_at_n4(self, capsys, tmp_path):
        # the vector's rows follow the rank-major cell layout, which is not
        # the canonical order (sorted image tuples) at n = 4; every listing
        # of terms is canonical all the same
        n = 4
        layout = [x.image for x in elements_at(n, np.arange(size(n)))]
        assert layout != sorted(layout)
        f = rand_elem(n, GROUPOID, 8, "sparse")
        d = Dataset(n, [(x, i + 1.0) for i, x in enumerate(reversed(list(f.coeffs)))])
        listings = [[x.image for x, _ in f.items()], [x.image for x in f.coeffs],
                    [x.image for x, _ in d.records], [x.image for x in enumerate_rn(n)]]
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps(blocks_to_json(stein_fft(f))), encoding="utf-8")
        element = write_element(tmp_path, "f.json", f)
        for argv in (["invert", "--input", str(blocks)],
                     ["convolve", "--input", element, "--input", element]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            terms = json.loads(out)["terms"]
            listings.append([PartialPermutation.from_flat(n, t["elem"]).image for t in terms])
        for images in listings:
            assert len(images) > 100 and images == sorted(images)

    @pytest.mark.parametrize("command", ["transform", "invert", "analyze"])
    def test_single_input_commands_refuse_two(self, capsys, tmp_path, command):
        pf = write_element(tmp_path, "f.json", rand_elem(2, SEMIGROUP, 7))
        code, out, err = run(capsys, command, "--input", pf, "--input", pf)
        assert code == 2
        assert err.startswith("ERR:USAGE:") and "exactly one --input" in err
        assert out == ""


class TestAnalyze:
    def test_single_ballot_has_a_dominant_label(self, capsys, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n1->1;2->2,4\n", encoding="utf-8")
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--n", "2")
        data = json.loads(out)
        assert code == 0
        fractions = [entry["fraction"] for entry in data["labels"]]
        assert max(fractions) > 0.4

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n,1\n", encoding="utf-8")
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--n", "2",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "lambda,k,energy,fraction"

    def test_json_carries_parseval_residual(self, capsys, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n1->2,3\n1->1;2->2,5\n", encoding="utf-8")
        for association in ("groupoid", "semigroup"):
            code, out, _ = run(capsys, "analyze", "--input", str(path), "--n", "2",
                               "--association", association)
            data = json.loads(out)
            assert code == 0
            assert 0.0 <= data["parseval_residual"] <= 1e-9 * data["total"]

    def test_parse_error_code(self, capsys, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n1->1;2->1,1\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--input", str(path), "--n", "2")
        assert code == 3
        assert err.startswith("ERR:PARSE:")

    def test_byte_order_mark_is_read(self, capsys, tmp_path):
        # spreadsheets' "CSV UTF-8" export starts the file with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("ballot,count\n1->2,3\n1->1;2->2,5\n", encoding="utf-8")
        marked.write_text("ballot,count\n1->2,3\n1->1;2->2,5\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfballot")
        want = run(capsys, "analyze", "--input", str(plain))
        assert want[0] == 0
        assert run(capsys, "analyze", "--input", str(marked)) == want


class TestParserReuse:
    """``main`` reuses one parser per process: a run of commands in one
    process prints and writes what each prints and writes alone."""

    @staticmethod
    def commands(tmp_path, out):
        five, three = tmp_path / "five.csv", tmp_path / "three.csv"
        five.write_text("ballot,count\n1->2;3->1,2\n5->5,1\n,4\n", encoding="utf-8")
        three.write_text("ballot,count\n1->3,2\n2->1;3->2,1\n", encoding="utf-8")
        element = write_element(tmp_path, "f.json", rand_elem(3, SEMIGROUP, 11))
        blocks = str(out / "blocks.json")
        return [
            ["analyze", "--input", str(five), "--n", "5", "--output", str(out / "five.json")],
            ["analyze", "--input", str(three), "--format", "csv"],  # n inferred as 3
            ["analyze", "--n", "3"],  # no --input: a usage error
            ["transform", "--input", element, "--algorithm", "recursive", "--output", blocks],
            ["invert", "--input", blocks, "--output", str(out / "inverse.json")],
        ]

    def test_commands_in_one_process_match_one_process_each(self, capsys, tmp_path):
        alone, together = tmp_path / "alone", tmp_path / "together"
        alone.mkdir()
        together.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(rookfft.__file__).resolve().parents[1])}
        want = []
        for argv in self.commands(tmp_path, alone):
            done = subprocess.run([sys.executable, "-m", "rookfft", *argv], env=env,
                                  capture_output=True, text=True)
            want.append((done.returncode, done.stdout, done.stderr))
        got = [run(capsys, *argv) for argv in self.commands(tmp_path, together)]
        assert cli.build_parser() is cli.build_parser()
        assert [code for code, _, _ in got] == [0, 0, 2, 0, 0]
        assert len(got[1][1].splitlines()) == 1 + len(labels(3))  # n = 3 was inferred
        assert got[2][2].startswith("ERR:USAGE:") and "--input" in got[2][2]
        assert got == want
        for name in ("five.json", "blocks.json", "inverse.json"):
            assert (together / name).read_bytes() == (alone / name).read_bytes()


def assert_one_parse_error(code, err):
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERR:PARSE:")
    assert "Traceback" not in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("rows", ["1->1,nan\n2->2,inf\n", "1->1,-inf\n", "9->1,inf\n"])
    def test_analyze_refuses_non_finite_counts(self, capsys, tmp_path, rows):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert_one_parse_error(code, err)
        assert out == ""

    def test_transform_refuses_nan_coefficient(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"n": 2, "basis": "semigroup", "terms": '
                        '[{"elem": "1->1", "re": NaN, "im": 0.0}]}', encoding="utf-8")
        code, out, err = run(capsys, "transform", "--input", str(path),
                             "--algorithm", "stein", "--convert")
        assert_one_parse_error(code, err)
        assert out == ""

    def test_invert_refuses_infinite_entry(self, capsys, tmp_path):
        f = rand_elem(2, GROUPOID, 8)
        code, out, _ = run(capsys, "transform", "--input", write_element(tmp_path, "f.json", f),
                           "--algorithm", "stein")
        assert code == 0
        data = json.loads(out)
        data["blocks"][0]["rows"][0][0]["im"] = float("inf")
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "invert", "--input", str(path))
        assert_one_parse_error(code, err)
        assert out == ""

    def test_invert_refuses_block_json_without_blocks(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"n": 1, "format": BLOCK_FORMAT}), encoding="utf-8")
        code, out, err = run(capsys, "invert", "--input", str(path))
        assert_one_parse_error(code, err)
        assert out == ""


class TestOverflowRefused:
    """Finite coefficients near 1e308 overflow float64 in the arithmetic: the
    result is refused with exit 3 and one ERR:PARSE line, before anything is
    written, and numpy prints no warning."""

    def element(self, tmp_path, basis, re=1e308):
        path = tmp_path / f"{basis}.json"
        terms = [{"elem": e, "re": re} for e in ("", "1->1", "2->2", "1->1;2->2")]
        path.write_text(json.dumps({"n": 2, "basis": basis, "terms": terms}), encoding="utf-8")
        return str(path)

    def run_refused(self, capsys, tmp_path, *argv):
        output = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--output", str(output))
        assert_one_parse_error(code, err)
        assert "overflow float64" in err
        assert out == "" and not output.exists()

    @pytest.mark.parametrize("argv", [("--algorithm", "naive"),
                                      ("--algorithm", "stein", "--convert"),
                                      ("--algorithm", "recursive")])
    def test_transform(self, capsys, tmp_path, argv):
        self.run_refused(capsys, tmp_path, "transform", "--input",
                         self.element(tmp_path, SEMIGROUP), *argv)

    def test_transform_of_large_coefficients_that_fit(self, capsys, tmp_path):
        path = self.element(tmp_path, SEMIGROUP, re=1e300)
        code, out, err = run(capsys, "transform", "--input", path, "--algorithm", "recursive")
        assert code == 0 and err == ""
        assert json.loads(out)["blocks"][0]["rows"] == [[{"re": 4e300, "im": 0.0}]]

    @pytest.mark.parametrize("basis", [SEMIGROUP, GROUPOID])
    def test_convolve(self, capsys, tmp_path, basis):
        path = self.element(tmp_path, basis)
        self.run_refused(capsys, tmp_path, "convolve", "--input", path, "--input", path)

    def test_invert(self, capsys, tmp_path):
        # entries of modulus near 1e308 may have a finite inverse; signs
        # aligned to the inverse row of one element make its coefficient
        # overflow: 1.7e308 times that row's sum of moduli, 4/3 at n = 3
        code, out, _ = run(capsys, "transform", "--algorithm", "stein", "--input",
                           write_element(tmp_path, "f.json", rand_elem(3, GROUPOID, 3)))
        assert code == 0
        data = json.loads(out)
        entries = [entry for block in data["blocks"] for row in block["rows"] for entry in row]

        def inverse(values):
            for entry, v in zip(entries, values):
                entry["re"], entry["im"] = v.real, v.imag
            return fourier_invert(fc_from_json(data)).values

        rows = np.array([inverse(unit) for unit in np.eye(len(entries), dtype=complex)]).T
        signs = np.where(rows[np.abs(rows).sum(axis=1).argmax()] < 0, -1.0, 1.0)
        scaled_down = inverse(1.7 * (1 + 1j) * signs)
        assert np.abs(scaled_down.real).max() > np.finfo(float).max / 1e308
        for entry, sign in zip(entries, signs):
            entry["re"] = entry["im"] = sign * 1.7e308
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        self.run_refused(capsys, tmp_path, "invert", "--input", str(path))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_analyze(self, capsys, tmp_path, fmt):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n,1e308\n1->1,1e308\n2->2,1.5e308\n1->1;2->2,1e308\n",
                        encoding="utf-8")
        self.run_refused(capsys, tmp_path, "analyze", "--input", str(path), "--format", fmt)


class TestIntegerN:
    """"n" must be a JSON integer: a float, boolean or string is refused,
    never truncated or coerced."""

    @pytest.mark.parametrize("n", ["2.7", "true", '"6"'])
    def test_transform_refuses_non_integer_n(self, capsys, tmp_path, n):
        path = tmp_path / "f.json"
        path.write_text('{"n": %s, "basis": "semigroup", "terms": '
                        '[{"elem": "1->1", "re": 1.0, "im": 0.0}]}' % n, encoding="utf-8")
        code, out, err = run(capsys, "transform", "--input", str(path),
                             "--algorithm", "recursive")
        assert_one_parse_error(code, err)
        assert "JSON integer" in err
        assert out == ""

    @pytest.mark.parametrize("n", ["2.7", "true", '"6"'])
    def test_invert_refuses_non_integer_n(self, capsys, tmp_path, n):
        f = rand_elem(1, GROUPOID, 9)
        code, out, _ = run(capsys, "transform", "--input", write_element(tmp_path, "f.json", f),
                           "--algorithm", "stein")
        assert code == 0
        text = out.replace('"n":1,', '"n":%s,' % n, 1)
        assert text != out
        path = tmp_path / "coeffs.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "invert", "--input", str(path))
        assert_one_parse_error(code, err)
        assert "JSON integer" in err
        assert out == ""


class TestNumberParts:
    """"re" and "im" must be JSON numbers: a string or boolean is refused,
    never coerced."""

    @pytest.mark.parametrize("part", ['"re": "1.5", "im": true', '"re": false', '"im": "0"'])
    @pytest.mark.parametrize("command", ["transform", "convolve"])
    def test_element_json(self, capsys, tmp_path, command, part):
        path = tmp_path / "f.json"
        path.write_text('{"n": 1, "basis": "semigroup", "terms": '
                        '[{"elem": "1->1", %s}]}' % part, encoding="utf-8")
        inputs = ["--input", str(path)] * (2 if command == "convolve" else 1)
        code, out, err = run(capsys, command, *inputs)
        assert_one_parse_error(code, err)
        assert "JSON number" in err and out == ""

    @pytest.mark.parametrize("key, value", [("re", "2.5"), ("im", False), ("re", True)])
    def test_block_json(self, capsys, tmp_path, key, value):
        f = rand_elem(1, GROUPOID, 9)
        code, out, _ = run(capsys, "transform", "--input", write_element(tmp_path, "f.json", f),
                           "--algorithm", "stein")
        assert code == 0
        data = json.loads(out)
        data["blocks"][0]["rows"][0][0][key] = value
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "invert", "--input", str(path))
        assert_one_parse_error(code, err)
        assert "JSON number" in err and out == ""


class TestImagePointZero:
    """0 is not an image point: the flat form "a->0" is refused, not read as unmapped."""

    def test_transform_refuses_element(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"n": 2, "basis": "semigroup", "terms": '
                        '[{"elem": "1->0;1->2", "re": 1.0, "im": 0.0}]}', encoding="utf-8")
        code, out, err = run(capsys, "transform", "--input", str(path))
        assert_one_parse_error(code, err)
        assert "image point 0" in err
        assert out == ""

    def test_analyze_refuses_ballot(self, capsys, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n1->1,2\n2->0,1\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--input", str(path), "--n", "2")
        assert_one_parse_error(code, err)
        assert "line 3" in err
        assert out == ""


class TestFlatFormEdge:
    """Element JSON and ballot CSV report their first refused term (and its
    line), and a point is ASCII digits only."""

    @staticmethod
    def ballots(capsys, tmp_path, lines, command="analyze"):
        path = tmp_path / "ballots.csv"
        path.write_text("\n".join(["ballot,count", *lines]) + "\n", encoding="utf-8")
        return run(capsys, command, "--input", str(path))

    @pytest.mark.parametrize("command", ["analyze", "transform"])
    @pytest.mark.parametrize("ballot, part", [("٣->1;1->2", "٣->1"), ("²->1", "²->1"), ("1->１", "1->１")])
    def test_ballot_with_non_ascii_digit(self, capsys, tmp_path, command, ballot, part):
        code, out, err = self.ballots(capsys, tmp_path, ["1->1,2", f"{ballot},1"], command)
        assert_one_parse_error(code, err)
        assert err == f"ERR:PARSE: line 3: bad mapping {part!r}\n" and out == ""

    @pytest.mark.parametrize("line", [2, 6])
    def test_ballot_csv_reports_first_bad_line(self, capsys, tmp_path, line):
        lines = ["1->2;2->1,1"] * 5
        lines.insert(line - 2, "1->3;2->3,1")
        lines.append("1->1;1->2,1")  # refused too, but later
        code, out, err = self.ballots(capsys, tmp_path, lines)
        assert_one_parse_error(code, err)
        assert err == f"ERR:PARSE: line {line}: not injective\n" and out == ""

    @pytest.mark.parametrize("command", ["analyze", "transform"])
    def test_inferred_n9_is_refused_before_a_bad_ballot(self, capsys, tmp_path, command):
        lines = ["x->1,1", "1->2;1->3,1", "٣->1,1", "9->1,1"]
        code, out, err = self.ballots(capsys, tmp_path, lines, command)
        assert_one_usage_error(code, err)
        assert "n = 9" in err and out == ""

    @pytest.mark.parametrize("at", ["first", "last"])
    def test_element_json_reports_first_bad_term(self, capsys, tmp_path, at):
        good = [{"elem": "1->2;2->1", "re": 0.5, "im": -1.0}] * 4
        bad = {"elem": "1->3;2->3", "re": 1.0}
        terms = [bad, *good, {"elem": "1->9", "re": 1.0}] if at == "first" else [*good, bad]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 3, "basis": "semigroup", "terms": terms}), encoding="utf-8")
        code, out, err = run(capsys, "transform", "--input", str(path))
        assert_one_parse_error(code, err)
        assert err == "ERR:PARSE: not injective\n" and out == ""


class TestStrictBlockJson:
    """Block JSON for invert: each lambda part and ops are JSON integers, and
    each label is a label of R_n, given once."""

    @staticmethod
    def block_json(capsys, tmp_path):
        code, out, _ = run(capsys, "transform", "--algorithm", "recursive", "--input",
                           write_element(tmp_path, "f.json", rand_elem(3, SEMIGROUP, 21)))
        assert code == 0
        return json.loads(out)

    def invert(self, capsys, tmp_path, data):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return run(capsys, "invert", "--input", str(path))

    def test_unchanged_block_set_inverts(self, capsys, tmp_path):
        code, _, err = self.invert(capsys, tmp_path, self.block_json(capsys, tmp_path))
        assert code == 0 and err == ""

    def test_refuses_fractional_labels_and_ops(self, capsys, tmp_path):
        data = self.block_json(capsys, tmp_path)
        for block in data["blocks"]:
            block["lambda"] = [a + 0.9 for a in block["lambda"]]
        data["ops"] = 12.7
        code, out, err = self.invert(capsys, tmp_path, data)
        assert_one_parse_error(code, err)
        assert "JSON integer" in err and out == ""

    @pytest.mark.parametrize("ops", [12.7, "12", True, -1])
    def test_refuses_bad_ops(self, capsys, tmp_path, ops):
        data = self.block_json(capsys, tmp_path)
        data["ops"] = ops
        code, out, err = self.invert(capsys, tmp_path, data)
        assert_one_parse_error(code, err)
        assert "ops" in err and out == ""

    @pytest.mark.parametrize("label", [["2"], [4], [1, 2], [2, 0], [-1], [2, 1, 1]])
    def test_refuses_a_label_outside_the_label_set(self, capsys, tmp_path, label):
        data = self.block_json(capsys, tmp_path)
        data["blocks"][2]["lambda"] = label
        code, out, err = self.invert(capsys, tmp_path, data)
        assert_one_parse_error(code, err)
        assert out == ""

    def test_refuses_a_label_given_twice(self, capsys, tmp_path):
        data = self.block_json(capsys, tmp_path)
        data["blocks"].append(data["blocks"][0])
        code, out, err = self.invert(capsys, tmp_path, data)
        assert_one_parse_error(code, err)
        assert "twice" in err and out == ""

    # a file without the mark holds another basis order (halverson blocks) or
    # the values of another basis, so it would invert wrongly
    @pytest.mark.parametrize("mark", [{}, {"family": "halverson"}, {"format": "rookfft-blocks-0"}],
                             ids=["missing", "halverson_family", "wrong"])
    def test_refuses_a_file_without_the_format_mark(self, capsys, tmp_path, mark):
        data = self.block_json(capsys, tmp_path)
        del data["format"]
        code, out, err = self.invert(capsys, tmp_path, {**data, **mark})
        assert_one_parse_error(code, err)
        assert "format" in err and out == ""


class TestOutOfMemory:
    """MemoryError anywhere in a command is exit 5 and one ERR:RESOURCE line."""

    @staticmethod
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.1 GiB for an array\nwith shape (1, 2)")

    def test_transform(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("rookfft.cli.recursive_fft", self.exhausted)
        path = write_element(tmp_path, "f.json", rand_elem(2, SEMIGROUP, 3))
        code, out, err = run(capsys, "transform", "--input", path, "--algorithm", "recursive")
        assert code == 5
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERR:RESOURCE:")
        assert "9.1 GiB" in lines[0] and "Traceback" not in err
        assert out == ""

    def test_invert_without_detail(self, capsys, tmp_path, monkeypatch):
        def bare(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("rookfft.cli.fourier_invert", bare)
        code, out, _ = run(capsys, "transform", "--input",
                           write_element(tmp_path, "f.json", rand_elem(1, GROUPOID, 4)),
                           "--algorithm", "stein")
        assert code == 0
        path = tmp_path / "coeffs.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = run(capsys, "invert", "--input", str(path))
        assert code == 5
        assert err.splitlines() == ["ERR:RESOURCE: out of memory: an allocation failed"]
        assert out == ""


def assert_one_usage_error(code, err):
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERR:USAGE:")
    assert "n <= 8" in lines[0]
    assert "Traceback" not in err


class TestSizeGuard:
    """n < 0 and n > 8 are refused after parsing, before any transform-sized
    allocation."""

    def refused_at_once(self, capsys, *argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 5.0
        assert_one_usage_error(code, err)
        assert out == ""

    def test_transform_refuses_n9_element(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"n": 9, "basis": "semigroup", "terms": '
                        '[{"elem": "1->1", "re": 1.0, "im": 0.0}]}', encoding="utf-8")
        self.refused_at_once(capsys, "transform", "--input", str(path))

    @pytest.mark.parametrize("command", ["transform", "analyze"])
    def test_refuses_inferred_n9_ballots(self, capsys, tmp_path, command):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n9->1,5\n", encoding="utf-8")
        self.refused_at_once(capsys, command, "--input", str(path))

    def test_analyze_refuses_given_n9(self, capsys, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n1->1,5\n", encoding="utf-8")
        self.refused_at_once(capsys, "analyze", "--input", str(path), "--n", "9")

    def test_invert_refuses_n9_block_set(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"n": 9, "format": BLOCK_FORMAT, "blocks": []}))
        self.refused_at_once(capsys, "invert", "--input", str(path))

    @pytest.mark.parametrize("argv", [
        ("transform", "--algorithm", "naive"),
        ("transform", "--algorithm", "stein", "--convert"),
        ("transform", "--algorithm", "recursive"),
        ("convolve",),
    ])
    def test_refuses_negative_n_element(self, capsys, tmp_path, argv):
        path = tmp_path / "f.json"
        path.write_text('{"n": -2, "basis": "semigroup", "terms": []}', encoding="utf-8")
        inputs = ["--input", str(path)] * (2 if argv[0] == "convolve" else 1)
        self.refused_at_once(capsys, argv[0], *inputs, *argv[1:])

    def test_invert_refuses_negative_n_block_set(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"n": -1, "format": BLOCK_FORMAT, "blocks": []}))
        self.refused_at_once(capsys, "invert", "--input", str(path))

    def test_analyze_refuses_given_negative_n(self, capsys, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n1->1,5\n", encoding="utf-8")
        self.refused_at_once(capsys, "analyze", "--input", str(path), "--n", "-1")

    def test_n8_element_passes_the_guard(self, capsys, tmp_path):
        # the guard refuses only n > 8; an empty n=8 element in the wrong basis
        # for stein gets past it to the basis check
        path = tmp_path / "f.json"
        path.write_text('{"n": 8, "basis": "semigroup", "terms": []}', encoding="utf-8")
        code, _, err = run(capsys, "transform", "--input", str(path), "--algorithm", "stein")
        assert code == 2
        assert "--convert" in err and "n <= 8" not in err


class TestHugeN:
    """A declared or inferred n above MAX_N is refused while parsing, before
    any element (and its n-long image tuple) is built."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []

        def refuse(cls, n, pairs):
            calls.append(n)
            raise AssertionError(f"an element of R_{n} was built")

        monkeypatch.setattr(PartialPermutation, "from_pairs", classmethod(refuse))
        return calls

    def test_element_json(self, capsys, tmp_path, built):
        path = tmp_path / "f.json"
        path.write_text('{"n": 100000000, "basis": "semigroup", "terms": '
                        '[{"elem": "1->1", "re": 1.0, "im": 0.0}]}', encoding="utf-8")
        code, out, err = run(capsys, "transform", "--input", str(path))
        assert_one_usage_error(code, err)
        assert out == "" and built == []

    @pytest.mark.parametrize("command", ["transform", "analyze"])
    def test_ballot_file(self, capsys, tmp_path, built, command):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n100000000->1,5\n", encoding="utf-8")
        code, out, err = run(capsys, command, "--input", str(path))
        assert_one_usage_error(code, err)
        assert out == "" and built == []


def _mostly(good, junk):
    """good three times in four, junk otherwise."""
    return st.sampled_from([good, good, good, junk]).flatmap(lambda strategy: strategy)


# element JSON that is mostly well formed, with junk mixed in at every field
_point = _mostly(st.integers(1, 3).map(str), st.sampled_from(["0", "4", "-1", "", "x", "9" * 20]))
_arrow = _mostly(st.sampled_from(["->", " -> "]), st.sampled_from(["=>", "-", ">", ""]))
_pair = st.tuples(_point, _arrow, _point).map("".join)
_sep = _mostly(st.just(";"), st.sampled_from([",", " ; ", ";;", "|"]))
_elem = _mostly(
    st.tuples(st.lists(_pair, max_size=3), _sep).map(lambda t: t[1].join(t[0])),
    st.text(max_size=12) | st.none() | st.integers() | st.lists(st.integers(), max_size=2),
)
_number = _mostly(
    st.floats(-1e3, 1e3) | st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["1.5", "2", True, False])  # what float() would coerce
    | st.sampled_from([10**400, "nan", "inf", "-inf", "1e999", "x", "", None, [1.0]]),
)


def _text_or_bool_part(data) -> bool:
    """Whether some entry of the JSON has a string or boolean "re" or "im"."""
    if isinstance(data, dict):
        if any(isinstance(data.get(part), (str, bool)) for part in ("re", "im")):
            return True
        data = list(data.values())
    return isinstance(data, list) and any(map(_text_or_bool_part, data))


_term = _mostly(
    st.fixed_dictionaries({"elem": _elem, "re": _number, "im": _number}),
    st.fixed_dictionaries({}, optional={"elem": _elem, "re": _number, "im": _number})
    | st.sampled_from([None, "1->1", 3, []]),
)
_fields = {
    "n": _mostly(st.integers(0, 3), st.sampled_from([-3, -1, 9, 10**9, 2.0, 1.5, True, "2", None])),
    "basis": _mostly(st.sampled_from(["semigroup", "groupoid"]), st.sampled_from(["", "fourier", None])),
    "terms": _mostly(st.lists(_term, max_size=3), st.sampled_from([None, {}, "1->1", 3])),
}
_element = _mostly(st.fixed_dictionaries(_fields), st.fixed_dictionaries({}, optional=_fields))


@given(data=_element)
@example(data={"n": 1, "basis": "semigroup", "terms": [{"elem": "1->1", "re": "1.5", "im": True}]})
@settings(max_examples=300, deadline=None)
def test_transform_on_fuzzed_element_json_exits_cleanly(tmp_path_factory, data):
    """Whatever the element JSON holds, transform exits 0, 2 or 3, with one
    ERR: line on failure and nothing on stderr on success; a string or
    boolean number is never accepted."""
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "f.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["transform", "--input", str(path), "--output", str(directory / "out.json")])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3)
    if code == 0:
        assert lines == [] and not _text_or_bool_part(data)
    else:
        assert len(lines) == 1 and lines[0].startswith("ERR:"), lines
        assert lines[0].startswith("ERR:USAGE:" if code == 2 else "ERR:PARSE:")


# block JSON for n ≤ 2 that is mostly well formed, with junk mixed in at every field
_entry = _mostly(
    st.fixed_dictionaries({"re": _number, "im": _number}),
    st.sampled_from([None, 1.0, [], {}, {"re": "x"}]),
)
_junk_label = st.sampled_from([[0.9], [1.9], ["1"], [3], [1, 2], [2, 0], [], None, "1", [True], 1])


@st.composite
def _block_json(draw):
    m = draw(st.integers(0, 2))  # the R_m whose labels the blocks are built for
    blocks = []
    for shape in labels(m):
        d = draw(_mostly(st.just(dim(shape, m)), st.integers(0, 3)))
        rows = draw(st.lists(st.lists(_entry, min_size=d, max_size=d), min_size=d, max_size=d))
        block = {"lambda": draw(_mostly(st.just(list(shape)), _junk_label)), "rows": rows}
        blocks.append(draw(_mostly(st.just(block), st.sampled_from([None, [], "rows", {}]))))
    fields = {
        "n": _mostly(st.just(m), st.sampled_from([-1, 3, 9, 10**9, 1.5, True, "2", None])),
        "format": _mostly(st.just(BLOCK_FORMAT), st.sampled_from(["", None, 1, "rows"])),
        "blocks": _mostly(st.permutations(blocks), st.sampled_from([None, {}, "x", 3])),
        "ops": _mostly(st.integers(0, 10**6), st.sampled_from([12.7, -1, "5", None, True])),
    }
    return draw(_mostly(st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields)))


@given(data=_block_json())
@example(data={
    "n": 0, "format": BLOCK_FORMAT, "blocks": [{"lambda": [], "rows": [[{"re": "2.5", "im": False}]]}],
})
@settings(max_examples=300, deadline=None)
def test_invert_on_fuzzed_block_json_exits_cleanly(tmp_path_factory, data):
    """Whatever the block JSON holds, invert exits 0, 2 or 3, with one ERR:
    line on failure and nothing on stderr on success; a string or boolean
    number is never accepted."""
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "coeffs.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["invert", "--input", str(path), "--output", str(directory / "out.json")])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3)
    if code == 0:
        assert lines == [] and not _text_or_bool_part(data)
    else:
        assert len(lines) == 1 and lines[0].startswith("ERR:"), lines
        assert lines[0].startswith("ERR:USAGE:" if code == 2 else "ERR:PARSE:")


# ballot CSV that is mostly well formed, with junk mixed in at every field
_ballot = _mostly(
    st.tuples(st.lists(_pair, max_size=3), _sep).map(lambda t: t[1].join(t[0])),
    st.text(alphabet="0123x->;,\" \n²", max_size=10),
)
_count = _mostly(
    st.integers(0, 9).map(str) | st.sampled_from(["2.5", " 3 ", "0.0"]),
    st.sampled_from(["-1", "nan", "inf", "-inf", "1e999", "x", "", "1_0", "²"]),
)
_ballot_row = _mostly(
    st.tuples(_ballot, _count).map(",".join),
    st.sampled_from(["", ",", "1->1", "1->1,2,3", '"1->1,2"', '"1->1', "\ufeff"]),
)
_header = _mostly(st.just("ballot,count"), st.sampled_from(["", "count,ballot", " ballot,count"]))
_ballot_csv = st.tuples(_header, st.lists(_ballot_row, max_size=4)).map(
    lambda t: "\n".join([t[0], *t[1]]) + "\n"
)


@given(text=_ballot_csv)
@settings(max_examples=300, deadline=None)
def test_analyze_on_fuzzed_ballot_csv_exits_cleanly(tmp_path_factory, text):
    """Whatever the ballot CSV holds, analyze exits 0, 2 or 3, with one ERR:
    line on failure and nothing on stderr on success."""
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "ballots.csv"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["analyze", "--input", str(path), "--output", str(directory / "out.json")])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("ERR:"), lines
        assert lines[0].startswith("ERR:USAGE:" if code == 2 else "ERR:PARSE:")


class TestBench:
    def test_rows_agree_and_carry_sizes(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "3", "--seed", "1", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert [r["n"] for r in rows] == [1, 2, 3]
        assert all(r["agree"] for r in rows)
        assert [r["size"] for r in rows] == [size(1), size(2), size(3)]

    def test_naive_ops_at_n2(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "2", "--seed", "0", "--format", "json")
        rows = json.loads(out)
        assert rows[1]["n"] == 2
        assert rows[1]["ops_naive"] <= 49

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["bench", "--n", "3", "--seed", "9", "--output", a]) == 0
        assert main(["bench", "--n", "3", "--seed", "9", "--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_guard(self, capsys):
        code, _, err = run(capsys, "bench", "--n", "7")
        assert code == 2


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert err.startswith("ERR:USAGE:")
