"""Document round-trips, report serialization, CLI behaviour and exit codes."""

import json
import time
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

import projstab.cli as cli
import projstab.decompose as decompose
import projstab.verify as verify
from projstab import (DegreeMismatch, InvalidBox, ParseError, SizeLimit,
                      classify, decompose_fully, make_map,
                      run_verification_suite)
from projstab.documents import (DOCUMENT_BYTE_LIMIT, classification_to_dict,
                                document_to_map, dumps_canonical,
                                format_fraction, load_map_file, loads_map,
                                map_to_document, parse_fraction, tree_to_dict)
from projstab.poly import shown
import goldens

CUBE = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1)]])
TRI = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1), ((1, 2), 1)]])
SQX = make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1), ((1, 1), 1)]])
# JSON true/false in integer fields; Python reads them as 1/0.
BOOLEAN_FIELDS = ("n", "m", "exp", "n-and-exp")
BOOLEAN_DOCS = (
    '{"n": true, "m": 2, "components": [[{"exp": [2, 0], "coeff": "1"}],'
    ' [{"exp": [0, 2], "coeff": 1}]]}',
    '{"n": 1, "m": true, "components": [[{"exp": [1, 0], "coeff": "1"}],'
    ' [{"exp": [0, 1], "coeff": 1}]]}',
    '{"n": 1, "m": 2, "components": [[{"exp": [2, false], "coeff": "1"}],'
    ' [{"exp": [0, 2], "coeff": 1}]]}',
    '{"n": true, "m": 2, "components": [[{"exp": [2, false], "coeff": "1"}],'
    ' [{"exp": [0, 2], "coeff": 1}]]}',
)


class _BoundedRandom(Random):
    """A sampler's generator that fails after 10^4 draws instead of hanging.

    Every draw from the box {0} is the zero map, so a sampler that redraws
    zero maps would never end on it.
    """

    draws = 0

    def choice(self, seq):
        self.draws += 1
        assert self.draws < 10_000, "sampler kept redrawing"
        return super().choice(seq)


def write_doc(tmp_path, f, name="map.json"):
    path = tmp_path / name
    path.write_text(dumps_canonical(map_to_document(f)), encoding="utf-8")
    return str(path)


# Each refused CLI input: argv, then the start of its one error line.  An
# argument in {braces} is a path that the test fills in; a bytes argument
# is a document, written to a file whose path replaces it.
INPUT_ERRORS = {
    "missing-file": (["analyze", "{missing}"], "error: "),
    "analyze-directory": (["analyze", "{dir}"], "error: "),
    # An OSError shows its file name cut, not whole.
    "analyze-5000-character-name": (["analyze", "{dir}/" + "x" * 5000],
                                    "error: File name too long: '"),
    "endless-document": (["analyze", "/dev/zero"],
                         "parse error: '/dev/zero' is larger than"),
    # A valid map padded with whitespace to one byte past the bound.
    "over-byte-limit-document": (
        ["analyze", b'{"n": 0, "m": 1, "components": [[{"exp": [1], '
         b'"coeff": "1"}]]}'.ljust(DOCUMENT_BYTE_LIMIT + 1)],
        "parse error: "),
    "not-utf8-document": (
        ["analyze", b"\x7fELF\x02\x01\x01\x00\xff\xfe\x00"], "parse error: "),
    "deeply-nested-document": (["analyze", b"[" * 200000 + b"]" * 200000],
                               "parse error: document nests too deeply"),
    **{f"json-boolean-{field}": (["analyze", text.encode()],
                                 "parse error: invalid map: ")
       for field, text in zip(BOOLEAN_FIELDS, BOOLEAN_DOCS)},
    # 5000 digits is past the interpreter's int conversion limit, which
    # json.loads reports as a plain ValueError.
    "json-5000-digit-n": (
        ["analyze", b'{"n": ' + b"7" * 5000 + b', "m": 1, "components": '
         b'[[{"exp": [1, 0], "coeff": "1"}], [{"exp": [0, 1], "coeff": "1"}]]}'],
        "parse error: Exceeds the limit (4300 digits)"),
    "json-5000-digit-coeff": (
        ["analyze", b'{"n": 1, "m": 1, "components": [[{"exp": [1, 0], '
         b'"coeff": ' + b"7" * 5000 + b'}], [{"exp": [0, 1], "coeff": "1"}]]}'],
        "parse error: Exceeds the limit (4300 digits)"),
    "exponent-100001-entries": (
        ["analyze", b'{"n": 1, "m": 1, "components": [[{"exp": ['
         + b"1, " * 100000 + b'1], "coeff": "1"}], [{"exp": [0, 1], '
         b'"coeff": "1"}]]}'],
        "parse error: invalid map: exponent (1, 1, 1, 1, 1, 1"),
    "composite-prime": (["analyze", "{cube}", "--probe-primes", "4"],
                        "error: modulus 4 is not prime"),
    "composite-primes": (["analyze", "{cube}", "--probe-primes", "4,9,15"],
                         "error: modulus 4 is not prime"),
    "oversized-probe": (["analyze", "{cube}", "--probe-primes", "1000003"],
                        "error: P^1(F_1000003) has 1000004 points"),
    "probe-underscore-digit": (["analyze", "{cube}", "--probe-primes", "1_01"],
                               "parse error: --probe-primes"),
    "probe-4000-digit-modulus": (
        ["analyze", "{cube}", "--probe-primes", "7" * 4000],
        "error: modulus must satisfy"),
    "probe-prime-divides-3006-digit-den": (
        ["analyze", "{bigden}", "--probe-primes", "5"],
        "error: denominator of coefficient a number of 9985 bits vanishes"),
    "probe-P720-point-count": (
        ["analyze", "{p720}", "--probe-primes", "999983"],
        "error: P^720(F_999983) has a number of 14351 bits points"),
    "probe-not-prime": (["analyze", "{third}", "--probe-primes", "4"],
                        "error: modulus 4 is not prime"),
    "probe-not-integer": (["analyze", "{third}", "--probe-primes", "abc"],
                          "parse error: --probe-primes: bad rational 'abc'"),
    "probe-over-point-bound": (
        ["analyze", "{third}", "--probe-primes", "1000003"],
        "error: P^1(F_1000003) has 1000004 points"),
    "probe-divides-denominator": (
        ["analyze", "{third}", "--probe-primes", "5,3"],
        "error: denominator of coefficient 1/3 vanishes mod 3"),
    "probe-repeated": (["analyze", "{third}", "--probe-primes", "3,3"],
                       "parse error: --probe-primes: a prime is repeated"),
    "probe-empty": (["analyze", "{third}", "--probe-primes", ","],
                    "parse error: --probe-primes: bad rational ''"),
    "probe-empty-item": (["analyze", "{third}", "--probe-primes", "101,,103"],
                         "parse error: --probe-primes: bad rational ''"),
    "figure-not-n2": (["figure", "{cube}", "--out", "{out}"],
                      "error: figure data is defined for n = 2"),
    "figure-out-directory": (["figure", "{n2}", "--out", "{dir}"], "error: "),
    "figure-out-3000-character-path": (
        ["figure", "{n2}", "--out", "{dir}/" + "y" * 3000],
        "error: File name too long: '"),
    "limit-weight-length": (["limit", "{tri}", "--c", "0,1,2", "--b", "0,0"],
                            "error: weight vectors have lengths 3 and 2"),
    "limit-weights-longer-than-map": (
        ["limit", "{tri}", "--c", "0,1,2", "--b", "0,0,0"],
        "error: subgroup lives on 3 coordinates"),
    "limit-empty-c-item": (["limit", "{sq}", "--c", "0,,1", "--b", "0,0"],
                           "parse error: --c"),
    "limit-empty-b-item": (["limit", "{sq}", "--c", "0,1", "--b", "0,,0"],
                           "parse error: --b"),
    "limit-underscore-digit": (["limit", "{sq}", "--c", "1_0,0", "--b", "0,0"],
                               "parse error: --c"),
    "limit-space-before-digit": (["limit", "{sq}", "--c", "0,0", "--b", " 2,0"],
                                 "parse error: --b"),
    "limit-arabic-indic-digit": (
        ["limit", "{sq}", "--c", "\u0661,0", "--b", "0,0"], "parse error: --c"),
    "limit-5000-digit-item": (
        ["limit", "{sq}", "--c", "1" * 5000 + ",0", "--b", "0,0"],
        "parse error: --c"),
    "limit-fraction-weight": (["limit", "{sq}", "--c", "1/2,0", "--b", "0,0"],
                              "parse error: --c: '1/2' is not an integer"),
    # K = 2 * (10**4300 - 1) has 4301 digits, one past what json.dumps
    # writes of an int.
    "limit-4301-digit-K": (
        ["limit", "{sqx}", "--c", ",".join(["9" * 4300] * 2), "--b", "0,0"],
        "error: K is a number of 14286 bits, past the 4300-digit limit"),
    # values starting with '-' need the --flag=value form
    "verify-budget": (["verify", "--n", "2", "--m", "3", "--coeffs=-1,0,1"],
                      "error: box holds 205891132094649 candidates"),
    "verify-9209-digit-box": (
        ["verify", "--n", "1", "--m", "2000",
         "--coeffs=" + ",".join(map(str, range(1, 201)))],
        "error: box holds a number of 30591 bits candidates"),
    "verify-245-digit-box": (
        ["verify", "--n", "1", "--m", "60",
         "--coeffs=" + ",".join(map(str, range(1, 101)))],
        "error: box holds 1000000000000000000000000000000000000..."),
    "verify-huge-n": (["verify", "--n", "1000000000", "--m", "2",
                       "--coeffs=0,1", "--sample", "1"], "error: "),
    "verify-huge-sample": (["verify", "--n", "1", "--m", "1", "--coeffs=1",
                            "--sample", "1000000000000"],
                           "error: sample size 1000000000000 is above"),
    "verify-negative-sample": (["verify", "--n", "1", "--m", "2",
                                "--coeffs=0,1", "--sample", "-3"],
                               "error: sample size must be >= 0, got -3"),
    "verify-negative-n": (["verify", "--n", "-1", "--m", "2", "--coeffs=0,1"],
                          "error: n must be >= 0, got -1"),
    "verify-zero-m": (["verify", "--n", "1", "--m", "0", "--coeffs=0,1"],
                      "error: degree must be >= 1, got 0"),
    "verify-zero-box-sample": (["verify", "--n", "1", "--m", "2", "--coeffs=0",
                                "--sample", "3"],
                               "error: the coefficient set needs a nonzero"),
    "verify-5000-zeros": (
        ["verify", "--n", "1", "--m", "1", "--coeffs=" + ",".join("0" * 5000)],
        "error: the coefficient set needs a nonzero entry"),
    "verify-repeated-coeff": (["verify", "--n", "1", "--m", "1",
                               "--coeffs=1,1"],
                              "error: the coefficient set names 1 twice"),
    "verify-repeated-1/1": (["verify", "--n", "1", "--m", "1",
                             "--coeffs=1,1/1"],
                            "error: the coefficient set names 1 twice"),
    "verify-4999-coeffs-twice": (
        ["verify", "--n", "1", "--m", "1",
         "--coeffs=1," + ",".join(map(str, range(1, 5000)))],
        "error: the coefficient set names 1 twice"),
    "verify-empty-coeffs": (["verify", "--n", "1", "--m", "2", "--coeffs=,"],
                            "parse error: --coeffs: bad rational ''"),
    "verify-coeff-x": (["verify", "--n", "1", "--m", "2", "--coeffs=1,x"],
                       "parse error: --coeffs: bad rational 'x'"),
    "verify-empty-coeff-item": (["verify", "--n", "1", "--m", "2",
                                 "--coeffs=1,,0"],
                                "parse error: --coeffs: bad rational ''"),
    "verify-space-before-coeff": (
        ["verify", "--n", "1", "--m", "2", "--coeffs= 1,0"],
        "parse error: --coeffs"),
}


class TestFractions:
    def test_format(self):
        assert format_fraction(F(3)) == "3"
        assert format_fraction(F(-2, 7)) == "-2/7"
        assert format_fraction(F(2, 4)) == "1/2"

    def test_format_past_the_digit_limit(self):
        # 10**5000 + 7 has 5001 digits, past the 4300 that str() writes.
        big = 10 ** 5000 + 7
        assert format_fraction(F(-big, 3)) == "-1" + "0" * 4999 + "7/3"
        assert format_fraction(F(3, big)) == "3/1" + "0" * 4999 + "7"
        assert format_fraction(F(big)) == "1" + "0" * 4999 + "7"

    def test_parse(self):
        assert parse_fraction("-2/7") == F(-2, 7)
        assert parse_fraction(5) == F(5)
        assert parse_fraction("4/2") == F(2)
        with pytest.raises(ParseError):
            parse_fraction("1/0")
        with pytest.raises(ParseError):
            parse_fraction("abc")
        with pytest.raises(ParseError):
            parse_fraction(True)
        with pytest.raises(ParseError):
            parse_fraction(1.5)

    @pytest.mark.parametrize("text", ["1.5", " 2/4 ", "1_000", "1e3", "2/-3",
                                      "0x10", "", "/2", "1/"])
    def test_parse_rejects_undocumented_forms(self, text):
        with pytest.raises(ParseError):
            parse_fraction(text)

    def test_parse_rejects_exponent_before_converting(self):
        # Fraction() would expand the exponent: about 10 s for 10^7 digits.
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_fraction("1e10000000")
        assert time.perf_counter() - start < 0.5


class TestDocuments:
    def test_round_trip_bytes(self):
        f = make_map(1, 2, [[((0, 2), "1/3"), ((2, 0), -2)], [((1, 1), 7)]])
        text = dumps_canonical(map_to_document(f))
        again = loads_map(text)
        assert again == f
        assert dumps_canonical(map_to_document(again)) == text

    def test_noncanonical_input_normalizes(self):
        a = loads_map('{"n":1,"m":2,"components":[['
                      '{"exp":[0,2],"coeff":"1"},{"exp":[2,0],"coeff":"2/4"}],'
                      '[{"exp":[1,1],"coeff":3}]]}')
        b = loads_map('{"m":2,"components":[['
                      '{"exp":[2,0],"coeff":"1/2"},{"exp":[0,2],"coeff":1}],'
                      '[{"exp":[1,1],"coeff":"3"}]],"n":1}')
        assert a == b
        assert dumps_canonical(map_to_document(a)) \
            == dumps_canonical(map_to_document(b))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            loads_map("{not json")
        with pytest.raises(ParseError):
            loads_map('{"n":1,"m":2}')
        with pytest.raises(ParseError):
            loads_map('{"n":1,"m":2,"components":[[{"exp":[1,0],'
                      '"coeff":"1"}],[]]}')  # degree mismatch
        with pytest.raises(ParseError):
            loads_map('{"n":1,"m":2,"components":[[{"exp":[2,0],'
                      '"coeff":"x"}],[]]}')
        with pytest.raises(ParseError):
            document_to_map([1, 2, 3])

    @pytest.mark.parametrize("text", BOOLEAN_DOCS, ids=BOOLEAN_FIELDS)
    def test_rejects_json_booleans(self, text):
        with pytest.raises(ParseError, match="integer"):
            loads_map(text)

    def test_json_error_position(self):
        try:
            loads_map('{"n": 1,\n "m": }')
        except ParseError as exc:
            assert exc.lineno == 2
        else:
            pytest.fail("expected ParseError")

    def test_report_serialization_deterministic(self):
        rep = classify(CUBE)
        d1 = dumps_canonical(classification_to_dict(rep))
        d2 = dumps_canonical(classification_to_dict(classify(CUBE)))
        assert d1 == d2
        parsed = json.loads(d1)
        assert parsed["classification"] == "InfiniteStabilizer"
        assert parsed["resultant"] == "1"

    def test_tree_serialization(self):
        d = tree_to_dict(decompose_fully(TRI))
        assert d["split"]["quotient_components"] == [0]
        assert d["quotient"]["leaf_reason"] == "RankOne"
        dumps_canonical(d)


class TestCLI:
    def test_analyze_exit_codes(self, tmp_path, capsys):
        good = write_doc(tmp_path, CUBE)
        assert cli.main(["analyze", good]) == 0
        out = capsys.readouterr().out
        assert "InfiniteStabilizer" in out

        bad = write_doc(tmp_path, make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1)]]),
                        "bad.json")
        assert cli.main(["analyze", bad]) == 2

        broken = tmp_path / "broken.json"
        broken.write_text('{"n":1,"m":2,"components":[[{"exp":[1,0],'
                          '"coeff":"1"}],[]]}', encoding="utf-8")
        assert cli.main(["analyze", str(broken)]) == 1
        assert cli.main(["analyze", str(tmp_path / "missing.json")]) == 1

    def test_analyze_json_report(self, tmp_path, capsys):
        good = write_doc(tmp_path, CUBE)
        assert cli.main(["analyze", good, "--json",
                         "--probe-primes", "5,7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "InfiniteStabilizer"
        assert [p["prime"] for p in report["probes"]] == [5, 7]
        assert "seed" not in report and "resultant_retries" not in report
        assert "timing" in report

    def test_analyze_has_no_seed(self, tmp_path):
        good = write_doc(tmp_path, CUBE)
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", good, "--seed", "1"])
        assert exc.value.code == 2

    def test_verify_has_no_budget_override(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", "2", "--m", "3", "--coeffs=-1,0,1",
                      "--override-budget"])
        assert exc.value.code == 2

    def test_analyze_rejects_oversized_probe(self, tmp_path, capsys):
        good = write_doc(tmp_path, CUBE)
        assert cli.main(["analyze", good, "--probe-primes", "1000003"]) == 1
        assert "points" in capsys.readouterr().err

    def test_analyze_default_probe_primes_fit_the_dimension(self, tmp_path,
                                                             capsys):
        # P^3(F_101) is above the point bound, so n = 3 probes 83, 89, 97.
        power = make_map(3, 2, [[(tuple(2 * (i == j) for i in range(4)), 1)]
                                for j in range(4)])
        path = write_doc(tmp_path, power)
        assert cli.main(["analyze", path, "--json",
                         "--probe-primes", "default"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [p["prime"] for p in report["probes"]] == [83, 89, 97]
        assert all(p["zeros_found"] == [] for p in report["probes"])
        assert cli.main(["analyze", write_doc(tmp_path, CUBE, "cube.json"),
                         "--json", "--probe-primes", "default"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [p["prime"] for p in report["probes"]] == [101, 103, 107]

    def test_limit_command(self, tmp_path, capsys):
        path = write_doc(tmp_path, TRI)
        assert cli.main(["limit", path, "--c", "0,-1", "--b", "0,-3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["K"] == 0 and out["dropped_terms"] == 1
        assert out["limit_is_morphism"] is True
        assert out["map"] == map_to_document(CUBE)

    def test_limit_echo_with_zero_subgroup(self, tmp_path, capsys):
        path = write_doc(tmp_path, TRI)
        assert cli.main(["limit", path, "--c", "0,0", "--b", "0,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["K"] == 0 and out["dropped_terms"] == 0
        assert out["map"] == map_to_document(TRI)

    @pytest.mark.parametrize("c, b", [("+3,0", "0,-0"), ("3,+0", "+0,0"),
                                      ("6/2,0", "0/7,0")],
                             ids=["plus-sign", "signed-zeros",
                                  "integer-fractions"])
    def test_limit_takes_signed_ascii_integers(self, c, b, tmp_path, capsys):
        path = write_doc(tmp_path, TRI)
        assert cli.main(["limit", path, "--c", "3,0", "--b", "0,0"]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["limit", path, "--c", c, "--b", b]) == 0
        assert capsys.readouterr().out == plain

    def test_limit_writes_K_up_to_the_digit_limit(self, tmp_path, capsys):
        # K = 2 * (10**4300 - 1) / 9 has 4300 digits: written in full.
        path = write_doc(tmp_path, SQX)
        assert cli.main(["limit", path, "--c", ",".join(["1" * 4300] * 2),
                         "--b", "0,0"]) == 0
        assert capsys.readouterr().out.startswith(
            '{\n  "K": ' + "2" * 4300 + ",\n")

    def test_analyze_writes_a_resultant_past_the_digit_limit(self, capsys):
        # The golden map with 400-digit coefficients on x_j^2 and 1 on the
        # cross terms: its resultant has 4799 digits, in both views.
        doc = goldens.DATA / "analyze" / "n2-400-digit-powers.map.json"
        report = doc.with_name("n2-400-digit-powers.report.json")
        resultant = json.loads(report.read_text(encoding="utf-8"))[
            "resultant"]
        assert len(resultant) == 4799
        assert cli.main(["analyze", str(doc)]) == 0
        captured = capsys.readouterr()
        assert f"resultant: {resultant}\n" in captured.out
        assert captured.err == ""
        assert cli.main(["analyze", str(doc), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["resultant"] == resultant

    def test_limit_dimension_error(self, tmp_path):
        path = write_doc(tmp_path, TRI)
        assert cli.main(["limit", path, "--c", "0,1,2", "--b", "0,0"]) == 1

    def test_decompose_command(self, tmp_path, capsys):
        path = write_doc(tmp_path, TRI)
        assert cli.main(["decompose", path, "--all-blocks"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["splitting_type"] == [1, 1]
        assert out["all_block_splitting_types"] == [[1, 1]]

        bad = write_doc(tmp_path, make_map(1, 2, [[((2, 0), 1)], [((1, 1), 1)]]),
                        "bad.json")
        assert cli.main(["decompose", bad]) == 2

    def test_decompose_all_blocks_certifies_once(self, tmp_path,
                                                 monkeypatch, capsys):
        # The all-blocks field is read off the tree decompose_fully built,
        # so the map is certified once, not once more for that field.
        calls = []
        certify = decompose.is_morphism

        def counted(f):
            calls.append(f)
            return certify(f)

        monkeypatch.setattr(decompose, "is_morphism", counted)
        path = write_doc(tmp_path, TRI)
        assert cli.main(["decompose", path, "--all-blocks"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)[
            "all_block_splitting_types"] == [[1, 1]]

    def test_decompose_rank_one_document(self, tmp_path, capsys):
        path = write_doc(tmp_path, make_map(0, 2, [[((2,), 1)]]), "r1.json")
        assert cli.main(["decompose", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["splitting_type"] == [1]
        assert out["tree"]["leaf_reason"] == "RankOne"

    def test_verify_command(self, capsys):
        assert cli.main(["verify", "--n", "1", "--m", "2",
                         "--coeffs", "0,1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["zero_failures"] is True
        assert out["morphisms"] == 28

    def test_verify_budget_guard(self, capsys):
        # values starting with '-' need the --flag=value form
        assert cli.main(["verify", "--n", "2", "--m", "3",
                         "--coeffs=-1,0,1"]) == 1

    @pytest.mark.parametrize("argv, prefix", INPUT_ERRORS.values(),
                             ids=INPUT_ERRORS.keys())
    def test_input_errors_print_one_error_line(self, argv, prefix, tmp_path,
                                               capsys, monkeypatch):
        # Every refusal comes before any classification work, and no
        # sampler redraws forever.
        def no_classify(f):
            raise AssertionError("classify ran on a refused input")

        monkeypatch.setattr(cli, "classify", no_classify)
        monkeypatch.setattr(verify, "Random", _BoundedRandom)
        if "/dev/zero" in argv and not Path("/dev/zero").exists():
            pytest.skip("needs /dev/zero")
        n2 = make_map(2, 2, [[((2, 0, 0), 1)], [((0, 2, 0), 1)],
                             [((0, 0, 2), 1)]])
        sq = make_map(1, 2, [[((2, 0), 1)], [((0, 2), 1)]])
        bigden = make_map(1, 1, [[((1, 0), F(1, 5 ** 4300))], [((0, 1), 1)]])
        third = make_map(1, 3, [[((3, 0), F(1, 3))], [((0, 3), 1)]])
        paths = {"missing": str(tmp_path / "missing.json"),
                 "cube": write_doc(tmp_path, CUBE, "cube.json"),
                 "tri": write_doc(tmp_path, TRI, "tri.json"),
                 "n2": write_doc(tmp_path, n2, "n2.json"),
                 "sq": write_doc(tmp_path, sq, "sq.json"),
                 "sqx": write_doc(tmp_path, SQX, "sqx.json"),
                 "bigden": write_doc(tmp_path, bigden, "bigden.json"),
                 "third": write_doc(tmp_path, third, "third.json"),
                 "out": str(tmp_path / "fig.json"),
                 "dir": str(tmp_path)}
        if "{p720}" in argv:
            # P^720(F_999983) has 4320 digits of points; the document has
            # 6.8 MB, so only this case writes it.
            paths["p720"] = write_doc(tmp_path, make_map(
                720, 1, [[(tuple(int(i == j) for i in range(721)), 1)]
                         for j in range(721)]), "p720.json")
        args = []
        for arg in argv:
            if isinstance(arg, bytes):
                (tmp_path / "doc").write_bytes(arg)
                arg = str(tmp_path / "doc")
            args.append(arg.format(**paths))
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix)
        assert len(lines[0]) < 300

    def test_verify_box_past_matrix_bound_is_rejected_before_listing(
            self, monkeypatch):
        # (4, 5) has critical-degree matrices with C(25, 4) = 12650 columns,
        # above the 5000 bound, so is_morphism would refuse every map; the
        # box must be refused before its monomials are listed.
        def no_listing(num_vars, degree):
            raise AssertionError("monomials listed for an oversized box")

        monkeypatch.setattr(verify, "monomials_of_degree", no_listing)
        for sample in (None, 1, 0):
            with pytest.raises(SizeLimit):
                run_verification_suite(4, 5, [F(0), F(1)], sample=sample)

    def test_verify_zero_box_is_rejected_before_sampling(self, monkeypatch):
        monkeypatch.setattr(verify, "Random", _BoundedRandom)
        with pytest.raises(InvalidBox):
            run_verification_suite(1, 2, [F(0)], sample=3)
        with pytest.raises(InvalidBox):
            run_verification_suite(1, 2, ["0"], sample=3)
        with pytest.raises(InvalidBox):
            run_verification_suite(1, 2, [F(0), F(0)])
        with pytest.raises(ParseError, match="float"):
            run_verification_suite(1, 2, [0.5, 1], sample=3)
        report = run_verification_suite(1, 2, [F(0), F(1)], sample=3)
        assert report.maps_checked == 3

    @pytest.mark.parametrize("box", [
        dict(n=2.5, m=2), dict(n=1, m=2.5), dict(n=True, m=2),
        dict(n=1, m=2, sample=2.5), dict(n=1, m=2, sample=True),
    ])
    def test_verify_box_sizes_are_ints(self, box, monkeypatch):
        # The one integer rule runs before anything else: no coefficient is
        # read and nothing is counted or drawn.
        def no_reading(value, where="coeff"):
            raise AssertionError("a coefficient was read before n, m, sample")

        monkeypatch.setattr(verify, "parse_fraction", no_reading)
        with pytest.raises(DegreeMismatch, match="not an integer"):
            run_verification_suite(coeffs=["0", "1"], **box)

    def test_verify_box_with_a_repeated_value_is_rejected_before_counting(
            self, monkeypatch):
        # 1 and 1/1 are one value, so every map would be counted twice.
        def no_counting(n, m, coeffs):
            raise AssertionError("a box with a repeated value was counted")

        monkeypatch.setattr(verify, "count_candidates", no_counting)
        for coeffs in ([F(1), F(1)], [F(0), F(1), F(1, 1)], [F(1), 1],
                       ["1", "1/1"], [1, "1"]):
            for sample in (None, 1):
                with pytest.raises(InvalidBox, match="twice"):
                    run_verification_suite(1, 1, coeffs, sample=sample)

    def test_figure_command(self, tmp_path, capsys):
        f = make_map(2, 2, [[((2, 0, 0), 1)], [((0, 2, 0), 1)],
                            [((0, 0, 2), 1)]])
        path = write_doc(tmp_path, f, "n2.json")
        out_path = tmp_path / "fig.json"
        assert cli.main(["figure", path, "--out", str(out_path)]) == 0
        data = json.loads(out_path.read_text(encoding="utf-8"))
        assert data["simplex_vertices"] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        assert data["supports"][0] == [[2, 0, 0]]
        assert len(data["hyperplanes"]["classes"]) >= 1

    def test_figure_long_out_path_is_shown_cut(self, tmp_path, monkeypatch,
                                               capsys):
        # The whole path made a 450-character diagnostic line.
        f = make_map(2, 2, [[((2, 0, 0), 1)], [((0, 2, 0), 1)],
                            [((0, 0, 2), 1)]])
        path = write_doc(tmp_path, f, "n2.json")
        monkeypatch.chdir(tmp_path)
        Path("d" * 200).mkdir()
        out = "d" * 200 + "/" + "f" * 226
        assert len(out) == 427
        assert cli.main(["figure", path, "--out", out]) == 0
        assert json.loads(Path(out).read_text(encoding="utf-8"))[
            "simplex_vertices"] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        err = capsys.readouterr().err
        assert err == f"figure data written to {shown(out)}\n"

    def test_figure_wrong_dimension(self, tmp_path):
        path = write_doc(tmp_path, CUBE)
        assert cli.main(["figure", path, "--out",
                         str(tmp_path / "fig.json")]) == 1

    def test_figure_without_nontrivial_stabilizer(self, tmp_path, capsys):
        f = make_map(2, 2, [[((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)],
                            [((1, 1, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)],
                            [((0, 0, 2), 1), ((1, 0, 1), 1), ((0, 2, 0), 1)]])
        path = write_doc(tmp_path, f, "dense.json")
        out_path = tmp_path / "fig.json"
        assert cli.main(["figure", path, "--out", str(out_path)]) == 0
        data = json.loads(out_path.read_text(encoding="utf-8"))
        assert "hyperplanes" not in data

    def test_load_map_file(self, tmp_path):
        path = write_doc(tmp_path, CUBE)
        assert load_map_file(path) == CUBE
        # The same document padded across several read chunks.
        padded = tmp_path / "padded.json"
        padded.write_bytes(Path(path).read_bytes() + b" " * 200000)
        assert load_map_file(str(padded)) == CUBE


@pytest.mark.parametrize("case", goldens.cases(), ids=lambda case: (
    "decompose-" if case.argv[0] == "decompose" else "")
    + case.golden.name.removesuffix(".report.json"))
def test_analyze_json_matches_golden(case, capsys):
    # Every golden through cli.main: a speed-up that changes a byte of a
    # canonical report fails here.  The analyze maps: n = 1 with rational
    # coefficients; (2,2) with and without a zero pure power; a (2,3) map
    # with a singular Macaulay block; two (3,3) maps whose pure powers need
    # a matching; a non-morphism; a triangular map with blocks; a (2,2) map
    # with 400-digit pure-power coefficients, whose resultant has 4799
    # digits, past the 4300 that str() writes of an int.  Each probe
    # list holds a prime at which the probe finds zeros.  The decompose
    # maps, with --all-blocks: that triangular map, and (x0^2, x1^2,
    # x2^2 + x0*x2), whose blocks {0}, {1}, {0,1}, {0,2} hold incomparable
    # pairs.
    code = cli.main(case.argv)
    assert goldens.check(case, code, capsys.readouterr().out) is None
