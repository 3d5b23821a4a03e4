"""Document round-trips, report serialization, CLI behaviour and exit codes."""

import json
from fractions import Fraction as F

import pytest

import projstab.cli as cli
from projstab import (ParseError, classify, decompose_fully, make_map)
from projstab.documents import (classification_to_dict, document_to_map,
                                dumps_canonical, format_fraction, load_map_file,
                                loads_map, map_to_document, parse_fraction,
                                tree_to_dict)

CUBE = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1)]])
TRI = make_map(1, 3, [[((3, 0), 1)], [((0, 3), 1), ((1, 2), 1)]])


def write_doc(tmp_path, f, name="map.json"):
    path = tmp_path / name
    path.write_text(dumps_canonical(map_to_document(f)), encoding="utf-8")
    return str(path)


class TestFractions:
    def test_format(self):
        assert format_fraction(F(3)) == "3"
        assert format_fraction(F(-2, 7)) == "-2/7"
        assert format_fraction(F(2, 4)) == "1/2"

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

    def test_analyze_rejects_composite_probe_modulus(self, tmp_path, capsys):
        good = write_doc(tmp_path, CUBE)
        assert cli.main(["analyze", good, "--probe-primes", "4,9,15"]) == 1
        assert "not prime" in capsys.readouterr().err

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
