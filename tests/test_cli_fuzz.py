"""The error contract of the command line, under a fuzz property.

cli.main is called with argv drawn from each subcommand's option shapes,
with odd option values, odd file names and drawn document bytes.  Each call
exits with a code that the cli module documents for its subcommand, and a
refusal (exit 1) prints exactly one 'error:' or 'parse error:' line, under
LINE_LIMIT characters, and nothing else; no other exit prints such a line.
Argparse's own syntax errors (exit 2 with a usage text) are outside the
contract; every option value is given with '=', and the int options get
decimal integers, so none is drawn.

Each draw is bounded, so that a valid input is answered in well under a
second: documents have n <= 2 and m <= 3, boxes are exhaustive only on
P^0 and P^1 up to degree 2 (or too large to be run at all), samples have
at most 3 maps, and a finite-field probe prime is small or refused.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import projstab.cli as cli
from projstab.resultant import monomials_of_degree

LINE_LIMIT = 300
ERROR_PREFIXES = ("error: ", "parse error: ")

# The exit codes each subcommand documents.
EXIT_CODES = {"analyze": {0, 1, 2}, "limit": {0, 1}, "decompose": {0, 1, 2},
              "verify": {0, 1, 5}, "figure": {0, 1}}


def _mostly(common, odd, times):
    """A strategy that draws from common times as often as from odd."""
    return st.sampled_from([common] * times + [odd]).flatmap(lambda s: s)


BIG = str(10 ** 30)
LONG = "9" * 5000  # past the interpreter's digit limit on int()
# Items of the number lists (--coeffs, --c, --b), four valid to one odd.
VALID_NUMBERS = st.sampled_from(("1", "-1", "2", "-3/4", "4/2", "+1", "0"))
ODD_NUMBERS = st.sampled_from(("x", "", "1.5", "1e3", " 2", "1/0", "1/2",
                               "٣", BIG, LONG))
NUMBERS = _mostly(VALID_NUMBERS, ODD_NUMBERS, 4)
VALID_COEFFS = VALID_NUMBERS | st.sampled_from([1, -1, 2, 0])
ODD_COEFFS = ODD_NUMBERS | st.sampled_from([True, None, 1.5, [1], {},
                                            10 ** 700])
ODD_JSON = st.sampled_from([None, True, -1, 0, 1.5, "1", "x", [], {}, [1],
                            10 ** 30, 10 ** 700])


def _number_list(size=None, unique=False):
    """A comma list of 1 to 3 numbers, or of size numbers when given."""
    return st.lists(NUMBERS, min_size=size or 1, max_size=size or 3,
                    unique=unique).map(",".join)


@st.composite
def _map_document(draw, n: int):
    """A map document with the given n and m <= 3: valid, or with one
    field, term or coefficient replaced by an odd value."""
    m = draw(st.integers(1, 3))
    monos = monomials_of_degree(n + 1, m)
    term = st.builds(lambda e, c: {"exp": list(e), "coeff": c},
                     st.sampled_from(monos), VALID_COEFFS)
    comps = [draw(st.lists(term, min_size=1, max_size=3))
             for _ in range(n + 1)]
    doc = {"n": n, "m": m, "components": comps}
    odd = draw(st.sampled_from([None] * 6 + ["field", "term", "coeff"]))
    if odd == "field":
        doc[draw(st.sampled_from(["n", "m", "components"]))] = draw(ODD_JSON)
    elif odd == "term":
        draw(st.sampled_from(comps)).append(draw(st.sampled_from([
            {"exp": [m] + [0] * n}, {"coeff": "1"}, {"exp": "ab", "coeff": 1},
            {"exp": [m, 0, 0, 0][:n + 1], "coeff": 1},
            {"exp": [-1, m + 1, 0][:n + 1], "coeff": 1},
            {"exp": [True] * (n + 1), "coeff": 1}])))
    elif odd == "coeff":
        draw(st.sampled_from(comps)).append(
            {"exp": list(monos[0]), "coeff": draw(ODD_COEFFS)})
    return json.dumps(doc).encode()


ODD_DOCUMENTS = (ODD_JSON.map(lambda x: json.dumps(x).encode())
                 | st.binary(max_size=32)
                 | st.sampled_from([b"", b"{", b"\xff\xfe", b"[" * 100_000,
                                    b'{"n": ' + LONG.encode() + b"}",
                                    '{"n": 1, "m": ٣}'.encode()]))
# Names a shell can pass: no NUL, no '/', and of the lone surrogates only
# those that undecodable bytes of a file name become; three drawn as text
# to one from the odd names.
_TEXT_NAMES = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters="/\x00"),
                      min_size=1, max_size=12)
NAMES = _mostly(_TEXT_NAMES, st.sampled_from(
    ["\udcff", "x" * 300, ".", "..", "-", " "]), 3)


@st.composite
def _argv(draw, doc: str, tmp: Path, n: int):
    """argv for one subcommand; file names are doc (a written document of
    P^n, as a rule), tmp itself, a missing file, an empty name or a name
    too long."""
    path = st.sampled_from([doc] * 12 + [str(tmp), str(tmp / "missing"), "",
                                         str(tmp / ("x" * 300))])
    command = draw(st.sampled_from(sorted(EXIT_CODES)))
    if command == "verify":
        sample = draw(st.none() | st.sampled_from(
            ["-1", "0", "1", "3", str(10 ** 7 + 1), BIG]))
        # Exhaustive boxes are drawn only where they are small or refused.
        ns = ["0", "1", "1", "-1", "40", BIG] + (["2"] if sample else [])
        ms = ["1", "2", "2", "-1", "0", BIG] + (["3"] if sample else [])
        argv = ["verify", "--n=" + draw(st.sampled_from(ns)),
                "--m=" + draw(st.sampled_from(ms)),
                "--coeffs=" + draw(_number_list(unique=True)
                                   | _number_list())]
        if sample is not None:
            argv.append("--sample=" + sample)
        if draw(st.booleans()):
            argv.append("--seed=" + draw(st.sampled_from(["0", "-5", BIG])))
        return argv
    argv = [command, draw(path)]
    if command == "analyze":
        if draw(st.booleans()):
            argv.append("--json")
        primes = st.sampled_from(["", "default", "2", "2,3", "101,103,107",
                                  "4", "2,2", "-3", "1/2", "x", "0",
                                  "1000003", str(2 ** 61 - 1), BIG])
        if draw(st.booleans()):
            argv.append("--probe-primes=" + draw(primes))
    elif command == "limit":
        weights = _number_list(n + 1) | _number_list()
        argv += ["--c=" + draw(weights), "--b=" + draw(weights)]
    elif command == "decompose":
        if draw(st.booleans()):
            argv.append("--all-blocks")
    else:
        out = st.sampled_from([str(tmp / "figure.json")] * 3 + [str(tmp), "",
                               str(tmp / "missing" / "figure.json"),
                               str(tmp / ("x" * 300))])
        argv.append("--out=" + draw(out))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=300)
@given(data=st.data())
def test_every_cli_call_exits_with_a_documented_code(workdir, data):
    with tempfile.TemporaryDirectory(dir=workdir) as name:
        tmp = Path(name)
        doc = tmp / data.draw(NAMES, label="document name")
        n = data.draw(st.integers(0, 2), label="n")
        doc_bytes = data.draw(_mostly(_map_document(n), ODD_DOCUMENTS, 3),
                              label="document")
        try:
            doc.write_bytes(doc_bytes)
        except OSError:  # ".", ".." or a name too long: left unwritten
            pass
        argv = data.draw(_argv(str(doc), tmp, n), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in EXIT_CODES[argv[0]]
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith(ERROR_PREFIXES)]
    if code == cli.EXIT_PARSE:
        assert err.getvalue() == errors[0] + "\n" and len(errors) == 1
        assert len(errors[0]) < LINE_LIMIT
        assert out.getvalue() == ""
    else:
        assert errors == []
