"""The golden reports under tests/data: one case list and one check.

Each argv comes from tests/data alone: `analyze <name>.map.json --json`
for analyze/<name>.report.json, with `--probe-primes` set to the primes
of its own `probes` for <name>.probed.report.json; for verify/*.report.json,
`verify` with --n, --m, --coeffs, --sample and --seed from its `box`,
`candidates` and `seed`; `decompose <name>.map.json --all-blocks` for
decompose/<name>.report.json.  check() drops the `timing` of an analyze or
verify report and compares the rest, and the exit code, with the golden; a
decompose report has no `timing` and exits 0.  As a script, with the
standard library and the installed package alone,

    python tests/goldens.py <console script>

runs every case through that executable and exits 1 unless all 18 match.
"""

import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from projstab.documents import dumps_canonical

DATA = Path(__file__).resolve().parent / "data"
# 9 analyze reports, 6 of them also probed, 1 verify report, 2 decompose
GOLDENS = 18
# The field that decides a timed command's exit code, and the code when
# false.  A decompose report is untimed and exits 0.
_VERDICT = {"analyze": ("is_morphism", 2), "verify": ("zero_failures", 5)}


class Case(NamedTuple):
    golden: Path
    argv: list[str]


def cases() -> list[Case]:
    found = []
    for golden in sorted(DATA.glob("analyze/*.report.json")):
        doc = golden.with_name(golden.name.split(".")[0] + ".map.json")
        argv = ["analyze", str(doc), "--json"]
        if golden.name.endswith(".probed.report.json"):
            probes = json.loads(golden.read_text(encoding="utf-8"))["probes"]
            argv += ["--probe-primes",
                     ",".join(str(p["prime"]) for p in probes)]
        found.append(Case(golden, argv))
    for golden in sorted(DATA.glob("verify/*.report.json")):
        report = json.loads(golden.read_text(encoding="utf-8"))
        box = report["box"]
        found.append(Case(golden, [
            "verify", "--n", str(box["n"]), "--m", str(box["m"]),
            "--coeffs=" + ",".join(box["coeffs"]), "--sample",
            str(report["candidates"]), "--seed", str(report["seed"])]))
    for golden in sorted(DATA.glob("decompose/*.report.json")):
        doc = golden.with_name(golden.name.split(".")[0] + ".map.json")
        found.append(Case(golden, ["decompose", str(doc), "--all-blocks"]))
    return found


def check(case: Case, code: int, out: str) -> str | None:
    """None when a run's exit code and standard output match its golden,
    else one line naming the golden."""
    timed = case.argv[0] in _VERDICT
    try:
        report = json.loads(out)
        if timed:
            del report["timing"]
    except (ValueError, KeyError, TypeError):
        return f"{case.golden}: exit code {code}, no JSON report" + (
            " with timing" if timed else "")
    expected = 0
    if timed:
        field, failed = _VERDICT[case.argv[0]]
        expected = 0 if report.get(field) else failed
    if code != expected:
        return f"{case.golden}: exit code {code}, expected {expected}"
    if dumps_canonical(report) != case.golden.read_text(encoding="utf-8"):
        return f"{case.golden}: the report differs"
    return None


def main(console_script: str) -> int:
    found = cases()
    problems = [] if len(found) == GOLDENS else [
        f"found {len(found)} goldens under {DATA}, expected {GOLDENS}"]
    for case in found:
        run = subprocess.run([console_script, *case.argv],
                             capture_output=True, encoding="utf-8")
        problems.append(check(case, run.returncode, run.stdout))
    problems = [problem for problem in problems if problem]
    print("\n".join(problems) or f"{GOLDENS} goldens match")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
