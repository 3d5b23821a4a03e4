"""Write the expected answers of every workload, and check them.

    python3 bench/expected.py [--workload NAME ...]

Runs each pool once, untraced and in pool order, with the package in
`src/`, and writes `bench/expected/<workload>.json`: the fingerprint of
the generated inputs and one answer digest per map, for the main and the
held-out pool.  The answers are checked against the independent oracles
before anything is written.  Regenerate only when the inputs change on
purpose: the file is what a faster version of the package must still
answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import oracles
from run import BENCH_DIR, SRC, WORK_DIR, digest, run_pass, setup
from workloads import POOL_SEEDS, WORKLOADS, expected_path, fingerprint


def pool_answers(wl, partition: str) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR)
    try:
        pkg, items, inputs = setup(wl, partition, workdir)
        order = list(range(len(items)))
        done = run_pass(wl, pkg, inputs, order)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raised = [raw.trace for raw in done.raws if isinstance(raw, Exception)]
    if raised:
        raise SystemExit(f"{wl.name}/{partition}: a map raised\n{raised[0]}")
    answers = [digest(wl, raw) for raw in done.raws]
    bad = oracles.check(wl.name, items, answers)
    if bad:
        raise SystemExit(f"{wl.name}/{partition}: oracle check failed\n"
                         + "\n".join(bad))
    print(f"{wl.name}/{partition}: {len(items)} maps in {sum(done.lat):.1f} s, "
          f"oracles pass", file=sys.stderr)
    return {"inputs_sha256": fingerprint(items), "answers": answers}


def write(path: str, name: str, pools: dict) -> None:
    lines = ["{", f'  "workload": {json.dumps(name)},', '  "pools": {']
    for k, (partition, pool) in enumerate(pools.items()):
        rows = ",\n".join("        " + json.dumps(a, separators=(",", ":"))
                          for a in pool["answers"])
        lines += [f"    {json.dumps(partition)}: {{",
                  f'      "inputs_sha256": "{pool["inputs_sha256"]}",',
                  '      "answers": [', rows, "      ]",
                  "    }" + ("," if k + 1 < len(pools) else "")]
    lines += ["  }", "}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(BENCH_DIR, "expected"), exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        pools = {p: pool_answers(WORKLOADS[name], p) for p in POOL_SEEDS}
        write(expected_path(BENCH_DIR, name), name, pools)
    return 0


if __name__ == "__main__":
    sys.exit(main())
