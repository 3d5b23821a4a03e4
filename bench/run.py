"""Benchmark of projstab on three seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-box --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload decompose-tri --seed 1 --trace 1
    python3 bench/run.py --workload analyze-corpus --seed 7 --held-out

Each workload is a closed loop in one process and one thread: the next map
starts when the previous one has finished, and each map is one operation.
The package is imported from `src/` of the checkout; there is nothing to
build.  Set-up (import, input generation, writing the corpus documents,
warming the cached monomial and Macaulay structures with one map per
(n, m) class) runs five times with a fresh import each time, and its
median is `setup_s`.  The timed phase then runs whole passes over the
workload's pool, in the order the seed gives, and starts another pass only
if it is expected to end within `--seconds`; at least 100 maps are run.
Times are scaled to a nominal machine speed (see speed.py); raw times are
printed beside them.

Every answer is reduced to a digest and compared with
`bench/expected/<workload>.json`; a mismatch or an exception counts as a
failed map.  The expected answers are then checked against the
independent oracles in `oracles.py`, outside the timed phase.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs each map of
the first half of the seeded pass twice, untraced and under the
binding-site tracer, back to back, and prints the per-layer metrics with
the tracing overhead; its counts repeat exactly for a given seed.  The
traced run is also the benchmark's self-test: it fails unless the traced
digests equal the untraced ones and, on decompose-tri, unless
`is_morphism` is seen more often than there are maps (nested calls are
traced).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from random import Random
from types import SimpleNamespace

import oracles
from speed import SpeedLog
from tracer import Tracer
from workloads import WORKLOADS, fingerprint, load_expected

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build")

SETUP_REPEATS = 5
MIN_MAPS = 100  # so that p90 has at least ten samples beyond it
MODULES = ("cli", "decompose", "resultant", "stability", "verify")

clock = time.perf_counter


def import_package() -> SimpleNamespace:
    """A fresh import of projstab from src/, with cold caches."""
    for key in [k for k in sys.modules
                if k == "projstab" or k.startswith("projstab.")]:
        del sys.modules[key]
    pkg = SimpleNamespace(projstab=importlib.import_module("projstab"))
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"projstab.{name}"))
    if not os.path.abspath(pkg.projstab.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"projstab imported from {pkg.projstab.__file__}, "
                           f"not from {SRC}")
    return pkg


def power_map(pkg, n: int, m: int):
    return pkg.projstab.make_map(
        n, m, [[(tuple(m if i == j else 0 for i in range(n + 1)), 1)]
               for j in range(n + 1)])


def setup(wl, partition: str, workdir: str):
    """Import, generate the pool, write its inputs, warm the caches."""
    pkg = import_package()
    items = wl.pool(partition)
    inputs = wl.prepare(pkg, items, workdir)
    for n, m in wl.size_classes():
        pkg.resultant.is_morphism(power_map(pkg, n, m))
    return pkg, items, inputs


def run_op(wl, pkg, inp):
    """Raw output of one map, or the exception it raised."""
    try:
        return wl.op(pkg, inp)
    except Exception as exc:  # a failed map is counted, not fatal
        exc.trace = traceback.format_exc()
        return exc


def digest(wl, raw):
    """JSON-normalised answer digest, or None when the map raised."""
    if isinstance(raw, Exception):
        return None
    return json.loads(json.dumps(wl.digest(raw)))


@dataclass
class Pass:
    """Outputs of a run of maps, with raw and nominal-speed latencies."""

    raws: list
    lat: list[float]
    scaled: list[float]

    def __iadd__(self, other: "Pass") -> "Pass":
        self.raws += other.raws
        self.lat += other.lat
        self.scaled += other.scaled
        return self


def timed_op(wl, pkg, inp):
    start = clock()
    raw = run_op(wl, pkg, inp)
    return raw, start, clock() - start


def run_pass(wl, pkg, inputs, order) -> Pass:
    """Run the maps in order, probing the machine's speed between them."""
    log = SpeedLog()
    raws, lat, mids = [], [], []
    for i in order:
        log.probe_if_due()
        raw, start, seconds = timed_op(wl, pkg, inputs[i])
        raws.append(raw)
        lat.append(seconds)
        mids.append(start + seconds / 2)
    log.probe()
    return Pass(raws, lat, [t * log.scale(mid) for t, mid in zip(lat, mids)])


def run_paired(wl, pkg, inputs, order, tracer):
    """Each map untraced and traced back to back, the first of the two
    alternating, so that drifts of machine speed cancel in the overhead."""
    plain, traced = [], []
    for k, i in enumerate(order):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced.append(timed_op(wl, pkg, inputs[i]))
            else:
                plain.append(timed_op(wl, pkg, inputs[i]))
    return plain, traced


def check_answers(wl, order, raws, expected, problems):
    """Digest of every map of a pass, and whether each one is right."""
    got, right = [], []
    for i, raw in zip(order, raws):
        try:
            d = digest(wl, raw)
            detail = raw.trace if d is None else f"got {d}, expected {expected[i]}"
        except Exception:  # an unreadable answer is a failed map
            d, detail = None, traceback.format_exc()
        got.append(d)
        right.append(d is not None and d == expected[i])
        if not right[-1] and len(problems) < 5:
            problems.append(f"map {i}: {detail}")
    return got, right


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, partition: str, load_before) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "partition": partition,
    }


def timed_run(wl, pkg, inputs, items, seed: int, seconds: float):
    """Whole passes until another one would end after `seconds`."""
    rng = Random(seed)
    order, done = [], Pass([], [], [])
    start = clock()
    while True:
        pass_order = wl.order(items, rng)
        done += run_pass(wl, pkg, inputs, pass_order)
        order += pass_order
        elapsed = clock() - start
        passes = len(order) // len(items)
        if len(order) >= MIN_MAPS and elapsed * (passes + 1) / passes > seconds:
            return order, done


def timed_setups(wl, partition: str, workdir: str):
    """SETUP_REPEATS set-ups: the last one's state, and every set-up time,
    scaled to nominal speed and raw."""
    log, spans = SpeedLog(), []
    for k in range(SETUP_REPEATS):
        sub = os.path.join(workdir, str(k))
        os.mkdir(sub)
        log.probe()
        start = clock()
        state = setup(wl, partition, sub)
        spans.append((start, clock() - start))
        log.probe()
    scaled = [t * log.scale(at + t / 2) for at, t in spans]
    return state, (scaled, [t for _, t in spans])


def end_to_end(wl, pkg, items, inputs, answers, args, setups, problems):
    """The timed phase, untraced: end-to-end metrics and failure count."""
    order, done = timed_run(wl, pkg, inputs, items, args.seed, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _, right = check_answers(wl, order, done.raws, answers, problems)
    scaled_setups, raw_setups = setups
    deciles = statistics.quantiles(done.scaled, n=10)
    raw = statistics.quantiles(done.lat, n=10)
    metrics = {
        "maps_per_s": (len(order) / sum(done.scaled), "1/s"),
        "map_ms_p50": (deciles[4] * 1000.0, "ms"),
        "map_ms_p90": (deciles[8] * 1000.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(scaled_setups), "s"),
    }
    notes = [
        f"samples {len(order)} maps",
        f"raw maps_per_s {len(order) / sum(done.lat)} 1/s",
        f"raw map_ms_p50 {raw[4] * 1000.0} ms",
        f"raw map_ms_p90 {raw[8] * 1000.0} ms",
        f"raw setup_s {statistics.median(raw_setups)} s",
    ]
    return metrics, notes, len(order), right.count(False)


def per_layer(wl, pkg, items, inputs, answers, args, problems):
    """Half a pass, each map untraced and traced: per-layer metrics.

    This is also the benchmark's self-test: the traced answers must equal
    the untraced ones, and on decompose-tri the nested is_morphism calls
    must be seen.
    """
    # The first half of the seeded pass keeps the class mix, and running
    # it twice keeps a traced run as long as an untraced one.
    order = wl.order(items, Random(args.seed))[:(len(items) + 1) // 2]
    tracer = Tracer()
    plain, traced = run_paired(wl, pkg, inputs, order, tracer)
    plain_digests, plain_right = check_answers(
        wl, order, [raw for raw, _, _ in plain], answers, problems)
    traced_digests, traced_right = check_answers(
        wl, order, [raw for raw, _, _ in traced], answers, problems)
    if plain_digests != traced_digests:
        problems.append("traced digests differ from untraced ones")
    calls = tracer.calls["resultant.is_morphism"]
    if wl.name == "decompose-tri" and calls <= len(order):
        problems.append(f"is_morphism traced {calls} times on {len(order)} "
                        f"maps: nested calls missed")
    plain_s = sum(t for _, _, t in plain)
    traced_s = sum(t for _, _, t in traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1.0) * 100.0, "%")
    notes = [f"samples {len(order)} maps",
             f"raw untraced {plain_s} s, traced {traced_s} s"]
    failed = sum(not (a and b) for a, b in zip(plain_right, traced_right))
    return metrics, notes, len(order), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out pool, for checking a claim "
                             "on inputs it was not tuned on")
    args = parser.parse_args(argv)
    load_before = os.getloadavg()

    if not os.path.isfile(os.path.join(SRC, "projstab", "__init__.py")):
        print(f"error: no projstab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    partition = "held_out" if args.held_out else "main"
    expected = load_expected(BENCH_DIR, wl.name)["pools"][partition]
    answers = expected["answers"]
    problems: list[str] = []

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR)
    try:
        (pkg, items, inputs), setups = timed_setups(wl, partition, workdir)
        if fingerprint(items) != expected["inputs_sha256"]:
            problems.append("generated inputs differ from the expected file")
        if args.trace:
            metrics, notes, attempted, failed = per_layer(
                wl, pkg, items, inputs, answers, args, problems)
        else:
            metrics, notes, attempted, failed = end_to_end(
                wl, pkg, items, inputs, answers, args, setups, problems)
        problems += oracles.check(wl.name, items, answers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(args, partition, load_before)))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_share {failed / attempted} share")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
