"""Binding-site tracer: times calls into the package's public functions.

A function defined in one module is often bound under the same object in
others (`is_morphism` lives in `resultant` and is imported by `stability`,
`decompose` and `verify`; `evaluate` is imported by `resultant`).  The
tracer replaces every such binding in every loaded `projstab` module with
one wrapper, so calls through any of them are seen, and puts the original
objects back on exit.  Calls inside one module go through that module's
globals, so they are seen too.

Per function it keeps the number of calls, busy time (wall time while at
least one call is active, so recursion is not counted twice) and self time
(time not covered by a nested traced call).  Per-point helpers such as
`ffield.eval_terms_mod_p` and `ffield.projective_points` are deliberately
not in the list: their per-call cost would swamp the measurement.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED = (
    "cli.main",
    "documents.load_map_file", "documents.dumps_canonical",
    "poly.evaluate", "poly.apply_linear_change",
    "linalg.det_int_bareiss", "linalg.det_mod_p", "linalg.rank_mod_p",
    "linalg.rref", "linalg.nullspace", "linalg.rank_rational",
    "ffield.common_zeros_mod_p",
    "resultant.is_morphism", "resultant.macaulay_resultant",
    "resultant.has_no_common_zero", "resultant.ff_zero_probe",
    "stability.classify", "stability.stabilizer_space",
    "stability.detect_blocks", "stability.limit_map",
    "decompose.decompose_fully", "decompose.split_once",
    "decompose.splitting_types_all_blocks", "decompose.verify_preimage",
    "verify.check_morphism_laws",
)

COUNTERS = (
    "resultant.macaulay_resultant.retries",
    "resultant.macaulay_resultant.first_frame_share",
    "resultant.is_morphism.true_share",
    "linalg.det_int_bareiss.dim3_sum",
    "ffield.points_scanned",
)

PACKAGE = "projstab"


def _projective_points(n: int, p: int) -> int:
    return (p ** (n + 1) - 1) // (p - 1)


class Tracer:
    """Wraps every binding of the TRACED functions while it is entered.

    Create it after the package is imported; it may be entered many times,
    and its counts add up over all entries.
    """

    def __init__(self):
        self.calls = {name: 0 for name in TRACED}
        self.busy = {name: 0.0 for name in TRACED}
        self.own = {name: 0.0 for name in TRACED}
        self._depth = {name: 0 for name in TRACED}
        self._stack: list[float] = []  # child time of each active call
        self.retries = 0
        self.first_frame = 0
        self.morphisms = 0
        self.dim3 = 0
        self.points = 0
        # (module, attribute, original, wrapper) for every binding site.
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name in TRACED:
            mod_name, func_name = name.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            func = getattr(home, func_name, None)
            if func is None:  # removed by a later change: reported as 0
                continue
            wrapper = self._wrap(name, func)
            self._bindings += [(mod, attr, func, wrapper) for mod in modules
                               for attr, value in vars(mod).items()
                               if value is func]

    # Counters read from inputs (before the call) and results (after it).

    def _before(self, name, sig, args, kwargs):
        if name == "linalg.det_int_bareiss":
            self.dim3 += len(args[0]) ** 3
        elif name in ("resultant.ff_zero_probe", "decompose.verify_preimage"):
            bound = sig.bind(*args, **kwargs).arguments
            self.points += _projective_points(bound["f"].n, bound["prime"])

    def _after(self, name, result):
        if name == "resultant.macaulay_resultant":
            retries = getattr(result, "retries", 0)
            self.retries += retries
            self.first_frame += retries == 0
        elif name == "resultant.is_morphism":
            self.morphisms += bool(result)

    def _wrap(self, name, func):
        sig = inspect.signature(func)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._before(name, sig, args, kwargs)
            stack.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                self.calls[name] += 1
                self.own[name] += elapsed - stack.pop()
                if depth[name] == 0:
                    self.busy[name] += elapsed
                if stack:
                    stack[-1] += elapsed
            self._after(name, result)
            return result

        return traced

    def __enter__(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, func, _ in self._bindings:
            setattr(mod, attr, func)
        return False

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_ms"] = (self.busy[name] * 1000.0, "ms")
            out[f"{name}.self_ms"] = (self.own[name] * 1000.0, "ms")
        mac = self.calls["resultant.macaulay_resultant"]
        ism = self.calls["resultant.is_morphism"]
        out["resultant.macaulay_resultant.retries"] = (self.retries, "count")
        out["resultant.macaulay_resultant.first_frame_share"] = (
            self.first_frame / mac if mac else 0.0, "share")
        out["resultant.is_morphism.true_share"] = (
            self.morphisms / ism if ism else 0.0, "share")
        out["linalg.det_int_bareiss.dim3_sum"] = (self.dim3, "count")
        out["ffield.points_scanned"] = (self.points, "count")
        return out
