"""Outside tracing of the program's layers.

The tracer wraps public functions of `cone_kernel`, `splitting`, `weights`,
`verify` and `cli` without editing them: each wrapper is bound under every
name that refers to the original in any `strata_cones` module, so calls
through `from ... import` bindings are caught as well as calls inside the
defining module.  The checks in `verify._CHECKS` and `Report.to_json` are
wrapped in place.  `remove()` puts every original back.

Each call becomes a span (name, start, end, parent span, item id) kept in
flat arrays in memory and written out once, after the run.  A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

PACKAGE = "strata_cones"

TARGETS = {
    "cone_kernel": ("cone_complete", "cone_from_rays", "cone_from_constraints",
                    "cone_member", "cone_image", "cone_equal",
                    "normalize_primitive"),
    "splitting": ("index_tables", "tilde_closure", "sign_epsilon",
                  "admissible_set", "places_and_iw", "frobenius_shift"),
    "weights": ("cone_D", "minimal_cone", "explicit_constraints", "f_weight",
                "generators_G", "generators_Gprime", "gl2_generators",
                "reduction_matrix", "functional_Lf", "section_recipe",
                "f_recipe", "delta_class", "forced_divisors"),
    "verify": ("check_min_question", "stratum_dossier", "stratum_record"),
    "cli": ("main",),
}
CHECK_PREFIX = "_check_"


def package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def rebind(old, new) -> list[tuple[object, str]]:
    """Bind `new` under every package-module name bound to `old`."""
    sites = [(module, attr) for module in package_modules()
             for attr, value in vars(module).items() if value is old]
    for module, attr in sites:
        setattr(module, attr, new)
    return sites


def is_wrapper(value) -> bool:
    return getattr(value, "__bench_wrapper__", False)


def leftover_wrappers() -> list[str]:
    """Names in the package still bound to a wrapper (none after
    `Tracer.remove`)."""
    verify = sys.modules[PACKAGE + ".verify"]
    found = [f"{module.__name__}.{attr}"
             for module in package_modules()
             for attr, value in vars(module).items()
             if is_wrapper(value) or (isinstance(value, tuple)
                                      and any(map(is_wrapper, value)))]
    return found + [f"Report.{attr}"
                    for attr, value in vars(verify.Report).items()
                    if is_wrapper(value)]


def _was_complete(args, kwargs, result) -> bool:
    cone = args[0] if args else kwargs["cone"]
    return cone.gen is not None and cone.con is not None


def _answered_inside(args, kwargs, result) -> bool:
    return result.inside


# per-call observations behind the useful-work ratios
PROBES = {
    "cone_kernel.cone_complete": ("noop", _was_complete),
    "cone_kernel.cone_member": ("inside", _answered_inside),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.item_of: array = array("l")
        self.item = 0
        self.probes: Counter = Counter()
        self.check_names: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name: str):
        slot = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        stack, clock = self._stack, time.perf_counter
        name_of, start, end = self.name_of, self.start, self.end
        parent, item_of, probes = self.parent, self.item_of, self.probes

        def wrapper(*args, **kwargs):
            span = len(start)
            name_of.append(slot)
            parent.append(stack[-1] if stack else -1)
            item_of.append(self.item)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if probe is not None and probe[1](args, kwargs, result):
                probes[name, probe[0]] += 1
            return result

        wrapper.__bench_wrapper__ = True
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {m.__name__.rsplit(".", 1)[-1]: m
                   for m in package_modules()}
        for short, functions in TARGETS.items():
            module = modules[short]
            for function in functions:
                orig = getattr(module, function)
                wrapper = self._wrap(orig, f"{short}.{function}")
                self._undo.append((orig, rebind(orig, wrapper)))
        verify = modules["verify"]
        checks = verify._CHECKS
        names = ["verify." + check.__name__.removeprefix(CHECK_PREFIX)
                 for check in checks]
        self.check_names.update(names)
        verify._CHECKS = tuple(map(self._wrap, checks, names))
        self._undo.append((checks, [(verify, "_CHECKS")]))
        report = verify.Report
        to_json = report.__dict__["to_json"]
        report.to_json = self._wrap(to_json, "verify.Report.to_json")
        self._undo.append((to_json, [(report, "to_json")]))

    def remove(self) -> None:
        while self._undo:
            orig, sites = self._undo.pop()
            for owner, attr in sites:
                setattr(owner, attr, orig)

    def totals(self, factor=None) -> dict[str, dict[str, float]]:
        """Per name: calls, total time of outermost calls, self time.  Each
        span's duration is multiplied by `factor(start, end)` if given."""
        duration = [
            (end - start) * (factor(start, end) if factor else 1.0)
            for start, end in zip(self.start, self.end)]
        covered = [0.0] * len(duration)
        for span, up in enumerate(self.parent):
            if up >= 0:
                covered[up] += duration[span]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for span, slot in enumerate(self.name_of):
            row = out[self.names[slot]]
            row["calls"] += 1
            row["self_s"] += duration[span] - covered[span]
            if not self._inside_same(span, slot):
                row["total_s"] += duration[span]
        return out

    def _inside_same(self, span: int, slot: int) -> bool:
        up = self.parent[span]
        while up >= 0:
            if self.name_of[up] == slot:
                return True
            up = self.parent[up]
        return False

    def write(self, path) -> None:
        """All spans, one tab-separated line each, times in seconds from
        the first span."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w") as handle:
            handle.write("span\tname\tstart\tend\tparent\titem\n")
            for span, slot in enumerate(self.name_of):
                handle.write(
                    f"{span}\t{self.names[slot]}\t"
                    f"{self.start[span] - origin:.9f}\t"
                    f"{self.end[span] - origin:.9f}\t"
                    f"{self.parent[span]}\t{self.item_of[span]}\n")
