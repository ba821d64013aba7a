"""Spans around otlab's public functions, installed from outside the package.

otlab modules bind their collaborators with ``from .x import f``, so one
function is reachable under several module attributes (``cli.solve_primal``,
``dual.solve_primal``, ``certify.solve_primal``, ...). ``Tracer.installed``
replaces every attribute of every loaded otlab module that is the original
function, and puts the originals back on exit.

A span records its name, start, end, the enclosing span and the operation it
belongs to. Self time is a span's duration minus the durations of its direct
children; the operation's root span is named ``cli`` so its self time is CLI
dispatch plus everything no wrapped function covers. Counts marked
"computed" are derived from call arguments, not timed, and repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb, factorial
from typing import Optional

LAYERS = ("serialize", "core", "primal", "dual", "ctransform", "certify", "envelope", "cli")


def _count_cells(counts, args):
    m, n = args["instance"].shape
    counts["primal.cells"] += m * n


def _count_cyclic(counts, args):
    s = len(args["plan"].support())
    counts["certify.support_cells"] += s
    counts["certify.cyclic.checks"] += sum(
        comb(s, k) * factorial(k - 1) for k in range(2, args["k_max"] + 1)
    )


def _count_envelope(counts, args):
    m, p = args["cost"].shape
    counts["envelope.cell_evals"] += m * m * p * p


# span name -> (module, public functions, computed-count hook)
TARGETS = {
    "serialize.load": ("serialize", ("load_instance",), None),
    "serialize.dump": (
        "serialize",
        ("result_to_dict", "certificate_to_dict", "schedule_to_dict", "dump_json"),
        None,
    ),
    "core.validate": ("core", ("validate_instance",), None),
    "core.value": ("core", ("plan_cost", "dual_value"), None),
    "primal.solve": ("primal", ("solve_primal",), _count_cells),
    "dual.solve": ("dual", ("solve_dual",), None),
    "dual.extract": ("dual", ("extract_dual_from_basis",), None),
    "dual.improve": ("dual", ("improve_dual",), None),
    "ctransform.normalize": ("ctransform", ("normalize_pair",), None),
    "ctransform.transform": ("ctransform", ("c_transform", "cbar_transform"), None),
    "certify.instance": ("certify", ("certify_instance",), None),
    "certify.build": ("certify", ("build_certificate",), None),
    "certify.gap": ("certify", ("duality_gap",), None),
    "certify.marginals": ("certify", ("check_marginals",), None),
    "certify.slackness": ("certify", ("check_slackness",), None),
    "certify.cyclic": ("certify", ("check_cyclic_monotonicity",), _count_cyclic),
    "envelope.schedule": ("envelope", ("envelope_schedule",), None),
    "envelope.lipschitz": ("envelope", ("lipschitz_envelope",), _count_envelope),
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1].id if self._stack else None,
            op=self._op,
            name=name,
            start=0.0,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """Root span of one CLI command; the spans it encloses share its op id."""
        self._op += 1
        with self.span("cli") as root:
            yield root

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TARGETS function under all of its otlab attributes."""
        modules = [m for k, m in list(sys.modules.items()) if k == "otlab" or k.startswith("otlab.")]
        patched = []
        try:
            for name, (module, functions, count) in TARGETS.items():
                home = sys.modules.get(f"otlab.{module}")
                for fname in functions:
                    original = getattr(home, fname, None)
                    if original is None:
                        continue
                    wrapper = self._wrap(name, original, count)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, errors and self seconds; per layer: self
        seconds and errors; plus the computed counts."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        by_name = defaultdict(lambda: {"calls": 0, "errors": 0, "self_s": 0.0})
        by_layer = {layer: {"self_s": 0.0, "errors": 0} for layer in LAYERS}
        for span in self.spans:
            self_s = span.duration - child_time[span.id]
            entry = by_name[span.name]
            entry["calls"] += 1
            entry["errors"] += span.error
            entry["self_s"] += self_s
            layer = by_layer[span.name.split(".")[0]]
            layer["self_s"] += self_s
            layer["errors"] += span.error
        return {"spans": dict(by_name), "layers": by_layer, "counts": dict(self.counts)}
