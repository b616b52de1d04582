"""Spans around linform's public functions, patched in from outside the package.

Tracer.install() replaces each traced function in every linform module that
holds it (forms.image_repfn is also reached through periodic, recursion,
solver and cli) with a wrapper that records a span: name, start, end,
parent span and job id. Spans stay in memory until the run ends. A span's
self time is its duration minus the time its direct child spans cover.
Tracer.remove() puts every original back.

linform.checked is not traced: it runs once per arithmetic operation, so
its cost shows in its callers' self time instead.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from math import prod

from oracle import outward_index

# (module, function) pairs traced, named "<module>.<function>" in spans.
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("problems", "parse_problem"),
    ("forms", "image_repfn"),
    ("periodic", "check_t_complementing"),
    ("cyclotomy", "check_condition"),
    ("cyclotomy", "product"),
    ("solver", "solve_window"),
    ("solver", "stabilize"),
    ("solver", "candidate_bound"),
    ("recursion", "build_context"),
    ("recursion", "extend"),
    ("recursion", "detect_period"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.images: set = set()  # distinct (job, form, sets) passed to image_repfn
        self.job = 0
        self.scales: dict[int, float] = {}  # job id -> factor to the reference machine (run.py)
        self._open: list[int] = []  # indexes of the spans being timed, innermost last
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.job)
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "linform" or n.startswith("linform.")}
        for module_name, function_name in TRACED:
            original = getattr(modules[f"linform.{module_name}"], function_name)
            wrapper = self._wrap(f"{module_name}.{function_name}", original, getattr(self, f"_count_{function_name}", None))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        # Window is a frozen dataclass; its validation runs in __post_init__.
        window = modules["linform.recursion"].Window
        original = window.__dict__["__post_init__"]
        self._patches.append((window, "__post_init__", original))
        window.__post_init__ = self._wrap("recursion.Window", original)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # Counters recorded at the same boundaries as the spans.

    def _count_image_repfn(self, args, rep):
        form, sets = args
        self.counts["image_calls"] += 1
        self.counts["tuples"] += prod(len(s) for s in sets.sets)
        self.counts["image_values"] += len(rep.counts)
        self.images.add((self.job, form.coeffs, sets.sets))

    def _count_check_t_complementing(self, args, cert):
        if cert.verdict:
            self.counts["residues_checked"] += cert.period_checked
        else:
            self.counts["residues_checked"] += outward_index(cert.first_violation.n) + 1

    def _count_product(self, args, poly):
        self.counts["expanded_terms"] += len(poly.terms)

    def _count_solve_window(self, args, result):
        self.counts["nodes"] += result.nodes_explored

    def _count_stabilize(self, args, result):
        self.counts["radii"] += len(result.attempts)

    def _count_extend(self, args, window):
        self.counts["bits_extended"] += len(window.bits) - len(args[1].bits)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, each job's scaled to the reference machine."""
        covered = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            totals[name] += (end - start - covered[index]) * self.scales.get(job, 1.0)
        return totals

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, job id."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced run, per job completed."""
        self_s = self.self_seconds()
        counts = self.counts

        def ms(name):
            return (1000 * self_s.get(name, 0.0) / jobs, "ms/job")

        def per_job(key, unit):
            return (counts[key] / jobs, unit)

        solve_s = self_s.get("solver.solve_window", 0.0)
        calls = counts["image_calls"]
        return {
            "cli.main.self_ms": ms("cli.main"),
            "cli.build_parser.ms": ms("cli.build_parser"),
            "problems.parse_problem.ms": ms("problems.parse_problem"),
            "forms.image_repfn.calls": per_job("image_calls", "calls/job"),
            "forms.image_repfn.ms": ms("forms.image_repfn"),
            "forms.tuples": per_job("tuples", "tuples/job"),
            "forms.image_values": per_job("image_values", "values/job"),
            "forms.image_repfn.distinct_ratio": (len(self.images) / calls if calls else 0.0, "ratio"),
            "periodic.check_t_complementing.ms": ms("periodic.check_t_complementing"),
            "periodic.residues_checked": per_job("residues_checked", "residues/job"),
            "cyclotomy.check_condition.ms": ms("cyclotomy.check_condition"),
            "cyclotomy.product.ms": ms("cyclotomy.product"),
            "cyclotomy.expanded_terms": per_job("expanded_terms", "terms/job"),
            "solver.solve_window.ms": ms("solver.solve_window"),
            "solver.nodes": per_job("nodes", "nodes/job"),
            "solver.nodes_per_s": (counts["nodes"] / solve_s if solve_s else 0.0, "nodes/s"),
            "solver.stabilize.ms": ms("solver.stabilize"),
            "solver.stabilize.radii": per_job("radii", "radii/job"),
            "solver.candidate_bound.ms": ms("solver.candidate_bound"),
            "recursion.build_context.ms": ms("recursion.build_context"),
            "recursion.extend.ms": ms("recursion.extend"),
            "recursion.bits_extended": per_job("bits_extended", "bits/job"),
            "recursion.detect_period.ms": ms("recursion.detect_period"),
            "recursion.Window.ms": ms("recursion.Window"),
        }
