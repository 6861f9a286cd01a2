"""Span tracing for the benchmark's traced run, installed from outside the package.

Each traced function of ``scaleopt`` is replaced, in every namespace that
holds a reference to it, by a wrapper that records a span (name, start,
end, parent span, operation id).  Spans stay in memory until the run ends.
``Tracer.uninstall`` puts the original objects back and ``assert_untraced``
proves that no wrapper is left anywhere in the package.

Extended-numeral construction and arithmetic run about a million times per
numeral operation, so they get counters instead of spans.
"""

from __future__ import annotations

import collections
import sys
import time

from scaleopt import acquisition, direct1d, gp, grossone, harness, optimizer

_MARK = "_bench_traced"

# (span name, home module, attribute).  Every namespace of the package
# that refers to the same object gets the wrapper, so a name imported with
# ``from .gp import build_posterior`` is traced too.
FUNCTION_SPANS = (
    ("gp.build_posterior", gp, "build_posterior"),
    ("gp.estimate_mle", gp, "estimate_mle"),
    ("gp.correlation_matrix", gp, "correlation_matrix"),
    ("gp.cho_factor", gp, "cho_factor"),
    ("gp.cho_solve", gp, "cho_solve"),
    ("acquisition.criterion_grid", acquisition, "criterion_grid"),
    ("optimizer.run", optimizer, "run"),
    ("optimizer.argmax_criterion", optimizer, "argmax_criterion"),
    ("grossone.scaled_criterion_run", grossone, "scaled_criterion_run"),
    ("direct1d.run_direct", direct1d, "run_direct"),
    ("direct1d.potentially_optimal", direct1d, "potentially_optimal"),
    ("direct1d.trisect", direct1d, "trisect"),
    ("harness.homogeneity_check", harness, "homogeneity_check"),
    ("harness.compare_traces", harness, "compare_traces"),
    ("harness.build_direct_counterexample", harness, "build_direct_counterexample"),
    ("harness.direct_homogeneity_check", harness, "direct_homogeneity_check"),
)

# (span name, class, attribute); ``points`` is a property.
METHOD_SPANS = (
    ("gp.history_append", gp.EvaluationHistory, "with_observation"),
    ("gp.moments_grid", gp.SurrogatePosterior, "moments_grid"),
    ("optimizer.grid_points", optimizer.CandidateGrid, "points"),
)

# ExtendedNumeral methods counted as one arithmetic operation each
# (+ - * / compare).  Operations they call internally are not counted again.
NUMERAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "div_monomial", "compare")

def _package_namespaces():
    """The package module and each of its imported submodules."""
    return [module for name, module in sorted(sys.modules.items())
            if name == "scaleopt" or name.startswith("scaleopt.")]


def _on_posterior(tracer, args, result):
    tracer.counts["posteriors"] += 1
    tracer.counts["posteriors_jittered"] += result.jitter > 0


def _on_moments_grid(tracer, args, result):
    posterior, points = args[0], args[1]
    tracer.counts["moment_pairs"] += posterior.history.n * len(points)


def _on_criterion_grid(tracer, args, result):
    degenerate = result[1]
    tracer.counts["candidates"] += degenerate.size
    tracer.counts["candidates_degenerate"] += int(degenerate.sum())


def _count_grid_trace(tracer, trace, layer):
    steps = [r for r in trace.records if r.iteration > 0]
    tracer.counts[f"{layer}.steps"] += len(steps)
    tracer.counts[f"{layer}.fallback_steps"] += sum(r.degenerate_step for r in steps)
    tracer.op_counts[tracer.op_id]["grid_steps"] += len(steps)


def _on_run(tracer, args, result):
    _count_grid_trace(tracer, result, "optimizer")


def _on_scaled_run(tracer, args, result):
    _count_grid_trace(tracer, result[0], "grossone")


def _on_run_direct(tracer, args, result):
    partition, trace = result
    tracer.counts["direct_iterations"] += len(trace.iterations)
    tracer.counts["intervals_max"] = max(tracer.counts["intervals_max"],
                                         len(partition.intervals))


def _on_potentially_optimal(tracer, args, result):
    tracer.counts["po_accepted"] += bool(result.decision)


def _on_compare(tracer, args, result):
    tracer.counts["near_tie_steps"] += sum(s.near_tie for s in result.steps)


_ON_RESULT = {
    "gp.build_posterior": _on_posterior,
    "gp.moments_grid": _on_moments_grid,
    "acquisition.criterion_grid": _on_criterion_grid,
    "optimizer.run": _on_run,
    "grossone.scaled_criterion_run": _on_scaled_run,
    "direct1d.run_direct": _on_run_direct,
    "direct1d.potentially_optimal": _on_potentially_optimal,
    "harness.compare_traces": _on_compare,
}


class Tracer:
    """In-memory span recorder with install/uninstall of package wrappers."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.failed = collections.Counter()
        self.counts = collections.Counter()
        # per operation id: counts taken from returned results
        self.op_counts = collections.defaultdict(collections.Counter)
        self.op_id = -1
        self._stack = []
        self._numeral_depth = 0
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, ok: bool = True) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        if not ok:
            self.failed[self.names[idx]] += 1

    def _span(self, name, fn):
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(idx, ok)
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(traced, _MARK, True)
        traced.__wrapped__ = fn
        return traced

    def _count_init(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["numerals_created"] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    def _count_op(self, fn):
        def counted(*args, **kwargs):
            if self._numeral_depth:
                return fn(*args, **kwargs)
            self.counts["numeral_ops"] += 1
            self._numeral_depth = 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._numeral_depth = 0

        setattr(counted, _MARK, True)
        return counted

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, attribute, replacement):
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        namespaces = _package_namespaces()
        for name, home, attribute in FUNCTION_SPANS:
            original = getattr(home, attribute)
            wrapper = self._span(name, original)
            # Found by identity, so aliases and ``from x import y`` copies count.
            for module in namespaces:
                for alias in [a for a, value in vars(module).items() if value is original]:
                    self._patch(module, alias, wrapper)
        for name, cls, attribute in METHOD_SPANS:
            member = cls.__dict__[attribute]
            if isinstance(member, property):
                self._patch(cls, attribute, property(self._span(name, member.fget)))
            else:
                self._patch(cls, attribute, self._span(name, member))
        numeral = grossone.ExtendedNumeral
        self._patch(numeral, "__init__", self._count_init(numeral.__dict__["__init__"]))
        for attribute in NUMERAL_OPS:
            self._patch(numeral, attribute, self._count_op(numeral.__dict__[attribute]))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        restored = all(
            (owner.__dict__[attribute] if isinstance(owner, type)
             else getattr(owner, attribute)) is original
            for owner, attribute, original in self._patches)
        self._patches.clear()
        if not restored:
            raise RuntimeError("a traced name was not restored to its original object")
        assert_untraced()

    # -- results -------------------------------------------------------

    def op_span_counts(self):
        """Number of spans per (operation id, span name)."""
        return collections.Counter(zip(self.ops, self.names))

    def layer_metrics(self, declared: dict, overhead_frac: float) -> dict:
        """The per-layer metrics ``declared`` ({name: unit}), from the recorded spans.

        A name that is not computed below must be ``<span>.<calls|busy_s|self_s>``
        for a traced span; any other name raises ``KeyError``.
        """
        calls = collections.Counter()
        busy = collections.Counter()
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            duration = self.ends[i] - self.starts[i]
            calls[self.names[i]] += 1
            busy[self.names[i]] += duration
            if parent >= 0:
                child[parent] += duration
        self_time = collections.Counter()
        for i, name in enumerate(self.names):
            self_time[name] += self.ends[i] - self.starts[i] - child[i]

        c = self.counts
        factorizations = calls["gp.cho_factor"] - self.failed["gp.cho_factor"]
        out = {
            "objectives.evals": calls["objectives.eval"],
            "objectives.busy_s": busy["objectives.eval"],
            # every grid step, float or numeral, builds exactly one posterior
            "gp.factorizations_per_step": _ratio(factorizations, calls["gp.build_posterior"]),
            "gp.jitter_share": _ratio(c["posteriors_jittered"], c["posteriors"]),
            "gp.moments_grid.pairs": c["moment_pairs"],
            "gp.cho_factor.failed": self.failed["gp.cho_factor"],
            "acquisition.degenerate_share": _ratio(c["candidates_degenerate"], c["candidates"]),
            "optimizer.steps": c["optimizer.steps"],
            "optimizer.fallback_steps": c["optimizer.fallback_steps"] + c["grossone.fallback_steps"],
            "grossone.steps": c["grossone.steps"],
            "grossone.numerals_created": c["numerals_created"],
            "grossone.numeral_ops": c["numeral_ops"],
            "direct1d.iterations": c["direct_iterations"],
            "direct1d.accept_share": _ratio(c["po_accepted"], calls["direct1d.potentially_optimal"]),
            "direct1d.intervals_max": c["intervals_max"],
            "harness.near_tie_steps": c["near_tie_steps"],
            "trace.overhead_frac": overhead_frac,
        }
        spans = {"objectives.eval"} | {name for name, *_ in FUNCTION_SPANS + METHOD_SPANS}
        for metric in declared:
            if metric in out:
                continue
            span, _, kind = metric.rpartition(".")
            if span not in spans:
                raise KeyError(f"per-layer metric {metric!r} names no traced span")
            out[metric] = {"calls": calls, "busy_s": busy, "self_s": self_time}[kind][span]
        return {metric: {"value": out[metric], "unit": unit} for metric, unit in declared.items()}

    def write_spans(self, path) -> None:
        """Write spans as CSV: name, start, end, parent span, operation id."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]:.9f},{self.ends[i]:.9f},"
                         f"{self.parents[i]},{self.ops[i]}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def assert_untraced() -> None:
    """Raise unless every package function and method is the unwrapped original."""
    for module in _package_namespaces():
        for attribute, value in vars(module).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"{module.__name__}.{attribute} is still traced")
            if isinstance(value, type) and value.__module__.startswith("scaleopt"):
                for member_name, member in vars(value).items():
                    target = member.fget if isinstance(member, property) else member
                    if getattr(target, _MARK, False):
                        raise RuntimeError(
                            f"{value.__qualname__}.{member_name} is still traced")
