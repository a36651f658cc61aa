"""Traced in-process replay: per-layer time and work for each kohnspec module.

The harness imports kohnspec from ./src and calls kohnspec.cli.main(argv)
with the same argv the untraced run passes to `python -m kohnspec`.  Spans
are recorded by replacing module attributes from here (the package itself
is not changed): cli -> spectrum.count, coefficients.series_direct,
coefficients.integrate_decaying, continuation.integrate_decaying, and the
rest of SPANNED.  A module function calls its siblings through the module's
globals, so a wrapper also sees calls from inside the package (reconcile ->
series_zeta, ZetaCombination.value -> zeta_even).  combinatorics.dim_hpq is
a leaf called once per line or term; it gets no span and shows through
lines_per_s and terms_per_s.

Every traced run replays the seed's calls of all three workloads, so every
layer is measured in every traced run; the named workload's calls are also
run untraced, alternating which goes first, to give trace.overhead_frac.
Spans stay in memory and are reduced once at the end.  Caches inside the
package (the Bernoulli table) stay warm across in-process calls, unlike the
fresh interpreters of the untraced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import math
import re
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from checks import judge, tally
from workloads import WORKLOADS, Call, generate, stanton_points

IMPORT_REPEATS = 5

# (module, attribute, span name)
SPANNED = (
    ("spectrum", "count", "spectrum.count"),
    ("spectrum", "enumerate_modes", "spectrum.enumerate_modes"),
    ("heat_trace", "trace_split_q", "heat_trace.trace_split_q"),
    ("heat_trace", "trace_split_w", "heat_trace.trace_split_w"),
    ("heat_trace", "trace_direct", "heat_trace.trace_direct"),
    ("coefficients", "reconcile", "coefficients.reconcile"),
    ("coefficients", "series_zeta", "coefficients.series_zeta"),
    ("coefficients", "series_direct", "coefficients.series_direct"),
    ("coefficients", "integral_coefficient", "coefficients.integral_coefficient"),
    ("coefficients", "integral_intermediate", "coefficients.integral_intermediate"),
    ("coefficients", "zeta_even", "special_functions.zeta_even"),
    ("coefficients", "integrate_decaying", "special_functions.integrate_decaying"),
    ("continuation", "integrate_decaying", "special_functions.integrate_decaying"),
    ("continuation", "stanton_coefficient", "continuation.stanton_coefficient"),
    ("continuation", "continued_coefficient", "continuation.continued_coefficient"),
    ("continuation", "pole_term", "continuation.pole_term"),
)
MODULES = ("cli", "spectrum", "heat_trace", "coefficients", "continuation", "special_functions")

# (name, unit) of every per-layer metric, in report order; BENCHMARK.json
# lists the same names with the direction in which each is better.
PER_LAYER = (
    ("import.interpreter_s", "s"),
    ("import.numpy_s", "s"),
    ("import.kohnspec_self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    *((f"{m}.self_s", "s") for m in MODULES[1:]),
    ("spectrum.count.s", "s"),
    ("spectrum.count.lines_per_s", "1/s"),
    ("spectrum.enumerate_modes.s", "s"),
    ("spectrum.enumerate_modes.lines_per_s", "1/s"),
    *(
        metric
        for fn in ("trace_split_q", "trace_split_w", "trace_direct")
        for metric in (
            (f"heat_trace.{fn}.s", "s"),
            (f"heat_trace.{fn}.terms", "count"),
            (f"heat_trace.{fn}.terms_per_s", "1/s"),
        )
    ),
    ("coefficients.series_zeta.s", "s"),
    ("special_functions.zeta_even.s", "s"),
    ("coefficients.series_direct.s", "s"),
    ("coefficients.series_direct.terms", "count"),
    *(
        metric
        for fn in ("integral_coefficient", "integral_intermediate")
        for metric in (
            (f"coefficients.{fn}.s", "s"),
            (f"coefficients.{fn}.nodes", "count"),
            (f"coefficients.{fn}.nodes_per_digit", "count"),
        )
    ),
    ("special_functions.integrate_decaying.s", "s"),
    ("special_functions.integrate_decaying.calls", "count"),
    ("special_functions.integrate_decaying.nodes", "count"),
    ("special_functions.integrate_decaying.truncation_point_max", "1"),
    ("continuation.stanton_coefficient.s", "s"),
    ("continuation.continued_coefficient.s", "s"),
    ("continuation.pole_term.s", "s"),
    ("continuation.points_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the top
    call_id: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _counts(name: str, fn, args, kwargs, result, error) -> dict:
    """Work counts read off the returned structure (or the cap that stopped it).

    A field the structure no longer has counts as 0, so a changed return
    type shows in the report instead of stopping the run.
    """
    if name.startswith("spectrum."):
        n, lam = list(inspect.signature(fn).bind(*args, **kwargs).arguments.values())[:2]
        return {"n": n, "lam": lam}
    if name.startswith("heat_trace."):
        return {"terms": getattr(result, "terms_used", 0) if error is None else kwargs.get("term_cap", 0)}
    if error is not None:
        return {}
    if name == "coefficients.series_direct":
        return {"terms": getattr(result, "work", 0)}
    if name in ("coefficients.integral_coefficient", "coefficients.integral_intermediate"):
        return {"nodes": getattr(result, "work", 0), "digits": _digits(result.value, result.error_bound)}
    if name == "special_functions.integrate_decaying":
        return {"nodes": getattr(result, "nodes_used", 0), "truncation_point": getattr(result, "truncation_point", 0.0)}
    return {}


def _digits(value: float, bound: float) -> float:
    """Accepted significant digits: log10(|value| / error_bound), at least 0."""
    if value == 0 or bound <= 0:
        return 0.0
    return max(0.0, math.log10(abs(value) / bound))


class Tracer:
    """Spans in memory; one stack, since the package runs single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.call_id = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else -1, self.call_id)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                span.counts = _counts(name, fn, args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Replace the SPANNED attributes of the package's modules, restoring them after."""
        saved = []
        try:
            for module_name, attr, name in SPANNED:
                module = getattr(package, module_name)
                if not hasattr(module, attr):
                    continue  # the layer no longer exposes it: no span
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, reach), min(b, span.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span], stanton_points_total: int) -> dict[str, float]:
    """Reduce the spans of the traced calls to the per-layer metrics (bar import and overhead)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, []))

    def count(name: str, key: str) -> float:
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, []))

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    m["cli.main.self_s"] = sum(selfs[i] for i in by_name.get("cli.main", []))
    for module in MODULES[1:]:
        m[f"{module}.self_s"] = sum(s for s, span in zip(selfs, spans) if span.name.startswith(module + "."))
    for fn in ("count", "enumerate_modes"):
        name = f"spectrum.{fn}"
        lines = sum(oracle.line_count(spans[i].counts["n"], spans[i].counts["lam"]) for i in by_name.get(name, []))
        m[f"{name}.s"] = total(name)
        m[f"{name}.lines_per_s"] = rate(lines, total(name))
    for fn in ("trace_split_q", "trace_split_w", "trace_direct"):
        name = f"heat_trace.{fn}"
        m[f"{name}.s"] = total(name)
        m[f"{name}.terms"] = count(name, "terms")
        m[f"{name}.terms_per_s"] = rate(count(name, "terms"), total(name))
    m["coefficients.series_zeta.s"] = total("coefficients.series_zeta")
    m["special_functions.zeta_even.s"] = total("special_functions.zeta_even")
    m["coefficients.series_direct.s"] = total("coefficients.series_direct")
    m["coefficients.series_direct.terms"] = count("coefficients.series_direct", "terms")
    for fn in ("integral_coefficient", "integral_intermediate"):
        name = f"coefficients.{fn}"
        m[f"{name}.s"] = total(name)
        m[f"{name}.nodes"] = count(name, "nodes")
        m[f"{name}.nodes_per_digit"] = rate(count(name, "nodes"), count(name, "digits"))
    quad = "special_functions.integrate_decaying"
    m[f"{quad}.s"] = total(quad)
    m[f"{quad}.calls"] = len(by_name.get(quad, []))
    m[f"{quad}.nodes"] = count(quad, "nodes")
    m[f"{quad}.truncation_point_max"] = max(
        (spans[i].counts.get("truncation_point", 0.0) for i in by_name.get(quad, [])), default=0.0
    )
    continuation_s = 0.0
    for fn in ("stanton_coefficient", "continued_coefficient", "pole_term"):
        m[f"continuation.{fn}.s"] = total(f"continuation.{fn}")
        continuation_s += m[f"continuation.{fn}.s"]
    m["continuation.points_per_s"] = rate(stanton_points_total, continuation_s)
    return m


# ----------------------------------------------------------- import costs


def import_metrics(env, spawn) -> dict[str, float]:
    """Median interpreter start and `-X importtime` split of `import kohnspec`."""
    interp, numpy_s, own_s = [], [], []
    for _ in range(IMPORT_REPEATS):
        interp.append(spawn([sys.executable, "-c", "pass"], env).wall)
        res = spawn([sys.executable, "-X", "importtime", "-c", "import kohnspec"], env)
        cumulative = {}
        for line in res.stderr.decode().splitlines():
            match = re.fullmatch(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)", line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) * 1e-6
        numpy_s.append(cumulative.get("numpy", 0.0))  # 0 once numpy is imported lazily
        own_s.append(cumulative["kohnspec"] - numpy_s[-1])
    return {
        "import.interpreter_s": statistics.median(interp),
        "import.numpy_s": statistics.median(numpy_s),
        "import.kohnspec_self_s": statistics.median(own_s),
    }


# -------------------------------------------------------------------- run


def _invoke(main, argv) -> tuple[int, bytes, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    elapsed = time.perf_counter() - start
    return code, out.getvalue().encode("utf-8"), elapsed


def run(workload: str, seed: int, src, env, spawn, refs) -> tuple[dict, dict, int, int, bool]:
    """Traced replay of every workload's calls for this seed; see the module docstring.

    src is the directory holding the package; spawn(argv, env) runs a child.
    """
    sys.path.insert(0, str(src))
    import kohnspec
    import kohnspec.cli

    if not Path(kohnspec.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"bench: kohnspec imported from {kohnspec.__file__}, not from {src}")

    metrics = import_metrics(env, spawn)
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", kohnspec.cli.main)
    plain_main = kohnspec.cli.main
    outputs: list[tuple[Call, int, bytes]] = []
    digests = {}
    untraced_s = traced_own_s = 0.0
    stdout_bytes = points = 0
    for name in WORKLOADS:
        stdouts = []
        for i, call in enumerate(generate(name, seed)):
            own = name == workload
            if own and i % 2 == 0:
                untraced_s += _invoke(plain_main, call.argv)[2]
            with tracer.installed(kohnspec):
                code, stdout, elapsed = _invoke(traced_main, call.argv)
            tracer.call_id += 1
            if own:
                traced_own_s += elapsed
                if i % 2 == 1:
                    untraced_s += _invoke(plain_main, call.argv)[2]
            outputs.append((call, code, stdout))
            stdouts.append(stdout)
            stdout_bytes += len(stdout)
            if call.cls == "stanton" and code == 0:
                points += len(stanton_points(call.argv))
        digests[name] = hashlib.sha256(b"".join(stdouts)).hexdigest()
    metrics.update(layer_metrics(tracer.spans, points))
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["trace.overhead_frac"] = traced_own_s / untraced_s - 1.0
    verdicts, details = judge(outputs, refs)
    wrong = verdicts.count("wrong")
    report = {
        "traced_calls": len(outputs),
        "spans": len(tracer.spans),
        "stdout_sha256": digests,
        "outcomes": tally(verdicts, details),
    }
    ordered = {name: metrics[name] for name, _ in PER_LAYER}
    return ordered, report, len(outputs), wrong, wrong == 0
