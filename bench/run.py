"""End-to-end benchmark of the kohnspec CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  With --trace 0 the harness is a closed loop
with one client: it launches `python -m kohnspec ...` for each call of the
workload's pass, one fresh interpreter after another, and repeats the pass
while another one fits in --seconds (at least one pass).  Set-up time is
the median of cold `import kohnspec` runs taken before and between calls.  Every output is
checked against independent references (checks.py, oracle.py).  With
--trace 1 it replays the calls in process through kohnspec.cli.main and
reports per-layer numbers instead (tracing.py).

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  The line before it is the full run report (every metric with
its unit, the stdout digest, the outcome of each known defect and the run
metadata).  Exit code 2 means the checkout has no source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from checks import failed_frac, judge, tally  # noqa: E402
from oracle import References  # noqa: E402
from workloads import CLASSES, KNOWN_DEFECTS, WORKLOADS, generate  # noqa: E402

# Set-up samples: a few before the loop, then one every len(pass)/SETUP_PER_PASS
# calls, so that their median sees the same machine conditions as the calls.
SETUP_UPFRONT = 3
SETUP_PER_PASS = 4

# Units of the end-to-end metrics; the per-class sums (count_s, ...) are in s.
# GATED are the ones in BENCHMARK.json.  The class sums and failed_frac are 0
# on workloads without such calls; call_p50_s jumps between call types whose
# durations differ tenfold (10-18% spread over ten seeds), so it is reported
# but not gated.
UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "call_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
}
GATED = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


@dataclass
class Result:
    """One finished child: resources from wait4, its exit code and stdout."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    """The user's environment without kohnspec caps, importing from ./src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("KOHNSPEC_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def _drain(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF without reaping the child."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(argv: list[str], env: dict[str, str]) -> Result:
    """Run one child to completion; cpu and peak RSS are that child's own (wait4)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        stdout=out,
        stderr=err,
    )


def probe(env: dict[str, str]) -> dict:
    """Check that ./src holds the package and read the versions the children use."""
    code = (
        "import json, sys, numpy, kohnspec; "
        "print(json.dumps({'file': kohnspec.__file__, 'numpy': numpy.__version__, "
        "'python': sys.version.split()[0]}))"
    )
    res = spawn([sys.executable, "-c", code], env)
    if res.code != 0:
        raise SystemExit(f"bench: cannot import kohnspec from {SRC}: {res.stderr.decode()[-400:]}")
    info = json.loads(res.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: kohnspec imported from {info['file']}, not from {SRC}")
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cold_import(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter running `import kohnspec`."""
    return spawn([sys.executable, "-c", "import kohnspec"], env).wall


# ----------------------------------------------------------------- metrics


def pass_metrics(calls, results: list[Result]) -> dict[str, float]:
    """Per-pass sums: wall, cpu, and wall per subcommand class."""
    sums = {"wall_s": sum(r.wall for r in results), "cpu_s": sum(r.cpu for r in results)}
    for cls in CLASSES:
        sums[f"{cls}_s"] = sum(r.wall for c, r in zip(calls, results) if c.cls == cls)
    return sums


def summarize(calls, passes: list[list[Result]], verdicts: list[str], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of a run: medians over passes of the per-pass sums."""
    per_pass = [pass_metrics(calls, results) for results in passes]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["call_p50_s"] = statistics.median(r.wall for results in passes for r in results)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = max(r.rss_mb for results in passes for r in results)
    metrics["failed_frac"] = failed_frac(verdicts)
    return metrics


# --------------------------------------------------------------------- runs


def run_untraced(workload: str, seed: int, seconds: float, env, refs) -> tuple[dict, dict, int, int, bool]:
    calls = generate(workload, seed)
    base = [sys.executable, "-m", "kohnspec"]
    setup = [cold_import(env) for _ in range(SETUP_UPFRONT)]
    stride = max(1, len(calls) // SETUP_PER_PASS)
    passes: list[list[Result]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = []
        for i, call in enumerate(calls):
            if i % stride == 0:
                setup.append(cold_import(env))
            results.append(spawn(base + list(call.argv), env))
        passes.append(results)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    outputs = [(call, r.code, r.stdout) for results in passes for call, r in zip(calls, results)]
    verdicts, details = judge(outputs, refs)
    metrics = summarize(calls, passes, verdicts, statistics.median(setup))
    digests = {hashlib.sha256(b"".join(r.stdout for r in results)).hexdigest() for results in passes}
    report = {
        "passes": len(passes),
        "calls_per_pass": len(calls),
        "call_p50_s_samples": len(calls) * len(passes),
        "setup_s_samples": len(setup),
        "stdout_sha256": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "outcomes": tally(verdicts, details),
        "calls": [
            {
                "argv": " ".join(call.argv),
                "wall_s": [results[i].wall for results in passes],
                "cpu_s": [results[i].cpu for results in passes],
            }
            for i, call in enumerate(calls)
        ],
    }
    wrong = verdicts.count("wrong") + (len(digests) != 1)
    return metrics, report, len(verdicts), wrong, wrong == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (SRC / "kohnspec" / "__init__.py").is_file():
        print(f"bench: no kohnspec source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = child_env()
    for key in [k for k in os.environ if k.startswith("KOHNSPEC_")]:
        del os.environ[key]
    info = probe(env)
    refs = References()
    if args.trace:
        import tracing

        metrics, report, attempted, wrong, correct = tracing.run(args.workload, args.seed, SRC, env, spawn, refs)
        units = dict(tracing.PER_LAYER)
        reported = list(units)
    else:
        metrics, report, attempted, wrong, correct = run_untraced(
            args.workload, args.seed, args.seconds, env, refs
        )
        units = {key: UNITS.get(key, "s") for key in metrics}
        reported = list(GATED)
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=info["python"],
        numpy=info["numpy"],
        nproc=os.cpu_count(),
        cpu_model=cpu_model(),
        references_computed_on_the_spot=refs.computed,
        known_defects=KNOWN_DEFECTS,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    for name, value in metrics.items():
        print(f"{args.workload:>18}  {name:<58} {value:>18.9g} {units[name]}")
    print(json.dumps({"report": report}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
