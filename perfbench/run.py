#!/usr/bin/env python3
"""Benchmark of chebident: time to certify, end to end and per layer.

    python3 perfbench/run.py --workload grid16x6 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Workloads (all in symbolic mode):

  grid16x6    run_suite(all identities, n_max=16, N_max=6) rendered as JSON:
              the standard acceptance grid, 748 cells, mostly right-hand-side
              assembly in `verify` (sums of shifted, scaled polynomials).
  families48  family_polys(kind, alpha, 48) for five kinds and alpha = 1..4,
              each checked against the series oracle gf_expand: products in
              `families` and `series`.  The seed interleaves the kinds;
              within a kind the highest order comes first and pays for the
              lower-order convolutions it caches.
  defrel      verify_defining_relation(N, 80) for N = 1..8: dense series
              products in `series`.
  tiny        run_suite(all, 4, 2); for the self-test only.

Each sample is a fresh interpreter (see sample.py), so every process-wide
cache starts cold, as on every CLI invocation.  Samples run one after the
other (closed loop, one client, single thread) until `--seconds` is used
up; every metric is the median over the samples, and every sample's
outputs are checked against known answers recorded in known_answers.json.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported.
With `--trace 1` untraced and traced samples alternate, and the per-layer
metrics come from the traced ones (see tracer.py); their spans are
written to perfbench/out/.  The output is a context line, one line per
metric with its unit, and last a JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output was
correct, 1 when some output was wrong or a sample failed, and 2 when
there is no chebident source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SAMPLE_TIMEOUT_S = 150
WORKLOADS = ("grid16x6", "families48", "defrel", "tiny")


class SampleError(RuntimeError):
    pass


def _env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    # Set-up is timed with bytecode cached, as for an installed package,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_sample(workload: str, seed: int, known: Path, spans: Path | None = None) -> dict:
    """Run one sample in a fresh interpreter and return its parsed result."""
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--known", str(known)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload} sample exceeded {SAMPLE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise SampleError(f"{workload} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise SampleError(f"{workload} sample printed no result: {exc}") from exc
    if not Path(result["package_file"]).resolve().is_relative_to(SRC):
        raise SampleError(f"sample imported chebident from {result['package_file']}, not {SRC}")
    result["setup_s"] = result["setup_done"] - t0
    return result


def collect(workload: str, seed: int, seconds: float, trace: bool, known: Path):
    """Run samples until `seconds` are used; return (untraced, traced) results."""
    # Users do not pay bytecode compilation on every run, so one process
    # imports the package first and its timings are discarded.
    warm = subprocess.run([sys.executable, "-c", "import chebident.cli"], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    if warm.returncode != 0:
        raise SampleError(f"cannot import chebident.cli:\n{warm.stderr[-2000:]}")
    spans = None
    if trace:
        (BENCH / "out").mkdir(exist_ok=True)
        spans = BENCH / "out" / f"spans-{workload}.bin"
    rng = random.Random(seed)
    plain, traced, rounds = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        sample_seed = rng.randrange(2**31)
        plain.append(run_sample(workload, sample_seed, known))
        if trace:
            traced.append(run_sample(workload, sample_seed, known, spans))
        rounds.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            return plain, traced


def _cell_quantile(plain, pct):
    """Median over samples of each sample's own per-cell percentile.

    A sample has 748 cells on grid16x6, so its p98 has 14 beyond it; on
    families48 (20 requests) and defrel (8 relations) a sample's p98 is
    close to its slowest cell.  Taking the percentile per sample keeps one
    slow sample from setting the run's tail.
    """
    return statistics.median(
        statistics.quantiles(r["cell_ms"], n=100, method="inclusive")[pct - 1]
        for r in plain
    )


def end_to_end(plain) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cell_ms_p50": _cell_quantile(plain, 50),
        "cell_ms_p98": _cell_quantile(plain, 98),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain, traced, failed, attempted) -> dict:
    metrics = {
        name: statistics.median_low(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
    )
    metrics["fail_ratio"] = failed / attempted
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend sampling")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known", type=Path, default=BENCH / "known_answers.json",
                        help="known answers the outputs are checked against")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # reaps the running sample before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "chebident" / "__init__.py").is_file():
        print(f"error: no chebident source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    try:
        plain, traced = collect(args.workload, args.seed, args.seconds, bool(args.trace), args.known)
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples = plain + traced
    attempted = sum(r["attempted"] for r in samples)
    failures = [f for r in samples for f in r["failures"]]
    if args.trace:
        values = per_layer(plain, traced, len(failures), attempted)
    else:
        values = end_to_end(plain)
    if set(values) != set(units):
        raise AssertionError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(plain),
        "traced_samples": len(traced),
        "python": samples[0]["python"],
        "kernel_backend": samples[0]["kernel_backend"],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    print("context " + json.dumps(context))
    for failure in sorted(set(failures)):
        print(f"WRONG {failure}")
    for name in units:
        value = values[name]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<36} {shown:>16} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
