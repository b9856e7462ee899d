"""The benchmark's workloads, run once per fresh interpreter by sample.py.

Each workload times its calls into chebident's public API, then checks
every output against the known answer recorded in known_answers.json;
an output that differs is counted, never raised.  `main` prints one JSON
line: set-up end time, compute seconds, per-cell milliseconds, peak RSS,
outputs checked and those that differed, and, when traced, the per-layer
metrics.
"""

import argparse
import hashlib
import json
import random
import resource
import sys
import time

import chebident
from chebident import families, series, triangle, verify
from chebident.families import FamilySpec
from chebident.report import VerificationReport

from tracer import Tracer

FAMILY_KINDS = ("U", "V", "W", "T_gf", "Legendre")
FAMILY_ORDERS = (1, 2, 3, 4)
FAMILY_DEGREE = 48
DEFREL_N = range(1, 9)
DEFREL_ORDER = 80


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """Timed results of one workload and the tally of checked outputs."""

    def __init__(self):
        self.wall_s = 0.0
        self.cell_ms: list[float] = []
        self.entries = []
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _grid(n_max, N_max):
    def run(known, rng, out):
        t0 = time.perf_counter()
        report = verify.run_suite(list(chebident.IdentityId), n_max=n_max, N_max=N_max)
        text = report.render("json")
        out.wall_s = time.perf_counter() - t0
        out.entries = report.entries
        out.cell_ms = [e.elapsed_ms for e in report.entries]
        out.check(len(report.entries) == known["cells"], "number of cells differs")
        for e in report.entries:
            out.check(e.passed, f"{e.identity} N={e.N} n={e.n} did not PASS")
        out.check(_sha256(text) == known["json_sha256"], "report JSON digest differs")

    return run


def _families48(known, rng, out):
    # The seed interleaves the kinds; within a kind the orders are asked for
    # highest first, as a fresh CLI call for one order does, so that request
    # pays for every lower-order convolution.  A random order within a kind
    # makes the tail latency bimodal from one seed to the next.
    slots = [k for k in FAMILY_KINDS for _ in FAMILY_ORDERS]
    rng.shuffle(slots)
    descending = {k: iter(sorted(FAMILY_ORDERS, reverse=True)) for k in FAMILY_KINDS}
    requests = [(k, next(descending[k])) for k in slots]
    rows, oracle = {}, {}
    t0 = time.perf_counter()
    for kind, alpha in requests:
        t = time.perf_counter()
        rows[kind, alpha] = families.family_polys(FamilySpec(kind, alpha), FAMILY_DEGREE)
        oracle[kind, alpha] = series.gf_expand(kind, alpha, FAMILY_DEGREE).coeffs
        out.cell_ms.append((time.perf_counter() - t) * 1000.0)
    out.wall_s = time.perf_counter() - t0
    for key in requests:
        out.check(list(rows[key]) == list(oracle[key]), f"{key}: recurrence and series disagree")
    text = "".join(
        f"{k} {a} {n}: {p}\n"
        for k in FAMILY_KINDS
        for a in FAMILY_ORDERS
        for n, p in enumerate(rows[k, a])
    )
    out.check(_sha256(text) == known["rows_sha256"], "family row digest differs")


def _defrel(known, rng, out):
    t0 = time.perf_counter()
    entries = [triangle.verify_defining_relation(N, DEFREL_ORDER) for N in DEFREL_N]
    text = VerificationReport(entries).render("json")
    out.wall_s = time.perf_counter() - t0
    out.entries = entries
    out.cell_ms = [e.elapsed_ms for e in entries]
    for N, e in zip(DEFREL_N, entries):
        out.check(e.passed and e.N == N, f"defining relation N={N} did not PASS")
    out.check(_sha256(text) == known["json_sha256"], "report JSON digest differs")


WORKLOADS = {
    "grid16x6": _grid(16, 6),
    "families48": _families48,
    "defrel": _defrel,
    "tiny": _grid(4, 2),
}


def main(setup_done: float) -> None:
    parser = argparse.ArgumentParser(description="Run one benchmark sample.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--known", required=True, help="known-answers JSON file")
    parser.add_argument("--spans", help="trace, and write the spans to this file")
    args = parser.parse_args()

    with open(args.known, encoding="utf-8") as fh:
        known = json.load(fh)[args.workload]
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    out = Outcome()
    WORKLOADS[args.workload](known, random.Random(args.seed), out)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_done": setup_done,
        "wall_s": out.wall_s,
        "cell_ms": out.cell_ms,
        "peak_rss_mb": rss_mb,
        "attempted": out.attempted,
        "failures": out.failures,
        "python": sys.version.split()[0],
        "kernel_backend": getattr(chebident, "kernel_backend", lambda: "none")(),
        "package_file": chebident.__file__,
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = tracer.layer_metrics(out.entries)
    print(json.dumps(result))
