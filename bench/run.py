"""specalc benchmark: one closed-loop client, one request at a time.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload labelled --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  ``labelled``, ``unlabelled``
and ``verify`` start one fresh process per request and run whole passes
over their corpus until ``--seconds`` have gone by; ``session`` sends
whole passes over its pool to one long-lived process until ``--seconds``
have gone by.  Every request's
exit code and output digest are compared with ``golden.json``; a request
that differs counts as failed.  Times are reported at a nominal host speed
(see ``REFERENCE_NOMINAL_S``), because the shared host's speed drifts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
request twice, untraced and then traced (spans and counters from
``tracer.py``), requires identical digests from both, prints the
per-layer metrics, reports the tracing overhead and writes the spans to
``.bench_out/spans/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from tracer import PER_LAYER, aggregate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
GOLDEN = BENCH / "golden.json"
OUT = ROOT / ".bench_out"

# Times are reported at a nominal host speed: measured time x (nominal /
# measured) time of the worker's fixed reference computation, taken in the
# same process around each request.  The nominal value is that reference's
# median on the 2-vCPU sandbox the baseline was recorded on.
REFERENCE_NOMINAL_S = 0.0028
SETUP_PROBES = 9  # extra import-only processes on session, which spawns once
MIN_PASSES = 2  # untraced cold runs: 2 x 20 requests keep ten beyond p75
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
}


class BenchError(Exception):
    pass


@dataclass
class Sample:
    request: wl.Request
    rc: int
    latency: float  # at the nominal host speed
    scale: float  # nominal / measured reference time around this request
    ok: bool
    layers: dict | None = None


@dataclass
class Run:
    samples: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    cache_entries: list = field(default_factory=list)
    wall: float = 0.0
    busy: float = 0.0  # spawn-to-exit time of the processes serving requests, scaled
    passes: int = 0
    tail_basis: int = 0  # requests the tail percentile is chosen for (0: all attempted)
    mismatched_traces: int = 0
    untraced_s: float = 0.0
    traced_s: float = 0.0


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["records"]


def matches(golden: dict, request: wl.Request, rc: int, digest: str) -> bool:
    g = golden.get(request.key)
    return g is not None and g["exit"] == rc and g["digest"] == digest


def spawn(job: dict, env=()) -> dict:
    """Run one worker process to completion; return its report with set-up time."""
    penv = {k: v for k, v in os.environ.items() if k != "SPECALC_MAX_N"}
    penv.update(env)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=penv,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup"] = report["ready"] - start
    report["wall"] = time.monotonic() - start
    return report


def _job(requests, **extra) -> dict:
    return dict(requests=[[list(r.argv), dict(r.env)] for r in requests], **extra)


def _account(run: Run, report: dict, serving=True):
    run.setups.append(report["setup"] * REFERENCE_NOMINAL_S / report["refs"][0])
    run.rss_kb.append(report["rss_kb"])
    run.cache_entries.append(report["cache_entries"])
    if serving:
        run.busy += report["wall"] * REFERENCE_NOMINAL_S / statistics.median(report["refs"])


def _record(run: Run, golden: dict, req: wl.Request, res: dict, traced: dict | None):
    """Check one request against its golden (and its traced twin) and keep the sample."""
    ok = matches(golden, req, res["rc"], res["digest"])
    scale = REFERENCE_NOMINAL_S / res["ref"]
    layers = None
    if traced is not None:
        if (traced["rc"], traced["digest"]) != (res["rc"], res["digest"]):
            run.mismatched_traces += 1
            ok = False
        run.untraced_s += res["latency"] * scale
        run.traced_s += traced["latency"] * REFERENCE_NOMINAL_S / traced["ref"]
        layers = traced["layers"]
    run.samples.append(Sample(req, res["rc"], res["latency"] * scale, scale, ok, layers))


def run_cold(corpus, seed, seconds, golden, trace, spans_dir) -> Run:
    """Whole seeded passes over a fixed corpus, one fresh process per request."""
    rng = random.Random(seed)
    run = Run(tail_basis=MIN_PASSES * len(corpus))
    min_passes = 1 if trace else MIN_PASSES
    start = time.monotonic()
    while run.passes < min_passes or time.monotonic() - start < seconds:
        for req in wl.pass_order(corpus, rng):
            report = spawn(_job([req]), req.env)
            _account(run, report)
            traced = None
            if trace:
                path = spans_dir / f"{len(run.samples):05d}.jsonl.gz"
                job = _job([req], trace=True, spans_path=str(path))
                traced = spawn(job, req.env)["results"][0]
            _record(run, golden, req, report["results"][0], traced)
        run.passes += 1
    run.wall = time.monotonic() - start
    return run


def run_session(seed, seconds, golden, trace, spans_dir) -> Run:
    """Whole seeded passes over the session pool, sent to one long-lived process."""
    pool = wl.session_pool()
    sequence = wl.session_sequence(seed)
    run = Run()
    for _ in range(SETUP_PROBES):
        _account(run, spawn(_job([])), serving=False)
    start = time.monotonic()
    report = spawn(_job(pool, sequence=sequence, pass_size=len(pool),
                        nominal_ref_s=REFERENCE_NOMINAL_S,
                        deadline_s=seconds / 2 if trace else seconds))
    run.wall = time.monotonic() - start
    _account(run, report)
    results = report["results"]
    run.passes = math.ceil(len(results) / len(pool))
    traced = [None] * len(results)
    if trace:
        job = _job(pool, sequence=sequence[: len(results)], trace=True,
                   spans_path=str(spans_dir / "session.jsonl.gz"))
        traced = spawn(job)["results"]
    for pos, (res, tres) in enumerate(zip(results, traced)):
        _record(run, golden, pool[sequence[pos]], res, tres)
    return run


def percentile(sorted_values, p) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    k = (len(sorted_values) - 1) * p / 100
    lo, hi = math.floor(k), math.ceil(k)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten requests beyond it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p
    return TAIL_LADDER[-1]


def end_to_end(run: Run) -> tuple[dict, float]:
    lat = sorted(s.latency for s in run.samples)
    attempted = len(run.samples)
    failed = sum(not s.ok for s in run.samples)
    p = tail_percentile(min(attempted, run.tail_basis or attempted))
    metrics = {
        "setup_s": statistics.median(run.setups),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": percentile(lat, p),
        "requests_per_s": attempted / run.busy,
        "peak_rss_mb": max(run.rss_kb) / 1024,
        "correct_ratio": (attempted - failed) / attempted,
    }
    return metrics, p


def sweep_rows(run: Run) -> list[str]:
    """Median latency per (command, expression, order), grouped by sweep."""
    by_request = {}
    for s in run.samples:
        by_request.setdefault(s.request, []).append(s)

    def order(req):
        return int(req.argv[req.argv.index("--n") + 1])

    rows = []
    for req in sorted(by_request, key=lambda r: (r.sweep, order(r))):
        samples = by_request[req]
        median = statistics.median(s.latency for s in samples)
        rows.append(f"  {req.sweep:<34} n={order(req):<3} {median:9.4f} s"
                    f"  exit {samples[0].rc}  ({len(samples)} runs)")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "specalc" / "dslcli.py").is_file():
        print(f"error: no specalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = load_golden()
    trace = bool(args.trace)
    spans_dir = OUT / "spans" / f"{args.workload}-seed{args.seed}"
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)

    spawn(_job([]))  # warm-up: byte-compile and page in the package, untimed
    if args.workload == "session":
        run = run_session(args.seed, args.seconds, golden, trace, spans_dir)
    else:
        corpus = wl.CORPORA[args.workload]
        run = run_cold(corpus, args.seed, args.seconds, golden, trace, spans_dir)

    attempted = len(run.samples)
    failed = sum(not s.ok for s in run.samples)
    metrics, p = end_to_end(run)
    speed = statistics.median(s.scale for s in run.samples)
    raw_p50 = statistics.median(s.latency / s.scale for s in run.samples)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {attempted}  passes {run.passes}  wall {run.wall:.2f} s")
    print(f"host speed: reference computation {1000 * REFERENCE_NOMINAL_S / speed:.2f} ms "
          f"(nominal {1000 * REFERENCE_NOMINAL_S:.2f} ms); times are scaled to the nominal "
          f"speed (unscaled latency_p50_s {raw_p50:.6g} s)")
    if trace:
        overhead = run.traced_s / run.untraced_s
        layer = aggregate([s.layers for s in run.samples], max(run.cache_entries), overhead)
        print(f"trace overhead {overhead:.3f} (traced / untraced time in dslcli.main, "
              f"{attempted} requests); digests differing traced vs untraced: "
              f"{run.mismatched_traces}; spans in {spans_dir.relative_to(ROOT)}")
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:<32} {layer[name]:14.6g} {unit}")
        result = {name: {"value": layer[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        for name, unit in END_TO_END.items():
            note = ""
            if name == "latency_tail_s":
                beyond = attempted - math.ceil(attempted * p / 100)
                note = f"  (p{p:g} over {attempted} requests, {beyond} beyond it)"
            elif name == "setup_s":
                note = f"  (median of {len(run.setups)} process starts)"
            print(f"  {name:<16} {metrics[name]:12.6g} {unit}{note}")
        print(f"  {'failed_ratio':<16} {failed / attempted:12.6g} ratio  ({failed} of {attempted})")
        if args.workload in ("labelled", "unlabelled"):
            print("order sweep (median latency in dslcli.main):")
            print("\n".join(sweep_rows(run)))
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
