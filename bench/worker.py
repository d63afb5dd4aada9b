"""One benchmark process: import specalc from the checkout, run requests, report.

Reads a job (JSON) on stdin and writes one JSON line on stdout.  The time
at which ``specalc.dslcli`` finished importing is reported as ``ready`` on
the ``time.monotonic`` clock, which the parent shares, so set-up is
measured from the parent's spawn to that instant.  Job fields:

- ``requests``: list of ``[argv, env]``; ``sequence``: optional list of
  indices into ``requests`` giving the order to run them in;
- ``deadline_s``: stop starting requests this many seconds after the loop
  began (none: run them all), checked only every ``pass_size`` requests;
  with ``nominal_ref_s`` the seconds are counted at that nominal reference
  time, so the number of passes does not follow the host's speed;
- ``trace``: wrap the program's layers and report per-request layer data;
- ``spans_path``: where a traced run writes its spans when it ends;
- ``fresh``: clear every cache before each request (golden recording);
- ``keep_output``: return each request's stdout text (golden recording).

Host speed on a shared machine drifts by up to 2x within minutes, so the
worker also times a fixed reference computation (``reference_seconds``)
at least every ``REFERENCE_EVERY_S`` and at the end, and reports for each
request the mean of the reference times just before and just after it.
The harness divides by that to express times at one nominal host speed.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from specalc import dslcli  # noqa: E402

READY = time.monotonic()

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402

REFERENCE_EVERY_S = 0.2


class HashSink(io.TextIOBase):
    """A text stream that keeps only the digest and byte count of what it gets."""

    def __init__(self, keep=False):
        self.hash = hashlib.sha256()
        self.bytes = 0
        self.kept = [] if keep else None

    def writable(self):
        return True

    def write(self, s):
        data = s.encode("utf-8")
        self.hash.update(data)
        self.bytes += len(data)
        if self.kept is not None:
            self.kept.append(s)
        return len(s)


def output_digest(out: HashSink, err: HashSink) -> str:
    """128-bit digest of stdout and stderr together."""
    return hashlib.sha256(out.hash.digest() + err.hash.digest()).hexdigest()[:32]


def run_request(argv, env, keep_output=False):
    """Call ``dslcli.main`` in this process; return (exit code, seconds, out, err)."""
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    out, err = HashSink(keep_output), HashSink()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = dslcli.main(list(argv))
            except SystemExit as e:  # argparse rejects the argv
                rc = e.code if isinstance(e.code, int) else 1
            except Exception as e:  # an uncaught error exits 1 from the real CLI
                print(type(e).__name__, file=sys.stderr)
                rc = 1
            elapsed = time.perf_counter() - start
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return rc, elapsed, out, err


def reference_seconds() -> float:
    """Median time of three runs of a fixed pure-Python computation (no program code).

    Each run takes about 3 ms on the sandbox the baseline was recorded on.
    The collector is off meanwhile, so the program's heap, which a
    long-lived process grows, does not slow the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            acc, seen = Fraction(0), {}
            for i in range(1, 500):
                acc += Fraction(i % 97, i)
                key = (i % 31, i % 17)
                seen[key] = seen.get(key, 0) + i
            times.append(time.perf_counter() - start)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


def peak_rss_kb() -> int:
    """High-water resident set of this process image (excludes the parent's pages)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    job = json.loads(sys.stdin.read())
    requests = job.get("requests", [])
    order = job["sequence"] if "sequence" in job else range(len(requests))
    deadline = job.get("deadline_s")
    caches = find_caches()
    tracer = None
    if job.get("trace"):
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    results, refs = [], []
    start = last_ref = time.monotonic()
    pass_size = job.get("pass_size", 1)
    for pos, idx in enumerate(order):
        now = time.monotonic()
        if deadline is not None and pos % pass_size == 0 and refs:
            spent = now - start
            if "nominal_ref_s" in job:
                spent *= job["nominal_ref_s"] / sorted(refs)[len(refs) // 2]
            if spent >= deadline:
                break
        if not refs or now - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_seconds())
            last_ref = time.monotonic()
        argv, env = requests[idx]
        if job.get("fresh"):
            for fn in caches:
                fn.cache_clear()
        if tracer is not None:
            tracer.begin(pos)
        rc, elapsed, out, err = run_request(argv, env, job.get("keep_output", False))
        res = {"rc": rc, "latency": elapsed, "digest": output_digest(out, err), "ref": len(refs) - 1}
        if tracer is not None:
            res["layers"] = tracer.end(out.bytes)
        if out.kept is not None:
            res["stdout"] = "".join(out.kept)
        results.append(res)
    refs.append(reference_seconds())
    for res in results:
        res["ref"] = (refs[res["ref"]] + refs[res["ref"] + 1]) / 2
    report = {
        "ready": READY,
        "refs": refs,
        "rss_kb": peak_rss_kb(),
        "cache_entries": sum(fn.cache_info().currsize for fn in caches),
        "results": results,
    }
    if tracer is not None and job.get("spans_path"):
        tracer.write_spans(job["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")


def find_caches():
    """Every ``lru_cache`` the program keeps at module level (found before tracing wraps them)."""
    import specalc

    found = []
    for name in ("numkit", "series", "zindex", "species", "oracle", "dslcli"):
        for value in vars(getattr(specalc, name)).values():
            if hasattr(value, "cache_info") and value not in found:
                found.append(value)
    return found


if __name__ == "__main__":
    main()
