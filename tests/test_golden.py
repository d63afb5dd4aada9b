"""Byte-identity gate: every golden record of the benchmark replays unchanged.

Each record of ``bench/golden.json`` is an argv (plus an optional
``SPECALC_MAX_N``) with the exit code and output digest the CLI gave when
the record was confirmed.  Replaying them in process through
``dslcli.main`` checks that a refactor keeps every record, exception and
exit code identical.  The digest and the exit-code rules mirror
``bench/worker.run_request``.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from specalc import dslcli

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = dslcli.main(argv)
        except SystemExit as e:  # argparse rejects the argv
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # an uncaught error exits 1 from the real CLI
            print(type(e).__name__, file=sys.stderr)
            rc = 1
    digest = hashlib.sha256(
        hashlib.sha256(out.getvalue().encode("utf-8")).digest()
        + hashlib.sha256(err.getvalue().encode("utf-8")).digest()
    ).hexdigest()[:32]
    return rc, digest


def test_golden_records_replay_byte_identical(monkeypatch):
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))["records"]
    assert len(records) >= 1000
    mismatches = []
    for key, want in records.items():
        argv_text, _, env_text = key.partition("\x1e")
        env = dict(pair.split("=", 1) for pair in env_text.split("\x1f") if pair)
        if "SPECALC_MAX_N" in env:
            monkeypatch.setenv("SPECALC_MAX_N", env["SPECALC_MAX_N"])
        else:
            monkeypatch.delenv("SPECALC_MAX_N", raising=False)
        got = _replay(argv_text.split("\x1f"))
        if got != (want["exit"], want["digest"]):
            mismatches.append((argv_text.replace("\x1f", " "), env, want["exit"], got[0]))
    assert not mismatches, f"{len(mismatches)} records differ, first: {mismatches[:5]}"
