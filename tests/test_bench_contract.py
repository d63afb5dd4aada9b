"""The names the benchmark harness reaches into must stay in the program.

``bench/tracer.py`` wraps functions by module attribute, and
``bench/worker.find_caches`` reads the ``lru_cache`` objects of six program
modules as ``specalc`` attributes after importing the CLI.  A rename or
deletion in ``src/`` that breaks either shows up here instead of as a
benchmark run that fails to start.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specalc
import specalc.dslcli  # noqa: F401  (loads the modules the harness reads)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def bench():
    """The harness's ``tracer`` and ``worker`` modules, imported read-only."""
    saved, no_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        return importlib.import_module("tracer"), importlib.import_module("worker")
    finally:
        sys.path[:] = saved
        sys.dont_write_bytecode = no_bytecode


def test_worker_finds_the_program_caches(bench):
    _, worker = bench
    for name in ("numkit", "series", "zindex", "species", "oracle", "dslcli"):
        assert hasattr(specalc, name), name
    caches = worker.find_caches()
    assert specalc.species._egf in caches
    assert specalc.oracle._enum in caches


def test_traced_names_resolve(bench):
    tracer, _ = bench
    for table in (tracer.SPANNED, tracer.COUNTED):
        for module, names in table.items():
            mod = getattr(specalc, module)
            for name in names:
                assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_traced_caches_have_cache_info():
    assert hasattr(specalc.species._egf, "cache_info")
    assert hasattr(specalc.oracle._enum, "cache_info")


# ``Tracer.install`` rebinds program functions at module level, so the traced
# run goes in a child process, never in this one.
_TRACED_PRODUCT = """
import tracer
from specalc import dslcli
t = tracer.Tracer()
t.install()
t.begin(0)
status = dslcli.main(["zindex", "C * comp(E, Lp)", "--n", "6"])
layers = t.end(0)
assert status == 0, status
assert layers["zindex.mono_mul_calls"] == 1, layers
assert layers["zindex.mono_mul_pairs"] > 0, layers
"""


def test_the_product_hook_reads_mono_mul():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "bench")))
    run = subprocess.run([sys.executable, "-B", "-c", _TRACED_PRODUCT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
