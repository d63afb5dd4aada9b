"""Spans and counters around the specalc layers, installed from outside the program.

``Tracer.install`` replaces each traced function object at every module
binding that refers to it (``compose``, for example, is bound in both
``series`` and ``species``), so calls through any of those names are seen.
Kernels and entry points get a span (name, start, end, parent, request
id); helpers that run inside a kernel's inner loop (``numkit.weight``,
``oracle.meet``, ...) are only counted, because timing them would swamp
the kernel.  Cache hit ratios come from ``cache_info()`` deltas of the
original ``lru_cache`` objects, not from wrapping the caches.

Spans stay in memory and are written out when the process ends.  A
layer's self time is its span's duration minus the durations of its direct
child spans; its inclusive time counts only the outermost span of a
recursive function.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

# The program's modules, imported by ``Tracer.install`` so that this file
# also serves the harness, which never imports the program.
MODULES = ("numkit", "series", "zindex", "species", "oracle", "dslcli")

SPANNED = {
    "dslcli": (
        "main", "_build_argparser", "parse", "to_source", "format_record",
        "cmd_counts", "cmd_types", "cmd_zindex", "cmd_dirichlet", "cmd_check",
        "cmd_enumerate", "cmd_table",
    ),
    "series": (
        "_mul_trunc", "compose", "hadamard", "aprod_egf", "maprod_egf",
        "exp_series", "dirichlet_of",
    ),
    "zindex": (
        "_mono_mul", "zi_atom", "zi_add", "zi_mul", "zi_hadamard", "zi_point",
        "zi_plethysm", "zi_aprod", "zi_to_ogf",
    ),
    "species": (
        "validate", "_egf", "_zi", "eval_egf", "eval_counts", "eval_zi",
        "type_counts", "hct_counts", "pr_k_exact",
    ),
    "oracle": (
        "enumerate_structures", "_enum", "partitions_of", "rectangles_of",
        "partial_rectangles_of",
    ),
}

COUNTED = {
    "numkit": ("weight", "divisors", "rect_coeff"),
    "oracle": ("meet",),
}

# Spans whose results feed the size counters.
_SERIES_RESULTS = ("series.compose", "series.hadamard", "series.aprod_egf",
                   "series.maprod_egf", "species._egf")
_INDEX_RESULTS = ("zindex.zi_mul", "zindex.zi_plethysm", "zindex.zi_aprod",
                  "zindex.zi_add", "zindex.zi_hadamard", "zindex.zi_point", "species._zi")

# Per-layer metrics: name -> (unit, better).  Times and counts are means per
# request over the run; ``_max`` metrics are maxima; ratios are sums over sums.
PER_LAYER = {
    "series.mul_trunc_s": ("s", "lower"),
    "series.mul_trunc_calls": ("count", "lower"),
    "series.compose_self_s": ("s", "lower"),
    "series.maprod_egf_s": ("s", "lower"),
    "series.aprod_egf_s": ("s", "lower"),
    "series.hadamard_s": ("s", "lower"),
    "series.coeff_bits_max": ("bits", "lower"),
    "zindex.mono_mul_s": ("s", "lower"),
    "zindex.mono_mul_calls": ("count", "lower"),
    "zindex.mono_mul_pairs": ("count", "lower"),
    "zindex.mono_mul_useful_ratio": ("ratio", "higher"),
    "zindex.plethysm_self_s": ("s", "lower"),
    "zindex.aprod_s": ("s", "lower"),
    "zindex.terms_max": ("count", "lower"),
    "numkit.weight_calls": ("count", "lower"),
    "numkit.divisors_calls": ("count", "lower"),
    "numkit.rect_coeff_calls": ("count", "lower"),
    "oracle.enum_self_s": ("s", "lower"),
    "oracle.enum_hit_ratio": ("ratio", "higher"),
    "oracle.structures": ("count", "lower"),
    "oracle.partitions_s": ("s", "lower"),
    "oracle.rectangles_s": ("s", "lower"),
    "oracle.meet_calls": ("count", "lower"),
    "dslcli.argv_s": ("s", "lower"),
    "dslcli.parse_s": ("s", "lower"),
    "dslcli.print_s": ("s", "lower"),
    "dslcli.format_s": ("s", "lower"),
    "dslcli.output_bytes": ("bytes", "lower"),
    "species.validate_s": ("s", "lower"),
    "species.egf_self_s": ("s", "lower"),
    "species.zi_self_s": ("s", "lower"),
    "species.egf_hit_ratio": ("ratio", "higher"),
    "cache.entries_end": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# ratio metric -> (numerator, denominator) per-request fields
RATIOS = {
    "zindex.mono_mul_useful_ratio": ("zindex.mono_mul_useful", "zindex.mono_mul_pairs"),
    "oracle.enum_hit_ratio": ("oracle.enum_hits", "oracle.enum_lookups"),
    "species.egf_hit_ratio": ("species.egf_hits", "species.egf_lookups"),
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    ``spans`` are ``(name, start, end, parent, ...)`` rows; ``parent`` is the
    index of the enclosing span in the same list, or -1.  Spans of one
    thread nest, so the children's durations are the part of the parent's
    interval they cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, request id, outermost]
        self.stack = []
        self.open = Counter()
        self.counts = Counter()
        self.sizes = Counter()
        self.rid = None
        self.first = 0
        self.caches = {}
        self.seen = {}  # id -> (object, derived value), for the current request
        self._weight = None

    # -- installation ---------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"specalc.{name}") for name in MODULES}
        self._weight = mods["numkit"].weight
        self.caches = {"species.egf": mods["species"]._egf, "oracle.enum": mods["oracle"]._enum}
        for wrap, table in ((self._span, SPANNED), (self._counter, COUNTED)):
            for short, names in table.items():
                for name in names:
                    orig = getattr(mods[short], name)
                    _rebind(mods.values(), orig, wrap(f"{short}.{name}", orig))

    def _span(self, name, fn):
        spans, stack, opened = self.spans, self.stack, self.open
        clock = time.perf_counter
        hook = self._hook_for(name)

        def traced(*args, **kwargs):
            outer = not opened[name]
            opened[name] += 1
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, self.rid, outer]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                opened[name] -= 1

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _hook_for(self, name):
        if name in _SERIES_RESULTS:
            return self._series_bits
        if name in _INDEX_RESULTS:
            return self._index_terms
        if name == "zindex._mono_mul":
            return self._mono_pairs
        if name == "oracle.enumerate_structures":
            return self._structures
        if name == "dslcli._build_argparser":
            return self._wrap_parse_args
        return None

    # -- size counters (run inside the span that produced the value) -----------

    def _memo(self, obj, compute):
        """``compute(obj)``, once per object per request (the caches hand out the same objects)."""
        hit = self.seen.get(id(obj))
        if hit is None or hit[0] is not obj:
            hit = self.seen[id(obj)] = (obj, compute(obj))
        return hit[1]

    def _series_bits(self, args, result):
        bits = self._memo(result, lambda f: max(
            max(c.numerator.bit_length(), c.denominator.bit_length()) for c in f.coeffs))
        if bits > self.sizes["series.coeff_bits_max"]:
            self.sizes["series.coeff_bits_max"] = bits

    def _index_terms(self, args, result):
        if len(result.fix) > self.sizes["zindex.terms_max"]:
            self.sizes["zindex.terms_max"] = len(result.fix)

    def _mono_pairs(self, args, result):
        a, b, bound = args
        weight = self._weight
        hist_b = self._memo(b, lambda d: Counter(weight(lam) for lam in d))
        useful = 0
        for wa, na in Counter(weight(lam) for lam in a).items():
            useful += na * sum(nb for wb, nb in hist_b.items() if wa + wb <= bound)
        self.sizes["zindex.mono_mul_pairs"] += len(a) * len(b)
        self.sizes["zindex.mono_mul_useful"] += useful

    def _structures(self, args, result):
        self.sizes["oracle.structures"] += len(result)

    def _wrap_parse_args(self, args, parser):
        parser.parse_args = self._span("dslcli.parse_args", parser.parse_args)

    # -- per request ------------------------------------------------------------

    def begin(self, rid):
        self.rid = rid
        self.first = len(self.spans)
        self.counts.clear()
        self.sizes.clear()
        self.seen = {}
        self.before = {k: fn.cache_info() for k, fn in self.caches.items()}

    def end(self, output_bytes) -> dict:
        """Layer figures of the request that just ended."""
        spans = self.spans[self.first:]
        base = self.first
        rows = [(s[0], s[1], s[2], s[3] - base if s[3] >= base else -1) for s in spans]
        total, own = defaultdict(float), defaultdict(float)
        for s, row, self_s in zip(spans, rows, self_times(rows)):
            own[s[0]] += self_s
            if s[5]:
                total[s[0]] += s[2] - s[1]
        calls = Counter(s[0] for s in spans)
        after = {k: fn.cache_info() for k, fn in self.caches.items()}

        def delta(key):
            hits = after[key].hits - self.before[key].hits
            misses = after[key].misses - self.before[key].misses
            return hits, hits + misses

        egf_hits, egf_lookups = delta("species.egf")
        enum_hits, enum_lookups = delta("oracle.enum")
        return {
            "series.mul_trunc_s": total["series._mul_trunc"],
            "series.mul_trunc_calls": calls["series._mul_trunc"],
            "series.compose_self_s": own["series.compose"],
            "series.maprod_egf_s": total["series.maprod_egf"],
            "series.aprod_egf_s": total["series.aprod_egf"],
            "series.hadamard_s": total["series.hadamard"],
            "series.coeff_bits_max": self.sizes["series.coeff_bits_max"],
            "zindex.mono_mul_s": total["zindex._mono_mul"],
            "zindex.mono_mul_calls": calls["zindex._mono_mul"],
            "zindex.mono_mul_pairs": self.sizes["zindex.mono_mul_pairs"],
            "zindex.mono_mul_useful": self.sizes["zindex.mono_mul_useful"],
            "zindex.plethysm_self_s": own["zindex.zi_plethysm"],
            "zindex.aprod_s": total["zindex.zi_aprod"],
            "zindex.terms_max": self.sizes["zindex.terms_max"],
            "numkit.weight_calls": self.counts["numkit.weight"],
            "numkit.divisors_calls": self.counts["numkit.divisors"],
            "numkit.rect_coeff_calls": self.counts["numkit.rect_coeff"],
            "oracle.enum_self_s": own["oracle._enum"],
            "oracle.enum_hits": enum_hits,
            "oracle.enum_lookups": enum_lookups,
            "oracle.structures": self.sizes["oracle.structures"],
            "oracle.partitions_s": total["oracle.partitions_of"],
            "oracle.rectangles_s": total["oracle.rectangles_of"] + total["oracle.partial_rectangles_of"],
            "oracle.meet_calls": self.counts["oracle.meet"],
            "dslcli.argv_s": total["dslcli._build_argparser"] + total["dslcli.parse_args"],
            "dslcli.parse_s": total["dslcli.parse"],
            "dslcli.print_s": total["dslcli.to_source"],
            "dslcli.format_s": total["dslcli.format_record"],
            "dslcli.output_bytes": output_bytes,
            "species.validate_s": total["species.validate"],
            "species.egf_self_s": own["species._egf"],
            "species.zi_self_s": own["species._zi"],
            "species.egf_hits": egf_hits,
            "species.egf_lookups": egf_lookups,
        }

    def write_spans(self, path):
        """Write every span as one JSON row: name, start, end, parent index, request id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:5]) + "\n")


def _rebind(modules, orig, replacement):
    """Point every module-level name bound to ``orig`` at ``replacement``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, replacement)


def aggregate(requests: list[dict], cache_entries_end: int, overhead_ratio: float) -> dict:
    """Run-level per-layer metrics from the per-request figures of ``Tracer.end``."""
    n = max(len(requests), 1)
    out = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            d = sum(r[den] for r in requests)
            out[name] = sum(r[num] for r in requests) / d if d else 0.0
        elif name.endswith("_max"):
            out[name] = max((r[name] for r in requests), default=0)
        elif name == "cache.entries_end":
            out[name] = cache_entries_end
        elif name == "trace.overhead_ratio":
            out[name] = overhead_ratio
        else:
            out[name] = sum(r[name] for r in requests) / n
    return out
