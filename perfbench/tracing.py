"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each gridram layer in every
gridram module namespace that binds them, so calls made through any import
path are seen.  Each call is a span; spans nest on a stack, and a span's self
time is its duration minus the time of the spans it caused.  Hot calls (a
search makes up to 650k compatibility checks) are not kept one by one: they
are summed per (parent span, span) into call counts, total and self seconds.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import wraps
from time import perf_counter

# (module, attribute, span name).  Span names are "<layer>.<what>"; the layer
# is the gridram module.  `errors` does no work and is not traced.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("certio", "parse", "certio.parse"),
    ("certio", "emit", "certio.emit"),
    ("search", "g_exact_vertical", "search.g_exact_vertical"),
    ("search", "G_exact", "search.G_exact"),
    ("search", "verify_text", "search.verify_text"),
    ("coloring", "cached_chromatic_at_most", "coloring.lookup"),
    ("coloring", "chromatic_at_most", "coloring.solve"),
    ("coloring", "is_good", "coloring.is_good"),
    ("coloring", "extend_to_full", "coloring.extend"),
    ("core", "enumerate_alternating_rectangles", "core.rect_scan"),
    ("core", "agreement_mask", "core.agreement_mask"),
    ("core", "AgreementGraph.vertex_adjacency", "core.adjacency"),
    ("transforms", "stabilise_step", "transforms.step"),
    ("transforms", "switch", "transforms.switch"),
    ("transforms", "restrict_rows", "transforms.restrict"),
    ("transforms", "common_refinement", "transforms.refine"),
    ("constructions", "shelah_refute", "constructions.refute"),
    ("constructions", "shelah_find_rectangle", "constructions.find"),
    ("constructions", "theorem_params", "constructions.params"),
    ("constructions", "row_index_coloring", "constructions.lower"),
    ("bounds", "bound_table", "bounds.table"),
    ("bounds", "diag_inequality_check", "bounds.ineq"),
)

SUBCOMMANDS = (
    "bounds", "search-g", "search-G", "verify", "extend",
    "stabilise", "refute", "shelah-find", "check-ineq", "make-lower",
)


def layer(span: str) -> str:
    return span.split(".", 1)[0]


class Tracer:
    """Span stack plus per-(parent, span) sums and the counters the metrics need."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list[float]] = {}
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = [["bench", 0.0]]

    def install(self) -> None:
        """Replace every traced function in every gridram module that binds it."""
        modules = [mod for name, mod in sys.modules.items() if name.startswith("gridram")]
        for module, attr, span in TARGETS:
            owner = sys.modules[f"gridram.{module}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(span, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def _wrap(self, span: str, fn):
        stack, stats, clock = self._stack, self.stats, perf_counter
        observe = getattr(self, "_observe_" + span.replace(".", "_"), None)

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            error = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], span)
                entry = stats.get(key)
                if entry is None:
                    stats[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                if observe is not None:
                    observe(parent[0], args, result, error)
            return result

        return traced

    # Observers add the counts that call sums alone do not give.

    def _observe_certio_parse(self, parent, args, result, error):
        self.counts["certio.parse_bytes"] += len(args[0])
        if type(error).__name__ == "CertificateError":
            self.counts["certio.parse_errors"] += 1

    def _observe_certio_emit(self, parent, args, result, error):
        if result is not None:
            self.counts["certio.emit_bytes"] += len(result)

    def _observe_search(self, parent, args, result, error):
        if hasattr(result, "stats"):  # a SearchResult; G_exact returns a plain int
            self.counts["search.nodes"] += result.stats.nodes
        if type(error).__name__ == "TooLargeError" and layer(parent) != "search":
            self.counts["search.refusals"] += 1

    _observe_search_g_exact_vertical = _observe_search_G_exact = _observe_search

    def _observe_coloring_lookup(self, parent, args, result, error):
        if result is not None and layer(parent) == "search":
            self.counts["search.compat_pass"] += 1

    def _observe_coloring_solve(self, parent, args, result, error):
        if result is None and error is None:
            self.counts["coloring.uncolourable"] += 1

    def _observe_core_rect_scan(self, parent, args, result, error):
        if result is not None:
            self.counts["core.rects_found"] += len(result)

    def _observe_transforms_step(self, parent, args, result, error):
        if result is not None:
            self.counts["transforms.rows_in"] += args[0].m
            self.counts["transforms.rows_kept"] += len(result.rows)

    def snapshot(self) -> dict:
        """Plain-data form of one job's trace, for the parent process."""
        return {
            "stats": [[p, s, *v] for (p, s), v in self.stats.items()],
            "counts": dict(self.counts),
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum job snapshots into one."""
    stats: dict[tuple[str, str], list[float]] = {}
    counts: Counter[str] = Counter()
    for snap in snapshots:
        for parent, span, calls, total, self_s in snap["stats"]:
            entry = stats.setdefault((parent, span), [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        counts.update(snap["counts"])
    return {"stats": [[p, s, *v] for (p, s), v in sorted(stats.items())], "counts": dict(counts)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics of one pass; `*_s` values are self seconds."""
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    by_parent_layer: Counter[tuple[str, str]] = Counter()
    for parent, span, n, t, s in snap["stats"]:
        calls[span] += n
        total[span] += t
        self_s[span] += s
        by_parent_layer[(layer(parent), span)] += n
    c = Counter(snap["counts"])

    def layer_self(name: str) -> float:
        return sum(v for span, v in self_s.items() if layer(span) == name)

    mb = 1e6
    compat = by_parent_layer[("search", "coloring.lookup")]
    lookups = calls["coloring.lookup"]
    return {
        "cli.self_s": layer_self("cli"),
        "certio.parse_s": self_s["certio.parse"],
        "certio.parse_calls": calls["certio.parse"],
        "certio.parse_mb_per_s": _ratio(c["certio.parse_bytes"] / mb, self_s["certio.parse"]),
        "certio.parse_errors": c["certio.parse_errors"],
        "certio.emit_s": self_s["certio.emit"],
        "certio.emit_calls": calls["certio.emit"],
        "certio.emit_mb_per_s": _ratio(c["certio.emit_bytes"] / mb, self_s["certio.emit"]),
        "search.self_s": layer_self("search"),
        "search.nodes": c["search.nodes"],
        "search.nodes_per_s": _ratio(c["search.nodes"], total["search.g_exact_vertical"]),
        "search.compat_checks": compat,
        "search.compat_pass_ratio": _ratio(c["search.compat_pass"], compat),
        "search.refusals": c["search.refusals"],
        "coloring.lookups": lookups,
        "coloring.solves": calls["coloring.solve"],
        "coloring.memo_hit_ratio": _ratio(lookups - calls["coloring.solve"], lookups),
        "coloring.solve_s": self_s["coloring.solve"],
        "coloring.lookup_self_s": self_s["coloring.lookup"],
        "coloring.uncolourable_ratio": _ratio(c["coloring.uncolourable"], calls["coloring.solve"]),
        "coloring.is_good_s": self_s["coloring.is_good"],
        "coloring.extend_s": self_s["coloring.extend"],
        "core.rect_scan_s": self_s["core.rect_scan"],
        "core.rect_scan_calls": calls["core.rect_scan"],
        "core.rects_found": c["core.rects_found"],
        "core.agreement_mask_calls": calls["core.agreement_mask"],
        "core.agreement_mask_s": self_s["core.agreement_mask"],
        "core.adjacency_calls": calls["core.adjacency"],
        "core.adjacency_s": self_s["core.adjacency"],
        "transforms.step_calls": calls["transforms.step"],
        "transforms.step_self_s": self_s["transforms.step"],
        "transforms.switch_calls": calls["transforms.switch"],
        "transforms.switch_s": self_s["transforms.switch"],
        "transforms.restrict_s": self_s["transforms.restrict"],
        "transforms.refine_s": self_s["transforms.refine"],
        "transforms.rows_kept_ratio": _ratio(c["transforms.rows_kept"], c["transforms.rows_in"]),
        "constructions.refute_self_s": self_s["constructions.refute"],
        "constructions.refute_steps": by_parent_layer[("constructions", "transforms.step")],
        "constructions.find_s": self_s["constructions.find"],
        "constructions.params_s": self_s["constructions.params"],
        "constructions.lower_s": self_s["constructions.lower"],
        "bounds.table_s": self_s["bounds.table"],
        "bounds.ineq_s": self_s["bounds.ineq"],
    }
