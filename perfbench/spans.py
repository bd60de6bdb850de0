"""Spans and counters around the layers of ``ramsey_workbench``, from outside.

The tracer replaces each wrapped function at the name its caller looks it up
by, records one span per call and restores the originals on ``uninstall``.
Every span adds its duration to its parent's child time, so self time is the
span's duration minus the part covered by its direct children, and summing
self time over the spans of a module gives that layer's self time.

Hot spans (millions per run) are aggregated per name as they close.  Only the
coarse spans are kept as records (name, start, end, parent): questions,
replays and the checker entry points the CLI calls.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter


class TracerError(RuntimeError):
    """A name to wrap cannot be found."""


# (module, attribute path, span name, record the span, counter hook)
# A hook is called with (tracer, result, args) after a successful call.
def _points():
    m = "ramsey_workbench."
    cli, st, cat, cats = m + "cli", m + "structures", m + "category", m + "catalogs"
    arr, deg, amg = m + "arrows", m + "degrees", m + "amalgam"
    seq, exp = m + "sequences", m + "expansion"

    def enumerated(tr, res, args):
        tr.counts["structures.embeddings_enumerated"] += len(res)

    def canonicalized(tr, res, args):
        tr.counts["catalogs.canonicalized"] += 1

    def classes(tr, res, args):
        tr.counts["catalogs.classes"] += len(res)

    def built(tr, res, args):
        tr.counts["category.morphisms_built"] += sum(1 for _ in res.all_morphisms())

    def arrow_stats(tr, res, args):
        tr.counts["arrows.nodes"] += res.stats.nodes
        tr.counts["arrows.witness_prunes"] += res.stats.witness_prunes
        tr.counts["arrows.symmetry_prunes"] += res.stats.symmetry_prunes
        if tr.open_records["degrees.degree_interval"]:
            tr.counts["degrees.arrow_checks"] += 1

    def oracle_stats(tr, res, args):
        tr.counts["arrows.oracle_colorings"] += res.stats.colorings_scanned

    def memo_key(tr, res, args):
        engine, u, v = args[:3]
        tr.engines[id(engine)] = engine     # alive, so ids stay distinct
        tr.pairs.add((id(engine), u, v))

    def fiber(tr, res, args):
        tr.counts["expansion.fiber_max"] = max(tr.counts["expansion.fiber_max"],
                                               len(res))

    return [
        # structures (L0)
        (st, "Embedding.__post_init__", "structures.embedding_check", False, None),
        (st, "enumerate_embeddings", "structures.enumerate_embeddings", False, enumerated),
        (cat, "enumerate_embeddings", "structures.enumerate_embeddings", False, enumerated),
        (seq, "enumerate_embeddings", "structures.enumerate_embeddings", False, enumerated),
        (st, "canonical_form", "structures.canonical_form", False, None),
        (cat, "canonical_form", "structures.canonical_form", False, None),
        (cat, "canonical_key", "structures.canonical_key", False, None),
        (exp, "canonical_key", "structures.canonical_key", False, None),
        (cats, "canonical_key", "structures.canonical_key", False, canonicalized),
        (cat, "refinement_partition", "structures.refinement_partition", False, None),
        (st, "automorphisms", "structures.automorphisms", False, None),
        (seq, "automorphisms", "structures.automorphisms", False, None),
        (st, "compose", "structures.compose", False, None),
        (cat, "compose_embeddings", "structures.compose", False, None),
        (seq, "compose", "structures.compose", False, None),
        # catalogs
        (cats, "graph_catalog", "catalogs.graph_catalog", True, None),
        (cats, "all_graphs", "catalogs.all_graphs", False, classes),
        (cats, "save_catalog", "catalogs.save_catalog", True, None),
        (cli, "load_catalog", "catalogs.load_catalog", True, None),
        # category (L1)
        (cat, "FiniteCategory.from_structures", "category.from_structures", True, built),
        (cat, "FiniteCategory.compose", "category.compose", False, None),
        (cat, "FiniteCategory.automorphism_ids", "category.automorphism_ids", False, None),
        (cat, "FiniteCategory.is_mono", "category.is_mono", False, None),
        (cat, "FiniteCategory.is_epi", "category.is_epi", False, None),
        (cli, "check_axioms", "category.check_axioms", True, None),
        (cli, "skeletonize", "category.skeletonize", True, None),
        (cli, "load_abstract", "category.load_abstract", True, None),
        (cli, "op", "category.op", True, None),
        (cli, "tables_equal", "category.tables_equal", True, None),
        # checkers (L2)
        (cli, "arrow_check", "arrows.arrow_check", True, arrow_stats),
        (arr, "arrow_check", "arrows.arrow_check", True, arrow_stats),
        (deg, "arrow_check", "arrows.arrow_check", False, arrow_stats),
        (amg, "arrow_check", "arrows.arrow_check", True, arrow_stats),
        (cli, "oracle_arrow_check", "arrows.oracle_arrow_check", True, oracle_stats),
        (arr, "ArrowInstance.build", "arrows.instance_build", False, None),
        (cli, "verify_bad_coloring", "arrows.verify_bad_coloring", True, None),
        (cli, "degree_interval", "degrees.degree_interval", True, None),
        (amg, "AmalgamEngine.amalgamate", "amalgam.amalgamate", False, memo_key),
        (cli, "wap_check", "amalgam.wap_check", True, None),
        (cli, "two_of_k_check", "amalgam.two_of_k_check", True, None),
        (cli, "is_amalgamation_arrow", "amalgam.is_amalgamation_arrow", True, None),
        (amg, "is_amalgamation_arrow", "amalgam.is_amalgamation_arrow", False, None),
        (cli, "failure_chain", "amalgam.failure_chain", True, None),
        (cli, "verify_pairwise_non_amalgamable", "amalgam.verify_pairwise", True, None),
        (cli, "sequence_from_json", "sequences.sequence_from_json", True, None),
        (cli, "colimit", "sequences.colimit", True, None),
        (cli, "weak_fraisse_check", "sequences.weak_fraisse_check", True, None),
        (cli, "weak_homogeneity_check", "sequences.weak_homogeneity_check", True, None),
        (exp, "ExpansionSpace.__init__", "expansion.space_init", True, None),
        (exp, "ExpansionSpace.fiber", "expansion.fiber", False, fiber),
        (exp, "ExpansionSpace.morphism_preserves", "expansion.morphism_preserves", False, None),
        (cli, "check_forgetful", "expansion.check_forgetful", True, None),
        (cli, "orbit_age_analysis", "expansion.orbit_age_analysis", True, None),
        (cli, "expansion_property_check", "expansion.expansion_property_check", True, None),
    ]


LAYERS = ("structures", "catalogs", "category", "arrows", "degrees", "amalgam",
          "sequences", "expansion", "cli")


class Tracer:
    def __init__(self, points=None):
        self.points = _points() if points is None else points
        self.stats: dict[str, list] = {}    # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.open_records: Counter = Counter()
        self.records: list[tuple[str, float, float, int | None]] = []
        self.engines: dict = {}
        self.pairs: set = set()
        self._child: list[float] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._epoch = perf_counter()

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every point; raise TracerError if a name cannot be found."""
        if self._patches:
            return
        for module, path, name, record, hook in self.points:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr) if outer else \
                getattr(owner, attr, None)
            target = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not callable(target):
                self.uninstall()
                raise TracerError(f"cannot find {module}.{path} to wrap")
            wrapper = self._wrap(name, target, record, hook)
            setattr(owner, attr,
                    staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- spans ------------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _open_record(self, name):
        self.open_records[name] += 1
        self.records.append((name, perf_counter() - self._epoch, 0.0,
                             self._open[-1] if self._open else None))
        self._open.append(len(self.records) - 1)
        self._child.append(0.0)
        return perf_counter()

    def _close_record(self, name, start):
        end = perf_counter()
        dt = end - start
        inner = self._child.pop()
        if self._child:
            self._child[-1] += dt
        stat = self._stat(name)
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - inner
        self.open_records[name] -= 1
        i = self._open.pop()
        self.records[i] = self.records[i][:2] + (end - self._epoch,
                                                 self.records[i][3])

    def _wrap(self, name, fn, record, hook):
        if record:
            def wrapper(*args, **kwargs):
                start = self._open_record(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close_record(name, start)
                if hook is not None:
                    hook(self, result, args)
                return result
        else:
            # the hot path: no record, bound locals, one clock read each side
            child, stat, clock = self._child, self._stat(name), perf_counter

            def wrapper(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    inner = child.pop()
                    if child:
                        child[-1] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - inner
                if hook is not None:
                    hook(self, result, args)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A recorded span opened by the benchmark."""
        start = self._open_record(name)
        try:
            yield
        finally:
            self._close_record(name, start)

    def end_question(self) -> None:
        """Close the memo bookkeeping of one question."""
        self.counts["amalgam.distinct_pairs"] += len(self.pairs)
        self.pairs.clear()
        self.engines.clear()

    # -- metrics ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Exact counts so far: calls per span name plus hook counters."""
        out = {f"calls:{k}": v[0] for k, v in self.stats.items() if v[0]}
        out.update({k: v for k, v in self.counts.items() if v})
        return out

    def layer_self(self, layer: str) -> float:
        return sum(v[2] for k, v in self.stats.items()
                   if k.split(".")[0] == layer)

    def metrics(self) -> dict[str, float]:
        c, i, s = (defaultdict(int, {k: v[j] for k, v in self.stats.items()})
                   for j in range(3))
        n = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        arrow_calls = c["arrows.arrow_check"] + c["arrows.oracle_arrow_check"]
        out = {
            "structures.embedding_checks": c["structures.embedding_check"],
            "structures.embedding_check_s": i["structures.embedding_check"],
            "structures.enumerate_calls": c["structures.enumerate_embeddings"],
            "structures.embeddings_enumerated": n["structures.embeddings_enumerated"],
            "structures.enumerate_s": i["structures.enumerate_embeddings"],
            "structures.canonical_form_calls": c["structures.canonical_form"],
            "structures.canonical_form_s": i["structures.canonical_form"],
            "structures.automorphisms_s": i["structures.automorphisms"],
            "structures.compose_calls": c["structures.compose"],
            "catalogs.generate_s": i["catalogs.graph_catalog"],
            "catalogs.canonicalized_per_class": ratio(n["catalogs.canonicalized"],
                                                      n["catalogs.classes"]),
            "catalogs.load_s": i["catalogs.load_catalog"],
            "category.build_s": i["category.from_structures"],
            "category.morphisms_built": n["category.morphisms_built"],
            "category.compose_calls": c["category.compose"],
            "category.compose_s": i["category.compose"],
            "category.automorphism_ids_calls": c["category.automorphism_ids"],
            "category.automorphism_ids_s": i["category.automorphism_ids"],
            "category.check_axioms_s": i["category.check_axioms"],
            "category.skeletonize_s": i["category.skeletonize"],
            "category.abstract_load_s": i["category.load_abstract"],
            "arrows.checks": arrow_calls,
            "arrows.check_s": i["arrows.arrow_check"] + i["arrows.oracle_arrow_check"],
            "arrows.nodes": n["arrows.nodes"],
            "arrows.witness_prunes": n["arrows.witness_prunes"],
            "arrows.symmetry_prunes": n["arrows.symmetry_prunes"],
            "arrows.nodes_per_s": ratio(n["arrows.nodes"], s["arrows.arrow_check"]),
            "arrows.instance_build_s": i["arrows.instance_build"],
            "arrows.oracle_colorings": n["arrows.oracle_colorings"],
            "degrees.interval_s": i["degrees.degree_interval"],
            "degrees.arrow_checks": n["degrees.arrow_checks"],
            "amalgam.amalgamate_calls": c["amalgam.amalgamate"],
            "amalgam.memo_hit_ratio": 1.0 - ratio(n["amalgam.distinct_pairs"],
                                                  c["amalgam.amalgamate"])
            if c["amalgam.amalgamate"] else 0.0,
            "amalgam.wap_s": i["amalgam.wap_check"],
            "amalgam.two_of_k_s": i["amalgam.two_of_k_check"],
            "sequences.wfcheck_s": i["sequences.weak_fraisse_check"],
            "sequences.whom_s": i["sequences.weak_homogeneity_check"],
            "expansion.forgetful_s": i["expansion.check_forgetful"],
            "expansion.preserves_calls": c["expansion.morphism_preserves"],
            "expansion.fiber_max": n["expansion.fiber_max"],
            "cli.question_s": i["cli.question"],
            "cli.replay_s": i["cli.replay"],
            "cli.report_bytes": n["cli.report_bytes"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self(layer)
        return out


# Counters that must read non-zero on a workload: the layer the workload is
# built to load.  A refactor that moves a wrapped function then fails loudly
# instead of reporting a silent zero.
HEAVY = {
    "category-lo": ("structures.embedding_checks", "category.compose_calls",
                    "amalgam.amalgamate_calls", "expansion.preserves_calls",
                    "expansion.fiber_max", "sequences.wfcheck_s",
                    "category.check_axioms_s"),
    "category-table": ("category.compose_calls", "amalgam.amalgamate_calls",
                       "category.abstract_load_s"),
    "arrows-search": ("arrows.checks", "arrows.nodes", "arrows.witness_prunes",
                      "arrows.symmetry_prunes", "arrows.oracle_colorings",
                      "category.automorphism_ids_calls", "degrees.arrow_checks"),
    "graphs-iso": ("structures.enumerate_calls", "structures.embeddings_enumerated",
                   "structures.canonical_form_calls",
                   "catalogs.canonicalized_per_class", "category.skeletonize_s",
                   "sequences.whom_s"),
}
# Counters that must read zero: the table route composes by lookup only.
ZERO = {"category-table": ("structures.embedding_checks",)}


def self_check(workload: str, metrics: dict[str, float]) -> list[str]:
    problems = [f"{k} reads zero on {workload}"
                for k in HEAVY.get(workload, ()) if not metrics[k] > 0]
    problems += [f"{k} reads {metrics[k]} on {workload}, expected 0"
                 for k in ZERO.get(workload, ()) if metrics[k] != 0]
    return problems
