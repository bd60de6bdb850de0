"""Question sets, their input files and their independently known answers.

Every question is asked through a public entry point: ``cli.run(argv)`` or a
``catalogs`` builder.  Each carries the statuses it may return and where that
answer comes from.  Input files are written by this module's own code or by
the cheap ``catalogs`` builders (never by ``compose`` or ``canonical_form``),
so set-up time does not move when those layers change.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import verify

HOLDS, FAILS, UNKNOWN = "HOLDS", "FAILS", "UNKNOWN-AT-BOUND"
DECIDED = (HOLDS, FAILS)


@dataclass(frozen=True)
class Question:
    """One question with the statuses it may return and their source.

    ``argv`` questions go through ``cli.run`` and write a report that the run
    replays; ``library`` questions call a public function and return a status.
    ``check`` looks at the report (or the library result) outside the timed
    region and returns a list of problems.
    """

    name: str
    expect: tuple[str, ...]
    source: str
    argv: tuple[str, ...] = ()
    library: Callable | None = None
    check: Callable | None = None


# -- input files ---------------------------------------------------------------


def lo_abstract_doc(n: int) -> dict:
    """Compose-table dump of the embedding category of LO1..LOn.

    Increasing maps LOa -> LOb are the a-subsets of range(b); listed in lex
    order they get the same ``LOa->LOb#k`` ids as the embedding route.
    """
    subsets = {(a, b): list(itertools.combinations(range(b), a))
               for a in range(1, n + 1) for b in range(a, n + 1)}
    index = {key: {s: k for k, s in enumerate(subs)}
             for key, subs in subsets.items()}

    def mid(a, b, k):
        return f"LO{a}->LO{b}#{k}"

    homs = {f"LO{a}->LO{b}": [mid(a, b, k) for k in range(len(subs))]
            for (a, b), subs in subsets.items()}
    compose = {}
    for (a, b), fs in subsets.items():
        for c in range(b, n + 1):
            for gk, g in enumerate(subsets[(b, c)]):
                for fk, f in enumerate(fs):
                    h = index[(a, c)][tuple(g[i] for i in f)]
                    compose[f"{mid(b, c, gk)}∘{mid(a, b, fk)}"] = mid(a, c, h)
    identities = {f"LO{a}": mid(a, a, 0) for a in range(1, n + 1)}
    return {"objects": [f"LO{a}" for a in range(1, n + 1)], "homs": homs,
            "compose": compose, "identities": identities}


def lo_chain_doc(n: int) -> dict:
    """The chain LO1 -> LO2 -> ... -> LOn by initial-segment inclusions."""
    return {"objects": [f"LO{i}" for i in range(1, n + 1)],
            "bonding": {f"{i}->{i + 1}": list(range(i + 1))
                        for i in range(n - 1)}}


def small_graph_classes(max_n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """One graph per isomorphism class on 1..max_n vertices, by brute force.

    Classes are keyed by the least edge bitmask over all vertex permutations
    and ordered by (vertices, edges, key), so the empty graph on n vertices is
    the first class of its size.
    """
    out = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        bit = {p: 1 << i for i, p in enumerate(pairs)}
        classes = {}
        for mask in range(1 << len(pairs)):
            edges = [p for p in pairs if mask & bit[p]]
            key = min(sum(bit[tuple(sorted((perm[u], perm[v])))]
                          for u, v in edges)
                      for perm in itertools.permutations(range(n)))
            classes.setdefault(key, (len(edges), key, edges))
        for _, _, edges in sorted(classes.values()):
            out.append((n, edges))
    return out


def skeleton_graphs(seed: int):
    """(name, vertices, edges) for eight graphs and a relabelled copy of each.

    The copies use permutations drawn from ``seed``.  E7, K7 and E6 get no
    copy: every relabelling fixes them, so a copy would be the same structure
    under another name, and its hom-sets of up to 5040 maps would more than
    double the length of a pass.
    """
    def cycle(n):
        return [(i, (i + 1) % n) for i in range(n)]

    base = [
        ("E7", 7, []),
        ("K7", 7, list(itertools.combinations(range(7), 2))),
        ("C7", 7, cycle(7)),
        ("P7", 7, [(i, i + 1) for i in range(6)]),
        ("M3K1", 7, [(0, 1), (2, 3), (4, 5)]),
        ("K33", 6, [(i, j) for i in range(3) for j in range(3, 6)]),
        ("C6", 6, cycle(6)),
        ("E6", 6, []),
    ]
    rng = random.Random(seed)
    copies = []
    for name, n, edges in base:
        if name in ("E7", "K7", "E6"):
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        copies.append((name + "r", n, [(perm[u], perm[v]) for u, v in edges]))
    return base + copies


def write_inputs(workload: str, seed: int, root: str) -> dict[str, str]:
    """Write the workload's input files under ``root``; return their paths."""
    from ramsey_workbench import catalogs

    paths: dict[str, str] = {}

    def put(key, doc=None, catalog=None):
        path = os.path.join(root, key + ".json")
        if catalog is not None:
            catalogs.save_catalog(catalog, path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        paths[key] = path

    if workload == "category-lo":
        for n in (4, 5, 6, 7, 8):
            put(f"lo{n}", catalog=catalogs.lo_catalog(n))
        put("deg", {"degrees": {"LO1": 3}})
        put("chain", lo_chain_doc(8))
    elif workload == "category-table":
        for n in (8, 9):
            put(f"lo{n}t", lo_abstract_doc(n))
    elif workload == "arrows-search":
        put("lo8", catalog=catalogs.lo_catalog(8))
        put("lo10", catalog=[catalogs.linear_order(n) for n in (2, 3, 10)])
        put("k5", catalog=[catalogs.complete_graph(n) for n in range(1, 6)])
    elif workload == "graphs-iso":
        put("skel", catalog=[catalogs.graph(n, edges, name=name)
                             for name, n, edges in skeleton_graphs(seed)])
        counts: dict[int, int] = {}
        g4 = []
        for n, edges in small_graph_classes(4):
            g4.append(catalogs.graph(n, edges, name=f"G{n}_{counts.get(n, 0)}"))
            counts[n] = counts.get(n, 0) + 1
        put("g4", catalog=g4)
        paths["g5_out"] = os.path.join(root, "g5.json")
    else:
        raise KeyError(workload)
    return paths


# -- questions -----------------------------------------------------------------


def arrow(catalog, c, b, a, k, t, *extra):
    return ("arrow", "--catalog", catalog, "--C", c, "--B", b, "--A", a,
            "-k", str(k), "-t", str(t)) + extra


def questions(workload: str, seed: int, p: dict[str, str]) -> list[Question]:
    s = ("--seed", str(seed))
    if workload == "category-lo":
        return [
            Question("cat-check-lo5", (HOLDS,),
                     "finite chains: embeddings are monic, any two chains "
                     "embed in a longer one, joint covers are unions of images",
                     s + ("cat", "check", "--catalog", p["lo5"])),
            Question("wap-lo7", (HOLDS,),
                     "finite linear orders have the amalgamation property "
                     "(Fraisse); every cospan amalgamates within the catalog",
                     s + ("amalgam", "--wap", "--catalog", p["lo7"])),
            Question("two-of-3-lo6", (FAILS,),
                     "counting: any pair of the failing extensions of LO2 "
                     "needs at least 10 points, the catalog stops at 6",
                     s + ("amalgam", "--two-of-k", "3", "--A", "LO2",
                          "--catalog", p["lo6"]),
                     check=verify.chain_two_of_k_failure(6)),
            Question("expand-lo4-3", (HOLDS,),
                     "colorings of points: restriction along an embedding is "
                     "a function, so the forgetful functor is reasonable with "
                     "unique restrictions",
                     s + ("expand", "check", "--catalog", p["lo4"],
                          "--degrees", p["deg"])),
            Question("wfcheck-lo8", (HOLDS,),
                     "the chain LO1..LO8 is cofinal and absorbs by "
                     "initial-segment inclusions",
                     s + ("seq", "wfcheck", "--catalog", p["lo8"],
                          "--seq", p["chain"], "--mmax", "7", "--kmax", "7")),
        ]
    if workload == "category-table":
        t8, t9 = p["lo8t"], p["lo9t"]
        return [
            Question("cat-check-lo9t", (HOLDS,),
                     "same category as the embedding route: axioms hold",
                     s + ("cat", "check", "--abstract", "--catalog", t9)),
            Question("wap-lo8t", (HOLDS,),
                     "embedding route verdict (amalgamation of finite chains)",
                     s + ("amalgam", "--wap", "--abstract", "--catalog", t8)),
            Question("two-of-3-lo8t", (FAILS,),
                     "counting: the failing pairs need at least 10 points",
                     s + ("amalgam", "--two-of-k", "3", "--A", "LO2",
                          "--abstract", "--catalog", t8),
                     check=verify.chain_two_of_k_failure(8)),
            Question("cat-op-lo9t", (HOLDS,),
                     "duality: op is an involution and swaps mono and epi",
                     s + ("cat", "op", "--abstract", "--catalog", t9)),
        ]
    if workload == "arrows-search":
        lo8, lo10, k5 = p["lo8"], p["lo10"], p["k5"]
        return [
            Question("lo8-lo3-lo2-2-1", (HOLDS,), "R(3,3)=6",
                     s + arrow(lo8, "LO8", "LO3", "LO2", 2, 1)),
            Question("lo8-lo3-lo2-3-1", (FAILS,), "R(3,3,3)=17",
                     s + arrow(lo8, "LO8", "LO3", "LO2", 3, 1)),
            Question("lo8-lo4-lo2-2-1", (FAILS,), "R(4,4)=18",
                     s + arrow(lo8, "LO8", "LO4", "LO2", 2, 1)),
            Question("lo7-lo4-lo3-2-1", (FAILS,), "R(4,4;3)=13",
                     s + arrow(lo8, "LO7", "LO4", "LO3", 2, 1)),
            Question("lo5-lo3-lo2-3-2", (HOLDS,),
                     "a rainbow-triangle 3-coloring of K5 would need its 10 "
                     "edges in three matchings of size at most 2",
                     s + arrow(lo8, "LO5", "LO3", "LO2", 3, 2)),
            Question("oracle-lo6-lo3-lo2-2-1", (HOLDS,),
                     "R(3,3)=6, by scanning all 2^15 colorings",
                     s + arrow(lo8, "LO6", "LO3", "LO2", 2, 1, "--oracle")),
            Question("budget-lo10-lo3-lo2-3-1", (UNKNOWN, FAILS),
                     "R(3,3,3)=17 > 10, so HOLDS is wrong; the node budget "
                     "may stop the search first",
                     ("--budget-nodes", "200000") + s
                     + arrow(lo10, "LO10", "LO3", "LO2", 3, 1)),
            Question("degree-lo2-lo8", (HOLDS,),
                     "interval [2,2]: LO5 -> (LO3)^LO2_{3,2} holds and "
                     "R(3,3,3)=17 > 8 refutes t=1",
                     s + ("degree", "--catalog", lo8, "--A", "LO2",
                          "--kmax", "3", "--bmax", "3"),
                     check=verify.degree_interval(2, 2)),
            Question("k5-k3-k1-2-1", (HOLDS,),
                     "pigeonhole: 2 colors on 5 vertices give 3 alike",
                     s + arrow(k5, "K5", "K3", "K1", 2, 1)),
            Question("k5-k3-k2-3-2", (FAILS,),
                     "bad coloring checked by direct evaluation",
                     s + arrow(k5, "K5", "K3", "K2", 3, 2)),
            Question("k5-k3-k2-3-2-nosym", (FAILS,),
                     "bad coloring checked by direct evaluation",
                     s + arrow(k5, "K5", "K3", "K2", 3, 2, "--no-symmetry")),
        ]
    if workload == "graphs-iso":
        return [
            Question("graph-catalog-5", (HOLDS,),
                     "OEIS A000088: 1, 2, 4, 11, 34 classes; pairwise "
                     "non-isomorphic by networkx VF2",
                     library=lambda: generate_graph_catalog(5, p["g5_out"]),
                     check=verify.graph_catalog_classes([1, 2, 4, 11, 34])),
            Question("skeleton-seeded", (HOLDS,),
                     "each graph and its relabelled copy form one class, "
                     "classes checked by networkx VF2",
                     s + ("cat", "skeleton", "--catalog", p["skel"]),
                     check=verify.skeleton_classes(p["skel"])),
            Question("whom-e4", (HOLDS,),
                     "E4 is ultrahomogeneous, so HOLDS under either reading",
                     s + ("seq", "whom", "--catalog", p["g4"],
                          "--obj", "G4_0")),
        ]
    raise KeyError(workload)


def generate_graph_catalog(max_n: int, path: str):
    """Library question: build and save graph_catalog(max_n)."""
    from ramsey_workbench import catalogs

    catalog = catalogs.graph_catalog(max_n)
    catalogs.save_catalog(catalog, path)
    return HOLDS, catalog


WORKLOADS = ("category-lo", "category-table", "arrows-search", "graphs-iso")
