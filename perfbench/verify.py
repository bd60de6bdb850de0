"""Checks of the program's answers that do not use the program's own code.

Morphism ids ``X->Y#k`` of the catalogs used here are decoded from first
principles: increasing maps between chains ``LOa -> LOb`` are the a-subsets of
range(b) in lex order, and embeddings between complete graphs ``Ka -> Kb``
are the injective maps, i.e. the a-permutations of range(b) in lex order.
Graph isomorphism is decided by networkx VF2.
"""

from __future__ import annotations

import itertools
import json
import re

_MID = re.compile(r"^(LO|K)(\d+)->(LO|K)(\d+)#(\d+)$")


def _maps(kind: str, a: int, b: int) -> list[tuple[int, ...]]:
    if kind == "LO":
        return list(itertools.combinations(range(b), a))
    return list(itertools.permutations(range(b), a))


def _obj(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"(LO|K)(\d+)", name)
    if m is None:
        raise ValueError(f"no closed form for object {name!r}")
    return m.group(1), int(m.group(2))


def _decode(mid: str) -> tuple[str, int, int, tuple[int, ...]]:
    m = _MID.match(mid)
    if m is None or m.group(1) != m.group(3):
        raise ValueError(f"no closed form for morphism {mid!r}")
    kind, a, b, k = m.group(1), int(m.group(2)), int(m.group(4)), int(m.group(5))
    return kind, a, b, _maps(kind, a, b)[k]


def bad_coloring(cert: dict) -> list[str]:
    """Every copy of B in C must see more than t colors of hom(A, C)."""
    kind, c = _obj(cert["C"])
    _, b = _obj(cert["B"])
    _, a = _obj(cert["A"])
    t, values = cert["t"], cert["values"]
    domain = [f"{kind}{a}->{kind}{c}#{k}" for k in range(len(_maps(kind, a, c)))]
    if cert["domain"] != domain:
        return [f"{cert['kind']}: domain is not hom({cert['A']}, {cert['C']})"]
    if len(values) != len(domain) or any(not 0 <= v < cert["k"] for v in values):
        return [f"{cert['kind']}: coloring is not a {cert['k']}-coloring"]
    color = dict(zip(_maps(kind, a, c), values))
    for w in _maps(kind, b, c):
        seen = {color[tuple(w[i] for i in f)] for f in _maps(kind, a, b)}
        if len(seen) <= t:
            return [f"{cert['kind']}: copy {w} of {cert['B']} in {cert['C']} "
                    f"sees {len(seen)} <= {t} colors"]
    return []


def report_certificates(report: dict) -> list[str]:
    """Re-check every bad-coloring certificate of a report."""
    problems = []
    for cert in report.get("certificates", []):
        if cert.get("type") == "bad-coloring":
            problems += bad_coloring(cert)
    return problems


def _chain_amalgam_size(u: tuple[int, ...], b: int,
                        v: tuple[int, ...], c: int) -> int:
    """Least chain amalgamating u: LOa -> LOb and v: LOa -> LOc.

    Points of B and of C in the same gap of the image of A may be identified,
    so each gap needs the larger of the two gap sizes.
    """
    def gaps(m, n):
        ends = (-1,) + m + (n,)
        return [ends[i + 1] - ends[i] - 1 for i in range(len(ends) - 1)]

    return len(u) + sum(max(x, y) for x, y in zip(gaps(u, b), gaps(v, c)))


def chain_two_of_k_failure(max_size: int):
    """The reported tuple must hold no pair amalgamable within ``max_size``."""
    def check(report: dict) -> list[str]:
        failure = report["verdicts"][0]["failure"]
        decoded = [_decode(mid) for mid in failure["tuple"]]
        problems = []
        for (_, _, b, u), (_, _, c, v) in itertools.combinations(decoded, 2):
            need = _chain_amalgam_size(u, b, v, c)
            if need <= max_size:
                problems.append(f"pair {u}, {v} amalgamates in LO{need}")
        return problems
    return check


def degree_interval(lower: int, upper: int):
    def check(report: dict) -> list[str]:
        got = report["verdicts"][0]["interval"]
        if (got["lower"], got["upper"]) != (lower, upper):
            return [f"interval [{got['lower']},{got['upper']}] "
                    f"!= [{lower},{upper}]"]
        return []
    return check


def _nx_graph(size: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(size))
    g.add_edges_from(tuple(e) for e in edges)
    return g


def graph_catalog_classes(counts: list[int]):
    """Class counts per size and pairwise non-isomorphism within a size."""
    def check(catalog) -> list[str]:
        import networkx as nx

        by_size: dict[int, list] = {}
        for s in catalog:
            by_size.setdefault(s.size, []).append(_nx_graph(s.size, s.rel("edge")))
        got = [len(by_size.get(n, [])) for n in range(1, len(counts) + 1)]
        if got != counts:
            return [f"class counts {got} != {counts}"]
        for graphs in by_size.values():
            for g, h in itertools.combinations(graphs, 2):
                if nx.is_isomorphic(g, h):
                    return ["two catalog graphs are isomorphic"]
        return []
    return check


def skeleton_classes(catalog_path: str):
    """Representatives must match VF2 classes, and each iso must be one."""
    def check(report: dict) -> list[str]:
        import networkx as nx

        with open(catalog_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        edges = {s["name"]: {tuple(e) for e in s["relations"]["edge"]}
                 for s in doc["structures"]}
        graphs = {s["name"]: _nx_graph(s["size"], edges[s["name"]])
                  for s in doc["structures"]}
        verdict = report["verdicts"][0]
        rep, isos = verdict["representatives"], verdict["isos"]
        problems = []
        for x, y in itertools.combinations(graphs, 2):
            if (rep[x] == rep[y]) != nx.is_isomorphic(graphs[x], graphs[y]):
                problems.append(f"{x} and {y} classed against VF2")
        for x, m in isos.items():
            image = {(m[u], m[v]) for u, v in edges[x]}
            if sorted(m) != list(range(len(m))) or image != edges[rep[x]]:
                problems.append(f"iso of {x} onto {rep[x]} is not one")
        return problems
    return check
