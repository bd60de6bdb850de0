"""Catalog builders and the JSON catalog file format.

A catalog is a finite list of structures over one signature, in a fixed
order.  That order is the canonical object order used by every search in
the engine ("first witness", "first counterexample", and so on).
"""

from __future__ import annotations

import json

from .errors import WorkbenchError, check_field, check_type
from .structures import Signature, Structure, _merge_orbits, canonical_key

LO_SIGNATURE = Signature(relations=(("lt", 2),))
GRAPH_SIGNATURE = Signature(relations=(("edge", 2),))


def linear_order(n: int, name: str | None = None) -> Structure:
    """The n-element chain 0 < 1 < ... < n-1."""
    table = {(i, j) for i in range(n) for j in range(n) if i < j}
    return Structure.make(LO_SIGNATURE, n, {"lt": table}, name=name or f"LO{n}")


def lo_catalog(max_n: int, min_n: int = 1) -> list[Structure]:
    return [linear_order(n) for n in range(min_n, max_n + 1)]


def graph(n: int, edges, name: str | None = None) -> Structure:
    """Simple undirected graph; each edge is stored in both directions."""
    table = set()
    for u, v in edges:
        if u == v:
            raise WorkbenchError("loops are not allowed")
        table.add((u, v))
        table.add((v, u))
    return Structure.make(GRAPH_SIGNATURE, n, {"edge": table}, name=name)


def path_graph(n: int, name: str | None = None) -> Structure:
    return graph(n, [(i, i + 1) for i in range(n - 1)], name=name or f"P{n}")


def complete_graph(n: int, name: str | None = None) -> Structure:
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                 name=name or f"K{n}")


def empty_graph(n: int, name: str | None = None) -> Structure:
    return graph(n, [], name=name or f"E{n}")


def _pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j < n, in lex order: bit b of an edge mask."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def all_graphs(n: int) -> list[Structure]:
    """One representative per isomorphism class of simple graphs on n vertices.

    Sorted by canonical key, so sparser graphs come first.  Each class is
    represented by its least edge mask, where bit b of the mask is set when
    ``_pairs(n)[b]`` is an edge.

    The classes on k vertices are generated from those on k - 1 by vertex
    extension: shift each representative H up by one vertex, join a new
    vertex 0 to each subset S of {1..k-1}, and keep, per certificate (see
    ``_certificate``), the candidate of least mask.  That candidate is the
    least mask of its class.  The pairs (0, s) are the k - 1 lowest bits of a
    mask and the pairs of {1..k-1} keep their lex order above them, so the
    least-mask member G of a class is vertex 0 joined to G - 0 shifted, and
    G - 0 must be the least mask of its own class: a smaller isomorphic copy
    would, with vertex 0 joined to the corresponding neighbours, give a
    smaller mask isomorphic to G.  So G is among the candidates, and no
    candidate in its class has a smaller mask.  Hence every class is found
    with the same representative as a scan of all 2^C(k,2) masks in
    increasing order.

    As in canonical augmentation (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 1998), H is joined only to the least subset
    mask s of each orbit of the automorphisms of H that its certificate
    search found.  An automorphism g of H, with vertex 0 fixed, carries the
    candidate joined to S onto the one joined to g(S), so the least mask of
    a class, high | s, has the least s of its orbit.  The automorphisms found
    may generate only a subgroup of Aut(H), whose finer orbits cost
    certificates but lose no class.

    The argument asks only that equal certificates mean isomorphic graphs and
    isomorphic graphs equal certificates, so any complete invariant keeps the
    same least-mask representatives.  The certificate orders classes
    arbitrarily, so it is no sort key: the representatives on n vertices are
    sorted by ``canonical_key``, one call per class, which gives the order,
    and so the ``G{n}_i`` names, of the scan sorted by canonical key.
    """
    if n < 0:
        raise WorkbenchError(f"a graph cannot have {n} vertices")
    if n <= 1:
        return [graph(n, [], name=f"G{n}_0")]
    reps = {0: []}                  # the graph on one vertex: mask -> auts
    for k in range(2, n + 1):
        pairs = _pairs(k)
        # bit b of a (k-1)-vertex mask lands on bit lift[b] after the shift
        lift = [pairs.index((i + 1, j + 1)) for i, j in _pairs(k - 1)]
        least: dict[int, tuple[int, list[list[int]]]] = {}
        for h, auts in reps.items():
            high = sum(1 << lift[b] for b in range(len(lift)) if h >> b & 1)
            rows = _adjacency(pairs, k, high)
            # bit v - 1 of s joins vertex 0 to vertex v; an automorphism of H
            # maps the vertex subsets among themselves
            root = list(range(1 << (k - 1)))
            for gamma in auts:
                _merge_orbits(root, [sum(1 << gamma[u] for u in range(k - 1)
                                         if s >> u & 1) for s in range(len(root))])
            for s in [s for s, r in enumerate(root) if r == s]:
                cert, found = _certificate([s << 1] + [
                    row | (s >> (v - 1) & 1) for v, row in enumerate(rows) if v])
                mask = high | s
                if cert not in least or mask < least[cert][0]:
                    least[cert] = (mask, found)
        reps = dict(least.values())
    masks = sorted(reps, key=lambda m: canonical_key(graph(n, _edges(pairs, m))))
    return [graph(n, _edges(pairs, m), name=f"G{n}_{i}")
            for i, m in enumerate(masks)]


def _adjacency(pairs, n: int, mask: int) -> list[int]:
    """Bit u of entry v is set when {u, v} is an edge of the mask."""
    adj = [0] * n
    for b, (i, j) in enumerate(pairs):
        if mask >> b & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _refine(adj: list[int], cells: list[list[int]]) -> list[list[int]]:
    """The coarsest equitable ordered partition refining ``cells``.

    Each round splits every cell by the neighbour counts of its vertices
    into each cell, in cell order, and puts the parts in increasing order of
    those counts where the cell stood.  Every choice rests on cell positions
    and counts, never on vertex labels, so relabelling the graph relabels
    the result.
    """
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            parts: dict[tuple, list[int]] = {}
            for v in cell:
                row = adj[v]
                parts.setdefault(tuple([(row & m).bit_count() for m in masks]),
                                 []).append(v)
            out.extend(parts[c] for c in sorted(parts))
        if len(out) == len(cells):
            return cells
        cells = out


def _certificate(adj: list[int]) -> tuple[int, list[list[int]]]:
    """A complete isomorphism invariant of the graph with adjacency rows adj,
    and the automorphisms (vertex -> image) its search found.

    Individualization-refinement, as in McKay and Piperno, "Practical graph
    isomorphism, II" (J. Symbolic Comput. 2014): refine to an equitable
    ordered partition, then branch on each vertex of the first smallest
    non-singleton cell, put first in a cell of its own, and refine again.
    Each leaf is a discrete partition, that is an order of the vertices, and
    the certificate is the least adjacency matrix, read row by row as one
    integer, of the graph relabelled by a leaf's order.  The tree is built
    from label-free choices, so isomorphic graphs have the same leaves and
    the same certificate; equal certificates are equal relabellings, so the
    graphs are isomorphic.

    Two leaves with one matrix give an automorphism (best leaf's i-th vertex
    to this leaf's).  A child is skipped when an automorphism found so far
    that fixes the individualized vertices maps a smaller vertex of the cell
    onto it: its subtree is the image of that vertex's, which was explored,
    so it holds only matrices already seen.  That pruning, as in
    ``structures.canonical_form``, never changes the least matrix.
    """
    n = len(adj)
    best, best_order = -1, []
    auts: list[list[int]] = []

    def leaf(order: list[int]) -> None:
        nonlocal best, best_order
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        code = 0
        for v in order:
            row = 0
            for u in range(n):
                if adj[v] >> u & 1:
                    row |= 1 << position[u]
            code = code << n | row
        if best < 0 or code < best:
            best, best_order = code, order
        elif code == best:
            gamma = [0] * n
            for x, y in zip(best_order, order):
                gamma[x] = y
            auts.append(gamma)

    def search(cells: list[list[int]], fixed: list[int]) -> None:
        if len(cells) == n:
            leaf([c[0] for c in cells])
            return
        target = min((len(c), i) for i, c in enumerate(cells) if len(c) > 1)[1]
        cell = cells[target]
        root = None
        merged = 0
        for v in cell:
            for gamma in auts[merged:]:
                if all(gamma[u] == u for u in fixed):
                    root = root or list(range(n))
                    _merge_orbits(root, gamma)
            merged = len(auts)
            if root is not None and root[v] != v:
                continue
            rest = [u for u in cell if u != v]
            search(_refine(adj, cells[:target] + [[v], rest] + cells[target + 1:]),
                   fixed + [v])

    search(_refine(adj, [list(range(n))]), [])
    return best, auts


def _edges(pairs, mask: int) -> list[tuple[int, int]]:
    return [p for b, p in enumerate(pairs) if mask >> b & 1]


def graph_catalog(max_n: int, min_n: int = 1) -> list[Structure]:
    """All isomorphism types of simple graphs with min_n..max_n vertices."""
    out: list[Structure] = []
    for n in range(min_n, max_n + 1):
        out.extend(all_graphs(n))
    return out


def catalog_to_json(catalog: list[Structure]) -> dict:
    if not catalog:
        return {"signature": {"relations": [], "constants": []}, "structures": []}
    sig = catalog[0].signature
    return {
        "signature": {
            "relations": [{"name": n, "arity": a} for n, a in sig.relations],
            "constants": list(sig.constants),
        },
        "structures": [
            {
                "name": s.name or f"S{i}",
                "size": s.size,
                "relations": {
                    rname: [list(t) for t in sorted(table)]
                    for rname, table in s.relations
                },
                "constants": {cname: v for cname, v in s.constants},
            }
            for i, s in enumerate(catalog)
        ],
    }


def _check(value, kind: type, what: str):
    return check_type(value, kind, f"catalog {what}")


def catalog_from_json(doc: dict) -> list[Structure]:
    """The catalog a JSON document describes.

    Every field is type-checked here, and a missing one is named.
    """
    doc = _check(doc, dict, "document")
    sig_doc = check_field(doc, "signature", dict, "catalog signature")
    relations = []
    for r in check_field(sig_doc, "relations", list, "catalog relation list"):
        r = _check(r, dict, "relation symbol")
        relations.append((check_field(r, "name", str, "catalog relation name"),
                          check_field(r, "arity", int, "catalog arity")))
    sig = Signature(
        relations=tuple(relations),
        constants=tuple(_check(c, str, "constant symbol") for c in
                        _check(sig_doc.get("constants", []), list, "constant list")),
    )
    out = []
    names = set()
    for spec in check_field(doc, "structures", list, "catalog structure list"):
        spec = _check(spec, dict, "structure")
        name = check_field(spec, "name", str, "catalog structure name")
        if name in names:
            raise WorkbenchError(f"duplicate structure name {name!r}")
        names.add(name)
        size = check_field(spec, "size", int, f"catalog size of {name}")
        if size < 0:
            raise WorkbenchError(f"catalog size of {name} is negative")
        tables = {}
        for rname, table in _check(spec.get("relations", {}), dict,
                                   f"relations of {name}").items():
            rows = _check(table, list, f"{rname} table of {name}")
            if not all(type(t) is list and all(type(v) is int for v in t)
                       for t in rows):
                raise WorkbenchError(f"catalog {rname} table of {name} must "
                                     f"be a list of int lists")
            tables[rname] = [tuple(t) for t in rows]
        constants = _check(spec.get("constants", {}), dict, f"constants of {name}")
        for cname, v in constants.items():
            _check(v, int, f"constant {cname} of {name}")
        stray = ({*tables} - {r for r, _ in sig.relations}
                 | {*constants} - {*sig.constants})
        if stray:
            raise WorkbenchError(f"catalog structure {name} names symbols "
                                 f"{sorted(stray)} outside the signature")
        out.append(Structure.make(sig, size, tables, constants, name=name))
    return out


def save_catalog(catalog: list[Structure], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog_to_json(catalog), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_catalog(path) -> list[Structure]:
    with open(path, encoding="utf-8") as fh:
        return catalog_from_json(json.load(fh))
