"""Joint embedding, (weak) amalgamation, and 2-out-of-k amalgamation.

Every quantifier ranges over the loaded catalog: an instance fails when no
amalgamating cocone exists among catalog objects, and a property holds when
every catalog instance has one.  Witnesses are morphism triples (D, r, s)
whose defining equation replays by composition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import FAILS, HOLDS
from .arrows import arrow_check
from .category import FiniteCategory
from .errors import ArrowDoesNotHold, FactorSearchFailed


@dataclass
class AmalgamWitness:
    g: str
    h: str
    d: str
    r: str
    s: str


@dataclass
class AmalgamationReport:
    property: str
    status: str
    witnesses: list = field(default_factory=list)
    failure: dict | None = None
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "property": self.property,
            "status": self.status,
            "witnesses": [w.__dict__ if hasattr(w, "__dict__") else w
                          for w in self.witnesses],
            "failure": self.failure,
            "notes": self.notes,
        }


class AmalgamEngine:
    """Shared memo for amalgam searches over one category."""

    def __init__(self, cat: FiniteCategory):
        self.cat = cat
        self._memo: dict[tuple[str, str], tuple | None] = {}

    def amalgamate(self, u: str, v: str):
        """First (D, r, s) with r.u = s.v, scanning catalog order; None if
        no catalog object amalgamates the cospan."""
        key = (u, v)
        if key in self._memo:
            return self._memo[key]
        cat = self.cat
        bu, bv = cat.target(u), cat.target(v)
        found = None
        for d in cat.objects:
            for r in cat.hom(bu, d):
                ru = cat.compose(r, u)
                for s in cat.hom(bv, d):
                    if ru == cat.compose(s, v):
                        found = (d, r, s)
                        break
                if found:
                    break
            if found:
                break
        self._memo[key] = found
        return found


def is_amalgamation_arrow(cat: FiniteCategory, f: str, *,
                          engine: AmalgamEngine | None = None) -> AmalgamationReport:
    """Does every pair of extensions of target(f) amalgamate over f?

    Scans all g: A'->B, h: A'->C over the catalog; the required equation is
    r.g.f = s.h.f, so the amalgam only has to agree on the image of f.
    """
    engine = engine or AmalgamEngine(cat)
    cat = engine.cat
    a_prime = cat.target(f)
    witnesses = []
    for b in cat.objects:
        for g in cat.hom(a_prime, b):
            gf = cat.compose(g, f)
            for c in cat.objects:
                for h in cat.hom(a_prime, c):
                    hf = cat.compose(h, f)
                    hit = engine.amalgamate(gf, hf)
                    if hit is None:
                        return AmalgamationReport(
                            "amalgamation-arrow", FAILS,
                            failure={"f": f, "g": g, "h": h,
                                     "reason": "no amalgam in catalog"})
                    d, r, s = hit
                    witnesses.append(AmalgamWitness(g, h, d, r, s))
    return AmalgamationReport("amalgamation-arrow", HOLDS, witnesses)


def wap_check(cat: FiniteCategory) -> AmalgamationReport:
    """Weak amalgamation: every object admits some amalgamation arrow."""
    engine = AmalgamEngine(cat)
    arrows = {}
    for a in cat.objects:
        found = None
        for a_prime in cat.objects:
            for f in cat.hom(a, a_prime):
                if is_amalgamation_arrow(cat, f, engine=engine).status == HOLDS:
                    found = {"A": a, "Aprime": a_prime, "f": f}
                    break
            if found:
                break
        if found is None:
            return AmalgamationReport(
                "weak-amalgamation", FAILS,
                failure={"A": a, "reason": "no amalgamation arrow in catalog"})
        arrows[a] = found
    return AmalgamationReport("weak-amalgamation", HOLDS,
                              witnesses=[arrows[a] for a in cat.objects])


def two_of_k_check(cat: FiniteCategory, a: str, k: int) -> AmalgamationReport:
    """Among any k extensions of a, some pair amalgamates over a."""
    if k < 2:
        raise ValueError("k must be at least 2")
    engine = AmalgamEngine(cat)
    pool = [g for b in cat.objects for g in cat.hom(a, b)]
    pair_ok: dict[tuple[str, str], tuple | None] = {}
    for u, v in itertools.product(pool, repeat=2):
        pair_ok[(u, v)] = engine.amalgamate(u, v)
    witnesses = []
    for tup in itertools.product(pool, repeat=k):
        hit = None
        for i, j in itertools.combinations(range(k), 2):
            found = pair_ok[(tup[i], tup[j])]
            if found is not None:
                hit = {"tuple": list(tup), "i": i, "j": j,
                       "D": found[0], "r": found[1], "s": found[2]}
                break
        if hit is None:
            return AmalgamationReport(
                "two-out-of-k", FAILS,
                failure={"A": a, "k": k, "tuple": list(tup)})
        witnesses.append(hit)
    return AmalgamationReport("two-out-of-k", HOLDS, witnesses,
                              notes=[f"tuples checked: {len(pool) ** k}"])


@dataclass
class PairExtraction:
    i: int
    j: int
    g: str              # factorization witness in hom(B_i, D)
    x: str              # copy of C in D avoiding color j
    lhs: str            # g . f_i
    rhs: str            # x . g_j . f_j
    coloring: dict


def extract_amalgamable_pair(cat: FiniteCategory, a: str, k: int, c: str,
                             d: str, g_list: list[str],
                             f_list: list[str]) -> PairExtraction:
    """Executable transcript of the degree-to-amalgamation argument.

    Given f_i: A -> B_i, g_i: B_i -> C, and D with D -> (C)^A_{k,k-1}:
    color each h in hom(A, D) by the least i < k-1 such that h factors
    through f_i (last color otherwise), take a copy x of C in D avoiding
    some color j, read off i = color(x.g_j.f_j), and return the pair (i, j)
    with the factorization witness.  The defining equation g.f_i = x.g_j.f_j
    replays by composition.
    """
    if len(g_list) != k or len(f_list) != k:
        raise ValueError("need exactly k composable pairs")
    for fi, gi in zip(f_list, g_list):
        if cat.source(fi) != a or cat.target(fi) != cat.source(gi):
            raise ValueError("f_i and g_i do not line up")
        if cat.target(gi) != c:
            raise ValueError("g_i must land in C")

    verdict = arrow_check(cat, d, c, a, k, k - 1)
    if verdict.status != HOLDS:
        raise ArrowDoesNotHold(
            f"{d} -> ({c})^{a}_({k},{k - 1}) is {verdict.status}")

    hom_ad = cat.hom(a, d)
    factor_cache: dict[tuple[str, int], str | None] = {}

    def factor_through(h: str, i: int) -> str | None:
        key = (h, i)
        if key not in factor_cache:
            found = None
            b_i = cat.target(f_list[i])
            for g in cat.hom(b_i, d):
                if cat.compose(g, f_list[i]) == h:
                    found = g
                    break
            factor_cache[key] = found
        return factor_cache[key]

    def chi(h: str) -> int:
        for i in range(k - 1):
            if factor_through(h, i) is not None:
                return i
        return k - 1

    coloring = {h: chi(h) for h in hom_ad}

    x_found = None
    for x in cat.hom(c, d):
        seen = {coloring[cat.compose(x, e)] for e in cat.hom(a, c)}
        if len(seen) <= k - 1:
            x_found = (x, seen)
            break
    if x_found is None:
        raise ArrowDoesNotHold("no copy of C sees at most k-1 colors; "
                               "arrow verdict was inconsistent")
    x, seen = x_found
    avoided = [j for j in range(k) if j not in seen]
    j = avoided[0]

    rhs = cat.compose(x, cat.compose(g_list[j], f_list[j]))
    i = coloring[rhs]
    if i == j:
        raise FactorSearchFailed("extracted pair is degenerate; "
                                 "precondition violated")
    if i == k - 1:
        # the avoided color j < k-1 forces a factorization below k-1
        raise FactorSearchFailed("composite landed in the residual color")
    g = factor_through(rhs, i)
    if g is None:
        raise FactorSearchFailed("coloring promised a factorization "
                                 "that does not exist")
    lhs = cat.compose(g, f_list[i])
    assert lhs == rhs
    return PairExtraction(i, j, g, x, lhs, rhs, coloring)


def find_extraction_instance(cat: FiniteCategory, a: str, k: int, *,
                             node_budget: int | None = None):
    """Search the catalog for (C, D, g_list, f_list) on which the pair
    extraction runs: a joint extension C of k copies of extensions of a,
    and a D with the required arrow."""
    pool = [f for b in cat.objects for f in cat.hom(a, b)]
    for f_tuple in itertools.combinations_with_replacement(pool, k):
        targets = [cat.target(f) for f in f_tuple]
        for c in cat.objects:
            gs = []
            for b in targets:
                hom = cat.hom(b, c)
                if not hom:
                    gs = None
                    break
                gs.append(hom[0])
            if gs is None:
                continue
            for d in cat.objects:
                verdict = arrow_check(cat, d, c, a, k, k - 1,
                                      node_budget=node_budget)
                if verdict.status == HOLDS:
                    return a, k, c, d, list(gs), list(f_tuple)
    return None


def failure_chain(cat: FiniteCategory, a: str, depth: int) -> list[str]:
    """Iterated non-amalgamable extensions starting from the identity.

    While the current arrow f is not an amalgamation arrow, take the first
    witnessing pair (g, h) whose composites with f do not amalgamate, record
    g.f, and continue from h.f.  The recorded arrows are pairwise
    non-amalgamable; reaching length k refutes 2-out-of-k at this depth.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    engine = AmalgamEngine(cat)
    f = cat.identity(a)
    chain: list[str] = []
    for _ in range(depth):
        report = is_amalgamation_arrow(cat, f, engine=engine)
        if report.status == HOLDS:
            break
        g, h = report.failure["g"], report.failure["h"]
        chain.append(cat.compose(g, f))
        f = cat.compose(h, f)
    return chain


def verify_pairwise_non_amalgamable(cat: FiniteCategory, arrows: list[str]) -> bool:
    engine = AmalgamEngine(cat)
    for u, v in itertools.combinations(arrows, 2):
        if engine.amalgamate(u, v) is not None:
            return False
    return True
