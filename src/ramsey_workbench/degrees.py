"""Catalog-relative degree intervals.

The true degree of an object quantifies over an unbounded class, so every
verdict here is stamped with the catalog and color bound it was computed
against; the engine never claims an absolute degree.  An interval states
only the claim, and a report's certificates hold its evidence once: a bad
coloring per catalog object for the lower end, and per (target, colors)
pair an ``exhaustion`` whose C is the upper end's witness.  Replay evaluates
each bad coloring directly; it checks that an exhaustion names catalog
objects, but does not re-decide it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrows import (FAILS, HOLDS, TIME_OUT, UNKNOWN, Coloring, arrow_check)
from .category import FiniteCategory


@dataclass
class UpperCertificate:
    b: str
    k: int
    witness: str


@dataclass
class LowerCertificate:
    b: str
    k: int
    bad_colorings: dict[str, Coloring]   # per catalog object


@dataclass
class DegreeInterval:
    obj: str
    lower: int
    upper: int | None
    lower_cert: LowerCertificate | None
    upper_certs: list[UpperCertificate]
    catalog: list[str]
    k_max: int
    b_range: list[str]
    unknowns: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "object": self.obj,
            "lower": self.lower,
            "upper": self.upper,
            "lower_certificate": None if self.lower_cert is None else {
                "B": self.lower_cert.b,
                "k": self.lower_cert.k,
            },
            "catalog": self.catalog,
            "k_max": self.k_max,
            "b_range": self.b_range,
            "unknowns": self.unknowns,
        }


def _decide(memo: dict | None, cat: FiniteCategory, c: str, b: str, a: str,
            k: int, t: int, node_budget: int | None, deadline: float | None):
    """C -> (B)^A_{k,t} as memo holds it, else searched and kept in memo
    (if there is one) unless the deadline stopped the search."""
    key, memo = (c, b, a, k, t), {} if memo is None else memo
    verdict = memo.get(key) or arrow_check(
        cat, c, b, a, k, t, node_budget=node_budget, deadline=deadline)
    if verdict.note != TIME_OUT:
        memo[key] = verdict
    return verdict


def degree_upper(cat: FiniteCategory, a: str, k_max: int, *,
                 bs: list[str] | None = None,
                 node_budget: int | None = None,
                 deadline: float | None = None, memo: dict | None = None):
    """Least n such that every (B, k <= k_max) has a catalog witness C with
    C -> (B)^A_{k,n}, as (n, certificates, stopped searches); n is None
    when no n up to the largest hom(A, -) works.  The searches share the
    deadline, so the first one it stops ends the question with n None.

    The least n is relative to the catalog and can exceed the true small
    Ramsey degree when the witnesses lie beyond it: LO2 has degree 1 among
    all chains, but at k_max = 3 in lo_catalog(7) the answer is 2, since
    bound 1 for LO3 needs a 17-chain (R(3,3,3) = 17).
    """
    targets = [b for b in (bs if bs is not None else cat.objects)
               if cat.hom(a, b)]
    sizes = [len(cat.hom(a, c)) for c in cat.objects if cat.hom(a, c)]
    unknowns: list[str] = []
    for n in range(1, max(sizes, default=0) + 1):
        certs: list[UpperCertificate] = []
        all_found = True
        for b in targets:
            for k in range(1, k_max + 1):
                witness = None
                for c in cat.objects:
                    verdict = _decide(memo, cat, c, b, a, k, n,
                                      node_budget, deadline)
                    if verdict.status == HOLDS:
                        witness = c
                        break
                    if verdict.status == UNKNOWN:
                        unknowns.append(f"{c}:{b}:{k}:{n}")
                        if verdict.note == TIME_OUT:
                            return None, [], unknowns
                if witness is None:
                    all_found = False
                    break
                certs.append(UpperCertificate(b, k, witness))
            if not all_found:
                break
        if all_found:
            return n, certs, unknowns
    return None, [], unknowns


def degree_lower(cat: FiniteCategory, a: str, k: int, n: int, *,
                 bs: list[str] | None = None,
                 node_budget: int | None = None,
                 deadline: float | None = None, memo: dict | None = None):
    """A target B making the arrow fail at t = n-1 for every catalog C,
    which establishes degree >= n relative to this catalog."""
    if n < 2:
        raise ValueError("a lower bound below 2 carries no content")
    targets = [b for b in (bs if bs is not None else cat.objects)
               if cat.hom(a, b)]
    for b in targets:
        bad: dict[str, Coloring] = {}
        refuted = True
        for c in cat.objects:
            verdict = _decide(memo, cat, c, b, a, k, n - 1,
                              node_budget, deadline)
            if verdict.status != FAILS:
                refuted = False
                break
            bad[c] = verdict.bad_coloring
        if refuted:
            return LowerCertificate(b, k, bad)
    return None


def degree_interval(cat: FiniteCategory, a: str, k_max: int, *,
                    bs: list[str] | None = None,
                    node_budget: int | None = None,
                    deadline: float | None = None) -> DegreeInterval:
    """Both ends of the degree.  Each arrow search gets the node budget,
    all share the deadline, and a search stopped by either is undecided.
    Both ends share one memo of verdicts (``_decide``)."""
    if k_max < 1:
        raise ValueError(f"k_max must be positive, not {k_max}")
    memo: dict = {}
    upper, upper_certs, unknowns = degree_upper(
        cat, a, k_max, bs=bs, node_budget=node_budget, deadline=deadline,
        memo=memo)

    lower = 1
    lower_cert = None
    limit = upper if upper is not None else max(
        (len(cat.hom(a, c)) for c in cat.objects), default=1)
    n = 2
    while n <= limit:
        hit = None
        for k in range(1, k_max + 1):
            hit = degree_lower(cat, a, k, n, bs=bs, node_budget=node_budget,
                               deadline=deadline, memo=memo)
            if hit is not None:
                break
        if hit is None:
            break
        lower, lower_cert = n, hit
        n += 1
    return DegreeInterval(a, lower, upper, lower_cert, upper_certs,
                          list(cat.objects), k_max,
                          bs if bs is not None else list(cat.objects),
                          unknowns)

