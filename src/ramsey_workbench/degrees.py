"""Catalog-relative degree intervals.

The true degree of an object quantifies over an unbounded class, so every
verdict here is stamped with the catalog and color bound it was computed
against; the engine never claims an absolute degree.  An interval states
only the claim, and a report's certificates hold its evidence once: a bad
coloring per catalog object for the lower end, and per (target, colors)
pair an ``exhaustion`` whose C is the upper end's witness.  Replay evaluates
each bad coloring directly; it checks that an exhaustion names catalog
objects, but does not re-decide it.

``degree_interval`` decides both ends by two scans over one table of arrow
verdicts keyed by (C, B, k, t), so no instance is searched twice:

- the upper scan takes n = 1, 2, ... and, for each (B, k) in B-major order,
  the first C in catalog order with C -> (B)^A_{k,n}; the first n with a
  witness for every (B, k) is the upper end;
- the lower scan takes n = 2, 3, ... up to the upper end and, for each n,
  the first (B, k) in k-major order at which every C fails at t = n - 1; the
  last n with one is the lower end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .arrows import FAILS, HOLDS, TIME_OUT, UNKNOWN, ArrowVerdict, arrow_check
from .category import FiniteCategory


@dataclass
class DegreeInterval:
    obj: str
    lower: int
    upper: int | None
    lower_bk: tuple[str, int] | None    # every C fails at t = lower - 1
    witnesses: dict[tuple[str, int], str]   # (B, k) -> C holding at upper
    verdicts: dict[tuple[str, str, int, int], ArrowVerdict]   # (C, B, k, t)
    catalog: list[str]
    k_max: int
    b_range: list[str]
    unknowns: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "object": self.obj,
            "lower": self.lower,
            "upper": self.upper,
            "lower_certificate": None if self.lower_bk is None
            else dict(zip("Bk", self.lower_bk)),
            "catalog": self.catalog,
            "k_max": self.k_max,
            "b_range": self.b_range,
            "unknowns": self.unknowns,
        }


def degree_interval(cat: FiniteCategory, a: str, k_max: int, *,
                    bs: list[str] | None = None,
                    node_budget: int | None = None,
                    deadline: float | None = None) -> DegreeInterval:
    """Both ends of the degree of ``a`` over the targets B in ``bs`` (the
    catalog by default) with hom(A, B) non-empty and k <= ``k_max``.

    The upper end is the least n such that every (B, k) has a catalog
    witness C with C -> (B)^A_{k,n}; it is None when no n up to the largest
    |hom(A, C)| works, or when the deadline stops a search of that scan,
    which ends it.  Each stopped search is listed in ``unknowns`` as
    ``C:B:k:n``.  The lower end is the largest n, from 2 up to the upper end
    (or the largest |hom(A, C)|), such that some (B, k) fails at t = n - 1
    for every catalog C, and 1 when none does.  Each arrow search gets the
    node budget and all share the deadline; a verdict the deadline stopped
    is not kept, so a later scan asks it again.

    The upper end is relative to the catalog and can exceed the true small
    Ramsey degree when the witnesses lie beyond it: LO2 has degree 1 among
    all chains, but at k_max = 3 in lo_catalog(7) the answer is 2, since
    bound 1 for LO3 needs a 17-chain (R(3,3,3) = 17).  Without ``bs`` every
    catalog object is a target, and a top object that only itself receives
    has itself as its one witness C, each of whose copies sees all of
    hom(A, C), so the upper end is at least min(k_max, |hom(A, top)|).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be positive, not {k_max}")
    b_range = bs if bs is not None else list(cat.objects)
    targets = [b for b in b_range if cat.hom(a, b)]
    most = max((len(cat.hom(a, c)) for c in cat.objects), default=0)
    verdicts: dict[tuple[str, str, int, int], ArrowVerdict] = {}

    def ask(c: str, b: str, k: int, t: int) -> ArrowVerdict:
        key = (c, b, k, t)
        verdict = verdicts.get(key) or arrow_check(
            cat, c, b, a, k, t, node_budget=node_budget, deadline=deadline)
        if verdict.note != TIME_OUT:
            verdicts[key] = verdict
        return verdict

    upper, witnesses, unknowns, stopped = None, {}, [], False
    for n in range(1, most + 1):
        found = {}
        for b, k in itertools.product(targets, range(1, k_max + 1)):
            for c in cat.objects:
                verdict = ask(c, b, k, n)
                if verdict.status == UNKNOWN:
                    unknowns.append(f"{c}:{b}:{k}:{n}")
                    stopped = verdict.note == TIME_OUT
                if verdict.status == HOLDS or stopped:
                    break
            if verdict.status != HOLDS:
                break
            found[b, k] = c
        else:
            upper, witnesses = n, found
        if upper is not None or stopped:
            break

    lower, lower_bk = 1, None
    for n in range(2, (most if upper is None else upper) + 1):
        hit = next(((b, k) for k in range(1, k_max + 1) for b in targets
                    if all(ask(c, b, k, n - 1).status == FAILS
                           for c in cat.objects)), None)
        if hit is None:
            break
        lower, lower_bk = n, hit
    return DegreeInterval(a, lower, upper, lower_bk, witnesses, verdicts,
                          list(cat.objects), k_max, b_range, unknowns)
