"""Catalog-relative degree intervals and essential colorings.

The true degree of an object quantifies over an unbounded class, so every
verdict here is stamped with the catalog and color bound it was computed
against; the engine never claims an absolute degree.  Upper bounds carry a
witness object per (target, colors) pair, lower bounds carry a bad coloring
per catalog object, and both kinds of certificate replay by re-running the
arrow decision they came from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .arrows import (FAILS, HOLDS, UNKNOWN, Coloring, arrow_check)
from .category import FiniteCategory
from .errors import BudgetExceeded, TrivialColoring


@dataclass
class UpperCertificate:
    b: str
    k: int
    witness: str


@dataclass
class LowerCertificate:
    b: str
    k: int
    n: int
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
                "n": self.lower_cert.n,
                "bad_colorings": {
                    c: {"domain": list(col.domain), "k": col.k,
                        "values": list(col.values)}
                    for c, col in sorted(self.lower_cert.bad_colorings.items())
                },
            },
            "upper_certificates": [
                {"B": u.b, "k": u.k, "witness": u.witness}
                for u in self.upper_certs
            ],
            "catalog": self.catalog,
            "k_max": self.k_max,
            "b_range": self.b_range,
            "unknowns": self.unknowns,
        }


def degree_upper(cat: FiniteCategory, a: str, k_max: int, *,
                 bs: list[str] | None = None,
                 node_budget: int | None = None):
    """Least n such that every (B, k <= k_max) has a catalog witness C with
    C -> (B)^A_{k,n}; None when no n up to the largest hom(A, -) works.

    The least n is relative to the catalog and can exceed the true small
    Ramsey degree when the witnesses lie beyond it: LO2 has degree 1 among
    all chains, but at k_max = 3 in lo_catalog(7) the answer is 2, since
    bound 1 for LO3 needs a 17-chain (R(3,3,3) = 17).
    """
    targets = [b for b in (bs if bs is not None else cat.objects)
               if cat.hom(a, b)]
    sizes = [len(cat.hom(a, c)) for c in cat.objects if cat.hom(a, c)]
    if not sizes:
        return None
    unknowns: list[str] = []
    for n in range(1, max(sizes) + 1):
        certs: list[UpperCertificate] = []
        all_found = True
        for b in targets:
            for k in range(1, k_max + 1):
                witness = None
                for c in cat.objects:
                    verdict = arrow_check(cat, c, b, a, k, n,
                                          node_budget=node_budget)
                    if verdict.status == HOLDS:
                        witness = c
                        break
                    if verdict.status == UNKNOWN:
                        unknowns.append(f"{c}:{b}:{k}:{n}")
                if witness is None:
                    all_found = False
                    break
                certs.append(UpperCertificate(b, k, witness))
            if not all_found:
                break
        if all_found:
            return n, certs, unknowns
    return None


def degree_lower(cat: FiniteCategory, a: str, k: int, n: int, *,
                 bs: list[str] | None = None,
                 node_budget: int | None = None):
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
            verdict = arrow_check(cat, c, b, a, k, n - 1,
                                  node_budget=node_budget)
            if verdict.status != FAILS:
                refuted = False
                break
            bad[c] = verdict.bad_coloring
        if refuted:
            return LowerCertificate(b, k, n, bad)
    return None


def degree_interval(cat: FiniteCategory, a: str, k_max: int, *,
                    bs: list[str] | None = None,
                    node_budget: int | None = None) -> DegreeInterval:
    up = degree_upper(cat, a, k_max, bs=bs, node_budget=node_budget)
    upper, upper_certs, unknowns = (None, [], []) if up is None else up

    lower = 1
    lower_cert = None
    limit = upper if upper is not None else max(
        (len(cat.hom(a, c)) for c in cat.objects), default=1)
    n = 2
    while n <= limit:
        hit = None
        for k in range(1, k_max + 1):
            hit = degree_lower(cat, a, k, n, bs=bs, node_budget=node_budget)
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


# -- essential colorings -----------------------------------------------------


@dataclass
class EssentialityVerdict:
    status: str
    counterexample: Coloring | None = None
    offending: tuple | None = None   # (B, w) for the aggregate check
    per_instance: list = field(default_factory=list)


def kernel_contained(fine: Coloring, coarse_values, domain_len: int) -> bool:
    """ker fine within ker coarse on a shared index space."""
    for i in range(domain_len):
        for j in range(i + 1, domain_len):
            if fine.values[i] == fine.values[j] and coarse_values[i] != coarse_values[j]:
                return False
    return True


def _kernel_classes(values) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        classes.setdefault(v, []).append(i)
    return [cls for cls in classes.values() if len(cls) > 1]


def _essential_at_core(cat: FiniteCategory, lam_values, a: str, b: str,
                       f_obj: str, k_max: int) -> EssentialityVerdict:
    """Search for a coloring of hom(A, F) that no witness transports onto a
    coarsening of lam.  Kernels only, so enumerating with k_max colors in
    first-appearance order covers every k <= k_max."""
    domain = tuple(cat.hom(a, f_obj))
    hom_bf = tuple(cat.hom(b, f_obj))
    m = len(domain)
    lam_classes = _kernel_classes(lam_values)

    if not hom_bf:
        counter = Coloring(domain, max(k_max, 1), tuple(0 for _ in range(m)))
        return EssentialityVerdict(FAILS, counter)

    # per witness w: groups of domain indices that chi must keep constant
    w_groups: list[list[list[int]]] = []
    for w in hom_bf:
        mapped = cat.post(w, a)
        w_groups.append([[mapped[i] for i in cls] for cls in lam_classes])

    if not lam_classes:
        return EssentialityVerdict(HOLDS)   # discrete kernel is always carried

    values = [-1] * m

    def witness_satisfied(groups) -> bool:
        for grp in groups:
            seen = {values[i] for i in grp}
            if -1 in seen:
                if len(seen - {-1}) > 1:
                    return False
                return None   # undetermined
            if len(seen) > 1:
                return False
        return True

    def rec(depth: int, used: int):
        if depth == m:
            return list(values)
        top = min(used + 1, k_max)
        for col in range(top):
            values[depth] = col
            # prune once some witness is definitely satisfied
            if not any(witness_satisfied(g) is True for g in w_groups):
                out = rec(depth + 1, max(used, col + 1))
                if out is not None:
                    return out
            values[depth] = -1
        return None

    counter = rec(0, 0)
    if counter is None:
        return EssentialityVerdict(HOLDS)
    chi = Coloring(domain, k_max, tuple(counter))
    return EssentialityVerdict(FAILS, chi)


def essential_at(cat: FiniteCategory, lam: Coloring, f_obj: str,
                 k_max: int) -> EssentialityVerdict:
    """Is lam (on some hom(A, B)) essential at B relative to F and k_max?"""
    if lam.used_colors() < 2:
        raise TrivialColoring("essentiality needs at least two colors")
    a = cat.source(lam.domain[0])
    b = cat.target(lam.domain[0])
    if tuple(cat.hom(a, b)) != lam.domain:
        raise ValueError("coloring domain must be a full hom-set")
    return _essential_at_core(cat, lam.values, a, b, f_obj, k_max)


def essential(cat: FiniteCategory, gamma: Coloring, f_obj: str, k_max: int, *,
              catalog: list[str] | None = None) -> EssentialityVerdict:
    """gamma on hom(A, F) is essential when every transported restriction
    gamma^(w) on hom(A, B) is essential at B, for every B and w."""
    if gamma.used_colors() < 2:
        raise TrivialColoring("essentiality needs at least two colors")
    a = cat.source(gamma.domain[0])
    if tuple(cat.hom(a, f_obj)) != gamma.domain:
        raise ValueError("coloring domain must be hom(A, F)")
    gidx = {mid: i for i, mid in enumerate(gamma.domain)}
    per = []
    for b in (catalog if catalog is not None else cat.objects):
        if not cat.hom(a, b):
            continue
        for w in cat.hom(b, f_obj):
            lam_values = tuple(gamma.values[gidx[cat.compose(w, f)]]
                               for f in cat.hom(a, b))
            verdict = _essential_at_core(cat, lam_values, a, b, f_obj, k_max)
            per.append((b, w, verdict.status))
            if verdict.status != HOLDS:
                return EssentialityVerdict(FAILS, verdict.counterexample,
                                           offending=(b, w), per_instance=per)
    return EssentialityVerdict(HOLDS, per_instance=per)


def search_unavoidable(cat: FiniteCategory, a: str, f_obj: str, t: int,
                       k_max: int, *, catalog: list[str] | None = None,
                       budget: int = 100_000) -> Coloring | None:
    """First t-coloring of hom(A, F), in lex order, that passes essential().

    Candidates must realize all t colors; with fewer the kernel would be a
    coloring for a smaller t.
    """
    if t < 2:
        raise TrivialColoring("unavoidable colorings need at least two colors")
    domain = tuple(cat.hom(a, f_obj))
    m = len(domain)
    if m == 0 or t > m:
        return None
    if t ** m > budget:
        raise BudgetExceeded(f"{t}^{m} candidate colorings exceed {budget}")
    for values in itertools.product(range(t), repeat=m):
        if len(set(values)) != t:
            continue
        gamma = Coloring(domain, t, values)
        if essential(cat, gamma, f_obj, k_max, catalog=catalog).status == HOLDS:
            return gamma
    return None
