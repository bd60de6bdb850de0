"""Decision procedures for the partition arrow C -> (B)^A_{k,t}.

The relation holds when every k-coloring of hom(A, C) admits some
w in hom(B, C) whose composite copies of A meet at most t colors.  Deciding
it means searching for a counterexample ("bad") coloring in which every w
sees more than t colors; the relation holds exactly when that search
exhausts.

Two independent routes are provided: a pruned, symmetry-reduced DFS
(`arrow_check`) and a full enumeration oracle (`oracle_arrow_check`).
They must agree on every instance within the oracle's budget, and the
test suite enforces that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import FAILS, HOLDS, UNKNOWN
from .errors import BudgetExceeded
from .category import FiniteCategory


@dataclass(frozen=True)
class Coloring:
    """A total map from an ordered morphism list to {0..k-1}."""

    domain: tuple[str, ...]
    k: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.domain):
            raise ValueError("coloring is not total")
        if any(not (0 <= v < self.k) for v in self.values):
            raise ValueError("color out of range")

    def value_of(self, mid: str) -> int:
        return self.values[self.domain.index(mid)]

    def used_colors(self) -> int:
        return len(set(self.values))


@dataclass
class ArrowStats:
    nodes: int = 0
    symmetry_prunes: int = 0
    witness_prunes: int = 0
    colorings_scanned: int = 0


@dataclass
class ArrowVerdict:
    status: str
    bad_coloring: Coloring | None = None
    stats: ArrowStats = field(default_factory=ArrowStats)
    degenerate: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class ArrowInstance:
    """Precomputed combinatorics of one arrow question."""

    domain: tuple[str, ...]           # hom(A, C)
    copies: tuple[tuple[int, ...], ...]  # per w in hom(B, C): indices of w.hom(A,B)
    witnesses: tuple[str, ...]        # hom(B, C)
    hom_ab: tuple[str, ...]

    @staticmethod
    def build(cat: FiniteCategory, c: str, b: str, a: str) -> "ArrowInstance":
        domain = tuple(cat.hom(a, c))
        hom_ab = tuple(cat.hom(a, b))
        hom_bc = tuple(cat.hom(b, c))
        index = {mid: i for i, mid in enumerate(domain)}
        copies = tuple(
            tuple(index[cat.compose(w, f)] for f in hom_ab)
            for w in hom_bc
        )
        return ArrowInstance(domain, copies, hom_bc, hom_ab)


def seen_colors(values, copy) -> set[int]:
    return {values[i] for i in copy}


def is_bad(inst: ArrowInstance, values, t: int) -> bool:
    """True when every witness w sees more than t colors."""
    for copy in inst.copies:
        if len(seen_colors(values, copy)) <= t:
            return False
    return True


def verify_bad_coloring(cat, c, b, a, t, coloring: Coloring) -> bool:
    """Replay a FAILS certificate by direct evaluation."""
    inst = ArrowInstance.build(cat, c, b, a)
    if inst.domain != coloring.domain:
        return False
    return is_bad(inst, coloring.values, t)


def _domain_permutations(cat: FiniteCategory, c: str, inst: ArrowInstance):
    """Permutations of the domain induced by Aut(C) acting by post-composition."""
    index = {mid: i for i, mid in enumerate(inst.domain)}
    perms = set()
    for g in cat.automorphism_ids(c):
        if g == cat.identity(c):
            continue
        perm = tuple(index[cat.compose(g, mid)] for mid in inst.domain)
        if perm != tuple(range(len(inst.domain))):
            perms.add(perm)
    return sorted(perms)


def arrow_check(cat: FiniteCategory, c: str, b: str, a: str, k: int, t: int, *,
                node_budget: int | None = None,
                symmetry: bool = True) -> ArrowVerdict:
    """Decide the arrow by DFS over partial colorings of hom(A, C).

    Colors are assigned to the domain in its fixed order.  A branch dies as
    soon as some witness can no longer exceed t colors (its seen colors plus
    its unassigned copies fit within t).  With symmetry on, the DFS keeps
    only colorings that are lexicographically minimal in their orbit under
    Aut(C) post-composition combined with color renaming; both reductions
    preserve the existence of bad colorings, so verdicts are unchanged.

    Exhaustion proves HOLDS; a surviving leaf is a verifiable FAILS
    certificate; exceeding the node budget yields UNKNOWN-AT-BOUND.
    """
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    stats = ArrowStats()
    inst = ArrowInstance.build(cat, c, b, a)
    degenerate = None
    if not inst.hom_ab:
        degenerate = "empty-hom-A-B"
    m = len(inst.domain)

    if not inst.witnesses:
        # no witness exists and at least one coloring always does
        bad = Coloring(inst.domain, k, tuple(0 for _ in range(m)))
        return ArrowVerdict(FAILS, bad, stats, degenerate,
                            note="hom(B,C) is empty")
    if t >= k or not inst.hom_ab:
        return ArrowVerdict(HOLDS, None, stats, degenerate,
                            note="every witness sees at most t colors")

    incidence: list[list[int]] = [[] for _ in range(m)]
    for wi, copy in enumerate(inst.copies):
        for i in copy:
            incidence[i].append(wi)

    perms = _domain_permutations(cat, c, inst) if symmetry else []

    values = [-1] * m
    seen: list[set[int]] = [set() for _ in inst.copies]
    unassigned = [len(copy) for copy in inst.copies]

    def dominated(depth: int) -> bool:
        # some Aut(C)-permuted, color-renamed image is lexicographically
        # smaller on its determined prefix; such a prefix can never extend
        # to an orbit-minimal coloring
        for perm in perms:
            rename: dict[int, int] = {}
            for j in range(depth):
                v = values[perm[j]]
                if v < 0:
                    break
                canon = rename.setdefault(v, len(rename))
                if canon < values[j]:
                    return True
                if canon > values[j]:
                    break
        return False

    bad_leaf: list[int] | None = None

    def rec(depth: int, used: int) -> bool:
        nonlocal bad_leaf
        stats.nodes += 1
        if node_budget is not None and stats.nodes > node_budget:
            raise BudgetExceeded()
        if depth == m:
            bad_leaf = list(values)
            return True
        top = min(used + 1, k)
        for col in range(top):
            values[depth] = col
            ok = True
            touched = []
            for wi in incidence[depth]:
                unassigned[wi] -= 1
                added = col not in seen[wi]
                if added:
                    seen[wi].add(col)
                touched.append((wi, added))
                if len(seen[wi]) + unassigned[wi] <= t:
                    ok = False
            if not ok:
                stats.witness_prunes += 1
            elif perms and dominated(depth + 1):
                stats.symmetry_prunes += 1
                ok = False
            if ok and rec(depth + 1, max(used, col + 1)):
                return True
            for wi, added in touched:
                unassigned[wi] += 1
                if added:
                    seen[wi].discard(col)
            values[depth] = -1
        return False

    try:
        found = rec(0, 0)
    except BudgetExceeded:
        return ArrowVerdict(UNKNOWN, None, stats, degenerate,
                            note="node budget exhausted")
    if found:
        bad = Coloring(inst.domain, k, tuple(bad_leaf))
        assert is_bad(inst, bad.values, t)
        return ArrowVerdict(FAILS, bad, stats, degenerate)
    return ArrowVerdict(HOLDS, None, stats, degenerate)


def oracle_arrow_check(cat: FiniteCategory, c: str, b: str, a: str, k: int,
                       t: int, *, budget: int = 2_000_000) -> ArrowVerdict:
    """Decide the arrow by enumerating every coloring, no pruning at all."""
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    stats = ArrowStats()
    inst = ArrowInstance.build(cat, c, b, a)
    degenerate = "empty-hom-A-B" if not inst.hom_ab else None
    m = len(inst.domain)
    if k ** m > budget:
        raise BudgetExceeded(f"{k}^{m} colorings exceed budget {budget}")
    for values in itertools.product(range(k), repeat=m):
        stats.colorings_scanned += 1
        if is_bad(inst, values, t):
            return ArrowVerdict(FAILS, Coloring(inst.domain, k, values), stats,
                                degenerate)
    return ArrowVerdict(HOLDS, None, stats, degenerate)


def find_ramsey_witness(cat: FiniteCategory, b: str, a: str, k: int, t: int, *,
                        node_budget: int | None = None):
    """First catalog object whose arrow check HOLDS, in catalog order."""
    unknowns = []
    for c in cat.objects:
        verdict = arrow_check(cat, c, b, a, k, t, node_budget=node_budget)
        if verdict.status == HOLDS:
            return c, verdict
        if verdict.status == UNKNOWN:
            unknowns.append(c)
    return None, ArrowVerdict(UNKNOWN if unknowns else FAILS, None,
                              ArrowStats(),
                              note=f"no witness; unknown at bound: {unknowns}")


def export_cnf(cat: FiniteCategory, c: str, b: str, a: str, k: int, t: int) -> str:
    """DIMACS encoding whose models are exactly the bad colorings.

    Variable i*k + col + 1 says "domain morphism i gets color col".  A model
    must pick exactly one color per morphism and, for every witness w and
    every t-subset S of colors, some copy of w colored outside S.  The
    formula is unsatisfiable exactly when the arrow holds.
    """
    inst = ArrowInstance.build(cat, c, b, a)
    m = len(inst.domain)

    def var(i: int, col: int) -> int:
        return i * k + col + 1

    clauses: list[list[int]] = []
    for i in range(m):
        clauses.append([var(i, col) for col in range(k)])
        for c1 in range(k):
            for c2 in range(c1 + 1, k):
                clauses.append([-var(i, c1), -var(i, c2)])
    for copy in inst.copies:
        for s in itertools.combinations(range(k), min(t, k)):
            outside = [col for col in range(k) if col not in s]
            clauses.append([var(i, col) for i in copy for col in outside])

    lines = [f"c arrow instance C={c} B={b} A={a} k={k} t={t}",
             f"c domain size {m}, witnesses {len(inst.copies)}",
             f"p cnf {m * k} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(x) for x in clause) + " 0")
    return "\n".join(lines) + "\n"
