"""Decision procedures for the partition arrow C -> (B)^A_{k,t}.

The relation holds when every k-coloring of hom(A, C) admits some
w in hom(B, C) whose composite copies of A meet at most t colors.  Deciding
it means searching for a counterexample ("bad") coloring in which every w
sees more than t colors; the relation holds exactly when that search
exhausts.

Three independent routes are provided:

- `arrow_check`, the engine's search: forward checking and a fail-first
  variable order on an explicit stack, with Aut(C) symmetry broken by an
  incremental lex-leader test that holds under any variable order;
- `lex_arrow_check`, a recursive DFS that colors hom(A, C) in its fixed
  order and prunes only dead witnesses, with no Aut(C) cut: the plain
  reference that both modes of the search are tested against;
- `oracle_arrow_check`, a test of every coloring that prunes nothing.  It
  is bit-sliced: one int carries the test for a block of up to 2^16
  colorings, one per bit, in lex order.  `colorings_scanned` counts the
  colorings up to the first bad one, or all k^m of them: what a scan of
  one coloring at a time would count.

They must agree on every instance within the oracle's budget, and the
test suite enforces that.  The oracle shares nothing with the searches but
`ArrowInstance.build` and the verdict types.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from . import FAILS, HOLDS, UNKNOWN
from .errors import BudgetExceeded
from .category import FiniteCategory

# Notes of a search stopped by a budget, and how often the search reads the
# clock when it has a deadline.
NODE_OUT = "node budget exhausted"
TIME_OUT = "time budget exhausted"
CLOCK_EVERY = 1024


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
    hom_ab: tuple[str, ...]

    @staticmethod
    def build(cat: FiniteCategory, c: str, b: str, a: str) -> "ArrowInstance":
        """Read the instance through `cat.hom` and `cat.post` only, so
        only hom(A,C), hom(A,B) and hom(B,C) are enumerated."""
        domain = tuple(cat.hom(a, c))
        hom_ab = tuple(cat.hom(a, b))
        copies = tuple(cat.post(w, a) for w in cat.hom(b, c))
        return ArrowInstance(domain, copies, hom_ab)


def is_bad(inst: ArrowInstance, values, t: int) -> bool:
    """True when every witness w sees more than t colors."""
    return all(len({values[i] for i in copy}) > t for copy in inst.copies)


def verify_bad_coloring(cat, c, b, a, t, coloring: Coloring) -> bool:
    """Replay a FAILS certificate by direct evaluation.

    Only the three hom-sets the instance reads are enumerated.
    """
    inst = ArrowInstance.build(cat, c, b, a)
    if inst.domain != coloring.domain:
        return False
    return is_bad(inst, coloring.values, t)


def _lex_root(cat: FiniteCategory, c: str, m: int) -> list:
    """The tied set of the root: every g != id in Aut(C), waiting on
    position 0, with a row of m unread entries (see `_lex_step`)."""
    ident = cat.identity(c)
    return [(0, 0, g, [-1] * m, {}, {})
            for g in cat.automorphism_ids(c) if g != ident]


def _lex_step(cat: FiniteCategory, domain, tied: list, p: int,
              values) -> list | None:
    """The tied set after position p is colored, or None when some Aut(C)
    image of the coloring has a smaller normal form: its colors renamed in
    order of first appearance along the domain order.  A tied g is (waits
    on, stop, g, row, mine, image): the coloring and its image tie before
    stop under the renamings mine and image, and one of them is unset at
    stop.  Only the g waiting on p resume; one whose image is larger, or
    ties on the whole domain, leaves the set.  ``row[j]`` is the position
    of g . domain[j], read on first use."""
    m = len(values)
    keep = [s for s in tied if s[0] != p]
    for _, j, g, row, mine, image in [s for s in tied if s[0] == p]:
        mine, image = dict(mine), dict(image)
        while j < m:
            x = row[j]
            if x < 0 <= values[j]:
                x = row[j] = cat.position(cat.compose(g, domain[j]))
            wait = j if values[j] < 0 else x
            if values[wait] < 0:
                keep.append((wait, j, g, row, mine, image))
                break
            y = image.setdefault(values[x], len(image))
            z = mine.setdefault(values[j], len(mine))
            if y != z:
                if y < z:
                    return None
                break
            j += 1
    return keep


def _trivial_verdict(inst: ArrowInstance, k: int, t: int,
                     degenerate: str | None) -> ArrowVerdict | None:
    """The verdict of an instance that needs no search, else None."""
    if not inst.copies:
        # no witness exists and at least one coloring always does
        bad = Coloring(inst.domain, k, tuple(0 for _ in inst.domain))
        return ArrowVerdict(FAILS, bad, ArrowStats(), degenerate,
                            note="hom(B,C) is empty")
    if t >= k or not inst.hom_ab:
        return ArrowVerdict(HOLDS, None, ArrowStats(), degenerate,
                            note="every witness sees at most t colors")
    return None


def _search_verdict(search, inst: ArrowInstance, k: int, t: int,
                    stats: ArrowStats, degenerate: str | None) -> ArrowVerdict:
    """Run `search()`, which returns a bad coloring or None, as a verdict."""
    try:
        leaf = search()
    except BudgetExceeded as exc:
        return ArrowVerdict(UNKNOWN, None, stats, degenerate, note=str(exc))
    if leaf is None:
        return ArrowVerdict(HOLDS, None, stats, degenerate)
    bad = Coloring(inst.domain, k, tuple(leaf))
    assert is_bad(inst, bad.values, t)
    return ArrowVerdict(FAILS, bad, stats, degenerate)


def arrow_check(cat: FiniteCategory, c: str, b: str, a: str, k: int, t: int, *,
                node_budget: int | None = None, deadline: float | None = None,
                symmetry: bool = True) -> ArrowVerdict:
    """Decide the arrow by a forward-checking search for a bad coloring.

    Each position of hom(A, C) keeps a domain of colors.  A witness copy is
    tight when its seen colors plus its unassigned positions make exactly
    t + 1: each unassigned position must then bring a new color, so the
    seen colors are struck from their domains (forward checking).  A
    wiped-out domain is a witness prune.  The next position is the one with
    the smallest domain, then the most incident copies, then the lowest
    index (fail-first).  It takes a color already used or the least unused
    one: unused colors are never struck, so they are interchangeable.

    With symmetry on, a node is cut when some Aut(C) image of its coloring
    has a smaller normal form (`_lex_step`).  This is sound under the
    fail-first order.  Take a bad coloring X whose normal form is least
    among its Aut(C) images; every color renaming of X has that least form
    too, so the test never cuts a renaming of X.  Forward checking strikes
    only colors that no bad extension uses, and renaming two unused colors
    changes nothing colored so far, so the search follows some renaming of
    X down to a leaf.  Hence a leaf is reached exactly when a bad coloring
    exists, with symmetry on or off.

    The test cuts exactly what a scan of every g from position 0 at every
    node would cut.  A g's comparison stops at the first position where the
    coloring or its image is unset; the positions before it stay colored on
    the whole branch, so the comparison reads the same at every descendant.
    A g whose image was larger leaves the tied set for the branch, and a
    tied g resumes where the scan would go on.  An element acting trivially
    on hom(A, C) never cuts, so every g != id is kept, undeduplicated.

    Exhaustion proves HOLDS; a leaf is a verifiable FAILS certificate;
    exceeding the node budget, or passing the `deadline` (a
    `time.monotonic()` value, read once before the instance is built, once
    after it and Aut(C) are built, and then every `CLOCK_EVERY` nodes),
    yields UNKNOWN-AT-BOUND with a note that names the budget.  A deadline
    already passed stops the question before it reads any hom-set, so a run
    of short searches cannot overrun it one search at a time.
    """
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    if deadline is not None and time.monotonic() >= deadline:
        return ArrowVerdict(UNKNOWN, None, ArrowStats(), note=TIME_OUT)
    inst = ArrowInstance.build(cat, c, b, a)
    degenerate = None if inst.hom_ab else "empty-hom-A-B"
    trivial = _trivial_verdict(inst, k, t, degenerate)
    if trivial is not None:
        return trivial
    stats = ArrowStats()
    tied = _lex_root(cat, c, len(inst.domain)) if symmetry else []
    if deadline is not None and time.monotonic() >= deadline:
        return ArrowVerdict(UNKNOWN, None, stats, note=TIME_OUT)
    return _search_verdict(
        lambda: _forward_search(cat, inst, k, t, tied, node_budget, deadline,
                                stats),
        inst, k, t, stats, degenerate)


def _node_limit(nodes: int, node_budget: int | None,
                deadline: float | None) -> int | None:
    """The node count past which the search tests its budgets again: the
    node budget, or with a deadline the next clock reading if sooner."""
    if deadline is None:
        return node_budget
    clock = nodes - nodes % CLOCK_EVERY + CLOCK_EVERY
    return clock if node_budget is None else min(clock, node_budget)


def _forward_search(cat: FiniteCategory, inst: ArrowInstance, k: int, t: int,
                    tied: list, node_budget: int | None, deadline: float | None,
                    stats: ArrowStats):
    """The search of `arrow_check`: a bad coloring as a list, or None.

    Domains and seen colors are bitmasks.  Every change to a domain or a
    seen set is logged on a trail as (list, index, old value), and a frame
    undoes its last assignment by popping the trail back to its mark.  Both
    budgets share the one test per node against `limit`, so a search without
    a deadline reads no clock and makes one comparison per node.
    """
    m = len(inst.domain)
    need = t + 1
    copies = [tuple(sorted(set(copy))) for copy in inst.copies]
    stats.nodes += 1
    if any(len(copy) < need for copy in copies):
        stats.witness_prunes += 1       # a witness that can never see t+1
        return None
    incidence: list[list[int]] = [[] for _ in range(m)]
    for wi, copy in enumerate(copies):
        for i in copy:
            incidence[i].append(wi)
    degree = [len(ws) for ws in incidence]
    values = [-1] * m
    dom = [(1 << k) - 1] * m
    seen = [0] * len(copies)
    free = [len(copy) for copy in copies]
    trail: list[tuple[list[int], int, int]] = []

    def assign(p: int, col: int) -> bool:
        """Color p and strike along tight copies; False on a wipe-out."""
        values[p] = col
        bit = 1 << col
        alive = True
        for wi in incidence[p]:
            free[wi] -= 1
            s = seen[wi]
            if not s & bit:
                trail.append((seen, wi, s))
                s |= bit
                seen[wi] = s
            if free[wi] and s.bit_count() + free[wi] == need:
                for q in copies[wi]:
                    d = dom[q]
                    if values[q] < 0 and d & s:
                        trail.append((dom, q, d))
                        d &= ~s
                        dom[q] = d
                        if not d:
                            alive = False
        return alive

    def unassign(p: int, mark: int) -> None:
        values[p] = -1
        for wi in incidence[p]:
            free[wi] += 1
        while len(trail) > mark:
            arr, i, old = trail.pop()
            arr[i] = old

    def select() -> int:
        best, best_size, best_deg = -1, k + 1, -1
        for q in range(m):
            if values[q] < 0:
                size = dom[q].bit_count()
                if size < best_size or (size == best_size
                                        and degree[q] > best_deg):
                    best, best_size, best_deg = q, size, degree[q]
        return best

    def frame(used: int, tied: list) -> list:
        # [position, candidates, next, colors used, trail mark, tied set]
        p = select()
        d = dom[p]
        cands = [col for col in range(min(used + 1, k)) if d >> col & 1]
        return [p, cands, 0, used, 0, tied]

    limit = _node_limit(stats.nodes, node_budget, deadline)
    stack = [frame(0, tied)]
    while stack:
        top = stack[-1]
        p, cands, i, used, mark, tied = top
        if values[p] >= 0:
            unassign(p, mark)
        if i == len(cands):
            stack.pop()
            continue
        col = cands[i]
        top[2] = i + 1
        top[4] = len(trail)
        depth = len(stack)
        if not assign(p, col):
            stats.witness_prunes += 1
            continue
        child = _lex_step(cat, inst.domain, tied, p, values) if tied else tied
        if child is None:
            stats.symmetry_prunes += 1
            continue
        stats.nodes += 1
        if limit is not None and stats.nodes > limit:
            if node_budget is not None and stats.nodes > node_budget:
                raise BudgetExceeded(NODE_OUT)
            if time.monotonic() >= deadline:
                raise BudgetExceeded(TIME_OUT)
            limit = _node_limit(stats.nodes, node_budget, deadline)
        if depth == m:
            return values
        stack.append(frame(max(used, col + 1), child))
    return None


def lex_arrow_check(cat: FiniteCategory, c: str, b: str, a: str, k: int,
                    t: int, *, node_budget: int | None = None) -> ArrowVerdict:
    """Decide the arrow by DFS over partial colorings of hom(A, C).

    Colors are assigned to the domain in its fixed order, a new color only
    as the least unused one, so one coloring per color renaming is tried.
    A branch dies as soon as some witness can no longer exceed t colors
    (its seen colors plus its unassigned copies fit within t).  Neither cut
    changes whether a bad coloring exists, and there is no Aut(C) cut.

    This is the differential oracle for `arrow_check`; no command selects
    it.  Exhaustion proves HOLDS; a surviving leaf is a verifiable FAILS
    certificate; exceeding the node budget yields UNKNOWN-AT-BOUND.
    """
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    inst = ArrowInstance.build(cat, c, b, a)
    degenerate = None if inst.hom_ab else "empty-hom-A-B"
    trivial = _trivial_verdict(inst, k, t, degenerate)
    if trivial is not None:
        return trivial
    stats = ArrowStats()
    m = len(inst.domain)

    incidence: list[list[int]] = [[] for _ in range(m)]
    for wi, copy in enumerate(inst.copies):
        for i in copy:
            incidence[i].append(wi)

    values = [-1] * m
    seen: list[set[int]] = [set() for _ in inst.copies]
    unassigned = [len(copy) for copy in inst.copies]

    def rec(depth: int, used: int) -> bool:
        stats.nodes += 1
        if node_budget is not None and stats.nodes > node_budget:
            raise BudgetExceeded(NODE_OUT)
        if depth == m:
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
            elif rec(depth + 1, max(used, col + 1)):
                return True
            for wi, added in touched:
                unassigned[wi] += 1
                if added:
                    seen[wi].discard(col)
            values[depth] = -1
        return False

    return _search_verdict(lambda: values if rec(0, 0) else None,
                           inst, k, t, stats, degenerate)


# Colorings per bitset in `oracle_arrow_check`: an int of at most 8 KiB.
# Every block is tested whole, so a FAILS costs the ints of its block.
ORACLE_BLOCK = 1 << 16
ORACLE_BUDGET = 2_000_000   # most colorings `oracle_arrow_check` tests


def _digit_masks(k: int, places: int) -> list[list[int]]:
    """masks[j][col]: the ranks r < k^places whose base-k digit j, counted
    from the most significant, is col, as a bitset.

    Digit j is col on runs of k^(places-1-j) ranks, one run in every k;
    the runs of col 0 are laid down by doubling and the others are shifts
    of them.
    """
    size = k ** places
    masks = []
    for j in range(places):
        run = k ** (places - 1 - j)
        zero, width = (1 << run) - 1, run * k
        while width < size:
            zero |= zero << width
            width <<= 1
        zero &= (1 << size) - 1
        masks.append([zero << (col * run) for col in range(k)])
    return masks


def oracle_arrow_check(cat: FiniteCategory, c: str, b: str, a: str, k: int,
                       t: int) -> ArrowVerdict:
    """Decide the arrow by testing every coloring, pruning nothing.

    The k^m colorings of hom(A, C) are ranked in lex order, as
    `itertools.product` lists them.  They are tested bit-sliced: bit r of an
    int stands for the coloring of rank r, so one int operation takes one
    step of the test on every coloring at once (Biham, FSE 1997).  A block
    fixes the leading positions and runs through the trailing ones, at most
    `ORACLE_BLOCK` colorings, and the blocks go in lex order.  Within a
    block, a copy of B sees color col on the OR of its positions'
    `_digit_masks`; it sees more than t colors where t + 1 of its k "sees"
    masks hold, a running threshold count; and a coloring is bad where
    every copy sees more than t colors.  Each block, the first included, is
    tested whole in one pass; its lowest bad bit is the first bad coloring
    in lex order, so a FAILS stops at the first block holding one.

    `colorings_scanned` is the rank of the first bad coloring plus one, or
    k^m when none is bad: the count a scan of one coloring at a time, in lex
    order, would make.
    """
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    stats = ArrowStats()
    inst = ArrowInstance.build(cat, c, b, a)
    degenerate = "empty-hom-A-B" if not inst.hom_ab else None
    m = len(inst.domain)
    if k ** m > ORACLE_BUDGET:
        raise BudgetExceeded(f"{k}^{m} colorings exceed budget {ORACLE_BUDGET}")
    places = 0      # trailing positions that a block runs through
    while places < m and k ** (places + 1) <= ORACLE_BLOCK:
        places += 1
    lead = m - places
    size = k ** places
    masks = _digit_masks(k, places)
    split = [([i for i in copy if i < lead], [i - lead for i in copy if i >= lead])
             for copy in inst.copies]
    full = (1 << size) - 1
    for block, prefix in enumerate(itertools.product(range(k), repeat=lead)):
        bad = full
        for fixed, digits in split:
            sees = [0] * k
            for i in fixed:
                sees[prefix[i]] = full
            for j in digits:
                row = masks[j]
                for col in range(k):
                    sees[col] |= row[col]
            more = [0] * (t + 1)    # more[j]: sees more than j colors so far
            for col in range(k):
                for j in range(min(col, t), 0, -1):
                    more[j] |= more[j - 1] & sees[col]
                more[0] |= sees[col]
            bad &= more[t]
            if not bad:
                break
        if bad:
            rank = (bad & -bad).bit_length() - 1
            stats.colorings_scanned = block * size + rank + 1
            values = prefix + tuple(rank // k ** (places - 1 - j) % k
                                    for j in range(places))
            return ArrowVerdict(FAILS, Coloring(inst.domain, k, values),
                                stats, degenerate)
    stats.colorings_scanned = k ** m
    return ArrowVerdict(HOLDS, None, stats, degenerate)


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
