"""Finite relational structures, embeddings, and canonical forms.

A structure is a finite universe {0..n-1} with relation tables and named
constants over a fixed signature (relation and constant symbols only).
Embeddings are injective maps that preserve and reflect every relation and
fix constants; they are the morphisms everywhere else in the engine.

Every ``Embedding`` is valid by construction.  The constructor checks each
map once, where it enters the program (enumeration, sequence files,
canonical forms, colimits).  An injective f maps A^ar onto image^ar one
to one, so it preserves and reflects R exactly when f^-1(R_B ∩ image^ar)
equals R_A; the error names the least tuple of their symmetric difference,
the first that a scan of A^ar in order would meet.  The check reads
|R_B| + |R_A| tuples, not |A|^ar: cheaper when R_B is small next to A^ar,
dearer for a small source in a large dense target.  ``compose`` builds
composites without checking again, since a composite of embeddings is an
embedding.  Code inside the engine therefore trusts any ``Embedding`` it is
handed, and the category layer composes by looking composite maps up
instead of building them.

All types are immutable and hashable, all operations are pure, and every
enumeration is returned in a deterministic (lexicographic) order so that
certificates built on top of them are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .errors import SignatureMismatch, WorkbenchError


@dataclass(frozen=True)
class Signature:
    """Relation symbols with positive arities plus constant symbols."""

    relations: tuple[tuple[str, int], ...]
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.relations] + list(self.constants)
        if len(set(names)) != len(names):
            raise WorkbenchError("signature symbols must be pairwise distinct")
        for name, arity in self.relations:
            if arity < 1:
                raise WorkbenchError(f"relation {name!r} has non-positive arity")

    def arity(self, name: str) -> int:
        for rname, ar in self.relations:
            if rname == name:
                return ar
        raise KeyError(name)


@dataclass(frozen=True)
class Structure:
    """A finite structure; relation tables are sets of in-range tuples.

    ``name`` is catalog metadata and never takes part in equality.
    """

    signature: Signature
    size: int
    relations: tuple[tuple[str, frozenset[tuple[int, ...]]], ...]
    constants: tuple[tuple[str, int], ...] = ()
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        rel_names = [n for n, _ in self.signature.relations]
        if [n for n, _ in self.relations] != rel_names:
            raise WorkbenchError("relation tables must follow signature order")
        for rname, table in self.relations:
            ar = self.signature.arity(rname)
            for t in table:
                if len(t) != ar or any(not (0 <= v < self.size) for v in t):
                    raise WorkbenchError(f"tuple {t} invalid for relation {rname!r}")
        if [c for c, _ in self.constants] != list(self.signature.constants):
            raise WorkbenchError("constant map must be total and follow signature order")
        for cname, v in self.constants:
            if not (0 <= v < self.size):
                raise WorkbenchError(f"constant {cname!r} out of range")

    @staticmethod
    def make(signature: Signature, size: int, relations=None, constants=None,
             name: str | None = None) -> "Structure":
        relations = relations or {}
        constants = constants or {}
        rel = tuple(
            (rname, frozenset(tuple(t) for t in relations.get(rname, ())))
            for rname, _ in signature.relations
        )
        con = tuple((cname, constants[cname]) for cname in signature.constants)
        return Structure(signature, size, rel, con, name=name)

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        for rname, table in self.relations:
            if rname == name:
                return table
        raise KeyError(name)

    def constant(self, name: str) -> int:
        for cname, v in self.constants:
            if cname == name:
                return v
        raise KeyError(name)

    def relabel(self, position: tuple[int, ...], name: str | None = None) -> "Structure":
        """Image structure under element -> position[element]."""
        rel = tuple(
            (rname, frozenset(tuple(position[v] for v in t) for t in table))
            for rname, table in self.relations
        )
        con = tuple((cname, position[v]) for cname, v in self.constants)
        return Structure(self.signature, self.size, rel, con, name=name)

    def __repr__(self):
        label = self.name or f"Structure(size={self.size})"
        return f"<{label}>"


@dataclass(frozen=True)
class Embedding:
    """Injective strong map: relations preserved and reflected, constants fixed."""

    source: Structure
    target: Structure
    map: tuple[int, ...]

    def __post_init__(self):
        if self.source.signature != self.target.signature:
            raise SignatureMismatch("embedding endpoints disagree on signature")
        if len(self.map) != self.source.size:
            raise WorkbenchError("embedding map has wrong length")
        if len(set(self.map)) != len(self.map):
            raise WorkbenchError("embedding map is not injective")
        if any(not (0 <= v < self.target.size) for v in self.map):
            raise WorkbenchError("embedding map out of range")
        image = set(self.map)
        inv = {v: i for i, v in enumerate(self.map)}.__getitem__
        for rname, table in self.source.relations:
            pre = {tuple(map(inv, s)) for s in self.target.rel(rname)
                   if image.issuperset(s)}
            if pre != table:
                raise WorkbenchError(
                    f"relation {rname!r} not matched on {min(pre ^ table)}")
        for cname, v in self.source.constants:
            if self.map[v] != self.target.constant(cname):
                raise WorkbenchError(f"constant {cname!r} not preserved")

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.map == tuple(range(self.source.size))

    def is_bijective(self) -> bool:
        return self.source.size == self.target.size

    def inverse(self) -> "Embedding":
        if not self.is_bijective():
            raise WorkbenchError("only bijective embeddings invert")
        inv = [0] * self.source.size
        for i, v in enumerate(self.map):
            inv[v] = i
        return Embedding(self.target, self.source, tuple(inv))


def identity(a: Structure) -> Embedding:
    return Embedding(a, a, tuple(range(a.size)))


def _trusted(source: Structure, target: Structure,
             images: tuple[int, ...]) -> Embedding:
    """An Embedding built without ``__post_init__``; for composites only."""
    e = object.__new__(Embedding)
    e.__dict__.update(source=source, target=target, map=images)
    return e


def compose(g: Embedding, f: Embedding) -> Embedding:
    """Composite g . f (apply f first), valid because g and f are."""
    if f.target != g.source:
        raise WorkbenchError("embeddings not composable")
    return _trusted(f.source, g.target, tuple(map(g.map.__getitem__, f.map)))


def _tuples_touching(last: int, arity: int):
    """Tuples over {0..last} that mention ``last``, lexicographically."""
    for t in itertools.product(range(last + 1), repeat=arity):
        if last in t:
            yield t


def _profile(s: Structure) -> list[list[int]]:
    """Per element x: for each relation R and coordinate p, the number of
    tuples with x at p that are in R, then the number that are not.  Each
    constant counts as a unary relation that holds at its element only."""
    n = s.size
    tables = [(table, ar) for (_, table), (_, ar)
              in zip(s.relations, s.signature.relations)]
    tables += [({(v,)}, 1) for _, v in s.constants]
    rows: list[list[int]] = [[] for _ in range(n)]
    for table, ar in tables:
        per = n ** (ar - 1)
        for p in range(ar):
            inside = [0] * n
            for t in table:
                inside[t[p]] += 1
            for x in range(n):
                rows[x] += (inside[x], per - inside[x])
    return rows


def _candidates(a: Structure, b: Structure) -> list[list[int]]:
    """Per element x of a, in increasing order, the elements of b whose
    profile dominates that of x: the only images an embedding can give x."""
    pb = _profile(b)
    return [[y for y, py in enumerate(pb) if all(map(operator.le, px, py))]
            for px in _profile(a)]


def enumerate_embeddings(a: Structure, b: Structure) -> list[Embedding]:
    """All embeddings of a into b, ordered lexicographically by map tuple.

    Backtracking over source elements in index order, each drawn from a
    static candidate list (``_candidates``); a partial map is pruned as soon
    as some fully-assigned tuple disagrees between the two tables (in either
    direction).

    The candidate lists filter by a degree profile (Ullmann 1976; VF2,
    Cordella et al. 2004).  For each relation R and coordinate p, an
    embedding f sends the tuples with x at p injectively to tuples with f(x)
    at p, those in R into R and those outside R outside it, since f is
    injective and preserves and reflects R.  So f(x) has at least as many
    tuples of each kind as x, and an element of b that falls short in some
    count is never the image of x.  Constants, counted as unary relations,
    pin their element.  The lists keep b's order, so the output stays in
    lexicographic order.  On chains the filter is exact: LO_n -> LO_m leaves
    x the images x..x+m-n, and Aut(LO_n) costs n steps, not 2^n.

    Every map found is still validated in full by ``Embedding``.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("embedding enumeration needs a shared signature")
    n, m = a.size, b.size
    if n > m:
        return []
    cands = _candidates(a, b)
    if not all(cands):
        return []
    # per element i: (table_b, tuple, tuple in table_a) for the tuples over
    # {0..i} that mention i, so every position in them is assigned
    checks = [[(tb, t, t in ta)
               for (_, ta), (_, tb), (_, ar)
               in zip(a.relations, b.relations, a.signature.relations)
               for t in _tuples_touching(i, ar)]
              for i in range(n)]

    out: list[Embedding] = []
    assign = [-1] * n
    image = assign.__getitem__
    used = [False] * m

    def rec(i: int):
        if i == n:
            out.append(Embedding(a, b, tuple(assign)))
            return
        for v in cands[i]:
            if used[v]:
                continue
            assign[i] = v
            for tb, t, inside in checks[i]:
                if (tuple(map(image, t)) in tb) != inside:
                    break
            else:
                used[v] = True
                rec(i + 1)
                used[v] = False

    rec(0)
    return out


def automorphisms(a: Structure) -> list[Embedding]:
    """All self-embeddings; on a finite universe these are exactly Aut(a)."""
    auts = enumerate_embeddings(a, a)
    assert all(e.is_bijective() for e in auts)
    return auts


def refinement_partition(a: Structure, rounds: int = 8) -> tuple[int, ...]:
    """Iterated invariant coloring of the universe (isomorphism-invariant).

    Colors are canonical ordinals assigned by sorted signature, so isomorphic
    structures get equal color multisets.  A cheap pre-filter before full
    canonicalization, never a substitute for it.  Nothing in the package
    calls it; ``isomorphic`` in ``tests/oracles.py`` does, and it stays here
    because ``perfbench/spans.py`` wraps it.
    """
    n = a.size
    const_elts = {v: cname for cname, v in a.constants}
    sigs = []
    for x in range(n):
        profile = []
        for rname, table in a.relations:
            ar = a.signature.arity(rname)
            cnt = sum(1 for t in table if x in t)
            diag = sum(1 for t in table if all(v == x for v in t)) if ar else 0
            profile.append((cnt, diag))
        sigs.append((const_elts.get(x, ""), tuple(profile)))
    order = sorted(set(sigs))
    colors = [order.index(s) for s in sigs]

    for _ in range(rounds):
        new_sigs = []
        for x in range(n):
            nbr = []
            for rname, table in a.relations:
                local = sorted(
                    tuple(colors[v] for v in t)
                    for t in table if x in t
                )
                nbr.append(tuple(local))
            new_sigs.append((colors[x], tuple(nbr)))
        order = sorted(set(new_sigs))
        new_colors = [order.index(s) for s in new_sigs]
        if new_colors == colors:
            break
        colors = new_colors
        if len(set(colors)) == n:
            break
    return tuple(colors)


def _level_slots(sig: Signature, n: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    # slots[p] = relation tuples whose maximum coordinate is exactly p, so the
    # key prefix through level p is fully determined once positions 0..p are
    # filled; this is what makes branch-and-bound comparisons sound.
    slots: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for ri, (_, ar) in enumerate(sig.relations):
        for t in itertools.product(range(n), repeat=ar):
            slots[max(t)].append((ri, t))
    for p in range(n):
        slots[p].sort()
    return slots


def _merge_orbits(root: list[int], gamma: list[int]) -> None:
    """Join the cycles of gamma in a union-find whose roots are least."""
    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for x, y in enumerate(gamma):
        rx, ry = find(x), find(y)
        if rx != ry:
            root[max(rx, ry)] = min(rx, ry)


def canonical_form(a: Structure) -> tuple[Structure, Embedding]:
    """Least relabeling of ``a`` over all permutations, plus the witness.

    The order minimized is: membership bits of all relation tuples listed by
    growing maximum coordinate (then relation, then lexicographic tuple),
    with constant positions as the final tie-break.  The search walks
    permutations in lexicographic order with branch-and-bound on the
    determined key prefix, and the witness is the first least leaf in that
    order, so it is the identity when the input is already canonical.

    Automorphism pruning (as in nauty and Traces): a leaf that ties the best
    key gives the automorphism mapping the best leaf's elements, position by
    position, onto its own.  At each node a child is explored only if it is
    the least element of its orbit under the automorphisms found so far that
    fix the current prefix pointwise.  A skipped subtree is the image of an
    earlier explored one under such an automorphism, so it repeats earlier
    keys only, and the first least leaf is never skipped.  Symmetric inputs
    such as empty and complete graphs no longer cost n! leaves.
    """
    n = a.size
    if n == 0:
        return a, Embedding(a, a, ())
    tables = [table for _, table in a.relations]
    levels = [[(tables[ri], t) for ri, t in slots]
              for slots in _level_slots(a.signature, n)]

    def level_bits(pre: list[int], p: int) -> tuple[int, ...]:
        get = pre.__getitem__
        return tuple([1 if tuple(map(get, t)) in table else 0
                      for table, t in levels[p]])

    def tail(pre: list[int]) -> tuple[int, ...]:
        return tuple(pre.index(v) for _, v in a.constants)

    ident = list(range(n))
    best_bits = [level_bits(ident, p) for p in range(n)]
    best_tail = tail(ident)
    best_pre = tuple(ident)
    auts: list[list[int]] = []   # element -> image, in the order found

    pre: list[int] = []
    used = [False] * n
    cur_bits: list[tuple[int, ...]] = []

    def compare_prefix() -> int:
        # Against the current best; best may have moved since the parent
        # compared, so the walk always starts from level 0.
        for q in range(len(cur_bits)):
            if cur_bits[q] < best_bits[q]:
                return -1
            if cur_bits[q] > best_bits[q]:
                return 1
        return 0

    def rec(p: int):
        nonlocal best_bits, best_tail, best_pre
        if p == n:
            cmp = compare_prefix()
            cur_tail = tail(pre)
            if cmp == 0 and cur_tail == best_tail:
                # a tie: best_pre[i] -> pre[i] is an automorphism, trivial
                # only at the first leaf, which is the initial best
                if pre != ident:
                    gamma = [0] * n
                    for x, y in zip(best_pre, pre):
                        gamma[x] = y
                    auts.append(gamma)
            elif cmp < 0 or (cmp == 0 and cur_tail < best_tail):
                best_bits, best_tail, best_pre = list(cur_bits), cur_tail, tuple(pre)
            return
        # orbits of the automorphisms found so far that fix the prefix,
        # merged as they arrive; None until one does
        root = None
        merged = 0
        for e in range(n):
            if used[e]:
                continue
            for gamma in auts[merged:]:
                if all(gamma[v] == v for v in pre):
                    root = root or list(range(n))
                    _merge_orbits(root, gamma)
            merged = len(auts)
            if root is not None and root[e] != e:
                continue
            pre.append(e)
            used[e] = True
            cur_bits.append(level_bits(pre, p))
            if compare_prefix() <= 0:
                rec(p + 1)
            cur_bits.pop()
            pre.pop()
            used[e] = False

    rec(0)

    position = [0] * n
    for idx, elt in enumerate(best_pre):
        position[elt] = idx
    canon = a.relabel(tuple(position), name=a.name)
    return canon, Embedding(a, canon, tuple(position))


def canonical_key(a: Structure) -> tuple:
    """Total, isomorphism-invariant sort key for structures of one signature.

    The key is the bit sequence the canonicalizer minimizes, so within one
    size sparser structures sort first.
    """
    canon, _ = canonical_form(a)
    tables = [table for _, table in canon.relations]
    slots = _level_slots(canon.signature, canon.size)
    bits = tuple(
        1 if t in tables[ri] else 0
        for p in range(canon.size)
        for ri, t in slots[p]
    )
    return (a.size, bits, canon.constants)

