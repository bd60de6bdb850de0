"""Finite relational structures, embeddings, and canonical forms.

A structure is a finite universe {0..n-1} with relation tables and named
constants over a fixed signature (relation and constant symbols only).
Embeddings are injective maps that preserve and reflect every relation and
fix constants; they are the morphisms everywhere else in the engine.

Every ``Embedding`` is valid by construction.  The constructor checks each
map once, where it enters the program (enumeration, sequence files,
canonical forms, colimits); ``compose`` builds composites without checking
again, since a composite of embeddings is an embedding.  Code inside the
engine therefore trusts any ``Embedding`` it is handed, and the category
layer composes by looking composite maps up instead of building them.

All types are immutable and hashable, all operations are pure, and every
enumeration is returned in a deterministic (lexicographic) order so that
certificates built on top of them are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
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
        for rname, table in self.source.relations:
            ar = self.source.signature.arity(rname)
            tgt = self.target.rel(rname)
            for t in itertools.product(range(self.source.size), repeat=ar):
                if (t in table) != (tuple(self.map[v] for v in t) in tgt):
                    raise WorkbenchError(f"relation {rname!r} not matched on {t}")
        for cname, v in self.source.constants:
            if self.map[v] != self.target.constant(cname):
                raise WorkbenchError(f"constant {cname!r} not preserved")

    def __call__(self, i: int) -> int:
        return self.map[i]

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


def enumerate_embeddings(a: Structure, b: Structure) -> list[Embedding]:
    """All embeddings of a into b, ordered lexicographically by map tuple.

    Backtracking over source elements in index order; a partial map is pruned
    as soon as some fully-assigned tuple disagrees between the two tables
    (in either direction) or a constant is misplaced.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("embedding enumeration needs a shared signature")
    n, m = a.size, b.size
    if n > m:
        return []
    pinned: dict[int, int] = {}
    for cname, v in a.constants:
        w = b.constant(cname)
        if v in pinned and pinned[v] != w:
            return []
        pinned[v] = w

    sig = a.signature
    checks = []  # per element i: list of (table_a, table_b, tuples mentioning i)
    for i in range(n):
        per = []
        for rname, _ in sig.relations:
            ar = sig.arity(rname)
            per.append((a.rel(rname), b.rel(rname),
                        tuple(_tuples_touching(i, ar))))
        checks.append(per)

    out: list[Embedding] = []
    assign = [-1] * n
    used = [False] * m

    def ok(i: int) -> bool:
        for ta, tb, tuples in checks[i]:
            for t in tuples:
                img = tuple(assign[v] for v in t)
                if -1 in img:
                    continue
                if (t in ta) != (img in tb):
                    return False
        return True

    def rec(i: int):
        if i == n:
            out.append(Embedding(a, b, tuple(assign)))
            return
        candidates = (pinned[i],) if i in pinned else range(m)
        for v in candidates:
            if used[v]:
                continue
            assign[i] = v
            used[v] = True
            if ok(i):
                rec(i + 1)
            assign[i] = -1
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
    structures get equal color multisets.  Used as a cheap pre-filter before
    full canonicalization; never as a substitute for it.
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


def canonical_form(a: Structure) -> tuple[Structure, Embedding]:
    """Least relabeling of ``a`` over all permutations, plus the witness.

    The order minimized is: membership bits of all relation tuples listed by
    growing maximum coordinate (then relation, then lexicographic tuple),
    with constant positions as the final tie-break.  Exhaustive search with
    branch-and-bound on the determined key prefix; identical output for
    isomorphic inputs, and the witness is the identity when the input is
    already canonical.
    """
    n = a.size
    sig = a.signature
    if n == 0:
        return a, Embedding(a, a, ())
    slots = _level_slots(sig, n)
    tables = [table for _, table in a.relations]

    def level_bits(pre: list[int], p: int) -> tuple[int, ...]:
        return tuple(
            1 if tuple(pre[v] for v in t) in tables[ri] else 0
            for ri, t in slots[p]
        )

    def tail(pre: list[int]) -> tuple[int, ...]:
        pos = {e: i for i, e in enumerate(pre)}
        return tuple(pos[v] for _, v in a.constants)

    ident = list(range(n))
    best_bits = [level_bits(ident, p) for p in range(n)]
    best_tail = tail(ident)
    best_pre = tuple(ident)

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
            if cmp < 0 or (cmp == 0 and tail(pre) < best_tail):
                best_bits = list(cur_bits)
                best_tail = tail(pre)
                best_pre = tuple(pre)
            return
        for e in range(n):
            if used[e]:
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


def isomorphic(a: Structure, b: Structure) -> bool:
    if a.signature != b.signature or a.size != b.size:
        return False
    if sorted(refinement_partition(a)) != sorted(refinement_partition(b)):
        return False
    return canonical_form(a)[0] == canonical_form(b)[0]
