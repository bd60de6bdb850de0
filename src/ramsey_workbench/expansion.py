"""Coloring-family expansions of a finite category.

An expanded object is a base object C together with one coloring
theta_A : hom(A, C) -> t_A per representative A.  Morphisms of expanded
objects are base morphisms that transport colorings on the nose.  Forgetting
the colorings is a functor whose reasonableness, free extension along every
mono, the audit decides; only a non-mono table breaks it.  Its four other
facts hold by construction, and ``tests/oracles.scan_forgetful`` checks them.
On one fiber, orbits stand in for the infinite setting's closures: fibers
are finite and discrete.

Only the ``FiniteCategory`` interface is read, so expansions run on table
categories as on structure catalogs.  An object's representative is the
first earlier representative r with f: a -> r and g: r -> a such that
g.f = id_a and f.g = id_r, else the object itself: on a structure catalog,
the first member of its isomorphism class.

The restriction lemma: e: A -> B transports A* into B* exactly when A* is
restriction(B*, e), which reads B*'s colorings at the rows ``post(e, rep)``.
So the forgetful audit needs no scan over pairs of fibers: reasonable
means every A* is the restriction of some B*.  Absorption asks
whether A* lies in {restriction(B*, f) : f in hom(A, B)}, a set built once
per (A, B*).  Two expansions of one object are isomorphic exactly when an
automorphism g restricts one onto the other, so isomorphism types are the
orbits {restriction(A*, g) : g in Aut(A)}; a table reads Aut(A) off rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from . import FAILS, HOLDS
from .category import FiniteCategory
from .errors import ExpansionOverflow, WorkbenchError, check_type
# not called here: perfbench/spans.py wraps this name in this module
from .structures import canonical_key  # noqa: F401

FIBER_BUDGET = 200_000   # most expansions one fiber may enumerate


@dataclass(frozen=True)
class ExpandedObject:
    base: str
    theta: tuple[tuple[str, tuple[int, ...]], ...]  # per rep, colors in hom order

    def colors(self, rep: str) -> tuple[int, ...]:
        for r, values in self.theta:
            if r == rep:
                return values
        raise KeyError(rep)


class ExpansionSpace:
    """All coloring families over one catalog and one degree assignment:
    ``degrees`` maps each representative, in order, to its colors (default 1)."""

    def __init__(self, cat: FiniteCategory, degrees: dict[str, int]):
        self.cat = cat
        self.reps: list[str] = []
        self.rep_of: dict[str, str] = {}
        for a in cat.objects:
            rep = next((r for r in self.reps if _isomorphic(cat, a, r)), a)
            self.rep_of[a] = rep
            if rep == a:
                self.reps.append(a)
        for rep, t in degrees.items():
            check_type(t, int, f"degree of {rep}")
        unknown = set(degrees) - set(self.reps)
        if unknown:
            raise WorkbenchError(f"degrees given for non-representatives {sorted(unknown)}")
        if any(t < 1 for t in degrees.values()):
            raise WorkbenchError("degrees must be positive")
        self.degrees: dict[str, int] = {r: degrees.get(r, 1) for r in self.reps}

    # -- fibers -------------------------------------------------------------

    def fiber_size(self, obj: str) -> int:
        return math.prod(self.degrees[rep] ** len(self.cat.hom(rep, obj))
                         for rep in self.reps)

    def fiber(self, obj: str) -> list[ExpandedObject]:
        if self.fiber_size(obj) > FIBER_BUDGET:
            raise ExpansionOverflow(
                f"fiber over {obj} has {self.fiber_size(obj)} expansions")
        pools = [itertools.product(range(self.degrees[rep]),
                                   repeat=len(self.cat.hom(rep, obj)))
                 for rep in self.reps]
        return [ExpandedObject(obj, tuple(zip(self.reps, combo)))
                for combo in itertools.product(*pools)]

    # -- morphisms ----------------------------------------------------------

    def morphism_preserves(self, f: str, cstar: ExpandedObject,
                           dstar: ExpandedObject) -> bool:
        cat = self.cat
        if cat.source(f) != cstar.base or cat.target(f) != dstar.base:
            return False
        for rep in self.reps:
            c_colors = cstar.colors(rep)
            d_colors = dstar.colors(rep)
            for i, e in enumerate(cat.hom(rep, cstar.base)):
                if d_colors[cat.position(cat.compose(f, e))] != c_colors[i]:
                    return False
        return True

    def restriction(self, bstar: ExpandedObject, e: str) -> ExpandedObject:
        """The unique expansion of source(e) that makes e color-preserving."""
        cat = self.cat
        if cat.target(e) != bstar.base:
            raise WorkbenchError("restriction needs a morphism into the base")
        return ExpandedObject(cat.source(e), tuple(
            (rep, tuple(map(bstar.colors(rep).__getitem__, cat.post(e, rep))))
            for rep in self.reps))


def _isomorphic(cat: FiniteCategory, a: str, r: str) -> bool:
    """Some f: a -> r and g: r -> a with g.f = id_a and f.g = id_r.  id_a
    is read last: a structure category enumerates hom(a, a) to find it."""
    return any(cat.compose(g, f) == cat.identity(a)
               and cat.compose(f, g) == cat.identity(r)
               for f in cat.hom(a, r) for g in cat.hom(r, a))


# -- whole-category checks ----------------------------------------------------


@dataclass
class ForgetfulReport:
    reasonable: bool
    fiber_sizes: dict[str, int]
    failure: dict | None = None


def _restrict_column(column: list[tuple[int, ...]], row: tuple[int, ...]):
    """(c[p] for p in row) for each coloring c in column, as tuples."""
    if not row:
        return itertools.repeat((), len(column))
    if len(row) == 1:
        return zip(map(itemgetter(row[0]), column))
    return map(itemgetter(*row), column)


def check_forgetful(space: ExpansionSpace) -> ForgetfulReport:
    """Exhaustive audit of the forgetful functor on the catalog: it decides
    reasonableness, the one property that can fail, on a category that is
    not all mono: a row ``post(e, rep)`` that repeats a position makes some
    A* the restriction of nothing.  Each fiber is the space's own, every
    coloring family over its base once, so the functor is surjective on
    objects, injective on homs and precompact, with unique restrictions, by
    construction; ``tests/oracles.scan_forgetful`` checks those four facts.

    By the restriction lemma, e: A -> B preserves (A*, B*) exactly when
    A* = restriction(B*, e).  So for each e, with R_e the restrictions of
    fiber(B) in fiber order, reasonable means every A* in fiber(A) occurs
    in R_e: a hash lookup, O(|fiber B|) per morphism.  The first B* giving
    each A* is confirmed by ``morphism_preserves``.  ``failure`` names the
    first failure in (A, B, e, A*) order.
    """
    cat = space.cat
    fibers = {obj: space.fiber(obj) for obj in cat.objects}
    sizes = {obj: len(fibers[obj]) for obj in cat.objects}
    # each expansion's colorings in rep order, and per rep a column of them
    keys = {obj: [tuple(v for _, v in x.theta) for x in fibers[obj]]
            for obj in cat.objects}
    columns = {obj: list(zip(*keys[obj])) for obj in cat.objects}
    for a in cat.objects:
        for b in cat.objects:
            for e in cat.hom(a, b):
                r_e = list(zip(*map(_restrict_column, columns[b],
                                    [cat.post(e, rep) for rep in space.reps])))
                # built reversed, so each restriction keeps its first giver
                first = dict(zip(reversed(r_e), reversed(fibers[b])))
                for astar, key in zip(fibers[a], keys[a]):
                    bstar = first.get(key)
                    if bstar is None or not space.morphism_preserves(
                            e, astar, bstar):
                        return ForgetfulReport(False, sizes, {
                            "property": "reasonable", "e": e,
                            "Astar": astar.theta})
    return ForgetfulReport(True, sizes)


@dataclass
class OrbitAgeReport:
    orbits: list[list[ExpandedObject]]
    minimal: ExpandedObject
    notes: list[str] = field(default_factory=list)


def orbit_age_analysis(space: ExpansionSpace, f_obj: str) -> OrbitAgeReport:
    """Orbits of the fiber under the automorphism action, which moves F* to
    restriction(F*, g), and the first fiber member as the minimal-age pick.

    Orbit members have equal ages, so none is computed: restriction(
    restriction(F*, g), e) = restriction(F*, g.e), and g.e runs over
    hom(A, F) as e does.  When every endomorphism of f_obj is invertible, as
    in a structure catalog, ages over it are equal or incomparable, so every
    member's age is inclusion-minimal.  A finite orbit is its own closure;
    the report records that substitution.
    """
    fiber = space.fiber(f_obj)
    auts = space.cat.automorphism_ids(f_obj)
    seen: set[ExpandedObject] = set()
    orbits: list[list[ExpandedObject]] = []
    for fstar in fiber:
        if fstar not in seen:
            orbits.append(sorted({space.restriction(fstar, g) for g in auts},
                                 key=attrgetter("theta")))
            seen.update(orbits[-1])
    return OrbitAgeReport(orbits, fiber[0],
                          notes=["closure taken as orbit: fiber is finite "
                                 "and discrete"])


@dataclass
class ExpansionPropertyReport:
    direct: dict[str, str | None]
    single_object: dict[tuple[str, tuple], str | None]
    direct_status: str
    single_status: str
    agree: bool


def expansion_property_check(space: ExpansionSpace,
                             designated: dict[str, list[ExpandedObject]]) -> ExpansionPropertyReport:
    """Two readings of the absorption property for a designated family.

    Direct: every base object has a target object all of whose designated
    expansions absorb all of its own.  Single-object: every designated
    expansion separately admits such a target.  The two must agree on
    directed mono catalogs; any disagreement is flagged.  A* has a morphism
    into B* exactly when it is one of the restrictions of B* along hom(A, B),
    and that set is built once per (A, B*).
    """
    cat = space.cat

    @functools.cache
    def below(a: str, bstar: ExpandedObject) -> set[ExpandedObject]:
        return {space.restriction(bstar, f) for f in cat.hom(a, bstar.base)}

    def target(a_list) -> str | None:
        """The first object whose designated expansions absorb a_list."""
        return next((b for b in cat.objects
                     if all(astar in below(astar.base, bstar)
                            for astar in a_list
                            for bstar in designated.get(b, []))), None)

    direct = {a: target(a_list) if a_list else a
              for a, a_list in designated.items()}
    single = {(a, dstar.theta): target([dstar])
              for a, a_list in designated.items() for dstar in a_list}
    direct_status = HOLDS if all(v is not None for v in direct.values()) else FAILS
    single_status = HOLDS if all(v is not None for v in single.values()) else FAILS
    return ExpansionPropertyReport(direct, single, direct_status, single_status,
                                   agree=direct_status == single_status)
