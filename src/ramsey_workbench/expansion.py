"""Coloring-family expansions of a structure catalog.

An expanded object is a base object C together with one coloring
theta_A : hom(A, C) -> t_A per skeleton representative A.  Morphisms of
expanded objects are base morphisms that transport colorings on the nose,
and forgetting the colorings is a functor with finite fibers, unique
restrictions, and free extension along any morphism.  The checks here
verify all of that exhaustively on the loaded catalog, and the analyses on
a single fiber (automorphism orbits, ages, minimal-age selection) are the
finite counterparts of the closure arguments used on infinite limits:
fibers here are finite and discrete, so closures collapse to orbits, and
reports say so.

The restriction lemma: e: A -> B transports A* into B* exactly when A* is
restriction(B*, e), whose colorings read B*'s colorings at the positions of
the rows ``post(e, rep)``.  So the forgetful audit needs no scan over pairs
of fibers.  Reasonable (every A* extends along e) means every A* is the
restriction of some B*, and unique restrictions means each restriction
occurs exactly once in fiber(A): two hash lookups per morphism.

The same lemma decides every other relation between expansions.  A
morphism of expansions C* -> D* is an f with restriction(D*, f) = C*, and
since an isomorphism is such a morphism, two expansions of one object are
isomorphic exactly when an automorphism g of it restricts one onto the
other.  So an isomorphism type of expansions of A is an orbit
{restriction(A*, g) : g in Aut(A)}, named by its least member by theta,
and the automorphism action on a fiber moves F* to restriction(F*, g).
Ages over one base are equal or incomparable.  Each age holds its own
expansion's type, so if age(F*) lies inside age(F'*) over the same base,
F* embeds into F'*.  An embedding between objects of equal size is an
isomorphism, so F* and F'* are isomorphic and their ages are equal.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from . import FAILS, HOLDS
from .category import FiniteCategory, skeletonize
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
        skeleton = skeletonize(cat)
        self.reps: list[str] = skeleton.representative_objects
        self.rep_of: dict[str, str] = skeleton.representatives
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
        size = 1
        for rep in self.reps:
            size *= self.degrees[rep] ** len(self.cat.hom(rep, obj))
        return size

    def fiber(self, obj: str) -> list[ExpandedObject]:
        if self.fiber_size(obj) > FIBER_BUDGET:
            raise ExpansionOverflow(
                f"fiber over {obj} has {self.fiber_size(obj)} expansions")
        pools = []
        for rep in self.reps:
            t = self.degrees[rep]
            m = len(self.cat.hom(rep, obj))
            pools.append(list(itertools.product(range(t), repeat=m)))
        out = []
        for combo in itertools.product(*pools):
            out.append(ExpandedObject(
                obj, tuple((rep, values) for rep, values in zip(self.reps, combo))))
        return out

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

    def hom_star(self, cstar: ExpandedObject, dstar: ExpandedObject) -> list[str]:
        return [f for f in self.cat.hom(cstar.base, dstar.base)
                if self.restriction(dstar, f) == cstar]

    def restriction(self, bstar: ExpandedObject, e: str) -> ExpandedObject:
        """The unique expansion of source(e) that makes e color-preserving."""
        cat = self.cat
        if cat.target(e) != bstar.base:
            raise WorkbenchError("restriction needs a morphism into the base")
        return ExpandedObject(cat.source(e), tuple(
            (rep, tuple(map(bstar.colors(rep).__getitem__, cat.post(e, rep))))
            for rep in self.reps))

    # -- ages ----------------------------------------------------------------

    def age(self, fstar: ExpandedObject) -> dict[ExpandedObject, ExpandedObject]:
        """Representative expansions admitting a morphism into fstar, one per
        isomorphism type in first-seen order, each keyed by the least member,
        by theta, of its orbit under the automorphisms of its base."""
        out: dict[ExpandedObject, ExpandedObject] = {}
        for rep in self.reps:
            auts = self.cat.automorphism_ids(rep)
            for e in self.cat.hom(rep, fstar.base):
                astar = self.restriction(fstar, e)
                key = min((self.restriction(astar, g) for g in auts),
                          key=attrgetter("theta"))
                out.setdefault(key, astar)
        return out


# -- whole-category checks ----------------------------------------------------


@dataclass
class ForgetfulReport:
    surjective_on_objects: bool
    injective_on_homs: bool
    reasonable: bool
    unique_restrictions: bool
    precompact: bool
    fiber_sizes: dict[str, int]
    failure: dict | None = None

    @property
    def all_hold(self) -> bool:
        return (self.surjective_on_objects and self.injective_on_homs
                and self.reasonable and self.unique_restrictions
                and self.precompact)


def _restrict_column(column: list[tuple[int, ...]], row: tuple[int, ...]):
    """(c[p] for p in row) for each coloring c in column, as tuples."""
    if not row:
        return itertools.repeat((), len(column))
    if len(row) == 1:
        return zip(map(itemgetter(row[0]), column))
    return map(itemgetter(*row), column)


def check_forgetful(space: ExpansionSpace,
                    fibers: dict[str, list[ExpandedObject]] | None = None) -> ForgetfulReport:
    """Exhaustive audit of the forgetful functor on the catalog.

    ``fibers`` overrides the full enumeration (used to probe doctored
    sub-fibers, which should break the free-extension property).  It must
    hold every catalog object, with each theta listing the representatives
    in order; an entry may sit over a foreign base.

    By the restriction lemma, e: A -> B preserves (A*, B*) exactly when
    A* = restriction(B*, e).  So for each e, with R_e the restrictions of
    the entries of fiber(B) in fiber order, each property is a hash lookup:
    reasonable means every A* in fiber(A) occurs in R_e, and unique
    restrictions means every member of R_e occurs exactly once in fiber(A).
    That is O(|fiber B|) per morphism, and R_e lives for one morphism.
    The first B* giving each A* is confirmed by ``morphism_preserves``.
    ``failure`` names what a scan over pairs of fibers finds first: the
    reasonable failure in (A, B, e, A*) order, else the unique-restrictions
    failure in (B, B*, A, e) order.
    """
    cat = space.cat
    reps = tuple(space.reps)
    if fibers is None:
        fibers = {obj: space.fiber(obj) for obj in cat.objects}
    else:
        for obj in cat.objects:
            if obj not in fibers:
                raise WorkbenchError(f"fiber override lacks catalog object {obj!r}")
            if any(tuple(r for r, _ in x.theta) != reps for x in fibers[obj]):
                raise WorkbenchError(f"fiber override over {obj!r} holds an "
                                     f"expansion that does not color {list(reps)}")
    sizes = {obj: len(fibers[obj]) for obj in cat.objects}

    surjective = all(sizes[obj] >= 1 for obj in cat.objects)
    precompact = all(sizes[obj] == space.fiber_size(obj) for obj in cat.objects)

    injective = True   # morphisms of expansions are base morphisms verbatim

    # the colorings of each entry in rep order, None for an entry over a
    # foreign base: it is nobody's restriction and has none
    keys = {obj: [tuple(v for _, v in x.theta) if x.base == obj else None
                  for x in fibers[obj]] for obj in cat.objects}
    own = {obj: [i for i, k in enumerate(keys[obj]) if k is not None]
           for obj in cat.objects}
    columns = {obj: [[keys[obj][i][j] for i in own[obj]] for j in range(len(reps))]
               for obj in cat.objects}
    first_foreign = {obj: next((i for i, k in enumerate(keys[obj]) if k is None),
                               sizes[obj]) for obj in cat.objects}

    failure = None   # the first reasonable failure
    least = None     # ((B, B* position, A, e position), e): least unique failure
    rank = {obj: i for i, obj in enumerate(cat.objects)}
    for a in cat.objects:
        count = Counter(k for k in keys[a] if k is not None)
        for b in cat.objects:
            for k, e in enumerate(cat.hom(a, b)):
                # R_e, over the entries own[b] of fiber(B)
                r_e = list(zip(*map(_restrict_column, columns[b],
                                    [cat.post(e, rep) for rep in reps])))
                if failure is None:
                    # built reversed, so each restriction keeps its first giver
                    first = dict(zip(reversed(r_e), reversed(own[b])))
                    for astar, key in zip(fibers[a], keys[a]):
                        i = first.get(key)
                        if i is None or not space.morphism_preserves(
                                e, astar, fibers[b][i]):
                            failure = {"property": "reasonable", "e": e,
                                       "Astar": astar.theta}
                            break
                counts = list(map(count.__getitem__, r_e))
                i = first_foreign[b]
                if counts.count(1) < len(counts):
                    j = next(j for j, c in enumerate(counts) if c != 1)
                    i = min(i, own[b][j])
                if i < sizes[b] and (least is None
                                     or (rank[b], i, rank[a], k) < least[0]):
                    least = ((rank[b], i, rank[a], k), e)

    reasonable = failure is None
    unique = least is None
    if least is not None:
        (_, i, _, _), e = least
        bstar = fibers[cat.target(e)][i]
        if bstar.base != cat.target(e):
            # the scan asks restriction() for it, which refuses
            raise WorkbenchError("restriction needs a morphism into the base")
        if failure is None:
            failure = {"property": "unique-restrictions", "e": e,
                       "Bstar": bstar.theta}
    return ForgetfulReport(surjective, injective, reasonable, unique,
                           precompact, sizes, failure)


@dataclass
class OrbitAgeReport:
    orbits: list[list[ExpandedObject]]
    ages_equal_on_orbits: bool
    minimal: ExpandedObject
    notes: list[str] = field(default_factory=list)


def orbit_age_analysis(space: ExpansionSpace, f_obj: str) -> OrbitAgeReport:
    """Orbits of the fiber under the automorphism action, their ages, and a
    deterministic inclusion-minimal-age selection.

    An automorphism g moves F* to restriction(F*, g), and two expansions of
    f_obj are isomorphic exactly when they share an orbit.  Ages over one
    base are equal or incomparable, so every fiber member has an
    inclusion-minimal age and the selection is the first in fiber order.
    On a finite fiber the closure of an orbit is the orbit itself, so the
    minimal-closed-orbit selection degenerates to comparing plain orbit
    ages; the report records that substitution.
    """
    fiber = space.fiber(f_obj)
    auts = space.cat.automorphism_ids(f_obj)
    seen: set[ExpandedObject] = set()
    orbits: list[list[ExpandedObject]] = []
    for fstar in fiber:
        if fstar in seen:
            continue
        orbit = sorted({space.restriction(fstar, g) for g in auts},
                       key=attrgetter("theta"))
        orbits.append(orbit)
        seen.update(orbit)

    equal = all(len({frozenset(space.age(fstar)) for fstar in orbit}) == 1
                for orbit in orbits)
    return OrbitAgeReport(orbits, equal, fiber[0],
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
    directed mono catalogs; any disagreement is flagged.
    """
    cat = space.cat

    def absorbs(a_list, b_list) -> bool:
        return all(space.hom_star(astar, bstar)
                   for astar in a_list for bstar in b_list)

    direct: dict[str, str | None] = {}
    for a, a_list in designated.items():
        if not a_list:
            direct[a] = a
            continue
        direct[a] = next(
            (b for b in cat.objects
             if absorbs(a_list, designated.get(b, []))), None)

    single: dict[tuple[str, tuple], str | None] = {}
    for a, a_list in designated.items():
        for dstar in a_list:
            single[(a, dstar.theta)] = next(
                (b for b in cat.objects
                 if all(space.hom_star(dstar, bstar)
                        for bstar in designated.get(b, []))), None)

    direct_status = HOLDS if all(v is not None for v in direct.values()) else FAILS
    single_status = HOLDS if all(v is not None for v in single.values()) else FAILS
    return ExpansionPropertyReport(direct, single, direct_status, single_status,
                                   agree=direct_status == single_status)
