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
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from . import FAILS, HOLDS
from .category import FiniteCategory, skeletonize
from .errors import ExpansionOverflow, WorkbenchError, check_type
from .structures import Signature, Structure, canonical_key

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


@dataclass(frozen=True)
class ExpandedSignature:
    base: Signature
    added: tuple[tuple[str, int, str, int], ...]   # (rep, color j, name, arity)

    def as_signature(self) -> Signature:
        return Signature(
            relations=self.base.relations + tuple(
                (name, arity) for _, _, name, arity in self.added),
            constants=self.base.constants,
        )


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
                if self.morphism_preserves(f, cstar, dstar)]

    def restriction(self, bstar: ExpandedObject, e: str) -> ExpandedObject:
        """The unique expansion of source(e) that makes e color-preserving."""
        cat = self.cat
        if cat.target(e) != bstar.base:
            raise WorkbenchError("restriction needs a morphism into the base")
        return ExpandedObject(cat.source(e), tuple(
            (rep, tuple(map(bstar.colors(rep).__getitem__, cat.post(e, rep))))
            for rep in self.reps))

    def logical_action(self, fstar: ExpandedObject, g: str) -> ExpandedObject:
        """The unique expansion with g color-preserving into fstar."""
        cat = self.cat
        if g not in cat.automorphism_ids(fstar.base):
            raise WorkbenchError("the action needs an automorphism of the base")
        return self.restriction(fstar, g)

    # -- ages ----------------------------------------------------------------

    def age(self, fstar: ExpandedObject) -> dict[tuple, ExpandedObject]:
        """Representative expansions admitting a morphism into fstar, keyed by
        the canonical form of their rendering."""
        out: dict[tuple, ExpandedObject] = {}
        for rep in self.reps:
            for e in self.cat.hom(rep, fstar.base):
                astar = self.restriction(fstar, e)
                key = canonical_key(self.render(astar))
                if key not in out:
                    out[key] = astar
        return out

    # -- rendering ------------------------------------------------------------

    def expanded_signature(self) -> ExpandedSignature:
        base = None
        for obj in self.cat.objects:
            base = self.cat.structure(obj).signature
            break
        if base is None:
            raise WorkbenchError("empty catalog has no signature")
        added = []
        for rep in self.reps:
            arity = self.cat.structure(rep).size
            for j in range(1, self.degrees[rep] + 1):
                name = f"{rep}_copy_color{j}"
                if any(name == rn for rn, _ in base.relations):
                    raise WorkbenchError(f"added relation {name!r} collides")
                added.append((rep, j, name, arity))
        return ExpandedSignature(base, tuple(added))

    def render(self, cstar: ExpandedObject) -> Structure:
        """View as a single structure over the widened signature."""
        esig = self.expanded_signature()
        base_struct = self.cat.structure(cstar.base)
        tables = {rname: set(table) for rname, table in base_struct.relations}
        for rep, j, name, _ in esig.added:
            hom = self.cat.hom(rep, cstar.base)
            colors = cstar.colors(rep)
            tables[name] = {
                self.cat.embedding(e).map
                for i, e in enumerate(hom) if colors[i] == j - 1
            }
        constants = {cname: v for cname, v in base_struct.constants}
        return Structure.make(esig.as_signature(), base_struct.size, tables,
                              constants, name=f"{cstar.base}*")


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
    minimal_age_keys: tuple
    notes: list[str] = field(default_factory=list)


def orbit_age_analysis(space: ExpansionSpace, f_obj: str) -> OrbitAgeReport:
    """Orbits of the fiber under the automorphism action, their ages, and a
    deterministic inclusion-minimal-age selection.

    On a finite fiber the closure of an orbit is the orbit itself, so the
    minimal-closed-orbit selection degenerates to comparing plain orbit
    ages; the report records that substitution.
    """
    cat = space.cat
    fiber = space.fiber(f_obj)
    auts = cat.automorphism_ids(f_obj)
    seen: set[ExpandedObject] = set()
    orbits: list[list[ExpandedObject]] = []
    for fstar in fiber:
        if fstar in seen:
            continue
        orbit = []
        for g in auts:
            moved = space.logical_action(fstar, g)
            if moved not in orbit:
                orbit.append(moved)
        orbit.sort(key=lambda x: x.theta)
        orbits.append(orbit)
        seen.update(orbit)

    ages = {fstar: frozenset(space.age(fstar).keys())
            for orbit in orbits for fstar in orbit}
    equal = all(
        len({ages[fstar] for fstar in orbit}) == 1 for orbit in orbits
    )

    candidates = sorted(fiber, key=lambda x: (sorted(ages[x]), x.theta))
    minimal = None
    for cand in candidates:
        if not any(ages[other] < ages[cand] for other in fiber):
            minimal = cand
            break
    return OrbitAgeReport(orbits, equal, minimal, tuple(sorted(ages[minimal])),
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
