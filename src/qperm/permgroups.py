"""Finite permutation groups and multiplication tables.

Permutations act on {0, ..., n-1} and are stored as tuples: sigma maps j to
sigma[j].  Composition is (a * b)(j) = a(b(j)).  A :class:`FiniteGroup` is an
abstract multiplication table; it is what the dual-group constructor consumes.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np


def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def compose(a: tuple, b: tuple) -> tuple:
    """(a compose b)(j) = a(b(j))."""
    return tuple(a[b[j]] for j in range(len(a)))


def perm_order(a: tuple) -> int:
    return coset_order(a, {identity_perm(len(a))})


def from_cycles(n: int, *cycles) -> tuple:
    """Permutation of {0..n-1} from disjoint cycles given in 0-indexed labels."""
    out = list(range(n))
    for cyc in cycles:
        for i in range(len(cyc)):
            out[cyc[i]] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def _reachable(start, gens, step) -> set:
    """Everything reached from start by steps a -> step(a, g), g in gens: a
    breadth-first search."""
    seen, frontier = {start}, [start]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = step(a, g)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return seen


def closure(gens: list[tuple]) -> list[tuple]:
    """Group generated by the given permutations, sorted, so identity first."""
    if not gens:
        raise ValueError("need at least one generator")
    return sorted(_reachable(identity_perm(len(gens[0])), gens, compose))


def symmetric_group(n: int) -> list[tuple]:
    """All permutations of n points in lexicographic order, so identity first."""
    return list(itertools.permutations(range(n)))


@dataclass
class FiniteGroup:
    """Abstract finite group: element labels plus a multiplication table.

    ``table[i, j]`` is the index of element i times element j; index 0 is the
    identity.
    """

    labels: list[str]
    table: list[list[int]]
    perms: list = field(default=None, repr=False)
    _inv: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.labels)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table shape does not match labels")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise ValueError("index 0 must be the identity")
        T, points = np.array(self.table), np.arange(n)
        # without this, an element may lack an inverse, or its powers may
        # never return to the identity
        if not ((np.sort(T, axis=1) == points).all()
                and (np.sort(T, axis=0) == points[:, np.newaxis]).all()):
            raise ValueError("table rows and columns must permute 0..n-1; not a group")
        self._inv = (T == 0).argmax(axis=1).tolist()

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def element_order(self, i: int) -> int:
        return len(self.generated_by([i]))

    def generated_by(self, gens: list[int]) -> set[int]:
        table = self.table
        return _reachable(0, gens, lambda a, g: table[a][g])

    def generates(self, gens: list[int]) -> bool:
        return len(self.generated_by(gens)) == self.order

    def subgroups(self) -> list[frozenset]:
        """All subgroups, by closing the cyclic subgroups under joins.

        Every subgroup is the end of a chain <g1> < <g1, g2> < ..., each link
        the join of the one before with one more element.  So joining every
        subgroup found with every element outside it, until nothing new
        appears, finds them all, however many generators they need.  Each
        subgroup keeps the generators it was found with, which are few.
        """
        gens = {}
        for g in range(self.order):
            gens.setdefault(frozenset(self.generated_by([g])), [g])
        frontier = list(gens)
        while frontier:
            new = []
            for H in frontier:
                for g in range(self.order):
                    if g in H:
                        continue
                    K = frozenset(self.generated_by(gens[H] + [g]))
                    if K not in gens:
                        gens[K] = gens[H] + [g]
                        new.append(K)
            frontier = new
        return sorted(gens, key=lambda s: (len(s), sorted(s)))

    def is_subgroup(self, subset) -> bool:
        s = set(subset)
        if 0 not in s:
            return False
        return all(self.table[a][b] in s for a in s for b in s)

    def is_normal(self, subset) -> bool:
        s = set(subset)
        if not self.is_subgroup(s):
            return False
        for g in range(self.order):
            gi = self.inv(g)
            for a in s:
                if self.table[self.table[g][a]][gi] not in s:
                    return False
        return True

    @classmethod
    def from_permutations(cls, perms: list[tuple]) -> "FiniteGroup":
        """The group of a list of permutations of one 0..n-1, each any sequence
        of ints, read as a tuple, sorted, so identity first.  A finite set
        closed under composition is a group: closure is the check."""
        try:
            order = sorted({tuple(operator.index(j) for j in p) for p in perms})
        except TypeError:
            raise ValueError("every permutation must be a sequence of ints") from None
        n = len(order[0]) if order else 0
        if n < 1 or any(sorted(p) != list(range(n)) for p in order):
            raise ValueError("every permutation must list the images of 0..n-1, for one n >= 1")
        P = np.array(order)
        idx = {p: i for i, p in enumerate(order)}
        try:  # P[a, P[b]] lists the images of a compose b
            table = [[idx[tuple(ab)] for ab in row] for row in P[:, P].tolist()]
        except KeyError:
            raise ValueError("permutation list is not closed under composition") from None
        return cls([perm_label(p) for p in order], table, perms=order)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls([f"g{i}" for i in range(n)], table)

    @classmethod
    def dihedral(cls, m: int) -> "FiniteGroup":
        """Dihedral group of order 2m generated by two reflections a, b.

        Elements are words r^k and r^k a with r = ab of order m; labels record
        the normal form.  a is index 1, b = r a is the element with r-power 1.
        """
        n = 2 * m

        def key(k, f):  # rotation r^k, optional reflection flag
            return k % m + (m if f else 0)

        def mul(x, y):
            kx, fx = x % m, x >= m
            ky, fy = y % m, y >= m
            # (r^kx a^fx)(r^ky a^fy): a r^k = r^{-k} a
            if fx:
                return key(kx - ky, not fy)
            return key(kx + ky, fy)

        table = [[mul(i, j) for j in range(n)] for i in range(n)]
        labels = [f"r{k}" for k in range(m)] + [f"r{k}a" for k in range(m)]
        return cls(labels, table)

    def dihedral_reflections(self) -> tuple[int, int]:
        """Indices of the two standard reflection generators a and b = r a."""
        m = self.order // 2
        return m, m + 1


def perm_label(p: tuple) -> str:
    """Cycle-notation label, 1-indexed, 'e' for the identity."""
    n = len(p)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
    return "".join(parts) if parts else "e"


def klein_four() -> list[tuple]:
    """The normal Klein four-group inside S_4 (identity and double transpositions)."""
    e = identity_perm(4)
    return [e, (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


def coset_order(g: tuple, normal) -> int:
    """Order of the coset gK in the quotient by a normal subgroup K.

    It is the least k >= 1 with g^k in K, and it divides the order of g.
    """
    normal = frozenset(normal)
    power, k = g, 1
    while power not in normal:
        power = compose(power, g)
        k += 1
    return k
