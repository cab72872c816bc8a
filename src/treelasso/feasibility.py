"""Exact feasibility of the identification-and-strict-order systems the oracle builds.

Every definition-level lasso question is one kind of system: the heights of
two trees, strictly decreasing along each tree's edges, tied by one
identification per cord.  So the system holds only pairs: ``x = y`` and
``x > y``.  It is solved exactly as a longest-path problem on a digraph:

* identifications are merged with a union-find first;
* ``x > y`` is an edge from ``y``'s class to ``x``'s, and a merged
  self-loop ``x > x`` makes the system infeasible;
* one topological pass (Kahn) gives each class the number of edges on its
  longest incoming path; a class the pass never reaches lies on or behind
  a cycle, and every cycle is strict, so the system is then infeasible;
* a variable's level is its class's path length, a plain ``int`` at least
  0, and the levels are the least integer point.

One call returns both the verdict and the exact point.  The engine,
:func:`_solve_levels`, answers levels.  The oracles call it on dense integer
ids and build a witness's height maps straight from its levels
(``HeightMap._from_levels``); :class:`StrictLinearSystem` and
:func:`strict_feasible` state the same systems over named variables and
answer the levels as ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Sequence

from .lasso import _Record

__all__ = ["StrictLinearSystem", "strict_feasible"]


class StrictLinearSystem(_Record):
    """A system of identifications and strict orders.

    ``equalities`` holds pairs ``(u, w)`` meaning ``u == w`` and
    ``strict_inequalities`` pairs meaning ``u > w``.
    """

    __slots__ = __match_args__ = ("variables", "equalities", "strict_inequalities")

    def __init__(
        self,
        variables: tuple[Hashable, ...],
        equalities: tuple[tuple[Hashable, Hashable], ...],
        strict_inequalities: tuple[tuple[Hashable, Hashable], ...],
    ) -> None:
        self._set(variables, equalities, strict_inequalities)


def _solve_levels(
    n: int,
    equal: Sequence[tuple[int, int]],
    greater: Sequence[tuple[int, int]],
) -> list[int] | None:
    """The least integer point of the variables ``0..n-1``, or None when there is none.

    ``equal`` holds ``(x, y)`` meaning ``x = y`` and ``greater`` holds
    ``(x, y)`` meaning ``x > y``.  Each value is a plain ``int``, its level:
    the number of edges on its class's longest incoming path.
    """
    parent = list(range(n))
    for x, y in equal:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[x] = y
    if equal:
        for v in range(n):
            r = parent[v]
            while parent[r] != r:
                r = parent[r]
            parent[v] = r

    out = [[] for _ in range(n)]  # lower class -> higher classes
    indeg = [0] * n
    for x, y in greater:
        x = parent[x]
        y = parent[y]
        if x == y:
            return None  # x > x
        out[y].append(x)
        indeg[x] += 1

    value = [0] * n
    order = [u for u in range(n) if not indeg[u]]
    for u in order:  # grows as classes lose their last incoming edge
        a = value[u] + 1
        for w in out[u]:
            if a > value[w]:
                value[w] = a
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) < n:
        return None  # a class on or behind a cycle
    return list(map(value.__getitem__, parent))


def strict_feasible(system: StrictLinearSystem) -> dict | None:
    """An exact point meeting every constraint of the system, or None when none does.

    A constraint on a variable outside ``system.variables`` raises ``ValueError``.
    """
    ids = {v: i for i, v in enumerate(system.variables)}
    try:
        equal = [(ids[u], ids[w]) for u, w in system.equalities]
        greater = [(ids[u], ids[w]) for u, w in system.strict_inequalities]
    except KeyError as exc:
        raise ValueError(f"constraint mentions unknown variable {exc.args[0]!r}") from None
    levels = _solve_levels(len(ids), equal, greater)
    return None if levels is None else dict(zip(system.variables, map(Fraction, levels)))
