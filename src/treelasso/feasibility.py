"""Exact feasibility of the zero-constant difference systems the oracle builds.

Every definition-level lasso question is one kind of system: the heights of
two trees, strictly decreasing along each tree's edges, tied by one
identification per cord, with no constants.  It is solved exactly as a
longest-path problem on a digraph:

* identifications are merged with a union-find first;
* ``x >= y`` is an edge ``y -> x`` of weight 0 and ``x > y`` one of weight
  1, so a longest path counts strict edges, in integers;
* longest paths are taken in topological order, with Bellman-Ford passes
  only over the vertices on or behind a cycle; a cycle through a strict
  edge, a merged strict self-loop included, makes the system infeasible;
* a value is its longest path less that of the variable fixed at zero, and
  a small one reuses a shared, immutable ``Fraction``.

One call returns both the verdict and the exact point; a nonzero constant
raises ``ValueError``.  :class:`StrictLinearSystem` and
:func:`strict_feasible` state the same systems over named variables; the
oracles call the engine on dense integer ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

__all__ = ["StrictLinearSystem", "strict_feasible"]


@dataclass(frozen=True)
class StrictLinearSystem:
    """A zero-constant system of identifications and strict orders.

    ``equalities`` holds pairs ``(u, w)`` meaning ``u == w`` and
    ``strict_inequalities`` pairs meaning ``u > w``; the variables in
    ``nonneg`` are additionally constrained to be >= 0.
    """

    variables: tuple[Hashable, ...]
    equalities: tuple[tuple[Hashable, Hashable], ...]
    strict_inequalities: tuple[tuple[Hashable, Hashable], ...]
    nonneg: frozenset = frozenset()


def _as_fraction(value, what: str) -> Fraction:
    """``value`` as an exact ``Fraction``; a float raises ``TypeError`` naming ``what``."""
    if type(value) is Fraction:  # not isinstance: Fraction's ABC check is slow
        return value
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact rationals, not floats")
    return Fraction(value)


# Points reuse these: a Fraction is immutable, so one object per small value serves every call.
_SMALL = tuple(map(Fraction, range(64)))


def _solve_differences(
    n: int,
    equal: Sequence[tuple[int, int, int]],
    greater: Sequence[tuple[int, int, int, bool]],
) -> list[Fraction] | None:
    """Exact values for the variables ``0..n-1`` of a difference system, or None.

    ``equal`` holds ``(x, y, 0)`` meaning ``x = y``; ``greater`` holds
    ``(x, y, 0, strict)`` meaning ``x >= y``, or ``x > y`` when ``strict``.
    Id ``n`` is fixed at zero, so ``(x, n, 0, False)`` keeps ``x`` nonnegative.
    The third field is a constant, and a nonzero one raises ``ValueError``.
    Every value is an integral ``Fraction``.
    """
    parent = list(range(n + 1))
    for x, y, c in equal:
        if c:
            raise ValueError(f"nonzero constant {c!r}: only x = y is supported")
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[x] = y
    if equal:
        for v in range(n + 1):
            r = parent[v]
            while parent[r] != r:
                r = parent[r]
            parent[v] = r

    out = [[] for _ in range(n + 1)]  # lower class -> [(higher class, strict)]
    indeg = [0] * (n + 1)
    for x, y, c, strict in greater:
        if c:
            raise ValueError(f"nonzero constant {c!r}: only x >= y and x > y are supported")
        x = parent[x]
        y = parent[y]
        if x == y:
            if strict:
                return None
            continue
        out[y].append((x, strict))
        indeg[x] += 1

    # longest paths, counting strict edges
    value = [0] * (n + 1)
    queue = [u for u in range(n + 1) if not indeg[u]]
    while queue:
        u = queue.pop()
        a = value[u]
        for w, s in out[u]:
            if a + s > value[w]:
                value[w] = a + s
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    rest = [u for u in range(n + 1) if indeg[u]]
    if rest:  # on or behind a cycle: only these can still change
        for _ in range(len(rest)):
            changed = False
            for u in rest:
                a = value[u]
                for w, s in out[u]:
                    if a + s > value[w]:
                        value[w] = a + s
                        changed = True
            if not changed:
                break
        else:
            return None  # a cycle through a strict edge

    z = value[parent[n]]  # shifted so that the zero variable is 0
    small = len(_SMALL)
    points = []
    for v in range(n):
        num = value[parent[v]] - z
        points.append(_SMALL[num] if 0 <= num < small else Fraction(num))
    return points


def strict_feasible(system: StrictLinearSystem) -> dict | None:
    """An exact point meeting every constraint of the system, or None when none does.

    A constraint on a variable outside ``system.variables`` raises ``ValueError``.
    """
    ids = {v: i for i, v in enumerate(system.variables)}
    zero = len(ids)
    try:
        equal = [(ids[u], ids[w], 0) for u, w in system.equalities]
        greater = [(ids[u], ids[w], 0, True) for u, w in system.strict_inequalities]
        greater += [(ids[v], zero, 0, False) for v in system.nonneg]
    except KeyError as exc:
        raise ValueError(f"constraint mentions unknown variable {exc.args[0]!r}") from None
    values = _solve_differences(zero, equal, greater)
    return None if values is None else dict(zip(system.variables, values))
