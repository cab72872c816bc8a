"""Exact strict feasibility: the library's engine of identifications and
strict orders and its named-variable shim, and the general route of
``tests/conftest.py`` (pins, rational constants, scaled differences)
against hand cases and grid-search oracles."""

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from conftest import (
    LinearSystem,
    as_linear_system,
    linear_system,
    point_satisfies,
    reference_solve_differences,
    reference_strict_feasible,
)
from treelasso.oracle import (
    StrictLinearSystem,
    _solve_levels,
    strict_feasible,
)


def test_open_interval():
    sys_ = linear_system(["x"], strict=[({"x": 1}, 0), ({"x": -1}, -1)], nonneg=["x"])
    point = reference_strict_feasible(sys_)
    assert point is not None and 0 < point["x"] < 1
    assert point_satisfies(sys_, point)


def test_empty_interval():
    sys_ = linear_system(["x"], strict=[({"x": 1}, 0), ({"x": -1}, 0)], nonneg=["x"])
    assert reference_strict_feasible(sys_) is None


def test_no_constraints_at_all():
    sys_ = linear_system(["x", "y"], nonneg=["x"])
    point = reference_strict_feasible(sys_)
    assert point == {"x": 0, "y": 0}


def test_equalities_only():
    sys_ = linear_system(
        ["x", "y"],
        equalities=[({"y": 1}, Fraction(1, 4)), ({"x": 1, "y": -1}, Fraction(1, 2))],
        nonneg=["x", "y"],
    )
    point = reference_strict_feasible(sys_)
    assert point == {"x": Fraction(3, 4), "y": Fraction(1, 4)}


def test_non_difference_constraints_rejected():
    sys_ = linear_system(["x", "y"], equalities=[({"x": 1, "y": 1}, 1)])
    with pytest.raises(ValueError, match="not a difference"):
        reference_strict_feasible(sys_)
    sys2 = linear_system(["x", "y"], strict=[({"x": 2, "y": -1}, 0)])
    with pytest.raises(ValueError, match="not a difference"):
        reference_strict_feasible(sys2)


def test_scaled_differences_divided_through():
    sys_ = linear_system(
        ["x", "y"],
        equalities=[({"x": -3}, -3)],
        strict=[({"x": -2, "y": 2}, 1)],
        nonneg=["y"],
    )  # x = 1 and y - x > 1/2
    point = reference_strict_feasible(sys_)
    assert point is not None and point["x"] == 1 and point["y"] > Fraction(3, 2)
    assert point_satisfies(sys_, point)


def test_identification_chains_and_pins():
    sys_ = linear_system(
        ["a", "b", "c", "d"],
        equalities=[({"a": 1, "b": -1}, 0), ({"b": 1, "c": -1}, 0), ({"d": 1}, 2)],
        strict=[({"d": 1, "a": -1}, 0)],
        nonneg=["a", "b", "c", "d"],
    )
    point = reference_strict_feasible(sys_)
    assert point is not None
    assert point["a"] == point["b"] == point["c"] < point["d"] == 2
    assert point_satisfies(sys_, point)


def test_conflicting_pins_infeasible():
    sys_ = linear_system(["x"], equalities=[({"x": 1}, 1), ({"x": 2}, 4)])
    assert reference_strict_feasible(sys_) is None
    sys2 = linear_system(["x"], equalities=[({"x": 1}, -1)], nonneg=["x"])
    assert reference_strict_feasible(sys2) is None


def test_free_variables_allowed_negative():
    sys_ = linear_system(
        ["x"], strict=[({"x": 1}, -5), ({"x": -1}, 1)]
    )  # -5 < x < -1, x unrestricted in sign
    point = reference_strict_feasible(sys_)
    assert point is not None and -5 < point["x"] < -1


def test_strict_cycle_infeasible():
    sys_ = linear_system(
        ["x", "y", "z"],
        strict=[({"x": 1, "y": -1}, 0), ({"y": 1, "z": -1}, 0), ({"z": 1, "x": -1}, 0)],
        nonneg=["x", "y", "z"],
    )
    assert reference_strict_feasible(sys_) is None


def test_merge_induced_cycle_infeasible():
    sys_ = linear_system(
        ["x", "y"],
        equalities=[({"x": 1, "y": -1}, 0)],
        strict=[({"x": 1, "y": -1}, 0)],
        nonneg=["x", "y"],
    )
    assert reference_strict_feasible(sys_) is None


@pytest.mark.parametrize("where", ["equalities", "strict"])
def test_float_coefficients_and_constants_rejected(where):
    # floats are not exact: 0.1 would be stored as 3602879701896397/2**55
    for constraint in (({"x": 0.5}, 0), ({"x": 1}, 0.1)):
        with pytest.raises(TypeError, match="must be exact rationals, not floats"):
            linear_system(["x"], nonneg=["x"], **{where: [constraint]})


def test_unknown_variables_rejected():
    with pytest.raises(ValueError):
        linear_system(["x"], strict=[({"y": 1}, 0)])
    with pytest.raises(ValueError):
        linear_system(["x"], nonneg=["y"])


# -- grid-search oracle -------------------------------------------------------
#
# Random difference systems on three variables, each kept inside [-1, 1) by
# differences against zero; a brute-force scan of the multiples of 1/8 in
# [-1, 1] decides feasibility independently of the engine.  The grid is fine
# enough: with constants in {0, +-1/2, +-1}, doubling every value makes the
# constants integers, and a constraint then depends only on the integer parts
# of the values and on the order of their fractional parts.  Three variables
# and the zero have at most four distinct fractional parts, so replacing
# each by its rank over four keeps every constraint and lands on the grid.

CONSTANTS = [Fraction(c, 2) for c in (0, 1, -1, 2, -2)]


def _grid_feasible(rows):
    """Brute force over the multiples of 1/8 in [-1, 1]^3.

    ``rows`` hold (integer coefficients, rhs, relation) for ``=``, ``>`` or
    ``>=``; they are checked on eight times the values, in integers.
    """
    scaled = [(a, b, c, int(8 * rhs), rel) for (a, b, c), rhs, rel in rows]
    for x, y, z in product(range(-8, 9), repeat=3):
        for a, b, c, rhs, rel in scaled:
            lhs = a * x + b * y + c * z
            if not (lhs == rhs if rel == "=" else lhs > rhs if rel == ">" else lhs >= rhs):
                break
        else:
            return x, y, z
    return None


def _system_rows(system):
    def vector(coeffs):
        return tuple(int(coeffs.get(n, 0)) for n in system.variables)

    rows = [(vector(coeffs), rhs, "=") for coeffs, rhs in system.equalities]
    rows += [(vector(coeffs), rhs, ">") for coeffs, rhs in system.strict_inequalities]
    rows += [(vector({n: 1}), 0, ">=") for n in system.nonneg]
    return rows


def _random_system(seed):
    """Pins, identifications, equalities with constants and strict
    differences, some scaled by a coefficient; some variables nonnegative,
    the others free."""
    rng = random.Random(seed)
    names = ["x0", "x1", "x2"]
    nonneg = [n for n in names if rng.random() < 0.5]
    strict = [({n: -1}, Fraction(-1)) for n in names]  # keep x < 1
    strict += [({n: 1}, Fraction(-1)) for n in names if n not in nonneg]  # and x > -1
    eqs = []
    for _ in range(rng.randint(1, 4)):
        a, b = rng.sample(names, 2)
        k = rng.choice([1, -1, 2])
        c = rng.choice(CONSTANTS)
        roll = rng.random()
        if roll < 0.15:
            eqs.append(({a: k}, k * c))  # pin a = c
        elif roll < 0.3:
            eqs.append(({a: 1, b: -1}, 0))  # identification
        elif roll < 0.45:
            eqs.append(({a: k, b: -k}, k * c))
        else:
            strict.append(({a: k, b: -k}, k * c))  # a - b against c, either way
    return linear_system(names, equalities=eqs, strict=strict, nonneg=nonneg)


def test_agrees_with_grid_search_on_200_random_systems():
    feasible_count = 0
    for seed in range(200):
        system = _random_system(seed)
        point = reference_strict_feasible(system)
        grid_point = _grid_feasible(_system_rows(system))
        assert (point is None) == (grid_point is None), f"seed {seed}"
        if point is not None:
            assert point_satisfies(system, point), f"seed {seed}"
            feasible_count += 1
    assert 0 < feasible_count < 200  # the family exercises both outcomes


def _random_engine_system(seed):
    """Strict and non-strict differences with constants, pins and
    identifications, in the engine's own terms; id 3 is the zero."""
    rng = random.Random(seed)
    greater = [(3, x, Fraction(-1), True) for x in range(3)]  # x < 1
    greater += [(x, 3, Fraction(-1), False) for x in range(3)]  # x >= -1
    equal = []
    for _ in range(rng.randint(1, 5)):
        x, y = rng.sample(range(4), 2)
        c = rng.choice(CONSTANTS)
        roll = rng.random()
        if roll < 0.15:
            equal.append((x, y, c))
        elif roll < 0.3:
            equal.append((x, y, Fraction(0)))
        else:
            greater.append((x, y, c, rng.random() < 0.5))
    return equal, greater


def _engine_rows(equal, greater):
    def vector(x, y):
        v = [0, 0, 0, 0]
        v[x] += 1
        v[y] -= 1
        return tuple(v[:3])  # id 3 is the zero

    rows = [(vector(x, y), c, "=") for x, y, c in equal]
    rows += [(vector(x, y), c, ">" if strict else ">=") for x, y, c, strict in greater]
    return rows


def _holds(values, equal, greater):
    v = list(values) + [0]
    return all(v[x] - v[y] == c for x, y, c in equal) and all(
        v[x] - v[y] > c if strict else v[x] - v[y] >= c for x, y, c, strict in greater
    )


def test_engine_agrees_with_grid_search_on_200_non_strict_systems():
    feasible_count = 0
    for seed in range(200):
        equal, greater = _random_engine_system(seed)
        values = reference_solve_differences(3, equal, greater)
        grid_point = _grid_feasible(_engine_rows(equal, greater))
        assert (values is None) == (grid_point is None), f"seed {seed}"
        if values is not None:
            assert _holds(values, equal, greater), f"seed {seed}"
            feasible_count += 1
    assert 0 < feasible_count < 200


# Digests of the general engine's exact outputs, recorded in the library
# before the points were built from integer numerators and before constants
# left it: each value must keep its value and its type.
ENGINE_200_SHA256 = "5b89d8e83e93dc1daacc804b0d970d01f765d08a496d79e4264b21cadfbc8711"
STRICT_200_SHA256 = "7409dae22dae770907a630bcacf80d01e1bda33d97a60607854ec6043bc844f2"


def _digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def test_engine_outputs_match_the_recorded_corpus():
    engine = [reference_solve_differences(3, *_random_engine_system(seed)) for seed in range(200)]
    assert _digest(engine) == ENGINE_200_SHA256
    strict = [reference_strict_feasible(_random_system(seed)) for seed in range(200)]
    assert _digest(strict) == STRICT_200_SHA256


def _as_reference(equal, greater):
    """Engine pairs as the reference engine's zero-constant constraints."""
    return [(x, y, 0) for x, y in equal], [(x, y, 0, True) for x, y in greater]


def _pairs_hold(values, equal, greater):
    return all(values[x] == values[y] for x, y in equal) and all(
        values[x] > values[y] for x, y in greater
    )


def test_engine_matches_the_reference_engine_on_200_random_systems():
    # the identifications and strict orders with constant 0 of each system
    # above, id 3 an ordinary variable: the library engine returns None when
    # the reference does, and otherwise int levels equal to the reference's
    # Fractions, value for value
    feasible = 0
    for seed in range(200):
        equal, greater = _random_engine_system(seed)
        pairs = (
            [(x, y) for x, y, c in equal if not c],
            [(x, y) for x, y, c, strict in greater if strict and not c],
        )
        got = _solve_levels(4, *pairs)
        reference = reference_solve_differences(4, *_as_reference(*pairs))
        assert (got is None) == (reference is None), f"seed {seed}"
        if got is not None:
            assert [Fraction(a) for a in got] == reference, f"seed {seed}"
            assert all(type(a) is int for a in got), f"seed {seed}"
            assert _pairs_hold(got, *pairs), f"seed {seed}"
            feasible += 1
    assert 0 < feasible < 200


def test_fraction_face_maps_the_core_levels_on_200_random_systems():
    # the systems of the test above over named variables: the core answers
    # plain ints, or None exactly when strict_feasible does, and
    # strict_feasible is those levels as Fractions
    feasible = 0
    for seed in range(200):
        equal, greater = _random_engine_system(seed)
        pairs = (
            [(x, y) for x, y, c in equal if not c],
            [(x, y) for x, y, c, strict in greater if strict and not c],
        )
        levels = _solve_levels(4, *pairs)
        point = strict_feasible(StrictLinearSystem(tuple(range(4)), *map(tuple, pairs)))
        if levels is None:
            assert point is None, f"seed {seed}"
            continue
        assert all(type(a) is int for a in levels), f"seed {seed}"
        values = [point[v] for v in range(4)]
        assert values == [Fraction(a) for a in levels], f"seed {seed}"
        assert all(type(v) is Fraction for v in values), f"seed {seed}"
        feasible += 1
    assert 0 < feasible < 200


def _random_strict_pair_system(rng):
    """Identifications and strict orders on 2-8 variables, dense enough for
    cycles; about a third of the systems are a ring of orders plus a few
    more, so that some cycles have no shorter one."""
    n = rng.randint(2, 8)
    equal = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        ring = rng.sample(range(n), rng.randint(2, n))
        greater = list(zip(ring, ring[1:] + ring[:1]))
        greater += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))]
    else:
        greater = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, n + 2))]
    return n, equal, greater


def _class_graph(n, equal, greater):
    """The classes of the identifications, the edges ``y -> x`` of ``greater``
    between them, and the classes each class reaches by one edge or more."""
    cls = list(range(n))
    for x, y in equal:  # relabel by repeated sweeps: no union-find
        a, b = cls[x], cls[y]
        cls = [a if c == b else c for c in cls]
    edges = {(cls[y], cls[x]) for x, y in greater}
    reach = {c: {w for v, w in edges if v == c} for c in set(cls)}
    for _ in range(n):
        reach = {c: r.union(*(reach[w] for w in r)) for c, r in reach.items()}
    return edges, reach


def test_engine_matches_the_reference_on_random_zero_constant_systems():
    # 400 seeded systems: int levels equal to the reference's Fractions, or
    # None on both sides, None exactly when the class graph has a cycle;
    # every feasible point satisfies its system.  The corpus holds feasible
    # systems, merged self-loops, cycles of three classes or more with no
    # shorter one, and classes that only a cycle reaches.
    rng = random.Random(23)
    feasible = self_loop = long_cycle = behind = 0
    for case in range(400):
        n, equal, greater = _random_strict_pair_system(rng)
        got = _solve_levels(n, equal, greater)
        reference = reference_solve_differences(n, *_as_reference(equal, greater))
        assert (got is None) == (reference is None), f"case {case}"
        edges, reach = _class_graph(n, equal, greater)
        on_cycle = {c for c, r in reach.items() if c in r}
        assert (got is None) == bool(on_cycle), f"case {case}"
        if got is not None:
            assert [Fraction(a) for a in got] == reference, f"case {case}"
            assert all(type(a) is int for a in got), f"case {case}"
            assert _pairs_hold(got, equal, greater), f"case {case}"
            feasible += 1
        loops = any(v == w for v, w in edges)
        self_loop += loops
        long_cycle += bool(on_cycle) and not loops and not any((w, v) in edges for v, w in edges)
        below = {c for c in reach if c not in on_cycle and any(c in reach[d] for d in on_cycle)}
        # a class every one of whose ancestors is on or behind a cycle
        behind += any(
            all(d in on_cycle or d in below for d in reach if c in reach[d]) for c in below
        )
    counts = feasible, self_loop, long_cycle, behind
    assert min(counts) > 30, counts


def test_engine_values_cross_the_shared_fraction_boundary():
    # a chain of 64 strict steps: id 0 counts 64 edges, one past the shared
    # Fractions 0..63 that witness height maps reuse, and id 64 counts none
    levels = _solve_levels(65, [], [(i, i + 1) for i in range(64)])
    assert [Fraction(a) for a in levels] == [Fraction(64 - i) for i in range(65)]
    assert type(levels[0]) is int


def test_shim_solves_named_zero_constant_systems():
    # u = w and u > w over named variables
    system = StrictLinearSystem(("x", "y", "z"), (("y", "z"),), (("x", "y"),))
    point = strict_feasible(system)
    assert point == {"x": 1, "y": 0, "z": 0}
    assert all(type(v) is Fraction for v in point.values())
    free = StrictLinearSystem(("x", "y"), (), (("x", "y"),))
    assert strict_feasible(free) == {"x": 1, "y": 0}
    cycle = StrictLinearSystem(("x", "y"), (("x", "y"),), (("x", "y"),))
    assert strict_feasible(cycle) is None
    # the shim agrees with the general route on each
    for s in (system, free, cycle):
        assert strict_feasible(s) == reference_strict_feasible(as_linear_system(s))


def test_shim_rejects_unknown_variables():
    for system in (
        StrictLinearSystem(("x",), (("x", "y"),), ()),
        StrictLinearSystem(("x",), (), (("y", "x"),)),
    ):
        with pytest.raises(ValueError, match="unknown variable 'y'"):
            strict_feasible(system)


@pytest.mark.parametrize(
    "n, equal, greater, expected",
    [
        # 0 < x0 <= 1: eps = 1/2
        (2, [], [(0, 2, Fraction(0), True), (2, 0, Fraction(-1), False)], [Fraction(1, 2), 0]),
        # 0 < x0 <= 1/3: eps = 1/6, from a fractional slack
        (2, [], [(0, 2, Fraction(0), True), (2, 0, Fraction(-1, 3), False)], [Fraction(1, 6), 0]),
        # 1 >= x0 > x1 > 0 with integer constants: eps = 1/3
        (2, [], [(0, 1, 0, True), (1, 2, 0, True), (2, 0, -1, False)], [Fraction(2, 3), Fraction(1, 3)]),
        # a constant identification and a fractional pin
        (
            3,
            [(1, 2, Fraction(1, 2))],
            [(0, 1, 0, True), (3, 0, Fraction(-5, 2), False), (2, 3, 0, True)],
            [Fraction(11, 6), Fraction(7, 6), Fraction(2, 3)],
        ),
    ],
)
def test_engine_points_with_eps_below_one(n, equal, greater, expected):
    values = reference_solve_differences(n, equal, greater)
    assert values == expected
    assert all(type(v) is Fraction for v in values)
    assert _holds(values, equal, greater)


@pytest.mark.parametrize("extra", [1, 3, 10])
def test_scaled_engine_gives_the_unscaled_points(extra):
    # constants times any common multiple of their denominators, solved in
    # units of 1/scale, give back exactly the point of the true constants
    for seed in range(200):
        equal, greater = _random_engine_system(seed)
        scale = extra * lcm(
            *(c.denominator for _, _, c in equal), *(g[2].denominator for g in greater)
        )
        scaled = reference_solve_differences(
            3,
            [(x, y, int(c * scale)) for x, y, c in equal],
            [(x, y, int(c * scale), strict) for x, y, c, strict in greater],
            scale,
        )
        plain = reference_solve_differences(3, equal, greater)
        assert scaled == plain, f"seed {seed}"
        assert scaled is None or all(type(v) is Fraction for v in scaled)


@pytest.mark.parametrize(
    "equalities, strict, expected",
    [
        ((({"x": 1}, 1),), (({"x": 2, "y": -2}, 1),), {"x": 1, "y": 0}),
        # 1 > x > y >= 0: the slack of x < 1 sets eps
        ((), (({"x": 1, "y": -1}, 0), ({"x": -1}, -1)), {"x": Fraction(1, 2), "y": 0}),
    ],
)
def test_integer_constants_stay_exact(equalities, strict, expected):
    # built without linear_system, a system may carry plain ints
    system = LinearSystem(("x", "y"), equalities, strict, frozenset({"y"}))
    point = reference_strict_feasible(system)
    assert point == expected
    assert all(type(v) is Fraction for v in point.values())
