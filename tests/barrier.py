"""The trade-off's weighted log-barrier, as an oracle: the tests check that
the closed-form bounds of ``setdecomp.tradeoff`` minimise it.

Each function takes ``BarrierProblem.free``, whose entries are
``(variable, side, inner wall, outer wall, producer weight a_p, summed
consumer weight a_c)``, and one value per free bound."""

import math

from setdecomp.tradeoff import solve_tradeoff


def barrier_value(free, x) -> float:
    """Sum over the free bounds of -a_p*ln|x - inner| - a_c*ln|outer - x|;
    infinite outside the open bracket."""
    total = 0.0
    for (_, _, inner, outer, a_p, a_c), xk in zip(free, x, strict=True):
        if not min(inner, outer) < xk < max(inner, outer):
            return math.inf
        total += -a_p * math.log(abs(xk - inner)) - a_c * math.log(abs(outer - xk))
    return total


def barrier_gradient(free, x) -> list[float]:
    """The barrier's partial derivative in each free bound, inside the
    brackets."""
    # the sign is the direction from the inner wall to the outer wall
    return [math.copysign(1.0, outer - inner) * (-a_p / abs(xk - inner) + a_c / abs(outer - xk))
            for (_, _, inner, outer, a_p, a_c), xk in zip(free, x, strict=True)]


def solver_point(problem) -> list[float]:
    """The free bounds of the ranges ``solve_tradeoff`` chooses, in the
    order of ``problem.free``."""
    chosen, _ = solve_tradeoff(problem)
    return [getattr(chosen[name], side) for name, side, *_ in problem.free]
