"""Library calls that reject their arguments, each with its own error
and message."""

import random

import pytest

from threshold_lab import (
    MONOTONE_2CNF,
    THREE_CNF,
    BadParameterError,
    Formula,
    GuardExceededError,
    InvariantViolationError,
    build_extremal_cycle_instance,
    build_graph,
    compose_lifts,
    format_profile,
    identity_lift,
    integer_weights_to_unit,
    limit_cycle,
    make_step,
    one_step_symmetric_expansion,
    pred_reduction,
    reachable_pred_reduction,
    recover_sat_count,
    resilience_bruteforce,
    resilience_closed_form,
    ring_two_step,
    signed_to_primary,
    step_restricted,
    validate_thresholds,
    validate_types,
)
from threshold_lab.instances import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)

LOOPED = build_graph(2, [(0, 1, 1)], loops=[(0, 1)], weighted=True)
PATH3 = build_graph(3, [(0, 1), (1, 2)])
TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])

CASES = [
    (lambda: build_graph(0, []), BadParameterError, "node count must be positive, got 0"),
    # a non-iterable sequence argument was a bare TypeError
    (lambda: build_graph(2, 5), BadParameterError, "edges must be iterable, got 5"),
    (lambda: build_graph(2, [(0, 1)], 5), BadParameterError, "loops must be iterable, got 5"),
    (lambda: validate_thresholds(PATH3, 5), BadParameterError,
     "threshold vector must be iterable, got 5"),
    (lambda: validate_types(PATH3, 5), BadParameterError, "type vector must be iterable, got 5"),
    (lambda: step_restricted(PATH3, (1, 1, 1), 0, 5), BadParameterError,
     "node set must be iterable, got 5"),
    (lambda: format_profile(8, 3), BadParameterError, "profile 8 does not fit in 3 bits"),
    # format_profile takes its profile through validate_profile: 1.0 was a
    # bare TypeError, and True was read as the profile 1
    (lambda: format_profile(1.0, 2), BadParameterError, "profile must be an integer, got 1.0"),
    (lambda: format_profile(True, 1), BadParameterError, "profile must be an integer, got True"),
    (lambda: limit_cycle(lambda a: a, 0, 0), BadParameterError, "guard must be >= 1, got 0"),
    # a plain step map's start was not checked: -1 gave the cycle (7,),
    # and 1.5 a bare TypeError
    (lambda: limit_cycle(make_step(TRIANGLE, (1, 1, 1)), -1, 10), BadParameterError,
     "profile must be non-negative, got -1"),
    (lambda: limit_cycle(make_step(TRIANGLE, (1, 1, 1)), 1.5, 10), BadParameterError,
     "profile must be an integer, got 1.5"),
    (lambda: ring_two_step(cycle_graph(4), (1, 1, 3, 1), 0, 0), BadParameterError,
     "ring table requires thresholds in {1, 2}"),
    (lambda: compose_lifts(identity_lift(2), identity_lift(3)), BadParameterError,
     "lift composition size mismatch"),
    # node 0 already has odd degree and the majority threshold; node 1 does not
    (lambda: one_step_symmetric_expansion(PATH3, (1, 1, 1), 0), BadParameterError,
     "node 0 is not an eligible pivot"),
    # the pivot goes through as_node: 1.0 was a bare TypeError, True blamed
    # an edge endpoint, and 7 read "node 7 is not an eligible pivot"
    (lambda: one_step_symmetric_expansion(PATH3, (1, 1, 1), 1.0), BadParameterError,
     "node must be an integer, got 1.0"),
    (lambda: one_step_symmetric_expansion(PATH3, (1, 1, 1), True), BadParameterError,
     "node must be an integer, got True"),
    (lambda: one_step_symmetric_expansion(PATH3, (1, 1, 1), 7), BadParameterError,
     "node 7 outside 0..2"),
    (lambda: signed_to_primary(LOOPED, (0, 0)), BadParameterError,
     "signed simulation requires a loop-free instance"),
    # an unweighted graph's thresholds are non-negative, in every call
    # that takes them; this was "node 0: threshold -1 outside [-d^-, d^+]"
    (lambda: signed_to_primary(PATH3, (-1, 1, 1)), BadParameterError,
     "threshold k_0 = -1 is negative"),
    (lambda: integer_weights_to_unit(LOOPED, (0, 0)), BadParameterError,
     "unit-weight blowup requires a loop-free instance"),
    (lambda: cycle_graph(2), BadParameterError, "cycle graph needs n >= 3"),
    # a float n that passed its kind's range check was a bare TypeError
    (lambda: build_extremal_cycle_instance(3.0, "min"), BadParameterError,
     "node count must be an integer, got 3.0"),
    (lambda: build_extremal_cycle_instance(6.0, "max"), BadParameterError,
     "node count must be an integer, got 6.0"),
    (lambda: path_graph(0), BadParameterError, "path graph needs n >= 1"),
    (lambda: star_graph(1), BadParameterError, "star graph needs n >= 2"),
    (lambda: complete_graph(0), BadParameterError, "complete graph needs n >= 1"),
    (lambda: random_connected_graph(0, random.Random(0)), BadParameterError,
     "graph needs n >= 1"),
    (lambda: resilience_closed_form("star", 1, 1), BadParameterError, "star needs n >= 2"),
    (lambda: resilience_closed_form("path", 1, 1), BadParameterError, "path needs n >= 2"),
    (lambda: resilience_closed_form("cycle", 2, 1), BadParameterError, "cycle needs n >= 3"),
    (lambda: resilience_closed_form("complete", 1, 1), BadParameterError,
     "complete graph needs n >= 2"),
    (lambda: resilience_closed_form("cycle", 5, 0), BadParameterError,
     "budget K must be >= 1, got 0"),
    (lambda: resilience_bruteforce(PATH3, 0), BadParameterError, "budget K must be >= 1, got 0"),
    # 4 * 24,999 + 4 + 1 = 100,001 nodes, one past the cap
    (lambda: pred_reduction(Formula(THREE_CNF, 24_999, ((1,),) * 4)), GuardExceededError,
     "pred gadget needs 100001 nodes, guard is 100000"),
    # 99,999 + 1 + 1 = 100,001 nodes, one past the cap
    (lambda: reachable_pred_reduction(Formula(MONOTONE_2CNF, 99_999, ((1,),))),
     GuardExceededError, "reachable-pred gadget needs 100001 nodes, guard is 100000"),
    # 2 fixed points cannot come from a 4-variable fix gadget
    (lambda: recover_sat_count(2, 4), InvariantViolationError,
     "F = 2 yields negative counts for n = 4"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_rejected_with_its_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
