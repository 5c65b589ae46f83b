"""One rule for an ordered stack of (position, value) pairs.

The exponential map turns each sheet into one delta at the same position,
so a ``SheetArray`` and a ``DeltaPotentialProblem`` are the same ordered
stack and refuse the same malformed input with the same message, up to the
names of the type, of one pair and of the value column.
"""

import math

import pytest

from sheetcrystal import atomic_units
from sheetcrystal.duality import DeltaPotentialProblem
from sheetcrystal.electrostatics import SheetArray

SHEET_NAMES = {"DeltaPotentialProblem": "SheetArray", "delta": "sheet", "strengths": "densities"}


def _message(build):
    with pytest.raises(ValueError) as caught:
        build()
    return str(caught.value)


@pytest.mark.parametrize(
    "pairs,message",
    [
        ([], "a DeltaPotentialProblem needs at least one delta"),
        ([(math.nan, 1.0)], "positions and strengths must be finite, got (nan, 1.0)"),
        ([(0.0, math.inf)], "positions and strengths must be finite, got (0.0, inf)"),
        (
            [(1.0, 1.0), (0.0, 1.0)],
            "delta positions must be strictly increasing; got 1.0 followed by 0.0 (merge coincident deltas upstream)",
        ),
        (
            [(0.0, 1.0), (0.0, 1.0)],
            "delta positions must be strictly increasing; got 0.0 followed by 0.0 (merge coincident deltas upstream)",
        ),
        ([(-1e308, 1.0), (1e308, 1.0)], "the gap between delta positions -1e+308 and 1e+308 exceeds the float range"),
    ],
    ids=["empty", "nan-position", "infinite-value", "decreasing", "coincident", "overflowing-gap"],
)
def test_sheet_and_delta_stacks_refuse_the_same_input(pairs, message):
    # the offsets fit the pair count, so only the stack rule can refuse the problem
    problem_message = _message(lambda: DeltaPotentialProblem(pairs, [0.0] * (len(pairs) + 1), atomic_units()))
    sheet_message = _message(lambda: SheetArray(pairs))
    assert problem_message == message
    for delta_name, sheet_name in SHEET_NAMES.items():
        message = message.replace(delta_name, sheet_name)
    assert sheet_message == message
