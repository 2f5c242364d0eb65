"""Growth ceilings on exact call counts: each ladder counts one primitive's
calls at three sizes and bounds the log-log slope between its top two
rungs.  Counts are exact and machine-independent, so a change that makes a
path grow faster fails here whatever the machine's speed.  A ceiling sits
just above today's slope; a change that lowers a cost lowers its ceiling
with it.

Ladders:
- `_separating` calls while validating star subdivisions of P^3 (seed
  1234) without their first cone: such a fan is not complete, so
  validate_fan tests every pair of cones for a common face: 105, 1,953
  and 32,385 separations at 16, 64 and 256 cones, C(k - 1, 2) for k,
  a slope of 2.03.  A wall test for fans that are not complete would
  lower it."""

import math

from toriclab import fan as fan_module
from toriclab.fan import Fan, validate_fan

from test_primitives import _star_subdivided_p3

RUNGS = (16, 64, 256)


def _slope(rungs, counts):
    """The log-log slope between the top two rungs."""
    (x1, x2), (y1, y2) = rungs[-2:], counts[-2:]
    return math.log(y2 / y1) / math.log(x2 / x1)


def test_separations_on_fans_without_a_cone_grow_at_most_quadratically(count_calls):
    fans = []
    for cones in RUNGS:
        fan = _star_subdivided_p3(cones, 1234)
        fans.append(Fan(fan.rays, fan.max_cones[1:], fan.rank))
        assert len(fans[-1].max_cones) == cones - 1
    separations = count_calls("_separating", fan_module)
    counts = []
    for fan in fans:
        separations.clear()
        assert validate_fan(fan)
        counts.append(len(separations))
    assert min(counts) > 0 and _slope(RUNGS, counts) <= 2.1, counts
