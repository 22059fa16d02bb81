"""Float sums give the same bits on every Python the package admits.

Python 3.12 made ``sum()`` of floats compensated, so a plain ``sum()`` gives
other bits there than on 3.10 and 3.11. ``expr.left_sum`` adds left to right
with one rounding per addition, as ``sum()`` did before 3.12. This module
imports only ``cmml.expr`` (no numpy, no pytest), so it also runs without
the test dependencies:

    python -c "import sys; sys.path[:0] = ['src', 'tests']; import test_float_sums as t; \\
        [f() for n, f in vars(t).items() if n.startswith('test_')]"
"""

from cmml import expr as ex


def test_left_sum_rounds_each_addition():
    assert ex.left_sum([0.1, 0.2, 0.3]).hex() == (0.6000000000000001).hex()
    assert ex.left_sum([1e16, 1.0, -1e16]) == 0.0  # a compensated sum gives 1.0
    assert ex.left_sum([0.1] * 10).hex() == (0.9999999999999999).hex()


def test_left_sum_of_ints_and_of_nothing():
    assert ex.left_sum([1, 2, 3]) == 6.0 and isinstance(ex.left_sum([1, 2, 3]), float)
    assert ex.left_sum([]) == 0.0 and isinstance(ex.left_sum([]), float)
    assert str(ex.left_sum([-0.0])) == "0.0"


def test_aggregates_sum_left_to_right():
    assert ex.reduce_known("sum", [0.1, 0.2, 0.3]).hex() == (0.6000000000000001).hex()
    assert ex.reduce_known("mean", [0.1, 0.2, 0.3]).hex() == (0.6000000000000001 / 3).hex()
    assert ex.aggregate("sum", [1e16, None, 1.0, -1e16]) == 0.0
    assert ex.aggregate("mean", [0.1] * 10).hex() == (0.9999999999999999 / 10).hex()
