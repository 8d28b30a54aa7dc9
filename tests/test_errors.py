import math

import pytest

from volterra_feller.errors import check_reals


def test_check_reals_takes_a_lone_number_as_one_entry():
    assert check_reals("x", 3.0) == (3.0,)
    assert check_reals("x", 2) == (2.0,) and type(check_reals("x", 2)[0]) is float
    with pytest.raises(ValueError, match="^x entries must be finite, got inf"):
        check_reals("x", math.inf)
