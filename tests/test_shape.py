"""The document shape checker, on shapes no bundled loader checks at the top."""

import pytest

from tra.errors import ScenarioError
from tra.shape import OBJECT, STR, Either, check


def test_a_top_level_either_refuses_a_value_of_none_of_its_types():
    check(Either(STR, OBJECT), "file.json", ScenarioError, "entry")
    with pytest.raises(ScenarioError, match=r"^entry must be a string or an object, got 5$"):
        check(Either(STR, OBJECT), 5, ScenarioError, "entry")
