"""The README's library quick start runs and gives the values its comments state."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_gives_the_values_in_its_comments():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    names: dict = {}
    exec(block, names)
    assert names["tau"] == {"a": 0, "b": 4, "c": 2, "d": 2, "e": 1}
    assert names["view"].edge_weights == (4, 4, 2, 2)
    assert names["same"] == names["tau"]
    pools = names["pools"]
    lake = pools.members.index(("c", "d"))
    assert (pools.levels[lake], pools.exhaust[lake]) == (2, [3])  # full: it has an exhaust edge
    assert names["d_ae"] == 4
    hierarchy = names["hierarchy"]
    (summit,) = [i for i, up in enumerate(hierarchy.father) if up is None]
    assert list(hierarchy.all_members())[summit] == tuple("abcde")
