"""README's quick tour runs as written, so a public name it uses cannot be
removed or renamed without failing the suite."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "README should have exactly one python block, the quick tour"
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    # the values the tour's comments state
    assert ns["record"].chain == ("011",)
    assert ns["record"].position.value == "interior"
    assert ns["spec"].enclosure.width() <= 1e-30
    assert not ns["is_transitive"]("01010111", ns["alpha"]).transitive
    assert ns["is_transitive"]("01011", ns["alpha"]).transitive
    assert abs(float(ns["res"].h.mid()) - math.log((1 + 5**0.5) / 2)) < 1e-15
