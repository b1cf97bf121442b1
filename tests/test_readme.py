"""The README's library quick start runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(monkeypatch):
    def direct_sum(*args, **kwargs):
        raise AssertionError("the quick start left the FFT path")

    # the integrator sums the comb by FFTs (field.CombPlan), never directly
    monkeypatch.setattr("sedsim.field.eval_field", direct_sum)
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    v, u = namespace["v"], namespace["u"]
    assert (v.kind, u.kind) == ("v", "u")
    assert v.valid.any() and u.valid.any()
