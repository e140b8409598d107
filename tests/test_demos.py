"""Every demo script prints its golden output, and every README example runs against the package."""

import doctest
import re

import pytest

from golden import DEMOS, ROOT, golden_text, render, run_demo

# the fenced python blocks of README.md, each a doctest of >>> examples
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # demo_e8_frames runs without --census, which would add the full frame walk
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert render(proc.returncode, proc.stdout) == golden_text(demo.stem)


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_example_runs(block):
    # DocTestParser reads only the block's text, so the closing fence is
    # not taken for expected output
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    assert test.examples
    report = []
    results = doctest.DocTestRunner().run(test, out=report.append)
    assert results.failed == 0, "".join(report)
