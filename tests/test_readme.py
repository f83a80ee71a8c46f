"""The README quick start runs as written, and the package exports what it documents."""

import re
from pathlib import Path

import eqprice

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED_API = {
    "AgentCosts",
    "ExcessEvaluator",
    "FeasibleSet",
    "ModelInstance",
    "Objective",
    "PriceDomain",
    "bilevel_solve",
    "km_fixed_point",
}


def test_quick_start_converges(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].termination.value == "converged"
    assert capsys.readouterr().out.split()[-1] == "converged"


def test_exports_are_the_documented_api():
    assert set(eqprice.__all__) == DOCUMENTED_API
    assert len(eqprice.__all__) == len(DOCUMENTED_API)
    namespace: dict = {}
    exec("from eqprice import *", namespace)
    assert DOCUMENTED_API <= namespace.keys()
