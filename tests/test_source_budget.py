"""Every ``src/twinsearch`` module stays within 4,096 parser tokens.

The benchmark's workers compile the package afresh in every repetition, and
``compile()`` of a module past 4,096 parser tokens peaks higher: on CPython
3.11.7 the traced peak of compiling lines of ``x = 1`` went from 1.516 MB at
4,095 tokens to 1.746 MB at 4,097, and a module past the ceiling raised
every worker's ``peak_rss_mb`` by ~0.3 MB. Parser tokens are ``tokenize``
tokens other than comments, non-logical newlines and the encoding marker.

Delete this test once the benchmark compiles the sources once per run
(ROADMAP item 6): the ceiling then stops mattering.
"""

import tokenize
from pathlib import Path

import pytest

CEILING = 4096
_NOT_PARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "twinsearch").glob("*.py"))


def parser_tokens(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(tok.type not in _NOT_PARSED for tok in tokenize.tokenize(fh.readline))


def test_every_module_is_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "runstore.py", "trainer.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_within_the_compile_ceiling(path):
    assert parser_tokens(path) <= CEILING
