"""Every module of the package stays below 8192 parser tokens.

CPython 3.11's parser keeps its tokens in an array that doubles when full, and
allocates each token at once.  When a benchmark run compiles the package
(with no bytecode written), crossing 8192 tokens in one module raised
`peak_rss_mb` of `perfbench/run.py` by about 0.45 MB with no change to the
engine's own memory; `numfield.py` is the module closest to that step.  The
count is what `tokenize` yields for the source, less comments and
non-logical newlines, which the parser never sees."""

import tokenize
from pathlib import Path

import pytest

import quartic_torsion

PACKAGE = Path(quartic_torsion.__file__).parent
TOKEN_LIMIT = 8192


def parser_tokens(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL)
                   for t in tokenize.generate_tokens(fh.readline))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_below_token_step(path):
    assert parser_tokens(path) < TOKEN_LIMIT
