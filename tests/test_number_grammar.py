"""Property tests for the number grammar of CSV fields, CLI flags and ``--k``.

Every string the grammar accepts reads as ``int()`` and ``float()`` read it,
to the same bits, and :func:`radclust.pipeline.parse_numbers` accepts a row
of texts exactly when each of them is in the grammar.
"""

import re
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radclust.pipeline import parse_numbers  # noqa: E402

from oracles import builtin_number  # noqa: E402

# The grammar as the README states it, written out here apart from the package's copy.
GRAMMAR = {int: r"-?[0-9]+", float: r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?"}
KINDS = st.sampled_from([int, float])
# Characters the grammar uses, plus ones int() or float() take or skip and the grammar does not.
NEAR_MISSES = st.text(alphabet="0123456789-+.eE_ \t\x0c,nafity٢１", max_size=8)


def bits(kind, value):
    return value if kind is int else struct.pack("<d", value)


@settings(max_examples=300, deadline=None)
@given(KINDS.flatmap(lambda kind: st.tuples(
    st.just(kind), st.from_regex(GRAMMAR[kind], fullmatch=True))))
@example((float, "-0"))
@example((float, "1e+16"))
@example((float, "1e-05"))
@example((float, "5e-324"))
@example((float, "1e999"))
@example((int, "-0"))
def test_every_grammar_string_reads_as_the_builtin_oracle(case):
    kind, text = case
    [value] = parse_numbers(kind, [text])
    assert type(value) is kind
    assert bits(kind, value) == bits(kind, builtin_number(kind, text))


@settings(max_examples=500, deadline=None)
@given(KINDS, st.lists(NEAR_MISSES, min_size=1, max_size=3))
@example(int, ["1,2"])
@example(float, ["1", "2,3"])
@example(float, [" 1.5"])
@example(float, ["+2"])
@example(float, ["nan"])
@example(float, ["1."])
@example(int, ["1_0"])
def test_a_row_is_accepted_exactly_when_each_text_is_in_the_grammar(kind, texts):
    in_grammar = all(re.fullmatch(GRAMMAR[kind], text) for text in texts)
    try:
        values = parse_numbers(kind, texts)
    except ValueError:
        assert not in_grammar
        return
    assert in_grammar
    assert [bits(kind, v) for v in values] == [bits(kind, builtin_number(kind, t)) for t in texts]
