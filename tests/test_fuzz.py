"""Fuzzing of the model files through the parser and the CLI.

Every malformed file must end in a documented exit status (0, 1 or 2)
with no exception escaping ``cli.main``, under every subcommand that
reads a model, and ``modelio.parse_text`` must return a document or
raise ``ModelParseError``.  The mutants are the
committed fixtures, plus the flat and averaged forms of the
counterexample, with one nested value replaced or one key or element
deleted; the replacements include number tokens past the parser's
length and exponent bounds, which must be refused, not evaluated.

Byte-level mutants of the same texts (truncations, inserted and deleted
bytes, invalid UTF-8, a BOM, nesting at the parser's depth limit) must
also end in a documented status, each subcommand within a fixed wall
time per input.
"""

import contextlib
import functools
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhvlab import bell_average, counterexample_model, product_flatten, serialize
from lhvlab.cli import main
from lhvlab.flatten import uniform_reduce
from lhvlab.modelio import KINDS, ModelParseError, parse_text

FIXTURES = Path(__file__).parents[1] / "fixtures"

DOCUMENTS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))] + [
    json.loads(serialize(product_flatten(counterexample_model()))),
    json.loads(serialize(bell_average(counterexample_model()))),
]

DELETE = object()
# number tokens past the parser's bounds, or malformed, beside values of the wrong type
NUMBER_TOKENS = ["1e10000000", "1e-5000", "1" * 1001, 10**4000, "1/0", "nan", "inf", " 1/2 ", True]
REPLACEMENTS = [5, "x", [], {}, None, DELETE] + NUMBER_TOKENS


def nested_paths(value, prefix=()):
    """The path of every value below the top level of a JSON document."""
    if isinstance(value, dict):
        steps = value.items()
    elif isinstance(value, list):
        steps = enumerate(value)
    else:
        return
    for step, child in steps:
        yield prefix + (step,)
        yield from nested_paths(child, prefix + (step,))


def mutate(doc, path, replacement):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


@st.composite
def mutants(draw):
    doc = draw(st.sampled_from(DOCUMENTS))
    path = draw(st.sampled_from(list(nested_paths(doc))))
    return mutate(doc, path, draw(st.sampled_from(REPLACEMENTS)))


# every subcommand that reads a model file, the file's path going last
COMMANDS = [
    ["validate"],
    ["exact"],
    *(["flatten", "--method", method] for method in ("product", "uniform", "average")),
    ["chsh", "--model"],
    ["fine"],
    ["simulate", "--trials", "20", "--seed", "1", "--model"],
]


@settings(deadline=None)
@given(mutants())
def test_mutated_fixtures_exit_with_a_status(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutant.json")
        Path(path).write_text(json.dumps(doc))
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = main([*command, path])
            assert status in (0, 1, 2), (command, status)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def kinded_objects(draw):
    """Objects that name a document kind, so the parser gets past the discriminator."""
    keys = st.sampled_from(
        ["source", "alice", "bob", "atoms", "aliceSettings", "bobSettings", "outcomes", "contexts", "x"]
    )
    doc = draw(st.dictionaries(keys, JSON, max_size=5))
    doc["kind"] = draw(st.sampled_from(KINDS))
    return doc


@st.composite
def deep_mutants(draw):
    """A fixture with one nested value replaced by arbitrary JSON."""
    doc = draw(st.sampled_from(DOCUMENTS))
    path = draw(st.sampled_from(list(nested_paths(doc))))
    return mutate(doc, path, draw(JSON))


@settings(deadline=None)
@given(st.one_of(JSON, kinded_objects(), deep_mutants(), mutants()))
def test_parse_text_returns_a_document_or_raises_parse_error(doc):
    try:
        parse_text(json.dumps(doc), source="fuzz.json")
    except ModelParseError:
        pass


# the committed fixture texts and the three flattenings of the counterexample, as bytes
TEXTS = [p.read_bytes() for p in sorted(FIXTURES.glob("*.json"))] + [
    serialize(build(counterexample_model())).encode() for build in (product_flatten, uniform_reduce, bell_average)
]
# a lone continuation byte, bytes UTF-8 never uses, cut-short sequences, a UTF-16
# surrogate, a code point past U+10FFFF and an overlong "/"
INVALID_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xc0\xaf"]
BOM = b"\xef\xbb\xbf"
# bytes that open, close or separate JSON tokens
STRUCTURAL = b'{}[]",:0123456789-+.eE \n\\tfnul'
# the wall time one subcommand may take on one mutant: every fixture runs in well under 0.1 s
BUDGET_S = 2.0


def assert_statuses_in_time(data: bytes):
    """Every model-reading subcommand on a file holding ``data``: a documented status, within the budget."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutant.json")
        Path(path).write_bytes(data)
        for command in COMMANDS:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = main([*command, path])
            seconds = time.perf_counter() - start
            assert status in (0, 1, 2), (command, status)
            assert seconds < BUDGET_S, (command, seconds)


@st.composite
def byte_mutants(draw):
    """A text cut short, or with bytes inserted (arbitrary, structural, invalid UTF-8 or a BOM) or deleted."""
    data = draw(st.sampled_from(TEXTS))
    i = draw(st.integers(0, len(data)))
    inserted = st.one_of(
        st.binary(min_size=1, max_size=8),
        st.lists(st.sampled_from(STRUCTURAL), min_size=1, max_size=8).map(bytes),
        st.sampled_from(INVALID_UTF8),
        st.just(BOM),
    )
    return draw(
        st.one_of(
            st.just(data[:i]),
            inserted.map(lambda b: data[:i] + b + data[i:]),
            st.integers(1, 64).map(lambda n: data[:i] + data[i + n :]),
            st.just(BOM + data),
        )
    )


@settings(deadline=None)
@given(byte_mutants())
def test_byte_mutants_exit_with_a_status_in_time(data):
    assert_statuses_in_time(data)


@functools.cache
def depth_limit() -> int:
    """The deepest list ``parse_text`` accepts, called from a test: the parser's limit on nesting."""
    lo, hi = 1, 100_000
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        with pytest.raises(ModelParseError) as exc:
            parse_text("[" * mid + "]" * mid)
        # a list the parser accepts is refused as no object
        lo, hi = (lo, mid) if "nest too deeply" in str(exc.value) else (mid, hi)
    return lo


# a label, a flag, a mass and a list of the counterexample, and the whole document
NEST_PATHS = [("alice", 0, "setting"), ("bob", 1, "ternary"), ("source", 0, "mass"), ("alice", 1, "instrument"), ()]


@pytest.mark.parametrize("path", NEST_PATHS, ids=lambda path: "/".join(map(str, path)) or "document")
def test_nesting_at_the_depth_limit_exits_with_a_status_in_time(path):
    """One value wrapped in lists from 24 levels under the parser's limit to just past it.

    Just under the limit the document parses, and an error message that
    quotes the value must not run out of stack.
    """
    doc = json.loads(TEXTS[0])
    assert doc["kind"] == "contextual"
    marker = "@nested@"
    if path:
        value = doc
        for step in path[:-1]:
            value = value[step]
        inner, value[path[-1]] = json.dumps(value[path[-1]]), marker
    else:
        inner, doc = json.dumps(doc), marker
    text = json.dumps(doc, indent=2)
    limit = depth_limit()
    for depth in range(limit - 24, limit + 3):
        assert_statuses_in_time(text.replace(json.dumps(marker), "[" * depth + inner + "]" * depth).encode())
