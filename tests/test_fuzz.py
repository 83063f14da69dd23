"""Fuzzing of the model files through the parser and the CLI.

Every malformed file must end in a documented exit status (0, 1 or 2)
with no exception escaping ``cli.main``, under every subcommand that
reads a model, and ``modelio.parse_text`` must return a document or
raise ``ModelParseError``.  The mutants are the
committed fixtures, plus the flat and averaged forms of the
counterexample, with one nested value replaced or one key or element
deleted; the replacements include number tokens past the parser's
length and exponent bounds, which must be refused, not evaluated.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lhvlab import bell_average, counterexample_model, product_flatten, serialize
from lhvlab.cli import main
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
