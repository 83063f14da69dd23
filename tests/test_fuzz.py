"""Mutation fuzzing of the model files through the CLI.

Every malformed file must end in a documented exit status (0, 1 or 2)
with no exception escaping ``cli.main``.  The mutants are the committed
fixtures, plus the flat and averaged forms of the counterexample, with
one nested value replaced or one key or element deleted.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from lhvlab import bell_average, counterexample_model, product_flatten, serialize
from lhvlab.cli import main

FIXTURES = Path(__file__).parents[1] / "fixtures"

DOCUMENTS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))] + [
    json.loads(serialize(product_flatten(counterexample_model()))),
    json.loads(serialize(bell_average(counterexample_model()))),
]

DELETE = object()
REPLACEMENTS = [5, "x", [], {}, None, DELETE]


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


@given(mutants())
def test_mutated_fixtures_exit_with_a_status(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutant.json")
        Path(path).write_text(json.dumps(doc))
        for command in ("validate", "exact"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = main([command, path])
            assert status in (0, 1, 2), (command, status)
