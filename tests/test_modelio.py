import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _contextual_doc, brute_serialize, corpus_models
from lhvlab import (
    AngleSet,
    AveragedModel,
    BehaviorTable,
    ContextualModel,
    FlatModel,
    FlatSetting,
    OutcomeTable,
    Pmf,
    SearchConfig,
    Setting,
    behavior_from_model,
    bell_average,
    correlation_quad,
    counterexample_model,
    product_flatten,
    quantum_singlet_behavior,
    uniform_reduce,
    zero_to_coin,
)
from lhvlab.corpus import random_contextual_model
from lhvlab.loophole import _mutate, _random_search_model
from lhvlab.modelio import KINDS, ModelParseError, parse_path, parse_text, serialize, setting_text, source_text
from test_fuzz import DOCUMENTS, REPLACEMENTS, mutate, nested_paths

FIXTURES = Path(__file__).parents[1] / "fixtures"


class TestRoundTrip:
    def test_counterexample_roundtrips_exactly(self):
        m = counterexample_model()
        assert parse_text(serialize(m)) == m

    def test_random_models_roundtrip(self):
        rng = random.Random(71)
        for i in range(20):
            kind = ("binary", "ternary", "interval")[i % 3]
            m = random_contextual_model(rng, max_source_side=3, max_instrument=3, outcome_kind=kind)
            again = parse_text(serialize(m))
            assert again == m
            assert correlation_quad(again).values == correlation_quad(m).values

    def test_serialize_parse_is_identity_on_canonical_text(self):
        rng = random.Random(72)
        m = random_contextual_model(rng, max_source_side=2, max_instrument=2)
        text = serialize(m)
        assert serialize(parse_text(text)) == text

    def test_flat_model_roundtrips(self):
        fm = product_flatten(counterexample_model())
        again = parse_text(serialize(fm))
        assert isinstance(again, FlatModel)
        assert again.quad().values == fm.quad().values

    def test_uniform_reduced_model_roundtrips(self):
        fm = uniform_reduce(counterexample_model())
        again = parse_text(serialize(fm))
        assert again.quad().ordered() == (1, 0, 0, -1)

    def test_averaged_model_roundtrips(self):
        am = bell_average(counterexample_model())
        again = parse_text(serialize(am))
        assert isinstance(again, AveragedModel)
        assert again == am

    def test_behavior_roundtrips(self):
        b = quantum_singlet_behavior(AngleSet.chsh_optimal())
        again = parse_text(serialize(b))
        assert isinstance(again, BehaviorTable)
        assert again == b


class TestFixtures:
    def test_counterexample_fixture_matches_builder(self):
        assert parse_path(f"{FIXTURES}/counterexample.model.json") == counterexample_model()

    def test_quantum_fixture_matches_builder(self):
        expected = quantum_singlet_behavior(AngleSet.chsh_optimal())
        assert parse_path(f"{FIXTURES}/quantum_chsh_optimal.behavior.json") == expected

    def test_loophole_winner_fixture_parses(self):
        m = parse_path(f"{FIXTURES}/loophole_winner.model.json")
        assert isinstance(m, ContextualModel)
        assert m.is_ternary()


class TestParseErrors:
    def expect_error(self, doc, match):
        with pytest.raises(ModelParseError, match=match):
            parse_text(json.dumps(doc), source="test.json")

    def base_doc(self):
        return json.loads(serialize(counterexample_model()))

    def test_mass_deficit_is_named(self):
        doc = self.base_doc()
        doc["source"][0]["mass"] = "1/12"
        self.expect_error(doc, r"source pmf sums to 11/12 \(deficit 1/12\)")

    def test_instrument_deficit_is_named(self):
        doc = self.base_doc()
        doc["alice"][0]["instrument"][0]["mass"] = "99/100"
        self.expect_error(doc, r"deficit 1/100")

    def test_malformed_fraction_names_token(self):
        doc = self.base_doc()
        doc["source"][0]["mass"] = "1/6oops"
        self.expect_error(doc, "malformed fraction '1/6oops'")

    def test_unknown_key_rejected(self):
        doc = self.base_doc()
        doc["extra"] = 1
        self.expect_error(doc, "unknown key 'extra'")

    def test_unknown_kind_rejected(self):
        self.expect_error({"kind": "mystery"}, "unknown kind")

    def test_row_shape_mismatch(self):
        doc = self.base_doc()
        doc["alice"][0]["outcomes"] = doc["alice"][0]["outcomes"][:-1]
        self.expect_error(doc, "rows")

    def test_syntax_error_names_line(self):
        with pytest.raises(ModelParseError, match="test.json: line"):
            parse_text("{\n  broken\n}", source="test.json")

    def test_decimal_strings_convert_exactly(self):
        doc = self.base_doc()
        for atom in doc["source"]:
            atom["mass"] = "0.25" if atom["pair"][0] in ("1", "2") else "0.125"
        m = parse_text(json.dumps(doc))
        assert m.source.mass(("1", "1")) == Fraction(1, 4)
        assert m.source.mass(("3", "3")) == Fraction(1, 8)

    def test_behavior_cell_outside_alphabet(self):
        b = json.loads(serialize(quantum_singlet_behavior(AngleSet.chsh_optimal())))
        b["contexts"][0]["cells"][0]["x"] = 0
        self.expect_error(b, "outside alphabet")

    def test_behavior_context_deficit_named(self):
        b = json.loads(serialize(quantum_singlet_behavior(AngleSet.chsh_optimal())))
        b["contexts"][0]["cells"] = b["contexts"][0]["cells"][:-1]
        self.expect_error(b, "deficit")

    @pytest.mark.parametrize("token", ["a", -1.5, True])
    def test_behavior_non_integer_outcome_named(self, token):
        b = json.loads(serialize(quantum_singlet_behavior(AngleSet.chsh_optimal())))
        b["outcomes"] = [token, 1]
        self.expect_error(b, f"test.json: malformed integer {token!r} at outcomes")

    def test_behavior_non_integer_cell_named(self):
        b = json.loads(serialize(quantum_singlet_behavior(AngleSet.chsh_optimal())))
        b["contexts"][0]["cells"][0]["y"] = 0.5
        self.expect_error(b, r"malformed integer 0\.5 at context \('x', 'y'\) cell 0")

    def test_non_list_source_named(self):
        doc = self.base_doc()
        doc["source"] = 5
        self.expect_error(doc, "test.json: source must be a list")

    def test_non_object_source_atom_named(self):
        doc = self.base_doc()
        doc["source"][0] = 5
        self.expect_error(doc, "test.json: source atom 0 must be an object")

    def test_non_list_instrument_named(self):
        doc = self.base_doc()
        doc["alice"][1]["instrument"] = 5
        self.expect_error(doc, "test.json: alice setting '-1' instrument pmf must be a list")

    def test_instrument_entry_keys_checked(self):
        doc = self.base_doc()
        del doc["alice"][0]["instrument"][0]["label"]
        self.expect_error(doc, "test.json: missing key 'label' in alice setting '\\+1' instrument pmf atom 0")
        doc = self.base_doc()
        doc["bob"][0]["instrument"][0] = "*"
        self.expect_error(doc, "test.json: bob setting '\\+1' instrument pmf atom 0 must be an object")

    def test_flat_coords_bounded_by_shortest_tuple(self):
        doc = json.loads(serialize(uniform_reduce(counterexample_model())))
        doc["atoms"][0]["tuple"] = doc["atoms"][0]["tuple"][:3]
        doc["bob"][0]["coords"] = [1, 3]
        self.expect_error(doc, "test.json: flat setting '\\+1' coordinate 3 lies outside the atom tuples")

    @pytest.mark.parametrize(
        "path, where",
        [
            (("atoms",), "atoms"),
            (("atoms", 0, "tuple"), "atom 0 tuple"),
            (("alice", 1, "entries"), "flat setting '-1' entries"),
        ],
    )
    def test_flat_non_list_named(self, path, where):
        doc = json.loads(serialize(product_flatten(counterexample_model())))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = 5
        self.expect_error(doc, f"test.json: {where} must be a list")

    def test_flat_ternary_flag_enforced(self):
        winner = parse_path(FIXTURES / "loophole_winner.model.json")
        doc = json.loads(serialize(product_flatten(winner)))
        doc["alice"][0]["entries"][0]["value"] = "1/2"
        self.expect_error(doc, "test.json: flat setting 'x' is ternary but entry 0 value 1/2 is not -1, 0 or 1")
        doc["alice"][0]["ternary"] = False
        assert parse_text(json.dumps(doc)).alice[0].outcomes.entries[("s0", "u0")] == Fraction(1, 2)

    def test_flat_coords_must_be_integers(self):
        doc = json.loads(serialize(product_flatten(counterexample_model())))
        doc["alice"][0]["coords"] = [0, 1.5]
        self.expect_error(doc, "test.json: malformed integer 1.5 at flat setting '\\+1' coords")

    def test_duplicate_source_pair_named(self):
        doc = self.base_doc()
        doc["source"][1]["pair"] = ["1", "1"]
        self.expect_error(doc, re.escape("test.json: duplicate label '(1,1)' in source pmf"))

    def test_duplicate_instrument_label_named(self):
        doc = self.base_doc()
        doc["alice"][0]["instrument"].append({"label": "*", "mass": "0"})
        message = "test.json: duplicate label '*' in alice setting '+1' instrument pmf"
        self.expect_error(doc, re.escape(message))

    def test_duplicate_flat_tuple_named(self):
        doc = json.loads(serialize(product_flatten(counterexample_model())))
        doc["atoms"][1]["tuple"] = doc["atoms"][0]["tuple"]
        label = "(" + ",".join(doc["atoms"][0]["tuple"]) + ")"
        self.expect_error(doc, re.escape(f"test.json: duplicate label '{label}' in tuple pmf"))

    def test_duplicate_flat_entry_key_named(self):
        doc = json.loads(serialize(product_flatten(counterexample_model())))
        entries = doc["alice"][0]["entries"]
        entries.append(dict(entries[0], value="0"))
        key = "(" + ",".join(entries[0]["key"]) + ")"
        self.expect_error(doc, re.escape(f"test.json: flat setting '+1' key {key} is listed twice"))

    def test_duplicate_bar_label_named(self):
        doc = json.loads(serialize(bell_average(counterexample_model())))
        doc["bob"][1]["bar"].append({"label": "1", "value": "0"})
        self.expect_error(doc, re.escape("test.json: bob setting '-1' bar label '1' is listed twice"))

    def test_duplicate_context_and_cell_rejected(self):
        b = json.loads(serialize(quantum_singlet_behavior(AngleSet.chsh_optimal())))
        b["contexts"].append(b["contexts"][0])
        self.expect_error(b, re.escape("context ('x', 'y') is listed twice"))
        b = json.loads(serialize(quantum_singlet_behavior(AngleSet.chsh_optimal())))
        b["contexts"][1]["cells"].append(dict(b["contexts"][1]["cells"][0], p="0"))
        self.expect_error(b, re.escape("context ('x', \"y'\") cell (1, 1) is listed twice"))

    def test_missing_context_rejected(self):
        b = json.loads(serialize(quantum_singlet_behavior(AngleSet.chsh_optimal())))
        b["contexts"] = b["contexts"][:3]
        self.expect_error(b, "all four contexts")


# ------------------------------------------------------------ one conversion per number string

# SHA-256 of parse_text's outcome ("ok" or the ModelParseError message, one per
# line) on every mutant of test_fuzz's documents that get past the kind check.
# Re-recorded when messages began to cut the numbers they quote: 34 messages
# that quoted a 1000-digit behavior outcome or cell whole now quote it cut;
# every other outcome is as recorded before parse_text converted each distinct
# number string once.
FUZZ_MESSAGES_SHA256 = "dbe5151ff7b9cf7a03e07401b13b6d6699c5dc3c6a6059b9f7fa823085046057"


def renamed_flat_doc():
    """The counterexample's product flattening, its settings renamed so that each message names one."""
    doc = json.loads(serialize(product_flatten(counterexample_model())))
    for side, names in (("alice", ("a", "a2")), ("bob", ("b", "b2"))):
        for setting, name in zip(doc[side], names):
            setting["setting"] = name
    return doc


class TestNumberMemo:
    """parse_text converts each distinct number string once; every check still runs per occurrence."""

    def error(self, doc):
        with pytest.raises(ModelParseError) as info:
            parse_text(json.dumps(doc), source="test.json")
        return str(info.value)

    def test_true_after_one_is_still_a_malformed_fraction(self):
        doc = json.loads(serialize(counterexample_model()))
        doc["alice"][0]["outcomes"][0][0] = 1
        doc["alice"][0]["outcomes"][1][0] = "1"
        doc["alice"][1]["outcomes"][2][0] = True
        assert self.error(doc) == "test.json: malformed fraction True at alice setting '-1' outcome ('3', '*')"
        doc = json.loads(serialize(counterexample_model()))
        doc["source"][1]["mass"] = True
        assert self.error(doc) == "test.json: malformed fraction True at source atom 1"
        doc = renamed_flat_doc()
        doc["alice"][0]["entries"][0]["value"] = 1
        doc["bob"][1]["entries"][1]["value"] = True
        assert self.error(doc) == "test.json: malformed fraction True at flat setting 'b2' entry 1"

    @pytest.mark.parametrize(
        "spots, message",
        [
            ([("alice", 1, 2), ("bob", 0, 0)], "flat setting 'a2' entry 2 value 3/2 lies outside [-1, 1]"),
            ([("bob", 0, 0), ("bob", 1, 3)], "flat setting 'b' entry 0 value 3/2 lies outside [-1, 1]"),
            ([("bob", 1, 3), ("bob", 1, 5)], "flat setting 'b2' entry 3 value 3/2 lies outside [-1, 1]"),
        ],
    )
    def test_a_repeated_out_of_range_entry_names_its_own_location(self, spots, message):
        doc = renamed_flat_doc()
        for side, setting, entry in spots:
            doc[side][setting]["entries"][entry]["value"] = "3/2"
        assert self.error(doc) == f"test.json: {message}"

    def test_a_value_accepted_once_is_checked_again_where_the_rule_differs(self):
        doc = renamed_flat_doc()
        doc["alice"][0]["entries"][0]["value"] = "1/2"
        doc["bob"][0]["ternary"] = True
        doc["bob"][0]["entries"][1]["value"] = "1/2"
        assert self.error(doc) == "test.json: flat setting 'b' is ternary but entry 1 value 1/2 is not -1, 0 or 1"
        doc = json.loads(serialize(counterexample_model()))
        doc["alice"][0]["outcomes"][0][0] = "-1/2"
        doc["bob"][1]["instrument"] = [{"label": "a", "mass": "-1/2"}, {"label": "b", "mass": "3/2"}]
        doc["bob"][1]["outcomes"] = [row * 2 for row in doc["bob"][1]["outcomes"]]
        assert self.error(doc) == "test.json: negative mass in bob setting '-1' instrument pmf"

    def test_fuzz_corpus_messages_are_unchanged(self):
        digest = hashlib.sha256()
        for doc in DOCUMENTS:
            # a document without a known kind stops at the kind check, whatever its mutation
            if doc.get("kind") not in KINDS:
                continue
            for path in nested_paths(doc):
                for replacement in REPLACEMENTS:
                    try:
                        parse_text(json.dumps(mutate(doc, path, replacement)), source="m.json")
                        outcome = "ok"
                    except ModelParseError as exc:
                        outcome = str(exc)
                    digest.update(outcome.encode() + b"\n")
        assert digest.hexdigest() == FUZZ_MESSAGES_SHA256

    def test_no_state_outlives_a_call(self):
        import lhvlab.modelio as modelio

        def module_state():
            return {
                name: (id(value), len(value) if isinstance(value, (dict, list, set)) else None)
                for name, value in vars(modelio).items()
            }

        text = serialize(counterexample_model())
        before = module_state()
        first, second = parse_text(text), parse_text(text)
        assert module_state() == before
        # within a call one string gives one Fraction; across calls nothing is shared
        entries = [first.alice[0].outcomes.entries, second.alice[0].outcomes.entries]
        assert entries[0][("1", "*")] is entries[0][("2", "*")]
        assert entries[0][("1", "*")] is not entries[1][("1", "*")]


# ------------------------------------------------------------ serializer oracle

# SHA-256 of the concatenated serialize() texts of the 1000-model acceptance
# corpus (tests/test_acceptance.py), as the whole-document serializer wrote them.
CORPUS_SERIALIZE_SHA256 = "17f255c9ab4b7f519d07de7022bdc091317443ed0d44d681da2e880f9bfedb14"

AWKWARD_TEXT = st.text(
    alphabet=st.sampled_from(
        ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "λ", "🎲", "'", "a", "/", " ", ","]
    ),
    max_size=4,
)
LABELS = st.one_of(AWKWARD_TEXT, st.integers(-3, 3), st.tuples(AWKWARD_TEXT, st.sampled_from(["H", "T"])))
UNIT_VALUES = st.fractions(min_value=-1, max_value=1, max_denominator=6)


@st.composite
def awkward_models(draw):
    """Contextual models whose labels and names are quotes, backslashes, control characters, non-ASCII,
    integers or tuples, with empty sources and instrument lists allowed."""
    pairs = draw(st.lists(st.tuples(LABELS, LABELS), max_size=4, unique=True))
    source = Pmf({pair: draw(UNIT_VALUES) for pair in pairs})
    first = tuple(dict.fromkeys(p[0] for p in pairs))
    second = tuple(dict.fromkeys(p[1] for p in pairs))

    def setting(labels):
        atoms = draw(st.lists(LABELS, max_size=3, unique=True))
        entries = {(sl, il): draw(UNIT_VALUES) for sl in labels for il in atoms}
        return Setting(
            draw(AWKWARD_TEXT),
            Pmf({a: draw(UNIT_VALUES) for a in atoms}),
            OutcomeTable(entries, ternary=draw(st.booleans())),
        )

    return ContextualModel(source, (setting(first), setting(first)), (setting(second), setting(second)))


@st.composite
def corpus_model(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("binary", "ternary", "interval")))
    model = random_contextual_model(rng, max_source_side=3, max_instrument=3, outcome_kind=kind)
    # the coin reduction gives tuple instrument labels
    return zero_to_coin(model) if kind == "ternary" and draw(st.booleans()) else model


@st.composite
def search_model(draw):
    """A model of a seeded search walk: a random start and some mutations."""
    atoms = draw(st.integers(1, 3))
    cfg = SearchConfig(
        seed=0, source_atoms=draw(st.integers(1, 6)), instrument_atoms=atoms, mass_denominator=8
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    model = _random_search_model(rng, cfg)
    for _ in range(draw(st.integers(0, 30))):
        model, _change = _mutate(rng, model, cfg)
    return model


NAMES = st.lists(AWKWARD_TEXT, max_size=2, unique=True).map(tuple)


@st.composite
def awkward_flats(draw):
    """Flat models built directly: awkward tuple labels and names, any coords, empty lists allowed."""
    tuples = draw(st.lists(st.lists(LABELS, max_size=3).map(tuple), max_size=4, unique=True))

    def setting(name):
        keys = draw(st.lists(st.tuples(LABELS, LABELS), max_size=3, unique=True))
        table = OutcomeTable({key: draw(UNIT_VALUES) for key in keys}, ternary=draw(st.booleans()))
        return FlatSetting(name, draw(st.tuples(st.integers(0, 5), st.integers(0, 5))), table)

    alice, bob = (tuple(setting(name) for name in draw(NAMES)) for _side in range(2))
    return FlatModel(Pmf({lam: draw(UNIT_VALUES) for lam in tuples}), alice, bob)


@st.composite
def awkward_averaged(draw):
    """Averaged models built directly, with bars over any labels and sides of up to two settings."""
    pairs = draw(st.lists(st.tuples(LABELS, LABELS), max_size=4, unique=True))
    sides = []
    for _side in range(2):
        names = draw(NAMES)
        labels = {name: draw(st.lists(LABELS, max_size=3, unique=True)) for name in names}
        sides.append((names, {name: {lab: draw(UNIT_VALUES) for lab in labels[name]} for name in names}))
    (alice, alice_bar), (bob, bob_bar) = sides
    return AveragedModel(Pmf({pair: draw(UNIT_VALUES) for pair in pairs}), alice, bob, alice_bar, bob_bar)


@st.composite
def awkward_behaviors(draw):
    """Behavior tables with awkward setting names and any cells, empty context lists included."""
    alice, bob = (draw(st.lists(AWKWARD_TEXT, min_size=2, max_size=2, unique=True).map(tuple)) for _side in range(2))
    outcomes = draw(st.sampled_from([(-1, 1), (-1, 0, 1)]))
    cells = st.lists(st.tuples(st.sampled_from(outcomes), st.sampled_from(outcomes)), max_size=9, unique=True)
    probs = {(a, b): {cell: draw(UNIT_VALUES) for cell in draw(cells)} for a in alice for b in bob}
    return BehaviorTable(alice, bob, outcomes, probs)


@st.composite
def derived_documents(draw):
    """A flattening or the behavior of a corpus or search model, whose instruments are pmfs."""
    model = draw(st.one_of(corpus_model(), search_model()))
    build = draw(st.sampled_from([product_flatten, uniform_reduce, bell_average, behavior_from_model]))
    if build is behavior_from_model and not all(
        s.outcomes.values_are_point() for s in model.alice + model.bob
    ):
        build = bell_average
    return build(model)


class TestSerializeOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(corpus_model(), search_model(), awkward_models()))
    def test_assembled_text_equals_the_whole_document(self, model):
        assert serialize(model) == brute_serialize(model)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(awkward_flats(), awkward_averaged(), awkward_behaviors(), derived_documents()))
    def test_flat_averaged_and_behavior_texts_equal_the_whole_document(self, doc):
        assert serialize(doc) == brute_serialize(doc)

    def test_no_kind_calls_json_dumps(self, monkeypatch):
        m = counterexample_model()
        docs = [m, product_flatten(m), uniform_reduce(m), bell_average(m), behavior_from_model(m)]
        want = [brute_serialize(doc) for doc in docs]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("serialize called the json encoder")

        monkeypatch.setattr(json, "dumps", forbidden)
        monkeypatch.setattr(json.JSONEncoder, "encode", forbidden)
        assert [serialize(doc) for doc in docs] == want

    def test_acceptance_corpus_text_is_pinned(self):
        digest = hashlib.sha256()
        for model in corpus_models(1000, seed=20240913):
            digest.update(serialize(model).encode())
        assert digest.hexdigest() == CORPUS_SERIALIZE_SHA256

    def test_sides_without_settings_keep_the_document_shape(self):
        model = counterexample_model()
        for bare in (
            ContextualModel(model.source, (), model.bob),
            ContextualModel(model.source, model.alice[:1], ()),
        ):
            assert serialize(bare) == brute_serialize(bare)


class TestPartWriters:
    @settings(max_examples=60, deadline=None)
    @given(awkward_models())
    def test_part_texts_equal_the_dumped_parts_reindented(self, model):
        """Each fixed-frame part text is json.dumps(indent=2) of the part, re-indented to its depth."""
        doc = _contextual_doc(model)
        assert source_text(model.source) == json.dumps(doc["source"], indent=2).replace("\n", "\n  ")
        for side, labels in (("alice", model.source_first_labels()), ("bob", model.source_second_labels())):
            for s, sdoc in zip(getattr(model, side), doc[side]):
                assert setting_text(s, labels) == json.dumps(sdoc, indent=2).replace("\n", "\n    ")
