"""Golden pins: SHA-256 digests of exact outputs over a fixed corpus slice.

Each helper hashes one output, in corpus order, over the first ``n``
models of the acceptance corpus (seed 20240913, alternating ternary and
interval outcomes).  The Monte Carlo helpers hash seeded runs instead,
and the demo pins hash each ``demos/*.py`` script's stdout.  A change
that claims the same outputs must leave every pin here unchanged; cite
this module instead of a one-off script.  Over the whole 1000-model
corpus, :func:`serialize_digest` gives the ``serialize`` hashes recorded
for the flattenings in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import corpus_models
from lhvlab import (
    BehaviorTable,
    ContextualModel,
    OutcomeTable,
    Pmf,
    SearchConfig,
    Setting,
    behavior_from_model,
    bell_average,
    check_no_signalling,
    correlation_quad,
    counterexample_model,
    detection_rates,
    exact_side_expectation,
    find_joint,
    postselected_correlations,
    product_flatten,
    search_postselection_violation,
    serialize,
    uniform_reduce,
    validate_model,
    zero_to_coin,
)
from lhvlab.corpus import random_nosignalling_behavior
from lhvlab.modelio import parse_path
from test_cli import child_env

ROOT = Path(__file__).parents[1]

CORPUS_SEED = 20240913
PIN_MODELS = 100
FLATTENINGS = {"product": product_flatten, "uniform": uniform_reduce, "average": bell_average}


def serialize_digest(method: str, n: int = PIN_MODELS) -> str:
    """``serialize`` of one flattening of each model."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        digest.update(serialize(FLATTENINGS[method](model)).encode())
    return digest.hexdigest()


def quad_digest(method: str, n: int = PIN_MODELS) -> str:
    """The ``quad()`` items of one flattening of each model, with their value types."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        values = FLATTENINGS[method](model).quad().values
        digest.update(repr([(ctx, type(v).__name__, str(v)) for ctx, v in values.items()]).encode())
    return digest.hexdigest()


def contextual_quad_digest(n: int = PIN_MODELS) -> str:
    """The ``correlation_quad`` items of each model, with their value types."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        values = correlation_quad(model).values
        digest.update(repr([(ctx, type(v).__name__, str(v)) for ctx, v in values.items()]).encode())
    return digest.hexdigest()


def behavior_digest(n: int = PIN_MODELS) -> str:
    """``serialize`` of the raw and the coin-reduced behavior of the ternary half of ``n`` models.

    The text keeps each context's cells in their order, so this pins the cell order too.
    """
    digest = hashlib.sha256()
    for i, model in enumerate(corpus_models(n, seed=CORPUS_SEED)):
        if i % 2 == 0:
            for m in (model, zero_to_coin(model)):
                digest.update(serialize(behavior_from_model(m)).encode() + b"\n")
    return digest.hexdigest()


def side_expectation_digest(n: int = PIN_MODELS) -> str:
    """``exact_side_expectation`` of each model's four settings."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        for side in ("alice", "bob"):
            for name in getattr(model, f"{side}_settings"):
                digest.update(repr(exact_side_expectation(model, side, name)).encode())
    return digest.hexdigest()


def broken(model: ContextualModel) -> ContextualModel:
    """The model with every invariant ``validate_model`` checks broken somewhere.

    The source masses are halved, Alice's first instrument is negated, and
    Bob's first table has a value outside [-1, 1], a non-integer value, a
    missing entry and one entry outside its domain.
    """
    source = Pmf({pair: m / 2 for pair, m in model.source.items()})
    a0, a1 = model.alice
    a0 = Setting(a0.name, Pmf({lab: -m for lab, m in a0.instrument.items()}), a0.outcomes)
    b0, b1 = model.bob
    entries = {key: b0.outcomes.value(*key) for key in b0.outcomes.numerators}
    keys = list(entries)
    entries[keys[0]] = Fraction(3, 2)
    if len(keys) > 1:
        entries[keys[1]] = Fraction(1, 2)
        del entries[keys[-1]]
    entries[("nowhere", "nothing")] = Fraction(0)
    b0 = Setting(b0.name, b0.instrument, OutcomeTable(entries, ternary=b0.outcomes.ternary))
    return ContextualModel(source, (a0, a1), (b0, b1))


def validate_digest(n: int = PIN_MODELS) -> str:
    """``validate_model`` violations of each model and of its :func:`broken` copy."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        for m in (model, broken(model)):
            digest.update(repr(validate_model(m).violations).encode())
    return digest.hexdigest()


def fine_behaviors(n: int = PIN_MODELS):
    """Coin-reduced behaviors of the ternary half of ``n`` corpus models, then ``n // 2`` others.

    The others are no-signalling tables, alternating generic and near-quantum.
    """
    for i, model in enumerate(corpus_models(n, seed=CORPUS_SEED)):
        if i % 2 == 0:
            yield behavior_from_model(zero_to_coin(model))
    rng = random.Random(CORPUS_SEED)
    for i in range(n // 2):
        yield random_nosignalling_behavior(rng, mode="generic" if i % 2 == 0 else "near_quantum")


def signalling(behavior: BehaviorTable) -> BehaviorTable:
    """The behavior with Alice's outcome flipped in its first context only."""
    first = behavior.contexts()[0]
    probs = dict(behavior.probs)
    probs[first] = {(-x, y): p for (x, y), p in probs[first].items()}
    return BehaviorTable(behavior.alice_settings, behavior.bob_settings, behavior.outcomes, probs)


def no_signalling_digest(n: int = PIN_MODELS) -> str:
    """``check_no_signalling`` reports of each :func:`fine_behaviors` table and its :func:`signalling` copy."""
    digest = hashlib.sha256()
    for behavior in fine_behaviors(n):
        for b in (behavior, signalling(behavior)):
            r = check_no_signalling(b)
            digest.update(repr((r.alice, r.bob, r.per_setting_deviation, r.max_deviation, r.holds)).encode())
    return digest.hexdigest()


def find_joint_digest(n: int = PIN_MODELS) -> str:
    """``find_joint`` verdicts of each :func:`fine_behaviors` table, with the witness or the certificate."""
    digest = hashlib.sha256()
    for behavior in fine_behaviors(n):
        result = find_joint(behavior)
        # the pin was recorded with the behavior's contexts after each certificate's fields, so they are hashed there
        witness = result.joint.mass if result.feasible else vars(result.certificate) | {"contexts": behavior.contexts()}
        digest.update(repr((result.feasible, witness)).encode())
    return digest.hexdigest()


def detection_digest(n: int = PIN_MODELS) -> str:
    """``detection_rates`` of each model, with its relations to the threshold."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        det = detection_rates(model)
        digest.update(repr((det.alice, det.bob, det.relations(), det.all_below)).encode())
    return digest.hexdigest()


def postselection_digest(n: int = PIN_MODELS) -> str:
    """``postselected_correlations`` of the behavior of the ternary half of ``n`` models."""
    digest = hashlib.sha256()
    for i, model in enumerate(corpus_models(n, seed=CORPUS_SEED)):
        if i % 2 == 0:
            ps = postselected_correlations(behavior_from_model(model))
            digest.update(repr((ps.raw_quad.values, ps.conditional, ps.coincidence_rate,
                                ps.alice_detect, ps.bob_detect)).encode())
    return digest.hexdigest()


# budget-400 searches: one, two and three instrument atoms (three on an odd
# grid), no detection cap, a floor and cap on a grid of eighths that the walk
# reaches exactly (the penalty's denominator is then not 256), and a target
# score that ends the walk early
SEARCH_CONFIGS = {
    "one_atom": {},
    "two_atoms": {"instrument_atoms": 2},
    "three_atoms_d7": {"instrument_atoms": 3, "mass_denominator": 7},
    "uncapped": {"max_detection": None},
    "on_grid": {"instrument_atoms": 2, "min_coincidence": Fraction(1, 4), "max_detection": Fraction(3, 4)},
    "target": {"target_stat": Fraction(3)},
}


def search_digest(config: str, seeds=(0, 1)) -> str:
    """Every field of each seeded search's outcome, the post-selection report included."""
    digest = hashlib.sha256()
    for seed in seeds:
        out = search_postselection_violation(SearchConfig(seed=seed, budget=400, **SEARCH_CONFIGS[config]))
        ps, det = out.report, out.detection
        for part in (serialize(out.model), ps.raw_quad.values, ps.conditional, ps.coincidence_rate,
                     ps.alice_detect, ps.bob_detect, out.score, out.violating, out.evaluations, out.history,
                     out.raw_quad.values, [(c.flipped, c.sign, c.value) for c in out.raw_chsh.combinations],
                     det.alice, det.bob, det.threshold):
            digest.update(repr(part).encode() + b"\n")
    return digest.hexdigest()


def dag_models() -> list[ContextualModel]:
    """The counterexample, the committed search winner and the first four corpus models."""
    winner = parse_path(ROOT / "fixtures" / "loophole_winner.model.json")
    return [counterexample_model(), winner, *corpus_models(4, seed=CORPUS_SEED)]


def montecarlo_digest(trials: int = 3000) -> str:
    """Seeded runs on each of :func:`dag_models`.

    Per model and seed: the spreadsheet bytes of a clean and a confounded
    run, each run's ``independence_diagnostic`` fields with and without
    its hidden trace, and the ``sample_coupling`` columns.  One model
    runs under a biased setting pmf.
    """
    from lhvlab import from_contextual, independence_diagnostic, sample_coupling, simulate_spreadsheet

    digest = hashlib.sha256()
    for k, model in enumerate(dag_models()):
        bias = Pmf(dict(zip(model.contexts(), ("1/2", "1/4", "1/8", "1/8")))) if k == 2 else None
        dag = from_contextual(model, setting_bias=bias)
        for seed in (0, 11, 2**64 - 1):
            for confound in (False, True):
                for keep_hidden in (False, True):
                    sheet = simulate_spreadsheet(dag, trials, seed, confound=confound, keep_hidden=keep_hidden)
                    digest.update(sheet.tobytes())
                    digest.update(repr(vars(independence_diagnostic(sheet))).encode())
            coupling = sample_coupling(dag, trials, seed)
            for column in (coupling.x1, coupling.x2, coupling.y1, coupling.y2):
                digest.update(column.tobytes())
    return digest.hexdigest()


def simulate_csv_digest(trials: int = 3000, seed: int = 7) -> str:
    """The ``simulate`` CSV text of a clean and a confounded run on each of :func:`dag_models`."""
    from lhvlab import from_contextual, simulate_spreadsheet

    digest = hashlib.sha256()
    for model in dag_models():
        dag = from_contextual(model)
        for confound in (False, True):
            sheet = simulate_spreadsheet(dag, trials, seed, confound=confound)
            digest.update("".join(sheet.csv_chunks()).encode())
    return digest.hexdigest()


# recorded with the Fraction-valued Pmf, before masses were stored as integer weights
SERIALIZE_PINS = {
    "product": "55369b02b6e06ac6de6b3792e933d322b49e1fd9d9e3cb4b3231266448c0301b",
    "uniform": "084b349b92cb036cbe52606e9b8424cb018e23c79ab93e8163741d46492b7237",
    "average": "b0c099b5553cfb75d1ec3b52390c45ebe102f052de5bbd393acd56dfe01642f6",
}
# the three flattenings keep the contextual model's quad, so all four share one pin
QUAD_PIN = "9303202202a4fae23ad369d72e6b7a3254feec24e86c080bac939ff17b0e8220"
VALIDATE_PIN = "9e3905179b5a8466a2959bdece22617997b31cd42648fffbb7e264d05ebcbb83"
# recorded before the Alice and Bob code paths were merged into one side-indexed path
NO_SIGNALLING_PIN = "0138eb0292adf18c6f28209dc04f5cade7c3b2cc5506e7e70ed9aaf6c14e80a0"
FIND_JOINT_PIN = "5a8d588c0c7b64502588a607e340431a26613f32fabe40b2780bddc46d5987ec"
DETECTION_PIN = "0f309a4e78e2bb0f03298bd14a8eb2100c8bb5521c66f6f60f3ca46d1e1bf60a"
# recorded while the search still scored every candidate through the Fraction report;
# "on_grid" and "three_atoms_d7" while it still built every child before scoring it
POSTSELECTION_PIN = "3c458d489368e08444de539c436d502eb8918dd1822ebbe66fd30c9521059c19"
SEARCH_PINS = {
    "one_atom": "1ce985a34f5cb8ee4cb30295dbfc1d69de16e1486e602a4a15b83ac931a7254e",
    "on_grid": "f3f6ceffcee5b67e9d1668cca1a904a387cb4d65948d646a0a7adba664053eb2",
    "target": "dde2e8de5208c34d7dbc9942d8bdd4551a7e59cfff92410db7677976bccc796f",
    "three_atoms_d7": "12629df0b23fa048f98172431cffcc443b36c87ec2ddf3d9fd223e6bb4e557e3",
    "two_atoms": "cdd70954e53b98cb2c49459ab7854ec35fc5c5ca18675d32f31a28d5d748cdac",
    "uncapped": "b73a10cc5d1a7c2d2cd11f09a2be33caa99046872e15521364cd4a8002950de2",
}
# recorded while the kernel still counted joint values on interned value codes
BEHAVIOR_PIN = "950d3cc0a61a152142adb5d4014381113144b02af2fab20bcdf8f4e437ac07cf"
SIDE_EXPECTATION_PIN = "2487e9e507ecc355080a678210c32497b5d67bf4555467bf43001aad74c22062"
SIMULATE_CSV_PIN = "5c5fe2575526fac06464275202a5e8bc6f12d2f3cd5451612999b2ea9b833099"
MONTECARLO_PIN = "bafbf7fe06d99fd4b7f87dd4f1d4d8a02d796f0daf52fc8f6a2956b5c75a7509"
# SHA-256 of each demo's stdout, run from the checkout root
DEMO_PINS = {
    "counterexample_walkthrough": "a966a010567cef5279f47804d4bc6eabfe8a3d89c37c37d7c13beefd119b6586",
    "detection_loophole": "08772a01becb5c9e6acba7bb1634f018c1877de174aa5829686256de00e27a65",
    "fine_theorem_boundary": "abe1ed2bab559bd51dcc7f22db95608ee366c47edd75bb918acdba73f88284be",
    "flatten_equivalence": "fcae701cbf9a3be8ba50672b5dd868d681027948dd02fef0406c3519f9ca604a",
    "simulate_and_diagnose": "5eed4e62f3c11e5389b3a1ded842b0580c2fcd8bdd3ef5be996dd46d957c9af5",
}


@pytest.mark.parametrize("method", sorted(FLATTENINGS))
def test_flattening_text_is_pinned(method):
    assert serialize_digest(method) == SERIALIZE_PINS[method]


@pytest.mark.parametrize("method", sorted(FLATTENINGS))
def test_flattening_quad_is_pinned(method):
    assert quad_digest(method) == QUAD_PIN


def test_contextual_quads_are_pinned():
    assert contextual_quad_digest() == QUAD_PIN


def test_behaviors_are_pinned():
    assert behavior_digest() == BEHAVIOR_PIN


def test_side_expectations_are_pinned():
    assert side_expectation_digest() == SIDE_EXPECTATION_PIN


def test_validation_reports_are_pinned():
    assert validate_digest() == VALIDATE_PIN


def test_no_signalling_reports_are_pinned():
    assert no_signalling_digest() == NO_SIGNALLING_PIN


def test_find_joint_verdicts_are_pinned():
    assert find_joint_digest() == FIND_JOINT_PIN


def test_detection_rates_are_pinned():
    assert detection_digest() == DETECTION_PIN


def test_postselection_reports_are_pinned():
    assert postselection_digest() == POSTSELECTION_PIN


@pytest.mark.parametrize("config", sorted(SEARCH_CONFIGS))
def test_search_outcomes_are_pinned(config):
    assert search_digest(config) == SEARCH_PINS[config]


def test_target_search_pin_stops_early():
    for seed in (0, 1):
        cfg = SearchConfig(seed=seed, budget=400, **SEARCH_CONFIGS["target"])
        assert search_postselection_violation(cfg).evaluations < cfg.budget


def test_montecarlo_runs_are_pinned():
    assert montecarlo_digest() == MONTECARLO_PIN


def test_simulate_csv_is_pinned():
    assert simulate_csv_digest() == SIMULATE_CSV_PIN


def demo_digest(name: str) -> str:
    """SHA-256 of one demo script's stdout."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env=child_env(), capture_output=True, check=True,
    ).stdout
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("name", sorted(DEMO_PINS))
def test_demo_output_is_pinned(name):
    assert demo_digest(name) == DEMO_PINS[name]
