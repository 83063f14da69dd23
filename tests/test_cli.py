import contextlib
import csv
import errno
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import lhvlab
from lhvlab import cli
from lhvlab.cli import build_parser, main
from lhvlab.corpus import random_contextual_model

ROOT = Path(__file__).parents[1]
SCHEMAS = ROOT / "schemas"
FIXTURES = ROOT / "fixtures"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def kind_doc(kind):
    """A well-formed document of one model kind, as parsed JSON."""
    if kind == "contextual":
        return json.loads((FIXTURES / "counterexample.model.json").read_text())
    if kind == "behavior":
        return json.loads((FIXTURES / "quantum_chsh_optimal.behavior.json").read_text())
    model = lhvlab.counterexample_model()
    made = lhvlab.product_flatten(model) if kind == "flat" else lhvlab.bell_average(model)
    return json.loads(lhvlab.serialize(made))


def assert_rejected(capsys, doc, tmp_path, message):
    """``validate`` and ``exact`` both exit 1 on ``doc``, naming ``message``, with no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, "validate", str(bad))
    assert status == 1 and "Traceback" not in err
    assert any(str(bad) in v and message in v for v in json.loads(out)["violations"])
    status, _out, err = run_cli(capsys, "exact", str(bad))
    assert status == 1
    assert message in err and "Traceback" not in err


def child_env():
    """The environment for a child interpreter that imports the package under test, installed or not."""
    src = str(Path(lhvlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


LOADED = (
    "import contextlib, io, json, sys\n"
    "from lhvlab.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    status = main(sys.argv[1:])\n"
    "print(json.dumps({\n"
    "    'status': status,\n"
    "    'lhvlab': sorted(m for m in sys.modules if m.startswith('lhvlab.') and m != 'lhvlab.cli'),\n"
    "    'numpy': 'numpy' in sys.modules,\n"
    "}))\n"
)


def loaded_modules(*argv):
    """Run one CLI call in a child interpreter: its exit status, the lhvlab modules it left loaded, and whether numpy loaded."""
    result = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    return report["status"], {m.removeprefix("lhvlab.") for m in report["lhvlab"]}, report["numpy"]


def run_json(capsys, *argv, schema=None):
    status, out, err = run_cli(capsys, *argv)
    assert status == 0, err
    payload = json.loads(out)
    if schema:
        jsonschema.validate(payload, json.loads((SCHEMAS / f"{schema}.schema.json").read_text()))
    return payload


class TestDemos:
    def test_counterexample_quad_and_joint(self, capsys):
        payload = run_json(capsys, "demo-counterexample", schema="demo-counterexample")
        values = {(q["alice"], q["bob"]): q["value"] for q in payload["quad"]}
        assert values == {
            ("+1", "+1"): "1",
            ("+1", "-1"): "0",
            ("-1", "+1"): "0",
            ("-1", "-1"): "-1",
        }
        assert payload["chsh"]["satisfied"] is True
        assert payload["fineFeasible"] is True
        assert len(payload["fineJoint"]) == 16

    def test_quantum_demo_hits_tsirelson(self, capsys):
        payload = run_json(capsys, "demo-quantum", schema="demo-quantum")
        assert payload["satisfied"] is False
        assert abs(float(payload["maxAbs"]) - 2.8284271247461903) < 1e-12

    def test_quantum_demo_custom_angles(self, capsys):
        payload = run_json(capsys, "demo-quantum", "--angles", "0,0.5,0,0.5", schema="demo-quantum")
        values = {(q["alice"], q["bob"]): q["value"] for q in payload["chsh"]["quad"]}
        assert values[("x", "y")] == "-1"

    @pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
    def test_quantum_demo_rejects_non_finite_angles(self, capsys, angle):
        status, out, err = run_cli(capsys, "demo-quantum", "--angles", f"0,{angle},0,0")
        assert status == 2
        assert out == ""
        assert f"usage error: --angles must be finite, got {angle}" in err
        assert "Traceback" not in err

    def test_demos_reject_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo-counterexample", "--seed", "1"])
        assert exc.value.code == 2


class TestChsh:
    def test_zero_quad(self, capsys):
        payload = run_json(capsys, "chsh", "0", "0", "0", "0", schema="chsh")
        assert payload["maxAbs"] == "0"
        assert payload["satisfied"] is True

    def test_fraction_strings(self, capsys):
        payload = run_json(capsys, "chsh", "1", "1/2", "-0.5", "-1", schema="chsh")
        assert payload["satisfied"] is True
        assert len(payload["combinations"]) == 8

    def test_model_file_input(self, capsys):
        payload = run_json(
            capsys, "chsh", "--model", str(FIXTURES / "counterexample.model.json"), schema="chsh"
        )
        assert payload["maxAbs"] == "2"

    def test_ternary_model_includes_postselection(self, capsys):
        payload = run_json(
            capsys, "chsh", "--model", str(FIXTURES / "loophole_winner.model.json"), schema="chsh"
        )
        assert "postSelection" in payload
        assert payload["satisfied"] is True  # raw quad satisfies even though conditionals do not

    def test_zero_in_an_unflagged_setting_of_a_ternary_model_exits_one(self, capsys, tmp_path):
        """Alice's first setting loses its ternary flag, so its 0 entries read as expectations, not outcomes."""
        doc = json.loads((FIXTURES / "loophole_winner.model.json").read_text())
        del doc["alice"][0]["ternary"]
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(doc))
        assert run_cli(capsys, "validate", str(mixed))[0] == 0
        status, out, err = run_cli(capsys, "chsh", "--model", str(mixed))
        assert (status, out) == (1, "")
        assert err == f"error: {mixed}: alice setting 'x' has fractional outcomes; behavior tables need point outcomes\n"

    def test_wrong_arity_is_usage_error(self, capsys):
        status, out, err = run_cli(capsys, "chsh", "1", "0")
        assert status == 2
        assert "usage error" in err

    def test_out_of_range_value_fails(self, capsys):
        status, out, err = run_cli(capsys, "chsh", "2", "0", "0", "0")
        assert status == 1
        assert "outside" in err

    @pytest.mark.parametrize(
        "token, rule",
        [
            ("1e-5000", "exponent -5000 of '1e-5000' lies outside ±1000"),
            ("1e5000", "exponent 5000 of '1e5000' lies outside ±1000"),
            ("1" * 1001, "number token of 1001 characters exceeds the limit of 1000"),
            ("1/0", "zero denominator in '1/0'"),
        ],
    )
    def test_unbounded_value_is_usage_error(self, capsys, token, rule):
        status, out, err = run_cli(capsys, "chsh", token, "0", "0", "0")
        assert status == 2 and out == ""
        assert err == f"usage error: correlation value: {rule}\n"


class TestExactFlattenChain:
    def test_quads_identical_across_all_methods(self, capsys, tmp_path):
        model_path = str(FIXTURES / "counterexample.model.json")
        base = run_json(capsys, "exact", model_path, schema="exact")
        for method in ("product", "uniform", "average"):
            out_path = tmp_path / f"{method}.json"
            status, _out, err = run_cli(
                capsys, "flatten", model_path, "--method", method, "--out", str(out_path)
            )
            assert status == 0, err
            derived = run_json(capsys, "exact", str(out_path), schema="exact")
            assert derived["quad"] == base["quad"]

    def test_product_past_the_bound_exits_one_before_the_build(self, capsys, monkeypatch, tmp_path):
        """A small file that validates, with 60 instrument atoms per setting: 6 * 60**4 product atoms."""
        doc = kind_doc("contextual")
        for side in ("alice", "bob"):
            for setting in doc[side]:
                setting["instrument"] = [{"label": f"i{j}", "mass": "1/60"} for j in range(60)]
                setting["outcomes"] = [row * 60 for row in setting["outcomes"]]
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(doc))
        assert run_cli(capsys, "validate", str(wide))[0] == 0
        monkeypatch.setattr(lhvlab.flatten, "product_flatten", _forbidden)
        status, out, err = run_cli(capsys, "flatten", str(wide), "--method", "product")
        assert (status, out) == (1, "")
        assert err == (
            f"error: {wide}: the product flattening has {6 * 60**4} atoms, "
            f"more than the limit of {cli.MAX_PRODUCT_ATOMS}\n"
        )

    def test_uniform_past_the_bound_exits_one_before_the_build(self, capsys, monkeypatch, tmp_path):
        """Instruments of 300 and 301 atoms cut each side into 600 cells: 6 * 600**2 uniform atoms."""
        doc = kind_doc("contextual")
        for side in ("alice", "bob"):
            for n, setting in zip((300, 301), doc[side]):
                setting["instrument"] = [{"label": f"i{j}", "mass": f"1/{n}"} for j in range(n)]
                setting["outcomes"] = [row * n for row in setting["outcomes"]]
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(doc))
        assert run_cli(capsys, "validate", str(wide))[0] == 0
        monkeypatch.setattr(lhvlab.flatten, "uniform_reduce", _forbidden)
        status, out, err = run_cli(capsys, "flatten", str(wide), "--method", "uniform")
        assert (status, out) == (1, "")
        assert err == (
            f"error: {wide}: the uniform flattening has {6 * 600**2} atoms, "
            f"more than the limit of {cli.MAX_UNIFORM_ATOMS}\n"
        )

    def test_flat_output_parses_as_model_schema(self, capsys, tmp_path):
        out_path = tmp_path / "flat.json"
        run_cli(capsys, "flatten", str(FIXTURES / "counterexample.model.json"), "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        jsonschema.validate(doc, json.loads((SCHEMAS / "model.schema.json").read_text()))


class TestValidate:
    def test_good_file(self, capsys):
        payload = run_json(
            capsys, "validate", str(FIXTURES / "counterexample.model.json"), schema="validate"
        )
        assert payload["valid"] is True

    def test_bad_mass_exits_one_and_names_deficit(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "counterexample.model.json").read_text())
        doc["source"][0]["mass"] = "99/600"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, out, err = run_cli(capsys, "validate", str(bad))
        assert status == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert any("deficit 1/600" in v for v in payload["violations"])

    def test_out_of_range_outcome_exits_one(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "counterexample.model.json").read_text())
        doc["alice"][0]["outcomes"][0][0] = "3/2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, out, _err = run_cli(capsys, "validate", str(bad))
        assert status == 1
        assert any("3/2" in v for v in json.loads(out)["violations"])

    def test_missing_file_exits_one(self, capsys):
        status, _out, err = run_cli(capsys, "validate", "no/such/file.json")
        assert status == 1
        assert "no such file" in err

    def test_non_list_source_exits_one(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "counterexample.model.json").read_text())
        doc["source"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, out, _err = run_cli(capsys, "validate", str(bad))
        assert status == 1
        assert any("source must be a list" in v for v in json.loads(out)["violations"])
        status, _out, err = run_cli(capsys, "exact", str(bad))
        assert status == 1
        assert "source must be a list" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("source", 0, "pair", 0), "deep", "source atom 0 pair label must be a string, got [[["),
            (("source",), {"k": "v" * 5000}, "source must be a list, got {'k': 'vvv"),
            (("alice", 0, "instrument", 0, "mass"), [1] * 5000, "malformed fraction [1, 1, 1"),
            (("alice", 0, "ternary"), "t" * 5000, "ternary flag must be true or false, got 'ttt"),
            (("bob", 0, "instrument", 0), list(range(5000)), "must be an object, got [0, 1, 2"),
        ],
        ids=["nested-label", "object-for-list", "list-for-fraction", "string-for-flag", "list-for-object"],
    )
    def test_quoted_value_is_capped(self, capsys, tmp_path, path, value, field):
        """A wrong value is quoted up to a fixed length, however large or deep it is."""
        from lhvlab.model import QUOTE_LIMIT

        doc = json.loads((FIXTURES / "counterexample.model.json").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        # a list nested 400 deep, written as text: 800 brackets
        bad.write_text(json.dumps(doc).replace('"deep"', "[" * 400 + "]" * 400))
        status, out, err = run_cli(capsys, "validate", str(bad))
        assert status == 1 and "Traceback" not in err
        [violation] = [v for v in json.loads(out)["violations"] if field in v]
        # the file name, at most QUOTE_LIMIT characters of the value, and the field's fixed words
        assert violation.startswith(f"{bad}: ") and "..." in violation
        assert len(violation) <= len(f"{bad}: ") + QUOTE_LIMIT + 70

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["chsh", "1e1000", "0", "0", "0"], 1),
            (["simulate", "--model", "ok.json", "--trials", "10", "--seed", "1", "--bias", "1e1000,0,0,0"], 2),
            (["validate", "outcome.json"], 1),
            (["validate", "mass.json"], 1),
            (["simulate", "--model", "ok.json", "--trials", "9" * 4000, "--seed", "1"], 2),
            (["simulate", "--model", "ok.json", "--trials", "10", "--seed", "9" * 4000], 2),
        ],
        ids=["chsh-value", "bias", "outcome", "source-mass", "trials", "seed"],
    )
    def test_huge_number_is_quoted_short(self, capsys, tmp_path, monkeypatch, argv, status):
        """A number of a thousand digits or more is quoted cut, in every stderr and violation line."""
        doc = kind_doc("contextual")
        (tmp_path / "ok.json").write_text(json.dumps(doc))
        doc["alice"][0]["outcomes"][0][0] = "1e999"
        (tmp_path / "outcome.json").write_text(json.dumps(doc))
        doc = kind_doc("contextual")
        doc["source"][0]["mass"] = "1e999"
        (tmp_path / "mass.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        got, out, err = run_cli(capsys, *argv)
        assert got == status and "Traceback" not in err
        lines = err.splitlines() + (json.loads(out)["violations"] if out else [])
        assert any("..." in line for line in lines)
        assert max(map(len, lines)) <= 200

    def test_non_list_instrument_exits_one(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "counterexample.model.json").read_text())
        doc["alice"][0]["instrument"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, out, err = run_cli(capsys, "validate", str(bad))
        assert status == 1 and "Traceback" not in err
        violations = json.loads(out)["violations"]
        assert any(
            str(bad) in v and "alice setting '+1' instrument pmf must be a list" in v
            for v in violations
        )

    def test_instrument_entry_without_label_exits_one(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "counterexample.model.json").read_text())
        del doc["bob"][1]["instrument"][0]["label"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, out, err = run_cli(capsys, "validate", str(bad))
        assert status == 1 and "Traceback" not in err
        violations = json.loads(out)["violations"]
        assert any(str(bad) in v and "missing key 'label'" in v for v in violations)
        assert any("bob setting '-1' instrument pmf atom 0" in v for v in violations)

    @pytest.mark.parametrize("coords, outside", [([0, 9], 9), ([-1, 2], -1), ([6, 0], 6)])
    def test_flat_coordinate_out_of_range_exits_one(self, capsys, tmp_path, coords, outside):
        flat = tmp_path / "flat.json"
        status, _out, err = run_cli(
            capsys, "flatten", str(FIXTURES / "counterexample.model.json"), "--out", str(flat)
        )
        assert status == 0, err
        doc = json.loads(flat.read_text())
        doc["bob"][1]["coords"] = coords
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, out, err = run_cli(capsys, "validate", str(bad))
        assert status == 1 and "Traceback" not in err
        message = f"flat setting '-1' coordinate {outside} lies outside the atom tuples"
        assert any(str(bad) in v and message in v for v in json.loads(out)["violations"])
        status, _out, err = run_cli(capsys, "exact", str(bad))
        assert status == 1
        assert message in err and "Traceback" not in err

    def test_flat_coordinate_not_integer_exits_one(self, capsys, tmp_path):
        flat = tmp_path / "flat.json"
        run_cli(capsys, "flatten", str(FIXTURES / "counterexample.model.json"), "--out", str(flat))
        doc = json.loads(flat.read_text())
        doc["alice"][0]["coords"] = ["0", 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, _out, err = run_cli(capsys, "exact", str(bad))
        assert status == 1
        assert "malformed integer '0' at flat setting '+1' coords" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, path, where",
        [
            ("contextual", ("alice",), "alice must be a list"),
            ("contextual", ("bob",), "bob must be a list"),
            ("contextual", ("alice", 0, "outcomes"), "alice setting '+1' outcomes must be a list"),
            ("contextual", ("bob", 1, "outcomes", 0), "bob setting '-1' outcome row for '1' must be a list"),
            ("flat", ("alice",), "alice must be a list"),
            ("flat", ("bob",), "bob must be a list"),
            ("averaged", ("alice",), "alice must be a list"),
            ("averaged", ("bob", 0, "bar"), "bob setting '+1' bar must be a list"),
            ("behavior", ("aliceSettings",), "aliceSettings must be a list"),
            ("behavior", ("bobSettings",), "bobSettings must be a list"),
            ("behavior", ("contexts",), "contexts must be a list"),
            ("behavior", ("contexts", 2, "cells"), "context (\"x'\", 'y') cells must be a list"),
        ],
    )
    def test_non_list_field_exits_one(self, capsys, tmp_path, kind, path, where):
        doc = kind_doc(kind)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = 5
        assert_rejected(capsys, doc, tmp_path, where)

    @pytest.mark.parametrize(
        "value, message",
        [
            (None, "flat setting '-1' has no entry for key"),
            ("5", "flat setting '-1' entry 0 value 5 lies outside [-1, 1]"),
        ],
    )
    def test_flat_entry_off_its_domain_exits_one(self, capsys, tmp_path, value, message):
        doc = kind_doc("flat")
        if value is None:
            del doc["alice"][1]["entries"][0]
        else:
            doc["alice"][1]["entries"][0]["value"] = value
        assert_rejected(capsys, doc, tmp_path, message)

    def test_flat_ternary_flag_enforced(self, capsys, tmp_path):
        winner = lhvlab.parse_path(FIXTURES / "loophole_winner.model.json")
        doc = json.loads(lhvlab.serialize(lhvlab.product_flatten(winner)))
        assert doc["bob"][1]["ternary"] is True
        doc["bob"][1]["entries"][3]["value"] = "1/2"
        message = "flat setting \"y'\" is ternary but entry 3 value 1/2 is not -1, 0 or 1"
        assert_rejected(capsys, doc, tmp_path, message)

    @pytest.mark.parametrize(
        "kind, path, message",
        [
            ("contextual", ("alice", 0, "instrument", 0, "mass"),
             "malformed fraction True at alice setting '+1' instrument pmf atom 0"),
            ("contextual", ("bob", 1, "outcomes", 2, 0),
             "malformed fraction True at bob setting '-1' outcome ('3', '*')"),
            ("behavior", ("contexts", 0, "cells", 0, "p"), "malformed fraction True at context ('x', 'y') cell 0"),
        ],
    )
    def test_json_boolean_is_not_a_number(self, capsys, tmp_path, kind, path, message):
        doc = kind_doc(kind)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = True
        assert_rejected(capsys, doc, tmp_path, message)

    @pytest.mark.parametrize("flag", ["false", 0, None])
    @pytest.mark.parametrize(
        "kind, where", [("contextual", "alice setting '+1'"), ("flat", "flat setting '+1'")]
    )
    def test_ternary_flag_must_be_a_boolean(self, capsys, tmp_path, kind, where, flag):
        doc = kind_doc(kind)
        doc["alice"][0]["ternary"] = flag
        assert_rejected(capsys, doc, tmp_path, f"{where} ternary flag must be true or false, got {flag!r}")

    @pytest.mark.parametrize(
        "value, message",
        [
            (None, "bob setting '-1' bar has no value for source label"),
            ("3/2", "bob setting '-1' bar 2 value 3/2 lies outside [-1, 1]"),
        ],
    )
    def test_averaged_bar_off_its_domain_exits_one(self, capsys, tmp_path, value, message):
        doc = kind_doc("averaged")
        if value is None:
            del doc["bob"][1]["bar"][2]
        else:
            doc["bob"][1]["bar"][2]["value"] = value
        assert_rejected(capsys, doc, tmp_path, message)

    @pytest.mark.parametrize(
        "kind, path, token, message",
        [
            ("contextual", ("source", 0, "mass"), "1e5000",
             "exponent 5000 of '1e5000' lies outside ±1000 at source atom 0"),
            ("contextual", ("alice", 0, "instrument", 0, "mass"), "1e-5000",
             "exponent -5000 of '1e-5000' lies outside ±1000 at alice setting '+1' instrument pmf atom 0"),
            ("contextual", ("bob", 0, "outcomes", 1, 0), "1e10000000",
             "exponent 10000000 of '1e10000000' lies outside ±1000 at bob setting '+1' outcome ('2', '*')"),
            ("flat", ("atoms", 0, "mass"), "1" * 1001,
             "number token of 1001 characters exceeds the limit of 1000 at atom 0"),
            ("averaged", ("bob", 1, "bar", 0, "value"), "1e5000",
             "exponent 5000 of '1e5000' lies outside ±1000 at bob setting '-1' bar 0"),
            ("behavior", ("contexts", 0, "cells", 0, "p"), 10**4000,
             "number token of 4001 characters exceeds the limit of 1000 at context ('x', 'y') cell 0"),
        ],
    )
    def test_unbounded_number_token_exits_one(self, capsys, tmp_path, kind, path, token, message):
        doc = kind_doc(kind)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = token
        assert_rejected(capsys, doc, tmp_path, message)

    def test_huge_exponent_is_refused_before_any_fraction(self, monkeypatch):
        """The bound is checked on the token's text, so no huge integer is ever built."""

        class Forbidden(Fraction):
            def __new__(cls, *_args):
                raise AssertionError("Fraction called on an unbounded token")

        monkeypatch.setattr(lhvlab.model, "Fraction", Forbidden)
        with pytest.raises(ValueError, match="exponent 10000000 of '1e10000000' lies outside"):
            lhvlab.as_fraction("1e10000000")

    @staticmethod
    def long_decimal_model() -> dict:
        """A valid model whose source and four instruments each hold two 1000-character decimal masses."""
        third, two_thirds = "0." + "3" * 997 + "1", "0." + "6" * 997 + "9"

        def setting(name):
            return {
                "setting": name,
                "instrument": [{"label": "u", "mass": third}, {"label": "v", "mass": two_thirds}],
                "outcomes": [["1", "-1"], ["-1", "1"]],
            }

        return {
            "kind": "contextual",
            "source": [{"pair": ["1", "1"], "mass": third}, {"pair": ["2", "2"], "mass": two_thirds}],
            "alice": [setting("x"), setting("x'")],
            "bob": [setting("y"), setting("y'")],
        }

    @staticmethod
    def huge_denominator_sum() -> dict:
        """The counterexample with six source masses 1/(10**900 + 7j + 1): a sum past 4300 digits."""
        doc = kind_doc("contextual")
        for j, atom in enumerate(doc["source"]):
            atom["mass"] = f"1/{10**900 + 7 * j + 1}"
        return doc

    @pytest.mark.parametrize(
        "argv, make",
        [
            (["validate"], "huge_denominator_sum"),
            (["flatten", "--method", "product"], "long_decimal_model"),
        ],
    )
    def test_number_past_the_print_limit_exits_one(self, capsys, tmp_path, argv, make):
        """A number derived from bounded tokens can still exceed Python's int-to-str limit."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps(getattr(self, make)()))
        out_path = tmp_path / "out.txt"
        for extra in ([], ["--out", str(out_path)]):
            status, out, err = run_cli(capsys, *argv, str(path), *extra)
            assert status == 1 and out == ""
            assert f"error: {path}: a number to print exceeds" in err and "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "kind, path, value, where",
        [
            ("contextual", ("source", 0, "pair", 0), 1, "source atom 0 pair label must be a string, got 1"),
            ("contextual", ("source", 0, "pair", 1), None, "source atom 0 pair label must be a string, got None"),
            ("contextual", ("alice", 1, "setting"), None, "alice setting name must be a string, got None"),
            ("contextual", ("bob", 0, "instrument", 0, "label"), 1,
             "bob setting '+1' instrument pmf atom 0 label must be a string, got 1"),
            ("flat", ("atoms", 0, "tuple", 2), 1, "atom 0 tuple must be a string, got 1"),
            ("flat", ("bob", 0, "setting"), 1, "bob flat setting name must be a string, got 1"),
            ("flat", ("alice", 0, "entries", 0, "key", 1), None,
             "flat setting '+1' entry 0 key must be a string, got None"),
            ("averaged", ("alice", 0, "setting"), 1, "alice setting name must be a string, got 1"),
            ("averaged", ("bob", 1, "bar", 0, "label"), None, "bob setting '-1' bar 0 label must be a string, got None"),
            ("behavior", ("aliceSettings", 0), 1, "aliceSettings must be a string, got 1"),
            ("behavior", ("contexts", 0, "bob"), None, "context bob must be a string, got None"),
        ],
    )
    def test_label_must_be_a_json_string(self, capsys, tmp_path, kind, path, value, where):
        doc = kind_doc(kind)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        assert_rejected(capsys, doc, tmp_path, where)

    @pytest.mark.parametrize("key", ["aliceSettings", "bobSettings"])
    def test_behavior_repeated_setting_name_exits_one(self, capsys, tmp_path, key):
        """A repeated name with only its own contexts must not pass as a behavior."""
        doc = kind_doc("behavior")
        coord = "alice" if key == "aliceSettings" else "bob"
        name = doc[key][0]
        doc[key] = [name, name]
        doc["contexts"] = [c for c in doc["contexts"] if c[coord] == name]
        message = f"{key}: duplicate setting name {name!r}"
        assert_rejected(capsys, doc, tmp_path, message)
        bad = tmp_path / "bad.json"
        for argv in (["chsh", "--model", str(bad)], ["fine", str(bad)]):
            status, out, err = run_cli(capsys, *argv)
            assert status == 1 and out == ""
            assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["flat", "averaged"])
    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_repeated_setting_name_exits_one(self, capsys, tmp_path, kind, side):
        """A repeated name would list one context twice and read the first setting for both."""
        doc = kind_doc(kind)
        name = doc[side][0]["setting"]
        doc[side][1]["setting"] = name
        message = f"{side}: duplicate setting name {name!r}"
        assert_rejected(capsys, doc, tmp_path, message)
        status, out, err = run_cli(capsys, "chsh", "--model", str(tmp_path / "bad.json"))
        assert status == 1 and out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["contextual", "flat", "averaged", "behavior"])
    def test_repeated_long_setting_name_is_quoted_short(self, capsys, tmp_path, kind):
        """Two Alice settings that share a 100 000-character name give a short document, exit 1."""
        from lhvlab.model import QUOTE_LIMIT

        name = "n" * 100_000
        doc = kind_doc(kind)
        if kind == "behavior":
            doc["aliceSettings"] = [name, name]
            for context in doc["contexts"]:
                context["alice"] = name
        else:
            for setting in doc["alice"]:
                setting["setting"] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, out, err = run_cli(capsys, "validate", str(bad))
        assert status == 1 and "Traceback" not in err
        [violation] = json.loads(out)["violations"]
        assert "duplicate setting name 'nnn" in violation and "..." in violation
        assert len(out) <= len(str(bad)) + QUOTE_LIMIT + 100
        status, out, err = run_cli(capsys, "exact", str(bad))
        assert (status, out) == (1, "") and "duplicate setting name 'nnn" in err
        assert len(err) <= len(str(bad)) + QUOTE_LIMIT + 100

    @pytest.mark.parametrize(
        "case, message",
        [
            ("utf16", "not UTF-8 text: byte 0 (0xff)"),
            ("nested", "lists and objects nest too deeply"),
            ("directory", "cannot read"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "exact", "fine"])
    def test_unreadable_file_exits_one(self, capsys, tmp_path, case, message, command):
        """File bytes that are not a model end in exit 1 naming the file, never a traceback."""
        path = tmp_path / "model.json"
        if case == "utf16":
            path.write_bytes(b"\xff\xfe{}")
        elif case == "nested":
            path.write_text("[" * 100_000)
        else:
            path.mkdir()
        status, out, err = run_cli(capsys, command, str(path))
        assert status == 1 and "Traceback" not in err
        if command == "validate" and case != "directory":
            [where] = json.loads(out)["violations"]
        else:
            assert out == ""
            where = err
        assert str(path) in where and message in where

    def test_parse_error_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  nope\n}")
        status, out, _err = run_cli(capsys, "validate", str(bad))
        assert status == 1
        assert any("line 2" in v for v in json.loads(out)["violations"])


class TestFine:
    def test_counterexample_behavior_feasible(self, capsys, tmp_path):
        from lhvlab import behavior_from_model, counterexample_model
        from lhvlab.modelio import serialize

        path = tmp_path / "b.json"
        path.write_text(serialize(behavior_from_model(counterexample_model())))
        payload = run_json(capsys, "fine", str(path), schema="fine")
        assert payload["feasible"] is True
        assert payload["criterion"] is True
        assert len(payload["joint"]) == 16

    def test_quantum_fixture_infeasible_with_certificate(self, capsys):
        payload = run_json(
            capsys, "fine", str(FIXTURES / "quantum_chsh_optimal.behavior.json"), schema="fine"
        )
        assert payload["feasible"] is False
        assert payload["criterion"] is False
        assert abs(Fraction(payload["certificate"]["value"])) > 2

    def test_model_file_rejected(self, capsys):
        status, _out, err = run_cli(capsys, "fine", str(FIXTURES / "counterexample.model.json"))
        assert status == 1
        assert "behavior" in err

    def test_non_integer_outcome_exits_one(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "quantum_chsh_optimal.behavior.json").read_text())
        doc["outcomes"] = ["a"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status, _out, err = run_cli(capsys, "fine", str(bad))
        assert status == 1
        assert str(bad) in err and "outcomes" in err
        assert "Traceback" not in err


class TestSimulate:
    def test_csv_format_and_determinism(self, capsys):
        args = [
            "simulate",
            "--model",
            str(FIXTURES / "counterexample.model.json"),
            "--trials",
            "50",
            "--seed",
            "12",
            "--format",
            "csv",
        ]
        status, out1, _ = run_cli(capsys, *args)
        assert status == 0
        status, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "trial,a,b,x,y"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3] in ("-1", "1") and first[4] in ("-1", "1")

    def test_json_format_validates(self, capsys):
        payload = run_json(
            capsys,
            "simulate",
            "--model",
            str(FIXTURES / "counterexample.model.json"),
            "--trials",
            "200",
            "--seed",
            "5",
            schema="simulate",
        )
        assert payload["trials"] == 200
        assert len(payload["records"]) == 200
        assert payload["estimates"]

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "x.json", "--trials", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**23])
    def test_seed_out_of_range_is_usage_error(self, capsys, seed):
        status, _out, err = run_cli(
            capsys,
            "simulate",
            "--model",
            str(FIXTURES / "counterexample.model.json"),
            "--trials",
            "10",
            "--seed",
            str(seed),
        )
        assert status == 2
        assert "--seed" in err

    def test_largest_seed_accepted(self, capsys):
        status, _out, err = run_cli(
            capsys,
            "simulate",
            "--model",
            str(FIXTURES / "counterexample.model.json"),
            "--trials",
            "10",
            "--seed",
            str(2**64 - 1),
            "--format",
            "csv",
        )
        assert status == 0, err

    def test_bias_must_normalize(self, capsys):
        status, _out, err = run_cli(
            capsys,
            "simulate",
            "--model",
            str(FIXTURES / "counterexample.model.json"),
            "--trials",
            "10",
            "--seed",
            "1",
            "--bias",
            "1/2,1/2,1/2,1/2",
        )
        assert status == 2
        assert "sum" in err

    @pytest.mark.parametrize(
        "bias, named",
        [("1,1,-1,0", "-1"), ("1/2,-1/4,1/2,1/4", "-1/4"), ("2,-" + "7" * 100 + ",0,0", "-" + "7" * 76 + "...")],
        ids=["sum-one", "first-of-two", "cut"],
    )
    def test_negative_bias_mass_is_named(self, capsys, bias, named):
        # a negative mass is named before the sum is checked, even when the masses sum to 1
        status, out, err = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "counterexample.model.json"),
            "--trials", "10", "--seed", "1", "--bias", bias,
        )
        assert (status, out) == (2, "")
        assert err == f"usage error: --bias probability {named} is negative\n"

    def test_unbounded_bias_is_usage_error(self, capsys):
        status, out, err = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "counterexample.model.json"),
            "--trials", "10", "--seed", "1", "--bias", "1e-5000,1/2,1/4,1/4",
        )
        assert status == 2 and out == ""
        assert err == "usage error: --bias probability: exponent -5000 of '1e-5000' lies outside ±1000\n"

    def test_confound_flag_runs(self, capsys):
        payload = run_json(
            capsys,
            "simulate",
            "--model",
            str(FIXTURES / "counterexample.model.json"),
            "--trials",
            "4000",
            "--seed",
            "5",
            "--confound",
            schema="simulate",
        )
        assert payload["confound"] is True
        assert float(payload["independence"]["statistic"]) > 30

    @pytest.mark.parametrize(
        "doc, extra, expected",
        [('{"kind": "contextual"}', [], 1), (None, ["--bias", "1,0,0,1"], 2)],
        ids=["bad-model", "bad-bias"],
    )
    def test_bad_input_exits_before_numpy_loads(self, tmp_path, doc, extra, expected):
        model = FIXTURES / "counterexample.model.json"
        if doc is not None:
            model = tmp_path / "bad.json"
            model.write_text(doc)
        status, modules, numpy = loaded_modules("simulate", "--model", str(model), "--trials", "10", "--seed", "1", *extra)
        assert status == expected
        assert "montecarlo" not in modules and numpy is False

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_is_usage_error(self, capsys, tmp_path, trials):
        # the model path does not exist: the flag is checked before the model is loaded
        target = tmp_path / "out.json"
        status, out, err = run_cli(
            capsys, "simulate", "--model", "no-such-model.json", "--trials", str(trials), "--seed", "1",
            "--out", str(target),
        )
        assert status == 2
        assert err == f"usage error: --trials must be >= 1, got {trials}\n"
        assert out == "" and not target.exists()

    @pytest.mark.parametrize("trials", [cli.MAX_TRIALS + 1, 10**11])
    def test_trials_past_the_bound_is_usage_error(self, capsys, trials):
        # refused before the model is read, so before any trial array exists
        status, out, err = run_cli(
            capsys, "simulate", "--model", "no-such-model.json", "--trials", str(trials), "--seed", "1"
        )
        assert status == 2 and out == ""
        assert err == f"usage error: --trials must be at most {cli.MAX_TRIALS}, got {trials}\n"


def _forbidden(*_args, **_kwargs):
    raise AssertionError("the oracle must not use the streaming writer")


def simulate_payload(monkeypatch, *argv):
    """simulate's whole payload: the dict it renders, with records built trial by trial from ``Spreadsheet.record``.

    No writer runs: the text format's renderer hands over the payload, and
    the record writer the spreadsheet.
    """
    args = build_parser().parse_args(["simulate", *argv, "--format", "text"])
    seen = {}

    def render(payload):
        seen["payload"] = payload
        return ""

    def with_records(sheet, *_frames):
        seen["sheet"] = sheet
        return []

    with monkeypatch.context() as m:
        m.setattr(cli, "_render_text", render)
        m.setattr(cli, "_with_records", with_records)
        m.setattr(lhvlab.Spreadsheet, "csv_chunks", _forbidden)
        _chunks, status = args.func(args)
    assert status == 0 and "records" not in seen["payload"]
    sheet = seen["sheet"]
    return seen["payload"] | {"records": [[t, *sheet.record(t)] for t in range(len(sheet))]}


BLOCK = lhvlab.montecarlo.ROWS_PER_BLOCK
# trial counts at and around a block's edge, and the two flags that change the settings stream
SIMULATE_CASES = [
    ["--trials", "1", "--seed", "7"],
    ["--trials", "2", "--seed", "7"],
    ["--trials", str(BLOCK - 1), "--seed", "3"],
    ["--trials", str(BLOCK), "--seed", "3"],
    ["--trials", str(BLOCK + 1), "--seed", "3"],
    ["--trials", "3000", "--seed", "5", "--confound"],
    ["--trials", "3000", "--seed", "5", "--bias", "1/2,1/4,1/8,1/8"],
]


class TestSimulateStreaming:
    """simulate streams its records; the bytes are those of the generic encoders."""

    MODEL = str(FIXTURES / "counterexample.model.json")

    @pytest.mark.parametrize("extra", SIMULATE_CASES)
    def test_json_and_csv_match_the_generic_encoders(self, capsys, monkeypatch, extra):
        argv = ["--model", self.MODEL, *extra]
        payload = simulate_payload(monkeypatch, *argv)
        assert len(payload["records"]) == int(extra[1])
        status, out, err = run_cli(capsys, "simulate", *argv)
        assert status == 0, err
        assert out == json.dumps(payload, indent=2) + "\n"
        want = io.StringIO()
        csv.writer(want).writerows([["trial", "a", "b", "x", "y"], *payload["records"]])
        status, out, err = run_cli(capsys, "simulate", *argv, "--format", "csv")
        assert status == 0, err
        assert out == want.getvalue()

    def test_out_file_matches_the_generic_encoder(self, capsys, monkeypatch, tmp_path):
        argv = ["--model", self.MODEL, "--trials", str(BLOCK + 1), "--seed", "11"]
        payload = simulate_payload(monkeypatch, *argv)
        target = tmp_path / "sim.json"
        status, out, err = run_cli(capsys, "simulate", *argv, "--out", str(target))
        assert (status, out, err) == (0, "", "")
        assert target.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()

    def test_text_renders_the_json_document(self, capsys):
        for extra in SIMULATE_CASES:
            argv = ["simulate", "--model", self.MODEL, *extra]
            doc = run_json(capsys, *argv, schema="simulate")
            status, out, err = run_cli(capsys, *argv, "--format", "text")
            assert status == 0, err
            assert out == cli._render_text(doc) + "\n", extra
            assert "\nrecords:\n  -\n    - 0\n" in out

    def test_records_writer_equals_the_generic_encoder(self, capsys, monkeypatch):
        """Every format's records writer, on setting names that need escaping."""
        import numpy as np

        sheet = lhvlab.Spreadsheet(
            ('a"\\', "é\n"),
            ("\t'", "λ/🎲"),
            np.array([0, 1, 1, 0, 1], dtype=np.int8),
            np.array([1, 1, 0, 0, 1], dtype=np.int8),
            np.array([1, -1, -1, 1, 1], dtype=np.int8),
            np.array([-1, -1, 1, 1, 1], dtype=np.int8),
        )
        monkeypatch.setattr(lhvlab.montecarlo, "simulate_spreadsheet", lambda *_args, **_kwargs: sheet)
        argv = ["--model", self.MODEL, "--trials", str(len(sheet)), "--seed", "1"]
        payload = simulate_payload(monkeypatch, *argv)
        assert payload["records"][0] == [0, 'a"\\', "λ/🎲", 1, -1]
        csv_text = io.StringIO()
        csv.writer(csv_text).writerows([["trial", "a", "b", "x", "y"], *payload["records"]])
        expected = {
            "json": json.dumps(payload, indent=2) + "\n",
            "text": cli._render_text(payload) + "\n",
            "csv": csv_text.getvalue(),
        }
        for fmt, want in expected.items():
            status, out, err = run_cli(capsys, "simulate", *argv, "--format", fmt)
            assert (status, err) == (0, "") and out == want, fmt

    def test_text_format_holds_no_trial_beyond_its_block(self):
        """The text format's traced peak grows by under 100 bytes a trial, as JSON's and CSV's do."""
        import tracemalloc

        def peak(trials):
            tracemalloc.start()
            try:
                status = main(["simulate", "--model", self.MODEL, "--trials", str(trials), "--seed", "3",
                               "--format", "text", "--out", os.devnull])
                assert status == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(BLOCK)  # loads numpy and the modules, so both measured runs start warm
        small, large = peak(4 * BLOCK), peak(8 * BLOCK)
        assert (large - small) / (4 * BLOCK) < 100


class TestSearch:
    def test_search_payload_and_model_file(self, capsys, tmp_path):
        out_model = tmp_path / "winner.json"
        payload = run_json(
            capsys,
            "search",
            "--seed",
            "9",
            "--budget",
            "600",
            "--out-model",
            str(out_model),
            schema="search",
        )
        assert payload["config"]["seed"] == 9
        from lhvlab.modelio import parse_path

        model = parse_path(out_model)
        assert model.is_ternary()
        assert payload["rawChsh"]["satisfied"] is True

    def test_out_model_to_unwritable_path_exits_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "winner.json"
        status, out, err = run_cli(capsys, "search", "--seed", "9", "--budget", "400", "--out-model", str(target))
        assert status == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("bad", ["--out", "--out-model"])
    def test_failed_write_leaves_neither_file(self, capsys, tmp_path, bad):
        paths = {"--out": tmp_path / "search.json", "--out-model": tmp_path / "winner.json"}
        paths[bad] = tmp_path / "missing" / paths[bad].name
        flags = [str(part) for flag, path in paths.items() for part in (flag, path)]
        status, out, err = run_cli(capsys, "search", "--seed", "9", "--budget", "400", *flags)
        assert (status, out) == (1, "")
        assert err == f"error: cannot write {paths[bad]}: No such file or directory\n"
        assert not any(path.exists() for path in paths.values())

    def test_search_deterministic(self, capsys):
        p1 = run_json(capsys, "search", "--seed", "9", "--budget", "400")
        p2 = run_json(capsys, "search", "--seed", "9", "--budget", "400")
        assert p1 == p2

    def test_bad_min_rate_usage_error(self, capsys):
        status, _out, err = run_cli(capsys, "search", "--seed", "1", "--min-rate", "3/0")
        assert status == 2

    @pytest.mark.parametrize(
        "flag, value, bound",
        [
            ("--source-atoms", 10**8, cli.MAX_SOURCE_ATOMS),
            ("--source-atoms", cli.MAX_SOURCE_ATOMS + 1, cli.MAX_SOURCE_ATOMS),
            ("--instrument-atoms", 3 * 10**6, cli.MAX_INSTRUMENT_ATOMS),
            ("--instrument-atoms", cli.MAX_INSTRUMENT_ATOMS + 1, cli.MAX_INSTRUMENT_ATOMS),
        ],
    )
    def test_space_size_past_the_bound_is_usage_error(self, capsys, monkeypatch, flag, value, bound):
        monkeypatch.setattr(lhvlab.loophole, "search_postselection_violation", _forbidden)
        status, out, err = run_cli(capsys, "search", "--seed", "1", flag, str(value))
        assert status == 2 and out == ""
        assert err == f"usage error: {flag} must be at most {bound}, got {value}\n"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_usage_error(self, capsys, seed):
        status, _out, err = run_cli(capsys, "search", "--seed", str(seed), "--budget", "10")
        assert status == 2
        assert "--seed" in err


# each call shape of the benchmark's cli workload, with the lhvlab modules it loads besides lhvlab.cli
_READ = {"model", "modelio", "flatten"}
_SIMULATE = ["simulate", "--model", str(FIXTURES / "counterexample.model.json"), "--trials", "10", "--seed", "1"]
_WINNER = str(FIXTURES / "loophole_winner.model.json")
CALL_SHAPES = [
    pytest.param(_SIMULATE, _READ | {"chsh", "montecarlo"}, id="simulate_json"),
    pytest.param(_SIMULATE + ["--format", "csv"], _READ | {"chsh", "montecarlo"}, id="simulate_csv"),
    pytest.param(["validate", _WINNER], _READ, id="validate"),
    pytest.param(["exact", _WINNER], _READ, id="exact"),
    *(
        pytest.param(["flatten", _WINNER, "--method", method], _READ, id=f"flatten_{method}")
        for method in ("product", "uniform", "average")
    ),
    pytest.param(["chsh", "1", "0", "0", "-1"], {"model", "chsh"}, id="chsh_values"),
    pytest.param(["chsh", "--model", _WINNER], _READ | {"chsh"}, id="chsh_model"),
    pytest.param(
        ["fine", str(FIXTURES / "quantum_chsh_optimal.behavior.json")], _READ | {"chsh", "fine", "simplex"}, id="fine"
    ),
    pytest.param(["demo-counterexample"], _READ | {"chsh", "fine", "simplex"}, id="demo_counterexample"),
    pytest.param(["demo-quantum"], _READ | {"chsh", "loophole"}, id="demo_quantum"),
    pytest.param(["search", "--seed", "9", "--budget", "400"], _READ | {"chsh", "loophole"}, id="search"),
]


class TestPlumbing:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "artifact.json"
        status, out, _err = run_cli(capsys, "demo-counterexample", "--out", str(target))
        assert status == 0
        assert out == ""
        assert json.loads(target.read_text())["fineFeasible"] is True

    def test_text_format(self, capsys):
        status, out, _err = run_cli(capsys, "chsh", "0", "0", "0", "0", "--format", "text")
        assert status == 0
        assert "maxAbs: 0" in out

    @pytest.mark.parametrize(
        "argv",
        [["exact"], ["chsh", "--model"], ["simulate", "--trials", "3", "--seed", "1", "--model"]],
        ids=["exact", "chsh", "simulate"],
    )
    def test_text_format_quotes_a_name_that_breaks_a_line(self, capsys, tmp_path, argv):
        """A setting name cannot forge a record: one holding a line break is written as its JSON string."""
        doc = json.loads((FIXTURES / "counterexample.model.json").read_text())

        def text_of(name):
            doc["alice"][0]["setting"] = name
            path = tmp_path / "named.json"
            path.write_text(json.dumps(doc))
            status, out, err = run_cli(capsys, *argv, str(path), "--format", "text")
            assert (status, err) == (0, "")
            return out

        plain = text_of("plain")
        # every character str.splitlines breaks on, each in a would-be forged record
        for brk in ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]:
            name = f"x{brk}  -{brk}    - 7"
            out = text_of(name)
            assert json.dumps(name) in out and out.replace(json.dumps(name), "plain") == plain, repr(brk)
        # a name without a line break is written as it is, quotes, tabs and all
        name = 'a"\t\\é'
        assert text_of(name) == plain.replace("plain", name)

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", ["product", "uniform", "average"])
    def test_flatten_has_no_text_format(self, capsys, tmp_path, method):
        # flatten's artifact is a model file, so JSON is its one format
        target = tmp_path / "flat.json"
        with pytest.raises(SystemExit) as exc:
            main(["flatten", str(FIXTURES / "counterexample.model.json"), "--method", method, "--format", "text",
                  "--out", str(target)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and not target.exists()
        assert "argument --format: invalid choice: 'text'" in err

    @pytest.mark.parametrize("command", [["demo-counterexample"], ["flatten", str(FIXTURES / "counterexample.model.json")]])
    def test_out_to_unwritable_path_exits_one(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "artifact.json"
        status, out, err = run_cli(capsys, *command, "--out", str(target))
        assert status == 1 and out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_out_not_created_when_the_command_fails(self, capsys, tmp_path):
        target = tmp_path / "artifact.json"
        status, _out, _err = run_cli(capsys, "exact", str(tmp_path / "absent.json"), "--out", str(target))
        assert status == 1
        status, _out, _err = run_cli(capsys, "chsh", "1", "2", "--out", str(target))
        assert status == 2
        assert not target.exists()

    @staticmethod
    def run_child(*argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=child_env())

    @pytest.mark.parametrize(
        "argv, owner, worker",
        [
            (["flatten", str(FIXTURES / "counterexample.model.json")], lhvlab.flatten, "product_flatten"),
            # the streamed output: the handler covers the writer as well
            (["simulate", "--model", str(FIXTURES / "counterexample.model.json"), "--trials", "10", "--seed", "1",
              "--format", "csv"], lhvlab.montecarlo.Spreadsheet, "text_blocks"),
        ],
        ids=["flatten", "simulate-csv"],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_memory_error_exits_one_with_a_message(self, capsys, monkeypatch, tmp_path, argv, owner, worker, to_file):
        """The last-resort handler, on a worker patched to raise: nothing is allocated."""

        def exhausted(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr(owner, worker, exhausted)
        target = tmp_path / "artifact"
        status, out, err = run_cli(capsys, *argv, *(["--out", str(target)] if to_file else []))
        assert status == 1
        assert err == f"error: {FIXTURES / 'counterexample.model.json'}: {argv[0]} ran out of memory\n"
        # the streamed CSV may have sent its header to stdout; a file is removed
        assert not target.exists()
        if to_file:
            assert out == ""

    def test_out_removed_when_a_streamed_write_fails(self, capsys, monkeypatch, tmp_path):
        """A disk that fills after the first block: exit 1, and no partial file is left."""

        def first_block_then_full(*_args, **_kwargs):
            yield "0,x,y,1,1\r\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(lhvlab.montecarlo.Spreadsheet, "text_blocks", first_block_then_full)
        target = tmp_path / "sim.csv"
        status, out, err = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "counterexample.model.json"), "--trials", "10",
            "--seed", "1", "--format", "csv", "--out", str(target),
        )
        assert (status, out) == (1, "")
        assert err == f"error: cannot write {target}: No space left on device\n"
        assert not target.exists()

    def test_entry_point_runs_as_module(self):
        result = self.run_child("-m", "lhvlab.cli", "chsh", "1", "0", "0", "-1")
        assert result.returncode == 0
        assert json.loads(result.stdout)["satisfied"] is True

    def test_import_loads_no_scipy(self):
        code = "import sys, lhvlab, lhvlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        result = self.run_child("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_defers_numpy_and_keeps_every_name(self):
        code = (
            "import json, sys, lhvlab, lhvlab.cli\n"
            "numpy = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "names = {}\n"
            "exec('from lhvlab import *', names)\n"
            "print(json.dumps({\n"
            "    'numpy': numpy,\n"
            "    'all': lhvlab.__all__,\n"
            "    'unbound': [n for n in lhvlab.__all__ if n not in names],\n"
            "    'lazy': lhvlab.simulate_spreadsheet is lhvlab.montecarlo.simulate_spreadsheet\n"
            "        and names['montecarlo'] is sys.modules['lhvlab.montecarlo'],\n"
            "}))\n"
        )
        result = self.run_child("-c", code)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["numpy"] == []
        assert set(report["all"]) == PUBLIC_NAMES and len(report["all"]) == 70
        assert report["unbound"] == []
        assert report["lazy"] is True

    def test_import_loads_no_submodule(self):
        code = "import sys, lhvlab; print(sorted(m for m in sys.modules if m.startswith('lhvlab')))"
        result = self.run_child("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "['lhvlab']"

    @pytest.mark.parametrize("argv, expected", CALL_SHAPES)
    def test_each_subcommand_loads_only_the_modules_it_runs(self, argv, expected):
        status, modules, numpy = loaded_modules(*argv)
        assert status == 0
        assert modules == expected
        assert numpy is ("montecarlo" in expected)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_early_closed_stdout_exits_zero_quietly(self, fmt):
        # far more output than a pipe buffers, so the writer meets the closed pipe
        argv = ["simulate", "--model", str(FIXTURES / "counterexample.model.json"), "--trials", "100000",
                "--seed", "7", "--format", fmt]
        proc = subprocess.Popen([sys.executable, "-m", "lhvlab.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=child_env())
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 0, err.decode()
        assert len(head) == 100
        assert err == b""


# lhvlab.__all__: the 76 names the package once imported eagerly, less the six that only
# tests reached (NonlocalPairModel, FactorizationReport, is_setting_factorizable,
# nonlocal_quad, finite_sample_bound, refine_breakpoints), removed on purpose; the package
# now serves every name and submodule on first use, from its name table, and must keep these 70
PUBLIC_NAMES = {
    "AngleSet", "AveragedModel", "BehaviorTable", "ChshCombination", "ChshReport", "ContextualModel",
    "CorrelationEstimate", "CorrelationQuad", "CouplingSamples", "DagModel", "DetectionReport",
    "DomainMismatchError", "FlatModel", "FlatSetting", "IndependenceReport",
    "InternalInconsistencyError", "JointDistribution16", "JointSearchResult", "ModelParseError",
    "NoSignallingReport", "OutcomeTable", "Pmf", "PostSelectionReport", "SearchConfig",
    "SearchOutcome", "Setting", "Spreadsheet", "TrialRecord", "ValidationReport", "as_fraction",
    "behavior_from_model", "bell_average", "check_no_signalling", "chsh", "chsh_values", "corpus",
    "correlation_quad", "counterexample_model", "coupling_joint", "detection_rates", "estimate_correlations",
    "exact_expectation", "exact_side_expectation", "find_joint", "fine", "fine_criterion",
    "flatten", "from_contextual", "independence_diagnostic", "loophole",
    "marginalize_context", "model", "modelio", "montecarlo", "parse_path", "parse_text",
    "postselected_correlations", "product_flatten", "quantum_singlet_behavior", "random_contextual_model",
    "random_nosignalling_behavior", "sample_coupling", "search_postselection_violation",
    "serialize", "simplex", "simulate_given_settings", "simulate_spreadsheet", "uniform_reduce",
    "validate_model", "zero_to_coin",
}


SCHEMA_VALIDATORS = {
    name: jsonschema.validators.validator_for(schema)(schema)
    for name in ("model", "validate", "exact", "chsh", "fine")
    for schema in [json.loads((SCHEMAS / f"{name}.schema.json").read_text())]
}


def artifact(*argv):
    """One in-process CLI call that must succeed: its stdout as parsed JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    assert status == 0, err.getvalue()
    return json.loads(out.getvalue())


class TestArtifactSchemas:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["binary", "ternary", "interval"]))
    def test_random_models_give_schema_valid_artifacts(self, seed, kind):
        """Each flattening is a valid model file; each report on the model, a flattening or a behavior fits its schema."""
        model = random_contextual_model(
            random.Random(seed), max_source_side=3, max_instrument=3, outcome_kind=kind
        )
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / "model.json"]
            paths[0].write_text(lhvlab.serialize(model))
            for method in ("product", "uniform", "average"):
                doc = artifact("flatten", str(paths[0]), "--method", method)
                SCHEMA_VALIDATORS["model"].validate(doc)
                paths.append(Path(tmp) / f"{method}.json")
                paths[-1].write_text(json.dumps(doc))
            if kind != "interval":
                paths.append(Path(tmp) / "behavior.json")
                paths[-1].write_text(lhvlab.serialize(lhvlab.behavior_from_model(model)))
                coin = Path(tmp) / "coin.json"
                coin.write_text(lhvlab.serialize(lhvlab.behavior_from_model(lhvlab.zero_to_coin(model))))
                SCHEMA_VALIDATORS["fine"].validate(artifact("fine", str(coin)))
            for path in paths:
                SCHEMA_VALIDATORS["validate"].validate(artifact("validate", str(path)))
                SCHEMA_VALIDATORS["exact"].validate(artifact("exact", str(path)))
                SCHEMA_VALIDATORS["chsh"].validate(artifact("chsh", "--model", str(path)))
