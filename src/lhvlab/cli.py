"""Command-line entry point wiring model I/O to the analysis modules.

One binary, subcommand style.  Exact results are printed as fraction
strings; floating results as 17-significant-digit decimal strings.
Exit status: 0 success, 1 parse/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Optional, Union

# Only the model layer loads with the CLI; each subcommand imports the
# modules it runs, so a small call pays for no module it leaves unused.
from .model import (
    BehaviorTable,
    Context,
    ContextualModel,
    CorrelationQuad,
    Pmf,
    _cut,
    _excerpt,
    as_fraction,
    behavior_from_model,
    correlation_quad,
    counterexample_model,
    validate_model,
)

if TYPE_CHECKING:
    from .chsh import ChshCombination, ChshReport, PostSelectionReport
    from .fine import JointDistribution16, NoSignallingReport
    from .loophole import DetectionReport


# Size bounds on flags, checked before anything is read or allocated: far
# above what the fixtures and demos use, below what exhausts a machine's memory
# (a simulated trial holds about 45 bytes at its peak, in every format; a search
# model holds source atoms x instrument atoms outcome entries per setting).
MAX_TRIALS = 10**7
MAX_SOURCE_ATOMS = 1000
MAX_INSTRUMENT_ATOMS = 100
# A bound on time: on a 2-vCPU host a search evaluation takes about 14 us at the
# default sizes (10^7 of them about 2.5 minutes) and about 130 us at the largest
# --source-atoms and --instrument-atoms (about 22 minutes, extrapolated from
# budgets of 10^5); the bound does not scale with the sizes.
MAX_BUDGET = 10**7
# Bounds on model-derived sizes, checked after the parse and before the build:
# an atom of the product or the uniform flattening holds about 0.9 KB at the
# peak of `flatten` (the flat model, its atom texts and the joined document).
MAX_PRODUCT_ATOMS = 10**6
MAX_UNIFORM_ATOMS = 10**6


class CliError(Exception):
    """A handled failure; message goes to stderr, exit status is 1."""


class UsageError(Exception):
    """A malformed invocation; message goes to stderr, exit status is 2."""


def _num(value: Union[Fraction, float, int, None]) -> Optional[str]:
    """Exact values as fraction strings, floats as 17-digit decimals."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(Fraction(value))
    return format(float(value), ".17g")


def _quad_json(quad: CorrelationQuad, values: Optional[Mapping[Context, Any]] = None) -> list[dict[str, Any]]:
    """Each of the quad's contexts, Alice-major, with its value: the quad's own, or the one in ``values``."""
    values = quad.values if values is None else values
    return [{"alice": a, "bob": b, "value": _num(values[a, b])} for a, b in quad.contexts()]


def _combination_json(c: ChshCombination) -> dict[str, Any]:
    return {"flippedAlice": c.flipped[0], "flippedBob": c.flipped[1], "sign": c.sign, "value": _num(c.value)}


def _chsh_json(report: ChshReport) -> dict[str, Any]:
    return {
        "quad": _quad_json(report.quad),
        "combinations": [_combination_json(c) for c in report.combinations],
        "maxAbs": _num(report.max_abs),
        "satisfied": report.satisfied,
    }


def _postselection_json(ps: PostSelectionReport) -> dict[str, Any]:
    return {
        "rawQuad": _quad_json(ps.raw_quad),
        "conditional": _quad_json(ps.raw_quad, ps.conditional),
        "coincidenceRate": _quad_json(ps.raw_quad, ps.coincidence_rate),
        "aliceDetect": _quad_json(ps.raw_quad, ps.alice_detect),
        "bobDetect": _quad_json(ps.raw_quad, ps.bob_detect),
    }


def _nosignalling_json(report: NoSignallingReport) -> dict[str, Any]:
    return {
        "maxDeviation": _num(report.max_deviation),
        "holds": report.holds,
        "perSetting": [
            {"side": side, "setting": name, "deviation": _num(dev)}
            for (side, name), dev in report.per_setting_deviation.items()
        ],
    }


def _joint_json(joint: JointDistribution16) -> list[dict[str, Any]]:
    return [
        {"pattern": list(pattern), "mass": _num(mass)}
        for pattern, mass in joint.mass.items()
    ]


def _detection_json(det: DetectionReport) -> dict[str, Any]:
    return {
        "threshold": _num(det.threshold),
        "alice": {name: _num(rate) for name, rate in det.alice.items()},
        "bob": {name: _num(rate) for name, rate in det.bob.items()},
        "relations": [
            {"side": side, "setting": name, "relation": rel}
            for (side, name), rel in det.relations().items()
        ],
        "allBelow": det.all_below,
    }


def _read(path: str):
    """The parsed model file; a path that cannot be read ends as a ``CliError`` naming it."""
    from .modelio import parse_path

    try:
        return parse_path(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {_cut(path)}")
    except OSError as exc:
        raise CliError(f"cannot read {_cut(path)}: {exc.strerror or exc}")


def _load(path: str):
    from .modelio import ModelParseError

    try:
        return _read(path)
    except ModelParseError as exc:
        raise CliError(str(exc))


def _require_contextual(obj) -> ContextualModel:
    if not isinstance(obj, ContextualModel):
        raise CliError(f"expected a contextual model, got kind {_kind_of(obj)!r}")
    report = validate_model(obj)
    if not report.ok:
        raise CliError("model is not well-formed: " + "; ".join(report.violations))
    return obj


def _kind_of(obj) -> str:
    from .flatten import AveragedModel, FlatModel

    return {
        ContextualModel: "contextual",
        FlatModel: "flat",
        AveragedModel: "averaged",
        BehaviorTable: "behavior",
    }[type(obj)]


def _quad_of(obj) -> CorrelationQuad:
    """The quad of a loaded document; a contextual model must pass validation first."""
    if isinstance(obj, ContextualModel):
        return correlation_quad(_require_contextual(obj))
    return obj.quad()


# ------------------------------------------------------------- subcommands

def _cmd_validate(args) -> tuple[Any, int]:
    from .modelio import ModelParseError

    try:
        obj = _read(args.model)
    except ModelParseError as exc:
        return {"valid": False, "violations": [str(exc)]}, 1
    if isinstance(obj, ContextualModel):
        report = validate_model(obj)
        payload = {"valid": report.ok, "violations": list(report.violations)}
        return payload, 0 if report.ok else 1
    return {"valid": True, "violations": [], "kind": _kind_of(obj)}, 0


def _cmd_exact(args) -> tuple[Any, int]:
    obj = _load(args.model)
    return {"kind": _kind_of(obj), "quad": _quad_json(_quad_of(obj))}, 0


def _cmd_flatten(args) -> tuple[Any, int]:
    from .flatten import _quantile_model, _quantile_product, _quantile_size, bell_average, product_flatten, product_size
    from .modelio import serialize

    model = _require_contextual(_load(args.model))
    if args.method == "average":
        out = bell_average(model)
    else:
        if args.method == "uniform":
            # each side's cells are cut once, into the quantile model that the count and the build both read
            model = _quantile_model(model)
        size, build, bound = {
            "product": (product_size, product_flatten, MAX_PRODUCT_ATOMS),
            "uniform": (_quantile_size, _quantile_product, MAX_UNIFORM_ATOMS),
        }[args.method]
        atoms = size(model)
        if atoms > bound:
            raise CliError(f"{args.model}: the {args.method} flattening has {atoms} atoms, more than the limit of {bound}")
        out = build(model)
    return [serialize(out)], 0


def _cmd_chsh(args) -> tuple[Any, int]:
    from .chsh import chsh_values, postselected_correlations

    payload: dict[str, Any] = {}
    if args.model:
        if args.values:
            raise UsageError("give either --model or four quad values, not both")
        obj = _load(args.model)
        quad = _quad_of(obj)
        if isinstance(obj, BehaviorTable) and obj.ternary:
            payload["postSelection"] = _postselection_json(postselected_correlations(obj))
        elif isinstance(obj, ContextualModel) and obj.is_ternary():
            try:
                behavior = behavior_from_model(obj)
            except ValueError as exc:
                # an unflagged setting of a ternary model may hold expectations (a 0 among them), not outcomes
                raise CliError(f"{args.model}: {exc}")
            payload["postSelection"] = _postselection_json(postselected_correlations(behavior))
    else:
        if len(args.values) != 4:
            raise UsageError("need exactly four correlation values (or --model)")
        vals = [_arg_fraction(v, "correlation value") for v in args.values]
        quad = CorrelationQuad(
            ("x", "x'"),
            ("y", "y'"),
            {
                ("x", "y"): vals[0],
                ("x", "y'"): vals[1],
                ("x'", "y"): vals[2],
                ("x'", "y'"): vals[3],
            },
        )
    try:
        report = chsh_values(quad)
    except ValueError as exc:
        raise CliError(str(exc))
    payload.update(_chsh_json(report))
    return payload, 0


def _cmd_fine(args) -> tuple[Any, int]:
    from .fine import check_no_signalling, find_joint, fine_criterion

    obj = _load(args.behavior)
    if not isinstance(obj, BehaviorTable):
        raise CliError(f"expected a behavior file, got kind {_kind_of(obj)!r}")
    if obj.ternary:
        raise CliError("behavior is ternary; reduce it before the joint-distribution test")
    if not obj.is_normalized():
        raise CliError("behavior table is not normalized")
    ns = check_no_signalling(obj)
    payload: dict[str, Any] = {
        "noSignalling": _nosignalling_json(ns),
        "criterion": fine_criterion(obj),
    }
    if not ns.holds:
        payload["feasible"] = False
        payload["reason"] = "signalling behavior: no joint distribution can exist"
        return payload, 0
    result = find_joint(obj)
    payload["feasible"] = result.feasible
    if result.feasible:
        payload["joint"] = _joint_json(result.joint)
    else:
        payload["certificate"] = _combination_json(result.certificate)
    return payload, 0


def _parse_bias(text: str, model: ContextualModel) -> Pmf:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--bias needs four comma-separated probabilities (context order)")
    masses = [_arg_fraction(p.strip(), "--bias probability") for p in parts]
    negative = next((m for m in masses if m < 0), None)
    if negative is not None:
        raise UsageError(f"--bias probability {_cut(negative)} is negative")
    pmf = Pmf(dict(zip(model.contexts(), masses)))
    if not pmf.is_normalized():
        raise UsageError(f"--bias masses sum to {_cut(pmf.total())}, not 1")
    return pmf


def _arg_fraction(text: str, what: str) -> Fraction:
    """A number argument through the bounded token grammar of :func:`as_fraction`."""
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _int_arg(text: str) -> int:
    """An int flag's value; argparse names the flag and quotes a malformed value, cut by ``_excerpt``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}") from None


def _choice(names: tuple[str, ...]):
    """The type of a flag with fixed values; argparse's own check of ``choices`` quotes an invalid value whole."""

    def choice(text: str) -> str:
        if text not in names:
            shown = ", ".join(map(repr, names))
            raise argparse.ArgumentTypeError(f"invalid choice: {_excerpt(text)} (choose from {shown})")
        return text

    return choice


def _check_bound(flag: str, value: int, bound: int) -> None:
    if value > bound:
        raise UsageError(f"{flag} must be at most {bound}, got {_cut(value)}")


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one file: by ``os.path.samefile`` when both exist, else as absolute paths."""
    if os.path.exists(first) and os.path.exists(second):
        return os.path.samefile(first, second)
    return os.path.abspath(first) == os.path.abspath(second)


def _check_seed(seed: int) -> None:
    """Seeds key the Philox streams as one uint64, so they must fit in one."""
    if not 0 <= seed < 2**64:
        raise UsageError(f"--seed must lie in [0, 2**64), got {_cut(seed)}")


def _with_records(sheet, head: str, row, frame: str, tail: str) -> Iterator[str]:
    """A document that ends in the sheet's records, in chunks: ``head``, one chunk per block of rows, ``tail``.

    Record t is ``str(t) + row(a, b, x, y)``, and ``frame`` opens the next
    one; ``head`` opens the first.  Everything after the trial number is
    one of 16 suffixes of :meth:`Spreadsheet.text_blocks`, and the last
    block drops the frame after its last record.  The sheet must hold at
    least one trial.
    """
    from .montecarlo import ROWS_PER_BLOCK

    yield head
    last = (len(sheet) - 1) // ROWS_PER_BLOCK
    for k, text in enumerate(sheet.text_blocks(lambda *key: row(*key) + frame)):
        yield text if k < last else text[: -len(frame)]
    yield tail


def _cmd_simulate(args) -> tuple[Any, int]:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {_cut(args.trials)}")
    _check_bound("--trials", args.trials, MAX_TRIALS)
    _check_seed(args.seed)
    model = _require_contextual(_load(args.model))
    bias = _parse_bias(args.bias, model) if args.bias else None
    # numpy loads here, for this subcommand only, once the model is known good
    from .montecarlo import estimate_correlations, from_contextual, independence_diagnostic, simulate_spreadsheet

    try:
        dag = from_contextual(model, setting_bias=bias)
        sheet = simulate_spreadsheet(dag, args.trials, args.seed, confound=args.confound)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.format == "csv":
        return sheet.csv_chunks(), 0
    estimates = estimate_correlations(sheet)
    diag = independence_diagnostic(sheet)
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "confound": args.confound,
        "aliceSettings": list(sheet.alice_settings),
        "bobSettings": list(sheet.bob_settings),
        "exactQuad": _quad_json(dag.exact_quad),
        "estimates": [
            {
                "alice": a,
                "bob": b,
                "estimate": _num(est.estimate),
                "stderr": _num(est.stderr),
                "count": est.count,
            }
            for (a, b), est in estimates.items()
        ],
        "independence": {
            "statistic": _num(diag.statistic),
            "dof": diag.dof,
            "pValue": _num(diag.p_value),
            "crossStatistic": _num(diag.cross_statistic),
            "crossDof": diag.cross_dof,
            "laggedStatistic": _num(diag.lagged_statistic),
            "laggedDof": diag.lagged_dof,
        },
    }
    # the records are the document's last key, a list of [t, a, b, x, y] lists
    if args.format == "json":
        frame, quote = ",\n    [\n      ", json.dumps
        head = json.dumps(payload, indent=2)[: -len("\n}")] + ',\n  "records": [' + frame[1:]
        row, tail = ",\n      %s,\n      %s,\n      %d,\n      %d\n    ]", "\n  ]\n}\n"
    else:
        frame, quote = "\n  -\n    - ", _text_scalar
        head = _render_text(payload) + "\nrecords:" + frame
        row, tail = "\n    - %s\n    - %s\n    - %d\n    - %d", "\n"
    return _with_records(sheet, head, lambda a, b, x, y: row % (quote(a), quote(b), x, y), frame, tail), 0


def _cmd_search(args) -> tuple[Any, int]:
    from .loophole import SearchConfig, search_postselection_violation
    from .modelio import serialize

    _check_seed(args.seed)
    _check_bound("--source-atoms", args.source_atoms, MAX_SOURCE_ATOMS)
    _check_bound("--instrument-atoms", args.instrument_atoms, MAX_INSTRUMENT_ATOMS)
    _check_bound("--budget", args.budget, MAX_BUDGET)
    if args.out and args.out_model and _same_file(args.out, args.out_model):
        # the artifact would overwrite the model
        raise UsageError(f"--out and --out-model name the same file: {_cut(args.out)}")
    max_det = None if args.max_detection.lower() == "none" else _arg_fraction(args.max_detection, "--max-detection")
    try:
        config = SearchConfig(
            seed=args.seed,
            source_atoms=args.source_atoms,
            instrument_atoms=args.instrument_atoms,
            budget=args.budget,
            min_coincidence=_arg_fraction(args.min_rate, "--min-rate"),
            max_detection=max_det,
            mass_denominator=args.denominator,
            target_stat=_arg_fraction(args.target, "--target") if args.target else None,
        )
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        outcome = search_postselection_violation(config)
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc))
    model_text = serialize(outcome.model)
    if args.out_model:
        # written beside the artifact, so a failed run leaves neither file
        args.files.append((args.out_model, [model_text]))
    payload = {
        "config": {
            "seed": config.seed,
            "budget": config.budget,
            "sourceAtoms": config.source_atoms,
            "instrumentAtoms": config.instrument_atoms,
            "minCoincidence": _num(config.min_coincidence),
            "maxDetection": _num(config.max_detection),
            "denominator": config.mass_denominator,
        },
        "evaluations": outcome.evaluations,
        "score": _num(outcome.score),
        "violating": outcome.violating,
        "postSelection": _postselection_json(outcome.report),
        "detection": _detection_json(outcome.detection),
        "rawQuad": _quad_json(outcome.raw_quad),
        "rawChsh": _chsh_json(outcome.raw_chsh),
        "history": [[it, _num(score)] for it, score in outcome.history],
        "model": json.loads(model_text),
    }
    return payload, 0


def _cmd_demo_counterexample(args) -> tuple[Any, int]:
    from .chsh import chsh_values
    from .fine import find_joint
    from .modelio import serialize

    model = counterexample_model()
    quad = correlation_quad(model)
    report = chsh_values(quad)
    behavior = behavior_from_model(model)
    result = find_joint(behavior)
    payload = {
        "model": json.loads(serialize(model)),
        "quad": _quad_json(quad),
        "chsh": _chsh_json(report),
        "fineFeasible": result.feasible,
        "fineJoint": _joint_json(result.joint),
    }
    return payload, 0


def _cmd_demo_quantum(args) -> tuple[Any, int]:
    from .chsh import chsh_values
    from .loophole import AngleSet, quantum_singlet_behavior
    from .modelio import serialize

    if args.angles:
        parts = args.angles.split(",")
        if len(parts) != 4:
            raise UsageError("--angles needs four comma-separated radians")
        try:
            radians = [float(p) for p in parts]
        except ValueError:
            raise UsageError(f"malformed angle in {_excerpt(args.angles)}")
        for part, value in zip(parts, radians):
            if not math.isfinite(value):
                raise UsageError(f"--angles must be finite, got {_cut(part.strip())}")
        angles = AngleSet(*radians)
    else:
        angles = AngleSet.chsh_optimal()
    behavior = quantum_singlet_behavior(angles)
    report = chsh_values(behavior.quad())
    payload = {
        "angles": [_num(a) for a in (angles.theta_x, angles.theta_xp, angles.theta_y, angles.theta_yp)],
        "behavior": json.loads(serialize(behavior)),
        "chsh": _chsh_json(report),
        "maxAbs": _num(float(report.max_abs)),
        "satisfied": report.satisfied,
    }
    return payload, 0


# ---------------------------------------------------------------- plumbing

def _text_scalar(value: Any) -> str:
    """A key or scalar as the text format writes it.

    A string holding a line break, any that :meth:`str.splitlines` breaks
    on, would start a line of its own, so it is written as its JSON
    string; everything else as ``str`` writes it.
    """
    text = str(value)
    if isinstance(value, str) and "".join(text.splitlines()) != text:
        return json.dumps(text)
    return text


def _render_text(value: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{_text_scalar(k)}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{_text_scalar(k)}: {_text_scalar(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_text_scalar(v)}")
        return "\n".join(lines)
    return f"{pad}{_text_scalar(value)}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhvlab",
        description="Exact verification lab for contextual local hidden-variable Bell models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against every invariant")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("exact", help="exact correlation quad of a model file")
    p.add_argument("model")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("flatten", help="rewrite a contextual model on a single product space")
    p.add_argument("model")
    methods = ("product", "uniform", "average")
    p.add_argument("--method", type=_choice(methods), choices=methods, default="product")
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("chsh", help="all 8 one-sided CHSH combinations of a quad or model")
    p.add_argument("values", nargs="*", help="four correlations as fraction/decimal strings")
    p.add_argument("--model", help="model or behavior file instead of literal values")
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("fine", help="joint-distribution feasibility of a binary behavior")
    p.add_argument("behavior")
    p.set_defaults(func=_cmd_fine)

    p = sub.add_parser("simulate", help="seeded trial-by-trial simulation of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--bias", help="four comma-separated context probabilities")
    p.add_argument("--confound", action="store_true", help="share the settings stream with the source stream")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("search", help="search for a post-selection CHSH violation")
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--budget", type=_int_arg, default=4000)
    p.add_argument("--source-atoms", type=_int_arg, default=10)
    p.add_argument("--instrument-atoms", type=_int_arg, default=1)
    p.add_argument("--min-rate", default="3/10", help="minimum per-context coincidence rate")
    p.add_argument("--max-detection", default="2/3", help="per-setting detection cap, or 'none'")
    p.add_argument("--denominator", type=_int_arg, default=32, help="mass grid denominator (<= 64)")
    p.add_argument("--target", help="stop once post-selected max |S| reaches this value")
    p.add_argument("--out-model", help="also write the winning model file here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("demo-counterexample", help="the die-and-coins model end to end")
    p.set_defaults(func=_cmd_demo_counterexample)

    p = sub.add_parser("demo-quantum", help="singlet behavior and its CHSH report")
    p.add_argument("--angles", help="four comma-separated radians (default: CHSH-optimal)")
    p.set_defaults(func=_cmd_demo_quantum)

    # flatten's artifact is a model file, which is JSON only
    formats = {"simulate": ("json", "csv", "text"), "flatten": ("json",)}
    for name, sp in sub.choices.items():
        sp.add_argument("--out", help="write the artifact to this path instead of stdout")
        names = formats.get(name, ("json", "text"))
        sp.add_argument("--format", type=_choice(names), choices=names, default="json")
    return parser


def _write_files(files: list[tuple[str, Iterable[str]]]) -> Optional[str]:
    """Write each ``(path, chunks)`` in turn; None, or the message of the write that failed.

    A failed run leaves no file, not even a streamed artifact cut short:
    every file this call opened is removed.  A device such as /dev/stdout
    is no artifact and stays.
    """
    opened = []
    try:
        for path, chunks in files:
            fp = open(path, "w")
            opened.append(path)
            with fp:
                fp.writelines(chunks)
    except BaseException as exc:
        for done in opened:
            if os.path.isfile(done):
                os.remove(done)
        if not isinstance(exc, OSError):
            raise
        return f"cannot write {path}: {exc.strerror or exc}"
    return None


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; the exit status.

    Two failures that no subcommand can foresee end here as exit 1 with a
    message naming the input file: running out of memory, and a number
    too long to print.
    """
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # as parse_args words it, each argument cut by _cut
        parser.error("unrecognized arguments: " + " ".join(map(_cut, extra)))
    path = getattr(args, "model", None) or getattr(args, "behavior", None)
    where = f"{path}: " if path else ""
    try:
        return _run(args)
    except MemoryError:
        # the last resort: the MAX_* bounds refuse the sizes they can foresee
        print(f"error: {where}{args.command} ran out of memory", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Python will not print an int past its digit limit, and a product of
        # bounded input numbers can exceed it
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: {where}a number to print exceeds Python's {limit}-digit limit", file=sys.stderr)
        return 1


def _run(args) -> int:
    """Run the parsed subcommand and write its artifact; the exit status.

    A subcommand returns a payload dict, rendered here as JSON or text,
    or an iterable of text chunks, written as they come.  It may also
    add ``(path, chunks)`` files to ``args.files``, written before the
    artifact by the same writer.
    """
    args.files = []
    try:
        payload, status = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not isinstance(payload, dict):
        chunks = payload
    elif args.format == "text":
        chunks = [_render_text(payload) + "\n"]
    else:
        chunks = [json.dumps(payload, indent=2) + "\n"]
    error = _write_files(args.files + ([(args.out, chunks)] if args.out else []))
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.out:
        return status
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head`), which is no error.  Point
        # stdout at the null device so the exit-time flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
