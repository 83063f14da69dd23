"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
then exposes a pool of units.  ``unit(i)`` runs pool entry ``i`` through
lhvlab's public functions, checks every output exactly, and returns the
number of items it completed plus the count metrics it produced.  A
check that fails raises :class:`Mismatch`.  Spans are recorded around
each call into an lhvlab module; nothing inside ``src/`` is touched.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

from lhvlab import (
    AngleSet,
    CorrelationQuad,
    SearchConfig,
    behavior_from_model,
    bell_average,
    chsh_values,
    correlation_quad,
    counterexample_model,
    detection_rates,
    estimate_correlations,
    find_joint,
    fine_criterion,
    from_contextual,
    independence_diagnostic,
    marginalize_context,
    postselected_correlations,
    product_flatten,
    quantum_singlet_behavior,
    search_postselection_violation,
    simulate_spreadsheet,
    uniform_reduce,
    validate_model,
    zero_to_coin,
)
from lhvlab.corpus import random_contextual_model, random_nosignalling_behavior
from lhvlab.modelio import parse_path, parse_text, serialize

CHILD_TIMEOUT_S = 60.0


class Mismatch(Exception):
    """An output of the program is not exactly what it must be."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def corpus_models(seed: int, n: int):
    """The acceptance corpus generator: alternating ternary and interval models."""
    rng = random.Random(seed)
    for i in range(n):
        yield random_contextual_model(rng, outcome_kind="ternary" if i % 2 == 0 else "interval")


def quad_terms(model) -> int:
    """Sum over contexts of |supp source| * |supp instrument a| * |supp instrument b|."""
    n_src = sum(1 for _ in model.source.support())
    return sum(
        n_src * sum(1 for _ in a.instrument.support()) * sum(1 for _ in b.instrument.support())
        for a in model.alice
        for b in model.bob
    )


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    item = "units"
    # fixed tail percentile; the run reports how many samples lie beyond it
    tail_pct = 99.0
    # units run untimed at the end of every set-up, then again in the timed loop
    warmup_units = 0
    # the run does at least this many units; count metrics are totals over them
    count_window = 1

    # whether the host-speed probe in this process can see the work's speed;
    # it cannot when the work runs in child processes
    host_scaled = True

    def __init__(self, root: Path, seed: int, tracer, tmp: Path):
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp
        # timed steps outside the unit loop, reported beside the metrics
        self.intervals: dict[str, tuple[float, float]] = {}
        # per-layer counts produced outside the unit loop
        self.extra_counts: dict[str, int] = {}
        # per call name, the largest peak RSS of a child process, in MB
        self.child_rss: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """A hash of the generated inputs; equal set-ups must give equal hashes."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def unit(self, index: int) -> tuple[int, dict[str, int]]:
        raise NotImplementedError

    def finish(self) -> dict[int, str]:
        """Checks deferred past the timed loop, as {unit id: failure message}."""
        return {}

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


def product_atoms(model) -> int:
    """Atoms of the product-flatten space: |supp source| times each instrument's support."""
    n = sum(1 for _ in model.source.support())
    for setting in model.alice + model.bob:
        n *= sum(1 for _ in setting.instrument.support())
    return n


def spread_by_size(models: list, size) -> list:
    """The models reordered so that every prefix spans the size ranks evenly.

    Rank r of the size order goes to position i with r = i * stride mod n,
    stride the integer nearest n / golden ratio that is coprime to n, so
    a run that stops early still sees the corpus's mix of small and large
    models rather than whichever ones the generator happened to put first.
    """
    n = len(models)
    ranked = sorted(range(n), key=lambda i: (size(models[i]), i))
    stride = round(n / 1.618033988749895)
    while gcd(stride, n) != 1:
        stride += 1
    return [models[ranked[(i * stride) % n]] for i in range(n)]


class ExactCorpus(Workload):
    name = "exact_corpus"
    item = "models"
    tail_pct = 95.0
    warmup_units = 8
    count_window = 300
    corpus_size = 5000
    pool_size = 2000

    def setup(self) -> None:
        models = spread_by_size(list(corpus_models(self.seed, self.corpus_size)), product_atoms)
        self.texts = [serialize(m) for m in models[: self.pool_size]]

    def fingerprint(self) -> str:
        return hashlib.sha256("\0".join(self.texts).encode()).hexdigest()

    def __len__(self) -> int:
        return len(self.texts)

    def unit(self, index):
        span = self.tracer.span
        text = self.texts[index]
        with span("modelio.parse_s"):
            model = parse_text(text)
        with span("model.validate_s"):
            report = validate_model(model)
        expect(report.ok, f"corpus model {index} fails validation: {report.violations[:1]}")
        with span("model.quad_s"):
            quad = correlation_quad(model)
        with span("chsh.values_s"):
            chsh = chsh_values(quad)
        expect(chsh.satisfied, f"corpus model {index}: an exact LHV quad breaks CHSH")
        expect(isinstance(chsh.max_abs, Fraction), f"corpus model {index}: max |S| is not exact")
        with span("flatten.product_build_s"):
            product = product_flatten(model)
        with span("flatten.product_quad_s"):
            expect(product.quad().values == quad.values, f"corpus model {index}: product_flatten moved the quad")
        with span("flatten.uniform_build_s"):
            uniform = uniform_reduce(model)
        with span("flatten.uniform_quad_s"):
            expect(uniform.quad().values == quad.values, f"corpus model {index}: uniform_reduce moved the quad")
        with span("flatten.average_s"):
            averaged = bell_average(model)
            averaged_quad = averaged.quad()
        expect(averaged_quad.values == quad.values, f"corpus model {index}: bell_average moved the quad")
        for bars in (averaged.alice_bar, averaged.bob_bar):
            for per_setting in bars.values():
                expect(all(abs(v) <= 1 for v in per_setting.values()), f"corpus model {index}: a bar leaves [-1, 1]")
        return 1, {
            "modelio.parse_bytes": len(text.encode()),
            "model.quad_terms": quad_terms(model),
            "flatten.product_atoms": len(product.lambda_pmf),
            "flatten.uniform_atoms": len(uniform.lambda_pmf),
        }


class FineLp(Workload):
    name = "fine_lp"
    item = "behaviors"
    tail_pct = 95.0
    warmup_units = 8
    coin_reduced = 150
    nosignalling = 150

    @property
    def count_window(self) -> int:
        return self.coin_reduced + self.nosignalling

    def setup(self) -> None:
        # the ternary half of the corpus, coin-reduced, interleaved with
        # no-signalling tables alternating generic and near-quantum
        ternary = [m for i, m in enumerate(corpus_models(self.seed, 2 * self.coin_reduced)) if i % 2 == 0]
        coin = [behavior_from_model(zero_to_coin(m)) for m in ternary]
        rng = random.Random(self.seed + 1)
        ns = [
            random_nosignalling_behavior(rng, mode="generic" if i % 2 == 0 else "near_quantum")
            for i in range(self.nosignalling)
        ]
        self.behaviors = [b for pair in zip(coin, ns) for b in pair]

    def fingerprint(self) -> str:
        return hashlib.sha256("\0".join(serialize(b) for b in self.behaviors).encode()).hexdigest()

    def __len__(self) -> int:
        return len(self.behaviors)

    def unit(self, index):
        span = self.tracer.span
        behavior = self.behaviors[index]
        with span("fine.criterion_s"):
            expected = fine_criterion(behavior)
        with span("fine.find_joint_s"):
            result = find_joint(behavior)
        expect(result.feasible == expected, f"behavior {index}: LP verdict {result.feasible} != Fine criterion {expected}")
        with span("fine.check_s"):
            if result.feasible:
                for ctx in behavior.contexts():
                    want = {(x, y): behavior.prob(ctx, x, y) for x in (-1, 1) for y in (-1, 1)}
                    expect(marginalize_context(result.joint, ctx) == want,
                           f"behavior {index}: witness joint misses context {ctx}")
            else:
                expect(result.certificate is not None and abs(result.certificate.value) > 2,
                       f"behavior {index}: infeasible without a CHSH certificate above 2")
        return 1, {"fine.feasible": int(result.feasible), "fine.infeasible": int(not result.feasible)}


class Search(Workload):
    name = "search"
    item = "evaluations"
    tail_pct = 90.0
    warmup_units = 0
    count_window = 10
    pool_size = 200
    budget = 400

    def setup(self) -> None:
        recorded = json.loads((self.root / "fixtures" / "loophole_winner.search.json").read_text())
        cfg = recorded["config"]
        self.fixture = SearchConfig(
            seed=cfg["seed"],
            budget=cfg["budget"],
            source_atoms=cfg["sourceAtoms"],
            instrument_atoms=cfg["instrumentAtoms"],
            min_coincidence=Fraction(cfg["minCoincidence"]),
            max_detection=Fraction(cfg["maxDetection"]) if cfg["maxDetection"] else None,
            mass_denominator=cfg["denominator"],
        )
        self.fixture_text = (self.root / "fixtures" / "loophole_winner.model.json").read_text()
        self.fixture_score = Fraction(recorded["score"])
        self.fixture_improvements = len(recorded["history"])
        # seeded searches with two instrument atoms, so the instrument-mass move runs
        self.configs = [
            SearchConfig(seed=self.seed * self.pool_size + k, budget=self.budget, instrument_atoms=2)
            for k in range(self.pool_size)
        ]
        # warm-up: the fixture search cut at its first recorded improvement,
        # so it is known to find a feasible candidate
        first_feasible = recorded["history"][0][0]
        search_postselection_violation(replace(self.fixture, budget=first_feasible))

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self.configs).encode() + self.fixture_text.encode()).hexdigest()

    def __len__(self) -> int:
        return len(self.configs)

    def unit(self, index):
        out, _ = self._search(self.configs[index])
        return out.evaluations, {
            "loophole.evaluations": out.evaluations,
            "loophole.improvements": len(out.history),
        }

    def _search(self, cfg: SearchConfig, span_name: str = "loophole.search_s"):
        span = self.tracer.span
        with span(span_name):
            out = search_postselection_violation(cfg)
        expect(out.evaluations == cfg.budget, f"search {cfg.seed}: {out.evaluations} evaluations, budget {cfg.budget}")
        with span("loophole.verify_s"):
            text = self._verify(cfg, out)
        return out, text

    def finish(self) -> dict[int, str]:
        """The committed fixture search, once per run: too long for a timed unit
        on a host whose speed drifts within seconds, so it is timed on its own."""
        start = perf_counter()
        try:
            out, text = self._search(self.fixture, "loophole.fixture_s")
            expect(text == self.fixture_text, "fixture search winner is not byte-identical to the committed model")
            expect(out.score == self.fixture_score, f"fixture search score {out.score} != {self.fixture_score}")
            expect(len(out.history) == self.fixture_improvements,
                   f"fixture search made {len(out.history)} improvements, recorded {self.fixture_improvements}")
        except (Mismatch, RuntimeError, ValueError) as exc:
            return {-1: f"fixture search: {type(exc).__name__}: {exc}"}
        finally:
            self.intervals["fixture search"] = (start, perf_counter())
        return {}

    def _verify(self, cfg: SearchConfig, out) -> str:
        """Exact re-check of the winner from its serialized text alone."""
        span = self.tracer.span
        with span("modelio.serialize_s"):
            text = serialize(out.model)
        with span("modelio.parse_s"):
            model = parse_text(text)
        with span("model.validate_s"):
            expect(validate_model(model).ok, f"search {cfg.seed}: winner fails validation")
        with span("model.behavior_s"):
            behavior = behavior_from_model(model)
        with span("chsh.postselect_s"):
            ps = postselected_correlations(behavior)
        with span("chsh.values_s"):
            score = chsh_values(ps.conditional_quad()).max_abs
        expect(score == out.score, f"search {cfg.seed}: re-verified score {score} != reported {out.score}")
        expect(all(r >= cfg.min_coincidence for r in ps.coincidence_rate.values()),
               f"search {cfg.seed}: a coincidence rate is below the minimum")
        with span("loophole.detection_s"):
            det = detection_rates(model)
        if cfg.max_detection is not None:
            expect(all(r < cfg.max_detection for r in list(det.alice.values()) + list(det.bob.values())),
                   f"search {cfg.seed}: a detection rate reaches the cap")
        with span("chsh.zero_to_coin_s"):
            raw = zero_to_coin(model)
        with span("model.quad_s"):
            raw_quad = correlation_quad(raw)
        expect(raw_quad.values == out.raw_quad.values, f"search {cfg.seed}: raw quad differs on re-check")
        expect(chsh_values(raw_quad).satisfied, f"search {cfg.seed}: raw coin-reduced quad breaks CHSH")
        return text


def run_child(argv: list[str], stdout_path: Path, cwd: Path, env: dict) -> tuple[int, float, bytes]:
    """Run one child to completion; (exit code, peak RSS in MB, stderr)."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=cwd, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    err_path.unlink()
    return proc.returncode, usage.ru_maxrss / 1024.0, stderr


def _quad_of(items) -> dict:
    return {(q["alice"], q["bob"]): Fraction(q["value"]) for q in items}


def _combinations_of(doc) -> list:
    return sorted((c["flippedAlice"], c["flippedBob"], c["sign"], Fraction(c["value"])) for c in doc["combinations"])


def _combinations(report) -> list:
    return sorted((c.flipped[0], c.flipped[1], c.sign, Fraction(c.value)) for c in report.combinations)


class Cli(Workload):
    name = "cli"
    item = "invocations"
    # with a dozen or so units a run, p95 is the slowest invocation
    tail_pct = 95.0
    host_scaled = False
    warmup_units = 0
    trials = 200_000
    search_budget = 400
    interpreter_repeats = 5
    import_repeats = 3

    @property
    def count_window(self) -> int:
        return len(self.invocations)

    def setup(self) -> None:
        import jsonschema

        fixtures = self.root / "fixtures"
        self.winner_path = fixtures / "loophole_winner.model.json"
        self.counterexample_path = fixtures / "counterexample.model.json"
        self.behavior_path = fixtures / "quantum_chsh_optimal.behavior.json"
        self.child_seed = self.seed % 2**32
        winner, cx, beh = str(self.winner_path), str(self.counterexample_path), str(self.behavior_path)
        simulate = ["simulate", "--model", cx, "--trials", str(self.trials), "--seed", str(self.child_seed)]
        # simulate first, so that every run, however short, contains both formats
        self.invocations = [
            ("simulate_json", simulate),
            ("simulate_csv", simulate + ["--format", "csv"]),
            ("validate", ["validate", winner]),
            ("exact", ["exact", winner]),
            ("flatten_product", ["flatten", winner, "--method", "product"]),
            ("flatten_uniform", ["flatten", winner, "--method", "uniform"]),
            ("flatten_average", ["flatten", winner, "--method", "average"]),
            ("chsh_values", ["chsh", "1", "0", "0", "-1"]),
            ("chsh_model", ["chsh", "--model", winner]),
            ("fine", ["fine", beh]),
            ("demo_counterexample", ["demo-counterexample"]),
            ("demo_quantum", ["demo-quantum"]),
            ("search", ["search", "--seed", str(self.child_seed), "--budget", str(self.search_budget)]),
        ]
        schemas = self.root / "schemas"
        self.validators = {
            p.name[: -len(".schema.json")]: jsonschema.Draft202012Validator(json.loads(p.read_text()))
            for p in schemas.glob("*.schema.json")
        }
        # lhvlab is not installed: children import it from the checkout's src/
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.calls = 0
        self.pending: list[tuple[int, str, Path]] = []
        self.child_rss = {}
        # warm-up: one untimed call that imports every module, filling bytecode caches
        status, _, stderr = run_child(self._argv(["chsh", "1", "0", "0", "-1"]), self.tmp / "warmup.out", self.tmp, self.env)
        expect(status == 0, f"warm-up call exited {status}: {stderr[-300:]!r}")

    def _argv(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "lhvlab.cli", *args]

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self.invocations).encode()).hexdigest()

    def __len__(self) -> int:
        return len(self.invocations)

    def unit(self, index):
        name, args = self.invocations[index]
        call = self.calls  # equals the run's unit id: set-up resets it and runs no units
        self.calls += 1
        out_path = self.tmp / f"call-{call}.out"
        with self.tracer.span(f"cli.{name}_s"):
            status, rss, stderr = run_child(self._argv(args), out_path, self.tmp, self.env)
        self.child_rss[name] = max(rss, self.child_rss.get(name, 0.0))
        size = out_path.stat().st_size
        if status != 0:
            out_path.unlink()
            raise Mismatch(f"{name} exited {status}: {stderr[-300:]!r}")
        self.pending.append((call, name, out_path))
        return 1, {f"cli.{name}_bytes": size}

    def peak_rss_mb(self) -> float:
        return max(self.child_rss.values())

    def finish(self) -> dict[int, str]:
        failures: dict[int, str] = {}
        if self.tracer.enabled:
            self._trace_startup()
        oracle = self._oracle()
        for call, name, path in self.pending:
            data = path.read_bytes()
            path.unlink()
            try:
                self._check(name, data, oracle)
            except (Mismatch, ValueError, KeyError, TypeError) as exc:
                failures[call] = f"{name}: {type(exc).__name__}: {exc}"
        return failures

    def _trace_startup(self) -> None:
        """Child start-up split: bare interpreter, then importing lhvlab."""
        for label, code, repeats in (("cli.interpreter_s", "pass", self.interpreter_repeats),
                                     ("cli.import_s", "import lhvlab", self.import_repeats)):
            for _ in range(repeats):
                with self.tracer.span(label):
                    status, _, stderr = run_child([sys.executable, "-c", code], self.tmp / "startup.out", self.tmp, self.env)
                expect(status == 0, f"{code!r} exited {status}: {stderr[-300:]!r}")

    def _oracle(self) -> dict:
        """Expected results from in-process library calls on the same inputs.

        The simulate part replays simulate's public calls, spanned under
        the montecarlo layer, and is what the traced run reports for it.
        """
        span = self.tracer.span
        with span("modelio.parse_s"):
            model = parse_path(self.counterexample_path)
        with span("model.validate_s"):
            expect(validate_model(model).ok, "counterexample fixture fails validation")
        with span("montecarlo.compile_s"):
            dag = from_contextual(model)
        with span("montecarlo.simulate_s"):
            sheet = simulate_spreadsheet(dag, self.trials, self.child_seed, keep_hidden=True)
        with span("montecarlo.estimate_s"):
            estimates = estimate_correlations(sheet)
        with span("montecarlo.diagnostic_s"):
            diag = independence_diagnostic(sheet)
        records = [
            [t, sheet.alice_settings[a], sheet.bob_settings[b], int(x), int(y)]
            for t, (a, b, x, y) in enumerate(zip(sheet.a_index.tolist(), sheet.b_index.tolist(),
                                                  sheet.x.tolist(), sheet.y.tolist()))
        ]
        with span("montecarlo.json_dumps_s"):
            records_json = json.dumps(records)
        buf = io.StringIO()
        with span("montecarlo.write_csv_s"):
            sheet.write_csv(buf)
        csv_bytes = buf.getvalue().encode()
        self.extra_counts = {"montecarlo.trials": len(sheet), "montecarlo.csv_bytes": len(csv_bytes)}
        winner = parse_path(self.winner_path)
        behavior = parse_path(self.behavior_path)
        quantum = quantum_singlet_behavior(AngleSet.chsh_optimal())
        cx = counterexample_model()
        cx_behavior = behavior_from_model(cx)
        search = search_postselection_violation(SearchConfig(seed=self.child_seed, budget=self.search_budget))
        literal = CorrelationQuad(("x", "x'"), ("y", "y'"), {
            ("x", "y"): Fraction(1), ("x", "y'"): Fraction(0),
            ("x'", "y"): Fraction(0), ("x'", "y'"): Fraction(-1),
        })
        return {
            "model_quad": correlation_quad(model).values,
            "estimates": estimates,
            "diag": diag,
            "records_sha": hashlib.sha256(records_json.encode()).hexdigest(),
            "csv_sha": hashlib.sha256(csv_bytes).hexdigest(),
            "csv_bytes": len(csv_bytes),
            "winner_quad": correlation_quad(winner).values,
            "winner_chsh": _combinations(chsh_values(correlation_quad(winner))),
            "winner_post": postselected_correlations(behavior_from_model(winner)).conditional,
            "literal_chsh": _combinations(chsh_values(literal)),
            "fine_criterion": fine_criterion(behavior),
            "fine_joint": find_joint(behavior),
            "cx_doc": json.loads(serialize(cx)),
            "cx_quad": correlation_quad(cx).values,
            "cx_feasible": find_joint(cx_behavior).feasible,
            "quantum_doc": json.loads(serialize(quantum)),
            "quantum_max": float(chsh_values(quantum.quad()).max_abs),
            "search_doc": json.loads(serialize(search.model)),
            "search_score": search.score,
        }

    def _check(self, name: str, data: bytes, oracle: dict) -> None:
        if name == "simulate_csv":
            expect(hashlib.sha256(data).hexdigest() == oracle["csv_sha"], "CSV differs from the in-process spreadsheet")
            return
        doc = json.loads(data)
        schema = {"simulate_json": "simulate", "chsh_values": "chsh", "chsh_model": "chsh",
                  "demo_counterexample": "demo-counterexample", "demo_quantum": "demo-quantum",
                  "flatten_product": "model", "flatten_uniform": "model", "flatten_average": "model"}.get(name, name)
        errors = sorted(self.validators[schema].iter_errors(doc), key=str)
        expect(not errors, f"output breaks {schema}.schema.json: {errors[0].message if errors else ''}")
        if name.startswith("flatten_"):
            flat = parse_text(data.decode())
            expect(flat.quad().values == oracle["winner_quad"], f"{name} output has another quad")
        elif name == "simulate_json":
            expect(doc["trials"] == self.trials and doc["seed"] == self.child_seed, "simulate echoes another config")
            expect(_quad_of(doc["exactQuad"]) == oracle["model_quad"], "simulate exact quad differs")
            records_sha = hashlib.sha256(json.dumps(doc["records"]).encode()).hexdigest()
            expect(records_sha == oracle["records_sha"], "simulate records differ from the in-process spreadsheet")
            got = {(e["alice"], e["bob"]): (float(e["estimate"]), e["count"]) for e in doc["estimates"]}
            want = {ctx: (e.estimate, e.count) for ctx, e in oracle["estimates"].items()}
            expect(got == want, "simulate estimates differ from the in-process estimates")
            ind, diag = doc["independence"], oracle["diag"]
            expect((float(ind["statistic"]), float(ind["pValue"]), ind["dof"]) == (diag.statistic, diag.p_value, diag.dof),
                   "simulate independence diagnostic differs")
        elif name == "validate":
            expect(doc == {"valid": True, "violations": []}, f"validate reports {doc}")
        elif name == "exact":
            expect(_quad_of(doc["quad"]) == oracle["winner_quad"], "exact quad differs")
        elif name == "chsh_values":
            expect(_combinations_of(doc) == oracle["literal_chsh"], "chsh combinations differ")
        elif name == "chsh_model":
            expect(_combinations_of(doc) == oracle["winner_chsh"], "chsh --model combinations differ")
            expect(_quad_of(doc["postSelection"]["conditional"]) == oracle["winner_post"], "post-selected quad differs")
        elif name == "fine":
            joint = oracle["fine_joint"]
            expect(doc["criterion"] == oracle["fine_criterion"] == doc["feasible"] == joint.feasible,
                   "fine verdicts disagree")
            if not joint.feasible:
                expect(Fraction(doc["certificate"]["value"]) == joint.certificate.value, "fine certificate differs")
        elif name == "demo_counterexample":
            expect(doc["model"] == oracle["cx_doc"], "demo-counterexample model differs")
            expect(_quad_of(doc["quad"]) == oracle["cx_quad"], "demo-counterexample quad differs")
            expect(doc["fineFeasible"] is oracle["cx_feasible"] is True, "demo-counterexample is not feasible")
        elif name == "demo_quantum":
            expect(doc["behavior"] == oracle["quantum_doc"], "demo-quantum behavior differs")
            expect(float(doc["maxAbs"]) == oracle["quantum_max"] and doc["satisfied"] is False, "demo-quantum max |S| differs")
        elif name == "search":
            expect(doc["model"] == oracle["search_doc"], "search winner differs from the in-process search")
            expect(Fraction(doc["score"]) == oracle["search_score"], "search score differs")
            expect(doc["evaluations"] == self.search_budget, "search spent another budget")
        else:
            raise Mismatch(f"no check for {name}")


WORKLOADS = {w.name: w for w in (ExactCorpus, FineLp, Search, Cli)}
