"""Seeded simulation of the causal sampling story behind a contextual model.

Each trial draws a joint setting choice and a hidden-variable bundle
from separate random streams, then evaluates deterministic outcome
functions.  Four domain-separated counter-based streams (settings,
source, Alice's instrument, Bob's instrument) make the independence of
settings and hidden variables structural rather than aspirational: the
streams are distinct Philox keys derived from one user seed.

Floats live here by design; exact expectations stay in the model
modules and are carried along for comparison.  numpy is the package's
only runtime dependency: the chi-squared p-values of
:func:`independence_diagnostic` come from the closed-form tail
:func:`_chi2_sf`, not from a statistics library.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import accumulate, chain, product, repeat
from typing import IO, Callable, Iterator, NamedTuple, Optional

import numpy as np

from .chsh import zero_to_coin
from .flatten import _quantile_model
from .model import (
    Context,
    ContextualModel,
    CorrelationQuad,
    Pmf,
    TwoByTwo,
    correlation_quad,
    validate_model,
)

# stream tags for domain separation; sharing the source tag with the
# settings stream is exactly the confounding defect simulate() can inject
TAG_SETTINGS = np.uint64(0)
TAG_SOURCE = np.uint64(1)
TAG_ALICE = np.uint64(2)
TAG_BOB = np.uint64(3)

# rows converted and written per block by the streaming writers; a JSON block
# of 2**14 rows holds about 2 MB of text and row strings at its peak
ROWS_PER_BLOCK = 1 << 14


def _stream(seed: int, tag: np.uint64) -> np.random.Generator:
    key = np.array([np.uint64(seed), tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _side_uniforms(coord: int, n: int, seed: int) -> np.ndarray:
    """One side's (quantile, auxiliary) uniforms per trial, from that side's own stream."""
    return _stream(seed, (TAG_ALICE, TAG_BOB)[coord]).random((2, n))


class TrialRecord(NamedTuple):
    """One spreadsheet line: settings chosen and outcomes observed."""

    a: str
    b: str
    x: int
    y: int


class Spreadsheet:
    """Column-wise trial data (settings as indices, outcomes as +/-1)."""

    def __init__(
        self,
        alice_settings: tuple[str, str],
        bob_settings: tuple[str, str],
        a_index: np.ndarray,
        b_index: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ):
        self.alice_settings = alice_settings
        self.bob_settings = bob_settings
        self.a_index = a_index
        self.b_index = b_index
        self.x = x
        self.y = y
        self.hidden = hidden

    def __len__(self) -> int:
        return len(self.x)

    def codes(self, part: slice = slice(None)) -> np.ndarray:
        """Each trial of a slice as one ``uint8`` code ``8a + 4b + (x + 1) + (y + 1) / 2``, 0 to 15.

        ``code >> 2`` is the context ``2a + b`` and ``code & 3`` the outcome
        pair ``2x' + y'``, with x' and y' the outcomes read as 0/1.
        """
        a, b, x, y = (column[part] for column in (self.a_index, self.b_index, self.x, self.y))
        return (a * 8 + b * 4 + x + 1 + (y + 1) // 2).astype(np.uint8)

    def text_blocks(self, suffix: Callable[[str, str, int, int], str]) -> Iterator[str]:
        """The rows as text, each ``str(t) + suffix(a, b, x, y)``, one text per block of rows.

        ``suffix`` is called once for each of the 16 codes of :meth:`codes`,
        and each row looks its suffix up by code, so a row costs one integer
        formatting.  A block holds at most ``ROWS_PER_BLOCK`` rows.
        """
        table = [suffix(*key) for key in product(self.alice_settings, self.bob_settings, (-1, 1), (-1, 1))]
        for start in range(0, len(self), ROWS_PER_BLOCK):
            stop = min(start + ROWS_PER_BLOCK, len(self))
            codes = self.codes(slice(start, stop)).tobytes()
            yield "".join(chain.from_iterable(zip(map(str, range(start, stop)), map(table.__getitem__, codes))))

    def record(self, t: int) -> TrialRecord:
        return TrialRecord(
            self.alice_settings[self.a_index[t]],
            self.bob_settings[self.b_index[t]],
            int(self.x[t]),
            int(self.y[t]),
        )

    def tobytes(self) -> bytes:
        """Canonical byte image, for exact reproducibility comparisons."""
        return (
            self.a_index.tobytes()
            + self.b_index.tobytes()
            + self.x.tobytes()
            + self.y.tobytes()
        )

    def csv_chunks(self) -> Iterator[str]:
        """The CSV text of ``csv.writer``, header first, then one chunk per block of rows.

        ``csv.writer`` quotes each field on its own content, so a row is its
        trial number followed by the row ``("", a, b, x, y)`` as the writer
        renders it.
        """
        yield _csv_row("trial", "a", "b", "x", "y")
        yield from self.text_blocks(lambda a, b, x, y: _csv_row("", a, b, x, y))

    def write_csv(self, fp: IO[str]) -> None:
        fp.writelines(self.csv_chunks())


def _csv_row(*fields) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


class DagModel(TwoByTwo):
    """A contextual model compiled for trial-by-trial causal sampling.

    The hidden bundle per trial is (source pair, one quantile uniform and
    one auxiliary uniform per side).  Outcome rule: look up the table
    value e in [-1, +1] selected by the setting, the source coordinate
    and the quantile cell, then return +1 when the auxiliary uniform
    falls below (1 + e) / 2.  For +/-1 table values the auxiliary has no
    effect and the outcome is a deterministic function of the setting
    and the bundle.

    The tables are those of ``flatten._quantile_model``, compiled from its
    integers: the source and cell cumulative masses as ``w / scale`` and
    each threshold e = n/d as ``(n + d) / (2 * d)``, the correctly rounded
    floats of the exact values.  ``exact_quad`` is ``correlation_quad`` of
    that quantile model, the law that is sampled.
    """

    def __init__(self, model: ContextualModel, setting_pmf: Pmf):
        self.model = model
        self.alice_settings = model.alice_settings
        self.bob_settings = model.bob_settings
        self.setting_pmf = setting_pmf
        quantile = _quantile_model(model)
        self.exact_quad: CorrelationQuad = correlation_quad(quantile)

        src_scale, src = quantile.source.integer_weights()
        self._pairs = [pair for pair, _w in src]
        self._source_cum = np.cumsum([w / src_scale for _pair, w in src])

        ctx_labels = list(setting_pmf.labels())
        self._ctx_a = np.array(
            [self.alice_settings.index(ctx[0]) for ctx in ctx_labels], dtype=np.int8
        )
        self._ctx_b = np.array(
            [self.bob_settings.index(ctx[1]) for ctx in ctx_labels], dtype=np.int8
        )
        self._setting_cum = np.cumsum(np.array([float(m) for _l, m in setting_pmf.items()]))

        def compile_side(settings, coord):
            scale, cells = settings[0].instrument.integer_weights()
            labels, widths = zip(*cells)
            breaks = np.array([hi / scale for hi in accumulate(widths)])
            # each value n / scale at (setting, source pair, cell) gives the threshold (1 + n / scale) / 2,
            # one correctly rounded int division
            thresh = [
                [[(n + t.scale) / (2 * t.scale) for n in map(t.numerator, repeat(pair[coord]), labels)]
                 for pair in self._pairs]
                for t in (s.outcomes for s in settings)
            ]
            return breaks, np.array(thresh)

        # (breaks, thresholds) per side, indexed by source coordinate: 0 Alice, 1 Bob;
        # the thresholds are indexed by (setting, source pair, quantile cell)
        self._sides = tuple(compile_side(side, coord) for coord, side in enumerate((quantile.alice, quantile.bob)))

    def _draw_settings(self, n: int, seed: int, tag: np.uint64) -> tuple[np.ndarray, np.ndarray]:
        """Each side's setting index per trial; the uniforms and context indices are freed on return."""
        ctx_idx = np.searchsorted(self._setting_cum, _stream(seed, tag).random(n), side="right")
        np.minimum(ctx_idx, len(self._setting_cum) - 1, out=ctx_idx)
        return self._ctx_a[ctx_idx], self._ctx_b[ctx_idx]

    def _draw_source(self, n: int, seed: int) -> np.ndarray:
        """The source pair index per trial."""
        pair_idx = np.searchsorted(self._source_cum, _stream(seed, TAG_SOURCE).random(n), side="right")
        return np.minimum(pair_idx, len(self._pairs) - 1, out=pair_idx)

    def _evaluate(self, coord: int, s, pair_idx, u, v) -> np.ndarray:
        """One side's outcomes; ``s`` is one setting index for every trial, or an array of them."""
        breaks, thresh = self._sides[coord]
        cells = np.searchsorted(breaks, u, side="right")
        np.minimum(cells, len(breaks) - 1, out=cells)
        th = thresh[s, pair_idx, cells]
        return np.where(v < th, np.int8(1), np.int8(-1))


def from_contextual(model: ContextualModel, setting_bias: Optional[Pmf] = None) -> DagModel:
    """Compile a contextual model into a sampleable causal model.

    Ternary tables are first put through the coin reduction; fractional
    tables are realized through the per-side auxiliary uniform.  The
    compiled model's ``exact_quad`` is ``correlation_quad`` of the quantile
    model that is sampled, equal to the input model's.  ``setting_bias``
    is a pmf over the four (a, b) contexts and defaults to uniform.
    """
    report = validate_model(model)
    if not report.ok:
        raise ValueError("model is not well-formed: " + "; ".join(report.violations))
    tables = [s.outcomes for s in model.alice + model.bob]
    if all(t.first_non_ternary() is None for t in tables) and any(t.has_zero() for t in tables):
        model = zero_to_coin(model)

    contexts = model.contexts()
    if setting_bias is None:
        setting_bias = Pmf.uniform(list(contexts))
    else:
        if set(setting_bias.labels()) != set(contexts):
            raise ValueError(f"setting bias must cover exactly the contexts {contexts}")
        if not setting_bias.is_normalized():
            raise ValueError("setting bias pmf is not normalized")
    return DagModel(model, setting_bias)


def simulate_spreadsheet(
    dag: DagModel,
    n_trials: int,
    seed: int,
    confound: bool = False,
    keep_hidden: bool = False,
) -> Spreadsheet:
    """Run seeded trials; identical arguments give byte-identical output.

    With ``confound=True`` the settings stream deliberately reuses the
    source stream's key, coupling setting choices to the hidden pair -
    the textbook hidden-confounder defect that
    :func:`independence_diagnostic` exists to expose.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    a_idx, b_idx = dag._draw_settings(n_trials, seed, TAG_SOURCE if confound else TAG_SETTINGS)
    return _simulate_outcomes(dag, a_idx, b_idx, seed, keep_hidden)


def simulate_given_settings(
    dag: DagModel, a_index: np.ndarray, b_index: np.ndarray, seed: int
) -> Spreadsheet:
    """Simulate with externally supplied setting streams.

    The hidden streams depend only on the seed, so editing one side's
    setting array cannot move the other side's outcome column; that
    structural-locality property is checkable bit for bit.
    """
    a_idx = np.asarray(a_index, dtype=np.int8)
    b_idx = np.asarray(b_index, dtype=np.int8)
    if a_idx.shape != b_idx.shape or a_idx.ndim != 1:
        raise ValueError("setting arrays must be 1-d and equally long")
    if len(a_idx) < 1:
        raise ValueError("need at least one trial")
    for arr in (a_idx, b_idx):
        if arr.min() < 0 or arr.max() > 1:
            raise ValueError("setting indices must be 0 or 1")
    return _simulate_outcomes(dag, a_idx, b_idx, seed, False)


def _simulate_outcomes(dag, a_idx, b_idx, seed, keep_hidden) -> Spreadsheet:
    n = len(a_idx)
    pair_idx = dag._draw_source(n, seed)
    # one side's uniforms at a time: each is freed once its outcomes are evaluated
    x, y = (
        dag._evaluate(coord, idx, pair_idx, *_side_uniforms(coord, n, seed))
        for coord, idx in enumerate((a_idx, b_idx))
    )
    return Spreadsheet(
        dag.alice_settings,
        dag.bob_settings,
        a_idx.astype(np.int8),
        b_idx.astype(np.int8),
        x,
        y,
        hidden=pair_idx if keep_hidden else None,
    )


@dataclass
class CorrelationEstimate:
    estimate: float
    stderr: Optional[float]
    count: int


def estimate_correlations(data: Spreadsheet) -> dict[Context, CorrelationEstimate]:
    """Per-context product means with standard errors, from a spreadsheet's columns.

    Contexts that never occurred are simply absent from the result; no
    value is invented for them.  The standard error is the sample
    standard deviation of the products over sqrt(count) (None when a
    single trial gives no spread estimate).
    """
    out: dict[Context, CorrelationEstimate] = {}
    prod = (data.x.astype(np.float64)) * (data.y.astype(np.float64))
    for i, a in enumerate(data.alice_settings):
        for j, b in enumerate(data.bob_settings):
            sel = (data.a_index == i) & (data.b_index == j)
            count = int(sel.sum())
            if count == 0:
                continue
            vals = prod[sel]
            est = float(vals.mean())
            stderr = float(vals.std(ddof=1) / np.sqrt(count)) if count > 1 else None
            out[(a, b)] = CorrelationEstimate(est, stderr, count)
    return out


class CouplingSamples:
    """Draws of all four settings' outcomes evaluated on a shared hidden bundle."""

    def __init__(self, x1, x2, y1, y2):
        self.x1, self.x2, self.y1, self.y2 = x1, x2, y1, y2

    def __len__(self) -> int:
        return len(self.x1)

    def combination(self) -> np.ndarray:
        """Per-sample value of X1 Y1 - X2 Y1 - X1 Y2 - X2 Y2 (always +/-2)."""
        x1 = self.x1.astype(np.int16)
        x2 = self.x2.astype(np.int16)
        y1 = self.y1.astype(np.int16)
        y2 = self.y2.astype(np.int16)
        return x1 * y1 - x2 * y1 - x1 * y2 - x2 * y2


def sample_coupling(dag: DagModel, n_trials: int, seed: int) -> CouplingSamples:
    """Evaluate every setting's outcome on each hidden draw.

    Uses the same hidden streams as :func:`simulate_spreadsheet` under
    the same seed; no settings stream is consumed because nothing is
    chosen - all four functions are applied to one bundle.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    pair_idx = dag._draw_source(n_trials, seed)
    return CouplingSamples(
        *(
            dag._evaluate(coord, s, pair_idx, u, v)
            for coord in (0, 1)
            for u, v in [_side_uniforms(coord, n_trials, seed)]
            for s in (0, 1)
        )
    )


def _chi2_sf(stat: float, dof: int) -> float:
    """Upper tail P(X >= stat) of a chi-squared law with integer ``dof`` >= 1.

    The closed form for integer degrees of freedom (Abramowitz & Stegun
    26.4): with y = stat / 2, an even ``dof`` gives the Poisson sum
    e^-y sum_{i < dof/2} y^i / i!, and an odd ``dof`` gives
    erfc(sqrt(y)) + e^-y sum_{1 <= i <= (dof-1)/2} y^(i-1/2) / Gamma(i+1/2).
    Each term is formed in log space, because at large ``dof`` a running
    product underflows to 0 long before the terms that carry the sum
    (at stat = dof = 1600 the tail is 0.4953, not 0).
    """
    if stat <= 0:
        return 1.0
    y = stat / 2
    log_y = math.log(y)
    if dof % 2 == 0:
        terms = [math.exp(i * log_y - y - math.lgamma(i + 1)) for i in range(dof // 2)]
    else:
        terms = [math.erfc(math.sqrt(y))]
        terms += [
            math.exp((i - 0.5) * log_y - y - math.lgamma(i + 0.5))
            for i in range(1, (dof + 1) // 2)
        ]
    return min(1.0, math.fsum(terms))


def _chi2_stat(table: np.ndarray) -> tuple[float, int]:
    """Pearson chi-squared with degenerate rows/columns dropped."""
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    r, c = table.shape
    dof = (r - 1) * (c - 1)
    if dof <= 0:
        return 0.0, 0
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    return stat, dof


@dataclass
class IndependenceReport:
    """Association summary between the settings stream and outcome features.

    ``cross`` tests each side's outcome against the other side's setting
    (within own-setting strata); ``lagged`` tests the current context
    against the previous trial's outcome pair.  Both should look like
    noise for a properly stream-separated simulation; ``statistic``,
    ``dof`` and ``p_value`` are their sum and its tail.  ``hidden`` is the
    direct context-vs-hidden-trace test, present only when a trace was
    logged.
    """

    empty: bool
    statistic: float = 0.0
    dof: int = 0
    p_value: float = 1.0
    cross_statistic: float = 0.0
    cross_dof: int = 0
    lagged_statistic: float = 0.0
    lagged_dof: int = 0
    hidden_statistic: Optional[float] = None
    hidden_dof: Optional[int] = None
    hidden_p: Optional[float] = None


def independence_diagnostic(data: Spreadsheet) -> IndependenceReport:
    """Chi-squared screen for setting/hidden-variable dependence in a spreadsheet.

    A clean run (independent streams) produces a statistic consistent
    with its degrees of freedom; a run whose settings share randomness
    with the hidden variables shows a statistic growing linearly with
    the trial count.  The hidden test runs when the spreadsheet logged
    its hidden trace; an empty spreadsheet gives
    ``IndependenceReport(empty=True)``.
    """
    if len(data) == 0:
        return IndependenceReport(empty=True)

    # every table counts the codes of Spreadsheet.codes: exact integers, held
    # as C-ordered float64 like the tables of the np.add.at oracle in the
    # tests, so each sum in _chi2_stat adds the same floats in the same order
    code = data.codes().astype(np.intp)
    ctx = code >> 2
    counts = np.bincount(code, minlength=16).astype(np.float64).reshape(2, 2, 2, 2)  # a, b, x', y'
    cross_stat, cross_dof = 0.0, 0
    for s in (0, 1):
        # each side's outcome against the other side's setting, within own setting s
        for table in (counts[s].sum(axis=2).T, counts[:, s].sum(axis=1).T):
            if table.any():
                st, df = _chi2_stat(np.ascontiguousarray(table))
                cross_stat += st
                cross_dof += df

    lag_stat, lag_dof = 0.0, 0
    if len(data) >= 2:
        table = np.bincount(ctx[1:] * 4 + (code[:-1] & 3), minlength=16).astype(np.float64).reshape(4, 4)
        lag_stat, lag_dof = _chi2_stat(table)

    stat = cross_stat + lag_stat
    dof = cross_dof + lag_dof
    report = IndependenceReport(
        empty=False,
        statistic=stat,
        dof=dof,
        p_value=_chi2_sf(stat, dof) if dof > 0 else 1.0,
        cross_statistic=cross_stat,
        cross_dof=cross_dof,
        lagged_statistic=lag_stat,
        lagged_dof=lag_dof,
    )
    if data.hidden is not None:
        values, remap = np.unique(np.asarray(data.hidden), return_inverse=True)
        k = len(values)
        table = np.bincount(ctx * k + remap, minlength=4 * k).astype(np.float64).reshape(4, k)
        h_stat, h_dof = _chi2_stat(table)
        report.hidden_statistic = h_stat
        report.hidden_dof = h_dof
        report.hidden_p = _chi2_sf(h_stat, h_dof) if h_dof > 0 else 1.0
    return report
