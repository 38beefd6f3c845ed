"""Ensemble solving: cut-distribution fits and adaptive restart policies.

The paper's protocol (Sec. 4) spends a *fixed* restart budget — FM100,
PROP20 — chosen once, offline.  But the per-run cut distributions the
protocol samples are themselves informative: following Schreiber &
Martin's observation that bisection heuristics produce analyzable
(Weibull-type) minima distributions, the cuts seen so far predict how
much a further restart is worth.  This module turns that prediction into
a stopping rule:

* :func:`empirical_cdf` / :class:`EmpiricalCDF` — the raw sample law of
  a run population;
* :func:`fit_weibull_tail` — a three-parameter Weibull fit of the lower
  tail, whose location parameter estimates the best *achievable* cut
  (with :meth:`WeibullTailFit.confidence_band` bracketing it);
* :func:`probability_of_improvement` — P(one more restart beats the
  incumbent), the rank-statistics bound refined by the tail fit;
* :class:`RestartPolicy` — stop when ``P(improve) x remaining-budget``
  drops below a threshold; plugs into :func:`repro.multirun.run_many`
  (``policy=``) and the engine's streaming ``stop_check`` hook;
* :func:`ensemble_solve` — the budgeted best-of-N driver built on both,
  reporting runs used/saved and the tail fit alongside the result.

Determinism contract: every decision is a pure function of the cut
prefix in seed order (wall-clock enters only through the optional
``max_seconds`` budget, documented best-effort).  Same instance + budget
+ seed => identical stop decision and identical incumbent, in-process or
pooled, fresh or resumed — enforced by ``tests/analysis/test_ensembles``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Engine
    from ..hypergraph import Hypergraph
    from ..multirun import MultiRunResult, Partitioner
    from ..partition import BalanceConstraint
    from ..telemetry import Recorder

#: Minimum sample size for a meaningful tail fit (three parameters plus
#: slack; below this the fit is refused rather than over-trusted).
MIN_FIT_SAMPLES = 5

#: Candidate location-parameter grid resolution for the tail fit.
_THETA_GRID = 24

#: Reasons a :class:`RestartPolicy` may stop a batch.
STOP_REASONS = (
    "target_reached",
    "budget_exhausted",
    "time_exhausted",
    "converged",
)


# ----------------------------------------------------------------------
# Empirical distribution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EmpiricalCDF:
    """The sample distribution function of a cut population.

    ``cdf(x)`` is the fraction of observed runs with cut <= ``x``;
    ``quantile(q)`` inverts it (lower empirical quantile).  Values are
    stored sorted, so both are O(log n) lookups.
    """

    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("empirical CDF needs at least one observation")

    def __call__(self, x: float) -> float:
        """P(cut <= x) under the empirical law."""
        return bisect_right(self.values, x) / len(self.values)

    def quantile(self, q: float) -> float:
        """Smallest observed value with at least mass ``q`` below it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        n = len(self.values)
        idx = min(n - 1, max(0, math.ceil(q * n) - 1))
        return self.values[idx]

    @property
    def resolution(self) -> float:
        """Smallest positive gap between distinct observations.

        The natural unit of "strictly better than the incumbent" for
        integral-weight cut values; ``1.0`` when all observations tie
        (no gap information).
        """
        gaps = [
            b - a
            for a, b in zip(self.values, self.values[1:])
            if b > a
        ]
        return min(gaps) if gaps else 1.0


def empirical_cdf(cuts: Sequence[float]) -> EmpiricalCDF:
    """Build the :class:`EmpiricalCDF` of a run population."""
    return EmpiricalCDF(values=tuple(sorted(cuts)))


# ----------------------------------------------------------------------
# Extreme-value tail fit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WeibullTailFit:
    """Three-parameter Weibull fit of a cut population's lower tail.

    Models ``P(cut <= x) = 1 - exp(-((x - location) / scale)^shape)``
    for ``x >= location`` — the limiting law for minima of bounded-below
    distributions (Fisher–Tippett–Gnedenko), which is why it appears in
    cut-size statistics of bisection heuristics.  ``location`` is the
    fit's estimate of the best *achievable* cut: the distribution
    assigns zero mass below it.
    """

    location: float
    scale: float
    shape: float
    r_squared: float
    sample_size: int

    def cdf(self, x: float) -> float:
        """P(cut <= x) under the fitted law (0 below ``location``)."""
        if x <= self.location:
            return 0.0
        z = (x - self.location) / self.scale
        return 1.0 - math.exp(-(z ** self.shape))

    def confidence_band(self, incumbent: float) -> Tuple[float, float]:
        """Bracket on the best-achievable cut: ``(location, incumbent)``.

        The fitted location can only underestimate what is reachable
        (mass is assigned arbitrarily close to it), while the incumbent
        is an upper bound by construction.
        """
        return (self.location, min(incumbent, self.location + self.scale))


def _linear_fit(
    xs: Sequence[float], ys: Sequence[float]
) -> Optional[Tuple[float, float, float]]:
    """Least-squares ``y = a + b*x``; returns ``(a, b, r_squared)``."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return None
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    b = sxy / sxx
    a = mean_y - b * mean_x
    if syy == 0:
        return None
    residual = sum(
        (y - (a + b * x)) ** 2 for x, y in zip(xs, ys)
    )
    r_squared = max(0.0, 1.0 - residual / syy)
    return a, b, r_squared


def fit_weibull_tail(cuts: Sequence[float]) -> Optional[WeibullTailFit]:
    """Fit a three-parameter Weibull to a cut population's lower tail.

    Deterministic pure-Python estimation: the location parameter is
    chosen from a fixed grid below the observed minimum (maximizing
    linearity of the Weibull plot), then shape and scale come from
    least-squares regression of ``log(-log(1 - F))`` on
    ``log(x - location)`` with median-rank plotting positions
    ``F_i = (i - 0.3) / (n + 0.4)``.

    Returns ``None`` for populations the fit cannot support: fewer than
    :data:`MIN_FIT_SAMPLES` observations, all observations equal, or a
    degenerate regression.  Callers fall back to rank statistics.
    """
    ordered = sorted(float(c) for c in cuts)
    n = len(ordered)
    if n < MIN_FIT_SAMPLES:
        return None
    best, worst = ordered[0], ordered[-1]
    spread = worst - best
    if spread <= 0 or not math.isfinite(spread):
        return None
    # Median-rank plotting positions for the order statistics.
    ys = [
        math.log(-math.log(1.0 - (i - 0.3) / (n + 0.4)))
        for i in range(1, n + 1)
    ]
    best_fit: Optional[WeibullTailFit] = None
    for j in range(1, _THETA_GRID + 1):
        theta = best - spread * j / _THETA_GRID
        xs = [math.log(c - theta) for c in ordered]
        fitted = _linear_fit(xs, ys)
        if fitted is None:
            continue
        a, b, r_squared = fitted
        if b <= 0:  # shape must be positive for a valid Weibull
            continue
        if best_fit is None or r_squared > best_fit.r_squared:
            best_fit = WeibullTailFit(
                location=theta,
                scale=math.exp(-a / b),
                shape=b,
                r_squared=r_squared,
                sample_size=n,
            )
    return best_fit


# ----------------------------------------------------------------------
# Probability of improvement
# ----------------------------------------------------------------------
def probability_of_improvement(
    cuts: Sequence[float],
    fit: Optional[WeibullTailFit] = None,
) -> float:
    """P(one more independent restart strictly beats the incumbent).

    The distribution-free bound is the rank statistic ``1 / (n + 1)``:
    for exchangeable continuous draws, a new sample is the strict
    minimum of ``n + 1`` with exactly that probability.  When a tail fit
    is available (passed in, or fitted here), the estimate is refined
    with the fitted mass strictly below the incumbent — heuristics whose
    runs concentrate near their best (PROP) get a sharply smaller
    probability than the rank bound, which is what lets the stopping
    rule fire early for them.  Without a fit, ties pull the estimate
    below the rank bound (a tied "new minimum" is not an improvement).

    Returns 1.0 for an empty population (the first run always improves).
    """
    n = len(cuts)
    if n == 0:
        return 1.0
    incumbent = min(cuts)
    p_rank = 1.0 / (n + 1)
    if fit is None:
        fit = fit_weibull_tail(cuts)
    if fit is None:
        # Concentration-aware fallback: scale the rank bound by the
        # fraction of runs that even cleared the incumbent.  An all-tie
        # population (every run found the same cut) yields the square of
        # the rank bound — improvement is doubly unlikely.
        above = sum(1 for c in cuts if c > incumbent)
        return p_rank * (above + 1) / (n + 1)
    resolution = empirical_cdf(cuts).resolution
    p_tail = fit.cdf(incumbent - resolution)
    return min(p_rank, p_tail)


# ----------------------------------------------------------------------
# Restart policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StopDecision:
    """One :meth:`RestartPolicy.decide` verdict.

    ``expected_better_runs`` is ``P(improve) x remaining budget`` — the
    expected number of strictly-improving runs left in the budget, the
    quantity the convergence test thresholds.
    """

    stop: bool
    reason: str  # one of STOP_REASONS, or "continue"
    p_beat: float
    expected_better_runs: float


@dataclass(frozen=True)
class RestartPolicy:
    """Adaptive stopping rule for best-of-N restart batches.

    Decision order (first match wins):

    1. ``target_reached`` — the incumbent meets an explicit ``target``;
    2. ``budget_exhausted`` — ``budget`` runs have completed;
    3. ``time_exhausted`` — ``max_seconds`` of run time spent
       (best-effort: wall clock is not part of the determinism
       contract, leave it ``None`` for bit-reproducible stops);
    4. continue unconditionally below ``min_runs`` (the tail fit needs
       a sample to stand on);
    5. ``converged`` — ``P(improve) x remaining budget < threshold``:
       the budget no longer contains even ``threshold`` expected
       improving runs.

    With ``threshold <= 0`` the policy never converges early and
    reproduces the paper's fixed-budget protocol exactly.  Decisions are
    pure functions of the cut prefix (plus elapsed seconds for rule 3),
    which is what makes engine-parallel ensembles bit-deterministic.
    """

    budget: int
    threshold: float = 0.5
    min_runs: int = 4
    target: Optional[float] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.min_runs < 1:
            raise ValueError(f"min_runs must be >= 1, got {self.min_runs}")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError(
                f"max_seconds must be > 0, got {self.max_seconds}"
            )

    def decide(
        self, cuts: Sequence[float], elapsed_seconds: float = 0.0
    ) -> StopDecision:
        """Stop or continue, given the cuts completed so far (seed order)."""
        n = len(cuts)
        if n == 0:
            return StopDecision(
                stop=False, reason="continue", p_beat=1.0,
                expected_better_runs=float(self.budget),
            )
        p_beat = probability_of_improvement(cuts)
        remaining = max(0, self.budget - n)
        expected = p_beat * remaining
        if self.target is not None and min(cuts) <= self.target:
            return StopDecision(True, "target_reached", p_beat, expected)
        if n >= self.budget:
            return StopDecision(True, "budget_exhausted", p_beat, expected)
        if (
            self.max_seconds is not None
            and elapsed_seconds >= self.max_seconds
        ):
            return StopDecision(True, "time_exhausted", p_beat, expected)
        if n < self.min_runs:
            return StopDecision(False, "continue", p_beat, expected)
        if expected < self.threshold:
            return StopDecision(True, "converged", p_beat, expected)
        return StopDecision(False, "continue", p_beat, expected)


# ----------------------------------------------------------------------
# Ensemble driver
# ----------------------------------------------------------------------
@dataclass
class EnsembleResult:
    """Outcome of one :func:`ensemble_solve` batch."""

    outcome: "MultiRunResult"
    decision: StopDecision
    budget: int
    fit: Optional[WeibullTailFit] = None

    @property
    def best_cut(self) -> float:
        """The incumbent cut."""
        return self.outcome.best_cut

    @property
    def stop_reason(self) -> str:
        """Why the batch ended (``"interrupted"`` on a signal drain)."""
        if self.outcome.stop_reason is not None:
            return self.outcome.stop_reason
        return "interrupted" if self.outcome.interrupted else "incomplete"

    @property
    def runs_used(self) -> int:
        """Runs actually attempted (successes + collected failures)."""
        return self.outcome.completed_attempts

    @property
    def runs_saved(self) -> int:
        """Budgeted runs the stopping rule avoided."""
        return max(0, self.budget - self.runs_used)

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"{self.outcome.algorithm} on "
            f"{self.outcome.circuit or '<unnamed>'}: "
            f"best cut {self.best_cut:g} after {self.runs_used} of "
            f"{self.budget} budgeted runs ({self.runs_saved} saved)",
            f"  stop: {self.stop_reason}  "
            f"P(improve)={self.decision.p_beat:.4f}  "
            f"E[better runs left]={self.decision.expected_better_runs:.3f}",
        ]
        if self.fit is not None:
            lo, hi = self.fit.confidence_band(self.best_cut)
            lines.append(
                f"  tail fit: best-achievable ~ {self.fit.location:.1f} "
                f"(band {lo:.1f}..{hi:.1f}, shape {self.fit.shape:.2f}, "
                f"R^2 {self.fit.r_squared:.3f})"
            )
        return "\n".join(lines)


def ensemble_solve(
    partitioner: "Partitioner",
    graph: "Hypergraph",
    policy: RestartPolicy,
    balance: Optional["BalanceConstraint"] = None,
    base_seed: int = 0,
    circuit_name: str = "",
    engine: Optional["Engine"] = None,
    run_id: Optional[str] = None,
    resume: bool = False,
    recorder: Optional["Recorder"] = None,
) -> EnsembleResult:
    """Best-of-N under an adaptive restart policy.

    Drives :func:`repro.multirun.run_many` with ``runs = policy.budget``
    and the policy attached; the policy decides after every completed
    run (in seed order) whether the remaining budget is still worth
    spending, and the engine sheds unscheduled runs the moment the
    streaming prefix says stop.

    ``recorder`` (when enabled) receives ensemble telemetry counters —
    ``ensemble_runs_used``, ``ensemble_runs_saved`` and one
    ``ensemble_stop_<reason>`` increment — via the standard
    :meth:`repro.telemetry.Recorder.counters` hook with pass index
    ``-1`` (batch scope, not a real pass).  It is *not* forwarded as a
    per-run recorder; attach one through ``run_many`` directly for
    move-level telemetry.
    """
    from ..multirun import run_many

    outcome = run_many(
        partitioner,
        graph,
        runs=policy.budget,
        balance=balance,
        base_seed=base_seed,
        circuit_name=circuit_name,
        engine=engine,
        run_id=run_id,
        resume=resume,
        policy=policy,
    )
    decision = policy.decide(outcome.cuts, sum(outcome.run_seconds))
    result = EnsembleResult(
        outcome=outcome,
        decision=decision,
        budget=policy.budget,
        fit=fit_weibull_tail(outcome.cuts),
    )
    if recorder is not None and getattr(recorder, "enabled", False):
        recorder.counters(-1, {
            "ensemble_runs_used": result.runs_used,
            "ensemble_runs_saved": result.runs_saved,
            f"ensemble_stop_{result.stop_reason}": 1,
        })
    return result
