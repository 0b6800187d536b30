"""Every pass rule of the lab, stated once.

Each row names a rule, the statistic it bounds, its gate value, and the
error the gate covers, or "heuristic" where no error bound is derived.
The modules that evaluate a rule read its gate here, and summary strings
format their limits from the same row, so a gate and its text cannot
drift apart.  This module imports nothing from the package, so any module
can read it.

Known answers (a rate of 1, a limit of 1/2, closed-form thresholds) and
guards that raise (the blow-up abort, escaped occupation mass, memory) are
not pass rules and stay beside their code.
"""

from __future__ import annotations

from typing import NamedTuple


class Verdict(NamedTuple):
    name: str
    statistic: str
    gate: float
    covers: str


HEURISTIC = "heuristic"

# Identity reports (verify): |left - right| <= gate * stderr + margin.
IDENTITY_STDERRS = Verdict(
    "identity-stderrs",
    "gap of an identity report beyond its margin, in paired standard errors",
    4.0, "Monte Carlo error of the paired mean (two-sided normal tail 6.3e-5)")
ISOMETRY_MARGIN = Verdict(
    "isometry-margin",
    "Ito-isometry margin for the quantized perturbation, as a fraction of "
    "the larger side", 0.05, HEURISTIC)
CROSS_TERM_MARGIN = Verdict(
    "cross-term-margin",
    "cross-term margin for the quantized perturbation, as a fraction of "
    "the larger side", 0.05, HEURISTIC)
QUADRATIC_VARIATION_MARGIN = Verdict(
    "quadratic-variation-margin",
    "quadrature-versus-sewing margin for the quantization and the frozen "
    "argument, as a fraction of the larger side", 0.05, HEURISTIC)

# The moment-ratio trend over a radius sweep (verify).
TREND_SPREAD = Verdict(
    "trend-spread", "largest over smallest worst-window moment ratio of the sweep",
    2.0, HEURISTIC)
TREND_RISING_TAIL = Verdict(
    "trend-rising-tail",
    "length of a strictly rising run of ratios at the smallest radii, which fails",
    3, HEURISTIC)

# The sewing engine's divergence flag (sewing).
SEWING_DIVERGENCE_RUN = Verdict(
    "sewing-divergence-run",
    "consecutive non-decreasing level differences above the noise floor, "
    "which flag divergence", 3, HEURISTIC)

# The acceptance criteria (experiments).
COVARIANCE_Z = Verdict(
    "covariance-z", "distance of an estimate from the exact fBm covariance, "
    "in standard errors",
    4.0, "Monte Carlo error of each covariance estimate (two-sided normal tail 6.3e-5)")
COVARIANCE_SECONDS = Verdict(
    "covariance-seconds", "wall-clock seconds of the covariance audit, strictly below",
    60.0, HEURISTIC)
OCCUPATION_SLACK = Verdict(
    "occupation-slack", "occupation-formula residual at h = 2^-10 over Lip(f) h t",
    2.0, "snapping each sample to its bin centre: at most Lip(f) (h/2) t, "
    "a quarter of the gate")
OCCUPATION_RATE = Verdict(
    "occupation-rate",
    "decay rate of the occupation-formula residual per halving of h, at least",
    0.8, HEURISTIC)
AVERAGING_ROUNDOFF = Verdict(
    "averaging-roundoff",
    "dual-route gap of a Lipschitz field beyond its quantization budget",
    1e-12, "FFT roundoff in the convolution route")
AVERAGING_EXACT_GAP = Verdict(
    "averaging-exact-gap", "dual-route gap of a bin-constant field",
    1e-10, "roundoff of both routes, which agree exactly on bin-constant fields")
AVERAGED_EXPONENT = Verdict(
    "averaged-exponent", "Holder exponent of the averaged indicator, at least",
    0.5, HEURISTIC)
RAW_EXPONENT = Verdict(
    "raw-exponent", "Holder exponent of the raw indicator, at most",
    0.15, HEURISTIC)
STABILITY_SLOPE = Verdict(
    "stability-slope",
    "distance from 1 of the slope of the log sup response against the log "
    "L^2 size of a perturbation",
    0.1, HEURISTIC)
SEWING_ADDITIVE = Verdict(
    "sewing-additive", "largest change of an additive germ's level sums",
    1e-12, "roundoff of the partition sums")
SEWING_RATE = Verdict(
    "sewing-rate", "distance from 1 of the left-linear germ's fitted rate",
    0.1, HEURISTIC)
SEWING_LIMIT = Verdict(
    "sewing-limit", "distance from 1/2 of the left-linear germ's Richardson limit",
    1e-9, "roundoff of the Richardson step on exactly geometric level sums")
SWEEP_SECONDS = Verdict(
    "sweep-seconds",
    "wall-clock seconds to build and verify the headline sweep, strictly below",
    600.0, HEURISTIC)
CAUCHY_GROWTH = Verdict(
    "cauchy-growth", "each integral gap over the one before it, at most",
    1.1, HEURISTIC)
CAUCHY_TRACKING = Verdict(
    "cauchy-tracking", "factor between each tracking ratio and their geometric mean",
    3.0, HEURISTIC)

TABLE = (IDENTITY_STDERRS, ISOMETRY_MARGIN, CROSS_TERM_MARGIN,
         QUADRATIC_VARIATION_MARGIN, TREND_SPREAD, TREND_RISING_TAIL,
         SEWING_DIVERGENCE_RUN, COVARIANCE_Z, COVARIANCE_SECONDS,
         OCCUPATION_SLACK, OCCUPATION_RATE, AVERAGING_ROUNDOFF,
         AVERAGING_EXACT_GAP, AVERAGED_EXPONENT, RAW_EXPONENT, STABILITY_SLOPE,
         SEWING_ADDITIVE, SEWING_RATE, SEWING_LIMIT, SWEEP_SECONDS,
         CAUCHY_GROWTH, CAUCHY_TRACKING)
