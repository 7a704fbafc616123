"""Real matrix-variate gamma function and products of its ratios.

ln_gamma_p(p, a) = (p(p-1)/4) ln(pi) + sum_{i=0}^{p-1} ln Gamma(a - i/2),
defined for a > (p-1)/2.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, RatioOverflow

# the largest matrix dimension p of the samplers, operators and SPD helpers
# (desk scale); the matrix gamma function itself takes any p >= 1
MAX_DIM = 3


def check_dim(p):
    """p, or DimensionMismatch when it lies outside 1..MAX_DIM."""
    if not 1 <= p <= MAX_DIM:
        raise DimensionMismatch(f"matrix dimension p={p} outside 1..{MAX_DIM}")
    return p


def _check_p(p):
    if not isinstance(p, (int, np.integer)) or not p >= 1:
        raise DomainError(f"matrix dimension p must be a positive integer, got {p!r}")
    return int(p)


def ln_gamma_p(p, alpha):
    """Log of the matrix-variate gamma function of dimension p at alpha."""
    p = _check_p(p)
    alpha = float(alpha)
    if not alpha > (p - 1) / 2.0:
        raise DomainError(
            f"matrix gamma of dimension {p} requires alpha > {(p - 1) / 2.0}, got {alpha}"
        )
    out = 0.25 * p * (p - 1) * math.log(math.pi)
    for i in range(p):
        out += math.lgamma(alpha - 0.5 * i)
    return out


def gamma_p(p, alpha):
    """Matrix-variate gamma function; overflow-checked exponential of ln_gamma_p."""
    ln = ln_gamma_p(p, alpha)
    try:
        return math.exp(ln)
    except OverflowError as exc:
        raise RatioOverflow(f"gamma_p({p}, {alpha}) exceeds the floating range") from exc


@dataclass(frozen=True)
class GammaRatioSpec:
    """A product of matrix gamma factors over a product of matrix gamma factors."""

    p: int
    numerator: tuple = field(default_factory=tuple)
    denominator: tuple = field(default_factory=tuple)


def ln_gamma_ratio(spec):
    out = 0.0
    for a in spec.numerator:
        out += ln_gamma_p(spec.p, a)
    for a in spec.denominator:
        out -= ln_gamma_p(spec.p, a)
    return out


def gamma_ratio(spec):
    """Evaluate prod Gamma_p(numerator) / prod Gamma_p(denominator) in log space."""
    ln = ln_gamma_ratio(spec)
    try:
        return math.exp(ln)
    except OverflowError as exc:
        raise RatioOverflow(
            f"gamma ratio exponent {ln:.1f} exceeds the floating range"
        ) from exc
