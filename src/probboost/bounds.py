"""Exact evaluation of the training-error bound calculus.

All functions are pure.  ``rho`` is the per-stage bound factor
sqrt(1 - 4 eps^2) of a weak learner with edge eps; ``bound_F`` is the
greedy boosted-tree bound 1/(T B(T, rho)), defined for any real T >= 1,
and the nested/iso/M2 variants compose it.
"""

from __future__ import annotations

import math

from .specfun import EULER_GAMMA, digamma, lgamma_diff, log_gamma

__all__ = [
    "rho_from_epsilon",
    "bound_adaboost",
    "bound_F",
    "bound_F_asymptotic",
    "bound_nested",
    "bound_iso_nested",
    "bound_M2",
    "dF_dT",
    "dF_drho",
    "rate_matryoshka",
    "rate_simple",
]


def _check_T(T: float) -> None:
    if not T >= 1.0:
        raise ValueError(f"tree size T must be >= 1, got {T}")


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")


def rho_from_epsilon(epsilon: float) -> float:
    """Per-stage factor sqrt(1 - 4 eps^2) for edge eps in (0, 1/2]."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
    return math.sqrt(1.0 - 4.0 * epsilon * epsilon)


def bound_adaboost(T: int, rho: float) -> float:
    """Boosted-chain bound rho^T for T >= 1 stages."""
    if not (isinstance(T, int) and T >= 1):
        raise ValueError(f"T must be a positive integer, got {T}")
    _check_rho(rho)
    return rho**T


def bound_F(T: float, rho: float) -> float:
    """Greedy-tree bound F(T, rho) = Gamma(T+rho) / (Gamma(T+1) Gamma(rho)).

    For integer T this equals the running product
    prod_{t=0}^{T-1} (t + rho) / (t + 1); rho = 0 gives 0 by continuity.
    """
    _check_T(T)
    _check_rho(rho)
    if rho == 0.0:
        return 0.0
    return math.exp(lgamma_diff(T + rho, T + 1.0) - log_gamma(rho))


def bound_F_asymptotic(T: float, rho: float) -> float:
    """Large-T approximation T^(rho-1) / Gamma(rho)."""
    _check_T(T)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    return T ** (rho - 1.0) * math.exp(-log_gamma(rho))


def bound_nested(T: int, T1: float, rho: float) -> float:
    """Two-layer bound F(T/T1, F(T1, rho)) for sub-trees of size T1."""
    if not (isinstance(T, int) and T >= 1):
        raise ValueError(f"T must be a positive integer, got {T}")
    if not 1.0 <= T1 <= T:
        raise ValueError(f"T1 must lie in [1, T], got {T1}")
    _check_rho(rho)
    return bound_F(T / T1, bound_F(T1, rho))


def bound_iso_nested(T: int, L: int, rho: float) -> float:
    """L-fold composition of F at equal per-level size T^(1/L)."""
    if not (isinstance(T, int) and T >= 1):
        raise ValueError(f"T must be a positive integer, got {T}")
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"L must be a positive integer, got {L}")
    _check_rho(rho)
    size = T ** (1.0 / L)
    value = rho
    for _ in range(L):
        value = bound_F(size, value)
    return value


def bound_M2(T: int, rho: float) -> float:
    """2-matryoshka bound: L-fold composition of x -> x (1 + x) / 2, T = 2^L.

    M2(1, rho) = rho by convention (zero nesting levels).
    """
    if not (isinstance(T, int) and T >= 1 and (T & (T - 1)) == 0):
        raise ValueError(f"T must be a power of two, got {T}")
    _check_rho(rho)
    value = rho
    levels = T.bit_length() - 1
    for _ in range(levels):
        value = value * (1.0 + value) / 2.0
    return value


def dF_dT(T: float, rho: float) -> float:
    """Partial derivative of F in T: -F (1/T + psi(T) - psi(T + rho))."""
    _check_T(T)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    return -bound_F(T, rho) * (1.0 / T + digamma(T) - digamma(T + rho))


def dF_drho(T: float, rho: float) -> float:
    """Partial derivative of F in rho: -F (psi(rho) - psi(T + rho))."""
    _check_T(T)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    return -bound_F(T, rho) * (digamma(rho) - digamma(T + rho))


def rate_matryoshka(C: float, T: float) -> float:
    """Instantaneous bound decrease rate of nesting a size-T sub-tree.

    (C/T) (gamma + psi(C) + 1/C - 1), gamma being Euler's constant.
    Zero at C = 1 (a flat bound gains nothing from nesting).
    """
    if not 0.0 < C <= 1.0:
        raise ValueError(f"C must be in (0, 1], got {C}")
    _check_T(T)
    if C == 1.0:
        # gamma + psi(1) = 0 analytically; avoid rounding residue.
        return 0.0
    return (C / T) * (EULER_GAMMA + digamma(C) + 1.0 / C - 1.0)


def rate_simple(C_prev: float, C_next: float) -> float:
    """Central-difference decrease rate (C(T+1) - C(T-1)) / 2."""
    for v in (C_prev, C_next):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"bound value {v} outside [0, 1]")
    return (C_next - C_prev) / 2.0
