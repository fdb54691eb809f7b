"""Convolution dynamics relative to the truly-quantum projection p_Q:
quantitative bounds, phase-region classification, periodicity and the idempotent
gap."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ITER_TOL, State, _certify
from .cqg import CompactQuantumGroup
from .idempotent import left_convolution_operator
from .permutation import ClassicalVersion, _decomposed_rows, _quantum_fractions

SQRT2 = math.sqrt(2.0)
BOUNDARY_EPS = 1e-12


def convolution_bounds(alpha, beta):
    """Sharp bounds a+b-2ab <= omega(p_Q of the convolution) <= a+b-ab, of
    two numbers or, elementwise, of two arrays of one shape."""
    ab = np.array(np.broadcast_arrays(alpha, beta))
    _certify("quantum fractions live in [0, 1]", np.max([-ab, ab - 1.0], initial=0.0), 1e-12)
    return alpha + beta - 2 * alpha * beta, alpha + beta - alpha * beta


_REGIONS = ("degenerate", "Q_I", "Boundary_W", "Q_W")  # by region code


def _phase_labels(A, B) -> tuple:
    """Region codes (indices into _REGIONS) and the q2i, q3i and qhalfw flags
    of the points (A, B) of two arrays.  Ties with the wild boundary
    a + b = 4ab within 1e-12 are Boundary_W, and the origin is degenerate.
    q3i is all False: its rule applies where t = 1 - sqrt(2)/(1 - 2a) is in
    [0, 1], but t <= 1 - sqrt(2) < 0 for a < 1/2 and t >= 1 + sqrt(2) > 1 for a > 1/2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        live = ~((A <= BOUNDARY_EPS) & (B <= BOUNDARY_EPS))  # the origin is degenerate
        disc = A + B - 4 * A * B
        boundary = abs(disc) <= BOUNDARY_EPS
        q_i = live & ~boundary & (disc > 0)
        q_w = live & ~boundary & ~(disc > 0)
        code = q_i * 1 + (live & boundary) * 2 + q_w * 3

        def two_inc(x, y):
            return (x < 1.0 - BOUNDARY_EPS) & (y < (2 * x - 1) / (2 * x - 2))

        q2i = live & (two_inc(A, B) | two_inc(B, A)) & q_i
        q3i = np.zeros_like(q2i)
        qhalfw = live & (A > 0) & (B > (1 - 1 / SQRT2) / A) & q_w
    return code, q2i, q3i, qhalfw


def idempotent_gap_check(alpha: float) -> bool:
    """Idempotents are random or at least half quantum: alpha in {0} u [1/2, 1] within ITER_TOL."""
    return alpha <= ITER_TOL or alpha >= 0.5 - ITER_TOL


@dataclass
class BoundsReport:
    samples: np.ndarray  # (n, 3): alpha, beta and omega of each pair
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_bounds_empirically(G: CompactQuantumGroup, cv: ClassicalVersion,
                              n_samples: int = 500, seed: int = 0) -> BoundsReport:
    """Sample state pairs and check the convolution bounds and the qualitative
    convolution rules on every sample.

    Every violating pair gives a witness in ``violations``, in pair order:
    the first rule it breaks, alpha, beta, omega and the pair's duals.
    Alongside generic samples, the conditioned random / truly-quantum parts
    of the first 8 pairs are paired to exercise the extreme rows alpha, beta
    in {0, 1}.  All pairs go through as (n, d) stacks: one checked bank, one
    decomposition, one convolution and three quantum-fraction products.
    """
    tol = 1e-8  # every comparison
    bank = G._state_bank(2 * n_samples, seed).reshape(n_samples, 2, G.dim)
    _, parts, defined = _decomposed_rows(G, bank[:8].reshape(-1, G.dim), cv)
    parts, defined = parts.reshape(-1, 2, 2, G.dim), defined.reshape(-1, 2, 2)
    # per pair, the (phi part, rho part) pairs (C, Q), (Q, C), (Q, Q), (C, C)
    left, right = [0, 1, 1, 0], [1, 0, 1, 0]
    keep = defined[:, 0, left] & defined[:, 1, right]
    phis = np.concatenate([bank[:, 0], parts[:, 0, left][keep]])
    rhos = np.concatenate([bank[:, 1], parts[:, 1, right][keep]])
    a, b, w = (_quantum_fractions(D, cv) for D in (phis, rhos, G._convolve_rows(phis, rhos)))
    lower, upper = convolution_bounds(a, b)
    random_a, random_b, quantum_a, quantum_b = a <= tol, b <= tol, a >= 1 - tol, b >= 1 - tol
    # the rules in the order a violation is named by
    rules = {
        "bounds": ~((lower - tol <= w) & (w <= upper + tol)),
        "random convolution from a mixed pair":
            (w <= tol) & ~(random_a & random_b | quantum_a & quantum_b),
        "random pair with quantum convolution": random_a & random_b & (w > tol),
        "random/quantum pair not truly quantum":
            (random_a & quantum_b | quantum_a & random_b) & (w < 1 - tol),
    }
    witnesses = [{"reason": next(name for name, mask in rules.items() if mask[k]),
                  "alpha": float(a[k]), "beta": float(b[k]), "omega": float(w[k]),
                  "phi": _ser(phis[k]), "rho": _ser(rhos[k])}
                 for k in np.flatnonzero(np.any(list(rules.values()), axis=0)).tolist()]
    return BoundsReport(np.column_stack([a, b, w]), witnesses)


def _ser(duals: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in duals]


@dataclass
class Trajectory:
    """Convolution powers of a seed: states[k] = phi^{*(k+1)}, k_max+1 of them."""

    states: list
    alphas: list
    distances_to_haar: list

    def __len__(self):
        return len(self.states)


def _powers(G: CompactQuantumGroup, phi: State, k: int) -> np.ndarray:
    """(k+1, d) stack of the rows T^j phi = phi^{*(j+1)}, T the left convolution
    operator of phi: each pass applies T^m to the m rows so far and squares T."""
    T = left_convolution_operator(G, phi)
    P = phi.duals[np.newaxis]
    while len(P) <= k:
        P = np.vstack([P, P @ T.T])
        T = T @ T
    return P[:k + 1]


def trajectory(G: CompactQuantumGroup, seed: State, k_max: int,
               cv: ClassicalVersion | None = None) -> Trajectory:
    """The :class:`Trajectory` of the seed (alphas NaN without cv), off one power stack."""
    P = _powers(G, seed, k_max)
    alphas = (_quantum_fractions(P, cv).tolist() if cv is not None
              else [float("nan")] * len(P))
    dists = np.abs(P - G.haar.duals).max(axis=1).tolist()
    return Trajectory([State(G.algebra, row, check=False) for row in P], alphas, dists)


def detect_period(G: CompactQuantumGroup, seed: State):
    """Smallest d with phi^{*(k+d)} = phi^{*k} within 1e-8 for every k in a
    verification window of up to 3d steps, among the first 65 powers.

    Returns None when no period at most 64 is certified.
    """
    return _period(_powers(G, seed, 64))


def _period(P: np.ndarray):
    """:func:`detect_period` of the 65-row stack P of a seed's first powers."""
    for d in range(1, 65):
        w = min(3 * d, len(P) - d)
        if np.abs(P[d:d + w] - P[:w]).max() < 1e-8:
            return d
    return None


@dataclass
class ConvergenceReport:
    distances: list
    converged: bool
    strict: bool | None     # dual groups: |phi| = 1 only at the identity


def convergence_to_haar(G: CompactQuantumGroup, seed: State,
                        k_max: int = 200) -> ConvergenceReport:
    """Distances of the first k_max + 1 convolution powers to the Haar
    state; converged if the last is below 1e-8."""
    strict = None
    if G.kind == "dual":
        mags = np.abs(seed.duals)
        strict = bool(mags[0] > 1 - 1e-9
                      and np.all(mags[1:] < 1 - 1e-9))
    dists = np.abs(_powers(G, seed, k_max) - G.haar.duals).max(axis=1).tolist()
    return ConvergenceReport(dists, bool(dists[-1] < 1e-8), strict)


def phase_diagram_rows(n: int = 101) -> dict:
    """Uniform n x n grid over the unit square, alpha-major, as columns keyed
    by the CSV header: alpha, beta, region name, the three flags and the
    convolution bounds (:func:`convolution_bounds`); n is at least 2."""
    if n < 2:
        raise ValueError(f"the phase diagram needs n >= 2 grid points a side, not {n}")
    grid = np.arange(n) / (n - 1)
    A, B = np.repeat(grid, n), np.tile(grid, n)
    code, q2i, q3i, qhalfw = _phase_labels(A, B)
    lower, upper = convolution_bounds(A, B)
    return {"alpha": A, "beta": B, "region": np.array(_REGIONS)[code],
            "q2i": q2i, "q3i": q3i, "qhalfw": qhalfw, "lower": lower, "upper": upper}
