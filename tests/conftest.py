"""Helpers shared by several test modules."""
import numpy as np
import pytest

from qperm.algebra import AlgebraError


def _member_bank(G, r, n, seed):
    """The counit, if it gives r full mass, and up to n seeded vector states
    x -> tau(x* . x) with x in rA: members of the face {phi : phi(r) = 1}."""
    out = [G.counit] if abs(G.counit(r) - 1) < 1e-9 else []
    Lr = G.algebra.left_mult_matrix(r.coeffs)
    for k in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        x = Lr @ (rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
        if np.abs(x).max() < 1e-12:
            continue
        try:
            out.append(G.vector_state(x))
        except AlgebraError:
            continue
    return out


@pytest.fixture
def member_bank():
    """Sampler ``member_bank(G, r, n, seed)`` of states on the face of r."""
    return _member_bank
