import pytest

from torusdyn.intmatrix import IntMatrix, bareiss_det
from torusdyn.intpoly import IntPoly, cyclotomic, cyclotomic_indices_up_to_degree, divides
from torusdyn.manifolds import LeafSolver
from torusdyn.perturbed import salem_example
from torusdyn.pseudo_anosov import pseudo_anosov_subspace
from torusdyn.splitting import adapted_norm, compute_splitting
from torusdyn.zfactor import factor_z

SALEM = IntPoly((1, -1, -1, -1, 1))
CAT = IntPoly((1, -3, 1))

# U A U^-1 for the Salem companion A and a unimodular U: a dense integer matrix,
# whose matmuls round differently through gemv (one row) and gemm (several)
SALEM_CONJUGATE = [[0, 8, 6, 5], [1, -2, 2, -1], [0, -5, -4, -3], [-2, 12, 3, 7]]


@pytest.fixture(scope="session")
def salem_matrix():
    return IntMatrix.companion(SALEM)


@pytest.fixture(scope="session")
def cat_matrix():
    return IntMatrix([[2, 1], [1, 1]])


@pytest.fixture(scope="session")
def block6_matrix(salem_matrix, cat_matrix):
    return IntMatrix.block_diag(salem_matrix, cat_matrix)


@pytest.fixture(scope="session")
def salem_split(salem_matrix):
    return compute_splitting(salem_matrix)


@pytest.fixture(scope="session")
def salem_norm(salem_split):
    return adapted_norm(salem_split)


@pytest.fixture(scope="session")
def salem_pa(salem_matrix, salem_split):
    return pseudo_anosov_subspace(salem_matrix, 8, split=salem_split)


@pytest.fixture(scope="session")
def solver_linear(salem_split, salem_norm):
    return LeafSolver(salem_example(0.0), salem_split, salem_norm)


@pytest.fixture(scope="session")
def solver_small(salem_split, salem_norm):
    return LeafSolver(salem_example(0.01), salem_split, salem_norm)


def random_unimodular(rng, n, ops=8, cap=6):
    """Product of elementary integer row operations; |det| = 1 by construction."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(i, j, c):
        for k in range(n):
            m[i][k] += c * m[j][k]

    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        add(i, j, rng.choice([-2, -1, 1, 2]))
        if max(abs(v) for row in m for v in row) > cap:
            break
    return IntMatrix(m)


def powers_irreducible(a, k_max):
    """Whether the char poly of A^k is irreducible for every k <= k_max
    (brute force: one factorization per power)."""
    ak = IntMatrix.identity(a.n)
    for _ in range(k_max):
        ak = ak * a
        fs = factor_z(ak.char_poly())
        if len(fs) != 1 or fs[0][1] != 1:
            return False
    return True


def cyclotomic_free(p):
    """True iff no cyclotomic polynomial divides p (no root of unity among
    its roots), by trial division."""
    if p(1) == 0 or p(-1) == 0:
        return False
    return not any(divides(cyclotomic(m), p)
                   for m in cyclotomic_indices_up_to_degree(p.degree) if m > 2)


def lattice_index(sub, sup):
    """[sup : sub] for a sublattice of equal rank: |det| of sub's basis in
    sup's basis coordinates."""
    assert sub.rank == sup.rank
    coords = [sup.coordinates(row) for row in sub.basis]
    assert all(c is not None for c in coords), "not a sublattice"
    return abs(bareiss_det([list(c) for c in coords]))
