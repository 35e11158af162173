"""Finite-field rank routines."""

import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from edgeideals.errors import InvalidParameterError, SizeLimitError
from edgeideals.gf import MILLER_RABIN_LIMIT, check_prime, gfp_rank


def test_check_prime():
    for p in (2, 3, 5, 7, 13):
        check_prime(p)
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(InvalidParameterError,
                           match=f"characteristic {bad} is not prime"):
            check_prime(bad)


def is_prime(n):
    try:
        check_prime(n)
    except InvalidParameterError as exc:
        assert str(exc) == f"characteristic {n} is not prime"
        return False
    return True


def test_check_prime_matches_sympy_below_two_to_the_64():
    rng = random.Random(64)
    samples = [rng.randrange(1 << rng.randint(1, 64)) for _ in range(3000)]
    samples += [sympy.nextprime(n) for n in samples[:300]]
    samples += [n * m for n, m in zip(samples[-300:-150], samples[-150:])
                if n * m < 1 << 64]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n


def test_check_prime_rejects_pseudoprimes():
    # Carmichael numbers; strong pseudoprimes to the prime bases up to 7
    # and up to 23; the square of a prime
    for n in (561, 41041, 3215031751, 3825123056546413051, (2**31 - 1) ** 2):
        with pytest.raises(InvalidParameterError,
                           match=f"characteristic {n} is not prime"):
            check_prime(n)


def test_check_prime_decides_large_primes():
    # trial division ran for minutes on these
    for p in (1125899906842597, 2**61 - 1, 2**64 - 59, 2**79 - 67):
        check_prime(p)


def test_check_prime_refuses_past_the_exact_bound():
    with pytest.raises(SizeLimitError):
        check_prime(2**127 - 1)
    with pytest.raises(SizeLimitError):
        check_prime(MILLER_RABIN_LIMIT)


def sparse(matrix):
    """Dense rows as the {column: entry} rows gfp_rank takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def test_gfp_rank_known():
    m = sparse([[1, 2], [2, 4]])
    assert gfp_rank(m, 5) == 1
    assert gfp_rank(m, 3) == 1
    # 2x2 identity has full rank over every field
    assert gfp_rank([{0: 1}, {1: 1}], 3) == 2
    assert gfp_rank([{}, {}, {}], 3) == 0
    assert gfp_rank([], 3) == 0
    # entries that vanish mod p count as zero
    assert gfp_rank([{0: 3, 1: 6}], 3) == 0
    # over GF(2), the field of the default Betti table
    assert gfp_rank([], 2) == 0
    assert gfp_rank(sparse([[1]]), 2) == 1
    assert gfp_rank(sparse([[1, 1], [1, 0], [0, 1]]), 2) == 2
    # a row equal to the sum of the others is dependent
    assert gfp_rank(sparse([[0, 1, 1], [1, 1, 0], [1, 0, 1]]), 2) == 2


def test_gfp_rank_negative_entries():
    # -1 == p-1 mod p; boundary maps use signed entries
    assert gfp_rank(sparse([[1, -1], [-1, 1]]), 3) == 1


def test_gfp_rank_matches_sympy():
    rng = random.Random(9)
    for p in (3, 5):
        for _ in range(15):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            want = sympy.Matrix(m).rank(iszerofunc=lambda x: x % p == 0)
            assert gfp_rank(sparse(m), p) == want


def test_gfp_rank_detects_characteristic_drop():
    # this matrix has rank 2 over Q but rank 1 over GF(2)
    m = sparse([[1, 1], [1, -1]])
    assert gfp_rank(m, 2) == 1
    assert gfp_rank(m, 3) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1, 2**61 - 1])
def test_gfp_rank_matches_domain_matrix(p):
    # pivot inverses are residues near p, so their products run far past
    # a machine word for the two large primes
    rng = random.Random(11)
    field = sympy.GF(p)
    for _ in range(30):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.choice((-1, 0, 1)) for _ in range(cols)] for _ in range(rows)]
        m.append([-x for x in rng.choice(m)])  # one dependent row
        want = DomainMatrix.from_list(m, field).rank()
        assert gfp_rank(sparse(m), p) == want
