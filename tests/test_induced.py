import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreps import induced
from orthoreps.arith import factorize, is_prime, multiplicative_order
from orthoreps.induced import (
    MonomialRep,
    TameParameters,
    _smallest_zeta,
    build_induced_rep,
    commutant_dimension,
    projective_order,
    rep_json,
    tame_relation_holds,
    verify_orthogonality,
)


def dense(mono):
    """The matrix of a monomial (sigma, coeffs) as an object-dtype array of
    Python ints, so no entry or product overflows whatever lambda is."""
    sigma, coeffs = mono
    mat = np.zeros((len(sigma), len(sigma)), dtype=object)
    mat[list(sigma), range(len(sigma))] = list(coeffs)
    return mat


def identity(n, scale=1):
    return tuple(range(n)), (scale,) * n


def brute_order(mat, lam, limit=500):
    acc = mat.copy()
    for d in range(1, limit + 1):
        if (acc == np.eye(mat.shape[0], dtype=object)).all():
            return d
        acc = acc @ mat % lam
    raise AssertionError("no finite order found")


# Dense reference solvers over Python-int matrices built by `dense`.

def _rank_mod(matrix: np.ndarray, lam: int) -> int:
    """Rank over F_lambda by Gaussian elimination; rows stay reduced mod lam."""
    m = matrix % lam
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, rows):
            if m[r, col]:
                piv = r
                break
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), lam - 2, lam)
        m[rank] = m[rank] * inv % lam
        hits = np.nonzero(m[:, col])[0]
        hits = hits[hits != rank]
        if hits.size:  # the kron rows are sparse: update only the pivot row's support
            support = np.nonzero(m[rank])[0]
            block = np.ix_(hits, support)
            m[block] = (m[block] - np.outer(m[hits, col], m[rank, support])) % lam
        rank += 1
        if rank == rows:
            break
    return rank


def dense_commutant_dimension(rep, use=("tau", "phi")):
    """n^2 minus the rank of the stacked kron systems X g - g X = 0."""
    lam, n = rep.params.lam, rep.n
    eye = np.eye(n, dtype=object)
    mats = [dense(getattr(rep, u)) for u in use]
    blocks = [(np.kron(eye, g) - np.kron(g.T, eye)) % lam for g in mats]
    return n * n - _rank_mod(np.vstack(blocks), lam)


def dense_projective_order(rep, which, limit=None):
    """Least d whose matrix power g^d is scalar, by repeated products."""
    g = dense(getattr(rep, which))
    lam = rep.params.lam
    acc = g.copy()
    for d in range(1, (limit or rep.params.p * rep.n + 1) + 1):
        diag = np.diag(acc)
        if bool((acc == np.diag(diag)).all()) and len(set(diag.tolist())) == 1:
            return d
        acc = acc @ g % lam
    raise AssertionError(f"no scalar power of {which}")


def _valid_cases(p_below, t_below, n_max):
    primes = [q for q in range(2, max(p_below, t_below)) if is_prime(q)]
    return [(p, t, n) for p in primes if 3 <= p < p_below for t in primes if t < t_below and t != p
            for n in [multiplicative_order(t, p)] if n % 2 == 0 and n <= n_max]


VALID_CASES = _valid_cases(200, 300, 36)


def _with(rep, n=None, **monomials):
    """rep with some generators (and their size n) replaced; MonomialRep checks them."""
    fields = {"tau": rep.tau, "phi": rep.phi, "gram": rep.gram, **monomials}
    return MonomialRep(params=rep.params, n=n or rep.n, exponents=rep.exponents, **fields)


class TestConstruction:
    def test_5_3_4_reference_values(self):
        rep = build_induced_rep(5, 3, 4, 11)
        assert rep.params.zeta == 3
        assert rep.exponents == (1, 3, 4, 2)
        assert rep.tau == ((0, 1, 2, 3), (3, 5, 4, 9))  # 3^1, 3^3, 3^4, 3^2 mod 11
        gram = dense(rep.gram)
        pairs = {(i, j) for i in range(4) for j in range(4) if gram[i, j]}
        assert pairs == {(0, 2), (2, 0), (1, 3), (3, 1)}

    def test_default_lambda(self):
        assert build_induced_rep(5, 3, 4).params.lam == 11
        assert build_induced_rep(13, 2, 12).params.lam == 53
        assert build_induced_rep(3, 2, 2).params.lam == 7

    def test_tau_order_p(self):
        rep = build_induced_rep(5, 3, 4, 11)
        assert brute_order(dense(rep.tau), 11) == 5

    def test_phi_order_n(self):
        rep = build_induced_rep(5, 3, 4, 11)
        assert brute_order(dense(rep.phi), 11) == 4

    def test_accepts_t2_rejects_wrong_order(self):
        assert build_induced_rep(5, 2, 4).n == 4  # ord_5(2) = 4
        with pytest.raises(ValueError, match="order"):
            build_induced_rep(5, 19, 4)  # ord_5(19) = 2
        with pytest.raises(ValueError, match="order"):
            build_induced_rep(5, 11, 4)  # ord_5(11) = 1

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            build_induced_rep(7, 2, 3)

    def test_nonprime_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_induced_rep(5, 4, 4)
        with pytest.raises(ValueError):
            build_induced_rep(9, 2, 4)


def scan_zeta(p, lam):
    """Oracle: the least z >= 2 with z^p = 1 in F_lambda, by a plain scan."""
    return next(z for z in range(2, lam) if pow(z, p, lam) == 1)


# Primes lambda = 1 (mod p) on both sides of p^2, where the route switches.
ZETA_CASES = [(p, lam) for p in range(3, 60) if is_prime(p)
              for lam in range(2 * p + 1, 8000, 2 * p) if is_prime(lam)]


class TestSmallestZeta:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(ZETA_CASES))
    def test_both_routes_match_the_scan(self, case):
        p, lam = case
        assert _smallest_zeta(p, lam) == scan_zeta(p, lam)

    def test_lambda_from_2_63_rejected(self):
        # 2^63 is refused for not being prime, before any search for zeta
        message = r"^lambda=9223372036854775808 must be a prime = 1 \(mod p=5\)$"
        with pytest.raises(ValueError, match=message):
            build_induced_rep(5, 3, 4, 1 << 63)


class TestVerification:
    @pytest.mark.parametrize("p,t,n", [(5, 3, 4), (13, 2, 12), (3, 2, 2), (7, 3, 6), (13, 17, 6)])
    def test_battery(self, p, t, n):
        assert multiplicative_order(t, p) == n
        rep = build_induced_rep(p, t, n)
        assert tame_relation_holds(rep)
        assert verify_orthogonality(rep)
        assert commutant_dimension(rep) == 1
        assert projective_order(rep, "tau") == p
        assert projective_order(rep, "phi") == n

    def test_identity_gram_not_preserved(self):
        rep = build_induced_rep(5, 3, 4, 11)
        assert not verify_orthogonality(_with(rep, gram=identity(4)))

    def test_gram_is_symmetric_zero_diagonal_unimodular(self):
        for p, t, n in [(5, 3, 4), (13, 2, 12)]:
            gram = dense(build_induced_rep(p, t, n).gram)
            assert (gram == gram.T).all()
            assert not gram.diagonal().any()
            # one 1 in every row and column: a permutation matrix, det = +-1
            assert set(np.unique(gram)) == {0, 1}
            assert (gram.sum(axis=0) == 1).all() and (gram.sum(axis=1) == 1).all()

    def test_tau_alone_commutant_is_diagonal(self):
        rep = build_induced_rep(5, 3, 4, 11)
        assert commutant_dimension(rep, use=("tau",)) == 4
        assert commutant_dimension(rep, use=("phi",)) == 4  # circulants

    def test_commutant_line_for_all_small_parameters(self):
        # every valid (p, t, n) with p <= 13, n <= 6: induction from n
        # distinct characters leaves only scalars
        seen = 0
        for p in (3, 5, 7, 11, 13):
            for t in (2, 3, 5, 7, 11, 13):
                if t % p == 0 or p == t:
                    continue
                n = multiplicative_order(t, p)
                if n % 2 or n > 6:
                    continue
                rep = build_induced_rep(p, t, n)
                assert commutant_dimension(rep) == 1, (p, t, n)
                assert projective_order(rep, "tau") == p
                seen += 1
        assert seen >= 5

    def test_projective_order_of_identity_like(self):
        rep = build_induced_rep(3, 2, 2)
        scalars = _with(rep, tau=identity(2, 3))
        assert projective_order(scalars, "tau") == 1

    def test_hard_to_factor_lambda_minus_1_does_not_hang(self, time_limit):
        # lambda - 1 = 7 * 72 * 2557180180167128445323 * 7115102100608540338999.
        # Every ratio in a built model is a power of zeta, so the orders need
        # only the 7-part; factoring (lambda - 1)/7 by Pollard rho did not end.
        lam = 9170077428056997267987951722322190065050045209
        with time_limit(5):
            verdicts = rep_json(build_induced_rep(7, 17, 6, lam))["verdicts"]
        assert verdicts == {"tame_relation": True, "gram_preserved": True,
                            "commutant_dimension": 1, "tau_projective_order": 7,
                            "phi_projective_order": 6}

    def test_ratios_off_the_p_part_still_factor_the_cofactor(self, monkeypatch):
        # Random coefficients in F_43: their ratios have orders dividing 42, not
        # 7 alone, so the least k is found over the primes of the cofactor 6.
        rng = random.Random(0)
        base = build_induced_rep(7, 3, 6, 43)
        rep = _with(base, tau=(tuple(range(6)), tuple(rng.randrange(1, 43) for _ in range(6))))
        seen = []
        monkeypatch.setattr(induced, "factorize", lambda n: seen.append(n) or factorize(n))
        assert projective_order(rep, "tau") == dense_projective_order(rep, "tau", 42) == 42
        assert seen == [6]


class TestDenseOracles:
    @staticmethod
    def _match_dense(rep):
        for use in (("tau",), ("phi",), ("tau", "phi")):
            assert commutant_dimension(rep, use) == dense_commutant_dimension(rep, use), use
        for which in ("tau", "phi"):
            assert projective_order(rep, which) == dense_projective_order(rep, which), which

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(VALID_CASES))
    def test_verdicts_match_dense_solve_and_power_loop(self, case):
        self._match_dense(build_induced_rep(*case))

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([c for c in VALID_CASES if c[2] <= 6]), st.integers(0, 1000))
    def test_lambda_from_2_63_matches_dense(self, case, skip):
        # Python-int generators hold lambda >= 2^63 exactly; the dense oracles
        # compute over object-dtype matrices, so neither side can wrap
        start = ((1 << 63) // case[0] + 1 + skip) * case[0] + 1  # k p + 1 >= 2^63
        lam = next(q for q in itertools.count(start, case[0]) if is_prime(q))
        rep = build_induced_rep(*case, lam)
        assert rep.params.lam == lam and pow(rep.params.zeta, case[0], lam) == 1
        self._match_dense(rep)
        assert tame_relation_holds(rep) and verify_orthogonality(rep)
        gram = dense(rep.gram)
        for g in (dense(rep.tau), dense(rep.phi)):
            assert (g.T @ gram @ g % lam == gram).all()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(5, 3, 4, 11), (7, 3, 6, 43), (3, 2, 2, 7), (5, 2, 4, 61)]), st.data())
    def test_random_monomial_generators(self, case, data):
        # arbitrary permutations and coefficients: the weighted cycles of the
        # commutant walk need not close, and the cycles of sigma differ in length
        base = build_induced_rep(*case)
        lam = base.params.lam
        n = data.draw(st.integers(1, 6))
        monomials = {}
        for name in ("tau", "phi"):
            sigma = data.draw(st.permutations(range(n)))
            coeffs = data.draw(st.lists(st.integers(1, lam - 1), min_size=n, max_size=n))
            monomials[name] = (tuple(sigma), tuple(coeffs))
        rep = _with(base, n=n, gram=identity(n), **monomials)
        for use in (("tau",), ("phi",), ("tau", "phi")):
            assert commutant_dimension(rep, use) == dense_commutant_dimension(rep, use), use
        limit = 720 * (lam - 1)  # 6! bounds the lcm of the cycle lengths
        for which in ("tau", "phi"):
            assert projective_order(rep, which) == dense_projective_order(rep, which, limit), which

    def test_hand_built_reps(self):
        rep = build_induced_rep(5, 3, 4, 11)
        scalar = _with(rep, tau=identity(4, 4))
        identity_gram = _with(rep, gram=identity(4))
        for hand in (scalar, identity_gram):
            for use in (("tau",), ("phi",), ("tau", "phi")):
                assert commutant_dimension(hand, use) == dense_commutant_dimension(hand, use)
            for which in ("tau", "phi", "gram"):
                assert projective_order(hand, which) == dense_projective_order(hand, which)
        assert commutant_dimension(scalar) == 4  # scalar tau leaves the circulants
        assert commutant_dimension(scalar, use=("tau",)) == 16
        assert projective_order(identity_gram, "gram") == 1
        assert tame_relation_holds(scalar) is False
        assert verify_orthogonality(scalar) is False  # 4 * 4 = 5 != 1 mod 11
        # 2 phi still conjugates tau to tau^t, but scales the form by 4
        sigma, coeffs = rep.phi
        doubled = _with(rep, phi=(sigma, tuple(2 * c for c in coeffs)))
        assert tame_relation_holds(doubled) is True
        assert verify_orthogonality(doubled) is False
        assert projective_order(doubled, "phi") == 4


class TestNonMonomial:
    @pytest.mark.parametrize("name", ["tau", "phi", "gram"])
    @pytest.mark.parametrize("defect", ["zero column", "two in a row", "entry equal to lambda",
                                        "coefficient missing"])
    def test_named_value_error(self, name, defect):
        # each defect of a matrix restated on (sigma, coeffs): a zero column is
        # a zero coefficient, two entries in a row a repeated sigma entry
        rep = build_induced_rep(5, 3, 4, 11)
        sigma, coeffs = map(list, getattr(rep, name))
        if defect == "zero column":
            coeffs[0] = 0
        elif defect == "two in a row":
            sigma[0] = sigma[1]
        elif defect == "entry equal to lambda":
            coeffs[0] = 11
        else:
            del coeffs[0]
        # the rep refuses the generator when it is built, so no verdict can see it
        with pytest.raises(ValueError, match=f"^{name} is not monomial"):
            _with(rep, **{name: (tuple(sigma), tuple(coeffs))})

    def test_coefficients_stored_reduced(self):
        rep = build_induced_rep(5, 3, 4, 11)
        sigma, coeffs = rep.phi
        shifted = _with(rep, phi=(list(sigma), tuple(c + 11 for c in coeffs)))
        assert shifted.phi == rep.phi == (sigma, coeffs)
        assert rep_json(shifted) == rep_json(rep)


class TestTameParameters:
    def test_lambda_and_zeta_derived(self):
        params = TameParameters(5, 3, 4)
        assert (params.lam, params.zeta) == (11, 3)
        assert TameParameters(5, 3, 4, 11) == params
        assert build_induced_rep(5, 3, 4).params == params


class TestJson:
    def test_payload_shape(self):
        rep = build_induced_rep(5, 3, 4, 11)
        payload = rep_json(rep)
        assert payload["lambda"] == 11 and payload["zeta"] == 3
        assert payload["tau"][0][0] == 3
        assert len(payload["phi"]) == 4
        v = payload["verdicts"]
        assert v["tame_relation"] and v["gram_preserved"]
        assert v["commutant_dimension"] == 1
        assert v["tau_projective_order"] == 5
        assert v["phi_projective_order"] == 4

    def test_matrices_readonly(self):
        rep = build_induced_rep(5, 3, 4, 11)
        for name in ("tau", "phi", "gram"):
            sigma, coeffs = getattr(rep, name)
            for part in (sigma, coeffs):
                with pytest.raises(TypeError):
                    part[0] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rep, name, identity(4))
