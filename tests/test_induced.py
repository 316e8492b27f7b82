import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreps.arith import is_prime, multiplicative_order
from orthoreps.induced import (
    MonomialRep,
    _smallest_zeta,
    build_induced_rep,
    commutant_dimension,
    projective_order,
    rep_json,
    tame_relation_holds,
    verify_orthogonality,
)


def brute_order(mat, lam, limit=500):
    acc = mat.copy()
    for d in range(1, limit + 1):
        if (acc == np.eye(mat.shape[0], dtype=np.int64)).all():
            return d
        acc = acc @ mat % lam
    raise AssertionError("no finite order found")


# Dense reference solvers: int64 matrices, so only for small lambda.

def _rank_mod(matrix: np.ndarray, lam: int) -> int:
    """Rank over F_lambda by Gaussian elimination; rows stay int64 mod lam."""
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
        if hits.size:
            m[hits] = (m[hits] - np.outer(m[hits, col], m[rank])) % lam
        rank += 1
        if rank == rows:
            break
    return rank


def dense_commutant_dimension(rep, use=("tau", "phi")):
    """n^2 minus the rank of the stacked kron systems X g - g X = 0."""
    lam, n = rep.params.lam, rep.n
    eye = np.eye(n, dtype=np.int64)
    blocks = [(np.kron(eye, g) - np.kron(g.T, eye)) % lam for g in (getattr(rep, u) for u in use)]
    return n * n - _rank_mod(np.vstack(blocks), lam)


def dense_projective_order(rep, which, limit=None):
    """Least d whose matrix power g^d is scalar, by repeated products."""
    g = getattr(rep, which)
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


def _with(rep, n=None, **arrays):
    """rep with some generator arrays (and their size n) replaced, unchecked."""
    fields = {"tau": rep.tau, "phi": rep.phi, "gram": rep.gram, **arrays}
    return MonomialRep(params=rep.params, n=n or rep.n, exponents=rep.exponents, **fields)


class TestConstruction:
    def test_5_3_4_reference_values(self):
        rep = build_induced_rep(5, 3, 4, 11)
        assert rep.params.zeta == 3
        assert rep.exponents == (1, 3, 4, 2)
        assert rep.tau.diagonal().tolist() == [3, 5, 4, 9]  # 3^1, 3^3, 3^4, 3^2 mod 11
        pairs = {(i, j) for i in range(4) for j in range(4) if rep.gram[i, j]}
        assert pairs == {(0, 2), (2, 0), (1, 3), (3, 1)}

    def test_default_lambda(self):
        assert build_induced_rep(5, 3, 4).params.lam == 11
        assert build_induced_rep(13, 2, 12).params.lam == 53
        assert build_induced_rep(3, 2, 2).params.lam == 7

    def test_tau_order_p(self):
        rep = build_induced_rep(5, 3, 4, 11)
        assert brute_order(rep.tau, 11) == 5

    def test_phi_order_n(self):
        rep = build_induced_rep(5, 3, 4, 11)
        assert brute_order(rep.phi, 11) == 4

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
        with pytest.raises(ValueError, match="not below 2\\^63"):
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
        assert not verify_orthogonality(_with(rep, gram=np.eye(4, dtype=np.int64)))

    def test_gram_is_symmetric_zero_diagonal_unimodular(self):
        for p, t, n in [(5, 3, 4), (13, 2, 12)]:
            rep = build_induced_rep(p, t, n)
            assert (rep.gram == rep.gram.T).all()
            assert not rep.gram.diagonal().any()
            # one 1 in every row and column: a permutation matrix, det = +-1
            assert set(np.unique(rep.gram)) == {0, 1}
            assert (rep.gram.sum(axis=0) == 1).all() and (rep.gram.sum(axis=1) == 1).all()

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
        scalars = _with(rep, tau=np.eye(2, dtype=np.int64) * 3)
        assert projective_order(scalars, "tau") == 1


class TestDenseOracles:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(VALID_CASES))
    def test_verdicts_match_dense_solve_and_power_loop(self, case):
        rep = build_induced_rep(*case)
        for use in (("tau",), ("phi",), ("tau", "phi")):
            assert commutant_dimension(rep, use) == dense_commutant_dimension(rep, use), use
        for which in ("tau", "phi"):
            assert projective_order(rep, which) == dense_projective_order(rep, which), which

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(5, 3, 4, 11), (7, 3, 6, 43), (3, 2, 2, 7), (5, 2, 4, 61)]), st.data())
    def test_random_monomial_generators(self, case, data):
        # arbitrary permutations and coefficients: the weighted cycles of the
        # commutant walk need not close, and the cycles of sigma differ in length
        base = build_induced_rep(*case)
        lam = base.params.lam
        n = data.draw(st.integers(1, 6))
        arrays = {}
        for name in ("tau", "phi"):
            sigma = data.draw(st.permutations(range(n)))
            coeffs = data.draw(st.lists(st.integers(1, lam - 1), min_size=n, max_size=n))
            arr = np.zeros((n, n), dtype=np.int64)
            arr[sigma, range(n)] = coeffs
            arrays[name] = arr
        rep = _with(base, n=n, gram=np.eye(n, dtype=np.int64), **arrays)
        for use in (("tau",), ("phi",), ("tau", "phi")):
            assert commutant_dimension(rep, use) == dense_commutant_dimension(rep, use), use
        limit = 720 * (lam - 1)  # 6! bounds the lcm of the cycle lengths
        for which in ("tau", "phi"):
            assert projective_order(rep, which) == dense_projective_order(rep, which, limit), which

    def test_hand_built_reps(self):
        rep = build_induced_rep(5, 3, 4, 11)
        scalar = _with(rep, tau=np.eye(4, dtype=np.int64) * 4)
        identity_gram = _with(rep, gram=np.eye(4, dtype=np.int64))
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
        doubled = _with(rep, phi=rep.phi * 2)
        assert tame_relation_holds(doubled) is True
        assert verify_orthogonality(doubled) is False
        assert projective_order(doubled, "phi") == 4


class TestNonMonomial:
    @pytest.mark.parametrize("name", ["tau", "phi", "gram"])
    @pytest.mark.parametrize("defect", ["zero column", "two in a row", "entry equal to lambda"])
    def test_named_value_error(self, name, defect):
        rep = build_induced_rep(5, 3, 4, 11)
        arr = getattr(rep, name).copy()
        row, col = np.argwhere(arr)[0]
        if defect == "zero column":
            arr[:, col] = 0
        elif defect == "two in a row":
            arr[row, (col + 1) % 4] = 1
        else:
            arr[row, col] = 11
        broken = _with(rep, **{name: arr})
        calls = [lambda: verify_orthogonality(broken)]
        if name != "gram":
            calls += [lambda: tame_relation_holds(broken),
                      lambda: commutant_dimension(broken, use=(name,)),
                      lambda: projective_order(broken, name)]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{name} is not monomial"):
                call()


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
        with pytest.raises(ValueError):
            rep.tau[0, 0] = 1
