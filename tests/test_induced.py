import numpy as np
import pytest

from orthoreps.arith import multiplicative_order
from orthoreps.induced import (
    MonomialRep,
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
        broken = MonomialRep(
            params=rep.params,
            n=rep.n,
            exponents=rep.exponents,
            tau=rep.tau,
            phi=rep.phi,
            gram=np.eye(4, dtype=np.int64),
        )
        assert not verify_orthogonality(broken)

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
        scalars = MonomialRep(
            params=rep.params,
            n=rep.n,
            exponents=rep.exponents,
            tau=np.eye(2, dtype=np.int64) * 3,
            phi=rep.phi,
            gram=rep.gram,
        )
        assert projective_order(scalars, "tau") == 1


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
