"""Named mutants: each row breaks one rule of the package and names the check
that must catch it.

A row gives a name, the function to replace (module, name), the replacement,
the check to call and the exception that check must raise.  The replacement
is bound in every package namespace that holds the original, as a defect in
that function's code would be, and the per-type caches are cleared before
and after each case so that no datum built under a mutant outlives it.  A
mutant that no check catches keeps its row, marked xfail(strict=True).
"""

import dataclasses
import functools

import pytest

import orthoreps
from orthoreps import arith, cli, induced, irreps, root_data, steinberg, weights
from orthoreps.irreps import GENERIC_CHAR_FLOOR
from orthoreps.steinberg import MODE_ALL

import test_steinberg
import test_weights

NAMESPACES = (orthoreps, arith, cli, induced, irreps, root_data, steinberg, weights)


def _clear_caches():
    for module in (root_data, irreps):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def flipped_sign(real):
    return lambda datum, weight, cols: -real(datum, weight, cols)


def d_symmetry_on_even_rank(real):
    """The fork swap applied to D_m of even rank in place of odd rank."""
    def mutant(type_id):
        m = type_id.rank
        if type_id.family != "D":
            return real(type_id)
        return (*range(m - 2), m - 1, m - 2) if m % 2 == 0 else range(m)
    return mutant


def e6_unflipped(real):
    return lambda type_id: range(6) if type_id == root_data.LieType("E", 6) else real(type_id)


def min_char_n(real):
    def mutant(n, mode, factors_of):
        report = real(n, mode, factors_of)
        return dataclasses.replace(report, min_char=max(GENERIC_CHAR_FLOOR, n))
    return mutant


def drops_last_combination(real):
    """all_products mode loses the last combination of its last multi-factor factorization."""
    def mutant(type_id, facts, by_dim, mode):
        products, events = real(type_id, facts, by_dim, mode)
        if mode == MODE_ALL and any(len(fact) > 1 for fact in facts):
            products = products[:-1]
        return products, events
    return mutant


MUTANTS = [
    ("indicator-sign-flipped", (weights, "indicator"), flipped_sign,
     test_weights.TestIndicator().test_c34_natural_symplectic_d34_orthogonal, AssertionError),
    ("d5-fork-not-swapped", (root_data, "_diagram_symmetry"), d_symmetry_on_even_rank,
     functools.partial(test_weights.TestIndicator().test_d_half_spin_pattern, 5), AssertionError),
    ("e6-not-flipped", (root_data, "_diagram_symmetry"), e6_unflipped,
     test_weights.TestDuality().test_e6_flip, AssertionError),
    ("classify-min-char-n", (steinberg, "_classify"), min_char_n,
     functools.partial(test_steinberg.TestClassify().test_min_char_fixed_by_n, 68, 69),
     AssertionError),
    ("all-products-drops-last", (steinberg, "_assemble"), drops_last_combination,
     test_steinberg.TestClassify().test_all_mode_at_68_shows_a1_products, AssertionError),
]


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


@pytest.mark.parametrize("name,target,replace,check,error", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(name, target, replace, check, error, monkeypatch, fresh_caches):
    check()  # the check passes on the package as it is
    module, attr = target
    real = getattr(module, attr)
    mutant = replace(real)
    for ns in NAMESPACES:
        for key, value in list(vars(ns).items()):
            if value is real:
                monkeypatch.setattr(ns, key, mutant)
    _clear_caches()
    with pytest.raises(error):
        check()
