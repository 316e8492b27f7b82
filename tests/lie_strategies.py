"""Hypothesis strategy shared by the tests: a Lie type from every family."""

from hypothesis import strategies as st

from orthoreps.root_data import LieType

FAMILY_RANKS = {"A": (1, 60), "B": (2, 40), "C": (2, 40), "D": (4, 40),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}


@st.composite
def any_family_type(draw) -> LieType:
    fam = draw(st.sampled_from(sorted(FAMILY_RANKS)))
    lo, hi = FAMILY_RANKS[fam]
    return LieType(fam, draw(st.integers(lo, hi)))
