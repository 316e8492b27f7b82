"""Hypothesis strategy shared by the tests: a Lie type from every family."""

from hypothesis import strategies as st

from orthoreps.root_data import LieType, prewarm_family

# Rank range per family, and the larger rank each family table is built at
# first, so that most draws read a sub-rank window of a bigger table.
FAMILY_RANKS = {"A": (1, 60, 80), "B": (2, 30, 40), "C": (2, 30, 40), "D": (4, 30, 40),
                "E": (6, 8, 8), "F": (4, 4, 4), "G": (2, 2, 2)}


@st.composite
def any_family_type(draw) -> LieType:
    fam = draw(st.sampled_from(sorted(FAMILY_RANKS)))
    lo, hi, _ = FAMILY_RANKS[fam]
    return LieType(fam, draw(st.integers(lo, hi)))


def prewarm_larger(t: LieType) -> None:
    """Build t's family table at the family's larger rank before t is read."""
    prewarm_family(t.family, FAMILY_RANKS[t.family][2])
