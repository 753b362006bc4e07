"""Exhaustive boxes too slow for tier-1, with pinned verdict histograms.

Run with `python -m pytest tests/boxes.py` (pytest collects a file named on
the command line; the tier-1 run collects only `test_*.py`).  The normal
forms, and why each enumeration covers every algebra in its box, are in the
docstrings of `test_cross_check_exhaustive_class2_dim6` and
`test_cross_check_exhaustive_class3` in `test_verify.py`, which run the
small boxes in tier-1 with the same enumerators from `conftest`.

Wall time on one core of a 2-vCPU x86-64 machine (Python 3.11): about
5 s, 31 s and 56 s for the three boxes, 1.5 minutes in all.
"""

from conftest import box_verdicts, class2_pencils, class3_normal_forms

from liemult.fields import gf


def test_box_class2_gf2_dim7():
    """2 · 2^10 pencils on 5 generators; 2,044 of them have dim L^2 = 2."""
    assert box_verdicts(class2_pencils(gf(2), 7)) == {
        "L1": 720, "gen_heisenberg_rank2[dim 7]": 912, "L6_7_2 + A(1)": 370, "L5_8 + A(2)": 42,
    }


def test_box_class3_gf5_four_generators():
    """5^6 = 15,625 class-3 normal forms on 4 generators."""
    assert box_verdicts(class3_normal_forms(gf(5), 4)) == {
        "stem_class3_dim2[dim 6]": 12500, "L5_5 + A(1)": 3000, "L4_3 + A(2)": 125,
    }


def test_box_class2_gf5_dim6():
    """2 · 5^6 = 31,250 pencils on 4 generators; 31,240 of them have dim L^2 = 2."""
    assert box_verdicts(class2_pencils(gf(5), 6)) == {"L6_22": 30520, "L5_8 + A(1)": 720}
