"""The closed-form component expansions against iterated comultiplication."""

from frobenius_oracle import expansion
from knotrank.cobordism import open_expansion


def test_open_expansion_matches_recursion():
    # the formula itself, uncached: test_scans_keep_no_tables bounds the
    # cache by what scans fill
    expand = open_expansion.__wrapped__
    compared = nonzero = 0
    for genus in range(8):
        for dots in range(10):
            for m in range(11):
                got = expand(genus, dots, m)
                assert len(set(got)) == len(got)
                assert set(got) == set(expansion(genus, dots, m)), (genus, dots, m)
                compared += 1
                nonzero += bool(got)
    # the closed components with dots + genus even are the only zero ones
    assert (compared, nonzero) == (880, 880 - 40)
