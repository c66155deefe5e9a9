"""The scan's crossing-local compose templates against templates glued
whole, on every triple and every dot mask that two scans meet."""

import pytest

from compose_oracle import compose_template_glued
from knotrank import khovanov
from knotrank.corpus import load_corpus
from knotrank.khovanov import KnotScan

@pytest.mark.parametrize("name", ("6_2", "18nh_00159590"))
def test_compose_templates_match_glued_oracle(monkeypatch, name):
    made = []
    crossing_local = khovanov._compose_template

    def recorded(ma, mb, mc, local=None):
        tmpl = crossing_local(ma, mb, mc, local)
        made.append((ma, mb, mc, tmpl))
        return tmpl

    monkeypatch.setattr(khovanov, "_compose_template", recorded)
    KnotScan(load_corpus()[name]).final_complex()
    masks = two_dots = 0
    for ma, mb, mc, (table, m1) in made:
        oracle, oracle_m1 = compose_template_glued(ma, mb, mc)
        assert m1 == oracle_m1
        for mask, [(lam1, lam2, terms)] in table.items():
            assert (lam1, lam2, terms) == (0, 0, oracle[mask]), (ma, mb, mc, mask)
            masks += 1
            two_dots += any((mask & bits).bit_count() == 2
                            for bits, _ in table.carried)
    # the tables are filled on use, so these are the masks the scan read;
    # some put a dot on both ends of a strip (1 of 10 on 6_2, 25 of 310
    # on 18nh_00159590), which must give one power of t
    assert masks and two_dots
