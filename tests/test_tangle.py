from pathlib import Path

from diagram_ops import disjoint_union
from knotrank._tangle import scan_order
from knotrank.corpus import load_corpus
from knotrank.diagram import mirror, parse_diagram_file
from scan_order_oracle import scan_order_recounted

POOL_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "symunion_pool.pd"


def test_scan_order_matches_recounted_oracle():
    # the kept slot counts pick the same crossing at every step as a full
    # recount: the corpus (knots, links, kinks), mirrors, a split link
    # and the 200-knot symmetric-union pool
    corpus = load_corpus()
    pool = parse_diagram_file(POOL_FILE.read_text())
    assert len(pool) == 200
    diagrams = [*corpus.values(), *pool,
                *(mirror(d) for d in corpus.values()),
                disjoint_union(corpus["3_1"], corpus["4_1"])]
    for d in diagrams:
        assert scan_order(d) == scan_order_recounted(d), d.name
