"""knotrank: exact knot-invariant computations and rank-conjecture scans.

Diagrams are PD codes; invariants include Jones and Alexander/Conway
polynomials, five-route Arf computation, reduced/unreduced Khovanov
homology ranks over Q and prime fields, the A[X] deformation module with
its X-torsion orders, symmetric-union generators and a batch conjecture
scanner.
"""

from .algebra import (F2, F3, F211, QQ, CoefficientField, LaurentPolynomial,
                      QuotientClass, parse_field)
from .alexander import (ConwayPotential, alexander_polynomial,
                        conway_potential, signed_det)
from .arf import (ArfResult, arf, arf_from_alexander, arf_from_jones,
                  arf_from_jones_at_i, arf_from_jones_coeffs,
                  arf_from_levine)
from .corpus import corpus_knots, load_corpus
from .diagram import (Diagram, InvalidDiagram, connected_sum, crossing_change,
                      disjoint_union, is_planar, mirror, oriented_resolution,
                      parse_diagram_file, parse_diagram_lines, parse_pd)
from .jones import (JonesPolynomial, det_from_jones, jones, jones_at_i,
                    kauffman_bracket)
from .khovanov import (BigradedRanks, DeformedModule, KnotScan, ResourceLimit,
                       deformed_module, khovanov_pair, khovanov_ranks)
from .scanner import (KnotReport, compute_report, parse_report_jsonl,
                      render_csv, render_jsonl, scan, summarize)
from .symunion import (SymmetricUnionError, random_diagram,
                       random_symmetric_union, symmetric_union)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
