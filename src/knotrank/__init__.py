"""knotrank: exact knot-invariant computations and rank-conjecture scans.

Diagrams are PD codes; invariants include Jones and Alexander/Conway
polynomials, five-route Arf computation, reduced/unreduced Khovanov
homology ranks over Q and prime fields, the A[X] deformation module with
its X-torsion orders, symmetric-union generators and a batch conjecture
scanner.

``knotrank.jones`` and ``knotrank.arf`` are functions, bound over their
submodules by the imports below, so those modules come from
``importlib.import_module``.
"""

from types import ModuleType as _ModuleType

from .algebra import (F2, F3, F211, QQ, CoefficientField, LaurentPolynomial,
                      mod_2_t4, parse_field)
from .alexander import ConwayPotential, alexander_polynomial, conway_potential
from .arf import (ArfResult, arf, arf_from_alexander, arf_from_jones,
                  arf_from_jones_at_i, arf_from_levine)
from .corpus import load_corpus
from .diagram import (Diagram, InvalidDiagram, connected_sum, mirror,
                      parse_diagram_file, parse_diagram_lines, parse_pd)
from .jones import det_from_jones, jones
from .khovanov import (BigradedRanks, DeformedModule, KnotScan, ResourceLimit,
                       deformed_module, khovanov_pair, khovanov_ranks)
from .scanner import (KnotReport, compute_report, parse_report_jsonl,
                      render_csv, render_jsonl, scan, summarize)
from .symunion import (SymmetricUnionError, random_diagram,
                       random_symmetric_union, symmetric_union)

# the submodules are bound here too, by the imports above
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
