"""Virtual braid groups of type B: words, invariants, and certificates.

The package is organised bottom-up:

* :mod:`braidcert.scalars` -- exact arithmetic in Q(sqrt2);
* :mod:`braidcert.polyring` -- graded polynomials and linear substitutions;
* :mod:`braidcert.coxeter` -- the type-B reflection action, reflections and
  Demazure decomposition;
* :mod:`braidcert.freegroup` -- reduced free-group words, automorphisms and
  the Manturov invariant of virtual braid words;
* :mod:`braidcert.words` -- braid-word alphabets, parsing, relator tables and
  the doubling homomorphism into the shifted virtual braid group;
* :mod:`braidcert.bimodcalc` -- matrix presentations of Soergel-type
  bimodules, morphism verification and the degree-0 morphism solver;
* :mod:`braidcert.homotopy` -- bounded complexes of bimodules, chain-map and
  homotopy-equivalence search, and JSON certificates;
* :mod:`braidcert.cli` -- the ``braidcert`` command line tool.
"""

from .scalars import QSqrt2
from .polyring import LinearEndo, Poly
from .coxeter import Reflection, demazure_decompose, make_reflection
from .words import Alphabet, check_relators_via_invariant, parse_word, relator_table
from .homotopy import (
    F_word,
    certify_pair,
    find_chain_iso,
    find_homotopy_equiv,
    relation_certificates,
    verify_certificate_dict,
)

__all__ = [
    "QSqrt2",
    "Poly",
    "LinearEndo",
    "Reflection",
    "make_reflection",
    "demazure_decompose",
    "Alphabet",
    "parse_word",
    "relator_table",
    "check_relators_via_invariant",
    "F_word",
    "certify_pair",
    "find_chain_iso",
    "find_homotopy_equiv",
    "relation_certificates",
    "verify_certificate_dict",
]

__version__ = "0.1.0"
