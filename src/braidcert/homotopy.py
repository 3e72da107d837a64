"""Bounded cochain complexes of bimodules and machine-checked certificates.

A braid letter gets a two-term complex (positive crossing: twisted unit map
into the rank-two bimodule; negative crossing: multiplication out of it) and
a virtual letter the one-term complex holding the twisted bimodule.  Words
tensor these together with the Koszul sign ``d(x (x) y) = dx (x) y +
(-1)^p x (x) dy``; the rank-two piece of a positive letter sits in
cohomological degree 0, so positive letters live in degrees {-1, 0} and
negative ones in {0, 1}.  A run of virtual letters ``x1 ... xk`` enters as
one twist ``R_{x1...xk}``: twists compose, and right multiplication by a
polynomial has one matrix in a left basis, so this is the presentation
tensoring them one at a time writes, not only an isomorphic one.  The pieces
are folded left to right, because regrouping the tensor products would
reorder the bases and ``block_spans`` and so change the certificates.  A
rank-one factor on the left is the exception: it reorders no basis and keeps
the blocks (``bimodcalc.whisker``), so ``R_u (x) (X (x) Y)`` and
``(R_u (x) X) (x) Y`` are the same presentation.

Whiskers.  Each ``R_x`` is invertible (``R_x (x) R_{x^-1} = R``), so
``R_u (x) - (x) R_v`` is an autoequivalence: ``u w v`` and ``u w' v`` are
isomorphic, or homotopy equivalent, exactly when ``w`` and ``w'`` are, and a
certificate for the core pair whiskers to one for the whole pair.  A whisker
is a rewrite of ``F(w)``, one pass per object with no tensor product
(``_whiskered_complex``, ``bimodcalc.whisker``).  Each object keeps its basis
degrees and blocks.  The left whisker substitutes ``u`` into every entry of
every action and differential, as the rank-one ``id_tensor`` does; the twist
is a ring automorphism, so every identity carries over, and ``R_u`` sits in
degree 0, so no Koszul sign enters.  The result is the presentation
``F(u w)`` folds (the rank-one exception above).  The right whisker keeps
every basis degree, differential and map matrix, and turns the right action
of ``X_j`` into ``M``'s action of ``v(X_j) = sum_i c_ji X_i``, with ``c``
invertible.  So a family of matrices commutes with the actions of
``M (x) R_v`` exactly when it commutes with those of ``M``, and a
certificate passes its check on ``R_u (x) F(w) (x) R_v`` exactly when it
passes on ``R_u (x) F(w)``.  ``certify_pair`` strips the longest common
virtual prefix and suffix (either may be empty) and searches the core pair
once per process.  When the search finds a certificate, it keeps the core's
maps and its two complexes, and it whiskers both by ``u`` only, so no whole
word is folded again.  It then checks the result once per left context, on
``R_u (x) F(w)`` and ``R_u (x) F(w')``: the searches, ``graded_inverse``
included, do not check what they find, so this certificate check is the one
check, and a result that fails it is a ``RuntimeError``.  The checked
matrices are kept with the core in ``_CORE_CACHE``, one set per ``u``, and
serve every ``v``: a cached core's entry grows by one set per distinct left
context, and ``relation_certificates`` drops each entry it adds.
A search on the whole pair would give the same bytes under a right whisker;
under a left one it can give other, equally valid matrices, since the
echelon bases it picks depend on the coordinates the twist mixes.

Certificates are explicit per-degree matrices (a chain isomorphism with its
inverse, or a homotopy equivalence with both homotopies) whose defining
identities are re-verified exactly, entry by entry.  From search to check a
certificate is one maps dict, ``{field: {degree: Morphism}}`` in certificate
order, checked with its two complexes; ``_KIND_FIELDS`` is the one place each
kind's fields, the complexes they join and their degree shifts are written.
Each field, a chain map ``c_k -> d_k`` or a homotopy ``c_k -> c_{k-1}``, is
a plain ``{degree k: Morphism}`` dict read with the two complexes it joins,
and so is each chain map the searches solve for: a missing degree is the
zero morphism, and a check adds no product for it.  A missing differential
is zero in the same way: ``Complex.diffs`` holds only the nonzero ones, and
neither a check nor ``_delta`` adds a product for one it lacks.
Each check hands the factors of its composites to ``bimodcalc.mat_residuals``,
which compares unreduced sums and builds a residual only where an identity
fails; no composite is built to be compared.

Morphisms up to homotopy are ``H^0`` of the Hom complex: ``Hom^p(c, d)``
holds the degree-0 morphisms ``c_k -> d_{k+p}``, with differential
``delta h = d h - (-1)^p h d`` (``_delta``).  The search writes ``delta``
once, and ``_slot_vector`` and ``_equations`` make its three linear problems:
the chain maps ``Z^0 = ker delta`` on ``Hom^0`` (``chain_map_space``), the
null-homotopic maps ``B^0 = delta(Hom^-1)`` (``homotopy_classes``) and the
solve of ``g f + delta h = id`` (``_solve_homotopy_for``).  They are written
straight from the unreduced sums of the product kernel
(``_product_sums``), with no ``Poly`` built per entry.

The homotopy search is decided by ``H^0 Hom(c, d) = Z^0 / B^0``.  Every
word goes to an invertible complex, so ``H^0 End(F(w)) = End^0(R) = Q(sqrt2)``
is 1-dimensional (a test pins this for every short word).  If ``c`` and ``d``
are homotopy equivalent, ``H^0 Hom(c, d)`` is isomorphic to ``H^0 End(c)``, so
a pair whose ``H^0`` is not 1-dimensional is not homotopy equivalent.  When it
is, every chain map outside ``B^0`` is ``lambda f0`` plus a null-homotopic map
with ``lambda != 0``, so one exact solve on any of them decides: a solution
is the certificate, and an inconsistent system proves that ``c`` and ``d``
are not homotopy equivalent.  So a None from ``find_homotopy_equiv`` means
"not homotopy equivalent".  ``find_chain_iso`` probes each basis map of
``Z^0``, then one weighted sum of them; its None means only "not found".
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

from . import linalg
from .bimodcalc import (
    Bimodule,
    Matrix,
    Morphism,
    _add_products,
    _weighted_sum,
    bimodule_R,
    bimodule_Rw,
    bimodule_Bs,
    direct_sum,
    id_tensor,
    mat_identity,
    mat_residuals,
    mat_zero,
    shift,
    solve_morphisms,
    tensor,
    whisker,
    zero_bimodule,
)
from .coxeter import make_reflection
from .errors import ParseError
from .polyring import Poly, format_poly, parse_poly
from .words import REPORT_FORMAT, Alphabet, BraidWord, certified_relations, format_word, parse_word, split_common


class Complex:
    """A bounded cochain complex of bimodules with degree-0 differentials."""

    __slots__ = ("n", "objects", "diffs")

    def __init__(self, n: int, objects: dict, diffs: dict) -> None:
        self.n = n
        self.objects = {k: v for k, v in objects.items() if v.rank}
        self.diffs = {
            k: d for k, d in diffs.items() if d.source.rank and d.target.rank
        }

    def support(self) -> list:
        return sorted(self.objects)

    def object_at(self, k: int) -> Bimodule:
        return self.objects.get(k) or zero_bimodule(self.n)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}: rank {m.rank}" for k, m in sorted(self.objects.items()))
        return f"Complex({parts})"


def complex_failures(c: Complex) -> list:
    """Witnesses against d being a square-zero degree-0 morphism family."""
    failures = _tagged_failures("differential", c.diffs)
    for k in c.support():
        d1 = c.diffs.get(k)
        d2 = c.diffs.get(k + 1)
        if d1 is None or d2 is None:
            continue
        failures += [(k, "d.d != 0", *w) for w in mat_residuals(c.n, [d2.after(d1)])]
    return failures


# -- the functor on letters and words ----------------------------------------------


VIRTUAL_KINDS = ("z",)


def _is_virtual(letter) -> bool:
    return letter[0] in VIRTUAL_KINDS


@lru_cache(maxsize=None)
def _twist_complex(run: tuple, n: int) -> Complex:
    """The one-term complex ``R_w`` of a run ``w`` of virtual letter indices."""
    return Complex(n, {0: bimodule_Rw(run, n)}, {})


@lru_cache(maxsize=None)
def _letter_complex(kind: str, index: int, exp: int, n: int) -> Complex:
    if kind in VIRTUAL_KINDS:
        return _twist_complex((index,), n)
    if kind == "s":
        b = bimodule_Bs(make_reflection((index,), n))
        xi = Poly.variable(n, index)
        if exp == 1:
            src = shift(bimodule_R(n), 2)
            d = Morphism(src, b, [{0: xi}, {0: Poly.one(n)}])
            return Complex(n, {-1: src, 0: b}, {-1: d})
        src = shift(b, -2)
        tgt = shift(bimodule_R(n), -2)
        d = Morphism(src, tgt, [{0: Poly.one(n), 1: xi}])
        return Complex(n, {0: src, 1: tgt}, {0: d})
    raise ValueError(f"no complex for letter kind {kind!r}")


def _check_index(index: int, n: int) -> None:
    if not 0 <= index < n:
        raise IndexError(f"letter index {index} out of range for n={n}")


def F_letter(letter, n: int) -> Complex:
    kind, index, exp = letter
    _check_index(index, n)
    return _letter_complex(kind, index, exp, n)


def F_one(n: int) -> Complex:
    return Complex(n, {0: bimodule_R(n)}, {})


# a word's complex has total rank 3^(number of braid letters); longer words are refused
MAX_BRAID_LETTERS = 8


def _braid_signs(word) -> tuple:
    """``(p, q)``: how many positive and negative braid letters ``word`` has.

    ``F(word)`` is nonzero in exactly the degrees ``-p .. q``.  A word with
    more than ``MAX_BRAID_LETTERS`` braid letters is a ``ValueError`` that
    names it.
    """
    letters = word.letters if isinstance(word, BraidWord) else tuple(word)
    signs = [exp for kind, _, exp in letters if kind == "s"]
    if len(signs) > MAX_BRAID_LETTERS:
        text = format_word(word) if isinstance(word, BraidWord) else str(letters)
        raise ValueError(
            f"word {text!r} has {len(signs)} braid letters: its complex would have total rank "
            f"3^{len(signs)}, above the budget of 3^{MAX_BRAID_LETTERS}"
        )
    p = signs.count(1)
    return p, len(signs) - p


def pair_degrees(lhs, rhs) -> int:
    """How many degrees ``F(lhs)`` and ``F(rhs)`` span together, read from the words."""
    (p1, q1), (p2, q2) = _braid_signs(lhs), _braid_signs(rhs)
    return max(p1, p2) + max(q1, q2) + 1


def F_word(word, n: int) -> Complex:
    """The complex of a type-B word: the tensor of its letter complexes.

    A maximal run ``x1 ... xk`` of virtual letters is one piece, the twist
    ``R_{x1...xk}``, since ``R_x (x) R_y = R_{xy}``.  That is exact on
    presentations, not only up to isomorphism: right multiplication by a
    polynomial has one matrix in a left basis, so twisting by ``x`` and then
    by ``y`` writes the same matrices as twisting by ``xy`` once.  Braid
    letters are pieces of their own.  The pieces are folded from the left,
    starting from the first (an empty word is ``F_one``): tensor products
    grouped another way are isomorphic but order their bases and
    ``block_spans`` differently, and so would change the certificates.  A
    one-piece word returns its cached piece, so the result is read-only.

    A word with more than ``MAX_BRAID_LETTERS`` braid letters is a
    ``ValueError`` that names it, raised before any tensor product is built;
    a letter index out of range is an ``IndexError``, and a letter of any
    kind but ``s`` and ``z`` (the vbA ``sig`` and ``zet``) a ``ValueError``
    that names the kind.
    """
    _braid_signs(word)
    letters = word.letters if isinstance(word, BraidWord) else word
    pieces = []
    for virtual, group in itertools.groupby(letters, key=_is_virtual):
        if not virtual:
            pieces += (F_letter(letter, n) for letter in group)
            continue
        run = tuple(index for _, index, _ in group)
        for index in run:
            _check_index(index, n)
        pieces.append(_twist_complex(run, n))
    return reduce(tensor_complex, pieces) if pieces else F_one(n)


def tensor_complex(c: Complex, d: Complex) -> Complex:
    """Total complex of the product, with the Koszul sign on the second factor.

    Degree ``k`` is the direct sum of the blocks ``c_p (x) d_q`` with
    ``p + q = k``, in the order of ``p``; ``offsets[k]`` is its
    ``(p, q) -> offset`` table, the one ROADMAP item 2 would keep on
    ``Complex``.  Each entry of ``d_C (x) id`` and of ``(-1)^p id (x) d_D``
    is written once, straight into its degree's matrix at those offsets.
    """
    if c.n != d.n:
        raise ValueError("complexes over different variable counts")
    pairs: dict = {}
    for p in c.support():
        for q in d.support():
            pairs.setdefault(p + q, []).append((p, q))
    objects: dict = {}
    offsets: dict = {}
    for k, pq in pairs.items():
        blocks = [tensor(c.objects[p], d.objects[q]) for p, q in pq]
        offsets[k] = dict(zip(pq, itertools.accumulate((blk.rank for blk in blocks), initial=0)))
        objects[k] = direct_sum(blocks) if len(blocks) > 1 else blocks[0]
    diffs: dict = {}
    for k in sorted(pairs):
        if k + 1 not in pairs:
            continue
        matrix = mat_zero(objects[k + 1].rank)
        for p, q in pairs[k]:
            soff = offsets[k][(p, q)]
            if p in c.diffs:  # d_C (x) id into block (p+1, q): a plain Kronecker product
                r = d.objects[q].rank
                toff = offsets[k + 1][(p + 1, q)]
                for a2, row in enumerate(c.diffs[p].matrix):
                    for a, entry in row.items():
                        for b in range(r):
                            matrix[toff + a2 * r + b][soff + a * r + b] = entry
            if q in d.diffs:  # (-1)^p id (x) d_D into block (p, q+1)
                dq = d.diffs[q]
                toff = offsets[k + 1][(p, q + 1)]
                for i, row in enumerate(id_tensor(c.objects[p], dq.matrix, dq.source.rank)):
                    matrix[toff + i].update((soff + j, -e if p % 2 else e) for j, e in row.items())
        diffs[k] = Morphism(objects[k], objects[k + 1], matrix)
    return Complex(c.n, objects, diffs)


# -- chain maps ---------------------------------------------------------------------


def _tagged_failures(prefix: str, maps: dict) -> list:
    """``(degree, "prefix tag", row, col, residual)`` for each ``morphism_failures()`` witness of ``{degree: morphism}``."""
    return [(k, f"{prefix} {tag}", *w) for k, m in maps.items() for tag, *w in m.morphism_failures()]


def chain_map_failures(f: dict, c: Complex, d: Complex) -> list:
    """Witnesses against ``f``, a ``{degree: Morphism}`` dict, being a chain map ``c -> d``.

    Each component must be a bimodule map, and each square ``f d = d f``
    must commute.
    """
    failures = _tagged_failures("component", f)
    for k in sorted(set(c.objects) | set(d.objects)):
        lhs = [f[k + 1].after(c.diffs[k])] if k + 1 in f and k in c.diffs else []
        rhs = [d.diffs[k].after(f[k])] if k in f and k in d.diffs else []
        if lhs or rhs:
            failures += [(k, "square", *w) for w in mat_residuals(c.n, lhs, rhs)]
    return failures


def homotopy_failures(maps: dict, c: Complex, d: Complex) -> list:
    """Witnesses against the homotopy certificate ``maps`` being a homotopy equivalence ``c -> d``.

    Each field is a ``{degree: Morphism}`` dict; a missing homotopy is zero.
    ``g.f + dh + hd = id`` on ``c`` and ``f.g + dh + hd = id`` on ``d`` are
    checked exactly.
    """
    f, g = maps["forward"], maps["backward"]
    h_source, h_target = maps.get("homotopy_source", {}), maps.get("homotopy_target", {})
    failures = chain_map_failures(f, c, d) + chain_map_failures(g, d, c)
    failures += _tagged_failures("h_source", h_source) + _tagged_failures("h_target", h_target)
    sides = (("source: g.f", c, f, g, h_source), ("target: f.g", d, g, f, h_target))
    for side, cx, first, then, h in sides:
        tag = f"{side} + dh + hd != id"
        for k in cx.support():
            products = []
            if k in first and k in then:
                products.append(then[k].after(first[k]))
            if k in h and k - 1 in cx.diffs:
                products.append(cx.diffs[k - 1].after(h[k]))
            if k + 1 in h and k in cx.diffs:
                products.append(h[k + 1].after(cx.diffs[k]))
            ident = mat_identity(cx.objects[k].rank, cx.n)
            failures += [(k, tag, *w) for w in mat_residuals(cx.n, products, target=ident)]
    return failures


def chain_iso_failures(maps: dict, c: Complex, d: Complex) -> list:
    """An isomorphism is a homotopy equivalence whose ``backward`` is its ``inverse`` and whose homotopies are zero."""
    return homotopy_failures({"forward": maps["forward"], "backward": maps["inverse"]}, c, d)


# -- search -----------------------------------------------------------------------

# how many degrees a pair's complexes may span together for certify_pair to search it
DEGREE_BOUND = 8


def chain_map_space(c: Complex, d: Complex) -> list:
    """A basis of the space of degree-0 chain maps ``c -> d``: ``Z^0 = ker delta``.

    Per-degree morphism spaces are solved first; ``delta f = 0`` is then a
    small linear system over their coefficients.  Each map is a
    ``{degree: Morphism}`` dict.
    """
    basis, nvars = _hom_basis(c, d, 0, 0)
    rows = _equations((v, _delta(c, d, 0, k, b)) for v, k, b in basis)[0]
    return [_combine((vec.get(v), {k: b}) for v, k, b in basis) for vec in linalg.kernel_basis(rows, nvars)]


def _hom_basis(x: Complex, y: Complex, offset: int, start: int) -> tuple:
    """A numbered basis of ``Hom^offset(x, y)``: the morphisms ``x_k -> y_{k+offset}``.

    Returns ``[(variable, k, morphism)]`` over the support of ``x`` in degree
    order, with variables counted up from ``start``, and the next free
    variable.
    """
    basis: list = []
    for k in x.support():
        target = y.object_at(k + offset)
        if target.rank:
            for b in solve_morphisms(x.objects[k], target):
                basis.append((start + len(basis), k, b))
    return basis, start + len(basis)


def _delta(x: Complex, y: Complex, p: int, k: int, h: Morphism) -> dict:
    """``delta h = d h - (-1)^p h d`` for ``h: x_k -> y_{k+p}`` in ``Hom^p(x, y)``.

    Returns ``{source degree: sums}`` (see ``_product_sums``): ``d h`` starts
    in degree ``k`` and ``h d`` in degree ``k - 1``.  A differential the
    complexes lack is zero, so its product has no entry.
    """
    out = {}
    if k + p in y.diffs:
        out[k] = _product_sums(y.diffs[k + p].after(h))
    if k - 1 in x.diffs:
        out[k - 1] = hd = _product_sums(h.after(x.diffs[k - 1]))
        if p % 2 == 0:
            for row in hd:
                for acc in row.values():
                    for e, (a, b, c) in acc.items():
                        acc[e] = (-a, -b, c)
    return out


def _product_sums(factors: tuple) -> list:
    """The product of the matrix pair ``factors`` as sums, with no ``Poly`` built.

    One row per row of the product, ``{column: sums}``: each entry maps a
    packed exponent to an unreduced ``(p, q, d)`` sum, the format of
    ``Poly.terms`` without its reduction.
    """
    return [_add_products({}, (factors,), i) for i in range(len(factors[0]))]


def _poly_sums(matrix: Matrix) -> list:
    """A matrix of ``Poly`` entries in the form ``_product_sums`` returns: each entry's own terms, read-only."""
    return [{j: x.terms for j, x in row.items()} for row in matrix]


def _slot_vector(sums: dict) -> dict:
    """``{(degree, row, col, packed monomial): triple}`` of the non-zero coefficients of ``{degree: sums}``.

    ``sums`` is in the form ``_product_sums`` returns; its unreduced sums are
    the triples ``linalg`` takes.
    """
    return {
        (k, a, b, code): s
        for k, rows in sums.items()
        for a, row in enumerate(rows)
        for b, acc in row.items()
        for code, s in acc.items()
        if s[0] or s[1]
    }


def _equations(terms, target: dict | None = None) -> tuple:
    """The system "sum of variable-weighted per-degree matrices = ``target``".

    ``terms`` yields ``(variable, {degree: sums})``, one term per variable;
    ``target`` is ``{degree: sums}`` or None for zero, each in the form
    ``_product_sums`` returns.  Returns the parallel lists ``(rows, rhs)``
    for ``linalg``: one equation ``{variable: triple}`` per slot
    (``_slot_vector``) that a term or the target touches, in slot order.
    """
    slots: dict = {}
    for var, matrices in terms:
        for slot, coeff in _slot_vector(matrices).items():
            slots.setdefault(slot, {})[var] = coeff
    want = _slot_vector(target or {})
    order = sorted(slots.keys() | want.keys())
    return [slots.get(s, {}) for s in order], [want.get(s, (0, 0, 1)) for s in order]


def _combine(weighted) -> dict:
    """Per-degree sums of ``coeff * morphism`` over ``(coeff, {degree: morphism})``.

    A coefficient is a ``linalg`` triple, or None for zero; zero terms are
    skipped and degrees whose total is zero dropped: a missing degree is the
    zero morphism.  Each degree's entries are built once
    (``bimodcalc._weighted_sum``).
    """
    by_degree: dict = {}  # degree -> (a morphism there, [(coeff, matrix)])
    for coeff, components in weighted:
        if coeff is not None:
            for k, m in components.items():
                by_degree.setdefault(k, (m, []))[1].append((coeff, m.matrix))
    out = {}
    for k, (m, terms) in by_degree.items():
        matrix = _weighted_sum(m.source.n, m.target.rank, terms)
        if any(matrix):
            out[k] = Morphism(m.source, m.target, matrix)
    return out


def _graded_ranks_match(c: Complex, d: Complex) -> bool:
    if set(c.objects) != set(d.objects):
        return False
    for k, obj in c.objects.items():
        if sorted(obj.basis_degrees) != sorted(d.objects[k].basis_degrees):
            return False
    return True


def find_chain_iso(c: Complex, d: Complex, fb: list):
    """``{"forward": f, "inverse": g}``: a chain map ``f`` and its degreewise inverse ``g``, or None.

    ``fb`` is ``chain_map_space(c, d)``.  Probes each basis map, then one
    weighted sum of them (``_candidate_iter``), for a map whose every
    component inverts (decided degreewise by its constant part); the first
    hit wins.  ``graded_inverse`` is exact and checks nothing, and the
    degreewise inverse of a chain map is a chain map, so nothing is checked
    here either: the certificate check in ``certify_pair`` is the one check.
    Pairs whose graded ranks differ are not searched.
    """
    if not _graded_ranks_match(c, d):
        return None
    for f in _candidate_iter(fb):
        inverses: dict = {}
        for k in sorted(c.objects):
            inv = f[k].graded_inverse() if k in f else None
            if inv is None:
                break
            inverses[k] = inv
        else:
            return {"forward": f, "inverse": inverses}
    return None


def find_homotopy_equiv(c: Complex, d: Complex, fb: list):
    """A homotopy equivalence ``c -> d`` as a homotopy certificate's maps, or
    None when ``c`` and ``d`` are not homotopy equivalent.

    ``fb`` is ``chain_map_space(c, d)``.  The search is decided by
    ``H^0 Hom(c, d)`` (see the module doc).  If it is not 1-dimensional, no
    forward map exists and nothing is solved.  Otherwise the forward map is
    the first basis map outside ``B^0``, and one exact solve for the backward
    map and both homotopies decides.  The result is the exact solution of
    that solve, unchecked here (see ``_solve_homotopy_for``).
    """
    classes, dim = homotopy_classes(c, d, fb)
    if dim != 1:
        return None
    f = next(f for f, cls in zip(fb, classes) if cls)
    return _solve_homotopy_for(f, chain_map_space(d, c), c, d)


def homotopy_classes(c: Complex, d: Complex, fb: list) -> tuple:
    """The classes in ``H^0 Hom(c, d)`` of the chain maps ``fb``, and its dimension.

    ``fb`` is ``chain_map_space(c, d)``, a basis of the degree-0 chain maps
    ``Z^0``.  The null-homotopic ones ``B^0`` are spanned by ``delta h`` for
    ``h`` in a basis of ``Hom^-1(c, d)``.  A map is the slot vector of its
    components (see ``_slot_vector``), and its class is that vector reduced
    modulo ``B^0``: empty exactly when the map is null-homotopic.  The
    dimension of ``H^0`` is the rank of the classes.
    """
    ech = linalg._Echelon(_slot_vector(_delta(c, d, -1, k, h)) for _, k, h in _hom_basis(c, d, -1, 0)[0])
    classes = [ech.reduce(_slot_vector({k: _poly_sums(m.matrix) for k, m in f.items()})) for f in fb]
    return classes, sum(ech.insert(dict(v)) for v in classes)


def _candidate_iter(basis: list):
    """The isomorphism probes: each map of ``basis``, then their weighted sum."""
    yield from basis
    if len(basis) > 1:
        # a generic-looking weighted combination often hits the invertible locus
        primes = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        yield _combine(((primes[i % len(primes)], 0, 1), b) for i, b in enumerate(basis))


def _solve_homotopy_for(f: dict, gb: list, c: Complex, d: Complex):
    """The maps of the homotopy equivalence with forward map ``f: c -> d``, or None.

    ``gb`` is ``chain_map_space(d, c)``.  The unknowns are the
    coefficients ``y_j`` of ``gb``, then those of the source-side and the
    target-side bases of ``Hom^-1``; one exact solve of
    ``sum_j y_j (g_j f) + delta h = id`` on the source and
    ``sum_j y_j (f g_j) + delta h = id`` on the target finds them all.  The
    solution is returned as solved: ``certify_pair`` checks the certificate
    it writes, and a failed check is a ``RuntimeError`` there.
    """
    src_basis, nvars = _hom_basis(c, c, -1, len(gb))
    tgt_basis = _hom_basis(d, d, -1, nvars)[0]
    rows: list = []
    rhs: list = []
    sides = (
        (c, src_basis, lambda g: _composite_sums(g, f)),
        (d, tgt_basis, lambda g: _composite_sums(f, g)),
    )
    for cx, basis, composite in sides:
        terms = itertools.chain(
            ((j, composite(g)) for j, g in enumerate(gb)),
            ((v, _delta(cx, cx, -1, k, h)) for v, k, h in basis),
        )
        eqs, want = _equations(terms, {k: _poly_sums(mat_identity(obj.rank, cx.n)) for k, obj in cx.objects.items()})
        rows += eqs
        rhs += want
    solution = linalg.solve_affine(rows, rhs)
    if solution is None:
        return None
    h_src, h_tgt = (_combine((solution.get(v), {k: h}) for v, k, h in basis) for basis in (src_basis, tgt_basis))
    return {
        "forward": f,
        "backward": _combine((solution.get(j), g) for j, g in enumerate(gb)),
        "homotopy_source": h_src,
        "homotopy_target": h_tgt,
    }


def _composite_sums(second: dict, first: dict) -> dict:
    """``second`` after ``first``, two chain maps, as ``{degree: sums}`` (``_product_sums``).

    A degree that either map misses holds a zero composite and is left out.
    """
    return {k: _product_sums(second[k].after(first[k])) for k in second.keys() & first.keys()}


# -- certificates -------------------------------------------------------------------

CERTIFICATE_FORMAT = "braidcert.certificate.v1"


def _bare(maps: dict) -> dict:
    """``{field: {degree: (matrix, source rank)}}``: what a certificate prints of ``{field: {degree: Morphism}}``.

    The matrices are shared, not copied; no bimodule is kept.
    """
    return {field: {k: (m.matrix, m.source.rank) for k, m in comps.items()} for field, comps in maps.items()}


def _components_to_json(components: dict) -> list:
    """The JSON items of ``{degree: (matrix, source rank)}``, in degree order: dense rows of polynomial texts."""
    out = []
    for k in sorted(components):
        matrix, rank = components[k]
        out.append(
            {
                "degree": k,
                "matrix": [[format_poly(row[j]) if j in row else "0" for j in range(rank)] for row in matrix],
            }
        )
    return out


def _components_from_json(cert: dict, field: str, source: Complex, target: Complex, shift_by: int = 0):
    """The morphisms stored under ``cert[field]``.

    The JSON matrices are dense lists of rows.  A repeated degree or a matrix
    of the wrong shape is a ``ValueError`` that names the certificate, field
    and degree.
    """
    comps = {}
    for item in cert[field]:
        k = item["degree"]
        where = f"certificate {cert['relation']!r}, {field}, degree {k}"
        if k in comps:
            raise ValueError(f"{where}: the degree appears more than once")
        rows = item["matrix"]
        matrix = _parse_matrix(rows, source.n, where)
        src, tgt = source.object_at(k), target.object_at(k + shift_by)
        if len(rows) != tgt.rank or any(len(row) != src.rank for row in rows):
            raise ValueError(
                f"{where}: matrix shape {len(rows)}x{len(rows[0]) if rows else 0} "
                f"does not map rank {src.rank} into rank {tgt.rank}"
            )
        comps[k] = Morphism(src, tgt, matrix)
    return comps


def _parse_matrix(rows: list, n: int, where: str) -> Matrix:
    """The sparse matrix of a dense JSON matrix of polynomial texts.

    Each distinct text is parsed once and its ``Poly`` shared by every entry
    that repeats it (most entries are ``"0"``); nothing mutates a ``Poly``
    once built, so the sharing is safe.  A ``ParseError`` names ``where`` and
    the (row, col) of the first bad entry in row-major order.
    """
    parsed: dict = {}
    matrix: Matrix = []
    try:
        for i, row in enumerate(rows):
            out: dict = {}
            for j, text in enumerate(row):
                entry = parsed.get(text)
                if entry is None:
                    entry = parsed[text] = parse_poly(text, n)
                if entry:
                    out[j] = entry
            matrix.append(out)
    except ParseError as exc:
        raise ParseError(f"{where}, entry ({i},{j}): {exc.message}", exc.text, exc.position) from None
    return matrix


def _certificate(label: str, n: int, lhs: BraidWord, rhs: BraidWord, kind: str, **maps) -> dict:
    """The certificate header, then each named map's components in the given order.

    Each map is ``{degree: (matrix, source rank)}``, as ``_bare`` gives it.
    """
    return {
        "format": CERTIFICATE_FORMAT,
        "relation": label,
        "kind": kind,
        "group": "vbB",
        "n": n,
        "words": [format_word(lhs), format_word(rhs)],
        **{key: _components_to_json(components) for key, components in maps.items()},
    }


# each kind's certificate fields, in order: (field, source side, target side,
# degree shift); side 0 is the lhs complex, side 1 the rhs
_KIND_FIELDS = {
    "iso": (("forward", 0, 1, 0), ("inverse", 1, 0, 0)),
    "homotopy": (("forward", 0, 1, 0), ("backward", 1, 0, 0), ("homotopy_source", 0, 0, -1), ("homotopy_target", 1, 1, -1)),
}


def _certificate_failures(kind: str, maps: dict, c: Complex, d: Complex) -> list:
    """The exact check of a certificate's ``maps`` between ``c`` and ``d``."""
    return (chain_iso_failures if kind == "iso" else homotopy_failures)(maps, c, d)


def verify_certificate_dict(data: dict) -> tuple:
    """Re-verify a serialized certificate from scratch; (ok, failure list)."""
    if data.get("format") != CERTIFICATE_FORMAT:
        return False, [(None, "format", None, None, str(data.get("format")))]
    kind = data.get("kind")
    if type(kind) is not str or kind not in _KIND_FIELDS:
        return False, [(None, "kind", None, None, str(kind))]
    n = data["n"]
    ab = Alphabet.vbB(n)
    sides = []
    for i in (0, 1):
        try:
            word = parse_word(data["words"][i], ab)
        except ParseError as exc:
            where = f"certificate {data['relation']!r}, words[{i}]"
            raise ParseError(f"{where}: {exc.message}", exc.text, exc.position) from None
        sides.append(F_word(word, n))
    maps = {
        field: _components_from_json(data, field, sides[s], sides[t], degree_shift)
        for field, s, t, degree_shift in _KIND_FIELDS[kind]
    }
    failures = _certificate_failures(kind, maps, *sides)
    return not failures, failures


def _search(c: Complex, d: Complex, kind: str):
    """``(kind found, {field: {degree: morphism}})`` for ``c`` and ``d``, or None.

    Mode 'auto' tries an isomorphism first; both modes then decide homotopy
    equivalence, so None means "not homotopy equivalent".  The fields are a
    certificate's maps, in its order.
    """
    fb = chain_map_space(c, d)
    if kind == "auto":
        found = find_chain_iso(c, d, fb)
        if found is not None:
            return "iso", found
    found = find_homotopy_equiv(c, d, fb)
    return None if found is None else ("homotopy", found)


# the modes of certify_pair
PAIR_KINDS = ("auto", "homotopy")

# (core lhs letters, core rhs letters, n, kind) -> None, or the kind found,
# the maps as ``_search`` returns them, the core's two complexes and
# ``{u: maps}``: for each left context ``u`` checked so far, the core's maps
# whiskered by ``u`` as ``_bare`` keeps them.  Kept for the process, like
# bimodcalc's pane cache, so all of it is read-only
_CORE_CACHE: dict = {}


def _twist(letters: tuple, n: int):
    """The cached ``R_w`` of a virtual word, or None for the empty word."""
    return _twist_complex(tuple(index for _, index, _ in letters), n).objects[0] if letters else None


def _whiskered_complex(core: Complex, u: tuple, n: int) -> Complex:
    """``F(u w)`` from ``core = F(w)``: ``R_u (x) F(w)`` for a virtual ``u``.

    One pass over ``core``, with no tensor product (module doc): the same
    presentation ``F_word`` folds, block spans included.  With ``u`` empty
    it is ``core`` itself.
    """
    if not u:
        return core
    left = _twist(u, n)
    objects = {k: whisker(left, m, None) for k, m in core.objects.items()}
    diffs = {
        k: Morphism(objects[k], objects[k + 1], id_tensor(left, d.matrix, d.source.rank))
        for k, d in core.diffs.items()
    }
    return Complex(n, objects, diffs)


def _whiskered(kind: str, core_maps: dict, u: tuple, n: int, c: Complex, d: Complex) -> dict:
    """The core ``kind`` certificate's ``core_maps`` as maps between ``c = F(u lhs)`` and ``d = F(u rhs)``.

    ``id_{R_u} (x) -`` twists every entry as ``id_tensor`` does for the
    differentials of ``R_u (x) F(w)``.  A right whisker ``- (x) id_{R_v}``
    would keep every matrix, so these are the maps of ``u lhs v`` and
    ``u rhs v`` too.
    """
    twist = _twist(u, n)
    sides = (c, d)
    maps = {}
    for field, s, t, degree_shift in _KIND_FIELDS[kind]:
        maps[field] = comps = {}
        for k, m in core_maps[field].items():
            src = sides[s].object_at(k)
            matrix = m.matrix if twist is None else id_tensor(twist, m.matrix, src.rank)
            comps[k] = Morphism(src, sides[t].object_at(k + degree_shift), matrix)
    return maps


def certify_pair(lhs: BraidWord, rhs: BraidWord, n: int, kind: str = "auto", label: str | None = None):
    """Certify that two words have homotopy equivalent complexes.

    ``kind`` is 'auto' (an isomorphism if one is found, else a homotopy
    equivalence) or 'homotopy'; anything else is a ``ValueError``.  Returns
    ``(kind found, certificate dict)``, or ``(None, reason)``: "not searched"
    when the complexes span more than ``DEGREE_BOUND`` degrees between them
    (read from the words, before either complex is built), and otherwise
    "not homotopy equivalent".  ``label`` names the relation in the
    certificate; it defaults to ``"<lhs> ~ <rhs>"``.

    Every pair takes one path.  The common virtual prefix ``u`` and suffix
    ``v`` are whiskers (module doc): the core pair is searched once per
    process and kind, and its maps pass the exact check on
    ``R_u (x) F(w) (x) R_v`` exactly when they pass on ``R_u (x) F(w)``,
    with the same matrices.  So they are whiskered by ``u`` and checked
    there, once per core, ``n``, kind and ``u``; one that fails is a
    ``RuntimeError``, never a None (the searches check nothing).  The
    checked matrices stay in the core's ``_CORE_CACHE`` entry, one set per
    distinct ``u`` (``relation_certificates`` drops each entry it adds), so
    a request that differs only in ``v`` neither whiskers nor checks again.
    A core with no certificate caches only its ``None``.
    """
    if kind not in PAIR_KINDS:
        raise ValueError(f"unknown kind {kind!r}: expected one of {', '.join(PAIR_KINDS)}")
    degrees = pair_degrees(lhs, rhs)
    if degrees > DEGREE_BOUND:
        return None, f"not searched: the pair spans {degrees} degrees, above DEGREE_BOUND = {DEGREE_BOUND}"
    if label is None:
        label = f"{format_word(lhs)} ~ {format_word(rhs)}"
    u, core_lhs, core_rhs, v = split_common(lhs.letters, rhs.letters, _is_virtual)
    for _, index, _ in u + v:
        _check_index(index, n)  # a NONE core builds no whisker to check them
    key = (core_lhs, core_rhs, n, kind)
    if key not in _CORE_CACHE:
        core = F_word(core_lhs, n), F_word(core_rhs, n)
        found = _search(*core, kind)
        _CORE_CACHE[key] = found and (*found, core, {})
    found = _CORE_CACHE[key]
    if found is None:
        return None, "not homotopy equivalent"
    found_kind, core_maps, core, checked = found
    if u not in checked:
        c, d = (_whiskered_complex(x, u, n) for x in core)
        maps = _whiskered(found_kind, core_maps, u, n, c, d)
        failures = _certificate_failures(found_kind, maps, c, d)
        if failures:
            raise RuntimeError(f"the certificate for {label!r} fails its check: {failures[0]}")
        checked[u] = _bare(maps)
    return found_kind, _certificate(label, n, lhs, rhs, found_kind, **checked[u])


def relation_certificates(n: int) -> dict:
    """Certificates for every defining relation of the type-B virtual braid group.

    Each pair of ``words.certified_relations(n)``, in its order, certified
    by ``certify_pair`` in 'auto' mode.  An entry's kind is the kind found;
    a failed entry records "homotopy", the last search 'auto' runs.  No two
    entries share a core, so each drops what it added to ``_CORE_CACHE``
    (the newest keys, since a dict pops in reverse insertion order) and the
    report keeps no complex alive after its entry.
    """
    results = []
    for rel in certified_relations(n):
        cached = len(_CORE_CACHE)
        kind, cert = certify_pair(rel.lhs, rel.rhs, n, label=rel.label)
        while len(_CORE_CACHE) > cached:
            _CORE_CACHE.popitem()
        results.append(
            {
                "relation": rel.label,
                "kind": kind or "homotopy",
                "status": "certified" if kind else "failed",
                "certificate": cert if kind else None,
            }
        )
    return {
        "format": REPORT_FORMAT,
        "kind": "relation-certificates",
        "group": "vbB",
        "n": n,
        "all_certified": all(r["certificate"] is not None for r in results),
        "results": results,
    }
