"""Bounded cochain complexes of bimodules and machine-checked certificates.

A braid letter gets a two-term complex (positive crossing: twisted unit map
into the rank-two bimodule; negative crossing: multiplication out of it) and
a virtual letter the one-term complex holding the twisted bimodule.  Words
tensor these together with the Koszul sign ``d(x (x) y) = dx (x) y +
(-1)^p x (x) dy``; the rank-two piece of a positive letter sits in
cohomological degree 0, so positive letters live in degrees {-1, 0} and
negative ones in {0, 1}.

Certificates are explicit per-degree matrices (a chain isomorphism with its
inverse, or a homotopy equivalence with both homotopies) whose defining
identities are re-verified exactly, entry by entry.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import linalg
from .bimodcalc import (
    Bimodule,
    Matrix,
    Morphism,
    affine_rows,
    affine_slots,
    bimodule_R,
    bimodule_Rw,
    bimodule_Bs,
    direct_sum,
    id_tensor,
    mat_add,
    mat_identity,
    mat_mul,
    mat_paste,
    mat_residuals,
    mat_zero,
    shift,
    solve_morphisms,
    tensor,
    zero_bimodule,
)
from .coxeter import make_reflection
from .errors import ParseError
from .polyring import Poly, format_poly, parse_poly
from .scalars import ONE, QSqrt2
from .words import REPORT_FORMAT, Alphabet, BraidWord, format_word, parse_word, relator_table


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

    def diff_at(self, k: int) -> Morphism:
        d = self.diffs.get(k)
        if d is None:
            return Morphism.zero(self.object_at(k), self.object_at(k + 1))
        return d

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}: rank {m.rank}" for k, m in sorted(self.objects.items()))
        return f"Complex({parts})"


def complex_failures(c: Complex) -> list:
    """Witnesses against d being a square-zero degree-0 morphism family."""
    failures = []
    for k, d in c.diffs.items():
        for tag, row, col, res in d.morphism_failures():
            failures.append((k, f"differential {tag}", row, col, res))
    for k in c.support():
        d1 = c.diffs.get(k)
        d2 = c.diffs.get(k + 1)
        if d1 is None or d2 is None:
            continue
        dd = d2.compose(d1).matrix
        failures += [(k, "d.d != 0", *w) for w in mat_residuals(dd, mat_zero(len(dd)))]
    return failures


# -- the functor on letters and words ----------------------------------------------


@lru_cache(maxsize=None)
def _letter_complex(kind: str, index: int, exp: int, n: int) -> Complex:
    if kind in ("z", "zet"):
        return Complex(n, {0: bimodule_Rw((index,), n)}, {})
    if kind in ("s", "sig"):
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


def F_letter(letter, n: int) -> Complex:
    kind, index, exp = letter
    if not 0 <= index < n:
        raise IndexError(f"letter index {index} out of range for n={n}")
    return _letter_complex(kind, index, exp, n)


def F_one(n: int) -> Complex:
    return Complex(n, {0: bimodule_R(n)}, {})


# a word's complex has total rank 3^(number of braid letters); longer words are refused
MAX_BRAID_LETTERS = 8


def F_word(word, n: int) -> Complex:
    """The complex of a type-B word: the tensor of its letter complexes.

    A word with more than ``MAX_BRAID_LETTERS`` braid letters is a
    ``ValueError`` that names it, raised before any tensor product is built.
    """
    letters = word.letters if isinstance(word, BraidWord) else tuple(word)
    braid = sum(kind in ("s", "sig") for kind, _, _ in letters)
    if braid > MAX_BRAID_LETTERS:
        text = format_word(word) if isinstance(word, BraidWord) else str(letters)
        raise ValueError(
            f"word {text!r} has {braid} braid letters: its complex would have total rank "
            f"3^{braid}, above the budget of 3^{MAX_BRAID_LETTERS}"
        )
    result = F_one(n)
    for letter in letters:
        result = tensor_complex(result, F_letter(letter, n))
    return result


def _morphism_tensor_id(f: Morphism, right: Bimodule) -> Matrix:
    """Matrix of ``f (x) id`` (plain Kronecker with the identity)."""
    r = right.rank
    out = mat_zero(f.target.rank * r)
    for a2, row in enumerate(f.matrix):
        for a, entry in row.items():
            for b in range(r):
                out[a2 * r + b][a * r + b] = entry
    return out


def tensor_complex(c: Complex, d: Complex) -> Complex:
    """Total complex of the product, with the Koszul sign on the second factor."""
    if c.n != d.n:
        raise ValueError("complexes over different variable counts")
    n = c.n
    pairs: dict = {}
    for p in c.support():
        for q in d.support():
            pairs.setdefault(p + q, []).append((p, q))
    for k in pairs:
        pairs[k].sort()
    objects: dict = {}
    offsets: dict = {}
    for k, pq in pairs.items():
        blocks = [tensor(c.objects[p], d.objects[q]) for p, q in pq]
        off: dict = {}
        pos = 0
        for (p, q), blk in zip(pq, blocks):
            off[(p, q)] = pos
            pos += blk.rank
        offsets[k] = off
        objects[k] = direct_sum(blocks) if len(blocks) > 1 else blocks[0]
    diffs: dict = {}
    for k in sorted(pairs):
        if k + 1 not in pairs:
            continue
        src, tgt = objects[k], objects[k + 1]
        matrix = mat_zero(tgt.rank)
        for p, q in pairs[k]:
            soff = offsets[k][(p, q)]
            # d_C (x) id into block (p+1, q)
            if (p + 1, q) in offsets[k + 1] and (p in c.diffs):
                block = _morphism_tensor_id(c.diffs[p], d.objects[q])
                toff = offsets[k + 1][(p + 1, q)]
                mat_paste(matrix, block, toff, soff)
            # (-1)^p id (x) d_D into block (p, q+1)
            if (p, q + 1) in offsets[k + 1] and (q in d.diffs):
                dq = d.diffs[q]
                block = id_tensor(c.objects[p], dq.matrix, dq.source.rank)
                if p % 2:
                    block = [{j: -e for j, e in row.items()} for row in block]
                toff = offsets[k + 1][(p, q + 1)]
                mat_paste(matrix, block, toff, soff)
        diffs[k] = Morphism(src, tgt, matrix)
    return Complex(n, objects, diffs)


# -- chain maps ---------------------------------------------------------------------


class ChainMap:
    """Per-degree morphisms commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Complex, target: Complex, components: dict) -> None:
        self.source = source
        self.target = target
        self.components = {
            k: f for k, f in components.items() if f.source.rank and f.target.rank
        }

    def component(self, k: int) -> Morphism:
        f = self.components.get(k)
        if f is None:
            return Morphism.zero(self.source.object_at(k), self.target.object_at(k))
        return f

    def compose(self, other: "ChainMap") -> "ChainMap":
        degrees = set(self.components) | set(other.components)
        comps = {
            k: self.component(k).compose(other.component(k)) for k in degrees
        }
        return ChainMap(other.source, self.target, comps)

    def __repr__(self) -> str:
        return f"ChainMap(degrees={sorted(self.components)})"


def chain_map_failures(f: ChainMap) -> list:
    failures = []
    for k, comp in f.components.items():
        for tag, row, col, res in comp.morphism_failures():
            failures.append((k, f"component {tag}", row, col, res))
    degrees = set(f.source.objects) | set(f.target.objects)
    for k in sorted(degrees):
        lhs = f.component(k + 1).compose(f.source.diff_at(k))
        rhs = f.target.diff_at(k).compose(f.component(k))
        failures += [(k, "square", *w) for w in mat_residuals(lhs.matrix, rhs.matrix)]
    return failures


class HomotopyEquivalence:
    """Chain maps both ways plus homotopies contracting both composites.

    ``h_source[k]`` maps degree ``k`` of the source to degree ``k-1``; the
    identities ``id - g.f = d h + h d`` (and the mirror on the target side)
    are checked exactly.
    """

    __slots__ = ("forward", "backward", "h_source", "h_target")

    def __init__(self, forward: ChainMap, backward: ChainMap, h_source: dict, h_target: dict) -> None:
        self.forward = forward
        self.backward = backward
        self.h_source = h_source
        self.h_target = h_target


def homotopy_failures(cert: HomotopyEquivalence) -> list:
    f, g = cert.forward, cert.backward
    failures = chain_map_failures(f) + chain_map_failures(g)
    for name, h in (("h_source", cert.h_source), ("h_target", cert.h_target)):
        for k, hk in h.items():
            failures += [(k, f"{name} {tag}", *w) for tag, *w in hk.morphism_failures()]
    # g.f + dh + hd = id on the source complex, f.g + dh + hd = id on the target
    sides = (("source: g.f", f, g, cert.h_source), ("target: f.g", g, f, cert.h_target))
    for side, first, then, h in sides:
        c = first.source
        tag = f"{side} + dh + hd != id"
        for k in c.support():
            terms = []
            if first.target.object_at(k).rank:
                terms.append(then.component(k).compose(first.component(k)))
            hk = h.get(k)
            if hk is not None and c.object_at(k - 1).rank:
                terms.append(c.diff_at(k - 1).compose(hk))
            hk1 = h.get(k + 1)
            if hk1 is not None and c.object_at(k + 1).rank:
                terms.append(hk1.compose(c.diff_at(k)))
            rank = c.objects[k].rank
            acc = mat_zero(rank)
            for term in terms:
                acc = mat_add(acc, term.matrix)
            failures += [(k, tag, *w) for w in mat_residuals(acc, mat_identity(rank, c.n))]
    return failures


def chain_iso_failures(f: ChainMap, g: ChainMap) -> list:
    """An isomorphism is a homotopy equivalence whose homotopies are zero."""
    return homotopy_failures(HomotopyEquivalence(f, g, {}, {}))


# -- search -----------------------------------------------------------------------

# probe caps: how many combinations each search tries, and how many nonzero
# degrees the homotopy search takes
MAX_ISO_CANDIDATES = 4000
MAX_HOMOTOPY_CANDIDATES = 200
DEGREE_BOUND = 8


def chain_map_space(c: Complex, d: Complex) -> list:
    """A basis of the space of degree-0 chain maps ``c -> d``.

    Per-degree morphism spaces are solved first; the commutation with the
    differentials is then a small linear system over their coefficients.
    """
    degrees = sorted(set(c.objects) | set(d.objects))
    per_degree: dict = {}  # degree -> [(variable, basis morphism)]
    nvars = 0
    for k in degrees:
        ck, dk = c.object_at(k), d.object_at(k)
        basis = solve_morphisms(ck, dk) if ck.rank and dk.rank else []
        per_degree[k] = list(enumerate(basis, nvars))
        nvars += len(basis)
    if nvars == 0:
        return []
    rows: list = []
    for k in degrees:
        # d_D o f_k + f_{k+1} o (-d_C) = 0   as maps C_k -> D_{k+1}
        if not (c.object_at(k).rank and d.object_at(k + 1).rank):
            continue
        dd = d.diff_at(k)
        minus_dc = [{j: -e for j, e in row.items()} for row in c.diff_at(k).matrix]
        terms = [(v, dd.compose(b).matrix) for v, b in per_degree[k]]
        terms += [(v, mat_mul(b.matrix, minus_dc)) for v, b in per_degree.get(k + 1, [])]
        rows += affine_rows(affine_slots(terms))[0]
    return [
        ChainMap(c, d, _combine((vec.get(v), {k: b}) for k in degrees for v, b in per_degree[k]))
        for vec in linalg.kernel_basis(rows, nvars)
    ]


def _combine(weighted) -> dict:
    """Per-degree sums of ``coeff * morphism`` over ``(coeff, {degree: morphism})``.

    Zero coefficients are skipped and degrees whose total is zero dropped; a
    missing degree reads as the zero morphism in ``ChainMap.component`` and in
    the verifier.
    """
    totals: dict = {}
    for coeff, components in weighted:
        if not coeff:
            continue
        for k, m in components.items():
            piece = m.scale(coeff)
            cur = totals.get(k)
            totals[k] = piece if cur is None else cur + piece
    return {k: m for k, m in totals.items() if not m.is_zero()}


def _combo_candidates(dim: int):
    """Deterministic coefficient vectors to probe a solution space with."""
    if dim == 0:
        return
    for i in range(dim):
        yield {i: ONE}
    if dim > 1:
        # a generic-looking weighted combination often hits the invertible locus
        primes = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        yield {i: QSqrt2(primes[i % len(primes)]) for i in range(dim)}
    for size in (2, 3):
        if size > dim:
            break
        for combo in itertools.combinations(range(dim), size):
            for signs in itertools.product((1, -1), repeat=size - 1):
                coeffs = {combo[0]: ONE}
                for idx, sgn in zip(combo[1:], signs):
                    coeffs[idx] = QSqrt2(sgn)
                yield coeffs


def _graded_ranks_match(c: Complex, d: Complex) -> bool:
    if set(c.objects) != set(d.objects):
        return False
    for k, obj in c.objects.items():
        if sorted(obj.basis_degrees) != sorted(d.objects[k].basis_degrees):
            return False
    return True


def find_chain_iso(c: Complex, d: Complex):
    """A chain isomorphism with verified inverse, or None.

    Searches the finite-dimensional chain-map space for an element whose
    every component inverts (decided degreewise by its constant part);
    deterministic order, first hit wins among ``MAX_ISO_CANDIDATES`` probes.
    """
    if not _graded_ranks_match(c, d):
        return None
    for f in _candidate_iter(chain_map_space(c, d), MAX_ISO_CANDIDATES):
        inverses: dict = {}
        for k in sorted(c.objects):
            inv = f.component(k).graded_inverse()
            if inv is None:
                break
            inverses[k] = inv
        else:
            g = ChainMap(d, c, inverses)
            if not chain_iso_failures(f, g):
                return f, g
    return None


def find_homotopy_equiv(c: Complex, d: Complex):
    """A verified homotopy equivalence certificate, or None.

    For each of the first ``MAX_HOMOTOPY_CANDIDATES`` probe forward maps the
    remaining data (backward map and both homotopies) satisfies a linear
    system, solved exactly; the first candidate admitting a solution wins.
    Pairs with more than ``DEGREE_BOUND`` nonzero degrees are not searched.
    """
    if len(set(c.objects) | set(d.objects)) > DEGREE_BOUND:
        return None
    fb = chain_map_space(c, d)
    gb = chain_map_space(d, c)
    # unknowns: the coefficients of the backward basis ``gb``, then those of
    # the source-side and the target-side homotopy bases, degree by degree.
    # The ``dh + hd`` equations do not depend on the candidate, so they are
    # built here once; each candidate only adds its ``g_j f`` / ``f g_j`` terms.
    nvars = len(gb)
    sides = []  # per side: (complex, degree -> [(variable, basis homotopy)], degree -> dh + hd slots)
    for cx in (c, d):
        h: dict = {}
        for k in cx.support():
            below = cx.object_at(k - 1)
            basis = solve_morphisms(cx.objects[k], below) if below.rank else []
            h[k] = list(enumerate(basis, nvars))
            nvars += len(basis)
        dh_hd = {
            k: affine_slots(
                [(v, cx.diff_at(k - 1).compose(hk).matrix) for v, hk in h.get(k, [])]
                + [(v, hk.compose(cx.diff_at(k)).matrix) for v, hk in h.get(k + 1, [])]
            )
            for k in cx.support()
        }
        sides.append((cx, h, dh_hd))
    for f in _candidate_iter(fb, MAX_HOMOTOPY_CANDIDATES):
        cert = _solve_homotopy_for(f, gb, sides)
        if cert is not None:
            return cert
    return None


def _candidate_iter(basis: list, limit: int):
    """The first ``limit`` probe combinations of ``basis``, built lazily."""
    for coeffs in itertools.islice(_combo_candidates(len(basis)), limit):
        comps = _combine((coeff, basis[i].components) for i, coeff in coeffs.items())
        yield ChainMap(basis[0].source, basis[0].target, comps)


def _solve_homotopy_for(f: ChainMap, gb: list, sides: list):
    """The homotopy equivalence with forward map ``f``, or None (see ``find_homotopy_equiv``)."""
    rows: list = []
    rhs: list = []
    # source side: sum_j y_j (g_j f)_k + (dh + hd)_k = id
    # target side: sum_j y_j (f g_j)_k + (dh + hd)_k = id
    for (cx, _, dh_hd), f_first in zip(sides, (False, True)):
        for k, fixed in dh_hd.items():
            fk = f.component(k)
            terms = []
            for j, g in enumerate(gb):
                gk = g.component(k)
                prod = fk.compose(gk) if f_first else gk.compose(fk)
                terms.append((j, prod.matrix))
            slots = affine_slots(terms)
            for key, eq in fixed.items():  # the variables are disjoint, so merging adds
                slots[key] = {**slots[key], **eq} if key in slots else eq
            eqs, want = affine_rows(slots, mat_identity(cx.objects[k].rank, cx.n))
            rows += eqs
            rhs += want
    solution = linalg.solve_affine(rows, rhs)
    if solution is None:
        return None
    (c, _, _), (d, _, _) = sides
    g_map = ChainMap(d, c, _combine((solution.get(j), g.components) for j, g in enumerate(gb)))
    h_src, h_tgt = (
        _combine((solution.get(v), {k: hk}) for k, pairs in h.items() for v, hk in pairs)
        for _, h, _ in sides
    )
    cert = HomotopyEquivalence(f, g_map, h_src, h_tgt)
    if homotopy_failures(cert):
        return None
    return cert


# -- certificates -------------------------------------------------------------------

CERTIFICATE_FORMAT = "braidcert.certificate.v1"

# which defining relations need the homotopy search rather than an on-the-nose
# isomorphism: the braid relations among the positive crossings
_HOMOTOPY_LABELS = ("relB2", "relB3")


def _components_to_json(components: dict) -> list:
    out = []
    for k in sorted(components):
        m = components[k]
        cols = range(m.source.rank)
        out.append(
            {
                "degree": k,
                "matrix": [[format_poly(row[j]) if j in row else "0" for j in cols] for row in m.matrix],
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
    """The certificate header, then each named map's components in the given order."""
    return {
        "format": CERTIFICATE_FORMAT,
        "relation": label,
        "kind": kind,
        "group": "vbB",
        "n": n,
        "words": [format_word(lhs), format_word(rhs)],
        **{key: _components_to_json(components) for key, components in maps.items()},
    }


def iso_certificate(label: str, n: int, lhs: BraidWord, rhs: BraidWord, f: ChainMap, g: ChainMap) -> dict:
    return _certificate(label, n, lhs, rhs, "iso", forward=f.components, inverse=g.components)


def homotopy_certificate(label: str, n: int, lhs: BraidWord, rhs: BraidWord, cert: HomotopyEquivalence) -> dict:
    return _certificate(
        label, n, lhs, rhs, "homotopy",
        forward=cert.forward.components, backward=cert.backward.components,
        homotopy_source=cert.h_source, homotopy_target=cert.h_target,
    )


def verify_certificate_dict(data: dict) -> tuple:
    """Re-verify a serialized certificate from scratch; (ok, failure list)."""
    if data.get("format") != CERTIFICATE_FORMAT:
        return False, [(None, "format", None, None, str(data.get("format")))]
    kind = data.get("kind")
    if kind not in ("iso", "homotopy"):
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
    lhs, rhs = sides
    f = ChainMap(lhs, rhs, _components_from_json(data, "forward", lhs, rhs))
    g = ChainMap(rhs, lhs, _components_from_json(data, "inverse" if kind == "iso" else "backward", rhs, lhs))
    if kind == "iso":
        failures = chain_iso_failures(f, g)
    else:
        h_src = _components_from_json(data, "homotopy_source", lhs, lhs, -1)
        h_tgt = _components_from_json(data, "homotopy_target", rhs, rhs, -1)
        failures = homotopy_failures(HomotopyEquivalence(f, g, h_src, h_tgt))
    return not failures, failures


def certify_pair(lhs: BraidWord, rhs: BraidWord, n: int, kind: str = "auto", label: str | None = None):
    """Certify that two words have isomorphic / homotopy equivalent complexes.

    Returns ``(kind, certificate dict)`` or ``(None, None)`` when neither an
    isomorphism nor (for kind 'auto'/'homotopy') a homotopy equivalence is
    found.  ``label`` names the relation in the certificate; it defaults to
    ``"<lhs> ~ <rhs>"``.
    """
    c = F_word(lhs, n)
    d = F_word(rhs, n)
    if label is None:
        label = f"{format_word(lhs)} ~ {format_word(rhs)}"
    if kind in ("auto", "iso"):
        found = find_chain_iso(c, d)
        if found is not None:
            return "iso", iso_certificate(label, n, lhs, rhs, *found)
        if kind == "iso":
            return None, None
    cert = find_homotopy_equiv(c, d)
    if cert is not None:
        return "homotopy", homotopy_certificate(label, n, lhs, rhs, cert)
    return None, None


def _relation_kind(label: str) -> str:
    return "homotopy" if label.startswith(_HOMOTOPY_LABELS) else "iso"


def relation_certificates(n: int) -> dict:
    """Certificates for every defining relation of the type-B virtual braid group.

    Isomorphism certificates for the virtual, mixed and commuting relations;
    homotopy certificates for the braid relations; plus both Reidemeister-II
    contractions per strand index and, for n >= 3, the two isomorphisms that
    hold on complexes even though the underlying words differ in the group.
    """
    ab = Alphabet.vbB(n)
    results = []
    all_ok = True

    def record(label, kind, lhs, rhs):
        nonlocal all_ok
        cert = certify_pair(lhs, rhs, n, kind, label=label)[1]
        ok = cert is not None
        all_ok = all_ok and ok
        results.append(
            {
                "relation": label,
                "kind": kind,
                "status": "certified" if ok else "failed",
                "certificate": cert,
            }
        )

    for rel in relator_table("vbB", n):
        record(rel.label, _relation_kind(rel.label), rel.lhs, rel.rhs)
    empty = parse_word("", ab)
    for i in range(n):
        record(f"reid2a[{i}]", "homotopy", parse_word(f"s{i} s{i}^-1", ab), empty)
        record(f"reid2b[{i}]", "homotopy", parse_word(f"s{i}^-1 s{i}", ab), empty)
    if n >= 3:
        for i in range(n):
            record(
                f"remark_sz[{i}]",
                "iso",
                parse_word(f"s{i} z{i}", ab),
                parse_word(f"z{i} s{i}", ab),
            )
        record(
            "remark_zszs",
            "iso",
            parse_word("z0 s1 z0 s1", ab),
            parse_word("s1 z0 s1 z0", ab),
        )
    return {
        "format": REPORT_FORMAT,
        "kind": "relation-certificates",
        "group": "vbB",
        "n": n,
        "all_certified": all_ok,
        "results": results,
    }
