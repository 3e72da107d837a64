"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All commands are deterministic; there is no randomness anywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys
from functools import lru_cache, partial

from . import freegroup, homotopy, words
from .errors import ParseError


def _alphabet(args) -> words.Alphabet:
    if args.group == "vbB":
        return words.Alphabet.vbB(args.n)
    return words.Alphabet.vbA(args.n)


def _emit(payload, args) -> None:
    if getattr(args, "format", "text") == "json":
        text = json.dumps(payload, indent=1)
    else:
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=1)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _invariant_table(auto) -> dict:
    return {
        freegroup.format_gen(g): freegroup.format_word(auto.image(g))
        for g in sorted(auto.gens, key=freegroup.gen_sort_key)
    }


def cmd_invariant(args) -> int:
    word = words.parse_word(args.word, _alphabet(args))
    table = _invariant_table(words.invariant(word))
    if args.format == "json":
        _emit({"word": args.word, "images": table}, args)
    else:
        _emit("\n".join(f"{g} -> {img}" for g, img in table.items()), args)
    return 0


def cmd_distinguish(args) -> int:
    ab = _alphabet(args)
    difference = words.invariant_difference(
        words.parse_word(args.word1, ab), words.parse_word(args.word2, ab), t1=args.t1
    )
    if difference is None:
        verdict = {
            "status": "invariant-equal",
            "note": "inconclusive for group equality",
        }
    else:
        g, lhs_image, rhs_image = difference
        verdict = {
            "status": "unequal",
            "witness_generator": freegroup.format_gen(g),
            "witness_images": [freegroup.format_word(lhs_image), freegroup.format_word(rhs_image)],
        }
    if args.format == "json":
        _emit(verdict, args)
    elif verdict["status"] == "unequal":
        _emit(
            f"UNEQUAL (witness {verdict['witness_generator']}: "
            f"{verdict['witness_images'][0]} vs {verdict['witness_images'][1]})",
            args,
        )
    else:
        _emit("invariant-equal (inconclusive for group equality)", args)
    return 0


def cmd_check_relations(args) -> int:
    report = words.check_relators_via_invariant(args.group, args.n)
    if args.format == "json":
        _emit(report, args)
    else:
        lines = [
            f"[{r['status']:7s}] {r['relator_label']}" for r in report["results"]
        ]
        lines.append("all pass" if report["all_pass"] else "FAILURES PRESENT")
        _emit("\n".join(lines), args)
    return 0 if report["all_pass"] else 1


def cmd_certify(args) -> int:
    report = homotopy.relation_certificates(args.n)
    if args.format == "json" or args.out:
        _emit(report, args)
    if args.format == "text":
        lines = [
            f"[{r['status']:9s}] {r['relation']:18s} ({r['kind']})"
            for r in report["results"]
        ]
        lines.append(
            "all certified" if report["all_certified"] else "FAILURES PRESENT"
        )
        print("\n".join(lines))
    return 0 if report["all_certified"] else 1


def cmd_certify_pair(args) -> int:
    ab = words.Alphabet.vbB(args.n)
    lhs = words.parse_word(args.word1, ab)
    rhs = words.parse_word(args.word2, ab)
    kind, found = homotopy.certify_pair(lhs, rhs, args.n, kind=args.kind)
    if kind is None:
        print(f"NONE: {found}", file=sys.stderr)
        return 1
    _emit(found, args)
    return 0


# witnesses printed per failed certificate; the rest are counted
_SHOWN_WITNESSES = 5


def _json_int(digits: str, path: str) -> int:
    """``int(digits)``; a number over the interpreter's digit limit is a one-line error."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(
            f"{path}: a JSON integer has {len(digits.lstrip('-'))} digits, "
            f"over this interpreter's limit of {sys.get_int_max_str_digits()}"
        ) from None


def cmd_verify_certificate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=lambda digits: _json_int(digits, args.file))
        except RecursionError:
            raise ValueError(f"{args.file}: JSON nested too deeply to read") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{args.file}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{args.file}: expected a JSON object, not {type(data).__name__}")
    report = data.get("format") == homotopy.REPORT_FORMAT
    if report:
        _check_schema("report.schema.json", [(f"{args.file}: ", data)])
        entries = data["results"] if data.get("kind") == "relation-certificates" else []
        if not entries:
            raise ValueError(f"{args.file}: the report holds no certificates to verify")
        _check_schema(
            "certificate.schema.json",
            [
                (f"{args.file}: results[{i}].certificate ", r["certificate"])
                for i, r in enumerate(entries)
                if r.get("certificate") is not None
            ],
        )
    else:
        _check_schema("certificate.schema.json", [(f"{args.file}: ", data)])
        entries = [{"certificate": data}]
    bad = 0
    for entry in entries:
        cert = entry.get("certificate")
        if cert is None:
            bad += 1
            print(f"[FAIL] {entry['relation']} ({entry['kind']}): no certificate")
            continue
        ok, failures = homotopy.verify_certificate_dict(cert)
        tag = "ok" if ok else "FAIL"
        print(f"[{tag}] {cert['relation']} ({cert['kind']})")
        if not ok:
            bad += 1
            for degree, what, row, col, residual in failures[:_SHOWN_WITNESSES]:
                print(f"    degree {degree}: {what} at ({row},{col}): {residual}")
            if len(failures) > _SHOWN_WITNESSES:
                print(f"    ... and {len(failures) - _SHOWN_WITNESSES} more")
    if report:
        for label, reason in _coverage_failures(data, bad == 0):
            bad += 1
            print(f"[FAIL] {label}: {reason}")
    return 0 if bad == 0 else 1


def _coverage_failures(report: dict, verdict: bool) -> list:
    """``(label, reason)`` for each way a relation-certificates report misses its relations.

    The report must hold each pair of ``words.certified_relations`` at its
    ``n`` exactly once and no other label; each certificate must have the
    report's ``n`` and words that parse to the pair; and ``all_certified``
    must be ``verdict``, whether every entry verified.  An entry's label is
    its certificate's ``relation``, or the entry's when it has none.  Only
    labels and words are read: no complex is built.
    """
    n = report["n"]
    ab = words.Alphabet.vbB(n)
    required = {rel.label: rel for rel in words.certified_relations(n)}
    seen: dict = {}
    failures = []
    for entry in report["results"]:
        cert = entry.get("certificate")
        label = entry["relation"] if cert is None else cert["relation"]
        seen[label] = seen.get(label, 0) + 1
        rel = required.get(label)
        if rel is None:
            failures.append((label, f"not a relation of a report at n={n}"))
        elif seen[label] == 2:
            failures.append((label, "occurs more than once"))
        if cert is None:
            continue
        if cert["n"] != n:
            failures.append((label, f"the certificate has n={cert['n']}, the report n={n}"))
        elif rel is not None and [words.parse_word(w, ab) for w in cert["words"]] != [rel.lhs, rel.rhs]:
            expected = [words.format_word(rel.lhs), words.format_word(rel.rhs)]
            failures.append((label, f"the certificate's words {cert['words']} are not the relation's {expected}"))
    failures += [(label, "missing") for label in required if label not in seen]
    if report["all_certified"] != verdict:
        failures.append(("all_certified", f"the report says {report['all_certified']}, the check finds {verdict}"))
    return failures


def _check_schema(name: str, items) -> None:
    """Check each ``(where, instance)`` against the shipped schema ``name``.

    The schema is enforced by a built-in checker of the keywords the shipped
    schemas use (see ``_compile``), with strict integers.  The first violation,
    in a fixed walk order, ends in a ``ValueError`` that names where it is:
    ``{where}does not match {name}: {path}: {message}``.
    """
    check = _schema(name)
    for where, instance in items:
        found = check(instance)
        if found is not None:
            path, message = found
            path = path.removeprefix(".")
            raise ValueError(
                f"{where}does not match {name}: {path + ': ' if path else ''}{message}"
            )


@lru_cache(maxsize=None)
def _schema(name: str):
    """The checker of the shipped schema ``name``, read on first use.

    The file is read through this module's loader, as ``pkgutil.get_data``
    does, so an installed or zipped package reads it alike.  That needs no
    import: ``importlib.resources`` would load about 30 modules (``pathlib``,
    ``tempfile``, ``zipfile``, ...) into the first ``verify-certificate`` call.
    """
    root = json.loads(__loader__.get_data(os.path.join(os.path.dirname(__file__), "schema", name)))
    return _compile(root, root)


# JSON types by the exact Python type ``json.load`` gives them, so ``integer``
# is an int written without fraction or exponent, never ``2.0`` nor ``true``
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
    "null": type(None),
}
# annotations, ``$defs`` (read through ``$ref``) and ``then`` (read by its ``if``)
_SKIPPED = frozenset({"$schema", "$id", "title", "$defs", "then"})
# the offending value in a message, cut in length and depth so that one error
# line stays short whatever the file holds (dict keys come out sorted)
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 2
_SHOWN.maxlist = _SHOWN.maxdict = 4
_shown = _SHOWN.repr


def _compile(root: dict, schema: dict):
    """A function of an instance: its first violation of ``schema`` as
    ``(path, message)``, or None.

    Only the keywords of the shipped schemas are known; any other raises a
    ``ValueError`` here, so no keyword is ever silently ignored.  ``$ref``
    is resolved against ``root``.
    """
    checks = [_keyword(root, schema, key) for key in schema if key not in _SKIPPED]
    if len(checks) == 1:
        return checks[0]
    return lambda value: _first(checks, value)


def _first(checks, value):
    for check in checks:
        found = check(value)
        if found is not None:
            return found
    return None


def _canonical(value) -> str:
    """JSON text in which equal values read equal and ``true``, ``1`` and ``1.0`` differ."""
    return json.dumps(value, sort_keys=True)


def _keyword(root: dict, schema: dict, key: str):
    """The check of one keyword of ``schema``."""
    arg = schema[key]
    if key == "type":
        names = [arg] if isinstance(arg, str) else arg
        if not set(names) <= _TYPES.keys():
            raise ValueError(f"unsupported schema type {arg!r}")
        types = tuple(_TYPES[t] for t in names)
        expected = ", ".join(map(repr, names))
        return lambda v: None if type(v) in types else ("", f"{_shown(v)} is not of type {expected}")
    if key == "const":
        text = _canonical(arg)
        return lambda v: None if _canonical(v) == text else ("", f"{arg!r} was expected")
    if key == "enum":
        texts = {_canonical(a) for a in arg}
        return lambda v: None if _canonical(v) in texts else ("", f"{_shown(v)} is not one of {arg!r}")
    if key == "minimum":
        return lambda v: (
            ("", f"{_shown(v)} is less than the minimum of {arg!r}")
            if type(v) in (int, float) and v < arg else None
        )
    if key == "maximum":
        return lambda v: (
            ("", f"{_shown(v)} is greater than the maximum of {arg!r}")
            if type(v) in (int, float) and v > arg else None
        )
    if key == "minItems":
        return lambda v: ("", f"{_shown(v)} is too short") if type(v) is list and len(v) < arg else None
    if key == "maxItems":
        return lambda v: ("", f"{_shown(v)} is too long") if type(v) is list and len(v) > arg else None
    if key == "required":

        def required(v):
            if type(v) is dict:
                for k in arg:
                    if k not in v:
                        return "", f"{k!r} is a required property"
            return None

        return required
    if key == "properties":
        fields = [(k, _compile(root, s)) for k, s in arg.items()]

        def properties(v):
            if type(v) is dict:
                for k, check in fields:
                    if k in v:
                        found = check(v[k])
                        if found is not None:
                            return f".{k}{found[0]}", found[1]
            return None

        return properties
    if key == "items":
        check = _compile(root, arg)

        def items(v):
            if type(v) is list:
                for i, item in enumerate(v):
                    found = check(item)
                    if found is not None:
                        return f"[{i}]{found[0]}", found[1]
            return None

        return items
    if key == "allOf":
        parts = [_compile(root, s) for s in arg]
        return lambda v: _first(parts, v)
    if key == "if":
        test, then = _compile(root, arg), _compile(root, schema.get("then", {}))
        return lambda v: then(v) if test(v) is None else None
    if key == "$ref" and arg.startswith("#/"):
        target = root
        for part in arg[2:].split("/"):
            target = target[part]
        return _compile(root, target)
    raise ValueError(f"unsupported schema keyword {key!r}: {arg!r}")


def _strand_count(text: str) -> int:
    """The value of ``--n``: ASCII digits only, like every grammar here.

    ``int`` would also read the digits of other scripts, a sign, spaces and
    underscores.  Anything else is a usage error.
    """
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at the width it would pick, found without importing ``shutil``.

    That width is ``shutil.get_terminal_size``'s columns minus 2: ``COLUMNS``
    if it is a positive integer, else the width of the terminal on stdout,
    else 80.  ``shutil`` would pull in the compression modules at the first
    parser a process builds.
    """

    def __init__(self, prog, **kwargs) -> None:
        kwargs.setdefault("width", _terminal_columns() - 2)
        super().__init__(prog, **kwargs)


def _terminal_columns() -> int:
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="braidcert",
        formatter_class=_HelpFormatter,
        description=(
            "Type-B virtual braid words: free-group invariants and "
            "machine-checked complex certificates"
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=partial(argparse.ArgumentParser, formatter_class=_HelpFormatter)
    )

    def common(p, group=True):
        p.add_argument("--n", type=_strand_count, required=True, help="strand parameter (ASCII digits, 2..8)")
        if group:
            p.add_argument("--group", choices=["vbA", "vbB"], default="vbB")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("invariant", help="print the invariant automorphism of a word")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("distinguish", help="compare two words under the invariant")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--t1", action="store_true", help="specialize t = 1 first")
    common(p)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("check-relations", help="push every defining relator through the invariant")
    common(p)
    p.set_defaults(func=cmd_check_relations)

    p = sub.add_parser("certify", help="produce complex certificates for all defining relations")
    common(p, group=False)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("certify-pair", help="certify one pair of words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--kind", choices=homotopy.PAIR_KINDS, default="auto")
    common(p, group=False)
    p.set_defaults(func=cmd_certify_pair)

    p = sub.add_parser("verify-certificate", help="re-verify a certificate or report file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_certificate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "n") and not 2 <= args.n <= 8:
        parser.error("--n must be between 2 and 8")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
