"""Independent checks of the program's outputs.

Every certificate in an output is re-verified with `int` and `Fraction`
arithmetic only; nothing here imports the program.  An inside certificate
must rebuild the weight exactly from its generators with non-negative ray
coefficients; an outside certificate's violated form must be negative on
the weight.  Outputs also have to agree with themselves (summary counts,
half-spaces against generators) and with the query that produced them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def digest(text: str) -> str:
    """Short content digest used for pinned outputs."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_digest(record: dict) -> str:
    return digest(json.dumps(record, separators=(",", ":")))


def _count_certificates(doc) -> int:
    if isinstance(doc, dict):
        return ("ray_coeffs" in doc) + sum(
            _count_certificates(v) for v in doc.values())
    if isinstance(doc, list):
        return sum(_count_certificates(v) for v in doc)
    return 0


def certificates(text: str) -> int:
    """Inside certificates (coefficient maps) anywhere in a JSON output."""
    try:
        return _count_certificates(json.loads(text))
    except ValueError:
        return 0


def _vec(strings) -> tuple[Fraction, ...]:
    return tuple(Fraction(s) for s in strings)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _flag(argv, name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _ints(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(part)) for part in text.split(","))


def _rebuild(weight, rays, lines, ray_coeffs, line_coeffs) -> list[str]:
    rays, lines = [_vec(r) for r in rays], [_vec(l) for l in lines]
    acc = [Fraction(0)] * len(weight)
    for index, coeff in ray_coeffs.items():
        x = Fraction(coeff)
        if x < 0:
            return [f"negative ray coefficient {coeff}"]
        acc = [a + x * g for a, g in zip(acc, rays[int(index)])]
    for index, coeff in line_coeffs.items():
        x = Fraction(coeff)
        acc = [a + x * g for a, g in zip(acc, lines[int(index)])]
    if tuple(acc) != tuple(weight):
        return ["inside certificate does not rebuild the weight"]
    return []


def _outside(weight, form) -> list[str]:
    if len(form) != len(weight) or _dot(form, weight) >= 0:
        return ["violated form is not negative on the weight"]
    return []


def _witness(witness: dict) -> list[str]:
    found = []
    if "violated_form" in witness and "weight" in witness:
        found += _outside(_vec(witness["weight"]),
                          _vec(witness["violated_form"]))
    if "ray_coeffs" in witness:
        found += _rebuild(_vec(witness["weight"]), witness["rays"],
                          witness["lines"], witness["ray_coeffs"],
                          witness["line_coeffs"])
    for entry in witness.get("memberships", ()):
        found += _rebuild(_vec(entry["weight"]), witness["rays"],
                          witness["lines"], entry["ray_coeffs"],
                          entry["line_coeffs"])
    return found


def _contains(forms, eqns, rays, lines, what: str) -> list[str]:
    """Every form is >= 0 on the rays and 0 on the lines; every equation is
    0 on both."""
    rays, lines = [_vec(r) for r in rays], [_vec(l) for l in lines]
    for form in map(_vec, forms):
        if any(_dot(form, r) < 0 for r in rays) or any(
                _dot(form, l) != 0 for l in lines):
            return [f"{what}: a constraint cuts a generator"]
    for eqn in map(_vec, eqns):
        if any(_dot(eqn, g) != 0 for g in rays + lines):
            return [f"{what}: an equation misses a generator"]
    return []


def _dossier(doc: dict) -> list[str]:
    found = []
    for family in ("generators_G", "generators_Gprime"):
        gens = doc[family]
        found += _contains(doc["halfspaces"], (),
                           [g["weight"] for g in gens if not g["line"]],
                           [g["weight"] for g in gens if g["line"]], family)
    for name in ("minimal", "minimal0"):
        cone = doc[name]
        found += _contains(cone["ineqs"], cone["eqns"], cone["rays"],
                           cone["lines"], name)
    return found


def record_problems(record: dict) -> list[str]:
    """Problems in one stratum record of a report."""
    found = _dossier(record)
    for check in record["checks"]:
        if "witness" in check:
            found += _witness(check["witness"])
    return found


def summary_problems(report: dict) -> list[str]:
    counts = {"pass": 0, "fail": 0, "info": 0}
    for record in report["strata"]:
        for check in record["checks"]:
            counts[check["status"]] += 1
    summary = report["summary"]
    if (summary["strata"] != len(report["strata"])
            or summary["checks"] != sum(counts.values())
            or any(summary[k] != v for k, v in counts.items())):
        return ["summary counts disagree with the records"]
    return []


def _report(doc: dict) -> list[str]:
    return [found for record in doc["strata"]
            for found in record_problems(record)] + summary_problems(doc)


def _member(argv, doc) -> list[str]:
    weight = _ints(_flag(argv, "--weight"))
    if _vec(doc["weight"]) != weight:
        return ["weight is not the queried weight"]
    if doc["inside"]:
        return _rebuild(weight, doc["rays"], doc["lines"], doc["ray_coeffs"],
                        doc["line_coeffs"])
    return _outside(weight, _vec(doc["violated_form"]))


def _minimal(argv, doc) -> list[str]:
    weight = _ints(_flag(argv, "--weight"))
    members = len(_flag(argv, "--t").split(",")) if _flag(argv, "--t") else 0
    if _vec(doc["weight"]) != weight:
        return ["weight is not the queried weight"]
    if len(doc["reduced"]) != len(weight) - members:
        return ["reduced weight has the wrong length"]
    # the minimal cone lies inside the diagonal minimal cone
    if doc["in_minimal"] and not doc["in_minimal0"]:
        return ["in the minimal cone but not in the diagonal one"]
    return []


def _gl2(argv, doc) -> list[str]:
    biweight = _flag(argv, "--biweight")
    if biweight is None:
        weight = _ints(_flag(argv, "--weight"))
        residues, moduli = _vec(doc["residues"]), _vec(doc["moduli"])
        cycles = len(_flag(argv, "--cycles").split(","))
        if _vec(doc["weight"]) != weight or len(residues) != cycles \
                or len(moduli) != cycles:
            return ["delta class does not match the query"]
        if any(not 0 <= r < m for r, m in zip(residues, moduli)) or \
                doc["zero"] != all(r == 0 for r in residues):
            return ["delta class residues are inconsistent"]
        return []
    lam_text, kappa_text = biweight.split(";")
    lam, kappa = _ints(lam_text), _ints(kappa_text)
    if _vec(doc["lam"]) != lam or _vec(doc["kappa"]) != kappa:
        return ["bi-weight is not the queried bi-weight"]
    if doc["inside"]:
        return []
    return _outside(lam + kappa, _vec(doc["violated_form"]))


MALFORMED = (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError)


def guarded(check, *args) -> list[str]:
    """Run one of the checks here, reporting a malformed output as a
    problem instead of raising."""
    try:
        return check(*args)
    except MALFORMED as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _any_output(argv, text: str) -> list[str]:
    doc = json.loads(text)
    command = argv[0]
    if command in ("explore", "check"):
        return _report(doc)
    if command == "describe":
        return _dossier(doc)
    return {"member": _member, "minimal": _minimal, "gl2": _gl2}[command](
        argv, doc)


def problems(argv, text: str) -> list[str]:
    """What is wrong with the output `text` of the command `argv`."""
    return guarded(_any_output, argv, text)
