"""The strata-cones command.

Subcommands: describe (stratum dossier), check (run all checks on one or
all strata of a configuration), explore (sweep primes and degrees), member
(weight-cone membership with certificate), minimal (reduction, forced
divisors, minimal-cone membership), gl2 (discrete invariant and bi-weight
cone membership).

Exit codes: 0 success, 2 at least one check failed, 3 usage error.
Mathematical integers in JSON output are decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterator, Sequence

from .cone_kernel import _violated_form, cone_member
from .splitting import SplittingConfig, Stratum, _is_prime, stratum_from_text
from .verify import (
    FAIL,
    SCHEMA_VERSION,
    _certificate,
    _check_sweep,
    _dumps,
    _emb_key,
    _explore_sweep,
    _json_layout,
    _vec,
    _vecs,
    _write_report,
    stratum_dossier,
)
from .weights import (
    cone_D,
    delta_class,
    explicit_constraints,
    forced_divisors,
    in_minimal_cone,
    reduce_iT,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 3

# every worker process is started up front, so the count is bounded
JOBS_MAX = 64
# primality is decided by trial division, and a configuration has 2^degree
# strata, so both are bounded before any configuration is built
P_MAX = 10**6
DEGREE_MAX = 10
# every --p-list entry adds a configuration per partition up to --d-max
P_LIST_MAX = 16


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code of this tool."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"{what} must be a comma-separated integer list, "
                          f"got {text!r}") from None


def _at_most(what: str, value: int, bound: int) -> None:
    if value > bound:
        raise _UsageError(f"{what} must be at most {bound}, got {value}")


def _config_from(args) -> SplittingConfig:
    _at_most("--p", args.p, P_MAX)
    lengths = _parse_int_list(args.cycles, "--cycles")
    _at_most("the sum of --cycles", sum(lengths), DEGREE_MAX)
    try:
        return SplittingConfig(args.p, tuple(lengths))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _stratum_from(args, config: SplittingConfig) -> Stratum:
    if args.t is None:
        raise _UsageError("--t is required for this subcommand")
    try:
        return stratum_from_text(config, args.t)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _weight_from(text: str | None, config: SplittingConfig, what: str,
                 missing: str | None = None) -> tuple:
    """The weight in `text`; `missing` is the error when there is none."""
    if text is None:
        raise _UsageError(missing)
    weight = tuple(_parse_int_list(text, what))
    if len(weight) != config.degree:
        raise _UsageError(
            f"{what} has length {len(weight)}, expected {config.degree}")
    return weight


def _jobs_from(args) -> int:
    if not 1 <= args.jobs <= JOBS_MAX:
        raise _UsageError(
            f"--jobs must be between 1 and {JOBS_MAX}, got {args.jobs}")
    return args.jobs


def _cannot_write(path: str, exc: OSError) -> _UsageError:
    return _UsageError(f"cannot write {path}: {exc.strerror}")


def _emit(args, work) -> int:
    """Open -o, then run `work`, the command with its inputs validated,
    with the `write` of the open file (of stdout without -o); return the
    exit code `work` returns.  A failed write is a usage error."""
    try:  # every OSError here is the output's: a pool's is a RuntimeError
        handle = open(args.output, "w") if args.output else sys.stdout
        try:
            code = work(handle.write)
            handle.flush()  # a full disk shows when the buffer is flushed
        finally:
            if args.output:
                handle.close()
    except OSError as exc:
        if not args.output:  # Python's flush of stdout at exit goes nowhere
            sys.stdout = open(os.devnull, "w")
        raise _cannot_write(args.output or "stdout", exc) from None
    return code


def _reply(write, args, doc: dict, lines) -> int:
    """Write one reply document: as JSON under --json, else as the text
    lines that `lines(doc)` reads off it."""
    write(_dumps({"schema": SCHEMA_VERSION} | doc) if args.json
          else "\n".join(lines(doc)))
    write("\n")  # no second copy of the text
    return EXIT_OK


def _sweep_reply(write, args, sweep: tuple, jobs: int, lines) -> int:
    """Write the report of `sweep`, a header and its record tasks, while
    the records are computed: as JSON under --json, else as the text
    `lines` makes of the record stream."""
    summary = _write_report(write, *sweep, jobs,
                            _json_layout if args.json else lines)
    write("\n")
    return EXIT_CHECK_FAILED if summary["fail"] else EXIT_OK


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


# ---------------------------------------------------------------------------
# subcommands: each validates its inputs and returns its work, which writes
# the reply; the text lines read its document or, on a sweep, its records


def _cmd_describe(args):
    stratum = _stratum_from(args, _config_from(args))
    return lambda write: _reply(write, args, stratum_dossier(stratum),
                                _describe_lines)


def _describe_lines(dossier: dict) -> list[str]:
    tables = dossier["tables"]
    lines = [
        f"stratum T = [{dossier['t']}] over p={dossier['p']}, "
        f"cycles {_fmt_vec(dossier['cycles'])}",
        f"tilde closure: [{dossier['tilde']}]",
        f"S: embeddings [{','.join(dossier['S']['embeddings'])}], "
        f"primes [{', '.join(dossier['S']['primes'])}]",
        f"Iw: [{', '.join(dossier['iw'])}]",
        "emb   mu  nu   n  eps",
    ]
    for emb, mu in tables["mu"].items():
        nu = tables["nu"].get(emb, "-")
        n = tables["n"].get(emb, "-")
        lines.append(f"{emb:<5} {mu:>2} {nu:>3} {n:>3} "
                     f"{tables['epsilon'][emb]:>4}")
    lines.append("generators (pair family):")
    for entry in dossier["generators_G"]:
        kind = "line" if entry["line"] else "ray "
        lines.append(f"  {kind} ({', '.join(entry['weight'])})")
    lines.append("generators (one ray per embedding):")
    for entry in dossier["generators_Gprime"]:
        kind = "line" if entry["line"] else "ray "
        lines.append(f"  {kind} ({', '.join(entry['weight'])})")
    lines.append("half-spaces:")
    for form in dossier["halfspaces"]:
        lines.append(f"  ({', '.join(form)}) >= 0")
    for label, cone in (("minimal cone", dossier["minimal"]),
                        ("diagonal minimal cone", dossier["minimal0"])):
        lines.append(f"{label} (reduced coordinates, dim {cone['dim']}):")
        for form in cone["ineqs"]:
            lines.append(f"  ({', '.join(form)}) >= 0")
        for form in cone["eqns"]:
            lines.append(f"  ({', '.join(form)}) = 0")
        if not cone["ineqs"] and not cone["eqns"]:
            lines.append("  (no constraints)")
    return lines


def _cmd_check(args):
    config = _config_from(args)
    strata = None if args.t is None else [_stratum_from(args, config)]
    jobs = _jobs_from(args)
    return lambda write: _sweep_reply(write, args,
                                      _check_sweep(config, strata), jobs,
                                      _check_lines)


def _check_lines(config: dict, results, tally) -> Iterator[str]:
    for head, checks, _, _ in results:
        yield "".join(f"[{head['t']}] {name}: {status}\n"
                      for name, status in checks)
    summary = tally.tail()["summary"]
    yield (f"summary: {summary['pass']} pass, {summary['fail']} fail, "
           f"{summary['info']} info over {summary['strata']} strata")


def _cmd_explore(args):
    p_list = [2, 3, 5] if args.p_list is None else \
        _parse_int_list(args.p_list, "--p-list")
    _at_most("the number of --p-list entries", len(p_list), P_LIST_MAX)
    for p in p_list:
        _at_most("--p-list entry", p, P_MAX)
        if not _is_prime(p):
            raise _UsageError("p must be prime")
    if args.d_max < 1:
        raise _UsageError("--d-max must be at least 1")
    _at_most("--d-max", args.d_max, DEGREE_MAX)
    jobs = _jobs_from(args)
    return lambda write: _sweep_reply(write, args,
                                      _explore_sweep(p_list, args.d_max),
                                      jobs, _explore_lines)


def _explore_lines(config: dict, results, tally) -> Iterator[str]:
    """The summary comes first, so only the failures are held."""
    fails = [f"\nFAIL p={head['p']} cycles=({','.join(head['cycles'])}) "
             f"[{head['t']}] {name}"
             for head, checks, _, _ in results
             for name, status in checks if status == FAIL]
    tail = tally.tail()
    summary = tail["summary"]
    yield (f"checked {summary['strata']} strata: {summary['pass']} pass, "
           f"{summary['fail']} fail, {summary['info']} info")
    yield from fails
    yield (f"\nopen question: {tail['open_question']['unequal']} "
           "strata with distinct minimal-cone variants")


def _cmd_member(args):
    config = _config_from(args)
    stratum = _stratum_from(args, config)
    weight = _weight_from(args.weight, config, "--weight",
                          "--weight is required for member")
    return lambda write: _member_reply(write, args, stratum, weight)


def _member_reply(write, args, stratum: Stratum, weight: tuple) -> int:
    cone = cone_D(stratum)
    cert = cone_member(cone, weight)
    doc = {"t": stratum.key(), "weight": _vec(weight), "inside": cert.inside}
    if cert.inside:
        doc |= _certificate(cert) | {"rays": _vecs(cone.gen.rays),
                                     "lines": _vecs(cone.gen.lines)}
    else:
        doc["violated_form"] = _vec(cert.violated_form)
    return _reply(write, args, doc, _member_lines)


def _member_lines(doc: dict) -> list[str]:
    weight = _fmt_vec(doc["weight"])
    cone = f"the weight cone of [{doc['t']}]"
    if not doc["inside"]:
        return [f"{weight} is outside {cone}: violated form "
                f"{_fmt_vec(doc['violated_form'])}"]
    return ([f"{weight} lies in {cone}"]
            + [f"  {x} * ray {_fmt_vec(doc['rays'][int(i)])}"
               for i, x in doc["ray_coeffs"].items()]
            + [f"  {x} * line {_fmt_vec(doc['lines'][int(i)])}"
               for i, x in doc["line_coeffs"].items()])


def _cmd_minimal(args):
    config = _config_from(args)
    stratum = _stratum_from(args, config)
    weight = _weight_from(args.weight, config, "--weight",
                          "--weight is required for minimal")
    return lambda write: _minimal_reply(write, args, stratum, weight)


def _minimal_reply(write, args, stratum: Stratum, weight: tuple) -> int:
    reduced = reduce_iT(stratum, weight)
    return _reply(write, args, {
        "t": stratum.key(),
        "weight": _vec(weight),
        "reduced": _vec(reduced),
        "forced_divisors": [_emb_key(e)
                            for e in sorted(forced_divisors(stratum, weight))],
        "in_minimal": in_minimal_cone(stratum, reduced, "min"),
        "in_minimal0": in_minimal_cone(stratum, reduced, "min0"),
    }, _minimal_lines)


def _minimal_lines(doc: dict) -> list[str]:
    def yes(key):
        return "yes" if doc[key] else "no"
    return [f"reduction of {_fmt_vec(doc['weight'])} on [{doc['t']}]: "
            f"{_fmt_vec(doc['reduced'])}",
            f"forced divisors: [{','.join(doc['forced_divisors'])}]",
            f"in minimal cone: {yes('in_minimal')}",
            f"in diagonal minimal cone: {yes('in_minimal0')}"]


def _cmd_gl2(args):
    config = _config_from(args)
    if args.biweight is None:
        weight = _weight_from(args.weight, config, "--weight",
                              "gl2 needs --weight or --t with --biweight")
        return lambda write: _delta_reply(write, args, config, weight)
    stratum = _stratum_from(args, config)
    parts = args.biweight.split(";")
    if len(parts) != 2:
        raise _UsageError(
            "--biweight must be 'lam;kappa', two comma-separated "
            "integer lists")
    lam = _weight_from(parts[0], config, "--biweight first component")
    kappa = _weight_from(parts[1], config, "--biweight second component")
    return lambda write: _biweight_reply(write, args, stratum, lam, kappa)


def _delta_reply(write, args, config: SplittingConfig, weight: tuple) -> int:
    cls = delta_class(config, weight)
    return _reply(write, args, {"weight": _vec(weight),
                                "residues": _vec(cls.residues),
                                "moduli": _vec(cls.moduli),
                                "zero": cls.is_zero()}, _delta_lines)


def _biweight_reply(write, args, stratum: Stratum, lam: tuple,
                    kappa: tuple) -> int:
    config = stratum.config
    violated = _violated_form(explicit_constraints(stratum), kappa)
    doc = {"t": stratum.key(), "lam": _vec(lam), "kappa": _vec(kappa),
           "inside": violated is None}
    if violated is not None:
        doc["violated_form"] = _vec((0,) * config.degree + violated)
    return _reply(write, args, doc, _biweight_lines)


def _delta_lines(doc: dict) -> list[str]:
    per_cycle = ", ".join(f"{r} mod {m}"
                          for r, m in zip(doc["residues"], doc["moduli"]))
    return [f"delta class of {_fmt_vec(doc['weight'])}: {per_cycle}"
            + (" (zero)" if doc["zero"] else "")]


def _biweight_lines(doc: dict) -> list[str]:
    pair = f"({_fmt_vec(doc['lam'])}; {_fmt_vec(doc['kappa'])})"
    cone = f"the bi-weight cone of [{doc['t']}]"
    if doc["inside"]:
        return [f"{pair} lies in {cone} (first component free, second in "
                "the weight cone)"]
    form = doc["violated_form"][len(doc["lam"]):]
    return [f"{pair} is outside {cone}: violated form {_fmt_vec(form)} on "
            "the second component"]


# ---------------------------------------------------------------------------
# wiring


# every flag, declared once; "-o" also answers to "--output"
_FLAGS = {
    "--p": dict(type=int, required=True, help="the rational prime"),
    "--cycles": dict(required=True, help="comma-separated cycle lengths"),
    "--t": dict(help="stratum: 'cycle.pos' comma list, '' for the empty "
                     "stratum, 'all' for everything"),
    "--weight": dict(help="comma-separated integer weight"),
    "--biweight": dict(help="'lam;kappa' pair of comma-separated lists"),
    "--p-list": dict(help="comma-separated primes (default 2,3,5)"),
    "--d-max": dict(type=int, default=5,
                    help="largest total degree (default 5)"),
    "--jobs": dict(type=int, default=1, help="worker processes (default 1)"),
    "--json": dict(action="store_true", help="emit JSON instead of text"),
    "-o": dict(help="write output to this path instead of stdout"),
}


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and each subcommand's parser by name, built once."""
    parser = _Parser(prog="strata-cones",
                     description="Exact weight-cone computations for "
                                 "Goren-Oort strata.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help, *flags):
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(handler=handler)
        for flag in flags:
            names = (flag, "--output") if flag == "-o" else (flag,)
            cmd.add_argument(*names, **_FLAGS[flag])

    stratum, out = ("--p", "--cycles", "--t"), ("--json", "-o")
    command("describe", _cmd_describe, "stratum dossier", *stratum, *out)
    command("check", _cmd_check, "run all checks", *stratum, *out, "--jobs")
    command("explore", _cmd_explore, "sweep primes and degrees",
            "--p-list", "--d-max", "--jobs", *out)
    command("member", _cmd_member, "weight-cone membership",
            *stratum, "--weight", *out)
    command("minimal", _cmd_minimal, "reduction and minimal-cone data",
            *stratum, "--weight", *out)
    command("gl2", _cmd_gl2, "delta class / bi-weight membership",
            *stratum, "--weight", *out, "--biweight")
    return parser, sub.choices


# each prefix argparse takes for a flag whose value may start with a minus
# sign, which argparse would otherwise read as another option, mapped to
# that flag (no other flag starts with "--w" or "--b")
_DASH_VALUE_FLAGS = {flag[:end]: flag for flag in ("--weight", "--biweight")
                     for end in range(3, len(flag) + 1)}


def _merge_dash_values(argv: Sequence[str]) -> list[str]:
    """argv with each dash-value flag joined to a value that starts with a
    minus sign, where the subcommand named first declares the flag; any
    other use is left as typed, for the parser to refuse."""
    _, commands = _build_parser()
    # argparse's table of the option strings the subcommand declares
    declared = (commands[argv[0]]._option_string_actions
                if argv and argv[0] in commands else {})
    merged = []
    i = 0
    while i < len(argv):
        if (_DASH_VALUE_FLAGS.get(argv[i]) in declared
                and i + 1 < len(argv) and argv[i + 1].startswith("-")):
            merged.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def _parse(argv: list[str]) -> argparse.Namespace:
    """A subcommand named first is parsed by its own parser, and arguments
    it leaves over get the top-level parser's error; anything else is
    parsed by the top-level parser."""
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(_merge_dash_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _emit(args, args.handler(args))
    except _UsageError as exc:
        print(f"strata-cones: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"strata-cones: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
