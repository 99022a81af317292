"""The strata-cones command.

Subcommands: describe (stratum dossier), check (run all checks on one or
all strata of a configuration), explore (sweep primes and degrees), member
(weight-cone membership with certificate), minimal (reduction, forced
divisors, minimal-cone membership), gl2 (discrete invariant and bi-weight
cone membership).

Exit codes: 0 success, 1 the worker pool failed, 2 at least one check
failed, 3 usage error.
Mathematical integers in JSON output are decimal strings.

The command line is read by one walk over its tokens (`_parse`) and its
help, usage lines and refusals are written (`_stop`) from one table
(`_SUBCOMMANDS`, `_FLAGS`), with the rules and the 80-column layout of
the standard library's parser on CPython 3.10-3.12, whatever COLUMNS says.
"""

import functools
import os
import re
import sys
from types import SimpleNamespace
from typing import Iterator, Sequence

from .cone_kernel import _check_vectors, _violated_form, cone_member
from .splitting import SplittingConfig, Stratum, stratum_from_text
from .verify import (
    FAIL,
    SCHEMA_VERSION,
    _certificate,
    _check_jobs,
    _check_sweep,
    _checks_task,
    _dumps,
    _explore_sweep,
    _json_layout,
    _record_task,
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

# primality is decided by trial division, and a configuration has 2^degree
# strata, so both are bounded before any configuration is built
P_MAX = 10**6
DEGREE_MAX = 10
# every --p-list entry adds a configuration per partition up to --d-max
P_LIST_MAX = 16


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, "
                         f"got {text!r}") from None


def _at_most(what: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{what} must be at most {bound}, got {value}")


def _config_from(args) -> SplittingConfig:
    _at_most("--p", args.p, P_MAX)
    lengths = _parse_int_list(args.cycles, "--cycles")
    _at_most("the sum of --cycles", sum(lengths), DEGREE_MAX)
    return SplittingConfig(args.p, tuple(lengths))


def _stratum_from(args, config: SplittingConfig) -> Stratum:
    if args.t is None:
        raise ValueError("--t is required for this subcommand")
    return stratum_from_text(config, args.t)


def _weight_from(text: str | None, config: SplittingConfig, what: str,
                 missing: str | None = None) -> tuple:
    """The weight in `text`; `missing` is the error when there is none."""
    if text is None:
        raise ValueError(missing)
    weight = tuple(_parse_int_list(text, what))
    _check_vectors((weight,), config.degree, what)
    return weight


def _fail(error, code: int, head: str = "strata-cones") -> int:
    """Print `error` as the error line after `head`; return `code`."""
    try:
        print(f"{head}: error: {error}", file=sys.stderr)
    except OSError:  # stderr is closed too, as under `2>&1 | head`
        sys.stderr = open(os.devnull, "w")  # and so is its flush at exit
    return code


def _emit(args, work) -> int:
    """Open -o, then run `work`, the command with its inputs validated,
    with the `write` of the open file (of stdout without -o); return the
    exit code `work` returns.  A failed write is a usage error."""
    path = args.output  # any string, the empty one too, is a path
    try:  # every OSError here is the output's: a pool's is a RuntimeError
        handle = sys.stdout if path is None else open(path, "w")
        try:
            code = work(handle.write)
            handle.flush()  # a full disk shows when the buffer is flushed
        finally:
            if path is not None:
                handle.close()
    except OSError as exc:
        if path is None:  # Python's flush of stdout at exit goes nowhere
            sys.stdout = open(os.devnull, "w")
        return _fail(f"cannot write {'stdout' if path is None else path}: "
                     f"{exc.strerror}", EXIT_USAGE)
    return code


def _reply(write, args, doc: dict, lines) -> int:
    """Write one reply document: as JSON under --json, else as the text
    lines that `lines(doc)` reads off it."""
    write(_dumps({"schema": SCHEMA_VERSION} | doc) if args.json
          else "\n".join(lines(doc)))
    write("\n")  # no second copy of the text
    return EXIT_OK


def _sweep_reply(write, args, sweep: tuple, lines) -> int:
    """Write the report of `sweep`, a header and its record tasks, while
    the records are computed: as JSON under --json, else as the text
    `lines` makes of each stratum's checks, with no dossier built."""
    layout = ((_json_layout, _record_task) if args.json
              else (lines, _checks_task))
    tail = _write_report(write, *sweep, args.jobs, *layout)
    write("\n")
    return EXIT_CHECK_FAILED if tail["summary"]["fail"] else EXIT_OK


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
    for label, key in (("pair family", "generators_G"),
                       ("one ray per embedding", "generators_Gprime")):
        lines.append(f"generators ({label}):")
        for entry in dossier[key]:
            kind = "line" if entry["line"] else "ray "
            lines.append(f"  {kind} {_fmt_vec(entry['weight'])}")
    lines.append("half-spaces:")
    lines += [f"  {_fmt_vec(form)} >= 0" for form in dossier["halfspaces"]]
    for label, cone in (("minimal cone", dossier["minimal"]),
                        ("diagonal minimal cone", dossier["minimal0"])):
        lines.append(f"{label} (reduced coordinates, dim {cone['dim']}):")
        lines += [f"  {_fmt_vec(form)} >= 0" for form in cone["ineqs"]]
        lines += [f"  {_fmt_vec(form)} = 0" for form in cone["eqns"]]
        if not cone["ineqs"] and not cone["eqns"]:
            lines.append("  (no constraints)")
    return lines


def _cmd_check(args):
    config = _config_from(args)
    strata = None if args.t is None else [_stratum_from(args, config)]
    _check_jobs(args.jobs, "--jobs")
    return lambda write: _sweep_reply(write, args,
                                      _check_sweep(config, strata),
                                      _check_lines)


def _check_lines(config: dict, results, tally) -> Iterator[str]:
    for head, checks, _ in results:
        yield "".join(f"[{head['t']}] {name}: {status}\n"
                      for name, status in checks)
    summary = tally.tail()["summary"]
    yield (f"summary: {summary['pass']} pass, {summary['fail']} fail, "
           f"{summary['info']} info over {summary['strata']} strata")


def _cmd_explore(args):
    p_list = _parse_int_list(args.p_list, "--p-list")
    _at_most("the number of --p-list entries", len(p_list), P_LIST_MAX)
    for p in p_list:
        _at_most("--p-list entry", p, P_MAX)
    if args.d_max < 1:
        raise ValueError("--d-max must be at least 1")
    _at_most("--d-max", args.d_max, DEGREE_MAX)
    sweep = _explore_sweep(p_list, args.d_max)  # refuses a composite entry
    _check_jobs(args.jobs, "--jobs")
    return lambda write: _sweep_reply(write, args, sweep, _explore_lines)


def _explore_lines(config: dict, results, tally) -> Iterator[str]:
    """The summary comes first, so only the failures are held."""
    fails = [f"\nFAIL p={head['p']} cycles=({','.join(head['cycles'])}) "
             f"[{head['t']}] {name}"
             for head, checks, _ in results
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
        "forced_divisors": [e.key()
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
    if args.weight is not None and args.biweight is not None:
        raise ValueError("gl2 takes one of --weight and --biweight")
    if args.weight is not None and args.t is not None:
        raise ValueError("gl2 takes --t only with --biweight")
    config = _config_from(args)
    if args.biweight is None:
        weight = _weight_from(args.weight, config, "--weight",
                              "gl2 needs --weight or --t with --biweight")
        return lambda write: _delta_reply(write, args, config, weight)
    stratum = _stratum_from(args, config)
    parts = args.biweight.split(";")
    if len(parts) != 2:
        raise ValueError(
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


# every flag, declared once; None is -h, and "-o" also answers to "--output"
_FLAGS = {
    None: dict(action="help", help="show this help message and exit"),
    "--p": dict(type=int, required=True, help="the rational prime"),
    "--cycles": dict(required=True, help="comma-separated cycle lengths"),
    "--t": dict(help="stratum: 'cycle.pos' comma list, '' for the empty "
                     "stratum, 'all' for everything"),
    "--weight": dict(help="comma-separated integer weight"),
    "--biweight": dict(help="'lam;kappa' pair of comma-separated lists"),
    "--p-list": dict(default="2,3,5",
                     help="comma-separated primes (default %(default)s)"),
    "--d-max": dict(type=int, default=5,
                    help="largest total degree (default %(default)s)"),
    "--jobs": dict(type=int, default=1,
                   help="worker processes (default %(default)s)"),
    "--json": dict(action="store_true", default=False,
                   help="emit JSON instead of text"),
    "-o": dict(help="write output to this path instead of stdout"),
}
_STRATUM, _OUT = ("--p", "--cycles", "--t"), ("--json", "-o")
# every subcommand: its handler, its help and its flags in usage order
_SUBCOMMANDS = {
    "describe": (_cmd_describe, "stratum dossier", (*_STRATUM, *_OUT)),
    "check": (_cmd_check, "run all checks", (*_STRATUM, *_OUT, "--jobs")),
    "explore": (_cmd_explore, "sweep primes and degrees",
                ("--p-list", "--d-max", "--jobs", *_OUT)),
    "member": (_cmd_member, "weight-cone membership",
               (*_STRATUM, "--weight", *_OUT)),
    "minimal": (_cmd_minimal, "reduction and minimal-cone data",
                (*_STRATUM, "--weight", *_OUT)),
    "gl2": (_cmd_gl2, "delta class / bi-weight membership",
            (*_STRATUM, "--weight", *_OUT, "--biweight")),
}
# the flags that take a value: all but --json
_VALUE_FLAGS = {flag for flag, spec in _FLAGS.items() if "action" not in spec}
# the standard parser's test for a token that starts with "-" but is a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
# where `_parse` stops for -h, to write the help
_HELP = object()


def _names(flag: str | None) -> tuple[str, ...]:
    """The option strings of `flag`; None is -h."""
    return {None: ("-h", "--help"), "-o": ("-o", "--output")}.get(
        flag, (flag,))


def _label(flag: str | None) -> str:
    """The flag as a refusal names it."""
    return "/".join(_names(flag))


# each flag's attribute in the parsed command line
_DESTS = {flag: _names(flag)[-1][2:].replace("-", "_") for flag in _FLAGS}
# the top level's grammar as `_grammar` gives one: -h, and a subcommand
_TOP_LEVEL = (dict.fromkeys(_names(None)), {}, ("subcommand",))
_CHOICES = "{" + ",".join(_SUBCOMMANDS) + "}"


@functools.cache
def _grammar(name: str) -> tuple[dict, dict, tuple]:
    """Subcommand `name`'s option strings, each mapped to its flag; its
    attributes before any token is read, the handler's included; and its
    required flags."""
    handler, _, flags = _SUBCOMMANDS[name]
    return ({option: flag for flag in (None, *flags)
             for option in _names(flag)},
            {_DESTS[flag]: _FLAGS[flag].get("default") for flag in flags}
            | {"handler": handler},
            tuple(flag for flag in flags if _FLAGS[flag].get("required")))


def _option(token: str, options: dict) -> tuple[str, str | None] | None:
    """The standard reading of `token`: None for a value, else the option
    string it names (the token itself when `options` lacks it) and the
    value written into the token, or None."""
    if token in options:
        return token, None
    if not token.startswith("-") or len(token) == 1:
        return None
    head, equals, tail = token.partition("=")
    if equals and head in options:
        return head, tail
    if token[1] != "-" and token[:2] in options:  # "-oVALUE"
        return token[:2], token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return token, None


def _parse(argv: Sequence[str]):
    """The command line, read by one walk over its tokens under the standard
    rules: flags are spelled in full, a one-letter flag may carry its value
    ("-oVALUE"), a repeated flag keeps its last value, a token that starts
    with "-" is a value only where it reads as a negative number, and after
    "--" every token is left over.  The top level's first value, or a "--"
    before one, names the subcommand.  The tokens are read until the first
    refusal or -h; then missing required flags are refused, then leftovers.

    For a subcommand named first, the walk also joins a declared --weight
    or --biweight to a following value that starts with "-", and refuses a
    value flag joined to "--" at once; the standard parser reads "--p=--"
    as no value, and so does the walk after tokens before the name."""
    own = bool(argv) and argv[0] in _SUBCOMMANDS  # the walk's own two rules
    name, i = (argv[0], 1) if own else (None, 0)
    options, defaults, required = _grammar(name) if own else _TOP_LEVEL
    values, seen, extras = {}, set(), []
    stop = None  # the first refusal, or _HELP: read on only to refuse "=--"
    dashes = False
    while i < len(argv):
        token = argv[i]
        i += 1
        if (token in ("--weight", "--biweight") and own and token in options
                and i < len(argv) and argv[i].startswith("-")):
            token = f"{token}={argv[i]}"
            i += 1
        option = _option(token, options)
        if own and option is not None and option[1] == "--" \
                and options.get(option[0]) in _VALUE_FLAGS:
            _stop(name, f"argument {_label(options[option[0]])}: expected "
                        "one argument")
        if stop is not None:
            continue
        if dashes or token == "--" and (name or i == len(argv)):
            dashes = True  # after "--", every token is left over
            extras.append(token)
            continue
        if option is None or option[0] not in options:
            if name or option is not None and token != "--":
                extras.append(token)
            elif token not in _SUBCOMMANDS:
                stop = (f"argument subcommand: invalid choice: {token!r} "
                        f"(choose from {', '.join(map(repr, _SUBCOMMANDS))})")
            else:
                options, defaults, required = _grammar(name := token)
            continue
        string, value = option
        flag = options[string]
        helped = flag is None
        if helped and value and string == "-h":  # "-hX": X is more flags
            value = value.lstrip("h") or None
            if value is not None and f"-{value[0]}" in options:  # -o first
                flag, value = "-o", value[1:] or None
        if flag not in _VALUE_FLAGS:
            if value is not None:
                stop = (f"argument {_label(flag)}: ignored explicit argument "
                        f"{value!r}")
            elif helped:
                stop = _HELP
            else:
                values[_DESTS[flag]] = True
            continue
        if value is None:
            if i == len(argv) or _option(argv[i], options) is not None:
                stop = f"argument {_label(flag)}: expected one argument"
                continue
            value = argv[i]
            i += 1
        kind = _FLAGS[flag].get("type")
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                if value != "--":  # "=--" is no value, as above
                    stop = (f"argument {_label(flag)}: invalid "
                            f"{kind.__name__} value: {value!r}")
                    continue
        values[_DESTS[flag]] = value
        seen.add(flag)
        if helped:
            stop = _HELP
    if stop is not None:
        _stop(name, stop)
    missing = [_label(flag) for flag in required if flag not in seen]
    if missing:
        _stop(name, "the following arguments are required: "
                    + ", ".join(missing))
    if extras:
        _stop(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**(defaults | values))


def _wrap(words, line: str, indent: int) -> list[str]:
    """`line` and `words`, one space apart, wrapped as the standard parser
    does at 80 columns: a word ending past column 78 begins a new line."""
    lines = [line]
    for word in words:
        if len(lines[-1]) + 1 + len(word) > 78:
            lines.append(" " * (indent - 1))
        lines[-1] += " " + word
    return lines


def _entry(head: str, help: str) -> list[str]:
    """An argument's lines in a help section: `head`, then its help."""
    if len(head) > 22:
        return [head, *_wrap(help.split(), " " * 23, 24)]
    return _wrap(help.split(), head.ljust(23), 24)


def _stop(name: str | None, stop) -> None:
    """Exit the walk at `stop` for subcommand `name` (None: the top level),
    printing the help at `_HELP`, else refusing `stop` under the usage."""
    prog = f"strata-cones {name}" if name else "strata-cones"
    lines = [] if name else [
        "Exact weight-cone computations for Goren-Oort strata.", "",
        "positional arguments:", f"  {_CHOICES}",
        *(line for command, (_, help, _) in _SUBCOMMANDS.items()
          for line in _entry(f"    {command}", help)), ""]
    lines.append("options:")
    words = []
    for flag in (None, *_SUBCOMMANDS[name][2]) if name else (None,):
        spec = _FLAGS[flag]
        metavar = f" {_DESTS[flag].upper()}" if flag in _VALUE_FLAGS else ""
        part = _names(flag)[0] + metavar
        words += part.split() if "required" in spec else [f"[{part}]"]
        lines += _entry("  " + ", ".join(option + metavar
                                         for option in _names(flag)),
                        spec["help"] % spec)
    words += [] if name else [_CHOICES, "..."]
    usage = "\n".join(_wrap(words, f"usage: {prog}", len(prog) + 8))
    if stop is not _HELP:
        sys.exit(_fail(stop, EXIT_USAGE, f"{usage}\n{prog}"))
    try:
        print(usage, "", *lines, sep="\n", flush=True)
    except OSError:  # stdout is closed: the help goes, with no error
        sys.stdout = open(os.devnull, "w")  # and so is its flush at exit
    sys.exit(EXIT_OK)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:  # the help, or a refusal of the command line
        return exc.code
    try:  # every input is checked, and -o is not open yet
        work = args.handler(args)
    except ValueError as exc:  # the command line's refusals and the library's
        return _fail(exc, EXIT_USAGE)
    try:  # a ValueError of the work itself is a bug: it keeps its traceback
        return _emit(args, work)
    except RuntimeError as exc:  # the worker pool failed
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
