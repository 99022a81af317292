"""The command line as argparse read it and wrote its replies, before
`strata_cones.cli` walked argv itself: the test-only reference for
`cli._parse`, for its parse and for the text it writes (the help, the usage
lines and every refusal), which the package no longer asks argparse for.

`parse` hands a subcommand named first to that subcommand's argparse
parser, after one walk that joins a declared --weight or --biweight to a
following value that starts with a minus sign and refuses a value flag
joined to "--"; arguments it leaves over get the top-level parser's error.
Anything else is parsed, and refused, by the top-level parser.  The flags
and subcommands are declared here a second time, as argparse takes them,
so that agreement with the command's own table is meaningful; only the
handlers are the command's.  The reference is argparse on CPython 3.10 to
3.12 at 80 columns (COLUMNS=80): 3.13 writes some of these replies
differently, and the command keeps the earlier text.
"""

import argparse
import functools
import sys

from strata_cones import cli


class Parser(argparse.ArgumentParser):
    """argparse with the command's usage-error exit code and full flag
    names."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(cli.EXIT_USAGE, f"{self.prog}: error: {message}\n")


FLAGS = {
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
    "--json": dict(action="store_true", help="emit JSON instead of text"),
    "-o": dict(help="write output to this path instead of stdout"),
}


@functools.cache
def build_parser() -> tuple[Parser, dict[str, Parser]]:
    """The parser and each subcommand's parser by name, built once."""
    parser = Parser(prog="strata-cones",
                    description="Exact weight-cone computations for "
                                "Goren-Oort strata.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help, *flags):
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(handler=handler)
        for flag in flags:
            names = (flag, "--output") if flag == "-o" else (flag,)
            cmd.add_argument(*names, **FLAGS[flag])

    stratum, out = ("--p", "--cycles", "--t"), ("--json", "-o")
    command("describe", cli._cmd_describe, "stratum dossier", *stratum, *out)
    command("check", cli._cmd_check, "run all checks", *stratum, *out,
            "--jobs")
    command("explore", cli._cmd_explore, "sweep primes and degrees",
            "--p-list", "--d-max", "--jobs", *out)
    command("member", cli._cmd_member, "weight-cone membership",
            *stratum, "--weight", *out)
    command("minimal", cli._cmd_minimal, "reduction and minimal-cone data",
            *stratum, "--weight", *out)
    command("gl2", cli._cmd_gl2, "delta class / bi-weight membership",
            *stratum, "--weight", *out, "--biweight")
    return parser, sub.choices


def parse(argv) -> argparse.Namespace:
    """`argv` read as the command read it with argparse."""
    parser, commands = build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    command = commands[argv[0]]
    declared = command._option_string_actions  # argparse's table of flags
    tokens = []
    for token in argv[1:]:
        if (tokens and tokens[-1] in ("--weight", "--biweight")
                and tokens[-1] in declared and token.startswith("-")):
            token = f"{tokens.pop()}={token}"
        flag, _, value = token.partition("=")
        if flag not in declared:  # "-o--": a short flag joined to its value
            flag, value = token[:2], token[2:]
        if value == "--" and flag in declared and declared[flag].nargs is None:
            command.error(f"argument {'/'.join(declared[flag].option_strings)}"
                          ": expected one argument")
        tokens.append(token)
    args, extras = command.parse_known_args(tokens)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args
