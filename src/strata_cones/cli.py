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
import json
import os
import sys
from typing import Sequence

from .cone_kernel import _violated_form, cone_member
from .splitting import SplittingConfig, Stratum, stratum_from_text
from .verify import (
    SCHEMA_VERSION,
    _emb_key,
    _num,
    _vec,
    _vecs,
    check_report,
    explore,
    stratum_dossier,
)
from .weights import (
    cone_D,
    delta_class,
    explicit_constraints,
    forced_divisors,
    minimal_cone,
    reduce_iT,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 3

# every worker process is started up front, so the count is bounded
JOBS_MAX = 64


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


def _config_from(args) -> SplittingConfig:
    try:
        return SplittingConfig(args.p, tuple(_parse_int_list(args.cycles,
                                                             "--cycles")))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _stratum_from(args, config: SplittingConfig) -> Stratum:
    if args.t is None:
        raise _UsageError("--t is required for this subcommand")
    try:
        return stratum_from_text(config, args.t)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _weight_from(text: str, config: SplittingConfig, what: str) -> tuple:
    weight = tuple(_parse_int_list(text, what))
    if len(weight) != config.degree:
        raise _UsageError(
            f"{what} has length {len(weight)}, expected {config.degree}")
    return weight


def _jobs_from(args) -> int:
    what, jobs = "--jobs", args.jobs
    if jobs is None:
        what = "STRATA_CONES_JOBS"
        env = os.environ.get(what) or "1"
        try:
            jobs = int(env)
        except ValueError:
            raise _UsageError(
                f"{what} must be an integer, got {env!r}") from None
    if not 1 <= jobs <= JOBS_MAX:
        raise _UsageError(
            f"{what} must be between 1 and {JOBS_MAX}, got {jobs}")
    return jobs


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_describe(args) -> int:
    config = _config_from(args)
    stratum = _stratum_from(args, config)
    dossier = stratum_dossier(stratum)
    if args.json:
        _emit(json.dumps({"schema": SCHEMA_VERSION} | dossier, indent=2),
              args)
        return EXIT_OK
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
    _emit("\n".join(lines), args)
    return EXIT_OK


def _cmd_check(args) -> int:
    config = _config_from(args)
    strata = None
    if args.t is not None:
        strata = [_stratum_from(args, config)]
    report = check_report(config, strata, jobs=_jobs_from(args))
    if args.json:
        _emit(report.to_json(), args)
    else:
        lines = []
        for record in report.strata:
            for check in record["checks"]:
                lines.append(f"[{record['t']}] {check['name']}: "
                             f"{check['status']}")
        lines.append(f"summary: {report.summary['pass']} pass, "
                     f"{report.summary['fail']} fail, "
                     f"{report.summary['info']} info over "
                     f"{report.summary['strata']} strata")
        _emit("\n".join(lines), args)
    return EXIT_CHECK_FAILED if report.summary["fail"] else EXIT_OK


def _cmd_explore(args) -> int:
    p_list = _parse_int_list(args.p_list, "--p-list") if args.p_list else \
        [2, 3, 5]
    if args.d_max < 1:
        raise _UsageError("--d-max must be at least 1")
    try:
        report = explore(p_list, args.d_max, jobs=_jobs_from(args))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.json:
        _emit(report.to_json(), args)
    else:
        lines = [f"checked {report.summary['strata']} strata: "
                 f"{report.summary['pass']} pass, "
                 f"{report.summary['fail']} fail, "
                 f"{report.summary['info']} info"]
        for record in report.strata:
            for check in record["checks"]:
                if check["status"] == "fail":
                    lines.append(
                        f"FAIL p={record['p']} "
                        f"cycles=({','.join(record['cycles'])}) "
                        f"[{record['t']}] {check['name']}")
        lines.append(f"open question: {report.open_question['unequal']} "
                     "strata with distinct minimal-cone variants")
        _emit("\n".join(lines), args)
    return EXIT_CHECK_FAILED if report.summary["fail"] else EXIT_OK


def _cmd_member(args) -> int:
    config = _config_from(args)
    stratum = _stratum_from(args, config)
    if args.weight is None:
        raise _UsageError("--weight is required for member")
    weight = _weight_from(args.weight, config, "--weight")
    cone = cone_D(stratum)
    cert = cone_member(cone, weight)
    if args.json:
        payload = {"schema": SCHEMA_VERSION, "t": stratum.key(),
                   "weight": _vec(weight), "inside": cert.inside}
        if cert.inside:
            payload["ray_coeffs"] = {_num(i): _num(x) for i, x in
                                     sorted(cert.ray_coeffs.items())}
            payload["line_coeffs"] = {_num(i): _num(x) for i, x in
                                      sorted(cert.line_coeffs.items())}
            payload["rays"] = _vecs(cone.gen.rays)
            payload["lines"] = _vecs(cone.gen.lines)
        else:
            payload["violated_form"] = _vec(cert.violated_form)
        _emit(json.dumps(payload, indent=2), args)
        return EXIT_OK
    if cert.inside:
        lines = [f"{_fmt_vec(weight)} lies in the weight cone of "
                 f"[{stratum.key()}]"]
        for i, x in sorted(cert.ray_coeffs.items()):
            lines.append(f"  {x} * ray {_fmt_vec(cone.gen.rays[i])}")
        for i, x in sorted(cert.line_coeffs.items()):
            lines.append(f"  {x} * line {_fmt_vec(cone.gen.lines[i])}")
        _emit("\n".join(lines), args)
    else:
        _emit(f"{_fmt_vec(weight)} is outside the weight cone of "
              f"[{stratum.key()}]: violated form "
              f"{_fmt_vec(cert.violated_form)}", args)
    return EXIT_OK


def _cmd_minimal(args) -> int:
    config = _config_from(args)
    stratum = _stratum_from(args, config)
    if args.weight is None:
        raise _UsageError("--weight is required for minimal")
    weight = _weight_from(args.weight, config, "--weight")
    reduced = reduce_iT(stratum, weight)
    forced = sorted(forced_divisors(stratum, weight))
    in_min = _violated_form(minimal_cone(stratum, "min").con, reduced) is None
    in_min0 = _violated_form(minimal_cone(stratum, "min0").con,
                             reduced) is None
    if args.json:
        _emit(json.dumps({
            "schema": SCHEMA_VERSION,
            "t": stratum.key(),
            "weight": _vec(weight),
            "reduced": _vec(reduced),
            "forced_divisors": [_emb_key(e) for e in forced],
            "in_minimal": in_min,
            "in_minimal0": in_min0,
        }, indent=2), args)
        return EXIT_OK
    lines = [f"reduction of {_fmt_vec(weight)} on [{stratum.key()}]: "
             f"{_fmt_vec(reduced)}",
             "forced divisors: ["
             + ",".join(_emb_key(e) for e in forced) + "]",
             f"in minimal cone: {'yes' if in_min else 'no'}",
             f"in diagonal minimal cone: {'yes' if in_min0 else 'no'}"]
    _emit("\n".join(lines), args)
    return EXIT_OK


def _cmd_gl2(args) -> int:
    config = _config_from(args)
    if args.biweight is not None:
        stratum = _stratum_from(args, config)
        parts = args.biweight.split(";")
        if len(parts) != 2:
            raise _UsageError(
                "--biweight must be 'lam;kappa', two comma-separated "
                "integer lists")
        lam = _weight_from(parts[0], config, "--biweight first component")
        kappa = _weight_from(parts[1], config, "--biweight second component")
        violated = _violated_form(explicit_constraints(stratum), kappa)
        inside = violated is None
        if args.json:
            payload = {"schema": SCHEMA_VERSION, "t": stratum.key(),
                       "lam": _vec(lam), "kappa": _vec(kappa),
                       "inside": inside}
            if violated is not None:
                payload["violated_form"] = _vec((0,) * config.degree
                                                + violated)
            _emit(json.dumps(payload, indent=2), args)
        elif inside:
            _emit(f"({_fmt_vec(lam)}; {_fmt_vec(kappa)}) lies in the "
                  f"bi-weight cone of [{stratum.key()}] (first component "
                  "free, second in the weight cone)", args)
        else:
            _emit(f"({_fmt_vec(lam)}; {_fmt_vec(kappa)}) is outside the "
                  f"bi-weight cone of [{stratum.key()}]: violated form "
                  f"{_fmt_vec(violated)} on the second component", args)
        return EXIT_OK
    if args.weight is None:
        raise _UsageError("gl2 needs --weight or --t with --biweight")
    weight = _weight_from(args.weight, config, "--weight")
    cls = delta_class(config, weight)
    if args.json:
        _emit(json.dumps({
            "schema": SCHEMA_VERSION,
            "weight": _vec(weight),
            "residues": _vec(cls.residues),
            "moduli": _vec(cls.moduli),
            "zero": cls.is_zero(),
        }, indent=2), args)
        return EXIT_OK
    per_cycle = ", ".join(f"{r} mod {m}"
                          for r, m in zip(cls.residues, cls.moduli))
    _emit(f"delta class of {_fmt_vec(weight)}: {per_cycle}"
          + (" (zero)" if cls.is_zero() else ""), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="strata-cones",
                     description="Exact weight-cone computations for "
                                 "Goren-Oort strata.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(cmd, t_flag=True, weight_flag=False):
        cmd.add_argument("--p", type=int, required=True,
                         help="the rational prime")
        cmd.add_argument("--cycles", required=True,
                         help="comma-separated cycle lengths")
        if t_flag:
            cmd.add_argument("--t", default=None,
                             help="stratum: 'cycle.pos' comma list, '' for "
                                  "the empty stratum, 'all' for everything")
        if weight_flag:
            cmd.add_argument("--weight", default=None,
                             help="comma-separated integer weight")
        cmd.add_argument("--json", action="store_true",
                         help="emit JSON instead of text")
        cmd.add_argument("-o", "--output", default=None,
                         help="write output to this path instead of stdout")

    describe = sub.add_parser("describe", help="stratum dossier")
    common(describe)

    check = sub.add_parser("check", help="run all checks")
    common(check)
    check.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: STRATA_CONES_JOBS "
                            "or 1)")

    explore_cmd = sub.add_parser("explore", help="sweep primes and degrees")
    explore_cmd.add_argument("--p-list", default=None,
                             help="comma-separated primes (default 2,3,5)")
    explore_cmd.add_argument("--d-max", type=int, default=5,
                             help="largest total degree (default 5)")
    explore_cmd.add_argument("--jobs", type=int, default=None)
    explore_cmd.add_argument("--json", action="store_true")
    explore_cmd.add_argument("-o", "--output", default=None)

    member = sub.add_parser("member", help="weight-cone membership")
    common(member, weight_flag=True)

    minimal = sub.add_parser("minimal",
                             help="reduction and minimal-cone data")
    common(minimal, weight_flag=True)

    gl2 = sub.add_parser("gl2", help="delta class / bi-weight membership")
    common(gl2, weight_flag=True)
    gl2.add_argument("--biweight", default=None,
                     help="'lam;kappa' pair of comma-separated lists")

    return parser


_COMMANDS = {
    "describe": _cmd_describe,
    "check": _cmd_check,
    "explore": _cmd_explore,
    "member": _cmd_member,
    "minimal": _cmd_minimal,
    "gl2": _cmd_gl2,
}

# flags whose value may start with a minus sign, which argparse would
# otherwise read as another option
_DASH_VALUE_FLAGS = ("--weight", "--biweight")


def _merge_dash_values(argv: Sequence[str]) -> list[str]:
    merged = []
    i = 0
    while i < len(argv):
        if (argv[i] in _DASH_VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            merged.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        print(f"strata-cones: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"strata-cones: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
