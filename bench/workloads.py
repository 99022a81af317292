"""Seeded inputs for the three benchmark workloads, and the loop that runs them.

Every input is a `strata-cones` argument vector.  Inputs are built from the
seed alone, before anything is timed, and without importing the program, so
the program sees only the finished argument lists.

- `sweep`: the acceptance-gate sweep as a user runs it, restricted to the
  degree <= 4 prefix (p in {2, 3, 5}, 342 strata) so that one run fits the
  benchmark's time budget.  The input is fixed; the seed is ignored.
- `deep`: two strata, of different sizes, for every (p, cycle partition) of
  degree 6 and 7 (156 strata), each checked on its own through `check --t`.
  The strata come from a fixed sample; the seed rotates every cycle and permutes cycles of
  equal length.  That gives isomorphic strata with new coordinates and
  outputs, so seeds change the inputs but not the mix of costs.
- `queries`: a closed loop with one caller issuing `describe`, `member`,
  `minimal`, `gl2 --weight` and `gl2 --biweight`, all with `--json`.  Each
  block holds every kind at every degree 1..6 once, in seeded order.  The
  prime, cycle partition and stratum size follow a fixed cycle, so every
  seed has the same mix of costs; the seed picks the strata's embeddings
  and the weights.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass

WORKLOADS = ("sweep", "deep", "queries")

PRIMES = (2, 3, 5)
SWEEP_ARGV = ("explore", "--p-list", "2,3,5", "--d-max", "4", "--json")
SWEEP_STRATA = 342
DEEP_DEGREES = (6, 7)
# batches of 78 strata in one unit of `deep`; each batch shifts the sizes
DEEP_BATCHES = 2
QUERY_KINDS = ("describe", "member", "minimal", "gl2-weight", "gl2-biweight")
QUERY_MAX_DEGREE = 6
WEIGHT_RANGE = 20

# Seconds one unit of work takes at the seed commit on the reference machine
# (2 cores, Python 3.11).  `--seconds` is turned into a whole number of
# units, so a run does a fixed amount of work: wall time and throughput then
# compare across commits, and call counts repeat exactly.
UNIT_SECONDS = {"sweep": 13.4, "deep": 26.0, "queries": 0.125}

# exit codes that mean the program answered: check and explore exit 2 when a
# check reports a failure, which is an output, not an error
ANSWERED = {"sweep": (0, 2), "deep": (0, 2), "queries": (0,)}


def units(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def partitions(d: int):
    """Cycle partitions of d, largest part first, in descending order."""
    def rec(left, cap, prefix):
        if left == 0:
            yield prefix
            return
        for part in range(min(left, cap), 0, -1):
            yield from rec(left - part, part, prefix + (part,))
    yield from rec(d, d, ())


def _embeddings(lengths):
    return [(c, i) for c, f in enumerate(lengths) for i in range(f)]


def _stratum_text(rng: random.Random, lengths, size: int) -> str:
    chosen = sorted(rng.sample(_embeddings(lengths), size))
    return ",".join(f"{c}.{i}" for c, i in chosen)


def _config_args(p: int, lengths) -> list[str]:
    return ["--p", str(p), "--cycles", ",".join(map(str, lengths))]


def _weight(rng: random.Random, degree: int) -> str:
    return ",".join(str(rng.randint(-WEIGHT_RANGE, WEIGHT_RANGE))
                    for _ in range(degree))


def sweep_inputs(seed: int, count: int) -> list[tuple[str, ...]]:
    return [SWEEP_ARGV] * count


def _shapes(batch: int):
    """The fixed deep strata of one batch, before the seed orients them."""
    rng = random.Random(f"deep-shapes:{batch}")
    configs = [(p, lengths) for p in PRIMES for d in DEEP_DEGREES
               for lengths in sorted(partitions(d))]
    for j, (p, lengths) in enumerate(configs):
        size = (j + batch) % (sum(lengths) + 1)
        yield p, lengths, rng.sample(_embeddings(lengths), size)


def _orient(rng: random.Random, lengths, members) -> str:
    """Rotate every cycle and permute cycles of equal length: an isomorphic
    stratum, so the cost stays about the same while the input changes."""
    target = list(range(len(lengths)))
    for f in set(lengths):
        same = [c for c, g in enumerate(lengths) if g == f]
        for c, d in zip(same, rng.sample(same, len(same))):
            target[c] = d
    shift = [rng.randrange(f) for f in lengths]
    moved = sorted((target[c], (i + shift[c]) % lengths[c])
                   for c, i in members)
    return ",".join(f"{c}.{i}" for c, i in moved)


def deep_inputs(seed: int, count: int) -> list[tuple[str, ...]]:
    rng = random.Random(f"deep:{seed}")
    return [("check", *_config_args(p, lengths),
             "--t", _orient(rng, lengths, members), "--json")
            for batch in range(DEEP_BATCHES * count)
            for p, lengths, members in _shapes(batch)]


def _query(rng: random.Random, kind: str, degree: int,
           turn: int) -> tuple[str, ...]:
    """One query; `turn` walks the prime, cycle partition and stratum size
    through a fixed cycle, so every seed asks for the same mix of costs."""
    shapes = sorted(partitions(degree))
    p = PRIMES[(turn + degree) % len(PRIMES)]
    lengths = shapes[turn % len(shapes)]
    size = turn // len(shapes) % (degree + 1)
    base = _config_args(p, lengths)
    t = _stratum_text(rng, lengths, size)
    weight = _weight(rng, degree)
    if kind == "describe":
        argv = ["describe", *base, "--t", t]
    elif kind in ("member", "minimal"):
        argv = [kind, *base, "--t", t, "--weight", weight]
    elif kind == "gl2-weight":
        argv = ["gl2", *base, "--weight", weight]
    else:
        argv = ["gl2", *base, "--t", t,
                "--biweight", f"{weight};{_weight(rng, degree)}"]
    return (*argv, "--json")


def queries_inputs(seed: int, count: int) -> list[tuple[str, ...]]:
    rng = random.Random(f"queries:{seed}")
    out = []
    for block in range(count):
        kinds = [(k, kind, d) for k, kind in enumerate(QUERY_KINDS)
                 for d in range(1, QUERY_MAX_DEGREE + 1)]
        rng.shuffle(kinds)
        out.extend(_query(rng, kind, d, block + k) for k, kind, d in kinds)
    return out


def build_inputs(workload: str, seed: int, seconds: float):
    """The argument vectors of one run; the same seed gives the same list,
    and a longer run extends a shorter one."""
    make = {"sweep": sweep_inputs, "deep": deep_inputs,
            "queries": queries_inputs}[workload]
    return make(seed, units(workload, seconds))


def items_per_call(workload: str) -> int:
    return SWEEP_STRATA if workload == "sweep" else 1


@dataclass
class CallResult:
    argv: tuple[str, ...]
    code: int | None
    out: str
    error: str | None
    start: float
    end: float


def run_calls(cli, calls, tracer=None, speed=None) -> list[CallResult]:
    """Run each argument vector through `cli.main` in this process, one
    after the other, with stdout and stderr captured.  `speed`, if given,
    probes the machine speed between calls."""
    results = []
    for index, argv in enumerate(calls):
        if speed is not None:
            speed.maybe_sample()
        if tracer is not None:
            tracer.item = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as exc:  # an item that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if error is None and err.getvalue():
            error = err.getvalue().strip()
        results.append(CallResult(tuple(argv), code, out.getvalue(), error,
                                  start, end))
    if speed is not None:
        speed.sample()
    return results
