"""Command-line front end.

Subcommands::

    solve [--dual] [--stats] [--float] <instance.json>
    certify [--float] <instance.json>
    transform --phi=<v1,v2,...> [--float] <instance.json>
    envelope --levels <n1,n2,...> [--float] <instance.json>
    oracle [--float] <instance.json>
    gen <fixture> [--size N] [--seed S] [--float] [-o FILE]

``solve --stats`` writes the simplex's record (pivots, degenerate pivots,
warm start) as one JSON line on stderr; stdout is the same without it.

Exit status: 0 on success (and on a passing certificate), 2 when a
certificate fails, 1 on any input or usage error. Errors print a message on
stderr, never a traceback. Rational mode is the default; --float converts
the instance and switches every check to tolerance-based comparison.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .certify import certify_instance
from .core import (
    FLOAT,
    RATIONAL,
    Instance,
    as_vector,
    convert_instance,
    dual_value,
)
from .ctransform import _transform_chain
from .dual import solve_dual
from .envelope import envelope_schedule
from .errors import OTLabError
from .fixtures import FIXTURE_NAMES, generate_fixture
from .oracle import oracle_primal
from .primal import solve_primal
from .serialize import (
    certificate_to_dict,
    dump_json,
    format_vector,
    instance_to_dict,
    load_instance,
    result_to_dict,
    schedule_to_dict,
)


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, reserve 2 for failed certificates
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="otlab", description="finite Kantorovich duality laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, with_instance=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--float", dest="as_float", action="store_true",
                       help="convert to float mode (tolerance-based checks)")
        if with_instance:
            p.add_argument("instance", help="instance JSON file")
        return p

    p_solve = add("solve", "solve the primal problem exactly")
    p_solve.add_argument("--dual", action="store_true",
                         help="also produce canonical dual potentials")
    p_solve.add_argument("--stats", action="store_true",
                         help="write the simplex's pivot counts as JSON to stderr")

    add("certify", "solve and certify every duality identity")

    p_tr = add("transform", "c-transform calculus for a given potential")
    p_tr.add_argument("--phi", required=True,
                      help="comma-separated potential over X, written "
                           "--phi=0,1/2,-3 (the = lets a value start with -)")

    p_env = add("envelope", "Lipschitz regularization value schedule")
    p_env.add_argument("--levels", required=True,
                       help="comma-separated increasing levels, e.g. 1,2,5,10")

    add("oracle", "brute-force enumeration solver (small instances)")

    p_gen = add("gen", "generate a deterministic fixture instance", with_instance=False)
    p_gen.add_argument("fixture", help=f"one of: {', '.join(FIXTURE_NAMES)}")
    p_gen.add_argument("--size", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", help="write to file instead of stdout")
    return parser


def _load(args) -> Instance:
    instance = load_instance(args.instance)
    if args.as_float:
        instance = convert_instance(instance, FLOAT)
    return instance


def _emit(text: str, path=None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    instance = _load(args)
    result = solve_primal(instance)
    if args.dual:
        pot = solve_dual(instance, result)
        payload = result_to_dict(
            result, instance.mode, pot=pot,
            dual_val=dual_value(pot, instance.mu, instance.nu),
        )
    else:
        payload = result_to_dict(result, instance.mode)
    _emit(dump_json(payload))
    if args.stats:
        sys.stderr.write(json.dumps(dataclasses.asdict(result.stats)) + "\n")
    return 0


def cmd_certify(args) -> int:
    instance = _load(args)
    cert = certify_instance(instance)
    _emit(dump_json(certificate_to_dict(cert, instance.mode)))
    return 0 if cert.verdict else 2


def cmd_transform(args) -> int:
    instance = _load(args)
    tokens = [tok.strip() for tok in args.phi.split(",")]
    phi = as_vector(tokens, instance.mode, "--phi")
    psi, phi_cc, normalized = _transform_chain(phi, instance.cost)
    payload = {
        "mode": instance.mode,
        "phi": format_vector(phi, instance.mode),
        "phi_c": format_vector(psi, instance.mode),
        "phi_cc": format_vector(phi_cc, instance.mode),
        "normalized": {
            "phi": format_vector(normalized.phi, instance.mode),
            "psi": format_vector(normalized.psi, instance.mode),
        },
    }
    _emit(dump_json(payload))
    return 0


def cmd_envelope(args) -> int:
    instance = _load(args)
    tokens = [tok.strip() for tok in args.levels.split(",") if tok.strip()]
    schedule = envelope_schedule(instance, tokens)
    _emit(dump_json(schedule_to_dict(schedule, instance.mode)))
    return 0


def cmd_oracle(args) -> int:
    instance = _load(args)
    result = oracle_primal(instance)
    _emit(dump_json(result_to_dict(result, instance.mode)))
    return 0


def cmd_gen(args) -> int:
    instance = generate_fixture(
        args.fixture, size=args.size, seed=args.seed,
        mode=FLOAT if args.as_float else RATIONAL,
    )
    payload = instance_to_dict(instance)
    payload["meta"] = {"fixture": args.fixture, "size": args.size, "seed": args.seed}
    _emit(dump_json(payload), path=args.output)
    return 0


_DISPATCH = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "transform": cmd_transform,
    "envelope": cmd_envelope,
    "oracle": cmd_oracle,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (_UsageError, OTLabError, OSError) as exc:
        sys.stderr.write(f"otlab: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
