"""Command-line front end.

Subcommands: synth (emit a machine), run (acceptance probability of a
word), dfa (emit the minimal classical solver), certify (exhaustive
minimality search), table (quantum-vs-classical state counts as CSV).

Exit codes: 0 success, 2 bad usage or parameters, 3 internal synthesis
failure, 4 a DFA below the claimed size classifies every witness up to
the witness bounds (stderr names them; it refutes the size formula on
those witnesses, not on the whole promise), 5 enumeration budget exceeded.
"""

import argparse
import sys

from .dfa import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    _certify,
    build_min_dfa,
    claimed_size,
)
from .promise import DEFAULT_I_MAX, DEFAULT_J_MAX, FAMILIES, _check_bounds, spec_from_dict
from .verify import separation_table, write_separation_csv
from .words import dump_json, load_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SYNTH_FAILURE = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_BUDGET = 5


_FLAGS = {"N": "N", "l": "l", "r_yes": "r1", "r_no": "r2"}  # spec field -> its --flag


def _add_family_arguments(parser):
    parser.add_argument("--family", required=True, choices=list(FAMILIES),
                        help="A: unary mod-N residues; B: fixed b-surplus; BN: surplus mod N")
    parser.add_argument("--N", type=int, help="modulus (families A and BN)")
    parser.add_argument("--l", type=int, help="offset/surplus parameter")
    parser.add_argument("--r1", type=int, help="accepted residue (family A, with --r2)")
    parser.add_argument("--r2", type=int, help="rejected residue (family A, with --r1)")


def _spec_from_args(args):
    """Copy the given flags into the family's spec object and load it; for
    family A, --l stands for --r1 0 --r2 l. Errors name the flag."""
    given = {name: getattr(args, flag) for name, flag in _FLAGS.items() if getattr(args, flag) is not None}
    if args.family == "A" and "l" in given:
        if "r_yes" in given or "r_no" in given:
            raise ValueError("give either --l or --r1/--r2, not both")
        given.update(r_yes=0, r_no=given.pop("l"))
    names = FAMILIES[args.family][1]
    for name in names:
        if name not in given:
            flag = "--l or --r1/--r2" if name == "r_yes" and "r_no" not in given else f"--{_FLAGS[name]}"
            raise ValueError(f"family {args.family} needs {flag}")
    for name in given:
        if name not in names:
            raise ValueError(f"family {args.family} takes no --{_FLAGS[name]}")
    return spec_from_dict({"family": args.family, **given})


def _emit(text, output):
    """Write to the output file if given (summary goes to stdout), else to
    stdout (summary to stderr)."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
        return sys.stdout
    print(text)
    return sys.stderr


def cmd_synth(args):
    from . import synth

    machine, selection = synth.build_for(_spec_from_args(args))
    stream = _emit(machine.to_json(), args.output)
    print(
        f"{machine.dim}-state machine, theta = 2*pi*{selection.q}/{selection.D}, "
        f"p = {selection.p:.6f}, case = {selection.case_tag}",
        file=stream,
    )
    return EXIT_OK


def cmd_run(args):
    from .moqfa import Moqfa

    with open(args.machine, encoding="utf-8") as handle:
        machine = Moqfa.from_json(handle.read())
    if (args.word is None) == (args.length is None):
        raise ValueError("give exactly one of WORD or --length")
    word = args.length if args.length is not None else args.word
    prob = machine.accept_probability(word)
    print(f"{prob:.15e}")
    return EXIT_OK


def cmd_dfa(args):
    spec = _spec_from_args(args)
    d, formula = claimed_size(spec)
    # the table has d rows; the certificate budget bounds it as well
    if d > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(f"a d={d}-state DFA exceeds budget {DEFAULT_ENUMERATION_BUDGET} states")
    stream = _emit(build_min_dfa(spec).to_json(), args.output)
    print(f"d={d} ({formula})", file=stream)
    return EXIT_OK


def cmd_certify(args):
    _check_bounds(args.i_max, args.j_max)  # every family's, before any budget
    certificate = _certify(_spec_from_args(args), args.i_max, args.j_max, args.budget)
    if args.format == "json":
        text = dump_json({**certificate.to_dict(), "budget": args.budget, "seed": args.seed})
    else:
        verdict = "Certified" if certificate.certified else "COUNTEREXAMPLE FOUND"
        text = (
            f"{verdict}: claimed_d={certificate.claimed_d}, "
            f"machines_checked={certificate.machines_checked}"
        )
    _emit(text, args.output)
    if not certificate.certified:
        i_max, j_max = certificate.witness_bounds
        bounds = f"i_max={i_max}" if j_max is None else f"i_max={i_max}, j_max={j_max}"
        print(
            f"counterexample DFA classifies every witness up to {bounds}:\n"
            + certificate.counterexample.to_json(),
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _specs_from_data(data):
    if not isinstance(data, list):
        raise ValueError("spec file must hold a JSON array of spec objects")
    return [spec_from_dict(item) for item in data]


def cmd_table(args):
    _check_bounds(args.i_max, args.j_max)  # `A` rows certify on their own bound
    with open(args.specs, encoding="utf-8") as handle:
        specs = load_json(handle.read(), "spec list", _specs_from_data)
    rows = separation_table(
        specs,
        i_max=args.i_max,
        j_max=args.j_max,
        certify_budget=args.budget,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            write_separation_csv(rows, handle)
        print(f"{len(rows)} rows written to {args.output}", file=sys.stdout)
    else:
        write_separation_csv(rows, sys.stdout)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfa-exact",
        description="Exact quantum finite automata vs minimal DFAs for modular promise problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a machine and emit its JSON")
    _add_family_arguments(p_synth)
    p_synth.add_argument("-o", "--output", help="machine JSON path (default stdout)")
    p_synth.set_defaults(handler=cmd_synth)

    p_run = sub.add_parser("run", help="acceptance probability of a word")
    p_run.add_argument("--machine", required=True, help="machine JSON file")
    p_run.add_argument("word", nargs="?", help="input word, e.g. aabb")
    p_run.add_argument("--length", type=int, help="unary word given as its length")
    p_run.set_defaults(handler=cmd_run)

    p_dfa = sub.add_parser("dfa", help="build the minimal classical solver")
    _add_family_arguments(p_dfa)
    p_dfa.add_argument("-o", "--output", help="DFA JSON path (default stdout)")
    p_dfa.set_defaults(handler=cmd_dfa)

    p_certify = sub.add_parser("certify", help="exhaustively check the minimality formula")
    _add_family_arguments(p_certify)
    p_certify.add_argument("--i-max", type=int, default=DEFAULT_I_MAX,
                           help="witness generator bound (default: %(default)s)")
    p_certify.add_argument("--j-max", type=int, default=DEFAULT_J_MAX,
                           help="witness modular-repeat bound (family BN) (default: %(default)s)")
    p_certify.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
                           help="max candidate machines to enumerate (default: %(default)s)")
    p_certify.add_argument("--format", choices=["text", "json"], default="text",
                           help="verdict format (default: %(default)s)")
    p_certify.add_argument("--seed", type=int, help="echoed into JSON output")
    p_certify.add_argument("-o", "--output", help="certificate path (default stdout)")
    p_certify.set_defaults(handler=cmd_certify)

    p_table = sub.add_parser("table", help="emit the separation table as CSV")
    p_table.add_argument("--specs", required=True,
                         help="JSON file: array of spec objects, e.g. "
                              '[{"family": "A", "N": 7, "r_yes": 0, "r_no": 3}]')
    p_table.add_argument("--i-max", type=int, default=DEFAULT_I_MAX,
                         help="witness generator bound for B and BN rows; A rows "
                              "certify on the sufficient bound 2d+2 (default: %(default)s)")
    p_table.add_argument("--j-max", type=int, default=DEFAULT_J_MAX,
                         help="witness modular-repeat bound for BN rows (default: %(default)s)")
    p_table.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
                         help="certification budget; 0 disables certification (default: %(default)s)")
    p_table.add_argument("-o", "--output", help="CSV path (default stdout)")
    p_table.set_defaults(handler=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EnumerationBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"synthesis failure: {exc}", file=sys.stderr)
        return EXIT_SYNTH_FAILURE


if __name__ == "__main__":
    sys.exit(main())
