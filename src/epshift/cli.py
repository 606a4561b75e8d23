"""Command-line front end.

Every subcommand writes one JSON value to stdout and diagnostics to stderr;
so does a command line that does not parse.  Exit codes: 0 success, 1
property failure (a verification that ran and failed), 2 usage or input
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import classify, jsonio
from .bezout import restricted_bezout
from .errors import EpshiftError, InputError, InvalidSpec, MalformedInput
from .sequences import EPSeq, PeriodicSeq, anomaly_size, canonical, least_period, remove_anomaly, similar
from .sturmian import (
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    cell_series,
    expand_cells,
    skew_sturmian,
)


def _emit(obj) -> None:
    # json.dumps runs the C encoder; json.dump would stream through the Python one
    sys.stdout.write(json.dumps(obj) + "\n")


def _fail(kind: str, message: str, code: int) -> int:
    _emit({"error": {"kind": kind, "message": message}})
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_json(path: str):
    """The JSON value in the file; nesting too deep to decode is
    MalformedInput rather than a RecursionError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MalformedInput(f"{path}: JSON nested too deeply to decode") from None


def _load_epseq(path: str) -> EPSeq:
    return jsonio.parse_epseq(_read_json(path))


def _pretty_ep(x: EPSeq) -> str:
    w, v = x.period_word.text, x.anomaly.text
    return f"…{w} {w} [{v}] {w} {w}…"


def _pretty_per(p: PeriodicSeq) -> str:
    w = p.period_word.text
    return f"…{w} {w} {w}… (phase 0)"


def _parse_freq(text: str) -> Frequency:
    if text == "inf":
        return Frequency.infinity()
    if text == "0":
        return Frequency.zero()
    qs, _, ps = text.partition("/")
    try:
        q, p = int(qs), int(ps)
    except ValueError:
        raise InvalidSpec(f"--freq must be q/p with integers q and p, 0 or inf, "
                          f"got {text!r}") from None
    return Frequency.rational(q, p)


def _cell_count(text: str) -> int:
    message = f"must be a count of cells >= 0, got {text}"
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if n < 0:
        raise argparse.ArgumentTypeError(message)
    return n


def cmd_bezout(args) -> int:
    bp = restricted_bezout(args.q, args.p)
    _emit({"a": bp.a, "b": bp.b, "check": "b*q-a*p=1"})
    return 0


def cmd_sturmian_gen(args) -> int:
    freq = _parse_freq(args.freq)
    stype = TYPE_S if args.type == "S" else TYPE_SPRIME
    spec = SturmianSpec(freq, stype, args.m)
    if args.emit == "epseq":
        x = skew_sturmian(spec)
        obj = jsonio.emit_epseq(x)
        if args.pretty:
            obj["pretty"] = _pretty_ep(x)
        _emit(obj)
        return 0
    if freq.kind != "rational":
        raise InvalidSpec(f"--emit {args.emit} needs a rational frequency")
    half = args.cells if args.cells is not None else 2 * (freq.p + 1) + 2
    cs = cell_series(spec, spec.m - half, spec.m + half)
    if args.emit == "cells":
        _emit(["1" + "0" * z for z in cs.zeros])
    else:
        _emit(expand_cells(cs).text)
    return 0


def cmd_ep(args) -> int:
    x = _load_epseq(args.file)
    if args.ep_cmd == "similar":
        _emit({"similar": similar(x, _load_epseq(args.other))})
        return 0
    shown, pretty = x, _pretty_ep
    if args.ep_cmd == "anomaly-size":
        obj = {"anomaly_size": anomaly_size(x), "least_period": least_period(x)}
    elif args.ep_cmd == "least-period":
        obj = {"least_period": least_period(x)}
    elif args.ep_cmd == "canonical":
        shown = canonical(x)
        obj = jsonio.emit_epseq(shown)
    else:  # remove-anomaly, whose result is periodic
        shown, pretty = remove_anomaly(x), _pretty_per
        obj = jsonio.emit_perseq(shown)
    if args.pretty:
        obj["pretty"] = pretty(shown)
    _emit(obj)
    return 0


def cmd_classify(args) -> int:
    if args.classify_cmd == "conjugate":
        x, y = _load_epseq(args.a), _load_epseq(args.b)
        res = classify.conjugate_ep(x, y)
        obj = {
            "conjugate": res,
            "invariants": {
                "x": {"least_period": least_period(x), "anomaly_size": anomaly_size(x)},
                "y": {"least_period": least_period(y), "anomaly_size": anomaly_size(y)},
            },
        }
        if args.witness:
            if res:
                fwd, inv = classify.conjugacy_witness(x, y)
                with open(args.witness, "w", encoding="utf-8") as fh:
                    json.dump(jsonio.emit_conjugacy(fwd, inv), fh, indent=2)
                obj["witness"] = args.witness
            else:
                obj["witness"] = None
        _emit(obj)
        return 0
    if args.classify_cmd == "flow":
        x, y = _load_epseq(args.a), _load_epseq(args.b)
        wit = classify.flow_witness(x, y)
        with open(args.witness, "w", encoding="utf-8") as fh:
            json.dump(jsonio.emit_flow_witness(wit), fh, indent=2)
        _emit({
            "flow_equivalent": True,
            "chain_x_moves": len(wit.chain_x),
            "chain_y_moves": len(wit.chain_y),
            "witness": args.witness,
        })
        return 0
    if args.classify_cmd == "check-witness":
        x, y = _load_epseq(args.a), _load_epseq(args.b)
        raw = _read_json(args.witness_file)
        trail: list[str] = []
        fmt = raw.get("format") if isinstance(raw, dict) else None
        if fmt == jsonio.FLOW_FORMAT:
            wit = jsonio.parse_flow_witness(raw)
            valid = classify.verify_flow_witness(x, y, wit, trail)
        elif fmt == jsonio.CONJUGACY_FORMAT:
            fwd, inv = jsonio.parse_conjugacy(raw)
            valid = classify.check_conjugacy(x, y, fwd, inv, trail)
        else:
            raise ValueError(f"unrecognized witness format {fmt!r}")
        _emit({"valid": valid, "trail": trail})
        return 0 if valid else 1
    raise ValueError(f"unknown classify subcommand {args.classify_cmd!r}")


def cmd_verify(args) -> int:
    from . import verify  # imported here: no other command needs it

    seed = args.seed
    if seed is None:
        text = os.environ.get("SUBSHIFT_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise InputError(f"SUBSHIFT_SEED must be an integer, got {text!r}") from None
    bounds = verify.VerifyBounds().capped(args.max_period_sum)

    def progress(chk):
        print(
            f"{chk.status}  {chk.tag}  ({chk.checked} instances, {chk.seconds:.2f}s)",
            file=sys.stderr,
        )

    report = verify.run_all(bounds, seed=seed, progress=progress)
    _emit(report.to_obj())
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an InputError, so that main prints it as JSON."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epshift",
        description="Eventually periodic subshifts: invariants, witnesses, skew Sturmian generators.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_bez = sub.add_parser("bezout", help="restricted Bézout coefficients for (q, p)")
    p_bez.add_argument("q", type=int)
    p_bez.add_argument("p", type=int)
    p_bez.set_defaults(func=cmd_bezout)

    p_st = sub.add_parser("sturmian", help="skew Sturmian generators")
    st_sub = p_st.add_subparsers(dest="sturmian_cmd", required=True)
    p_gen = st_sub.add_parser("gen", help="generate a skew Sturmian sequence")
    p_gen.add_argument("--freq", required=True, help="q/p, 0 or inf")
    p_gen.add_argument("--type", required=True, choices=["S", "Sprime"])
    p_gen.add_argument("--m", type=int, default=0, help="lattice offset (default 0)")
    p_gen.add_argument("--cells", type=_cell_count, default=None,
                       help="cells on each side of B_m for cells/symbols output")
    p_gen.add_argument("--emit", choices=["cells", "symbols", "epseq"], default="epseq")
    p_gen.add_argument("--pretty", action="store_true")
    p_gen.set_defaults(func=cmd_sturmian_gen)

    p_ep = sub.add_parser("ep", help="operations on eventually periodic sequences")
    ep_sub = p_ep.add_subparsers(dest="ep_cmd", required=True)
    for name in ("anomaly-size", "least-period", "canonical", "remove-anomaly"):
        q = ep_sub.add_parser(name)
        q.add_argument("file")
        q.add_argument("--pretty", action="store_true")
        q.set_defaults(func=cmd_ep)
    q = ep_sub.add_parser("similar")
    q.add_argument("file")
    q.add_argument("other")
    q.set_defaults(func=cmd_ep)

    p_cl = sub.add_parser("classify", help="conjugacy and flow equivalence")
    cl_sub = p_cl.add_subparsers(dest="classify_cmd", required=True)
    q = cl_sub.add_parser("conjugate")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--witness", default=None, help="write a conjugacy witness here")
    q.set_defaults(func=cmd_classify)
    q = cl_sub.add_parser("flow")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--witness", required=True, help="write the flow witness here")
    q.set_defaults(func=cmd_classify)
    q = cl_sub.add_parser("check-witness")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("witness_file")
    q.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run the theorem-verification suite")
    p_ver.add_argument("--max-period-sum", type=int, default=None,
                       help="lower every p+q bound above this value to it")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="random-instance seed (default: SUBSHIFT_SEED or 0)")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ValueError, OSError) as e:  # JSONDecodeError is a ValueError
        return _fail(type(e).__name__, str(e), 2)
    except EpshiftError as e:
        return _fail(type(e).__name__, str(e), 1)


if __name__ == "__main__":
    sys.exit(main())
