"""Command-line entry point wiring every module into subcommands.

Exit codes: 0 on success, 1 on invalid input (bad flags, parse failures,
failed verification, inapplicable preconditions), 2 when a computation falls
outside the exact-search envelope.  Certificate paths accept '-' for
stdin/stdout, so subcommands compose in pipelines.  Output is byte-identical
across runs; timings are never printed.
"""

from __future__ import annotations

import argparse
import sys
from math import comb
from pathlib import Path

from . import certio
from .bounds import bound_table, diag_inequality_check
from .coloring import extend_to_full
from .constructions import (
    BOUND_NAMES,
    row_index_coloring,
    shelah_find_rectangle,
    shelah_refute,
    theorem_params,
)
from .core import FullGridColoring, VerticalColoring
from .errors import GridRamError, TooLargeError
from .search import MAX_NAIVE_EDGES, G_exact, g_exact_naive, g_exact_vertical, verify_text
from .transforms import SwitchRecord, stabilise_first, stabilise_step

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for TooLarge here.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _print_records(rows: list[dict[str, object]], fmt: str) -> None:
    if fmt == "tsv":
        print("\t".join(rows[0].keys()))
        for row in rows:
            print("\t".join(_fmt(v) for v in row.values()))
    else:
        for row in rows:
            print(" ".join(f"{k}={_fmt(v)}" for k, v in row.items()))


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_certificate(path: str, kind: str) -> VerticalColoring | FullGridColoring:
    """The certificate at `path`, which must be of `kind` ('vertical' or 'full')."""
    obj = certio.parse(_read_input(path))
    got = "full" if isinstance(obj, FullGridColoring) else "vertical"
    if got != kind:
        raise ValueError(f"expected a {kind} certificate, got a {got} one")
    return obj


def _write_switch_log(records: list[SwitchRecord], path: str) -> None:
    lines = "".join(
        f"s {rec.edge[0]} {rec.edge[1]} {rec.colors[0]} {rec.colors[1]}\n"
        for rec in records
    )
    _write_output(lines, path)


def _cmd_bounds(args) -> int:
    if args.r_max is not None:
        if args.r is not None or args.which is not None:
            raise ValueError("--r-max cannot be combined with --r or --which")
        rows = [
            {**report.parameters, **report.values, "diag_ineq_ok": report.satisfied}
            for report in bound_table(args.r_max)
        ]
        _print_records(rows, "tsv")
        return 0
    if args.r is None or args.which is None:
        raise ValueError("provide either --r-max or both --r and --which")
    params = theorem_params(args.r, args.which)
    fields: dict[str, object] = {"m": params.m, "n": params.n}
    if params.n_floored:
        fields["n_floored"] = True
    _print_records([fields], args.format)
    return 0


def _cmd_search_g(args) -> int:
    # read at call time, so a rebinding of either module name is honoured
    oracles = {"naive": g_exact_naive, "vertical": g_exact_vertical}
    names = [args.oracle]
    if args.oracle == "both":
        # the naive oracle runs only where its edge guard admits the grid;
        # bad sizes count as admitted, so the naive oracle reports them as before
        m, n = max(args.m, 0), max(args.n, 0)
        admitted = m * comb(n, 2) + n * comb(m, 2) <= MAX_NAIVE_EDGES
        names = list(oracles) if admitted else ["vertical"]
    results = [oracles[name](args.m, args.n, args.r_cap) for name in names]
    result = results[-1]
    agree = all(other.value == result.value for other in results)
    fields: dict[str, object] = {"g": result.value if result.value is not None else "none"}
    if len(names) > 1:
        fields["oracles_agree"] = agree
    else:
        fields["oracle"] = names[0]
    if args.emit:
        if result.certificate is None:
            raise ValueError("no certificate found within the colour cap")
        _write_output(certio.emit(result.certificate), args.emit)
    if args.emit == "-":
        # keep stdout parseable as a certificate; the summary moves aside
        print(" ".join(f"{k}={_fmt(v)}" for k, v in fields.items()), file=sys.stderr)
    else:
        _print_records([fields], args.format)
    return 0 if agree else 1


def _cmd_search_G(args) -> int:
    value = G_exact(args.r, args.n_cap)
    fields = {"G": value} if value is not None else {"G": "none", "n_cap": args.n_cap}
    _print_records([fields], args.format)
    return 0


def _cmd_verify(args) -> int:
    verdict = verify_text(_read_input(args.input))
    if verdict.kind == "full":
        if verdict.ok:
            print("valid: no alternating rectangle")
            return 0
        print(f"invalid: {len(verdict.rectangles)} alternating rectangle(s)")
        sys.stdout.writelines(
            "rect rows=(%d,%d) cols=(%d,%d)\n" % (*rect.rows, *rect.cols)
            for rect in verdict.rectangles
        )
        return 1
    if verdict.ok:
        print("valid: good vertical colouring")
        return 0
    assert verdict.report is not None and verdict.report.failing_pair is not None
    i, j = verdict.report.failing_pair
    print(f"invalid: not good, failing pair=({i},{j})")
    return 1


def _cmd_extend(args) -> int:
    full = extend_to_full(_read_certificate(args.input, "vertical"))
    _write_output(certio.emit(full), args.output)
    return 0


def _cmd_stabilise(args) -> int:
    chi = _read_certificate(args.input, "vertical")
    if args.step is None:
        log: list[SwitchRecord] = []
        result = stabilise_first(chi, log)
        info = f"stabilised column 1 with {len(log)} switches"
    else:
        step = stabilise_step(chi, args.step)
        result, log = step.coloring, list(step.switches)
        rows = ",".join(str(row) for row in step.rows)
        info = f"stabilised to level {args.step + 1}, kept rows {rows}"
    if args.log_switches:
        _write_switch_log(log, args.log_switches)
    _write_output(certio.emit(result), args.output)
    print(info, file=sys.stderr)
    return 0


def _cmd_refute(args) -> int:
    witness = shelah_refute(_read_certificate(args.input, "vertical"))
    if args.log_switches:
        _write_switch_log(list(witness.switches), args.log_switches)
    _print_records(
        [
            {
                "i": witness.columns[0],
                "j": witness.columns[1],
                "rows": ",".join(str(row) for row in witness.rows),
                "agreement_edges": witness.graph.edge_count(),
            }
        ],
        args.format,
    )
    return 0


def _cmd_shelah_find(args) -> int:
    rect = shelah_find_rectangle(_read_certificate(args.input, "full"))
    _print_records(
        [{"a": rect.rows[0], "b": rect.rows[1], "i": rect.cols[0], "j": rect.cols[1]}],
        args.format,
    )
    return 0


def _cmd_check_ineq(args) -> int:
    if args.r is not None:
        r_values = [args.r]
    elif args.r_max is not None:
        if args.r_max < 2:
            raise ValueError("r_max must be at least 2")
        r_values = list(range(2, args.r_max + 1))
    else:
        raise ValueError("provide --r or --r-max")
    shown = ("lhs_m", "lhs_m_plus_1", "margin_m", "margin_m_plus_1")
    rows = []
    for r in r_values:
        report = diag_inequality_check(r)
        values = {key: report.values[key] for key in shown}
        rows.append({"r": r, "satisfied": report.satisfied, **values})
    _print_records(rows, args.format)
    return 0


def _cmd_make_lower(args) -> int:
    _write_output(certio.emit(row_index_coloring(args.m, args.n)), args.output)
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("lines", "tsv"),
        default="lines",
        help="machine-readable output style (default: lines)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gridram",
        description="Exact tools for grid edge-colourings avoiding alternating rectangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("bounds", help="closed-form bound parameters, exactly")
    p.add_argument("--r", type=int, help="colour count for a single bound")
    p.add_argument("--which", choices=BOUND_NAMES, help="bound name")
    p.add_argument("--r-max", type=int, dest="r_max", help="emit a TSV table for r = 2..r_max")
    _add_format(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search-g", help="exact g(m, n) by one or both oracles")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-cap", type=int, dest="r_cap", help="largest colour count to try")
    p.add_argument(
        "--oracle",
        choices=("naive", "vertical", "both"),
        default="both",
        help="'both' (default) runs the naive oracle only on grids its edge guard admits",
    )
    p.add_argument("--emit", help="write the certificate to this path ('-' for stdout)")
    _add_format(p)
    p.set_defaults(func=_cmd_search_g)

    p = sub.add_parser("search-G", help="exact G(r) up to a grid-size cap")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-cap", type=int, dest="n_cap", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_search_G)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--input", required=True, help="certificate path ('-' for stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extend", help="extend a good vertical certificate to a full one")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("stabilise", help="stabilise column 1, or run one pigeonhole step")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--step", type=int, help="run the k -> k+1 step at this level")
    p.add_argument("--log-switches", dest="log_switches", help="write applied switches here")
    p.set_defaults(func=_cmd_stabilise)

    p = sub.add_parser("refute", help="find a non-colourable agreement graph by stabilisation")
    p.add_argument("--input", required=True)
    p.add_argument("--log-switches", dest="log_switches", help="write applied switches here")
    _add_format(p)
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("shelah-find", help="pigeonhole an alternating rectangle in a full certificate")
    p.add_argument("--input", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_shelah_find)

    p = sub.add_parser("check-ineq", help="exact final-inequality check")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--r", type=int)
    group.add_argument("--r-max", type=int, dest="r_max")
    _add_format(p)
    p.set_defaults(func=_cmd_check_ineq)

    p = sub.add_parser("make-lower", help="emit the row-index colouring certificate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_make_lower)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TooLargeError as err:
        print(f"gridram: too large: {err}", file=sys.stderr)
        return 2
    except (GridRamError, ValueError, OSError) as err:
        print(f"gridram: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
