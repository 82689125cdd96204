"""Command-line surface: continued fractions, Pell-type solving, fundamental
units, class numbers, family verification, and published-table audits.

Output formats: human (default), csv, json, markdown.  The three machine
formats carry field-for-field identical content.  Exit codes are a contract:
0 success / solutions exist, 1 proven-negative or audit mismatch, 2 usage
error, 3 family counterexample, 4 internal limit or broken invariant (a
factor beyond the deterministic primality range, a class number above the
enumeration limit, an ArithmeticError).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .cfrac import cf_sqrt
from .classgroup import _class_number
from .families import FAMILY_IDS, gen_members, reproduce_table, verify_member
from .intkit import FactorizationIncompleteError, factorize, squarefree_core
from .published_tables import TABLES
from .pell import brute_force_solve, fundamental_unit, solve_pm_N

FORMATS = ("human", "csv", "json", "markdown")


# ---------------------------------------------------------------- rendering

def _token(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        if not value:
            return "none"
        if value and isinstance(value[0], (list, tuple)):
            return ";".join(f"{x}:{y}" for x, y in value)
        return ";".join(str(v) for v in value)
    return str(value)


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _emit_csv(rows: list[dict]) -> None:
    keys = list(rows[0].keys()) if rows else []
    sys.stdout.write(",".join(keys) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_token(row[k]) for k in keys) + "\n")


def _emit_markdown(rows: list[dict]) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    sys.stdout.write("| " + " | ".join(keys) + " |\n")
    sys.stdout.write("|" + "|".join(" --- " for _ in keys) + "|\n")
    for row in rows:
        sys.stdout.write("| " + " | ".join(_token(row[k]) for k in keys) + " |\n")


def _emit_human_table(rows: list[dict]) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    cells = [[_token(row[k]) for k in keys] for row in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    sys.stdout.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
    for c in cells:
        sys.stdout.write("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip() + "\n")


def _emit_object(obj: dict, fmt: str, human: str) -> None:
    """Single-result commands: bare json object, one-row csv/markdown."""
    if fmt == "human":
        sys.stdout.write(human + "\n")
    elif fmt == "json":
        _emit_json(obj)
    else:
        _emit_rows([obj], fmt)


def _emit_rows(rows: list[dict], fmt: str) -> None:
    """Row-stream commands: json object with a "rows" array."""
    if fmt == "human":
        _emit_human_table(rows)
    elif fmt == "json":
        _emit_json({"rows": rows})
    elif fmt == "csv":
        _emit_csv(rows)
    else:
        _emit_markdown(rows)


def _core_note(m: int, core: int, noun: str) -> str:
    square_part = factorize(m // core)
    return f"{m} = {square_part}*{core}; {noun} computed for {core}"


# --------------------------------------------------------------- subcommands

def _field_core(command: str, m: int) -> tuple[int, bool]:
    """The square-free core of m and whether m is square-free; `unit` and
    `classno` refuse m < 2 and perfect squares."""
    if m < 2:
        raise ValueError(f"{command}: m must be >= 2")
    core, is_sf = squarefree_core(m)
    if core < 2:
        raise ValueError(f"{command}: m must not be a perfect square")
    return core, is_sf


def _cmd_cf(args, fmt: str) -> int:
    exp = cf_sqrt(args.m)
    obj = {"m": exp.m, "a0": exp.a0, "period": list(exp.period),
           "period_length": exp.period_length}
    human = (f"sqrt({exp.m}) = [{exp.a0}; {', '.join(map(str, exp.period))}], "
             f"period {exp.period_length}")
    _emit_object(obj, fmt, human)
    return 0


def _cmd_solve(args, fmt: str) -> int:
    if args.N is None and args.target is None:
        raise ValueError("solve: provide N positionally (use `--` before a negative "
                         "value) or as --N=<value>")
    if args.N is not None and args.target is not None and args.N != args.target:
        raise ValueError("solve: conflicting N given positionally and via --N")
    n_target = args.N if args.N is not None else args.target

    if args.ymax is not None:
        sols = brute_force_solve(args.m, n_target, args.ymax)
        obj = {"m": args.m, "N": n_target, "mode": "brute-force",
               "complete": False, "ymax": args.ymax, "solutions": sols}
        if sols:
            human = (", ".join(f"({x},{y})" for x, y in sols)
                     + f"  [all solutions with y <= {args.ymax}; not a completeness proof]")
        else:
            human = f"no solutions with y <= {args.ymax} (incomplete search)"
        _emit_object(obj, fmt, human)
        return 0 if sols else 1

    cert = solve_pm_N(args.m, n_target)
    obj = {"m": cert.m, "N": cert.target, "mode": cert.method, "complete": True,
           "scan_length": cert.scan_length, "solutions": [list(s) for s in cert.solutions]}
    if cert.has_solutions:
        human = ", ".join(f"({x},{y})" for x, y in cert.solutions)
    elif fmt != "human":
        human = ""  # the note below factorizes |N|, and only human output shows it
    else:
        coprime_note = "" if squarefree_core(abs(n_target))[1] else " [coprime (x, y)]"
        if cert.method == "convergents":
            human = f"no solution (complete scan, {cert.scan_length} convergents){coprime_note}"
        else:  # an lmm scan_length counts the root search as one step
            human = (f"no solution (complete LMM search, "
                     f"{cert.scan_length - 1} PQa steps){coprime_note}")
    _emit_object(obj, fmt, human)
    return 0 if cert.has_solutions else 1


def _cmd_unit(args, fmt: str) -> int:
    core, is_sf = _field_core("unit", args.m)
    u = fundamental_unit(core)
    obj = {"m": args.m, "core": core, "a": u.a, "b": u.b, "denom": u.denom,
           "norm": u.norm}
    lines = []
    if not is_sf and fmt == "human":  # the note factorizes m // core
        lines.append(_core_note(args.m, core, "unit"))
    lines.append(f"fundamental unit of Q(sqrt({core})) = {u}, norm {u.norm:+d}")
    _emit_object(obj, fmt, "\n".join(lines))
    return 0


def _cmd_classno(args, fmt: str) -> int:
    core, is_sf = _field_core("classno", args.m)
    data = _class_number(core)
    obj = {"m": args.m, "core": core, "D": data.D, "h": data.h_wide,
           "h_narrow": data.h_narrow, "unit_norm": data.unit_norm}
    lines = []
    if not is_sf and fmt == "human":  # the note factorizes m // core
        lines.append(_core_note(args.m, core, "h"))
    lines.append(f"h={data.h_wide} (h_narrow={data.h_narrow}, "
                 f"unit norm {data.unit_norm:+d}, D={data.D})")
    _emit_object(obj, fmt, "\n".join(lines))
    return 0


def _cmd_verify(args, fmt: str) -> int:
    members = gen_members(args.family, args.pmax, args.nmax,
                          require_congruence=args.congruence,
                          allow_n0=args.allow_n0)
    rows = []
    upheld = exceptions = violations = class_skipped = 0
    for member in members:
        report = verify_member(member)
        if report.theorem_upheld:
            upheld += 1
            if report.is_exception:
                exceptions += 1
        else:
            violations += 1
        if report.h_wide is None:
            class_skipped += 1
        rows.append({
            "family": member.family, "p": member.p, "n": member.n,
            "d": member.d, "m": member.m,
            "squarefree": member.m_is_squarefree,
            "congruence": member.congruence_ok,
            "plus": list(report.cert_plus.solutions),
            "minus": list(report.cert_minus.solutions),
            "upheld": report.theorem_upheld,
            "exception": report.is_exception,
            "h": report.h_wide,
            "h_gt_1": report.class_conclusion,
        })
    _emit_rows(rows, fmt)
    print(f"members={len(members)} upheld={upheld} exceptions={exceptions} "
          f"violations={violations} class_skipped={class_skipped}", file=sys.stderr)
    return 3 if violations else 0


def _cmd_tables(args, fmt: str) -> int:
    rows = reproduce_table(args.table)
    out = []
    for r in rows:
        notes = []
        if not r.match_m:
            notes.append("SUSPECTED-TYPO")
        if r.starred:
            notes.append("starred")
        if not r.m_is_squarefree:
            notes.append(f"core={r.core}")
        out.append({
            "table": r.table, "p": r.p, "n": r.n,
            "m_printed": r.m_printed, "m_recomputed": r.m_recomputed,
            "match_m": r.match_m, "h_printed": r.h_printed,
            "h_computed": r.h_computed, "h_printed_m": r.h_printed_m,
            "squarefree": r.m_is_squarefree, "match_h": r.match_h,
            "note": ";".join(notes) if notes else "ok",
        })
    _emit_rows(out, fmt)
    return 0 if all(r.match_h for r in rows if r.match_m) else 1


def _cmd_seed_tables(fmt: str) -> int:
    rows = [{"table": t, "p": p, "n": n, "m": m, "h": h, "starred": starred}
            for t in sorted(TABLES)
            for p, n, m, h, starred in TABLES[t]]
    _emit_rows(rows, fmt)
    return 0


# -------------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pellkit",
        description="Exact arithmetic for Pell-type equations x^2 - m*y^2 = N, "
                    "fundamental units, and real quadratic class numbers.")
    parser.add_argument("--seed-tables", action="store_true",
                        help="emit the embedded published tables verbatim and exit")
    parser.add_argument("--format", choices=FORMATS, default="human",
                        help="output format (default: human)")
    parser.add_argument("--timing", action="store_true",
                        help="report elapsed wall time on stderr")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("cf", help="continued fraction of sqrt(m)")
    sp.add_argument("m", type=int)
    sp.set_defaults(run=_cmd_cf)

    sp = sub.add_parser(
        "solve", help="decide x^2 - m*y^2 = N",
        description="Decide x^2 - m*y^2 = N with a completeness certificate. "
                    "Negative N: either `solve m -- -3` or `solve m --N=-3`. "
                    "With --ymax, switch to an incomplete brute-force search.")
    sp.add_argument("m", type=int)
    sp.add_argument("N", type=int, nargs="?", default=None)
    sp.add_argument("--N", dest="target", type=int, default=None,
                    help="target N (alternative to the positional form)")
    sp.add_argument("--ymax", type=int, default=None,
                    help="brute-force mode: search 1 <= y <= ymax only")
    sp.set_defaults(run=_cmd_solve)

    sp = sub.add_parser("unit", help="fundamental unit of Q(sqrt(m))")
    sp.add_argument("m", type=int)
    sp.set_defaults(run=_cmd_unit)

    sp = sub.add_parser("classno", help="class number of Q(sqrt(m))")
    sp.add_argument("m", type=int)
    sp.set_defaults(run=_cmd_classno)

    sp = sub.add_parser("verify", help="verify the solvability pattern over a family")
    sp.add_argument("family", choices=FAMILY_IDS)
    sp.add_argument("--pmax", type=int, default=50)
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--congruence", action="store_true",
                    help="keep only primes passing the family's congruence")
    sp.add_argument("--allow-n0", action="store_true",
                    help="admit n = 0 (F3/F4 only; reaches the m = 7 exception)")
    sp.set_defaults(run=_cmd_verify)

    sp = sub.add_parser("tables", help="recompute a published table and flag typos")
    sp.add_argument("table", type=int, choices=(1, 2, 3, 4))
    sp.set_defaults(run=_cmd_tables)

    # The global flags again after each command's own arguments (so --help
    # keeps its order), as fresh actions: a shared Action would share its
    # default.  SUPPRESS keeps a value given before the command.
    for sp in sub.choices.values():
        sp.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS,
                        help="output format (default: human)")
        sp.add_argument("--timing", action="store_true", default=argparse.SUPPRESS,
                        help="report elapsed wall time on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage error (2) or --help (0)
        return int(exc.code or 0)
    # Units and solutions can run to far more than CPython's default 4300
    # digits; argv is parsed above, under the guard.  The setting is
    # process-wide, so an in-process caller can read the JSON back.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    fmt = args.format
    started = time.perf_counter()
    try:
        if args.seed_tables:
            rc = _cmd_seed_tables(fmt)
        elif args.command is None:
            parser.print_usage(sys.stderr)
            rc = 2
        else:
            rc = args.run(args, fmt)
    except (FactorizationIncompleteError, ArithmeticError) as exc:
        print(f"pellkit: {exc}", file=sys.stderr)
        rc = 4
    except ValueError as exc:
        print(f"pellkit: {exc}", file=sys.stderr)
        rc = 2
    if getattr(args, "timing", False):
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return rc


def console_main() -> None:
    sys.exit(main())
