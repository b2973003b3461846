"""Command-line front end.

Commands:
  invariant       compute lens-space invariants by one or all methods
  verify-theorem  run the Kuperberg = |Hennings|^2 grid up to a given p
  verify-axioms   full axiom report for a built-in algebra or a structure file
  double          build the Drinfeld double of a structure file

Exit codes: 0 success, 1 failed verification, 2 invalid input, 3 term budget
exhausted.  All printed scalars are exact canonical forms; decimal output is
display-only.  JSON/CSV output is deterministic unless --timings is given
(wall-clock columns are zeroed by default so identical inputs give identical
bytes).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass

import click

from hopfinv.hennings import chain_mail, z_henn, z_henn_lens_closed
from hopfinv.hopf import NotFactorizableError, StructureError, verify_axioms
from hopfinv.kuperberg import (
    BudgetExceededError,
    DEFAULT_TERM_BUDGET,
    LensInputError,
    z_kup_lens,
)
from hopfinv.scalars import Cyc, InvalidOrderError, conjugate
from hopfinv.uqsl2 import build_uqsl2


class ExitCode:
    OK = 0
    CHECK_FAILED = 1
    INVALID_INPUT = 2
    BUDGET = 3


def _fmt_scalar(c: Cyc) -> str:
    return f"{c.pretty()}    ~ {c.decimal_str(20)}"


def _build(l: int):
    try:
        return build_uqsl2(l)
    except InvalidOrderError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main() -> None:
    """Exact Hennings/Kuperberg invariants of lens spaces."""


@main.command("invariant")
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--l", "order", type=int, default=3, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["kuperberg", "hennings-closed", "hennings-diagram", "all"]),
    default="all",
    show_default=True,
)
@click.option("--budget", type=int, default=DEFAULT_TERM_BUDGET, show_default=True)
def cmd_invariant(p: int, q: int, order: int, method: str, budget: int) -> None:
    """Invariants of L(p, q) over u_q sl(2) at a primitive `l`-th root of unity."""
    try:
        H = _build(order)
    except click.UsageError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(ExitCode.INVALID_INPUT)
    values = {}
    try:
        if method in ("kuperberg", "all"):
            values["kuperberg"] = z_kup_lens(p, q, H, budget=budget)
        if method in ("hennings-closed", "all"):
            values["hennings-closed"] = z_henn_lens_closed(p, q, H, budget=budget)
        if method == "hennings-diagram":
            values["hennings-diagram"] = z_henn(chain_mail(p, q), H, budget=budget)
        elif method == "all":
            try:
                values["hennings-diagram"] = z_henn(chain_mail(p, q), H, budget=budget)
            except BudgetExceededError as exc:
                click.echo(f"note: hennings-diagram skipped ({exc})", err=True)
    except LensInputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(ExitCode.INVALID_INPUT)
    except BudgetExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(ExitCode.BUDGET)
    except (NotFactorizableError, StructureError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(ExitCode.CHECK_FAILED)
    for name in ("kuperberg", "hennings-closed", "hennings-diagram"):
        if name in values:
            click.echo(f"Z[{name}](L({p},{q}); l={order}) = {_fmt_scalar(values[name])}")
    distinct = {tuple(v.num) + (v.den,) for v in values.values()}
    if len(distinct) > 1:
        click.echo("MISMATCH between methods", err=True)
        sys.exit(ExitCode.CHECK_FAILED)
    sys.exit(ExitCode.OK)


@dataclass
class GridRow:
    p: int
    q: int
    l: int
    z_kup: Cyc
    z_henn_sq: Cyc
    equal: bool
    runtime_ms: int


def _grid_rows(order: int, pmax: int, budget: int, timings: bool) -> list[GridRow]:
    H = _build(order)
    rows = []
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            t0 = time.monotonic()
            zk = z_kup_lens(p, q, H, budget=budget)
            zh = z_henn_lens_closed(p, q, H, budget=budget)
            ms = int((time.monotonic() - t0) * 1000) if timings else 0
            equal = zk == zh and conjugate(zk) == zk
            rows.append(GridRow(p, q, order, zk, zh, equal, ms))
    return rows


@main.command("verify-theorem")
@click.option("--l", "order", type=int, default=3, show_default=True)
@click.option("--pmax", type=int, default=8, show_default=True)
@click.option("--budget", type=int, default=DEFAULT_TERM_BUDGET, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--out", type=click.Path(writable=True), default=None)
@click.option("--timings/--no-timings", default=False, help="include wall-clock runtime_ms (breaks byte determinism)")
def cmd_verify_theorem(order, pmax, budget, fmt, out, timings) -> None:
    """Check Z_Kup(L(p,q)) = Z_Henn(L(p,q) # conj L(p,q)) on the full coprime grid."""
    if order % 2 == 0 or order < 3:
        click.echo(f"error: l must be odd and >= 3, got {order}", err=True)
        sys.exit(ExitCode.INVALID_INPUT)
    if pmax < 2:
        click.echo("warning: empty grid (pmax < 2)", err=True)
        sys.exit(ExitCode.OK)
    try:
        rows = _grid_rows(order, pmax, budget, timings)
    except BudgetExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(ExitCode.BUDGET)
    text = _render_rows(rows, fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    bad = [r for r in rows if not r.equal]
    if bad:
        for r in bad:
            click.echo(
                f"FAIL L({r.p},{r.q}): kup={r.z_kup.pretty()} henn={r.z_henn_sq.pretty()}",
                err=True,
            )
        sys.exit(ExitCode.CHECK_FAILED)
    sys.exit(ExitCode.OK)


def _render_rows(rows: list[GridRow], fmt: str) -> str:
    if fmt == "csv":
        lines = ["p,q,l,z_kup,z_henn_sq,equal,runtime_ms"]
        for r in rows:
            lines.append(
                f"{r.p},{r.q},{r.l},{r.z_kup.pretty().replace(' ', '')},"
                f"{r.z_henn_sq.pretty().replace(' ', '')},{str(r.equal).lower()},{r.runtime_ms}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = [
            {
                "p": r.p,
                "q": r.q,
                "l": r.l,
                "z_kup": r.z_kup.to_json(),
                "z_henn_sq": r.z_henn_sq.to_json(),
                "equal": r.equal,
                "runtime_ms": r.runtime_ms,
            }
            for r in rows
        ]
        return json.dumps(obj, indent=1, sort_keys=True) + "\n"
    lines = []
    for r in rows:
        status = "ok " if r.equal else "FAIL"
        lines.append(f"[{status}] L({r.p},{r.q}) l={r.l}: {r.z_kup.pretty()}")
    lines.append(f"{sum(r.equal for r in rows)}/{len(rows)} grid points verified")
    return "\n".join(lines) + "\n"


@main.command("verify-axioms")
@click.option("--uqsl2", "order", type=int, default=None, help="built-in u_q sl(2) at this l")
@click.option("--file", "path", type=click.Path(exists=False), default=None)
def cmd_verify_axioms(order, path) -> None:
    """Run the full exact axiom report."""
    if (order is None) == (path is None):
        click.echo("error: give exactly one of --uqsl2 L or --file F", err=True)
        sys.exit(ExitCode.INVALID_INPUT)
    if order is not None:
        try:
            data = _build(order)
        except click.UsageError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(ExitCode.INVALID_INPUT)
        rep = verify_axioms(data.structure, R=data.R, theta=data.theta, data=data)
    else:
        from hopfinv.structio import StructureFileError, load_algebra

        try:
            A, R, theta = load_algebra(path, check=False)
        except (StructureFileError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(ExitCode.INVALID_INPUT)
        rep = verify_axioms(A, R=R, theta=theta)
    click.echo(rep.summary())
    sys.exit(ExitCode.OK if rep.ok else ExitCode.CHECK_FAILED)


@main.command("double")
@click.option("--file", "path", type=click.Path(exists=False), default=None)
@click.option("--taft", type=int, default=None, help="built-in Taft algebra T_n")
@click.option("--group", "group_n", type=int, default=None, help="built-in C[Z/n]")
@click.option("--l", "order", type=int, default=3, show_default=True)
@click.option("--out", type=click.Path(writable=True), default=None)
def cmd_double(path, taft, group_n, order, out) -> None:
    """Drinfeld double: writes D(H) structure constants, reports factorizability
    and the ribbon-existence criterion."""
    from hopfinv.double import (
        double_ribbon_criterion,
        drinfeld_double,
        group_algebra,
        taft_algebra,
    )
    from hopfinv.hopf import factorizability_rank, unnormalized_integral_data
    from hopfinv.structio import StructureFileError, dump_algebra, load_algebra

    given = [x is not None for x in (path, taft, group_n)]
    if sum(given) != 1:
        click.echo("error: give exactly one of --file, --taft, --group", err=True)
        sys.exit(ExitCode.INVALID_INPUT)
    try:
        if path is not None:
            H, _, _ = load_algebra(path)
        elif taft is not None:
            H = taft_algebra(taft, order)
        else:
            H = group_algebra(group_n, order)
    except (StructureFileError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(ExitCode.INVALID_INPUT)
    rep = verify_axioms(H)
    if not rep.ok:
        click.echo("error: input fails the Hopf axioms:", err=True)
        click.echo(rep.summary(), err=True)
        sys.exit(ExitCode.CHECK_FAILED)
    D, R = drinfeld_double(H)
    rank = factorizability_rank(R)
    click.echo(f"dim D(H) = {D.dim}")
    click.echo(f"factorizability rank = {rank} ({'factorizable' if rank == D.dim else 'NOT factorizable'})")
    try:
        _, _, g, alpha = unnormalized_integral_data(H)
        crit = double_ribbon_criterion(H, g, alpha)
        verdict = "yes" if crit.has_ribbon else "no"
        click.echo(f"ribbon element exists: {verdict} ({crit.candidates_checked} candidate pairs checked)")
    except NotImplementedError as exc:
        click.echo(f"ribbon criterion: skipped ({exc})")
    if out:
        dump_algebra(out, D, R=R)
        click.echo(f"wrote {out}")
    sys.exit(ExitCode.OK)


if __name__ == "__main__":
    main()
