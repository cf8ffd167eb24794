"""Command-line driver emitting machine-readable experiment tables.

Every subcommand runs one operation and writes a single CSV or JSON
artifact with a provenance header (version, command, seed).  CSV
columns are frozen per command; new columns may only be appended.  All
stochastic searches are fully determined by --seed.

Each subcommand body returns its records as rows, tuples of cells in the
order of its columns, and one writer (_emit) formats the rows of every
command: each cell is formatted on its own (_fmt_cell for CSV, the C JSON
encoder for JSON), and the cells are set into a record template built once
per table, a chunk of rows at a time (_fill).  The JSON text is
``json.dumps(payload, indent=2, sort_keys=True)`` byte for byte
(_json_text).
"""

from __future__ import annotations

import argparse
import cmath
import datetime
import functools
import itertools
import json
import math
import sys
from typing import Any

import numpy as np

from . import __version__
from .errors import (
    DegenerateNodes,
    Divergence,
    PoleOnDomain,
    TruncationError,
    UnsupportedSpace,
)
from .series import CoeffSeries, SigmaSet
from .spaces import SpaceSpec, bergman_radial, hardy, seq_weighted
from .modelspace import bernstein_ratio, malmquist_basis
from .extremal import PickProblem, carleson_constant, cs_min_norm, pick_min_norm, quotient_norm
from .bounds import bound_sweep, interp_constant, theorem_bounds

class CliError(ValueError):
    """Invalid run configuration (exit status 1)."""


class _Parser(argparse.ArgumentParser):
    # validation problems exit 1 with a one-line diagnostic
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _complex_token(tok: str) -> complex:
    z = complex(tok.strip().replace("i", "j"))
    if not cmath.isfinite(z):
        raise ValueError(f"{tok.strip()!r} is not a finite number")
    return z


def _at_least(least: int):
    """argparse type for a decimal integer of at least ``least``."""

    def parse(tok: str) -> int:
        if not tok.strip().isdecimal() or int(tok) < least:
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {least}, got {tok!r}")
        return int(tok)

    return parse


def _parse_list(text: str, what: str, cast) -> tuple:
    try:
        return tuple(cast(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise CliError(f"cannot parse {what} {text!r}: {exc}") from exc


def read_sigma_file(path: str) -> tuple[complex, ...]:
    """One point per line: `re im [multiplicity]`, `#` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:  # missing file, a directory, no permission
        raise CliError(f"cannot read --sigma-file {path!r}: {exc.strerror or exc}") from exc
    points: list[complex] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise CliError(f"{path}:{lineno}: expected `re im [multiplicity]`")
        try:
            re_part, im_part = float(parts[0]), float(parts[1])
            mult = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from exc
        if mult < 1:
            raise CliError(f"{path}:{lineno}: multiplicity must be >= 1")
        points.extend([complex(re_part, im_part)] * mult)
    if not points:
        raise CliError(f"{path}: no points found")
    return tuple(points)


def _resolve_sigma(args: argparse.Namespace) -> SigmaSet:
    if args.sigma and args.sigma_file:
        raise CliError("give either --sigma or --sigma-file, not both")
    if args.sigma:
        return SigmaSet(_parse_list(args.sigma, "--sigma", _complex_token))
    if args.sigma_file:
        return SigmaSet(read_sigma_file(args.sigma_file))
    raise CliError("a node set is required (--sigma or --sigma-file)")


def _resolve_space(args: argparse.Namespace) -> SpaceSpec:
    if args.space == "hardy":
        return hardy(args.p)
    if args.space == "seq":
        if args.alpha is None:
            raise CliError("--alpha is required for --space seq")
        return seq_weighted(args.p, args.alpha)
    if args.beta is None:
        raise CliError("--beta is required for --space bergman")
    return bergman_radial(args.p, args.beta)


def _fmt_cell(value: Any) -> str:
    # exact floats and ints first: they fill every large table
    if type(value) is float:
        return format(value, ".12g") if value == value else ""
    if type(value) is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if value != value:  # nan
            return ""
        return format(float(value), ".12g")  # "inf" and "-inf" too
    return str(value)


def _emit(args: argparse.Namespace, rows: list[tuple], meta: dict) -> None:
    full_meta = {
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
    }
    full_meta.update(meta)
    if not args.reproducible:
        full_meta["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()

    if args.fmt == "json":
        text = _json_text(args.columns, rows, full_meta)
    else:
        lines = [f"# discinterp {__version__}"]
        for key, val in full_meta.items():
            if key == "version":
                continue
            lines.append(f"# {key}={_fmt_cell(val)}")
        lines.append(",".join(args.columns))
        record = ",".join(["%s"] * len(args.columns))
        table = _fill(rows, record, "\n",
                      lambda chunk: map(_fmt_cell, itertools.chain.from_iterable(chunk)))
        text = "".join(["\n".join(lines), "\n", *table, "\n" if rows else ""])

    if args.output in ("-", ""):
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:  # missing directory, a directory, no permission
            reason = exc.strerror or exc
            raise CliError(f"cannot write --output {args.output!r}: {reason}") from exc


# rows formatted in one step: a table holds the text of one chunk's cells at a
# time, not of all its cells (traced peak of the JSON writer on a 3246-record
# basis: 0.74 MB, and 2.2 MB with the whole table in one step)
_CHUNK = 512


def _fill(rows: list[tuple], record: str, sep: str, cells_of) -> list[str]:
    """Pieces of the rows, each set into the %s-template ``record``, joined by ``sep``.

    ``cells_of(chunk)`` gives the text of the cells of a chunk of _CHUNK
    rows, row by row, in the order of the template.
    """
    pieces = []
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start : start + _CHUNK]
        pieces += [sep, sep.join(itertools.repeat(record, len(chunk))) % tuple(cells_of(chunk))]
    return pieces[1:]


def _json_text(columns, rows: list[tuple], meta: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The payload holds the columns, the meta with each value through
    _json_safe, and one record per row, {c: _json_safe(cell)} over the
    columns.  The meta and the records are flat, so no text is left to the
    pure-Python indenting encoder: the columns and the meta are each one C
    encoder call with the separators of the indented layout, and the cells
    of each chunk of rows one more (_json_cells), set into a record
    template with the keys in sorted order.
    """
    order = sorted(range(len(columns)), key=columns.__getitem__)
    keys = [json.dumps(columns[i]).replace("%", "%%") + ": %s" for i in order]
    record = "{\n      " + ",\n      ".join(keys) + "\n    }"
    records = _fill(rows, record, ",\n    ", lambda chunk: _json_cells(chunk, order))
    return "".join([
        '{\n  "columns": ', _json_block(list(columns)),
        ',\n  "meta": ', _json_block({k: _json_safe(v) for k, v in meta.items()}),
        ',\n  "records": ', *(["[\n    ", *records, "\n  ]"] if rows else ["[]"]), "\n}\n",
    ])


def _json_cells(rows: list[tuple], order: list[int]) -> list[str]:
    """json.dumps(_json_safe(cell)) of each cell, row by row, each row's cells in ``order``.

    One C encoder call writes one cell per line (a JSON string holds no raw
    newline), a numpy scalar that is no Python int or float through
    _json_safe by its default hook.  Where a float is not finite, which the
    encoder refuses, every cell goes through _json_safe first.
    """
    row_major = list(itertools.chain.from_iterable(rows))
    width = len(order)
    cells = row_major[:]
    for slot, col in enumerate(order):
        cells[slot::width] = row_major[col::width]
    try:
        text = json.dumps(cells, default=_json_number, separators=("\n", ""), allow_nan=False)
    except ValueError:  # an infinity or a NaN
        text = json.dumps(list(map(_json_safe, cells)), separators=("\n", ""))
    return text[1:-1].split("\n")


def _json_block(obj) -> str:
    """A flat list or dict of scalars one level in, as the indent=2 layout writes it."""
    text = json.dumps(obj, sort_keys=True, separators=(",\n    ", ": "))
    return text if len(text) == 2 else f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}"


def _json_number(value: Any) -> Any:
    """json.dumps's hook for a numpy scalar that is no Python int or float."""
    if isinstance(value, (np.integer, np.floating)):
        return _json_safe(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_safe(value: Any) -> Any:
    """A cell as strict JSON holds it: numpy scalars as Python ones, a float
    infinity as "inf" or "-inf" whatever its type, and NaN as null."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value:  # nan
            return None
        if value in (np.inf, -np.inf):
            return "inf" if value > 0 else "-inf"
    return value


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _run_basis(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    sigma = _resolve_sigma(args)
    basis = malmquist_basis(sigma)
    rows = []
    for k, e in enumerate(basis.series, start=1):
        coeffs = e.trimmed(tol=1e-15).coeffs
        rows += zip(itertools.repeat(k), range(coeffs.size),
                    coeffs.real.tolist(), coeffs.imag.tolist())
    meta = {"sigma": _sigma_text(sigma), "degree": basis.degree}
    return rows, meta


def _sigma_text(sigma: SigmaSet) -> str:
    return ";".join(f"{p.real:.12g}{p.imag:+.12g}j" for p in sigma.points)


def _run_bernstein(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    rows = []
    if args.samples > 0:
        rng = np.random.default_rng(args.seed)
        sigmas = []
        for _ in range(args.samples):
            count = int(rng.integers(1, args.max_n + 1))
            radii = args.max_r * np.sqrt(rng.uniform(size=count))
            angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
            sigmas.append(SigmaSet(tuple(radii * np.exp(1j * angles))))
    else:
        sigmas = [_resolve_sigma(args)]
    for idx, sigma in enumerate(sigmas):
        ratio = bernstein_ratio(sigma, order=args.order)
        try:  # k! (2.5 n / (1 - r))^k; k! alone is past the float range from k = 171
            bound = math.factorial(args.order) * (2.5 * sigma.n / (1.0 - sigma.r)) ** args.order
        except OverflowError:
            bound = math.inf
        rows.append(
            (idx, sigma.n, sigma.r, args.order, ratio, bound, ratio / bound if bound else None)
        )
    return rows, {"samples": len(sigmas), "order": args.order}


def _row(columns, *sources) -> tuple:
    """The fields named by ``columns`` over the dataclasses ``sources``, None where none has one."""
    fields = {}
    for source in sources:
        fields.update(vars(source))
    return tuple(map(fields.get, columns))


def _run_pick(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    nodes = _parse_list(args.nodes, "--nodes", _complex_token)
    values = _parse_list(args.values, "--values", _complex_token)
    result = pick_min_norm(PickProblem(nodes, values))
    return [_row(args.columns, result)], {"nodes": args.nodes, "values": args.values}


def _run_cs(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    coeffs = _parse_list(args.coeffs, "--coeffs", _complex_token)
    return [_row(args.columns, cs_min_norm(np.array(coeffs)))], {"coeffs": args.coeffs}


def _run_quotient(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    sigma = _resolve_sigma(args)
    f = CoeffSeries(np.array(_parse_list(args.coeffs, "--coeffs", _complex_token)))
    return [_row(args.columns, quotient_norm(f, sigma))], {"sigma": _sigma_text(sigma)}


def _run_carleson(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    sigma = _resolve_sigma(args)
    value = carleson_constant(sigma, budget=args.budget, seed=args.seed)
    return [(value, sigma.n, args.budget)], {"sigma": _sigma_text(sigma)}


def _run_constant(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    sigma = _resolve_sigma(args)
    space = _resolve_space(args)
    value = interp_constant(space, sigma, budget=args.budget, seed=args.seed)
    row = (value, sigma.n, sigma.r, args.budget)
    return [row], {"sigma": _sigma_text(sigma), "space": space.label()}


def _run_bounds(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    space = _resolve_space(args)
    report = theorem_bounds(space, args.n, args.r)
    return [_row(args.columns, space, report)], {"space": space.label()}


def _run_sweep(args: argparse.Namespace) -> tuple[list[tuple], dict]:
    space = _resolve_space(args)
    n_grid = _parse_list(args.n_grid, "--n-grid", int)
    r_grid = _parse_list(args.r_grid, "--r-grid", float)
    result = bound_sweep(
        space,
        n_grid,
        r_grid,
        budget=args.budget,
        estimate_cap=args.estimate_cap,
        seed=args.seed,
    )
    rows = [_row(args.columns, space, row) for row in result.rows]
    meta = {
        "space": space.label(),
        "slope_witness": result.slope_witness,
        "slope_estimate": result.slope_estimate,
        "estimate_cap": args.estimate_cap,
        "budget": args.budget,
    }
    return rows, meta


def run(args: argparse.Namespace) -> int:
    """Run ``args.run`` and write its ``args.columns`` table (both set in build_parser)."""
    try:
        _emit(args, *args.run(args))
    # first: np.linalg.LinAlgError is a ValueError
    except (TruncationError, Divergence, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(
            f"discinterp {args.command}: numerical failure: {exc} (seed={args.seed})",
            file=sys.stderr,
        )
        return 2
    except (ValueError, DegenerateNodes, UnsupportedSpace, PoleOnDomain) as exc:
        print(f"discinterp {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")
    sub.add_argument("--reproducible", action="store_true",
                     help="suppress the timestamp header line")
    sub.add_argument("--seed", type=int, default=0)


def _add_space_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--space", choices=("hardy", "seq", "bergman"), default="hardy")
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--beta", type=float, default=None)


def _add_sigma_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sigma", default=None,
                     help="comma-separated complex points, e.g. '0.5,-0.2+0.1j'")
    sub.add_argument("--sigma-file", default=None,
                     help="file with one `re im [multiplicity]` per line")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="discinterp", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("basis", help="Malmquist basis coefficients")
    sub.set_defaults(run=_run_basis, columns=("k", "j", "re", "im"))
    _add_sigma_options(sub)
    _add_output_options(sub)

    sub = subs.add_parser("bernstein", help="derivative operator norm on the model space")
    sub.set_defaults(run=_run_bernstein,
                     columns=("idx", "n", "r", "order", "ratio", "bound", "ratio_over_bound"))
    _add_sigma_options(sub)
    sub.add_argument("--order", type=_at_least(1), default=1)
    sub.add_argument("--samples", type=_at_least(0), default=0,
                     help="draw this many random node sets instead of --sigma")
    sub.add_argument("--max-n", type=_at_least(1), default=6)
    sub.add_argument("--max-r", type=float, default=0.8)
    _add_output_options(sub)

    sub = subs.add_parser("pick", help="minimal-norm interpolation at distinct nodes")
    sub.set_defaults(run=_run_pick, columns=("value", "certificate", "mode"))
    sub.add_argument("--nodes", required=True)
    sub.add_argument("--values", required=True)
    _add_output_options(sub)

    sub = subs.add_parser("cs", help="minimal-norm extension of a Taylor jet at 0")
    sub.set_defaults(run=_run_cs, columns=("value", "certificate", "mode"))
    sub.add_argument("--coeffs", required=True)
    _add_output_options(sub)

    sub = subs.add_parser("quotient", help="distance-to-ideal norm of a series on sigma")
    sub.set_defaults(run=_run_quotient, columns=("value", "certificate", "mode"))
    sub.add_argument("--coeffs", required=True)
    _add_sigma_options(sub)
    _add_output_options(sub)

    sub = subs.add_parser("carleson", help="worst unit-data interpolation (lower estimate)")
    sub.set_defaults(run=_run_carleson, columns=("value", "n", "budget"))
    _add_sigma_options(sub)
    sub.add_argument("--budget", type=_at_least(1), default=64)
    _add_output_options(sub)

    sub = subs.add_parser("constant", help="interpolation constant estimate")
    sub.set_defaults(run=_run_constant, columns=("value", "n", "r", "budget"))
    _add_sigma_options(sub)
    _add_space_options(sub)
    sub.add_argument("--budget", type=_at_least(1), default=32)
    _add_output_options(sub)

    sub = subs.add_parser("bounds", help="closed-form bound formulas for one (n, r)")
    sub.set_defaults(run=_run_bounds, columns=(
        "family", "p", "alpha", "beta", "n", "r", "x",
        "lower", "upper", "phi_scale", "lower_tag", "upper_tag"))
    _add_space_options(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=float, required=True)
    _add_output_options(sub)

    sub = subs.add_parser("sweep", help="witness/estimate/bound table over a grid")
    sub.set_defaults(run=_run_sweep, columns=(
        "family", "p", "alpha", "beta", "n", "r", "x", "witness", "estimate",
        "lower", "upper", "phi_scale", "lower_tag", "upper_tag"))
    _add_space_options(sub)
    sub.add_argument("--n-grid", required=True)
    sub.add_argument("--r-grid", required=True)
    sub.add_argument("--budget", type=_at_least(1), default=16)
    sub.add_argument("--estimate-cap", type=int, default=0,
                     help="run the constant estimator for n up to this cap")
    _add_output_options(sub)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state on the parser, so one serves every call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run it; returns the exit status.

    The parser is built once per process, on the first call, and shared by
    every later call and thread.
    """
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
