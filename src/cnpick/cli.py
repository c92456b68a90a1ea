"""Command-line front end.

Thin shell over the library: each subcommand parses files, calls one
library routine and reports its verdict unchanged.

Exit codes: 0 feasible / pass, 1 infeasible / fail / witness found,
2 undetermined, 64 usage or parse error, 70 numeric failure or internal
error (any other exception, with its traceback).  The ``CNP_TOL``
environment variable overrides the default PSD tolerance; an explicit
``--tol`` flag wins over both it and the problem file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .body import body_union, unconstrained_body
from .errors import CnpError, DegenerateDataError, DomainError, ProblemFileError
from .feasibility import FEASIBLE, INFEASIBLE, UNDETERMINED, one_point_disk, search_x_grid
from .interpolant import (
    chain_from_json,
    chain_to_json,
    check_residual_tol,
    construct_interpolant,
    verify_interpolant,
)
from .kernels import necessity_scan
from .linalg import ToleranceConfig, is_psd, psd_margin
from .pick import assemble_bundle, constrained_pick, DataSet, jet_matrices
from .problemfile import (
    complex_to_json,
    load_json_text,
    matrix_to_json,
    parse_blaschke,
    parse_problem,
)

SCHEMA = "cnp/1"

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70

_STATUS_EXIT = {FEASIBLE: EXIT_FEASIBLE, INFEASIBLE: EXIT_INFEASIBLE, UNDETERMINED: EXIT_UNDETERMINED}


def _parse_complex(text: str, what: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise ProblemFileError(f"{what} must be 're,im', got {text!r}")


def _tolerances(args, file_tol: ToleranceConfig) -> ToleranceConfig:
    psd = file_tol.psd_tol
    env = os.environ.get("CNP_TOL")
    if env is not None:
        try:
            psd = float(env)
        except ValueError:
            raise ProblemFileError(f"CNP_TOL must be a number, got {env!r}")
    if args.tol is not None:
        psd = args.tol
    return ToleranceConfig(psd_tol=psd, residual_tol=file_tol.residual_tol)


def _emit(args, document: dict, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _json_number(value: float) -> float | None:
    # JSON has no infinities or NaN; a non-finite margin is written as null.
    return value if np.isfinite(value) else None


def _optional_disk(problem) -> dict | None:
    # one_point_disk's formula holds for B = z^2 only.
    data = problem.data
    if data.n != 1 or data.k != 1 or not problem.blaschke.is_z_squared():
        return None
    z1, w1 = data.nodes[0], data.scalar_values()[0]
    if not 0 < abs(z1) < 1 or abs(w1) >= 1:
        return None
    disk = one_point_disk(z1, w1)
    return {"center": complex_to_json(disk.center), "radius": disk.radius}


def cmd_check(args) -> int:
    problem = parse_problem(args.input)
    tol = _tolerances(args, problem.tol)
    report = search_x_grid(problem.data, problem.blaschke, tol=tol)
    document = {
        "schema": SCHEMA,
        "command": "check",
        "status": report.status,
        "margin": _json_number(report.margin),
        "grid_stats": report.grid_stats,
        "detail": report.detail,
        "witness_x": matrix_to_json(report.witness_x) if report.witness_x is not None else None,
    }
    disk = _optional_disk(problem)
    if disk is not None:
        document["one_point_disk"] = disk
    _emit(args, document, _check_lines(report, disk))
    return _STATUS_EXIT[report.status]


def _check_lines(report, disk):
    # A generator: under --json nothing here is formatted.
    yield f"status: {report.status}"
    yield f"margin: {report.margin:.6e}"
    yield f"detail: {report.detail}"
    if report.witness_x is not None:
        yield f"witness x: {np.array2string(report.witness_x, precision=6)}"
    if disk is not None:
        yield f"one-point feasible disk: center {disk['center']}, radius {disk['radius']:.6f}"


def cmd_witness(args) -> int:
    problem = parse_problem(args.input)
    tol = _tolerances(args, problem.tol)
    if not problem.blaschke.is_z_squared():
        raise DomainError("the necessity scan is specific to the origin constraint B = z^2")
    report = necessity_scan(problem.data, samples=args.samples, seed=args.seed, tol=tol)
    if report.passed:
        document = {
            "schema": SCHEMA,
            "command": "witness",
            "status": "PASS",
            "seed": args.seed,
            "samples": report.samples_evaluated,
            "forms_evaluated": report.forms_evaluated,
            "min_value": report.min_value,
        }
        _emit(args, document, [f"PASS: no witness among {report.samples_evaluated} samples "
                               f"({report.forms_evaluated} distinct forms; "
                               f"min relative margin {report.min_value:.3e})"])
        return EXIT_FEASIBLE
    document = {
        "schema": SCHEMA,
        "command": "witness",
        "status": "WITNESS",
        "seed": args.seed,
        "sample_index": report.witness_index,
        "forms_evaluated": report.forms_evaluated,
        "value": report.witness_value,
        "alpha": matrix_to_json(report.witness_param.alpha),
        "beta": matrix_to_json(report.witness_param.beta),
        "tuple": [matrix_to_json(x) for x in report.witness_tuple],
    }
    _emit(args, document, _witness_lines(report, document))
    return EXIT_INFEASIBLE


def _witness_lines(report, document):
    # A generator, as _check_lines: under --json the document is encoded once.
    yield f"WITNESS at sample {report.witness_index}: form value {report.witness_value:.6e}"
    yield json.dumps(document, indent=2, sort_keys=True)


def _write_csv(path, header, columns):
    """Write a UTF-8/LF CSV file: ``header``, then row i of the equal-length ``columns``.

    The file is built as one string and written at once.  Each field is
    ``repr`` of a Python float or int, which is what ``csv.writer`` writes
    for numbers (it never quotes them), so the bytes match a row-by-row
    writer.  A bool column is written as 0/1, the bytes of the same column
    as ints, without a ``repr`` per entry.
    """
    fields = (
        np.where(column, "1", "0").tolist() if column.dtype == bool else map(repr, column.tolist())
        for column in columns
    )
    text = "\n".join([",".join(header), *map(",".join, zip(*fields)), ""])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def cmd_body(args) -> int:
    problem = parse_problem(args.input)
    tol = _tolerances(args, problem.tol)
    data = problem.data
    if data.n != 1 or data.k != 1:
        raise DomainError("body computation needs a one-point scalar problem file")
    if not problem.blaschke.is_z_squared():
        raise DomainError("body computation is specific to the origin constraint B = z^2")
    for flag, value in (("--xres", args.xres), ("--wres", args.wres)):
        if value < 1:
            raise DomainError(f"{flag} must be a positive integer, got {value}")
    z0 = _parse_complex(args.z0, "--z0")
    z1, w1 = complex(data.nodes[0]), complex(data.scalar_values()[0])

    report = body_union(z1, w1, z0, x_resolution=args.xres, w_resolution=args.wres, tol=tol)
    diameter = report.diameter()
    # Refuse before anything is written: the pencil can be unusable near the node.
    disk = unconstrained_body(data, z0, tol).as_disk()
    os.makedirs(args.csv, exist_ok=True)
    disks_path = os.path.join(args.csv, "disks.csv")
    members_path = os.path.join(args.csv, "membership.csv")
    xs, centers, grid = report.xs, report.centers, report.outer_grid
    disk_columns = (xs.real, xs.imag, centers.real, centers.imag, report.radii)
    _write_csv(disks_path, ["x_re", "x_im", "c_re", "c_im", "R"], disk_columns)
    _write_csv(members_path, ["w_re", "w_im", "inside"], (grid.real, grid.imag, report.inside))

    document = {
        "schema": SCHEMA,
        "command": "body",
        "z0": complex_to_json(z0),
        "inner_disks": xs.size,
        "inner_diameter": diameter,
        "outer_grid_points": grid.size,
        "outer_inside": int(report.inside.sum()),
        "unconstrained_disk": {"center": complex_to_json(disk.center), "radius": disk.radius},
        "files": {"disks": disks_path, "membership": members_path},
    }
    _emit(
        args,
        document,
        [
            f"inner union: {xs.size} disks, diameter {diameter:.6f}",
            f"outer grid: {document['outer_inside']} of {grid.size} points inside",
            f"unconstrained disk: center {disk.center:.6f}, radius {disk.radius:.6f}",
            f"wrote {disks_path} and {members_path}",
        ],
    )
    return EXIT_FEASIBLE


def cmd_solve(args) -> int:
    check_residual_tol(args.check_tol)  # before any verdict, so every path refuses it alike
    problem = parse_problem(args.input)
    tol = _tolerances(args, problem.tol)
    data = problem.data
    if data.k != 1:
        raise DomainError("construction is scalar-only (k = 1)")
    if not problem.blaschke.is_z_squared():
        raise DomainError("construction supports the origin constraint B = z^2 only")

    if args.x == "auto":
        report = search_x_grid(data, problem.blaschke, tol=tol)
        if report.status != FEASIBLE:
            _emit(
                args,
                {"schema": SCHEMA, "command": "solve", "status": report.status,
                 "margin": _json_number(report.margin)},
                [f"status: {report.status} (margin {report.margin:.3e}); no chain written"],
            )
            return _STATUS_EXIT[report.status]
        x = complex(report.witness_x[0, 0])
    else:
        x = _parse_complex(args.x, "--x")
        if not abs(x) < 1:  # written so that NaN fails
            raise DomainError("--x must be finite and lie in the open unit disk")
        bundle = assemble_bundle(data, problem.blaschke, tol)
        ok, margin = is_psd(constrained_pick(data, problem.blaschke, np.array([[x]]), bundle), tol)
        if not ok:
            _emit(
                args,
                {"schema": SCHEMA, "command": "solve", "status": INFEASIBLE,
                 "margin": margin, "detail": "x infeasible"},
                [f"x infeasible (margin {margin:.3e}); no chain written"],
            )
            return EXIT_INFEASIBLE

    chain = construct_interpolant(data, x)
    report = verify_interpolant(chain, data, problem.blaschke, tol=args.check_tol)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(chain_to_json(chain), indent=2))  # one write, json.dump's bytes
    document = {
        "schema": SCHEMA,
        "command": "solve",
        "status": FEASIBLE,
        "x": complex_to_json(x),
        "chain": args.out,
        "residuals": {
            "interpolation": list(report.interpolation),
            "jets": [list(j) for j in report.jets],
            "coupling": list(report.coupling),
            "sup_norm": report.sup_norm,
        },
        "verified": report.passed,
    }
    _emit(
        args,
        document,
        [
            f"x = {x:.6f}",
            f"chain written to {args.out}",
            f"residuals: worst {report.worst():.3e}, sup-norm {report.sup_norm:.9f}",
            f"verified: {report.passed}",
        ],
    )
    return EXIT_FEASIBLE if report.passed else EXIT_INFEASIBLE


def cmd_verify(args) -> int:
    with open(args.chain, "r", encoding="utf-8") as handle:
        payload = load_json_text(handle.read())
    chain = chain_from_json(payload)
    problem = parse_problem(args.input)
    report = verify_interpolant(chain, problem.data, problem.blaschke, tol=args.check_tol)
    document = {
        "schema": SCHEMA,
        "command": "verify",
        "passed": report.passed,
        "interpolation": list(report.interpolation),
        "jets": [list(j) for j in report.jets],
        "coupling": list(report.coupling),
        "sup_norm": report.sup_norm,
        "tol": report.tol,
    }
    _emit(
        args,
        document,
        [
            f"interpolation residuals: {['%.3e' % r for r in report.interpolation]}",
            f"jet residuals: {[['%.3e' % r for r in js] for js in report.jets]}",
            f"coupling residuals: {['%.3e' % r for r in report.coupling]}",
            f"sup-norm: {report.sup_norm:.9f}",
            f"passed: {report.passed}",
        ],
    )
    return EXIT_FEASIBLE if report.passed else EXIT_INFEASIBLE


def cmd_stein(args) -> int:
    with open(args.blaschke, "r", encoding="utf-8") as handle:
        payload = load_json_text(handle.read())
    blaschke = parse_blaschke(payload, location="$")
    try:
        nodes = [complex(part) for part in args.nodes.replace(" ", "").split(",") if part]
    except ValueError:
        raise ProblemFileError(f"--nodes must list complex numbers, got {args.nodes!r}")
    if not nodes:
        raise DomainError("--nodes must list at least one node, e.g. --nodes '0.5,-0.5'")
    k = args.k
    if k < 1:
        raise DomainError(f"--k must be a positive integer, got {k}")
    values = np.zeros((len(nodes), k, k), dtype=complex)
    data = DataSet(np.array(nodes, dtype=complex), values)
    bundle = assemble_bundle(data, blaschke)
    j, e_tilde = jet_matrices(blaschke, k)
    res_q, res_t = bundle.stein_residuals
    q_shift_min, _ = psd_margin(bundle.q - np.eye(bundle.q.shape[0]))
    document = {
        "schema": SCHEMA,
        "command": "stein",
        "k": k,
        "degree": blaschke.degree,
        "j": matrix_to_json(j),
        "e_tilde": matrix_to_json(e_tilde),
        "q": matrix_to_json(bundle.q),
        "q_tilde": matrix_to_json(bundle.q_tilde),
        "residuals": {"q": res_q, "q_tilde": res_t},
        "q_dominates_identity": bool(q_shift_min >= -1e-9),
    }
    _emit(args, document, _stein_lines(document, res_q, res_t))
    return EXIT_FEASIBLE


def _stein_lines(document, res_q, res_t):
    # A generator, as _check_lines: under --json the matrices are encoded once.
    yield f"degree {document['degree']}, k = {document['k']}"
    yield f"Stein residuals: {res_q:.3e}, {res_t:.3e}"
    yield f"Q >= I: {document['q_dominates_identity']}"
    yield json.dumps({"q": document["q"], "q_tilde": document["q_tilde"]}, indent=2)


# Options whose value may start with a minus sign, e.g. ``--z0 -0.3,0.2``.
_SIGNED_OPTIONS = ("--nodes", "--z0", "--x")


def _glue_signed_values(argv):
    """Write ``--opt -0.5,0.3`` as ``--opt=-0.5,0.3`` for the options in ``_SIGNED_OPTIONS``.

    argparse reads a token that starts with ``-`` and is not a plain
    negative number as an option, so without this a first value like
    ``-0.5,0.3`` is refused with "expected one argument".  Only a token
    starting ``-<digit>`` or ``-.`` is glued; ``--nodes --json`` still
    fails as before.
    """
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        option, value = out[i], out[i + 1]
        if option in _SIGNED_OPTIONS and value[:1] == "-" and value[1:2] in tuple("0123456789."):
            out[i : i + 2] = [f"{option}={value}"]
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnpick",
        description="Constrained Nevanlinna-Pick interpolation: feasibility, "
        "solution geometry, construction and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=True):
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="PSD tolerance override")

    p = sub.add_parser("check", help="decide solvability of a problem file")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("witness", help="hunt for a necessity-criterion infeasibility witness")
    p.add_argument("input")
    p.add_argument(
        "--samples",
        type=int,
        default=500,
        help="parameters to try: the 17 canonical scalar ones, then random ones (default 500)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    add_common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("body", help="interpolation body at a fresh point (n=1, k=1)")
    p.add_argument("input")
    p.add_argument("--z0", required=True, help="evaluation point 're,im'")
    p.add_argument("--xres", type=int, default=10, help="parameter grid resolution")
    p.add_argument("--wres", type=int, default=32, help="value grid resolution")
    p.add_argument("--csv", default=".", help="output directory for CSV files")
    add_common(p)
    p.set_defaults(func=cmd_body)

    p = sub.add_parser("solve", help="construct an interpolant chain (k=1)")
    p.add_argument("input")
    p.add_argument("--x", default="auto", help="'auto' or an explicit 're,im' parameter")
    p.add_argument("--out", default="chain.json", help="chain output path")
    p.add_argument("--check-tol", type=float, default=1e-7, help="verification residual tolerance")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a chain file against a problem file")
    p.add_argument("chain")
    p.add_argument("input")
    p.add_argument("--check-tol", type=float, default=1e-7, help="verification residual tolerance")
    add_common(p, tol=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stein", help="jet matrices and Stein solutions (exact, no solver) for a Blaschke file")
    p.add_argument("blaschke")
    p.add_argument("--nodes", required=True,
                   help="comma-separated complex nodes, e.g. '-0.5,0.5,0.1+0.2j'")
    p.add_argument("--k", type=int, default=1, help="matrix size of the data")
    add_common(p, tol=False)
    p.set_defaults(func=cmd_stein)

    return parser


def main(argv=None) -> int:
    try:
        argv = _glue_signed_values(sys.argv[1:] if argv is None else argv)
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # argparse usage error; its exit code 2 would read as Undetermined
            return EXIT_USAGE
        raise
    try:
        return args.func(args)
    except (
        ProblemFileError, DomainError, DegenerateDataError, OSError, UnicodeDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CnpError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # a bug; its exit 1 would read as "infeasible / fail"
        import traceback  # only here: loading it would cost every start about 0.7 ms

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
