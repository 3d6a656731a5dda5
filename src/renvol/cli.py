"""Command-line front end.

Subcommands map one-to-one onto the library surface: `volume`, `hawking`,
`bounds`, `iso-check`, `ialpha`, `lemma-aux`, `compare`, `sweep`,
`verify`, and `replay`.  Results are emitted as CSV with 17 significant
digits so reruns are byte-identical; when `--out` is given, the file
starts with a `# argv:` comment echoing the full flag set, and
`renvol replay --from-csv FILE` re-runs that embedded command and
byte-compares the result for regression diffing.

A run builds only the parser of the subcommand it names, from the table
``_SUBCOMMANDS``; the full parser, from the same table, reports top-level
help and usage errors.

Exit codes: 0 all checks passed, 1 a verified inequality or hypothesis
violation (an honest negative result, not a crash), 2 usage error,
3 numerical failure (quadrature budget, decay too slow, I/O).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .comparison import (
    GapSpec,
    compare_volumes,
    kernel_margin,
    kernel_threshold,
    mass_volume_sweep,
    volume_gap,
    volume_gap_regularized,
)
from .errors import ParseError, RenvolError
from .expressions import load_profile_file
from .metric import (
    RadialProfile,
    ads_horizon_radius,
    ads_schwarzschild,
    custom_profile,
    hyperbolic,
    rn_ads,
)
from .quadrature import Tolerance, geomspace, linspace
from .volume import (
    area_lower_bound,
    flow_volume_lower_bound,
    isoperimetric_identity,
    renormalized_volume,
    volume_between,
)

__all__ = ["run"]

SHELL_HEADER = "label,m,tau,lhs,rhs,rel_err,evals"
_ARGV_PREFIX = "# argv: "


def _parse_grid(text: str) -> list[float]:
    log_scale = text.startswith("log:")
    body = text[4:] if log_scale else text
    parts = body.split(":")
    if len(parts) != 3:
        raise ValueError(
            "grid must be start:stop:count or log:start:stop:count, got %r" % (text,)
        )
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("bad grid component in %r" % (text,)) from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid start and stop must be finite, got %r" % (text,))
    if count < 1:
        raise ValueError("grid count must be >= 1, got %d" % count)
    if count == 1:
        return [start]
    if log_scale:
        if not (start > 0.0 and stop > 0.0):
            raise ValueError("log grid endpoints must be positive, got %r" % (text,))
        return geomspace(start, stop, count)
    return linspace(start, stop, count)


def _parse_params(items: list[str]) -> dict[str, float]:
    params = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError("parameter must be NAME=VALUE, got %r" % (item,))
        params[name] = float(value)
    return params


def _build_profile(args: argparse.Namespace):
    extra = {} if args.delta is None else {"delta": args.delta}
    if args.family == "hyperbolic":
        return hyperbolic(**extra)
    if args.family == "ads":
        if args.m is None:
            raise ValueError("--family ads needs --m")
        return ads_schwarzschild(args.m, **extra)
    if args.family == "rn-ads":
        if args.m is None or args.c is None:
            raise ValueError("--family rn-ads needs --m and --c")
        return rn_ads(args.m, args.c, **extra)
    if args.profile is not None and args.profile_file is not None:
        raise ValueError("provide --profile or --profile-file, not both")
    if args.profile is not None:
        return custom_profile(args.profile, _parse_params(args.param), **extra)
    if args.profile_file is not None:
        table = load_profile_file(args.profile_file)
        if not table:
            raise ValueError("%s defines no profiles" % args.profile_file)
        if args.name is None:
            if len(table) > 1:
                raise ValueError(
                    "%s defines %s; pick one with --name"
                    % (args.profile_file, ", ".join(sorted(table)))
                )
            name = next(iter(table))
        elif args.name in table:
            name = args.name
        else:
            raise ValueError("no profile %r in %s" % (args.name, args.profile_file))
        return RadialProfile(table[name], _parse_params(args.param), label=name, **extra)
    raise ValueError("--family custom needs --profile EXPR or --profile-file PATH")


def _profile_mass(args: argparse.Namespace) -> float | None:
    return args.m if args.family in ("ads", "rn-ads") else None


def _tolerance(args: argparse.Namespace) -> Tolerance:
    return Tolerance(rel=args.rel_tol, abs=args.abs_tol)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return "%d" % value
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _strip_out(argv: list[str]) -> list[str]:
    kept = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        if token.startswith("--out="):
            continue
        kept.append(token)
    return kept


def _write_rows(args: argparse.Namespace, argv: list[str], header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    body = "\n".join(lines) + "\n"
    if args.out:
        import shlex  # only a run that writes a file pays for the import

        comment = _ARGV_PREFIX + shlex.join(_strip_out(argv)) + "\n"
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(comment + body)
    else:
        sys.stdout.write(body)


def _cmd_volume(args: argparse.Namespace, argv: list[str]) -> int:
    p = _build_profile(args)
    rv = renormalized_volume(p, _tolerance(args))
    rows = [
        (p.label, _profile_mass(args), None,
         rv.value, rv.tail_correction, rv.stability, rv.evaluations),
    ]
    _write_rows(args, argv, SHELL_HEADER, rows)
    return 0


def _cmd_hawking(args: argparse.Namespace, argv: list[str]) -> int:
    if args.s and args.grid:
        raise ValueError("provide --s or --grid, not both")
    if args.s:
        points = args.s
    elif args.grid:
        points = _parse_grid(args.grid)
    else:
        raise ValueError("provide --s or --grid")
    p = _build_profile(args)
    rows = []
    for s in points:
        # Inside a horizon f < 0: H and the quasi-local mass are undefined
        # there, so those cells are left empty rather than failing the row.
        try:
            mean_curv = p.mean_curvature(s)
        except RenvolError:
            mean_curv = None
        try:
            quasi_mass = p.hawking_mass(s)
        except ValueError:
            quasi_mass = None
        rows.append((p.label, s, p.value(s), mean_curv, p.scalar_curvature(s), quasi_mass))
    _write_rows(args, argv, "label,s,f,H,R,m_H", rows)
    return 0


def _cmd_bounds(args: argparse.Namespace, argv: list[str]) -> int:
    p = _build_profile(args)
    tol = _tolerance(args)
    horizon = p.horizon
    if horizon is None:
        raise ValueError("profile %r has no horizon; bounds need one" % p.label)
    flow = flow_volume_lower_bound(p, args.tau, tol)
    vol = volume_between(
        p, horizon.radius, horizon.radius * math.exp(0.5 * args.tau), tol
    )
    cor = area_lower_bound(horizon.area, args.tau, tol)
    doubled = 2.0 * vol.value
    flow_rel = abs(flow.value - vol.value) / max(abs(vol.value), 1e-300)
    area_rel = abs(cor.value - doubled) / max(abs(doubled), 1e-300)
    mass = _profile_mass(args)
    rows = [
        (p.label + " flow", mass, args.tau, flow.value, vol.value, flow_rel,
         flow.evaluations + vol.evaluations),
        (p.label + " area", mass, args.tau, cor.value, doubled, area_rel,
         cor.evaluations),
    ]
    _write_rows(args, argv, SHELL_HEADER, rows)
    ordering_ok = cor.value <= doubled + max(1e-10, 1e-8 * max(1.0, abs(doubled)))
    return 0 if ordering_ok and flow_rel <= 1e-6 else 1


def _cmd_iso_check(args: argparse.Namespace, argv: list[str]) -> int:
    if (args.s_top is None) == (args.tau is None):
        raise ValueError("provide exactly one of --s-top or --tau")
    s0 = ads_horizon_radius(args.m)
    s_top = args.s_top if args.s_top is not None else s0 * math.exp(0.5 * args.tau)
    res = isoperimetric_identity(args.m, s_top, _tolerance(args))
    tau = 2.0 * math.log(s_top / s0) if s_top > s0 else 0.0
    rows = [("iso m=%g" % args.m, args.m, tau, res.lhs, res.rhs, res.rel_err,
             res.evaluations)]
    _write_rows(args, argv, SHELL_HEADER, rows)
    return 0 if res.rel_err < 1e-8 else 1


def _cmd_ialpha(args: argparse.Namespace, argv: list[str]) -> int:
    if args.alpha and args.grid:
        raise ValueError("provide --alpha or --grid, not both")
    if args.alpha:
        alphas = args.alpha
    elif args.grid:
        alphas = _parse_grid(args.grid)
    else:
        raise ValueError("provide --alpha or --grid")
    tol = _tolerance(args)
    rows = []
    for alpha in alphas:
        spec = GapSpec(args.a_bar, alpha, args.eps)
        if args.eps > 0.0:
            value = volume_gap_regularized(spec, tol)
        else:
            value = volume_gap(spec, tol)
        rows.append((args.a_bar, alpha, args.eps, value))
    _write_rows(args, argv, "A_bar,alpha,eps,value", rows)
    return 0


def _cmd_lemma_aux(args: argparse.Namespace, argv: list[str]) -> int:
    tol = _tolerance(args)
    if args.threshold:
        if args.mu is None:
            raise ValueError("--threshold needs --mu")
        rows = [(args.mu, kernel_threshold(args.mu, tol))]
        _write_rows(args, argv, "mu,rho_star", rows)
        return 0
    if args.eps is None or args.mu is None:
        raise ValueError("provide --eps and --mu, or --threshold with --mu")
    rows = [(args.eps, args.mu, kernel_margin(args.eps, args.mu, tol))]
    _write_rows(args, argv, "eps,mu,margin", rows)
    return 0


def _cmd_compare(args: argparse.Namespace, argv: list[str]) -> int:
    p = _build_profile(args)
    report = compare_volumes(p, args.model_m, _tolerance(args))
    lines = ["profile: %s" % report.profile_label,
             "model mass: %.17g" % report.model_mass]
    for check in report.hypotheses:
        lines.append("hypothesis %s: %s (%s)"
                     % (check.name, "ok" if check.passed else "FAILED", check.detail))
    if report.area is not None:
        geometry = "A = %.17g  A_bar = %.17g" % (report.area, report.model_area)
        if report.alpha is not None:
            geometry += "  alpha = %.17g" % report.alpha
        lines.append(geometry)
    if report.volume is not None:
        lines.append("V = %.17g  V_model = %.17g  margin = %.17g"
                     % (report.volume, report.model_volume, report.margin))
    lines.append("verdict: %s" % report.verdict)
    print("\n".join(lines))
    if args.out:
        rows = [(report.profile_label, report.model_mass, report.area,
                 report.model_area, report.alpha, report.volume,
                 report.model_volume, report.margin, report.verdict)]
        _write_rows(args, argv, "label,model_m,A,A_bar,alpha,V,V_model,margin,verdict",
                    rows)
    return 0 if report.verdict in ("holds", "equality") else 1


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    masses = _parse_grid(args.grid)
    result = mass_volume_sweep(masses, _tolerance(args))
    rows = [(row.m, row.volume, row.delta_prev) for row in result.rows]
    _write_rows(args, argv, "m,V,dV_prev", rows)
    return 0 if result.monotone else 1


def _cmd_verify(args: argparse.Namespace, argv: list[str]) -> int:
    from .acceptance import run_all  # only this subcommand pays for the import

    results = run_all()
    for res in results:
        print("%s criterion %2d %s: %s"
              % ("pass" if res.passed else "FAIL", res.index, res.name, res.detail))
    return 0 if all(res.passed for res in results) else 1


def _cmd_replay(args: argparse.Namespace, argv: list[str]) -> int:
    with open(args.from_csv, "rb") as fh:
        original = fh.read()
    first_line = original.partition(b"\n")[0].decode("utf-8", errors="replace")
    if not first_line.startswith(_ARGV_PREFIX):
        raise ValueError(
            "%s has no leading %r comment; only files written via --out replay"
            % (args.from_csv, _ARGV_PREFIX.strip())
        )
    import shlex  # only this subcommand pays for the imports
    import tempfile

    embedded = shlex.split(first_line[len(_ARGV_PREFIX):])

    fd, tmp_path = tempfile.mkstemp(prefix="renvol-replay-", suffix=".csv")
    os.close(fd)
    try:
        code = run(embedded + ["--out", tmp_path])
        try:
            with open(tmp_path, "rb") as fh:
                fresh = fh.read()
        except OSError:
            print("error: replay run exited %d without output" % code, file=sys.stderr)
            return 3
        if not fresh:
            print("error: replay run exited %d without output" % code, file=sys.stderr)
            return 3
        if fresh == original:
            print("replay matches %s" % args.from_csv)
            return 0
        print("replay DIFFERS from %s" % args.from_csv)
        return 1
    finally:
        try:
            os.remove(tmp_path)
        except OSError:
            pass


def _arg(*flags: str, **kwargs) -> tuple:
    """One ``add_argument`` call, kept as data."""
    return flags, kwargs


_PROFILE_FLAGS = (
    _arg("--family", choices=("hyperbolic", "ads", "rn-ads", "custom"),
         default="ads", help="profile family (default: ads)"),
    _arg("--m", type=float, default=None, help="mass parameter"),
    _arg("--c", type=float, default=None, help="charge-squared parameter for rn-ads"),
    _arg("--profile", default=None, metavar="EXPR",
         help="profile expression for --family custom"),
    _arg("--profile-file", default=None, metavar="PATH",
         help="file of 'name = expression' lines for --family custom"),
    _arg("--name", default=None, help="profile to pick from --profile-file"),
    _arg("--param", action="append", default=[], metavar="NAME=VALUE",
         help="bind a parameter of a custom expression (repeatable)"),
    _arg("--delta", type=float, default=None, help="decay exponent in (0, 1/4), default 0.2"),
)

_OUTPUT_FLAGS = (
    _arg("--rel-tol", type=float, default=1e-10,
         help="relative quadrature tolerance (default 1e-10)"),
    _arg("--abs-tol", type=float, default=1e-14,
         help="absolute quadrature tolerance (default 1e-14)"),
    _arg("--out", default=None, metavar="PATH",
         help="write CSV here (with a replayable # argv: comment) instead of standard output"),
)
_PROFILE_OUTPUT_FLAGS = _PROFILE_FLAGS + _OUTPUT_FLAGS

# name -> (help, arguments in help order, handler); the order is the listing's
_SUBCOMMANDS = {
    "volume": ("renormalized volume of a profile", _PROFILE_OUTPUT_FLAGS, _cmd_volume),
    "hawking": ("pointwise geometry: f, H, R, quasi-local mass", _PROFILE_OUTPUT_FLAGS + (
        _arg("--s", type=float, action="append", default=[], help="sample radius (repeatable)"),
        _arg("--grid", default=None, metavar="SPEC",
             help="radius grid start:stop:count or log:start:stop:count"),
    ), _cmd_hawking),
    "bounds": ("flow and area lower bounds vs the true volume", _PROFILE_OUTPUT_FLAGS + (
        _arg("--tau", type=float, required=True, help="flow duration"),
    ), _cmd_bounds),
    "iso-check": ("coordinate-sphere volume identity on the model family", _OUTPUT_FLAGS + (
        _arg("--m", type=float, required=True, help="model mass"),
        _arg("--s-top", type=float, default=None, help="outer radius"),
        _arg("--tau", type=float, default=None, help="flow duration, alternative to --s-top"),
    ), _cmd_iso_check),
    "ialpha": ("volume-gap function of the area log-ratio", _OUTPUT_FLAGS + (
        _arg("--a-bar", type=float, default=4.0 * math.pi,
             help="model boundary area (default 4*pi)"),
        _arg("--alpha", type=float, action="append", default=[],
             help="area log-ratio (repeatable)"),
        _arg("--grid", default=None, metavar="SPEC",
             help="alpha grid start:stop:count or log:start:stop:count"),
        _arg("--eps", type=float, default=0.0,
             help="regularization, 0 for the sharp gap (default 0)"),
    ), _cmd_ialpha),
    "lemma-aux": ("kernel inequality margin and threshold ratio", _OUTPUT_FLAGS + (
        _arg("--eps", type=float, default=None, help="regularization offset"),
        _arg("--mu", type=float, default=None, help="kernel coefficient"),
        _arg("--threshold", action="store_true",
             help="solve for the crossover ratio eps/mu instead"),
    ), _cmd_lemma_aux),
    "compare": ("hypothesis-checked volume comparison against a model profile",
                _PROFILE_OUTPUT_FLAGS + (
        _arg("--model-m", type=float, required=True, help="mass of the reference model"),
    ), _cmd_compare),
    "sweep": ("model volume over a mass grid", _OUTPUT_FLAGS + (
        _arg("--grid", required=True, metavar="SPEC",
             help="mass grid start:stop:count or log:start:stop:count"),
    ), _cmd_sweep),
    "verify": ("run the full acceptance suite", (), _cmd_verify),
    "replay": ("re-run the command embedded in a CSV and byte-compare the output", (
        _arg("--from-csv", required=True, metavar="PATH", help="CSV produced earlier via --out"),
    ), _cmd_replay),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, arguments, handler = _SUBCOMMANDS[name]
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(handler=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the named subcommand's parser alone, the one the full
    parser adds under that name.  Without a known subcommand, or with
    arguments left over, the full parser parses again: argparse reports
    those from the top level (``renvol: error: ...``)."""
    if argv and argv[0] in _SUBCOMMANDS:
        parser = _add_arguments(argparse.ArgumentParser(prog="renvol " + argv[0]), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    parser = argparse.ArgumentParser(
        prog="renvol",
        description="Renormalized-volume comparison toolkit for radially "
                    "symmetric asymptotically hyperbolic metrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser.parse_args(argv)


def run(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args, argv)
    except (ValueError, ParseError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RenvolError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(run())
