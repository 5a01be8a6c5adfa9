"""Command-line interface: simulate, estimate, replicate, and diagnose.

Every input is resolved in one step, into one namespace.  The lines of a
``--config FILE`` (or ``--config=FILE``) are read as flags placed before
the command line's own, so argparse types and checks them and explicit
flags win.  ``--case 1|2`` then fills each of ``--d --c --a --eps --beta``
left unset from :func:`~larchpmle.montecarlo.case_study`.  Malformed or
out-of-range values and conflicting flags are usage errors, raised before
any work.

A command returns the tables it computed and :func:`_write` emits them
all: into ``--out``, each CSV starts with a ``#`` comment recording the
values that ran, a ``<command>_meta.txt`` sidecar records the same values,
and one ``wrote <files> to <dir>`` line goes to stdout.  Numbers are
printed with 17 significant digits so files round-trip losslessly.
``check-moments``, and ``rates`` without ``--replicates``, only print and
write no file.

Exit codes: 0 success, 1 usage error, 2 numeric/domain/data error.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .asymptotics import predicted_rate, sandwich
from .coeffs import CoeffSpec, Theta, check_moment_conditions, gaussian_moments
from .diagnostics import fit_decay, score_gap
from .errors import DataError, LarchError
from .estimator import estimate
from .likelihood import LossSpec, landscape
from .montecarlo import (
    StudyConfig,
    acf,
    case_study,
    normal_plot_data,
    run_study,
)
from .simulate import Sample, SimConfig, simulate

__all__ = ["main", "load_series"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no abbreviations: "--conf FILE" must not slip past the --config
        # pre-pass as an abbreviation the full parser would accept
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.17g}"
    if isinstance(v, tuple):
        return ",".join(_fmt(u) for u in v)
    return str(v)


def load_series(path) -> np.ndarray:
    """Read an observation series from a CSV file.

    Accepts either a headerless single column of decimals or a
    header-bearing CSV with an ``x`` column (the simulator's output
    format).  Lines starting with ``#`` are ignored.  Non-finite or
    unparseable entries raise :class:`DataError` with the row location.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file {path} does not exist")
    rows = []
    x_col = None
    header_seen = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if not header_seen and any(
                    not _is_number(f) for f in fields if f != ""):
                if "x" not in fields:
                    raise DataError(
                        f"{path}:{lineno}: header has no 'x' column")
                x_col = fields.index("x")
                header_seen = True
                continue
            header_seen = True
            col = x_col if x_col is not None else 0
            if col >= len(fields):
                raise DataError(f"{path}:{lineno}: missing column {col + 1}")
            try:
                v = float(fields[col])
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: column {col + 1} is not numeric: "
                    f"{fields[col]!r}")
            if not math.isfinite(v):
                raise DataError(f"{path}:{lineno}: non-finite value")
            rows.append(v)
    if not rows:
        raise DataError(f"{path}: no data rows found")
    return np.array(rows)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _with_config(argv: list) -> list:
    """argv with ``--config FILE`` replaced by the file's lines read as
    flags, ``key = value`` as ``--key=value`` and a bare ``key`` as
    ``--key``, placed right after the command so that the command line's
    own flags win."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return rest
    path = Path(known.config)
    if not path.exists():
        raise DataError(f"config file {path} does not exist")
    flags = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            key = key.replace("_", "-")
            if key in ("", "config"):
                raise _UsageError(f"{path}:{lineno}: expected 'key = value' "
                                  f"with a key other than config")
            flags.append(f"--{key}={value}" if sep else f"--{key}")
    return rest[:1] + flags + rest[1:]


def _int_from(lowest: int):
    """argparse type: an integer no smaller than ``lowest``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lowest:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lowest}, got {text!r}")
        return value
    return parse


def _switch(text):
    """argparse type of a switch given a value, as a config file gives
    it: 1/true/yes turn it on and 0/false/no turn it off."""
    value = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}.get(text.lower())
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected 1/0, true/false or yes/no, got {text!r}")
    return value


# a switch is on when given bare and takes an explicit value too
_SWITCH = dict(nargs="?", const=True, default=False, type=_switch,
               metavar="1|0")


def _csv(*kinds):
    """argparse type: comma-separated values, one per entry of ``kinds``,
    or any number of them when a single kind is given."""
    def parse(text):
        items = text.split(",")
        types = kinds * len(items) if len(kinds) == 1 else kinds
        if len(items) != len(types):
            raise argparse.ArgumentTypeError(
                f"expected {len(types)} comma-separated values, got {text!r}")
        try:
            return tuple(kind(item) for kind, item in zip(types, items))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of numbers: {text!r}")
    return parse


_FLAGS = {
    "d": dict(type=float, help="long-memory exponent d"),
    "c": dict(type=float, help="weight scale c"),
    "a": dict(type=float, help="intercept a"),
    "eps": dict(type=float, help="regularization epsilon"),
    "beta": dict(type=float, help="window exponent beta"),
    "n": dict(type=_int_from(2), default=1000, help="sample size"),
    "burn-in": dict(type=_int_from(0), default=10_000,
                    help="pre-sample length"),
    "trunc": dict(type=int, default=2000, help="lag truncation order J"),
    "seed": dict(type=_int_from(0), default=0, help="base seed"),
    "out": dict(default=".", help="output directory"),
    "case": dict(type=int, choices=(1, 2),
                 help="preset for the d, c, a, eps and beta not given"),
    "family": dict(default="power", choices=("power", "farima"),
                   help="coefficient family"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="larchpmle",
                     description="LARCH volatility simulation and estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--config", metavar="FILE",
                       help="file of 'key = value' lines read as flags "
                            "(explicit flags win)")
        p.set_defaults(run=run)
        return p

    command("simulate", _cmd_simulate, "simulate a path and write CSV",
            "d", "c", "a", "n", "burn-in", "trunc", "seed", "out", "case",
            "family")

    p = command("estimate", _cmd_estimate,
                "estimate parameters from a series",
                "eps", "beta", "out", "family")
    p.add_argument("--input", required=True,
                   help="input CSV of observations")
    p.add_argument("--variant", choices=("trunc", "bar"), default="trunc")
    p.add_argument("--fix-d", type=float)
    p.add_argument("--fix-c", type=float)
    p.add_argument("--fix-a", type=float)

    p = command("mc", _cmd_mc, "replication study (rows + summary CSVs)",
                "case", "seed", "out", "eps", "beta", "d", "c", "a",
                "burn-in", "trunc")
    p.add_argument("--n", type=_csv(_int_from(2)), default=(1000,),
                   help="sample sizes, comma separated")
    p.add_argument("--replicates", type=_int_from(1), default=100,
                   help="Monte-Carlo replicates per sample size")
    p.add_argument("--trim", type=_int_from(0), default=10,
                   help="smallest estimates dropped in the trimmed summary")
    p.add_argument("--threads", type=_int_from(1), default=1,
                   help="worker processes")
    p.add_argument("--estimate-all", **_SWITCH,
                   help="estimate (d, c, a) jointly instead of d only")

    p = command("landscape", _cmd_landscape, "loss profile in d per epsilon",
                "a", "c", "n", "seed", "out", "beta", "burn-in", "trunc")
    p.set_defaults(n=2000, c=0.1, a=1.0, beta=0.599)
    p.add_argument("--true-d", type=float, default=0.4,
                   help="d used to simulate the evaluated path")
    p.add_argument("--eps-list", type=_csv(float),
                   default=(0.01, 0.001, 0.0001, 0.0),
                   help="comma-separated epsilons")
    p.add_argument("--d-grid", type=_csv(float, float, _int_from(1)),
                   default=(0.0, 0.45, 91), metavar="MIN,MAX,POINTS",
                   help="the d grid")

    p = command("acf", _cmd_acf, "sample autocorrelations of x or x^2",
                "d", "c", "a", "n", "burn-in", "trunc", "seed", "out", "case")
    p.add_argument("--max-lag", type=_int_from(0), default=50)
    p.add_argument("--raw", **_SWITCH, help="ACF of x instead of x^2")
    p.add_argument("--fit", type=_csv(float, float), metavar="KMIN,KMAX",
                   help="also write a log-log decay fit over this lag range")

    p = command("asymcov", _cmd_asymcov, "sandwich covariance by simulation",
                "d", "c", "a", "eps", "burn-in", "trunc", "seed", "out",
                "case")
    p.add_argument("--path-length", type=_int_from(1), default=500_000)

    p = command("check-moments", _cmd_check_moments,
                "moment-condition report", "d", "c", "a", "case", "family")
    p.add_argument("--orders", type=_csv(int), default=(4, 5),
                   help="orders p for the higher-moment conditions")

    p = command("rates", _cmd_rates,
                "predicted rates and score-gap estimate",
                "d", "c", "a", "n", "beta", "eps", "seed", "burn-in", "out",
                "case")
    p.add_argument("--replicates", type=_int_from(0), default=0,
                   help="score-gap replicates (0: predictions only)")
    return parser


def _apply_preset(args) -> None:
    """Fill each of d, c, a, eps and beta that the command takes but was
    not given from the ``--case`` preset.  Without ``--case`` the preset is
    case 1's theta and epsilon, and beta stays unset."""
    case = getattr(args, "case", None)
    cfg = case_study(case or 1)
    preset = dict(d=cfg.theta0.d, c=cfg.theta0.c, a=cfg.theta0.a,
                  eps=cfg.epsilon, beta=cfg.beta if case else None)
    for flag, value in preset.items():
        if flag in vars(args) and getattr(args, flag) is None:
            setattr(args, flag, value)


def _write(args, files: dict, extra: dict) -> None:
    """Write each CSV of ``files``, name: (header, rows[, trailer line]),
    and the ``<command>_meta.txt`` sidecar into ``--out``.  Both record
    the values that ran: every flag but where output goes and how many
    workers ran, plus ``extra``."""
    resolved = {k: v for k, v in vars(args).items()
                if k not in ("run", "out", "threads") and v is not None}
    resolved |= extra
    comment = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(resolved.items()))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows, *trailer) in files.items():
        with open(outdir / name, "w") as fh:
            fh.write(f"# {comment}\n{header}\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
            for line in trailer:
                fh.write(f"# {line}\n")
    meta = f"{args.command}_meta.txt"
    with open(outdir / meta, "w") as fh:
        for k in sorted(resolved):
            fh.write(f"{k} = {_fmt(resolved[k])}\n")
    print(f"wrote {', '.join([*files, meta])} to {outdir}")


def _simulated(args, d: float, family: str = "power") -> Sample:
    """The path the flags describe, with long-memory exponent ``d``."""
    return simulate(CoeffSpec(family, args.trunc), Theta(d, args.c, args.a),
                    SimConfig(n=args.n, burn_in=args.burn_in, seed=args.seed))


def _cmd_simulate(args):
    s = _simulated(args, args.d, args.family)
    rows = zip(range(1, s.n + 1), s.x_obs, s.sigma_obs, s.eps_obs)
    return {"simulate.csv": ("t,x,sigma,eps", rows)}, {}


def _cmd_estimate(args):
    if args.variant == "bar":
        if args.beta is not None:
            raise _UsageError("--beta applies only to --variant trunc")
        lspec = LossSpec("bar", args.eps)
    else:
        args.beta = 0.799 if args.beta is None else args.beta
        lspec = LossSpec("trunc", args.eps, beta=args.beta)
    x = load_series(args.input)
    fix = {k: getattr(args, f"fix_{k}") for k in "dca"
           if getattr(args, f"fix_{k}") is not None}
    res = estimate(lspec, CoeffSpec(args.family), x, fix=fix or None)
    th = res.theta_hat
    print(f"d_hat={_fmt(th.d)} c_hat={_fmt(th.c)} a_hat={_fmt(th.a)} "
          f"loss={_fmt(res.loss_at_opt)} converged={res.converged} "
          f"at_boundary={res.at_boundary}")
    row = (th.d, th.c, th.a, res.loss_at_opt, res.converged, res.at_boundary)
    return ({"estimate.csv": ("d_hat,c_hat,a_hat,loss,converged,at_boundary",
                              [row])},
            {"n": len(x)})


def _cmd_mc(args):
    if args.beta is None:
        raise _UsageError("mc without --case requires --beta")
    # the trimmed normal plot needs at least two estimates per n
    if args.trim > args.replicates - 2:
        raise _UsageError(f"--trim {args.trim} must be at most --replicates "
                          f"{args.replicates} minus 2")
    label = f"case{args.case}" if args.case else "custom"
    try:
        cfg = StudyConfig(label=label, theta0=Theta(args.d, args.c, args.a),
                          epsilon=args.eps, beta=args.beta, n_values=args.n,
                          replicates=args.replicates, base_seed=args.seed,
                          trim=args.trim, burn_in=args.burn_in, J=args.trunc,
                          estimate_params="dca" if args.estimate_all else "d")
    except LarchError as exc:       # the study's own checks of the flags
        raise _UsageError(str(exc)) from None
    report = run_study(cfg, workers=args.threads)
    rows = [(label, r.n, r.replicate, r.seed, r.d_hat, r.c_hat, r.a_hat,
             r.loss, r.converged, r.at_boundary, r.evals)
            for r in report.rows]
    stat_rows = []
    for n in cfg.n_values:
        summ = report.summaries[n]
        if summ is None:
            continue
        for trimmed, sr in ((0, summ.all), (1, summ.trimmed)):
            for stat in ("count", "mean", "median", "s", "s_tilde",
                         "s_scaled", "s_tilde_scaled", "skewness",
                         "q_skewness"):
                stat_rows.append((label, n, trimmed, stat, getattr(sr, stat)))
    files = {"rows.csv": ("case,n,replicate,seed,d_hat,c_hat,a_hat,loss,"
                          "converged,at_boundary,evals", rows),
             "summary.csv": ("case,n,trimmed,stat,value", stat_rows)}
    for n in cfg.n_values:
        d_hats = [r.d_hat for r in report.rows if r.n == n]
        files[f"normplot_all_n{n}.csv"] = (
            "q_theoretical,value", normal_plot_data(d_hats))
        files[f"normplot_trimmed_n{n}.csv"] = (
            "q_theoretical,value", normal_plot_data(sorted(d_hats)[cfg.trim:]))
    return files, {"case": label}


def _cmd_landscape(args):
    for eps in args.eps_list:
        if not 0.0 <= eps < math.inf:
            raise _UsageError(f"--eps-list entry {eps} must be >= 0 and finite")
    sample = _simulated(args, args.true_d)
    lo, hi, count = args.d_grid
    rows = landscape(LossSpec("trunc", 0.01, beta=args.beta), sample.spec,
                     args.c, args.a, sample.x_obs, np.linspace(lo, hi, count),
                     args.eps_list)
    return {"landscape.csv": ("epsilon,d,loss", rows)}, {}


def _cmd_acf(args):
    if args.max_lag >= args.n:
        raise _UsageError(f"--max-lag {args.max_lag} must be below --n "
                          f"{args.n}")
    rho = acf(_simulated(args, args.d).x_obs, args.max_lag,
              on_squares=not args.raw)
    files = {"acf.csv": ("lag,acf", list(enumerate(rho)))}
    if args.fit is not None:
        pairs = [(k, rho[k]) for k in range(1, args.max_lag + 1)]
        fit = fit_decay(pairs, *args.fit)
        print(f"decay fit: slope={_fmt(fit.slope)} r2={_fmt(fit.r2)}")
        files["acf_decay.csv"] = (
            "k,value,log_k,log_value",
            [(k, v, math.log(k), math.log(v) if v > 0 else math.nan)
             for k, v in pairs],
            f"fit: slope={_fmt(fit.slope)} intercept={_fmt(fit.intercept)} "
            f"r2={_fmt(fit.r2)} k_range={fit.k_range[0]:g}.."
            f"{fit.k_range[1]:g} n_points={fit.n_points}")
    return files, {}


def _cmd_asymcov(args):
    if args.burn_in < args.trunc:
        raise _UsageError(f"--burn-in {args.burn_in} must be at least "
                          f"--trunc {args.trunc}")
    res = sandwich(CoeffSpec("power", args.trunc),
                   Theta(args.d, args.c, args.a), args.eps,
                   gaussian_moments(8), path_length=args.path_length,
                   burn_in=args.burn_in, seed=args.seed)
    sd = [f"sd_{name}={_fmt(v)}" for name, v in zip("dca", res.sd)]
    print(f"{' '.join(sd)} (joint: {','.join(_fmt(v) for v in res.sd_joint)})")
    rows = [(i, j, res.G[k, m], res.H[k, m], res.cov[k, m])
            for k, i in enumerate("dca") for m, j in enumerate("dca")]
    return {"asymcov.csv": ("entry_i,entry_j,G,H,cov", rows, ",".join(sd))}, {}


def _cmd_check_moments(args):
    theta = Theta(args.d, args.c, args.a)
    report = check_moment_conditions(
        CoeffSpec(args.family, 2000), theta,
        gaussian_moments(max(args.orders + (3,))), ps=args.orders)
    print(f"theta = (d={_fmt(theta.d)}, c={_fmt(theta.c)}, a={_fmt(theta.a)})")
    print(f"M3      : lhs={_fmt(report.m3.lhs)} holds={report.m3.holds}")
    for p, chk in sorted(report.mp_prime.items()):
        print(f"M'_{p}    : lhs={_fmt(chk.lhs)} holds={chk.holds}")
    for p, chk in sorted(report.mp_dblprime.items()):
        print(f"M''_{p}   : lhs={_fmt(chk.lhs)} holds={chk.holds}")


def _cmd_rates(args):
    if args.beta is None:
        raise _UsageError("rates requires --beta or --case")
    theta = Theta(args.d, args.c, args.a)
    pred = predicted_rate(args.n, args.beta, args.d)
    print(f"score_gap_order={_fmt(pred.score_gap_order)} "
          f"rate_exponent={_fmt(pred.rate_exponent)} regime={pred.regime}")
    if args.replicates == 0:
        return None
    gap = score_gap(CoeffSpec("power", 2000), theta, args.eps, args.n,
                    args.beta, args.replicates, base_seed=args.seed,
                    burn_in=args.burn_in)
    print(f"empirical_gap={_fmt(gap.empirical)} "
          f"(replicates={args.replicates})")
    row = (args.n, args.beta, args.d, pred.score_gap_order,
           pred.rate_exponent, pred.regime, gap.empirical)
    return ({"rates.csv": ("n,beta,d,score_gap_order,rate_exponent,regime,"
                           "empirical_gap", [row])},
            {})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_with_config(argv))
        _apply_preset(args)
        output = args.run(args)
        if output is not None:
            _write(args, *output)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LarchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
