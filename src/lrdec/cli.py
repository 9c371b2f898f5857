"""Command-line driver.

Four subcommands cover the experiment workflows end to end:

* ``synth``       - emit a seeded dictionary, activations and composed signal
* ``reconstruct`` - sweep regularizer weights and ranks, emit metric CSV rows
* ``inpaint``     - complete a partially observed signal
* ``metrics``     - compare two tensors (and optionally rate activations)

Exit codes: 0 success, 1 runtime failure, 2 usage error.  All outputs are
deterministic for a fixed seed; the CSV ``seconds`` column is zeroed unless
``--timing`` is passed, so repeated runs are byte-identical.
"""

import argparse
import math
import re
import sys
from pathlib import Path

from .convmodel import forward_model
from .io import (FormatError, generate_mask, read_dictionary, read_image,
                 read_mask, read_tensor, write_dictionary, write_image,
                 write_mask, write_tensor)
from .metrics import compression_ratio, mse, psnr
from .solver import SolverConfig, lrd_fit, lrd_fit_masked
from .synth import make_problem
from .tensor import KruskalTensor

CSV_HEADER = "reg,rank,psnr_db,cr,nnz,iters,seconds"
_ACTIVATION_RE = re.compile(r"(.*)_m(\d+)_mode(\d+)\.lrt$")


def _fmt(x):
    if x == float("inf"):
        return "inf"
    return f"{x:.12g}"


def _list_of(cast):
    """An argparse type for a comma-separated list of `cast` values."""
    def parse(text):
        items = [s for s in text.split(",") if s.strip()]
        if not items:
            raise argparse.ArgumentTypeError("empty value list")
        try:
            return [cast(s) for s in items]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read_signal(path):
    path = Path(path)
    if path.suffix.lower() in (".pgm", ".ppm"):
        return read_image(path)
    return read_tensor(path)


def _write_activations(out_dir, prefix, activations):
    for m, act in enumerate(activations):
        for n, factor in enumerate(act.factors):
            write_tensor(out_dir / f"{prefix}_m{m}_mode{n}.lrt", factor)


def _load_activations(directory):
    """Read one complete ``<prefix>_m<i>_mode<n>.lrt`` set: a single
    prefix, filters ``0..M-1`` and modes ``0..N-1``, all of one shape."""
    directory = Path(directory)
    found = {}
    for path in sorted(directory.iterdir()):
        match = _ACTIVATION_RE.fullmatch(path.name)
        if match:
            prefix, m, n = match.groups()
            found.setdefault(prefix, {})[int(m), int(n)] = path
    if not found:
        raise FormatError(f"{directory}: no activation factor files "
                          f"(*_m<i>_mode<n>.lrt)")
    if len(found) > 1:
        raise FormatError(f"{directory}: activation files of several sets "
                          f"({', '.join(sorted(found))}); expected one")
    (prefix, paths), = found.items()
    m_count = 1 + max(m for m, _ in paths)
    n_modes = 1 + max(n for _, n in paths)
    for m in range(m_count):
        for n in range(n_modes):
            if (m, n) not in paths:
                raise FormatError(f"{directory}: missing activation factor "
                                  f"{prefix}_m{m}_mode{n}.lrt")
    acts = [KruskalTensor([read_tensor(paths[m, n]) for n in range(n_modes)])
            for m in range(m_count)]
    shapes = [[f.shape for f in act.factors] for act in acts]
    for m, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise FormatError(f"{directory}: factors of {prefix}_m{m} have "
                              f"shapes {shape}, those of {prefix}_m0 "
                              f"{shapes[0]}")
    return acts


def cmd_synth(args):
    shape = tuple(args.shape)
    if args.support is None:
        support = tuple(min(5, s - 1) if s > 1 else 1 for s in shape)
    else:
        support = tuple(args.support)
        if len(support) != len(shape):
            raise ValueError(f"support {support} has wrong order for shape "
                             f"{shape}")
    dictionary, activations, signal = make_problem(
        shape, support, args.num_filters, args.rank, args.seed,
        channels=args.channels, style=args.filter_style)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dictionary(out / "dictionary.lrd", dictionary)
    write_tensor(out / "signal.lrt", signal)
    _write_activations(out, "activation", activations)
    print(f"wrote dictionary.lrd, signal.lrt and "
          f"{args.num_filters * len(shape)} activation factors to {out}")
    return 0


def _solver_config(args, **fields):
    """The sweep flags of :func:`_add_fit_flags` plus the fit's `fields`."""
    return SolverConfig(outer_iters=args.max_outer, tol_outer=args.tol,
                        seed=args.seed, **fields)


def cmd_reconstruct(args):
    # --lambda and --alpha store their sweeps under SolverConfig's names;
    # every point's config is checked before any file is read or written
    weight_field = "lam" if args.reg == "l1" else "alpha"
    points = [(weight, _solver_config(args, reg=args.reg, rank=rank,
                                      rho_init=args.rho,
                                      admm_iters=args.admm_iters,
                                      **{weight_field: weight}))
              for weight in getattr(args, weight_field) for rank in args.rank]
    out_dir = Path(args.out) if args.out else None
    if args.save_activations and out_dir is None:
        raise ValueError("--save-activations requires --out")
    signal = _read_signal(args.signal)
    dictionary = read_dictionary(args.filters)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rows = [CSV_HEADER]
    for point, (weight, cfg) in enumerate(points):
        activations, report = lrd_fit(signal, dictionary, cfg)
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        recon = forward_model(dictionary, activations)
        quality = psnr(signal, recon, peak=args.peak)
        stats = compression_ratio(activations, signal.shape,
                                  eps_rel=args.eps_rel)
        seconds = report.seconds if args.timing else 0.0
        rows.append(",".join([
            _fmt(weight), str(cfg.rank), _fmt(quality), _fmt(stats.cr),
            str(stats.nnz), str(report.sweeps), _fmt(seconds)]))
        if args.save_activations:
            _write_activations(out_dir, f"point{point}", activations)

    csv = "\n".join(rows) + "\n"
    if out_dir is not None:
        (out_dir / "results.csv").write_text(csv)
    else:
        sys.stdout.write(csv)
    return 0


def cmd_inpaint(args):
    signal = _read_signal(args.signal)
    dictionary = read_dictionary(args.filters)
    if (args.missing is None) == (args.mask is None):
        raise ValueError("exactly one of --missing or --mask is required")
    if args.missing is not None:
        mask = generate_mask(signal.shape, args.missing, args.seed)
        truth = signal  # the input is pristine; hiding happens here
    else:
        mask = read_mask(args.mask)
        truth = None
    if args.truth:
        truth = _read_signal(args.truth)
        if truth.shape != signal.shape:
            raise ValueError(f"--truth shape {truth.shape} != signal shape "
                             f"{signal.shape}")

    cfg = _solver_config(args, alpha=args.alpha, rank=args.rank,
                         cg_tol=args.cg_tol, cg_max_iters=args.cg_iters)
    _, completed, report = lrd_fit_masked(signal, mask, dictionary, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "completed.lrt", completed)
    write_mask(out / "mask.lrt", mask)
    if Path(args.signal).suffix.lower() in (".pgm", ".ppm"):
        name = "completed.pgm" if completed.ndim == 2 else "completed.ppm"
        write_image(out / name, completed)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if truth is not None:
        print(f"psnr_db={_fmt(psnr(truth, completed, peak=args.peak))}")
    return 0


def cmd_metrics(args):
    reference = _read_signal(args.ref)
    estimate = _read_signal(args.est)
    fields = [_fmt(psnr(reference, estimate, peak=args.peak)),
              _fmt(mse(reference, estimate))]
    if args.activations:
        acts = _load_activations(args.activations)
        stats = compression_ratio(acts, reference.shape,
                                  eps_rel=args.eps_rel)
        fields += [_fmt(stats.cr), str(stats.nnz)]
    print(",".join(fields))
    return 0


def _add_fit_flags(parser):
    """The flags both fitting commands read, defaulting as SolverConfig."""
    parser.add_argument("--seed", type=int, default=SolverConfig.seed,
                        help="RNG seed")
    parser.add_argument("--max-outer", type=_positive_int,
                        default=SolverConfig.outer_iters,
                        help="outer sweep budget")
    parser.add_argument("--tol", type=float, default=SolverConfig.tol_outer,
                        help="relative objective-change stopping tolerance")
    parser.add_argument("--peak", type=float, default=1.0,
                        help="peak value for PSNR")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrd",
        description="Low-rank deconvolution: decomposition, reconstruction "
                    "sweeps, in-painting and metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a seeded synthetic problem")
    p.add_argument("--shape", type=_list_of(int), required=True,
                   help="signal shape, comma separated")
    p.add_argument("--support", type=_list_of(int), default=None,
                   help="filter support (default: min(5, I-1) per mode)")
    p.add_argument("-M", "--num-filters", type=_positive_int, default=15)
    p.add_argument("--rank", type=_positive_int, default=3)
    p.add_argument("--channels", type=_positive_int, default=1)
    p.add_argument("--filter-style", choices=("noise", "smooth"),
                   default="noise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reconstruct",
                       help="fit a signal and emit a metrics CSV sweep")
    p.add_argument("--signal", required=True)
    p.add_argument("--filters", required=True)
    p.add_argument("--reg", choices=("l1", "l2"), default="l2")
    p.add_argument("--lambda", dest="lam", type=_list_of(float),
                   default=[SolverConfig.lam],
                   help="l1 weight sweep, comma separated")
    p.add_argument("--alpha", type=_list_of(float),
                   default=[SolverConfig.alpha],
                   help="l2 weight sweep, comma separated")
    p.add_argument("--rank", type=_list_of(int), default=[SolverConfig.rank],
                   help="rank sweep, comma separated")
    p.add_argument("--out", default=None,
                   help="directory for results.csv (default: stdout)")
    p.add_argument("--save-activations", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="report wall time in the seconds column")
    _add_fit_flags(p)
    p.add_argument("--rho", type=float, default=SolverConfig.rho_init,
                   help="initial ADMM penalty (l1)")
    p.add_argument("--admm-iters", type=_positive_int,
                   default=SolverConfig.admm_iters,
                   help="inner ADMM budget per mode visit (l1)")
    p.add_argument("--eps-rel", type=float, default=1e-6,
                   help="relative nonzero threshold for CR")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("inpaint", help="complete a partially observed signal")
    p.add_argument("--signal", required=True)
    p.add_argument("--filters", required=True)
    p.add_argument("--alpha", type=float, default=SolverConfig.alpha)
    p.add_argument("--rank", type=_positive_int, default=SolverConfig.rank)
    p.add_argument("--missing", type=float, default=None,
                   help="fraction of entries to hide (mask is generated)")
    p.add_argument("--mask", default=None, help="mask tensor file")
    p.add_argument("--truth", default=None,
                   help="ground-truth tensor for PSNR")
    p.add_argument("--out", required=True, help="output directory")
    _add_fit_flags(p)
    p.add_argument("--cg-tol", type=float, default=SolverConfig.cg_tol,
                   help="CG relative tolerance, which a converged fit's "
                   "visits meet; early visits run up to 100x looser, and a "
                   "budget warning means a visit missed its loosened one")
    p.add_argument("--cg-iters", type=_positive_int,
                   default=SolverConfig.cg_max_iters,
                   help="CG budget per mode visit")
    p.set_defaults(func=cmd_inpaint)

    p = sub.add_parser("metrics", help="compare two tensors")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--activations", default=None,
                   help="directory of *_m<i>_mode<n>.lrt factor files")
    p.add_argument("--peak", type=float, default=1.0)
    p.add_argument("--eps-rel", type=float, default=1e-6)
    p.set_defaults(func=cmd_metrics)
    return parser


def _check_flags(args):
    """Reject a bad ``--peak``, ``--seed`` or ``--eps-rel`` before a command
    does any work."""
    peak, seed = getattr(args, "peak", 1.0), getattr(args, "seed", 0)
    eps_rel = getattr(args, "eps_rel", 0.0)
    if not (math.isfinite(peak) and peak > 0):
        raise ValueError(f"--peak must be finite and positive, got {peak}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    if not (math.isfinite(eps_rel) and 0 <= eps_rel < 1):
        raise ValueError(f"--eps-rel must be finite and in [0, 1), got "
                         f"{eps_rel}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        _check_flags(args)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
