"""Command-line entry point.

Subcommands: `wiener` (exact synthesis filter from a bank config),
`adapt` (adaptation run from an experiment config), `repro` (built-in
experiment presets) and `verify` (randomized property suites).

Exit codes: 0 success, 2 config error (including a bank whose spectra
overflow double precision), 3 singular bank, 4 property failure
(including a noncausal Wiener solution, one whose cancelled roots do
not divide out, and a diverging adaptation run).  Human-readable
summaries go to stdout; machine artifacts only to files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import NonCausalError, NonFiniteError
from .harness import (DivergenceError, ExperimentConfig, PRESETS, WIENER_ARTIFACTS, WIENER_JSON,
                      apply_overrides, artifact_names, owned_files, run_experiment, write_wiener)
from .properties import run_all
from .spectra import FilterBankSpec, InputPSD
from .wiener import ReductionError, SingularBankError, reconstruction_check, wiener_solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_PROPERTY = 4


class ConfigError(Exception):
    pass


def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}")


@contextlib.contextmanager
def _config_errors(source):
    """Report a config that fails to parse or validate as one ConfigError."""
    try:
        yield
    except KeyError as e:
        raise ConfigError(f"{source}: missing field {e}")
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"{source}: {e}")


def _refuse_overwrite(out: Path, filenames: list[str], force: bool) -> None:
    """Refuse, before any work, to overwrite outputs: any file of the
    artifact set that filenames come from.  The directory itself is made
    only when the artifacts are written."""
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {out} exists and is not a directory")
    if force:
        return
    clashes = owned_files(out, filenames)
    if clashes:
        raise ConfigError(
            f"refusing to overwrite {', '.join(clashes)} in {out} (use --force)")


def cmd_wiener(args) -> int:
    raw = _load_json(Path(args.config))
    with _config_errors(args.config):
        fb = FilterBankSpec.from_json_dict(raw)
        sx = InputPSD.from_json_dict(raw.get("input", {}))

    out = Path(args.out)
    _refuse_overwrite(out, WIENER_ARTIFACTS, args.force)
    ws = wiener_solve(fb, sx)
    # A noncausal solution exits 4 before a verdict is printed.
    ws.reduced().require_causal()
    verdict = "stable" if ws.stable else "UNSTABLE"
    print(f"Wiener synthesis filter: {ws.M}x{ws.L}, {verdict}")
    for p in ws.poles:
        print(f"  pole at {p:.6g} (|z| = {abs(p):.6g})")
    print(f"  identity residual |A S_vv - S_dv|: {ws.identity_residual:.3e}")
    rep = None
    if fb.is_maximally_decimated and ws.stable:
        rep = reconstruction_check(ws, fb, n_samples=20_000)
        bad = ~np.isfinite(rep.identity_residuals) | ~np.isfinite(rep.cross_residuals)
        if bad.any():
            print(f"error: reconstruction residual is not finite at {int(bad.sum())} "
                  f"of {bad.size} grid angles", file=sys.stderr)
            return EXIT_PROPERTY
    # Artifacts are written only once every check has passed.
    write_wiener(out, ws, rep)
    if rep is not None:
        print(f"  reconstruction residual (grid max): {rep.max_identity_residual:.3e}")
        print(f"  time-domain relative MSE: {rep.time_domain_mse:.3e}")
    print(f"wrote {out / WIENER_JSON}")
    return EXIT_OK


def _run_and_write(cfg: ExperimentConfig, out: Path, force: bool) -> int:
    _refuse_overwrite(out, artifact_names(cfg.snapshots), force)
    print(f"running {cfg.name}: {cfg.algorithm} step={cfg.step} "
          f"tap_len={cfg.tap_len} n_iters={cfg.n_iters} seed={cfg.seed}")
    result = run_experiment(cfg)
    result.write(out)
    m = result.metrics
    if "steady_state_mse" in m:
        print(f"  steady-state MSE: {m['steady_state_mse']:.3e} "
              f"({m['final_mse_db_rel_initial']:.1f} dB vs initial)")
    if "tap_distance_rel" in m:
        print(f"  tap distance to Wiener: {m['tap_distance_rel']:.3e} relative")
    print(f"wrote result directory {out}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    raw = _load_json(Path(args.config))
    with _config_errors(args.config):
        cfg = apply_overrides(ExperimentConfig.from_json_dict(raw),
                              args.seed, args.iters, args.step)
    return _run_and_write(cfg, Path(args.out), args.force)


def cmd_repro(args) -> int:
    with _config_errors(args.preset):
        cfg = apply_overrides(PRESETS[args.preset](), args.seed, args.iters, args.step)
    return _run_and_write(cfg, Path(args.out), args.force)


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    results = run_all(seed=args.seed, quick=args.quick, inject_fault=args.inject_fault)
    for r in results:
        print(r.line())
    if all(r.passed for r in results):
        print("all properties passed")
        return EXIT_OK
    print("property failure", file=sys.stderr)
    return EXIT_PROPERTY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    p = argparse.ArgumentParser(
        prog="ufbwiener",
        description="Matrix Wiener and adaptive synthesis filters for uniform filter banks")
    sub = p.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("wiener", help="solve the exact synthesis filter for a bank")
    pw.add_argument("--config", required=True, help="FilterBankSpec JSON")
    pw.add_argument("--out", required=True, help="output directory")
    pw.add_argument("--force", action="store_true", help="overwrite existing outputs")
    pw.set_defaults(func=cmd_wiener)

    run = argparse.ArgumentParser(add_help=False)  # shared by adapt and repro
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int)
    run.add_argument("--iters", type=int)
    run.add_argument("--step", type=float)
    run.add_argument("--force", action="store_true")

    pa = sub.add_parser("adapt", parents=[run],
                        help="run an adaptation experiment from a config")
    pa.add_argument("--config", required=True, help="ExperimentConfig JSON")
    pa.set_defaults(func=cmd_adapt)

    pr = sub.add_parser("repro", parents=[run],
                        help="reproduce a built-in experiment preset")
    pr.add_argument("preset", choices=sorted(PRESETS))
    pr.set_defaults(func=cmd_repro)

    pv = sub.add_parser("verify", help="run the randomized property suites")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--quick", action="store_true", help="reduced case counts")
    pv.add_argument("--inject-fault", action="store_true",
                    help="test-only: inject a wrong alias rotation; the suite must fail")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as e:
        # The config readers name a non-finite tap themselves, so this one
        # comes from spectra that overflow in the solve.
        print(f"config error: the bank's spectra overflow double precision: {e}",
              file=sys.stderr)
        return EXIT_CONFIG
    except SingularBankError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SINGULAR
    except NonCausalError as e:
        print(f"error: the Wiener synthesis filter is not causal: {e}", file=sys.stderr)
        return EXIT_PROPERTY
    except (DivergenceError, ReductionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
