"""Command-line runner: solve, picard, verify, sweep, lp-analyze.

Exit codes: 0 success, 2 configuration/suite error, 3 blow-up,
4 fixed-point non-convergence, 5 failing verification check (a check's
blow-up is its failing entry, and the suite runs on).

Outputs are deterministic: identical config + seed produce byte-identical
CSV/JSON data files (the manifest also records wall-clock timings, which
naturally vary).  Floats are printed with 17 significant digits, '.'
decimal separator, '\n' line endings, header row first.
"""

import argparse
import ctypes
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, _fft
from .errors import (
    AdmissibilityError,
    BlowUpError,
    ConfigError,
    ParameterGateError,
)
from .solver import check_range, config_from_dict, solve_ivp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CHECK_FAILED = 5

# glibc mallopt parameters and the values pinned for every run
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


def pin_heap_thresholds():
    """Serve every allocation below 32 MiB from the heap and keep up to
    64 MiB of freed heap; True if the C library took both values, False
    where it has no `mallopt` or refused one.

    Left dynamic, glibc's mmap threshold rises only after some larger
    block is freed, so whether the multi-MB numpy temporaries of a step or
    a norm are reused or mapped and faulted in afresh on every call would
    depend on what an earlier stage happened to free.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    took = [mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)]
    return all(took)


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _finite_json(x):
    """`x` with each non-finite float spelled "inf", "-inf" or "nan": strict
    JSON has no literal for them, and `read_json` refuses Python's."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(x, dict):
        return {k: _finite_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_json(v) for v in x]
    return x


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(_finite_json(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(path):
    """The parsed contents of a JSON input file.  Bytes that are not UTF-8,
    text that is not JSON and numbers that are not finite floats (the NaN
    and Infinity literals Python's json accepts, and literals that overflow
    a float) raise ConfigError naming the file and where."""
    raw = Path(path).read_bytes()

    def finite(kind):
        def parse(literal):
            if not math.isfinite(float(literal)):
                raise ConfigError(f"{path}: number {literal} is not a finite float")
            return kind(literal)

        return parse

    try:
        return json.loads(
            raw.decode("utf-8"),
            parse_float=finite(float),
            parse_int=finite(int),
            parse_constant=finite(float),
        )
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: JSON parse error: {exc.msg}"
        ) from exc


def load_config(path):
    return config_from_dict(read_json(path))


def _at_path(flag, path, action):
    """action(path) for the value `path` of `flag`, an OSError (say, a file
    where a directory is made) raised as a ConfigError naming both."""
    try:
        return action(path)
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: {exc.strerror}") from None


class Manifest:
    def __init__(self, command, out_dir, config_snapshot, seed):
        self.data = {
            "command": command,
            "artifact_version": f"lanslab {__version__}",
            "seed": seed,
            "output_dir": str(out_dir),
            "config": config_snapshot,
            "outputs": [],
            "timings_s": {},
        }
        self._t0 = time.perf_counter()

    def add_output(self, name):
        self.data["outputs"].append(str(name))

    def finish(self, out_dir):
        self.data["timings_s"]["total"] = time.perf_counter() - self._t0
        path = out_dir / "manifest.json"
        write_json(path, self.data)
        return path


def _load_config(args):
    """The --config file with --seed applied."""
    cfg = _at_path("--config", args.config, load_config)
    if args.seed is not None:
        cfg = cfg.with_updates(seed=int(args.seed))
    return cfg


def _open_output(args, command, config_snapshot, seed):
    """The --out directory, created, and the run's manifest."""
    out_dir = Path(args.out)
    _at_path("--out", out_dir, lambda path: path.mkdir(parents=True, exist_ok=True))
    return out_dir, Manifest(command, out_dir, config_snapshot, seed)


def _trajectory_csv(traj, out_dir, manifest):
    """trajectory.csv: one row per Besov sample of a run made with a
    besov_stride, beside the diagnostics of the step it was taken at."""
    s = traj.series
    rows = [
        (t, s["energy"][i], s["l2"][i], s["grad_l2"][i], base, critical, s["div_residual"][i])
        for i, t, base, critical in zip(
            s["besov_step"], s["besov_t"], s["besov_base"], s["besov_critical"]
        )
    ]
    header = ["t", "E", "u_L2", "grad_u_L2", "u_besov_base", "u_besov_critical", "div_residual"]
    write_csv(out_dir / "trajectory.csv", header, rows)
    manifest.add_output("trajectory.csv")


def _write_snapshots(cfg, traj, out_dir, manifest):
    # sampling already happens at cfg.snapshot_stride steps, so every
    # stored sample becomes one snapshot file
    if cfg.snapshot_stride <= 0:
        return
    from .fieldio import write_field

    for i, (t, f) in enumerate(zip(traj.times, traj.fields)):
        name = f"field_{i:05d}.lans"
        write_field(out_dir / name, f, field_id=f"t={t:.9g}")
        manifest.add_output(name)


def cmd_solve(args):
    cfg = _load_config(args)
    u0 = cfg.initial_field()
    out_dir, manifest = _open_output(args, "solve", cfg.to_dict(), cfg.seed)
    t0 = time.perf_counter()
    traj = solve_ivp(
        u0,
        cfg,
        sample_stride=cfg.snapshot_stride,
        besov_stride=cfg.csv_stride,
    )
    manifest.data["timings_s"]["solve"] = time.perf_counter() - t0
    _trajectory_csv(traj, out_dir, manifest)
    _write_snapshots(cfg, traj, out_dir, manifest)
    manifest.finish(out_dir)
    return EXIT_OK


def cmd_picard(args):
    from .picard import initial_spectrum, picard_solve

    cfg = _load_config(args)
    u0 = initial_spectrum(cfg.initial_field(), cfg)
    out_dir, manifest = _open_output(args, "picard", cfg.to_dict(), cfg.seed)
    t0 = time.perf_counter()
    traj, report = picard_solve(u0, cfg)
    manifest.data["timings_s"]["picard"] = time.perf_counter() - t0
    write_json(out_dir / "picard_report.json", report.to_dict())
    manifest.add_output("picard_report.json")
    rows = [
        (i + 1, float(r)) for i, r in enumerate(report.residuals)
    ]
    write_csv(out_dir / "residuals.csv", ["iterate", "residual"], rows)
    manifest.add_output("residuals.csv")
    base = zip(traj.series["besov_t"], traj.series["besov_base"])
    write_csv(out_dir / "picard_trajectory.csv", ["t", "u_besov_base"], base)
    manifest.add_output("picard_trajectory.csv")
    manifest.finish(out_dir)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _suite_entry(where, entry, seed):
    """(check id, params) of one suite entry, its params parsed against the
    check's signature so that a malformed entry fails before any check runs.
    `seed` fills `seed` only for checks that take one."""
    from .checks import CHECKS, check_parameters, parse_params

    if not isinstance(entry, dict) or not set(entry) <= {"id", "params"}:
        raise ConfigError(f"{where} must be an object with keys 'id' and 'params', got {entry!r}")
    cid = entry.get("id")
    if not isinstance(cid, str) or cid not in CHECKS:
        raise ConfigError(f"{where}: unknown check_id {cid!r}")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where} ({cid}): 'params' must be an object, got {params!r}")
    params = dict(params)
    if seed is not None and "seed" in check_parameters(cid):
        params.setdefault("seed", seed)
    try:
        parse_params(cid, params)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return cid, params


def _unrun_record(cid, params, status, exc, **extra):
    """The failing report entry of a check that `exc` stopped."""
    return {"check_id": cid, "params": params, "status": status, "reason": str(exc), **extra,
            "pass": False}


def cmd_verify(args):
    from .checks import run_check

    suite_path = Path(args.config)
    suite = _at_path("--config", suite_path, read_json)
    if not (isinstance(suite, dict) and set(suite) == {"checks"}
            and isinstance(suite["checks"], list)):
        raise ConfigError(f"{suite_path}: a suite is an object with one key, a 'checks' array")
    entries = [
        _suite_entry(f"{suite_path}: checks[{i}]", entry, args.seed)
        for i, entry in enumerate(suite["checks"])
    ]
    out_dir, manifest = _open_output(args, "verify", {"suite": str(suite_path)}, args.seed or 0)

    reports, all_pass = [], True
    for i, (cid, params) in enumerate(entries):
        t0 = time.perf_counter()
        try:
            rep = run_check(cid, params)
            record = rep.to_dict()
        except ParameterGateError as exc:
            record = _unrun_record(cid, params, "rejected", exc, condition=exc.condition)
        except BlowUpError as exc:  # the check's failing entry; the suite goes on
            record = _unrun_record(cid, params, "blow-up", exc)
        elapsed = time.perf_counter() - t0
        manifest.data["timings_s"][f"checks[{i}] {cid}"] = elapsed
        ok = record.get("pass", False)
        all_pass = all_pass and ok
        status = "pass" if ok else record.get("status", "FAIL")
        print(f"[{status:>8}] {cid}  (max_ratio={record.get('max_ratio', 'n/a')})")
        reports.append(record)
    write_json(out_dir / "verify_report.json", {"checks": reports, "all_pass": all_pass})
    manifest.add_output("verify_report.json")
    if args.trial_csv:
        rows = []
        for rec in reports:
            for i, r in enumerate(rec.get("ratios", [])):
                rows.append((rec["check_id"], i, float(r)))
        write_csv(out_dir / "trial_ratios.csv", ["check_id", "trial", "ratio"], rows)
        manifest.add_output("trial_ratios.csv")
    manifest.finish(out_dir)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _sweep_amplitude(cfg, values, out_dir, t_max):
    from .picard import estimate_existence_time

    rows = estimate_existence_time(values, cfg, t_max=t_max)
    table = [(r["amplitude"], r["u0_norm"], r["certified_T"]) for r in rows]
    write_csv(out_dir / "sweep.csv", ["amplitude", "u0_norm_base", "certified_T"], table)


def _sweep_alpha(cfg, values, out_dir, manifest):
    from .fields import l2_norm

    base_cfg = cfg.with_updates(alpha=0.0)
    base = solve_ivp(base_cfg.initial_field(), base_cfg, sample_stride=0).final()
    rows = []
    gaps, alphas = [], []
    for a in values:
        run_cfg = cfg.with_updates(alpha=float(a))
        final = solve_ivp(run_cfg.initial_field(), run_cfg, sample_stride=0).final()
        gap = l2_norm(final - base)
        rows.append((float(a), gap))
        if a > 0 and gap > 0:
            alphas.append(math.log(a))
            gaps.append(math.log(gap))
    write_csv(out_dir / "sweep.csv", ["alpha", "l2_gap_vs_alpha0"], rows)
    slope = None
    if len(gaps) >= 2:
        slope = float(np.polyfit(alphas, gaps, 1)[0])
    write_json(out_dir / "sweep_summary.json", {"axis": "alpha", "loglog_slope": slope})
    manifest.add_output("sweep_summary.json")


def _sweep_grid(cfg, values, out_dir):
    rows, columns = [], ("energy", "l2", "grad_l2", "div_residual")
    for N in values:
        run_cfg = cfg.with_updates(N=int(N))
        s = solve_ivp(run_cfg.initial_field(), run_cfg, sample_stride=0).series
        rows.append((int(N), *(float(s[c][-1]) for c in columns)))
    header = ["N", "E_final", "u_L2_final", "grad_u_L2_final", "div_residual_final"]
    write_csv(out_dir / "sweep.csv", header, rows)


def _sweep_values(cfg, args):
    """The --values as floats: finite, ascending, and each one accepted by
    the config on the swept axis; an amplitude also by `initial_spectrum`."""
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        raise ConfigError(f"--t-max: {args.t_max} is not a positive finite number")
    if args.axis == "amplitude":  # the horizons it probes are T up to --t-max
        try:
            cfg.with_updates(T=args.t_max)
        except ConfigError as exc:
            raise ConfigError(f"--t-max: {exc}") from None
    values = []
    for text in args.values:
        try:
            value = float(text)
            if not math.isfinite(value) or args.axis == "N" and not value.is_integer():
                raise ValueError("need a finite number, an integer for N")
            if args.axis == "amplitude":
                from .picard import initial_spectrum

                run = cfg.with_updates(initial=replace(cfg.initial, amplitude=value))
                initial_spectrum(run.initial_field(), run)
            else:
                cfg.with_updates(**{args.axis: int(value) if args.axis == "N" else value})
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"--values: {args.axis}={text}: {exc}") from None
        values.append(value)
    if sorted(values) != values:
        raise ConfigError(f"--values must be sorted ascending, got {' '.join(args.values)}")
    return values


def cmd_sweep(args):
    cfg = _load_config(args)
    values = _sweep_values(cfg, args)
    out_dir, manifest = _open_output(args, "sweep", cfg.to_dict(), cfg.seed)
    if args.axis == "amplitude":
        _sweep_amplitude(cfg, values, out_dir, args.t_max)
    elif args.axis == "alpha":
        _sweep_alpha(cfg, values, out_dir, manifest)
    else:
        _sweep_grid(cfg, values, out_dir)
    manifest.add_output("sweep.csv")
    manifest.finish(out_dir)
    return EXIT_OK


def _besov_index(text, grid):
    """One --indices entry "s,p,q", each index in its `RANGES` range on `grid`."""
    from .dyadic import BesovIndex

    try:
        s, p, q = (float(x) for x in text.split(","))
    except ValueError as exc:  # also: not three numbers
        raise ConfigError(f"--indices: {text!r} is not s,p,q: {exc}") from None
    for name, value in (("s", s), ("p", p), ("q", q)):
        check_range(f"--indices {text!r}: {name}", name, value, grid)
    return BesovIndex(s, p, q)


def cmd_lp_analyze(args):
    from .checks import check_partition_of_unity
    from .dyadic import build_dyadic_family, norm_report_record
    from .fieldio import read_field

    try:
        f = _at_path("--field", args.field, read_field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    indices = [_besov_index(text, f.grid) for text in args.indices or ["1,2,2"]]
    out_dir, manifest = _open_output(args, "lp-analyze", {"field": str(args.field)}, 0)
    fam = build_dyadic_family(f.grid)
    km_tab = {
        "j_max": fam.j_max,
        "annuli": [
            {"j": j, "support": [2.0 ** (j - 1), 2.0 ** (j + 1)]}
            for j in range(fam.j_max + 1)
        ],
        "partition_max_defect": check_partition_of_unity(f.grid).max_ratio,
    }
    write_json(out_dir / "dyadic_family.json", km_tab)
    manifest.add_output("dyadic_family.json")
    with open(out_dir / "norms.jsonl", "w", newline="\n") as fh:
        for idx in indices:
            rec = norm_report_record(fam, f, idx, field_id=Path(args.field).name)
            fh.write(json.dumps(_finite_json(rec), sort_keys=True, allow_nan=False) + "\n")
    manifest.add_output("norms.jsonl")
    manifest.finish(out_dir)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError: `main` returns 2 for them as well."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    ap = _Parser(
        prog="lans-lab",
        description="Pseudo-spectral filtered-fluid solver and Besov analysis lab",
    )
    ap.add_argument("--threads", type=int, default=None, help="FFT worker count")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("solve", help="run the time stepper, emit trajectory CSV")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("picard", help="run the fixed-point iteration")
    common(p)
    p.set_defaults(fn=cmd_picard)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--trial-csv", action="store_true", help="emit per-trial ratios CSV")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="parameter sweeps (alpha | amplitude | N)")
    common(p)
    p.add_argument("--axis", choices=["alpha", "amplitude", "N"], required=True)
    p.add_argument("--values", nargs="+", required=True)
    p.add_argument("--t-max", type=float, default=2.0, help="existence-time cap")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("lp-analyze", help="dyadic tables and per-block norms of a field file")
    p.add_argument("--field", required=True, help="field snapshot path")
    p.add_argument("--out", default="out")
    p.add_argument("--indices", nargs="+", metavar="s,p,q", help="Besov indices (default 1,2,2)")
    p.set_defaults(fn=cmd_lp_analyze)
    return ap


def main(argv=None):
    pin_heap_thresholds()
    try:
        args = build_parser().parse_args(argv)
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"argument --threads: {args.threads} is not a positive integer")
        _fft.set_workers(args.threads if args.threads is not None else _fft.workers_from_env())
        # one floating-point policy: an overflow or NaN is reported by the
        # guard that meets it (blow-up, non-finite norm), not by numpy
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ConfigError, AdmissibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
