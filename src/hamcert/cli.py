"""Command-line front end: certify, sweep, verify.

Exit codes are the machine contract: 0 means ACCEPT (or all suites
passed), 1 means REJECT, 2 means a usage or input error.  All output is
byte-reproducible for a fixed seed and locale-independent: files are read
and written, and the console script's stdout written, as UTF-8, with a
path that the locale could not decode written back as its own bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certifier import (
    DEFAULT_C2,
    DEFAULT_C4,
    CertificationConfig,
    ConfigError,
    _constants,
    certify,
    sweep_epsilon,
)
from .oracle import EvolutionOracle, OracleMode
from .pauli import HamiltonianFormatError, PauliSum, parse_hamiltonian
from .verification import check_trials, run_suite, suite_names

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2

_MODES = {"exact": OracleMode.EXACT_EFFECTIVE, "trotter": OracleMode.TROTTERIZED}


def _load_hamiltonian(path: str) -> PauliSum:
    # UTF-8 whatever the locale, so a file means the same under every locale.
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise HamiltonianFormatError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise HamiltonianFormatError(f"{path}: not valid UTF-8: {exc}") from None
    try:
        return parse_hamiltonian(text)
    except HamiltonianFormatError as exc:
        raise HamiltonianFormatError(f"{path}: {exc}") from None


def _write_out(path: str, text: str) -> None:
    # Encoded before the file is opened, so a failure leaves it untouched.
    data = text.encode("utf-8", "surrogateescape")
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, required=True,
                        help="allowed failure probability, in (0, 1)")
    parser.add_argument("--k", type=int, required=True, help="locality bound")
    parser.add_argument("--mode", choices=sorted(_MODES), default="exact",
                        help="oracle mode (default: exact)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master RNG seed (default: %(default)s)")
    parser.add_argument("--c2", type=float, default=DEFAULT_C2,
                        help="twirl-depth constant (default: %(default)s)")
    parser.add_argument("--c4", type=float, default=DEFAULT_C4,
                        help="shot-count constant (default: %(default)s)")
    parser.add_argument("--allow-weak-constants", action="store_true",
                        help="allow a --c2 too small for the twirl-depth bound, "
                             "or a --c4 that gives fewer shots than the default")


def _config_from_args(args: argparse.Namespace) -> CertificationConfig:
    return CertificationConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        k=args.k,
        c2=args.c2,
        c4=args.c4,
        mode=_MODES[args.mode],
        seed=args.seed,
        allow_weak_constants=args.allow_weak_constants,
    )


def _cmd_certify(args: argparse.Namespace) -> int:
    h0 = _load_hamiltonian(args.h0)
    hidden = _load_hamiltonian(args.h)
    cfg = _config_from_args(args)
    # The hidden file exists only to build the oracle; the certifier sees
    # nothing but the oracle handle.
    oracle = EvolutionOracle(hidden, cfg.mode)
    report = certify(h0, oracle, cfg)
    text = report.render()
    if args.out:
        _write_out(args.out, text)
    sys.stdout.write(text)
    return EXIT_ACCEPT if report.verdict == "ACCEPT" else EXIT_REJECT


def _cmd_sweep(args: argparse.Namespace) -> int:
    h0 = _load_hamiltonian(args.h0)
    direction = _load_hamiltonian(args.direction)
    try:
        eps_list = [float(x) for x in args.eps_list.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"malformed --eps-list {args.eps_list!r}") from None
    if not eps_list:
        raise ConfigError("--eps-list is empty")
    # Every run replaces epsilon, so the base config takes the first value.
    args.epsilon = eps_list[0]
    cfg = _config_from_args(args)
    result = sweep_epsilon(h0, direction, eps_list, cfg, repeats=args.repeats)
    lines = [
        "# hamcert sweep",
        f"# h0 = {args.h0}",
        f"# direction = {args.direction}",
        f"# eps_list = {args.eps_list}",
        f"# repeats = {args.repeats}",
        f"# delta = {cfg.delta!r}",
        f"# k = {cfg.k}",
        f"# mode = {cfg.mode.value}",
        *(f"# {name} = {value!r}" for name, value in _constants(cfg)),
        f"# seed = {cfg.seed}",
        "epsilon,total_time,queries,verdict,seed",
    ]
    for row in result.rows:
        lines.append(
            f"{row.epsilon!r},{row.total_time!r},{row.queries},"
            f"{row.verdict},{row.seed}"
        )
    lines.append(f"# loglog_slope = {result.loglog_slope!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_out(args.out, text)
    sys.stdout.write(text)
    return EXIT_ACCEPT


def _cmd_verify(args: argparse.Namespace) -> int:
    names = suite_names() if args.suite == "all" else [args.suite]
    for name in names:
        check_trials(name, args.trials)
    all_passed = True
    for name in names:
        result = run_suite(name, trials=args.trials, seed=args.seed)
        sys.stdout.write(result.summary() + "\n")
        all_passed &= result.passed
    return EXIT_ACCEPT if all_passed else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamcert",
        description="Certify a local Hamiltonian against a reference from "
                    "forward real-time dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="run the certification protocol")
    p_cert.add_argument("--h0", required=True, help="reference Hamiltonian file")
    p_cert.add_argument("--h", required=True,
                        help="unknown Hamiltonian file (used only to build the oracle)")
    p_cert.add_argument("--epsilon", type=float, required=True,
                        help="separation threshold in normalized Frobenius norm")
    _add_config_flags(p_cert)
    p_cert.add_argument("--out", default=None, help="report output path")
    p_cert.set_defaults(func=_cmd_certify)

    p_sweep = sub.add_parser("sweep", help="measure total-time scaling over epsilon")
    p_sweep.add_argument("--h0", required=True, help="reference Hamiltonian file")
    p_sweep.add_argument("--direction", required=True,
                         help="unit-norm deviation direction file")
    p_sweep.add_argument("--eps-list", required=True,
                         help="comma-separated epsilon values")
    p_sweep.add_argument("--repeats", type=int, default=8,
                         help="seeded runs per epsilon (default: 8)")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run numerical verification suites")
    p_verify.add_argument("--suite", default="all", choices=suite_names() + ["all"],
                          help="suite name (default: all)")
    p_verify.add_argument("--trials", type=int, default=None,
                          help="override the suite's main trial count")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="suite RNG seed (default: %(default)s)")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (HamiltonianFormatError, ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Exception as exc:
        # An uncaught exception would exit 1, the REJECT code.
        sys.stderr.write(f"error: unexpected {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


def entrypoint() -> None:
    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    raise SystemExit(main())
