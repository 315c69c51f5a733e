"""Command-line front end: machine-readable access to every pipeline.

Single solves (`binomial`, `gbs`, `evolve`) always emit JSON run records,
one line each, and take no `--format`; scans emit CSV (one row per schedule point) or JSON, and
`verify` runs the fixed property battery (no draw or seed flags; its JSON
`params` is empty) as a text table or JSON.  Exit
codes: 0 success, 2 invalid input, 3 a verification check failed or the
oracle did not converge.  Complex numbers are encoded as [re, im] pairs.
Output is deterministic for identical inputs except the wall times (`wall_s`
per check, `total_s`) in the diagnostics of `verify --format json`.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    K_RULE_MODES,
    KRule,
    LimitSchedule,
    _number_scan,
    photon_statistics,
    squeezed_limit_scan,
    time_evolve,
)
from .binomial import BinomialParams, binomial_amplitudes, ladder_residual
from .fock import fidelity
from .oracle import NonConvergenceError, compare
from .solver import GBSParams, _check_index, constraint_roots, eigenstate_sum, solve
from .verification import run_all

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFICATION = 3


def _cnum(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _cvec(v) -> list[list[float]]:
    # the (re, im) pairs of a contiguous complex array, as the float view reads them
    return np.ascontiguousarray(v, dtype=complex).view(float).reshape(-1, 2).tolist()


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _write(text: str, out: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _record(command: str, params: dict, results: dict, diagnostics: dict) -> str:
    # one line: without indent, json runs its C encoder
    return json.dumps(
        {
            "command": command,
            "tool_version": __version__,
            "params": params,
            "results": results,
            "diagnostics": diagnostics,
        }
    )


def _csv(rows: list[tuple[float, float, float]]) -> str:
    lines = ["m_or_eta,fidelity,residual"]
    for key, fid, res in rows:
        lines.append(f"{_f17(key)},{_f17(fid)},{_f17(res)}")
    return "\n".join(lines) + "\n"


def cmd_binomial(args) -> int:
    p = BinomialParams(eta=args.eta, m=args.m)
    amps = binomial_amplitudes(p)
    stats = photon_statistics(amps)
    residual = ladder_residual(p) if 0.0 < args.eta < 1.0 else None
    payload = _record(
        "binomial",
        {"eta": args.eta, "m": args.m},
        {
            "amplitudes": _cvec(amps),
            "distribution": [float(x) for x in stats.distribution],
            "photon_statistics": {
                "mean": stats.mean,
                "variance": stats.variance,
                "mandel_q": stats.mandel_q,
            },
        },
        {"ladder_residual": residual},
    )
    _write(payload, args.out)
    return EXIT_OK


def cmd_gbs(args) -> int:
    p = GBSParams(
        mu=complex(args.mu_re, args.mu_im),
        nu=complex(args.nu_re, args.nu_im),
        eta=args.eta,
        m=args.m,
    )
    sol = solve(p)
    if args.k is not None:
        # before the oracle, which costs far more than the solve
        _check_index(p, args.k, sol.kind)
    report = compare(p, sol)
    results = {
        "delta_roots": [_cnum(r) for r in constraint_roots(p)],
        "delta": _cnum(sol.delta_root),
        "zeta": {"r": sol.zeta.r, "theta": sol.zeta.theta},
        "coefficients": {
            "a_plus": _cnum(sol.triple.a_plus),
            "a_minus": _cnum(sol.triple.a_minus),
            "a_zero": _cnum(sol.triple.a_zero),
        },
        "kind": sol.kind.value,
        "eigenvalues": _cvec(sol.eigenvalues),
    }
    if args.k is not None:
        results["eigenstate_k"] = args.k
        results["eigenstate"] = _cvec(sol.eigenstates[args.k])
    payload = _record(
        "gbs",
        {"mu": _cnum(p.mu), "nu": _cnum(p.nu), "eta": p.eta, "m": p.m},
        results,
        {
            "oracle": {
                "max_pair_error": report.max_pair_error,
                "max_residual": report.max_residual,
                "multiplicity_collapse": report.multiplicity_collapse,
                "pair_error_bound": report.pair_bound,
                "residual_bound": report.residual_bound,
                "method": report.method,
                "skipped_newton_steps": report.skipped_newton_steps,
            },
        },
    )
    _write(payload, args.out)
    if not report.passed:
        print("oracle comparison exceeded tolerance", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} takes comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ValueError(f"{flag} needs at least one number, got {text!r}")
    return values


def _parse_m_values(text: str) -> list[int]:
    values = _parse_floats(text, "--m-values")
    for x in values:
        if not x.is_integer():  # also false for inf and nan
            raise ValueError(f"--m-values must be finite integers, got {x!r}")
    return [int(x) for x in values]


def cmd_limit(args) -> int:
    if not math.isfinite(args.phi):
        raise ValueError(f"--phi must be finite, got {args.phi!r}")
    if args.mode == "number":
        if args.m is None or args.k is None or args.etas is None:
            raise ValueError("number mode needs --m, --k and --etas")
        etas = _parse_floats(args.etas, "--etas")
        mu = complex(args.mu_re, args.mu_im)
        nu = complex(args.nu_re, args.nu_im)
        rows = [
            # |(N - k) v|, N diagonal
            (eta, fid, float(np.linalg.norm((np.arange(args.m + 1) - args.k) * state)))
            for eta, fid, state in _number_scan(mu, nu, args.m, args.k, etas)
        ]
        params = {
            "mode": "number",
            "mu": _cnum(mu),
            "nu": _cnum(nu),
            "m": args.m,
            "k": args.k,
            "etas": etas,
        }
    else:
        if args.alpha is None or args.m_values is None:
            raise ValueError(f"{args.mode} mode needs --alpha and --m-values")
        if args.mode == "coherent":  # the nu = 0, mu = e^{i phi} top-offset family
            mu, nu, rule = complex(math.cos(args.phi), math.sin(args.phi)), 0j, "top-offset"
        else:
            mu, nu, rule = complex(args.mu_re, args.mu_im), complex(args.nu_re, args.nu_im), args.rule
        schedule = LimitSchedule(
            alpha=args.alpha,
            m_values=tuple(_parse_m_values(args.m_values)),
            k_rule=KRule(rule, args.offset),
        )
        rows = [(float(m), fid, res) for m, res, fid in squeezed_limit_scan(mu, nu, schedule)]
        params = {
            "mode": args.mode,
            "mu": _cnum(mu),
            "nu": _cnum(nu),
            "alpha": args.alpha,
            "m_values": list(schedule.m_values),
            "rule": rule,
            "offset": args.offset,
        }
        if args.mode == "coherent":
            params["phi"] = args.phi
    if args.format == "csv":
        _write(_csv(rows), args.out)
    else:
        payload = _record(
            "limit",
            params,
            {"rows": [{"m_or_eta": a, "fidelity": b, "residual": c} for a, b, c in rows]},
            {},
        )
        _write(payload, args.out)
    return EXIT_OK


def cmd_evolve(args) -> int:
    shifted = args.phi + args.omega * args.t
    for flag, value in (("--phi", args.phi), ("--omega", args.omega), ("--t", args.t),
                        ("phi + omega*t", shifted)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    p0 = GBSParams(mu=complex(math.cos(args.phi), math.sin(args.phi)), nu=0.0, eta=args.eta, m=args.m)
    state = eigenstate_sum(p0, args.k)
    evolved = time_evolve(state, omega=args.omega, t=args.t)
    p1 = GBSParams(mu=complex(math.cos(shifted), math.sin(shifted)), nu=0.0, eta=args.eta, m=args.m)
    fid = fidelity(evolved, eigenstate_sum(p1, args.k))
    payload = _record(
        "evolve",
        {
            "eta": args.eta,
            "m": args.m,
            "k": args.k,
            "phi": args.phi,
            "omega": args.omega,
            "t": args.t,
        },
        {
            "evolved_amplitudes": _cvec(evolved),
            "fidelity_vs_phase_shifted_rebuild": fid,
        },
        {},
    )
    _write(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    start = time.perf_counter()
    results = run_all()
    total_s = time.perf_counter() - start
    if args.format == "json":
        payload = _record(
            "verify",
            {},
            {
                "checks": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "observed": r.observed,
                        "threshold": r.threshold,
                        "detail": r.detail,
                    }
                    for r in results
                ],
                "all_passed": all(r.passed for r in results),
            },
            {"wall_s": {r.name: r.wall_s for r in results}, "total_s": total_s},
        )
        _write(payload, args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name:40s} {r.observed:.3e} <= {r.threshold:.3e}")
            if r.detail:
                lines.append(f"      {r.detail}")
        n_pass = sum(r.passed for r in results)
        lines.append(f"{n_pass}/{len(results)} checks passed")
        _write("\n".join(lines), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION


def _add_complex_flags(sp):
    sp.add_argument("--mu-re", type=float, default=1.0)
    sp.add_argument("--mu-im", type=float, default=0.0)
    sp.add_argument("--nu-re", type=float, default=0.0)
    sp.add_argument("--nu-im", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbstates",
        description="Generalized binomial states: closed-form solutions with built-in verification",
    )
    parser.add_argument("--version", action="version", version=f"gbstates {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_bin = sub.add_parser("binomial", help="binomial state amplitudes and statistics")
    p_bin.add_argument("--eta", type=float, required=True, help="probability in [0, 1]")
    p_bin.add_argument("--m", type=int, required=True, help="photon cap")
    p_bin.add_argument("--out", default="-")
    p_bin.set_defaults(func=cmd_binomial)

    p_gbs = sub.add_parser("gbs", help="solve the generalized eigenvalue problem")
    _add_complex_flags(p_gbs)
    p_gbs.add_argument("--eta", type=float, required=True, help="probability in (0, 1)")
    p_gbs.add_argument("--m", type=int, required=True, help="photon cap")
    p_gbs.add_argument("--k", type=int, default=None, help="also emit eigenstate k")
    p_gbs.add_argument("--out", default="-")
    p_gbs.set_defaults(func=cmd_gbs)

    p_lim = sub.add_parser("limit", help="number/squeezed/coherent limit scans")
    p_lim.add_argument("--mode", choices=["number", "squeezed", "coherent"], required=True)
    _add_complex_flags(p_lim)
    p_lim.add_argument("--m", type=int, default=None, help="photon cap (number mode)")
    p_lim.add_argument("--k", type=int, default=None, help="eigenstate index (number mode)")
    p_lim.add_argument("--etas", default=None, help="comma-separated eta schedule (number mode)")
    p_lim.add_argument("--alpha", type=float, default=None, help="fixed sqrt(eta m)")
    p_lim.add_argument("--m-values", default=None, help="comma-separated ascending m schedule")
    p_lim.add_argument("--rule", choices=K_RULE_MODES, default="center")
    p_lim.add_argument("--offset", type=int, default=0)
    p_lim.add_argument("--phi", type=float, default=0.0, help="mu phase (coherent mode)")
    p_lim.add_argument("--format", choices=["csv", "json"], default="csv")
    p_lim.add_argument("--out", default="-")
    p_lim.set_defaults(func=cmd_limit)

    p_ev = sub.add_parser("evolve", help="free time evolution of a nu = 0 eigenstate")
    p_ev.add_argument("--eta", type=float, required=True)
    p_ev.add_argument("--m", type=int, required=True)
    p_ev.add_argument("--k", type=int, required=True)
    p_ev.add_argument("--phi", type=float, default=0.0, help="mu phase at t = 0")
    p_ev.add_argument("--omega", type=float, required=True)
    p_ev.add_argument("--t", type=float, required=True)
    p_ev.add_argument("--out", default="-")
    p_ev.set_defaults(func=cmd_evolve)

    p_ver = sub.add_parser("verify", help="run the full property battery")
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.add_argument("--out", default="-")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _is_numbers(token: str) -> bool:
    """True for one number or a comma-separated list of numbers."""
    try:
        for part in token.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write `--flag -1e-3` as `--flag=-1e-3`, and `--m-values -2,50` as `--m-values=-2,50`.

    argparse reads a token that starts with '-' as an option unless it
    matches its negative-number pattern, which has no exponent and no comma,
    so `--nu-re -1e-3` would leave --nu-re without its value.  A number, or
    a comma-separated list of them, that follows a long option without '='
    is attached to it instead.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and token.startswith("-") and _is_numbers(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NonConvergenceError as exc:
        print(f"error: oracle did not converge: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
