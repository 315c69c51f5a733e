"""The calls each op makes into gbstates' public API, and the traced replay.

Only public (non-underscore) functions are called, each through a tracer so
that a traced run records one span per call; nothing in gbstates is wrapped
or patched.  The replay sends an op's point once more through the lower
layers' entry points (root, triple, rotation, cores, solve, oracle), which is
what the per-layer breakdown is built from.
"""

import importlib

import numpy as np

from perfbench.workloads import binomial_row

# the package re-exports a function named displacement, so fetch the modules
analysis, binomial, cli, displacement, oracle, solver = (
    importlib.import_module(f"gbstates.{name}")
    for name in ("analysis", "binomial", "cli", "displacement", "oracle", "solver")
)


class OpFailed(RuntimeError):
    """The program reported failure without raising (a non-zero exit code)."""


class Untraced:
    """Calls straight through; used for every timed, untraced pass."""

    def call(self, name, fn, *args):
        return fn(*args)


UNTRACED = Untraced()


def point(op) -> "solver.GBSParams":
    return solver.GBSParams(mu=op.args["mu"], nu=op.args["nu"], eta=op.eta(), m=op.m)


def gbs_argv(op, out_path) -> list[str]:
    a = op.args
    mu, nu = complex(a["mu"]), complex(a["nu"])
    return ["gbs", "--mu-re", repr(mu.real), "--mu-im", repr(mu.imag),
            "--nu-re", repr(nu.real), "--nu-im", repr(nu.imag),
            "--eta", repr(a["eta"]), "--m", str(op.m), "--k", str(a["k"]),
            "--out", str(out_path)]


def run_op(op, tr, out_path):
    """Run one op; returns what its check needs.  Program faults propagate."""
    a = op.args
    if op.kind == "squeezed-scan":
        schedule = analysis.LimitSchedule(
            alpha=a["alpha"], m_values=(op.m,), k_rule=analysis.KRule(a["rule"], 0))
        return tr.call("analysis.squeezed_limit_scan", analysis.squeezed_limit_scan,
                       a["mu"], a["nu"], schedule)
    if op.kind == "number-scan":
        return tr.call("analysis.number_limit_scan", analysis.number_limit_scan,
                       a["mu"], a["nu"], op.m, a["k"], [a["eta"]])
    if op.kind == "solve":
        return tr.call("solver.solve", solver.solve, point(op))
    if op.kind == "cli-gbs":
        code = tr.call("cli.main", cli.main, gbs_argv(op, out_path))
        if code != 0:
            raise OpFailed(f"gbstates gbs exited with code {code}")
        return out_path
    if op.kind == "draw":
        p = point(op)
        sol = tr.call("solver.solve", solver.solve, p)
        report = tr.call("oracle.compare", oracle.compare, p, sol)
        sums = [tr.call("solver.eigenstate_sum", solver.eigenstate_sum, p, k) for k in range(op.m + 1)]
        exps = [tr.call("solver.eigenstate_exponential", solver.eigenstate_exponential, p, k)
                for k in range(op.m + 1)]
        d = tr.call("displacement.disentangled_displacement",
                    displacement.disentangled_displacement, a["xi"], op.m)
        return sol, report, sums, exps, d
    if op.kind == "binomial":
        rows = []
        for m in binomial_row(op.m):
            bp = binomial.BinomialParams(eta=a["eta"], m=m)
            rows.append((tr.call("binomial.binomial_amplitudes", binomial.binomial_amplitudes, bp),
                         tr.call("binomial.binomial_displacement_form", binomial.binomial_displacement_form, bp)))
        return rows
    raise ValueError(f"unknown op kind {op.kind!r}")


def _entry(module, name):
    """A public entry point, or None once a later change has removed it."""
    return getattr(module, name, None)


def _try(tr, name, fn, *args):
    try:
        return tr.call(name, fn, *args)
    except Exception:  # a failing call is recorded on its span; the replay goes on
        return None


def replay(op, tr, generic: bool, defects: list) -> None:
    """Send op's point through the lower layers, one traced call each.

    Solve is replayed only where the op itself reached it indirectly (scans,
    the CLI), the oracle only where the op used it, so every point counts
    one solve, one rotation, one frame and one set of cores.  generic says
    whether the cores exist for this point (the benchmark's own prediction).
    """
    if op.kind == "binomial":
        return
    p = point(op)
    roots, select, triple = (_entry(solver, n) for n in ("constraint_roots", "select_root", "coefficient_triple"))
    to_zeta, rotation = _entry(displacement, "delta_to_zeta"), _entry(displacement, "displacement")
    if roots:
        _try(tr, "solver.constraint_roots", roots, p)
    delta = _try(tr, "solver.select_root", select, p) if select else None
    if delta is not None and triple:
        _try(tr, "solver.coefficient_triple", triple, p, delta)
    zeta = _try(tr, "displacement.delta_to_zeta", to_zeta, delta, p.m) if delta is not None and to_zeta else None
    if zeta is not None and rotation:
        d = _try(tr, "displacement.displacement", rotation, zeta)
        if d is not None:
            defects.append(float(np.linalg.norm(d.conj().T @ d - np.eye(p.m + 1))))
    core = _entry(solver, "undisplaced_eigenstate")
    if generic and core:
        for k in range(p.m + 1):
            _try(tr, "solver.undisplaced_eigenstate", core, p, k)
    sol = None
    if op.kind in ("squeezed-scan", "number-scan", "cli-gbs") and _entry(solver, "solve"):
        sol = _try(tr, "solver.solve", solver.solve, p)
    if op.kind == "cli-gbs" and sol is not None and _entry(oracle, "compare"):
        _try(tr, "oracle.compare", oracle.compare, p, sol)
    if op.kind in ("cli-gbs", "draw") and _entry(oracle, "dense_spectrum") and _entry(solver, "build_operator"):
        matrix = _try(tr, "solver.build_operator", solver.build_operator, p)
        if matrix is not None:
            _try(tr, "oracle.dense_spectrum", oracle.dense_spectrum, matrix)
