"""In-memory spans around the benchmark's calls into gbstates, and the
per-layer metrics derived from them.

A span is one call: its name (layer.function), the op it belongs to (the
op's index, shared by the traced pass and the replay of that op), the phase
(pass, replay or probe), the span that was open when it started, start and
end times, and the exception type if the call raised.  Self times are
derived by subtracting, per op, the spans of the same op that the outer
call is known to contain.
"""

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.phase = None
        self._open = None

    def call(self, name, fn, *args):
        span = {"id": len(self.spans), "parent": self._open, "op": self.op, "phase": self.phase,
                "name": name, "start": time.perf_counter(), "end": None, "error": None}
        self.spans.append(span)
        outer, self._open = self._open, span["id"]
        try:
            return fn(*args)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._open = outer

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


SCANS = ("analysis.squeezed_limit_scan", "analysis.number_limit_scan")


def _self_time(per_op, outer, inner) -> float | None:
    """Sum over ops that made an outer call of outer minus the inner calls."""
    ops = [d for d in per_op.values() if any(name in d for name in outer)]
    if not ops:
        return None
    return sum(sum(d.get(n, 0.0) for n in outer) - sum(d.get(n, 0.0) for n in inner) for d in ops)


def layer_metrics(spans, defects, residual_digits) -> dict:
    """Per-layer metric values; a metric whose calls never happened is left out."""
    total = defaultdict(float)
    count = defaultdict(int)
    failed = defaultdict(int)
    per_op = defaultdict(lambda: defaultdict(float))
    for s in spans:
        dt = s["end"] - s["start"]
        total[s["name"]] += dt
        count[s["name"]] += 1
        failed[s["name"]] += s["error"] is not None
        per_op[s["op"]][s["name"]] += dt

    def busy(*names):
        return sum(total[n] for n in names) if any(count[n] for n in names) else None

    out = {
        "displacement.rotation_s": busy("displacement.displacement"),
        "displacement.unitarity_defect_max": max(defects) if defects else None,
        "displacement.disentangle_s": busy("displacement.disentangled_displacement"),
        "solver.frame_s": busy("solver.constraint_roots", "solver.coefficient_triple"),
        "solver.cores_s": busy("solver.undisplaced_eigenstate"),
        "solver.solve_s": busy("solver.solve"),
        "solver.forms_s": busy("solver.eigenstate_sum", "solver.eigenstate_exponential"),
        "solver.cores_failed": failed["solver.undisplaced_eigenstate"] if count["solver.undisplaced_eigenstate"] else None,
        "solver.residual_digits_min": residual_digits,
        "oracle.dense_spectrum_s": busy("oracle.dense_spectrum"),
        "oracle.compare_self_s": _self_time(per_op, ("oracle.compare",), ("oracle.dense_spectrum",)),
        "binomial.amplitudes_s": busy("binomial.binomial_amplitudes"),
        "binomial.displacement_form_s": busy("binomial.binomial_displacement_form"),
        "analysis.scan_self_s": _self_time(per_op, SCANS, ("solver.solve",)),
        "cli.self_s": _self_time(per_op, ("cli.main",), ("solver.solve", "oracle.compare")),
    }
    parts = [out["solver.solve_s"], out["displacement.rotation_s"], out["solver.cores_s"], out["solver.frame_s"]]
    if all(x is not None for x in parts):
        out["solver.assembly_s"] = parts[0] - parts[1] - parts[2] - parts[3]
    return {k: v for k, v in out.items() if v is not None}
