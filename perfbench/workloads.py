"""The three workloads as fixed, seeded lists of operations.

An operation (Op) names one closed-loop call into gbstates' public API and
its inputs.  Every workload's kinds, photon caps m, eta schedules, op count
and point magnitudes are the same for every seed.  The seed moves each point
along its gauge orbit (see _gauge) and draws the eigenstate indices asked
for, so the numbers every check sees change with it while the work per pass,
and the share of ops that fail, do not: a cost that depended on the seed
would read as run-to-run noise.
"""

from dataclasses import dataclass, field

import numpy as np

from perfbench import WORKLOADS

# eta -> 1 schedule of the number-state limit; these points also carry the
# known core overflow at m >= 100, so they must not depend on the seed.
NUMBER_ETAS = (0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6)
BINOMIAL_ETAS = (0.13, 0.18, 0.33, 0.41, 0.47, 0.62, 0.69, 0.84, 0.91)
DRAW_TABLE_SEED = 20240615


@dataclass
class Op:
    """kind is one of squeezed-scan, number-scan, solve, cli-gbs, draw, binomial.

    A binomial op covers the row m' = 5, 10, ..., m of its eta.

    Ops sharing a non-empty group form one schedule, listed in ascending m
    (squeezed-scan) or eta (number-scan), checked together for rising fidelity.
    """

    kind: str
    m: int
    args: dict = field(default_factory=dict)
    group: str = ""

    def eta(self) -> float:
        """A scan schedule fixes alpha = sqrt(eta m) instead of eta."""
        return self.args["alpha"] ** 2 / self.m if self.kind == "squeezed-scan" else self.args["eta"]

    def label(self) -> str:
        shown = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.args.items())
        return f"{self.kind} m={self.m} ({shown})"


def binomial_row(m: int) -> range:
    """The photon caps a binomial op with cap m covers."""
    return range(5, m + 1, 5)


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))


def _gauge(rng, mu, nu, quarter: bool = False) -> tuple[complex, complex]:
    """The seed's copy (mu e^{-i theta}, nu e^{i theta}) of a base point.

    e^{i theta N} L(mu, nu) e^{-i theta N} = L(mu e^{-i theta}, nu e^{i theta}):
    the copy has other amplitudes but the same spectrum, branch, rotation
    angle and core magnitudes, so the same work and the same failures.
    """
    g = (1, 1j, -1, -1j)[int(rng.integers(4))] if quarter else _phase(rng)
    return complex(mu) * g.conjugate(), complex(nu) * g


# (m, mu, nu, eta) of the generic large-m solves: non-normal, |A0/A+| <= 1.74,
# and each solves at m = 500, short of the core overflow (600 for the last)
GENERIC_POINTS = (
    (130, 1.0, 0.25 * np.exp(0.9j), 0.25),
    (250, 1.05, 0.22 * np.exp(-2.1j), 0.22),
    (340, 0.95, 0.28 * np.exp(2.6j), 0.28),
    (400, 1.0, 0.3 * np.exp(-0.4j), 0.25),
)


def _large_m_scan(rng, tiny: bool) -> list[Op]:
    # The seed moves each point along its gauge orbit and draws the number-
    # state index, neither of which changes the work;
    # the m values differ between schedules, so only the number scans repeat m.
    sq_ms = (20, 30) if tiny else tuple(62 + 28 * j for j in range(13))  # even: the center eigenvalue is 0
    coh_ms = (16, 26) if tiny else tuple(56 + 28 * j for j in range(13))
    number_ms = (10,) if tiny else (50, 100, 200)
    generic = ((12,) + GENERIC_POINTS[0][1:],) if tiny else GENERIC_POINTS
    hermitian_m = 16 if tiny else 800

    ops = []
    mu, nu = _gauge(rng, 1.0, 0.3j)
    for m in sq_ms:
        ops.append(Op("squeezed-scan", m, dict(mu=mu, nu=nu, alpha=1.0, rule="center"), "squeezed"))
    mu, _ = _gauge(rng, 1.0, 0.0)
    for m in coh_ms:
        ops.append(Op("squeezed-scan", m, dict(mu=mu, nu=0j, alpha=1.2, rule="top-offset"), "coherent"))
    # fixed points: the ones at m >= 100 and eta near 1 hit the core overflow
    for m in number_ms:
        k = int(rng.integers(m // 4, 3 * m // 4 + 1))
        for eta in NUMBER_ETAS[: 2 if tiny else None]:
            ops.append(Op("number-scan", m, dict(mu=1 + 0j, nu=0j, eta=eta, k=k), f"number-{m}"))
    for m, mu0, nu0, eta in generic:
        mu, nu = _gauge(rng, mu0, nu0)
        ops.append(Op("solve", m, dict(mu=mu, nu=nu, eta=eta)))
    mu, nu = _gauge(rng, 1.0, 1.0)
    ops.append(Op("solve", hermitian_m, dict(mu=mu, nu=nu, eta=0.4)))
    return ops


# (mu, nu, eta) of the verified solves, each run at every m of the workload:
# near-normal (mu nu close to real positive keeps the eigenvalues well
# conditioned, |nu| != |mu| keeps it off the Hermitian branch), Hermitian,
# defective (A0 = 0: eta + 4(1 - eta) mu nu vanishes exactly) and nu = 0
VERIFIED_POINTS = (
    (1.0, 0.7 * np.exp(0.03j), 0.4),
    (0.9 + 0.4j, 0.9 - 0.4j, 0.55),
    (1.0, -0.25, 0.5),
    (1.2, 0.0, 0.35),
)


def _verified_solve(rng, tiny: bool) -> list[Op]:
    ops = []
    for m in (4, 8) if tiny else (20, 60, 120):
        for mu0, nu0, eta in VERIFIED_POINTS:
            # quarter turns keep mu nu, and so the defective invariant, exact
            mu, nu = _gauge(rng, mu0, nu0, quarter=nu0 == -0.25)
            k = 0 if nu0 == -0.25 else int(rng.integers(0, m + 1))  # one eigenstate when defective
            ops.append(Op("cli-gbs", m, dict(mu=mu, nu=nu, eta=eta, k=k)))
    return ops


def _draw_table(tiny: bool) -> list[tuple]:
    """(m, mu, nu, eta, |xi|) of the small-m draws, from `gbstates verify`'s
    parameter domain: |mu| in (0.05, 2], |nu| <= 2, eta in (0.05, 0.95),
    and |xi| < 1.4 for the disentangling product.  Fixed, so the work per
    pass does not depend on the seed."""
    rng = np.random.default_rng(DRAW_TABLE_SEED)
    table = []
    for _ in range(1 if tiny else 3):
        for m in range(1, (3 if tiny else 20) + 1):
            table.append((m, rng.uniform(0.05, 2.0) * _phase(rng), rng.uniform(0.0, 2.0) * _phase(rng),
                          float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 1.4))))
    return table


def _small_m_mix(rng, tiny: bool) -> list[Op]:
    ops = []
    for m, mu0, nu0, eta, absxi in _draw_table(tiny):
        mu, nu = _gauge(rng, mu0, nu0)
        ops.append(Op("draw", m, dict(mu=mu, nu=nu, eta=eta, xi=absxi * _phase(rng))))
    # one op per eta: both binomial forms at every m of the row
    for eta in BINOMIAL_ETAS[: 2 if tiny else None]:
        ops.append(Op("binomial", 10 if tiny else 60, dict(eta=eta)))
    return ops


_BUILDERS = {
    "large-m-scan": _large_m_scan,
    "verified-solve": _verified_solve,
    "small-m-mix": _small_m_mix,
}

# one op per workload, at an m no measured op uses, run once during set-up
WARMUP = {
    "large-m-scan": Op("solve", 40, dict(mu=1 + 0j, nu=0.3j, eta=0.4)),
    "verified-solve": Op("cli-gbs", 10, dict(mu=1 + 0.5j, nu=1 - 0.5j, eta=0.4, k=5)),
    "small-m-mix": Op("draw", 3, dict(mu=1 + 0j, nu=0.3j, eta=0.4, xi=0.5 + 0.2j)),
}

# In a traced run, a family of layers that none of the workload's ops reach is
# timed on one of these fixed tiny ops, so that every per-layer metric is a
# measured time rather than a constant zero.
PROBES = {
    "scan": Op("squeezed-scan", 8, dict(mu=1 + 0j, nu=0.3 + 0j, alpha=1.0, rule="center")),
    "cli": Op("cli-gbs", 4, dict(mu=1 + 0j, nu=0.3j, eta=0.4, k=2)),
    "draw": Op("draw", 4, dict(mu=1 + 0j, nu=0.3j, eta=0.4, xi=0.5 + 0.2j)),
    "binomial": Op("binomial", 5, dict(eta=0.3)),
}
PROBE_FAMILY = {"squeezed-scan": "scan", "number-scan": "scan", "cli-gbs": "cli",
                "draw": "draw", "binomial": "binomial"}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's op list for a seed; tiny shrinks every m for smoke tests."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]), tiny)


def probes_for(ops: list[Op]) -> list[Op]:
    reached = {PROBE_FAMILY.get(op.kind) for op in ops}
    return [op for family, op in PROBES.items() if family not in reached]
