"""The benchmark's workloads, built from a seed through loewnerkit's public API.

A workload's set-up builds its inputs and returns one iteration as a
sequence of steps.  An iteration completes a fixed number of items, counted
from its inputs (never from library calls, so a faster design still does the
same number of items); each step returns the outcome of its correctness
checks.  The worker calibrates the machine's speed between steps (see
calibrate.py), so steps are kept to a few seconds at most.

Library functions are looked up as module attributes at call time, so the
traced run's wrappers see every call.
"""

import cmath
import re
from dataclasses import dataclass

import loewnerkit.cli
from loewnerkit import expansions, flows, kernels, sampling
from loewnerkit.representations import AtomicMeasure

# RK4 endpoints must match the closed forms this closely at |z| <= 0.7; at
# the seed commit the errors on these points are about 2e-14.
ENDPOINT_TOL = 1e-9
MEMBERSHIP_SIZES = (64, 128, 256, 512)
MEMBERSHIP_EPS = 1e-8
TRACE_SAMPLES = 101

_WALL_CLOCK = re.compile(r'"wall_clock_ms":-?\d+')


@dataclass(frozen=True)
class Workload:
    items: int  # items completed by one iteration
    steps: tuple  # an iteration, in order: () -> list of (check name, passed)
    cli_args: tuple  # arguments of the `python -m loewnerkit.cli` run
    min_iterations: int = 11  # enough for a tail with ten iterations beyond it


def suite_all(seed: int) -> Workload:
    """The main path: every CLI suite in process, then the JSON report.
    An item is one report."""
    cli = loewnerkit.cli
    raw = {"suite": "all", "seed": seed}
    cli.validate_config(raw)
    reference = []

    def iteration():
        report = cli.run(cli.validate_config(raw))
        body = _WALL_CLOCK.sub("", cli.dumps_report(report))
        if not reference:
            reference.append(body)
        return [
            ("overall_pass", report["overall_pass"] is True),
            ("deterministic_body", body == reference[0]),
        ]

    return Workload(1, (iteration,), ("run", "--suite", "all", "--seed", str(seed)))


# Two segments of multi-atom probability measures on the circle: no closed
# form exists, so only the RK4 backend can evaluate this flow.
_MULTI_ATOM_SEGMENTS = (
    (0.0, AtomicMeasure(((-1.0, 0.6), (cmath.exp(2.1j), 0.4)))),
    (0.5, AtomicMeasure(((cmath.exp(-2.1j), 0.5), (1j, 0.5)))),
)


def rk4_flow(seed: int) -> Workload:
    """The RK4 backend only.  An item is one requested (point, time)
    transition sample: a check over p pairs and an m-node rule requests
    both points at every node and at the end time, 2p(m + 1) samples."""
    rk4 = flows.RUNGE_KUTTA
    koebe = flows.RadialFlowSpec.koebe(0.0, 1.0, backend=rk4)
    koebe_exact = flows.RadialFlowSpec.koebe(0.0, 1.0)
    slit = flows.ChordalFlowSpec.basic_slit(0.0, 1.0, backend=rk4)
    slit_exact = flows.ChordalFlowSpec.basic_slit(0.0, 1.0)
    multi = flows.RadialFlowSpec(0.0, 1.0, _MULTI_ATOM_SEGMENTS, backend=rk4)
    rule = expansions.gauss_legendre(64, 0.0, 1.0)
    multi_rule = expansions.flow_rule(multi, nodes_per_segment=16)
    disk = sampling.disk_pairs(1, seed, rmax=sampling.DISK_RMAX_SAFE)
    multi_pairs = sampling.disk_pairs(1, seed + 1, rmax=sampling.DISK_RMAX_SAFE)
    half = sampling.halfplane_pairs(1, seed, rect=sampling.HALFPLANE_RECT_SAFE)
    z_trace = disk[0][0]
    disk_points = [z for pair in disk for z in pair]
    half_points = [z for pair in half for z in pair]

    def endpoint_error(spec, exact, end, points, transition):
        return max(abs(transition(spec, end, z) - transition(exact, end, z)) for z in points)

    def koebe_step():
        return [("resolution_koebe", expansions.resolution_check(koebe, rule, disk).passed)]

    def chordal_step():
        return [("chordal_exp_kernel", expansions.chordal_exp_kernel_check(slit, rule, half).passed)]

    def multi_atom_step():
        return [("resolution_multi_atom", expansions.resolution_check(multi, multi_rule, multi_pairs).passed)]

    def endpoints_and_trace_step():
        checks = [
            ("radial_endpoints", endpoint_error(koebe, koebe_exact, 1.0, disk_points, flows.radial_transition) <= ENDPOINT_TOL),
            ("chordal_endpoints", endpoint_error(slit, slit_exact, 1.0, half_points, flows.chordal_transition) <= ENDPOINT_TOL),
        ]
        trace = flows.flow_trace(koebe, z_trace, TRACE_SAMPLES)
        last_t, last_b = trace[-1]
        exact = flows.radial_transition(koebe_exact, 1.0, z_trace)
        checks.append(("trace", len(trace) == TRACE_SAMPLES and last_t == 1.0 and abs(last_b - exact) <= ENDPOINT_TOL))
        return checks

    items = (
        2 * len(disk) * (len(rule.nodes) + 1)
        + 2 * len(half) * (len(rule.nodes) + 1)
        + 2 * len(multi_pairs) * (len(multi_rule.nodes) + 1)
        + len(disk_points)
        + len(half_points)
        + TRACE_SAMPLES
    )
    cli_args = ("trace", "--flow", "koebe", "--backend", rk4, "--z-re", repr(z_trace.real), "--z-im", repr(z_trace.imag), "--n", str(TRACE_SAMPLES))
    steps = (koebe_step, chordal_step, multi_atom_step, endpoints_and_trace_step)
    return Workload(items, steps, cli_args)


def membership_large(seed: int) -> Workload:
    """The three membership probes of the suite on nested sets up to a
    512-point cloud.  An item is one Gram entry: the sum of n^2 over the
    levels of every probe.  An iteration takes seconds at the seed commit,
    so a run has too few for a tail and settles for three.  Each probe is
    one step."""
    koebe = flows.RadialFlowSpec.koebe(0.0, 1.0)
    slit = flows.ChordalFlowSpec.basic_slit(0.0, 1.0)
    disk_sets = sampling.membership_disk_sets(MEMBERSHIP_SIZES, seed)
    half_sets = sampling.membership_halfplane_sets(MEMBERSHIP_SIZES, seed)

    def b_end(z):
        return flows.radial_transition(koebe, 1.0, z)

    def slit_end(z):
        return flows.chordal_transition(slit, 1.0, z)

    def log_element(z):
        return cmath.log((1.0 - b_end(z)) / (1.0 - z))

    def reciprocal_pole(z):
        return 1.0 / (1.0 - z)

    def slit_exp_element(z):
        return cmath.exp(z - slit_end(z))

    probes = (
        ("koebe-log-element", kernels.DbrDiskKernel(b_end), log_element, disk_sets, kernels.BOUNDED),
        ("reciprocal-pole", kernels.DbrDiskKernel(b_end), reciprocal_pole, disk_sets, kernels.UNBOUNDED),
        ("exp-slit-element", kernels.PickSpaceKernel(slit_end), slit_exp_element, half_sets, kernels.BOUNDED),
    )

    def probe_step(name, kernel, func, sets, expected):
        def step():
            return [(name, kernels.membership_test(kernel, func, sets, MEMBERSHIP_EPS).verdict == expected)]

        return step

    items = sum(len(s) ** 2 for _, _, _, sets, _ in probes for s in sets)
    steps = tuple(probe_step(*probe) for probe in probes)
    return Workload(items, steps, ("run", "--suite", "membership", "--seed", str(seed)), min_iterations=3)


WORKLOADS = {"suite-all": suite_all, "rk4-flow": rk4_flow, "membership-large": membership_large}
