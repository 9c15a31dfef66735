"""Command-line suite runner, configuration loader, and report/trace emitter.

Exit codes: 0 all checks passed, 2 configuration/schema error or output
that cannot be written, 3 numerical failure (a failed check, flow escape, or
solver breakdown; diagnostics are still written to the report).  Reports are JSON with every float serialized
at 17 significant digits; identical (config, seed) pairs produce identical
reports apart from the wall-clock field.
"""

import argparse
import cmath
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, FlowEscapeError, LoewnerkitError
from .expansions import (
    IdentityReport,
    cayley_isometry_check,
    chordal_derivative_identity_check,
    chordal_exp_element,
    chordal_exp_element_check,
    chordal_exp_kernel_check,
    gauss_legendre,
    herglotz_mixture_check,
    koebe_log_element,
    koebe_log_element_check,
    loewner_time_kernel,
    nevanlinna_split_check,
    paley_wiener_reconstruction_check,
    pick_constant_element,
    radial_derivative_identity_check,
    resolution_check,
)
from .flows import (
    CLOSED_FORM,
    RUNGE_KUTTA,
    ChordalFlowSpec,
    OdeConfig,
    RadialFlowSpec,
    chordal_transition,
    iter_flow_trace,
    radial_transition,
)
from .kernels import (
    BOUNDED,
    UNBOUNDED,
    DbrDiskKernel,
    HerglotzSpaceKernel,
    PaleyWienerKernel,
    PickSpaceKernel,
    gram,
    membership_test,
    psd_check,
)
from .moebius import cayley_to_disk, cayley_to_halfplane
from .representations import AtomicMeasure, PickRepresentation, pick_eval
from .sampling import (
    DISK_RMAX_SAFE,
    HALFPLANE_RECT_SAFE,
    disk_pairs,
    disk_points,
    halfplane_pairs,
    halfplane_points,
    membership_disk_sets,
    membership_halfplane_sets,
    point_pairs,
    rect_points,
)

SCHEMA_VERSION = 1

MAX_NODES = 1024
MAX_TRACE_SAMPLES = 10**6
MEMBERSHIP_SIZES = (16, 32, 64, 128)
MEMBERSHIP_EPS = 1e-8
PSD_POINTS, PSD_SEEDS = 8, 5  # points per Gram and seeds per kernel of the kernel-psd suite
# Finite-difference step of the derivative suites.
DERIVATIVE_STEP = 1e-4
# The keys of a config file; the run flags of the same names override them.
CONFIG_KEYS = frozenset({"schema", "suite", "seed", "a", "b", "nodes", "tol", "herglotz_atoms", "pick_rep", "corrupt_psd"})


@dataclasses.dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 1
    a: float = 0.0
    b: float = 1.0
    nodes: int = 64
    tols: dict = None
    herglotz_atoms: AtomicMeasure = None
    pick_rep: PickRepresentation = None
    corrupt_psd: bool = False

    def tol_for(self, suite: str) -> float:
        if self.tols and suite in self.tols:
            return float(self.tols[suite])
        return SUITE_TABLE[suite][1]

    def echo(self) -> dict:
        out = {key: getattr(self, key) for key in ("suite", "seed", "a", "b", "nodes")}
        if self.tols:
            out["tol"] = {k: self.tols[k] for k in sorted(self.tols)}
        if self.herglotz_atoms is not None:
            out["herglotz_atoms"] = [[xi.real, xi.imag, w] for xi, w in self.herglotz_atoms.atoms]
        if self.pick_rep is not None:
            rep = self.pick_rep
            out["pick_rep"] = {"b": rep.b, "c": rep.c, "atoms": [[t.real, w] for t, w in rep.mu.atoms]}
        if self.corrupt_psd:
            out["corrupt_psd"] = True
        return out


def _fail(msg: str):
    raise ConfigError(msg)


def _check_number(value, name, minimum=None):
    # abs(value) <= max float compares an int exactly, so it also rejects
    # ints too large to convert, where math.isfinite would overflow.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        _fail(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(f"{name} must be >= {minimum}, got {value}")
    return float(value)


def validate_config(raw: dict) -> SuiteConfig:
    """Schema-check a raw config mapping and fill in defaults."""
    if not isinstance(raw, dict):
        _fail("config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        _fail(f"unknown config keys: {sorted(unknown)}")
    if "schema" in raw and raw["schema"] != SCHEMA_VERSION:
        _fail(f"unsupported schema version {raw['schema']!r}")

    suite = raw.get("suite")
    if suite not in SUITES and suite != "all":
        _fail(f"suite must be one of {SUITES + ('all',)}, got {suite!r}")

    seed = raw.get("seed", 1)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        _fail(f"seed must be a nonnegative integer, got {seed!r}")

    a = _check_number(raw.get("a", 0.0), "a", minimum=0.0)
    b = _check_number(raw.get("b", 1.0), "b", minimum=a)

    nodes = raw.get("nodes", 64)
    if isinstance(nodes, bool) or not isinstance(nodes, int) or not 1 <= nodes <= MAX_NODES:
        _fail(f"nodes must be an integer in [1, {MAX_NODES}], got {nodes!r}")

    tols = None
    if "tol" in raw:
        tol = raw["tol"]
        if isinstance(tol, (int, float)) and not isinstance(tol, bool):
            value = _check_number(tol, "tol", minimum=0.0)
            tols = {name: value for name in SUITES if SUITE_TABLE[name][1] is not None}
        elif isinstance(tol, dict):
            tols = {}
            for key, value in tol.items():
                if key not in SUITES:
                    _fail(f"tol override names unknown suite {key!r}")
                if SUITE_TABLE[key][1] is None:
                    _fail(f"suite {key} takes no tolerance")
                tols[key] = _check_number(value, f"tol[{key}]", minimum=0.0)
        else:
            _fail("tol must be a number or an object of per-suite numbers")

    herglotz_atoms = None
    if "herglotz_atoms" in raw:
        atoms = raw["herglotz_atoms"]
        if not isinstance(atoms, list) or not atoms:
            _fail("herglotz_atoms must be a nonempty list of [re, im, weight] triples")
        parsed = []
        for atom in atoms:
            if not isinstance(atom, list) or len(atom) != 3:
                _fail(f"herglotz atom {atom!r} must be a [re, im, weight] triple")
            re, im, w = (_check_number(v, "herglotz atom entry") for v in atom)
            parsed.append((complex(re, im), w))
        try:
            herglotz_atoms = AtomicMeasure(tuple(parsed))
        except ValueError as exc:
            _fail(f"herglotz_atoms: {exc}")
        if not (herglotz_atoms.on_unit_circle() and herglotz_atoms.is_probability()):
            _fail("herglotz_atoms must form a probability measure on the unit circle")

    pick_rep = None
    if "pick_rep" in raw:
        rep = raw["pick_rep"]
        if not isinstance(rep, dict) or set(rep) != {"b", "c", "atoms"}:
            _fail("pick_rep must be an object with keys b, c, atoms")
        rep_b = _check_number(rep["b"], "pick_rep.b")
        rep_c = _check_number(rep["c"], "pick_rep.c", minimum=0.0)
        if not isinstance(rep["atoms"], list):
            _fail("pick_rep.atoms must be a list of [t, weight] pairs")
        rep_atoms = []
        for atom in rep["atoms"]:
            if not isinstance(atom, list) or len(atom) != 2:
                _fail(f"pick_rep atom {atom!r} must be a [t, weight] pair")
            rep_atoms.append(tuple(_check_number(v, "pick_rep atom entry") for v in atom))
        try:
            pick_rep = PickRepresentation(rep_b, rep_c, AtomicMeasure(tuple(rep_atoms)))
        except (ValueError, OverflowError) as exc:  # OverflowError: an atom t with t**2 beyond max float
            _fail(f"pick_rep: {exc}")

    corrupt = raw.get("corrupt_psd", False)
    if not isinstance(corrupt, bool):
        _fail("corrupt_psd must be a boolean")

    return SuiteConfig(suite, seed, a, b, nodes, tols, herglotz_atoms, pick_rep, corrupt)


# --- suite runners -----------------------------------------------------
# Each runner takes the config and its suite's tolerance and returns its
# results in entry order: IdentityReports, or finished entry dicts without
# the "suite" key.  `run` adds the suite name to every entry.

def _identity_entry(report: IdentityReport) -> dict:
    return {
        "kind": "identity",
        "name": report.identity_name,
        "sample_pairs": report.sample_pairs,
        "max_abs_err": report.max_abs_err,
        "tol": report.tol,
        "pass": report.passed,
    }


def _probe(name: str, kernel, element, sets, expected: str) -> dict:
    """The membership entry of ``element`` in the space of ``kernel``."""
    report = membership_test(kernel, element, sets, MEMBERSHIP_EPS)
    entry = {
        "kind": "membership",
        "name": name,
        "point_counts": list(report.point_counts),
        "estimates": list(report.estimates),
        "eps": report.eps,
        "min_pivot": report.min_pivot,
        "verdict": report.verdict,
        "expected": expected,
        "pass": report.verdict == expected,
    }
    if report.norm_bound is not None:
        entry["norm_bound"] = report.norm_bound
    return entry


def _koebe(cfg: SuiteConfig) -> RadialFlowSpec:
    return RadialFlowSpec.koebe(cfg.a, cfg.b)


def _slit(cfg: SuiteConfig) -> ChordalFlowSpec:
    return ChordalFlowSpec.basic_slit(cfg.a, cfg.b)


def _rule(cfg: SuiteConfig):
    return gauss_legendre(cfg.nodes, cfg.a, cfg.b)


def pick_phi(w):
    return w - 1.0 / w


def pick_psi(z):
    return cayley_to_disk(pick_phi(cayley_to_halfplane(z)))


def kernel_catalog(a: float, b: float):
    """The kernel-psd catalog for the flow interval [a, b]: rows of (name,
    kernel, sampler), where sampler(seed) draws the kernel's PSD_POINTS points."""
    flow = RadialFlowSpec.koebe(a, b)
    disk = functools.partial(disk_points, PSD_POINTS)
    return (
        ("dbr-koebe", DbrDiskKernel(functools.partial(radial_transition, flow, flow.end)), disk),
        ("herglotz-phi-minus-one", HerglotzSpaceKernel(lambda z: (1.0 - z) / (1.0 + z)), disk),
        ("pick-cayley-image", PickSpaceKernel(pick_phi), functools.partial(halfplane_points, PSD_POINTS)),
        ("paley-wiener", PaleyWienerKernel(1.0), lambda seed: rect_points(PSD_POINTS, seed, (-1.0, 1.0, -0.35, 0.35))),
        # 0.5 * (a + b) would overflow for a and b near the largest float.
        ("loewner-time", loewner_time_kernel(flow, 0.5 * a + 0.5 * b), disk),
    )


def _suite_kernel_psd(cfg: SuiteConfig, tol: float):
    entries = []
    for name, spec, sample in kernel_catalog(cfg.a, cfg.b):
        worst = math.inf
        passed = True
        for offset in range(PSD_SEEDS):
            matrix = gram(spec, sample(cfg.seed + offset))
            if cfg.corrupt_psd:
                matrix[0, 0] = -matrix[0, 0]  # test hook: negate one entry
            min_eig, ok = psd_check(matrix, tol)
            worst = min(worst, min_eig)
            passed = passed and ok
        name += "-corrupted" if cfg.corrupt_psd else ""
        entries.append({"kind": "psd", "name": name, "size": PSD_POINTS, "seeds": PSD_SEEDS, "min_eigenvalue": worst, "tol": tol, "pass": passed})
    return entries


def _suite_resolution(cfg: SuiteConfig, tol: float):
    return [resolution_check(_koebe(cfg), _rule(cfg), disk_pairs(10, cfg.seed, rmax=DISK_RMAX_SAFE), tol)]


def _derivative_times(cfg: SuiteConfig, n: int):
    """n times spread evenly over [a + h, b - h], h = DERIVATIVE_STEP: the
    i-th at the middle of the i-th of n equal cells."""
    h = DERIVATIVE_STEP
    span = max(cfg.b - cfg.a - 2.0 * h, 0.0)
    return cfg.a + h + span * (np.arange(n) + 0.5) / n


def _suite_radial_derivative(cfg: SuiteConfig, tol: float):
    lam, z = np.transpose(disk_pairs(20, cfg.seed, rmax=DISK_RMAX_SAFE))
    return [radial_derivative_identity_check(_koebe(cfg), _derivative_times(cfg, len(z)), lam, z, DERIVATIVE_STEP, tol)]


def _suite_chordal_derivative(cfg: SuiteConfig, tol: float):
    alpha, z = np.transpose(halfplane_pairs(20, cfg.seed, rect=HALFPLANE_RECT_SAFE))
    return [chordal_derivative_identity_check(_slit(cfg), _derivative_times(cfg, len(z)), alpha, z, DERIVATIVE_STEP, tol)]


def _suite_koebe_log(cfg: SuiteConfig, tol: float):
    return [koebe_log_element_check(_koebe(cfg), _rule(cfg), disk_points(20, cfg.seed, rmax=DISK_RMAX_SAFE), tol)]


def _suite_cayley_isometry(cfg: SuiteConfig, tol: float):
    pairs = disk_pairs(10, cfg.seed, rmax=DISK_RMAX_SAFE)
    return [cayley_isometry_check(pick_psi, pairs, disk_points(6, cfg.seed + 100, rmax=DISK_RMAX_SAFE), tol)]


def _suite_nevanlinna_split(cfg: SuiteConfig, tol: float):
    rep = cfg.pick_rep or PickRepresentation(1.0, 2.0, AtomicMeasure.dirac(1.0, math.pi))
    return [nevanlinna_split_check(rep, halfplane_pairs(10, cfg.seed), tol)]


def _suite_herglotz_mixture(cfg: SuiteConfig, tol: float):
    mu = cfg.herglotz_atoms or AtomicMeasure(((1.0, 0.5), (-1.0, 0.3), (cmath.exp(0.7j), 0.2)))
    return [herglotz_mixture_check(mu, disk_pairs(10, cfg.seed), tol)]


def _suite_chordal_exp_kernel(cfg: SuiteConfig, tol: float):
    pairs = halfplane_pairs(10, cfg.seed, rect=HALFPLANE_RECT_SAFE)
    report = chordal_exp_kernel_check(_slit(cfg), _rule(cfg), pairs, tol)
    # Hand-checked anchor: alpha = z = i on [0, 1] gives sqrt(3) on both sides.
    anchor_flow, anchor_rule = ChordalFlowSpec.basic_slit(0.0, 1.0), gauss_legendre(cfg.nodes, 0.0, 1.0)
    anchor = chordal_exp_kernel_check(anchor_flow, anchor_rule, [(1j, 1j)], 1e-10)
    return [report, dataclasses.replace(anchor, identity_name="chordal-exp-kernel-anchor")]


def _suite_chordal_exp_element(cfg: SuiteConfig, tol: float):
    flow = _slit(cfg)
    pts = halfplane_points(20, cfg.seed, rect=HALFPLANE_RECT_SAFE)
    kernel = PickSpaceKernel(functools.partial(chordal_transition, flow, flow.end))
    sets = membership_halfplane_sets(MEMBERSHIP_SIZES, cfg.seed)
    return [
        chordal_exp_element_check(flow, _rule(cfg), pts, tol),
        _probe("exp-slit-element", kernel, chordal_exp_element(flow), sets, BOUNDED),
    ]


def _suite_membership(cfg: SuiteConfig, tol: None):
    flow = _koebe(cfg)
    sets = membership_disk_sets(MEMBERSHIP_SIZES, cfg.seed)
    dbr = DbrDiskKernel(functools.partial(radial_transition, flow, flow.end))
    entries = [
        _probe("koebe-log-element", dbr, koebe_log_element(flow), sets, BOUNDED),
        _probe("reciprocal-pole", dbr, lambda z: 1.0 / (1.0 - z), sets, UNBOUNDED),
    ]
    rep = cfg.pick_rep or PickRepresentation(0.0, 1.0, AtomicMeasure.dirac(0.0, math.pi))
    if rep.c == 0.0:
        error = "pick_rep.c must be nonzero for the constant element"
        return entries + [{"kind": "error", "name": "pick-constant-element", "error": error, "pass": False}]

    def psi_of_rep(z):
        return cayley_to_disk(pick_eval(rep, cayley_to_halfplane(z)))

    element = pick_constant_element(psi_of_rep, rep)
    return entries + [_probe("pick-constant-element", DbrDiskKernel(psi_of_rep), element, sets, BOUNDED)]


def _suite_pw_reconstruction(cfg: SuiteConfig, tol: float):
    bandwidth = 1.0
    pairs = point_pairs(rect_points(38, cfg.seed, (-1.0, 1.0, -0.3, 0.3)))
    pairs.append((0.37, 0.37))  # removable-singularity diagonal
    return [paley_wiener_reconstruction_check(bandwidth, gauss_legendre(cfg.nodes, -bandwidth, bandwidth), pairs, tol)]


# Suite name -> (runner, default tolerance, or None for a suite that reads none).
SUITE_TABLE = {
    "cayley-isometry": (_suite_cayley_isometry, 1e-10),
    "chordal-derivative": (_suite_chordal_derivative, 1e-5),
    "chordal-exp-element": (_suite_chordal_exp_element, 1e-8),
    "chordal-exp-kernel": (_suite_chordal_exp_kernel, 1e-8),
    "herglotz-mixture": (_suite_herglotz_mixture, 1e-12),
    "kernel-psd": (_suite_kernel_psd, 1e-8),
    "koebe-log": (_suite_koebe_log, 1e-8),
    "membership": (_suite_membership, None),
    "nevanlinna-split": (_suite_nevanlinna_split, 1e-12),
    "pw-reconstruction": (_suite_pw_reconstruction, 1e-10),
    "radial-derivative": (_suite_radial_derivative, 1e-5),
    "resolution": (_suite_resolution, 1e-8),
}
# A tuple, so that an unhashable config value such as a list tests as not
# a member instead of raising TypeError.
SUITES = tuple(SUITE_TABLE)


# A non-finite value becomes an error entry, so numpy need not warn about it.
@np.errstate(all="ignore")
def run(config: SuiteConfig) -> dict:
    """Execute the configured suite(s) and return the report as a dict."""
    start = time.perf_counter()
    names = list(SUITES) if config.suite == "all" else [config.suite]
    entries = []
    for name in sorted(names):
        try:
            results = SUITE_TABLE[name][0](config, config.tol_for(name))
            suite_entries = [
                {"suite": name, **(_identity_entry(r) if isinstance(r, IdentityReport) else r)} for r in results
            ]
            for entry in suite_entries:
                for key, value in entry.items():
                    values = value if isinstance(value, list) else [value]
                    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                        raise ValueError(f"non-finite {key} in entry {entry['name']}")
            entries.extend(suite_entries)
        # The library raises ValueError for inputs it cannot evaluate, such
        # as a == b, which leaves no room for a finite-difference step.
        except (LoewnerkitError, ValueError) as exc:
            entries.append({"suite": name, "kind": "error", "name": name, "error": str(exc), "pass": False})
    overall = all(entry["pass"] for entry in entries)
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config.echo(),
        "entries": entries,
        "overall_pass": overall,
        "wall_clock_ms": int((time.perf_counter() - start) * 1000.0),
    }


# --- serialization -----------------------------------------------------

def dumps_report(obj) -> str:
    """JSON with floats at 17 significant digits (round-trip exact)."""
    pieces = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out):
    if obj is None or isinstance(obj, (bool, str)):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj}")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# --- commands and entry point ------------------------------------------
# Each command checks its arguments and returns write(out), which writes the
# report or trace and returns 0 or 3; main owns the output and exit code 2.

def _run_command(args):
    raw = {}
    if args.config:
        try:
            with open(args.config) as handle:
                raw = json.load(handle)
        # ValueError also covers undecodable bytes and integers with more
        # digits than int() converts, which are not JSONDecodeError;
        # RecursionError covers nesting deeper than the parser follows.
        except (OSError, ValueError, RecursionError) as exc:
            _fail(f"cannot read config: {exc}")
    if isinstance(raw, dict):  # validate_config rejects anything else
        raw.update((key, value) for key, value in vars(args).items() if key in CONFIG_KEYS and value is not None)
    config = validate_config(raw)

    def write(out) -> int:
        report = run(config)
        print(dumps_report(report), file=out)
        return 0 if report["overall_pass"] else 3

    return write


def _trace_command(args):
    z = complex(args.z_re, args.z_im)
    if args.step is not None and args.backend != RUNGE_KUTTA:
        raise ConfigError("--step applies to --backend rk4 only")
    ode = OdeConfig(args.step) if args.step is not None else OdeConfig()
    build = {"koebe": RadialFlowSpec.koebe, "slit": ChordalFlowSpec.basic_slit}[args.flow]
    flow = build(args.a, args.b, backend=args.backend, ode=ode)
    if not 2 <= args.n <= MAX_TRACE_SAMPLES:
        raise ConfigError(f"n must be in [2, {MAX_TRACE_SAMPLES}], got {args.n}")
    samples = iter_flow_trace(flow, z, args.n)

    def write(out) -> int:
        print("t,re,im", file=out)
        try:
            for t, value in samples:
                print(f"{format(t, '.17g')},{format(value.real, '.17g')},{format(value.imag, '.17g')}", file=out)
        except FlowEscapeError as exc:
            print(f"error,{str(exc).replace(',', ';')}", file=out)
            return 3
        return 0

    return write


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loewnerkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a verification suite and emit a JSON report")
    runp.add_argument("--suite", choices=SUITES + ("all",), help="suite to run")
    runp.add_argument("--config", help="JSON config file; flags override its values")
    runp.add_argument("--seed", type=int, help="base seed for all sampled points")
    runp.add_argument("--a", type=float, help="flow interval start")
    runp.add_argument("--b", type=float, help="flow interval end")
    runp.add_argument("--nodes", type=int, help="Gauss-Legendre nodes per segment")
    runp.add_argument("--tol", type=float, help="tolerance override for the selected suite(s)")
    runp.add_argument("--out", help="write the JSON report here instead of stdout")
    runp.add_argument("--corrupt-psd", action="store_true", default=None, help="test hook: negate one Gram entry in kernel-psd")

    tracep = sub.add_parser("trace", help="sample a flow trajectory to CSV (header t,re,im)")
    tracep.add_argument("--flow", choices=("koebe", "slit"), required=True)
    tracep.add_argument("--a", type=float, default=0.0, help="interval start")
    tracep.add_argument("--b", type=float, default=1.0, help="interval end")
    tracep.add_argument("--z-re", type=float, required=True, help="Re of the traced point")
    tracep.add_argument("--z-im", type=float, default=0.0, help="Im of the traced point")
    tracep.add_argument("--n", type=int, default=11, help=f"number of samples, 2 to {MAX_TRACE_SAMPLES}")
    tracep.add_argument("--backend", choices=(CLOSED_FORM, RUNGE_KUTTA), default=CLOSED_FORM)
    tracep.add_argument("--step", type=float, help="RK4 step override")
    tracep.add_argument("--out", help="write CSV here instead of stdout")
    return parser


# A non-finite value becomes an error entry or row, so numpy need not warn about it.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = None
    try:
        write = (_run_command if args.command == "run" else _trace_command)(args)
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            code = write(out)
            out.flush()
        return code
    except (OSError, ValueError, LoewnerkitError) as exc:
        if isinstance(exc, OSError) and out is not None:  # opened, then writing failed
            if out is sys.stdout:
                # The flush at exit would fail again and print "Exception ignored": point
                # stdout at the null device, if it has a descriptor (pytest's capture has none).
                with contextlib.suppress(io.UnsupportedOperation), open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), out.fileno())
            exc = f"cannot write {args.out or 'stdout'}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
