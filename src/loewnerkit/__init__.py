"""Numerical verification toolkit for Loewner-flow kernel identities in
de Branges-Rovnyak and Pick spaces."""

from .errors import (
    BranchCutError,
    ConfigError,
    DomainError,
    FlowEscapeError,
    LoewnerkitError,
    NumericsError,
)
from .expansions import (
    IdentityReport,
    QuadratureRule,
    cayley_isometry_check,
    chordal_derivative_identity_check,
    chordal_exp_element,
    chordal_exp_element_check,
    chordal_exp_kernel_check,
    dbr_element,
    flow_rule,
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
    driver_herglotz,
    driver_pick,
    flow_trace,
    iter_flow_trace,
    koebe_eval,
    radial_transition,
    sqrt_halfplane,
)
from .kernels import (
    BOUNDED,
    INCONCLUSIVE,
    UNBOUNDED,
    DbrDiskKernel,
    HerglotzSpaceKernel,
    MembershipReport,
    PaleyWienerKernel,
    PickSpaceKernel,
    gram,
    membership_test,
    psd_check,
)
from .moebius import cayley_to_disk, cayley_to_halfplane, in_disk, in_halfplane
from .representations import (
    DIRAC_MINUS_ONE,
    AtomicMeasure,
    PickRepresentation,
    herglotz_eval,
    pick_atom,
    pick_eval,
)

__version__ = "0.1.0"
