"""liestab: structure-constant Lie algebras, word-series dynamics, stability certificates."""

from .algebra import (LieAlgebra, Subspace, IdealChain, DimensionMismatch,
                      AlgebraLoadError, InvalidAlgebra, subspace_bracket,
                      derived_series, lower_central_series, derived_algebra,
                      is_solvable, is_nilpotent, bracket_constant,
                      algebra_from_dict, algebra_to_dict, load_algebra,
                      heisenberg, upper_triangular6, abelian, sl2, nilpotent_upper, catalog_algebras)
from .quotient import (QuotientContext, induced_map, quotient_algebra,
                       InvarianceViolation, AdaptedNorm, adapted_norm,
                       ChainProjections, bracket_word, central_word_residual,
                       layered_word_residual, collapse_identity_residual, is_ideal)
from .dynamics import (Word, Term, AdjointFamily, ExoSignal, Trajectory,
                       WordSeriesSystem, SystemSpecError, CutoffTooSmall,
                       parse_letter, format_letter)
from .stability import (NilpotentCertificate, DeadbeatCertificate, EnvelopeFit,
                        SolvableReport, HypothesisError, CertificateRejected,
                        certify_nilpotent, certify_solvable, deadbeat_horizon,
                        deadbeat_verified, deadbeat_envelope, fit_envelope,
                        forcing_gain, forcing_norms, spectral_radius,
                        roottest_radius, limsup_root_of_masses,
                        power_envelope_constant, probe_amplitude)
from .sampling import (expm, logm, GroupElement, PrincipalLogUndefined,
                       step_invariant, bch_compose, bch_coefficient_table,
                       bch_tail_bound, BCHTruncationWarning, adjoint_flow_step,
                       heisenberg_tracking_system, tracking_state, tracking_signal,
                       tracking_group_step, tracking_bch_step)
from .scenarios import (Scenario, ScenarioError, builtin_scenario, load_scenario,
                        scenario_from_dict, ex61_system, ex61_signal,
                        heisenberg_deadbeat_system, uptri_deadbeat_system,
                        ideal_valued_samples, write_trajectory_csv,
                        write_trajectory_json)

__version__ = "0.1.0"
