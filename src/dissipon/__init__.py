"""Minimal-coupling quantum dissipation: kernels, rates, decay and the bath field."""

__version__ = "0.1.0"

from .errors import (ConfigError, DissiponError, DomainError, NonMarkovianError,
                     PerturbationTheoryError, QuadratureError, RegimeError,
                     StabilityError)
from .field import (FieldGrid, evolve_field_with_source, field_from_modes,
                    hamiltonian_identity_check, lattice_memory_kernel)
from .langevin import (PotentialSpec, Trajectory, evolve_mean_markov,
                       evolve_mean_volterra)
from .oscillator import (FockTriple, OscillatorParams, asymptotic_reservoir_energy,
                         asymptotic_system_energy, damped_frequency,
                         lorentzian_moments, mean_trajectory, thermal_steady_energy)
from .quadrature import QuadratureConfig
from .rates import (RatePair, RateRequest, finite_time_emission_probability,
                    rate_emission_vacuum, rates_fock, rates_thermal)
from .reservoir import (CouplingFunction, MemoryKernel, ReservoirState,
                        friction_coefficient)
from .tls import (BlochState, TwoLevelParams, coherence_evolution,
                  coherence_frequencies, decay_rate_mu, evolve_bloch_markov,
                  level_shifts, sigma_z_evolution)
