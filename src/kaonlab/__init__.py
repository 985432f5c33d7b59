"""kaonlab: decay-time statistics of neutral kaons under rival decay laws.

The package implements three readings of what the modulus squared of a
decaying two-mode wave function means (standard survival probability,
hybrid intensity, temporal-wave-function pdf), the joint distributions of
entangled kaon pairs where the readings agree and where they split, and
the Monte Carlo / inference machinery to tell them apart at desk scale.
"""

from .core import (ComplexEnergy, DecayModel, InterferenceWeights, KaonParams,
                   QuasiSpinor, SuperpositionState, interference_weights)
from .single_models import (cdf, cronin_fitch_intensity, cronin_fitch_state,
                            negativity_report, pdf, survival_standard,
                            weight_ratio_signature)
from .entangled import (BipartiteState, Family, family_discriminator,
                        joint_pdf_11, joint_survival_11)
from .sampler import (BinnedCounts, DetectorConfig, EventTable, RunSeed,
                      detect, sample_decay_times, sample_joint)
from .inference import (EpsilonExtraction, FitResult, PowerReport,
                        WeightRatioEstimate, discrimination_power,
                        extract_epsilon, find_min_events_for_power,
                        fit_intensity, weight_ratio_estimate)
from .spectral_zeno import (EnergySpectrum, MeasurementSchedule, ZenoOutcome,
                            lorentzian_spectrum, survival_from_spectrum,
                            zeno_outcome_analytic, zeno_sequence)

__version__ = "0.1.0"
