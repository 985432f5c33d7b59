"""kaonlab: decay-time statistics of neutral kaons under rival decay laws.

The package implements three readings of what the modulus squared of a
decaying two-mode wave function means (standard survival probability,
hybrid intensity, temporal-wave-function pdf), the joint distributions of
entangled kaon pairs where the readings agree and where they split, and
the Monte Carlo / inference machinery to tell them apart at desk scale.

Importing the package loads none of its modules: each name below, and
each module read as an attribute (``kaonlab.sampler``), is imported on
first use (PEP 562), so a command pays only for the modules it runs.
"""

import importlib
import importlib.util

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("ComplexEnergy", "DecayModel", "InterferenceWeights", "KaonParams",
                     "QuasiSpinor", "SuperpositionState", "interference_weights"), "core"),
    **dict.fromkeys(("cdf", "cronin_fitch_intensity", "cronin_fitch_state",
                     "negativity_report", "pdf", "survival_standard",
                     "weight_ratio_signature"), "single_models"),
    **dict.fromkeys(("BipartiteState", "Family", "family_discriminator", "joint_pdf_11",
                     "joint_survival_11"), "entangled"),
    **dict.fromkeys(("BinnedCounts", "DetectorConfig", "RunSeed"), "config"),
    **dict.fromkeys(("EventTable", "detect", "sample_decay_times", "sample_joint"), "sampler"),
    **dict.fromkeys(("EpsilonExtraction", "FitResult", "PowerReport", "WeightRatioEstimate",
                     "discrimination_power", "extract_epsilon", "find_min_events_for_power",
                     "fit_intensity", "weight_ratio_estimate"), "inference"),
    **dict.fromkeys(("EnergySpectrum", "MeasurementSchedule", "ZenoOutcome",
                     "lorentzian_spectrum", "survival_from_spectrum",
                     "zeno_outcome_analytic", "zeno_sequence"), "spectral_zeno"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    # a submodule; importing it binds it here.  Not __main__, which runs the CLI.
    if not name.startswith("_") and importlib.util.find_spec(f"{__name__}.{name}"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
