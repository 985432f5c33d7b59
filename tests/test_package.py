"""The package's public names, which load lazily, and the ``kaonlab.cli``
attributes that code outside the package reads and replaces."""

import importlib
import subprocess
import sys
import textwrap

import pytest

import kaonlab

# Every name ``import kaonlab`` exported when the package imported its
# modules eagerly, with the module it was imported from then.
EXPORTED_FROM = {
    **dict.fromkeys(("ComplexEnergy", "DecayModel", "InterferenceWeights", "KaonParams",
                     "QuasiSpinor", "SuperpositionState", "interference_weights"), "core"),
    **dict.fromkeys(("cdf", "cronin_fitch_intensity", "cronin_fitch_state",
                     "negativity_report", "pdf", "survival_standard",
                     "weight_ratio_signature"), "single_models"),
    **dict.fromkeys(("BipartiteState", "Family", "family_discriminator", "joint_pdf_11",
                     "joint_survival_11"), "entangled"),
    **dict.fromkeys(("BinnedCounts", "DetectorConfig", "EventTable", "RunSeed", "detect",
                     "sample_decay_times", "sample_joint"), "sampler"),
    **dict.fromkeys(("EpsilonExtraction", "FitResult", "PowerReport", "WeightRatioEstimate",
                     "discrimination_power", "extract_epsilon", "find_min_events_for_power",
                     "fit_intensity", "weight_ratio_estimate"), "inference"),
    **dict.fromkeys(("EnergySpectrum", "MeasurementSchedule", "ZenoOutcome",
                     "lorentzian_spectrum", "survival_from_spectrum", "zeno_outcome_analytic",
                     "zeno_sequence"), "spectral_zeno"),
}


@pytest.mark.parametrize("name", sorted(EXPORTED_FROM))
def test_exported_name_is_the_defining_modules_object(name):
    assert name in kaonlab.__all__
    value = getattr(kaonlab, name)
    defining = importlib.import_module(value.__module__)
    assert value is getattr(defining, name)
    assert value is getattr(importlib.import_module(f"kaonlab.{EXPORTED_FROM[name]}"), name)


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from kaonlab import *", namespace)
    assert set(EXPORTED_FROM) <= set(namespace)
    assert kaonlab.__version__ == "0.1.0"
    assert set(kaonlab.__all__) <= set(dir(kaonlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        kaonlab.no_such_name


def test_run_configuration_moved_to_config():
    from kaonlab import config, sampler

    for name in ("RunSeed", "DetectorConfig", "output_stream"):
        assert getattr(sampler, name) is getattr(config, name)
    assert kaonlab.RunSeed.__module__ == "kaonlab.config"


def test_modules_read_as_package_attributes():
    """``kaonlab.sampler`` and the rest work after a bare ``import kaonlab``,
    as they did when the package imported its modules eagerly."""
    script = textwrap.dedent("""
        import importlib, kaonlab
        assert kaonlab.sampler is importlib.import_module("kaonlab.sampler")
        assert kaonlab.inference.extract_epsilon is kaonlab.extract_epsilon
        assert kaonlab.spectral_zeno.zeno_sequence is kaonlab.zeno_sequence
        assert kaonlab.textfmt is importlib.import_module("kaonlab.textfmt")
        assert not hasattr(kaonlab, "no_such_module")
        assert not hasattr(kaonlab, "__main__")  # reading it must not run the CLI
        print("ok")
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_replaced_cli_layer_functions_are_the_ones_called(tmp_path):
    """A function set on ``kaonlab.cli`` before the first command, read
    first (as a tracer wraps it) or not, is what the commands call."""
    events, binned = tmp_path / "e.csv", tmp_path / "b.csv"
    script = textwrap.dedent(f"""
        import kaonlab.cli as cli
        from kaonlab.spectral_zeno import survival_from_spectrum

        calls = []
        fit_intensity = cli.fit_intensity

        def traced_fit(*args, **kwargs):
            calls.append("fit")
            return fit_intensity(*args, **kwargs)

        def traced_survival(*args, **kwargs):
            calls.append("survival")
            return survival_from_spectrum(*args, **kwargs)

        cli.fit_intensity = traced_fit
        cli.survival_from_spectrum = traced_survival
        for argv in (["simulate", "--model", "twfo", "--n", "20000", "--seed", "3",
                      "--out", {str(events)!r}],
                     ["detect", "--events", {str(events)!r}, "--t-max", "1e-9",
                      "--bins", "20", "--out", {str(binned)!r}],
                     ["fit", "--model", "twfo", "--data", {str(binned)!r},
                      "--out", {str(tmp_path / "fit.txt")!r}],
                     ["spectrum", "--width", "1.12e10", "--survival", "--bins", "5",
                      "--out", {str(tmp_path / "s.csv")!r}]):
            assert cli.main(argv) == 0, argv
        assert cli.fit_intensity is traced_fit
        assert cli.survival_from_spectrum is traced_survival
        print(calls)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['fit', 'survival']\n", "")
