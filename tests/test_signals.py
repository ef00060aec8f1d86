import cmath
from dataclasses import fields

import numpy as np
import pytest

from fftinterp import signals
from fftinterp.signals import SignalSpec, eval_ground_truth, generate, splitmix64, uniform_doubles
from fftinterp.transforms import dft_naive


class TestSplitmix64:
    def test_known_answer_seed_zero(self):
        # canonical first outputs of the splitmix64 recurrence
        assert splitmix64(0, 3) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_known_answer_seed_1234567(self):
        assert splitmix64(1234567, 3) == [
            0x599ED017FB08FC85,
            0x2C73F08458540FA5,
            0x883EBCE5A3F27C77,
        ]

    def test_doubles_land_in_unit_interval(self):
        draws = uniform_doubles(42, 1000)
        assert all(0.0 <= d < 1.0 for d in draws)


class TestSpecValidation:
    def test_tone_needs_one_harmonic(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="tone", length=8)
        with pytest.raises(ValueError):
            SignalSpec(kind="tone", length=8, harmonics=(1, 2))

    def test_multitone_needs_a_harmonic(self):
        with pytest.raises(ValueError, match="a multitone takes at least one harmonic"):
            SignalSpec(kind="multitone", length=8)

    def test_out_of_band_harmonic_rejected(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="tone", length=8, harmonics=(4,))
        SignalSpec(kind="tone", length=8, harmonics=(3.5,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="chirp", length=8)

    def test_amplitudes_must_parallel_harmonics(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="multitone", length=8, harmonics=(1, 2), amplitudes=(1,))

    def test_random_band_default_and_bounds(self):
        spec = SignalSpec(kind="bandlimited-random", length=16)
        assert spec.band == 7
        with pytest.raises(ValueError):
            SignalSpec(kind="bandlimited-random", length=16, band=9)

    def test_pulse_width_positive(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="gaussian-pulse", length=16, width=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "field,fields",
        [
            ("seed", dict(kind="bandlimited-random", seed=np.inf)),
            ("seed", dict(kind="bandlimited-random", seed=np.nan)),
            ("seed", dict(kind="bandlimited-random", seed=None)),
            ("seed", dict(kind="bandlimited-random", seed=2.5)),
            ("seed", dict(kind="bandlimited-random", seed=True)),
            ("seed", dict(kind="bandlimited-random", seed="3")),
            ("harmonics", dict(kind="tone", harmonics=(np.nan,))),
            ("harmonics", dict(kind="multitone", harmonics=(1, np.inf))),
            ("amplitudes", dict(kind="tone", harmonics=(1,), amplitudes=(np.inf,))),
            ("amplitudes", dict(kind="tone", harmonics=(1,), amplitudes=(complex(0, np.nan),))),
            ("center", dict(kind="gaussian-pulse", center=np.nan)),
            ("center", dict(kind="gaussian-pulse", center=-np.inf)),
            ("width", dict(kind="gaussian-pulse", width=np.inf)),
            ("width", dict(kind="gaussian-pulse", width=np.nan)),
            ("width", dict(kind="gaussian-pulse", width=1e-200)),
            ("width", dict(kind="gaussian-pulse", width=1e-154)),
            ("width", dict(kind="gaussian-pulse", width=1e200)),
        ],
    )
    def test_bad_field_is_one_value_error_naming_it(self, field, fields):
        # rejected when the spec is made, not later by generate
        with pytest.raises(ValueError, match=field):
            SignalSpec(length=8, **fields)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field,fields",
        [
            ("harmonics", dict(kind="tone", harmonics=([1.0],))),
            ("harmonics", dict(kind="multitone", harmonics=((1.0, 2.0),))),
            ("harmonics", dict(kind="tone", harmonics=1.0)),
            ("pulse center", dict(kind="gaussian-pulse", center=[1.0])),
            ("pulse width", dict(kind="gaussian-pulse", width=[1.0])),
            ("pulse width", dict(kind="gaussian-pulse", width=[[2.0]])),
            ("amplitudes", dict(kind="tone", harmonics=(1.0,), amplitudes=([1j],))),
            ("amplitudes", dict(kind="tone", harmonics=(1.0,), amplitudes=1.0)),
            ("amplitudes", dict(kind="tone", harmonics=(1.0,), amplitudes=object())),
            # each character of a str or bytes is not one amplitude
            ("amplitudes", dict(kind="multitone", harmonics=(1.0, 2.0), amplitudes="12")),
            ("amplitudes", dict(kind="tone", harmonics=(1.0,), amplitudes="1")),
            ("amplitudes", dict(kind="tone", harmonics=(1.0,), amplitudes=b"1")),
            ("band", dict(kind="bandlimited-random", band=[3])),
        ],
    )
    def test_field_of_the_wrong_shape_is_one_value_error_naming_it(self, field, fields):
        with pytest.raises(ValueError, match=f"^{field} must "):
            SignalSpec(length=8, **fields)

    @pytest.mark.parametrize("empty", [(), [], np.array([])], ids=["tuple", "list", "array"])
    def test_empty_amplitudes_mean_unset(self, empty):
        spec = SignalSpec(kind="tone", length=8, harmonics=(1.0,), amplitudes=empty)
        assert spec.amplitudes == ()
        assert spec == SignalSpec(kind="tone", length=8, harmonics=(1.0,))

    def test_pulse_defaults_resolved_on_the_spec(self):
        assert SignalSpec(kind="gaussian-pulse", length=16).center == 7.5
        assert SignalSpec(kind="gaussian-pulse", length=16).width == 2.0
        spec = SignalSpec(kind="gaussian-pulse", length=16, center=3, width=1.1e-154)
        assert (spec.center, spec.width) == (3.0, 1.1e-154)
        tone = SignalSpec(kind="tone", length=16, harmonics=(1,))
        assert tone.center is None and tone.width is None

    def test_negative_seed_is_valid(self):
        spec = SignalSpec(kind="bandlimited-random", length=16, seed=-5)
        assert spec.seed == -5
        assert splitmix64(-5, 2) == splitmix64(2**64 - 5, 2)


# One value away from the default for each field a kind may not read.
FOREIGN_VALUES = {
    "harmonics": (1,),
    "amplitudes": (0.5,),
    "center": 5,
    "width": 1.5,
    "seed": 4,
    "band": 99,
}
# The fields each kind reads besides its length.
READS = {
    "tone": ("harmonics", "amplitudes"),
    "multitone": ("harmonics", "amplitudes"),
    "bandlimited-random": ("seed", "band"),
    "gaussian-pulse": ("center", "width"),
}
# What each kind needs besides the field under test.
OWN_FIELDS = {"tone": {"harmonics": (1,)}, "multitone": {"harmonics": (1, 2)}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "kind,field,value",
    [
        (kind, field.name, FOREIGN_VALUES[field.name])
        for kind in READS
        for field in fields(SignalSpec)
        if field.name not in ("kind", "length", *READS[kind])
    ]
    # arrays too: the check never asks numpy for the truth value of an array
    + [
        ("tone", "center", np.array([1.0, 2.0])),
        ("gaussian-pulse", "band", np.array([1, 2])),
        ("bandlimited-random", "harmonics", np.array([1.0, 2.0])),
    ],
)
def test_foreign_field_is_one_value_error_naming_it(kind, field, value):
    with pytest.raises(ValueError, match=f"^{field} does not apply to kind '{kind}', got "):
        SignalSpec(kind=kind, length=8, **OWN_FIELDS.get(kind, {}), **{field: value})



class TestGenerate:
    def test_zero_harmonic_tone_is_all_ones(self):
        seq = generate(SignalSpec(kind="tone", length=6, harmonics=(0,)))
        np.testing.assert_allclose(seq.samples, np.ones(6), rtol=0, atol=1e-15)
        assert seq.sample_period == 1.0

    def test_unit_harmonic_tone_length4(self):
        seq = generate(SignalSpec(kind="tone", length=4, harmonics=(1,)))
        np.testing.assert_allclose(seq.samples, [1, 1j, -1, -1j], rtol=0, atol=1e-15)

    def test_random_signal_is_deterministic(self):
        spec = SignalSpec(kind="bandlimited-random", length=16, seed=5)
        first = generate(spec).samples
        second = generate(spec).samples
        np.testing.assert_array_equal(first, second)

    def test_random_signal_spectrum_is_bandlimited(self):
        spec = SignalSpec(kind="bandlimited-random", length=16, seed=5, band=3)
        coefficients = dft_naive(generate(spec).samples)
        in_band = {h % 16 for h in range(-3, 4)}
        for k in range(16):
            if k not in in_band:
                assert abs(coefficients[k]) <= 1e-12

    def test_gaussian_pulse_peaks_at_center(self):
        spec = SignalSpec(kind="gaussian-pulse", length=17, center=8.0, width=2.0)
        samples = generate(spec).samples.real
        assert samples[8] == pytest.approx(1.0)
        np.testing.assert_allclose(samples[:8], samples[9:][::-1], rtol=0, atol=1e-15)


class TestGroundTruth:
    def test_tone_closed_form(self):
        spec = SignalSpec(kind="tone", length=4, harmonics=(1,))
        assert eval_ground_truth(spec, 0.5) == pytest.approx(cmath.exp(1j * cmath.pi / 4))

    @pytest.mark.parametrize(
        "spec",
        [
            SignalSpec(kind="tone", length=8, harmonics=(2,), amplitudes=(0.5 - 0.5j,)),
            SignalSpec(kind="multitone", length=12, harmonics=(1, -4), amplitudes=(1, 2j)),
            SignalSpec(kind="bandlimited-random", length=16, seed=9),
            SignalSpec(kind="gaussian-pulse", length=16),
        ],
    )
    def test_agrees_with_generate_at_sample_points(self, spec):
        seq = generate(spec)
        for m in range(spec.length):
            assert eval_ground_truth(spec, float(m)) == seq.samples[m]

    def test_multitone_independent_evaluation(self):
        spec = SignalSpec(kind="multitone", length=16, harmonics=(1, 3), amplitudes=(1, 0.5))
        t = 2.25
        expected = cmath.exp(2j * cmath.pi * t / 16) + 0.5 * cmath.exp(2j * cmath.pi * 3 * t / 16)
        assert eval_ground_truth(spec, t) == pytest.approx(expected, abs=1e-15)
        assert eval_ground_truth(spec, t) == pytest.approx(
            0.1934326519894680 + 1.0087088217757358j, abs=1e-14
        )

    def test_rejects_non_finite_time(self):
        spec = SignalSpec(kind="tone", length=4, harmonics=(1,))
        with pytest.raises(ValueError):
            eval_ground_truth(spec, np.inf)


class TestRefinedGridTruth:
    @pytest.mark.parametrize(
        "spec",
        [
            SignalSpec(
                kind="multitone",
                length=10001,
                harmonics=(3333, -1428, 5, -1),
                amplitudes=(0.5, 0.25 - 0.1j, 0.2j, 1),
            ),
            SignalSpec(kind="multitone", length=1024, harmonics=(-511.5, 10.5), amplitudes=(1, 1j)),
            SignalSpec(kind="bandlimited-random", length=255, seed=4),
            SignalSpec(kind="gaussian-pulse", length=100),
        ],
    )
    @pytest.mark.parametrize("factor", [2, 4])
    def test_equals_float_times_for_power_of_two_factors(self, spec, factor):
        # m/M is exact for power-of-two M, and the integer route's phase is
        # the float route's scaled by a power of two, so not one bit moves
        times = np.arange(factor * spec.length) / factor
        np.testing.assert_array_equal(
            signals._refined_grid_truth(spec, factor).view(np.uint64),
            eval_ground_truth(spec, times).view(np.uint64),
        )

    @pytest.mark.parametrize("factor", [3, 7])
    def test_tone_phase_exact_for_any_factor(self, factor):
        n, harmonics = 10001, (3333, -1428)
        spec = SignalSpec(kind="multitone", length=n, harmonics=harmonics, amplitudes=(1, 0.5))
        m = np.arange(factor * n, dtype=np.int64)
        turn = factor * n
        expected = sum(
            a * np.exp(1j * np.pi * ((2 * h * m) % (2 * turn)) / turn)
            for h, a in zip(harmonics, (1, 0.5))
        )
        got = signals._refined_grid_truth(spec, factor)
        assert np.max(np.abs(got - expected)) <= 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "truth",
        [generate, lambda spec: signals._refined_grid_truth(spec, 2)],
        ids=["generate", "refined-grid"],
    )
    def test_truth_that_overflows_is_one_value_error(self, truth):
        # 2e308 at every t; generate is the factor-1 truth, under the same converter
        spec = SignalSpec(kind="multitone", length=4, harmonics=(0, 0), amplitudes=(1e308, 1e308))
        with pytest.raises(ValueError, match="^the ground truth overflows float64$"):
            truth(spec)
