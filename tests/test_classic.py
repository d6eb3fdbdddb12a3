from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oit import (
    Distribution,
    DistributionError,
    hartley_information,
    shannon_entropy,
    volume,
    volume_entropy_demo,
)

from .strategies import distributions

TOL = 1e-9


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(DistributionError, match="negative"):
            Distribution((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(DistributionError, match="sum to"):
            Distribution((0.5, 0.6))

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            Distribution(())

    def test_accepts_fractions(self):
        Distribution((Fraction(1, 3), Fraction(2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(DistributionError, match="finite"):
            Distribution((float("nan"),))


class TestShannonEntropy:
    def test_fair_coin(self):
        assert shannon_entropy((0.5, 0.5)) == pytest.approx(1.0, abs=TOL)

    def test_degenerate(self):
        assert shannon_entropy((1.0,)) == pytest.approx(0.0, abs=TOL)

    @pytest.mark.parametrize("dist", [(1.0,), (1, 0), (Fraction(0), Fraction(1), Fraction(0))])
    def test_certain_outcome_is_positive_zero(self, dist):
        assert math.copysign(1.0, shannon_entropy(dist)) == 1.0
        assert math.copysign(1.0, volume_entropy_demo((*dist, 0), 2, seed=1).entropy_bound) == 1.0

    def test_three_point(self):
        assert shannon_entropy((0.5, 0.25, 0.25)) == pytest.approx(1.5, abs=TOL)

    def test_scale_and_base(self):
        assert shannon_entropy((0.5, 0.5), base=4.0) == pytest.approx(0.5, abs=TOL)
        assert shannon_entropy((0.5, 0.5), k=3.0) == pytest.approx(3.0, abs=TOL)
        assert shannon_entropy((0.5, 0.5), base=Fraction(4), k=Fraction(3)) == pytest.approx(
            1.5, abs=TOL)

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            shannon_entropy((0.5, 0.5), base=1.0)
        with pytest.raises(ValueError):
            shannon_entropy((0.5, 0.5), k=0.0)

    @pytest.mark.parametrize("params, message", [
        ({"base": math.nan}, "log base must exceed 1, got nan"),
        ({"base": math.inf}, "log base must exceed 1, got inf"),
        ({"k": math.nan}, "scale k must be positive, got nan"),
        ({"k": math.inf}, "scale k must be positive, got inf"),
    ])
    def test_non_finite_parameters_rejected(self, params, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            shannon_entropy((0.5, 0.5), **params)

    def test_beyond_a_float_raises(self):
        with pytest.raises(OverflowError, match="^k \\* H is too large for a float: "
                                                "k=1e\\+308, base=1.0000001$"):
            shannon_entropy((0.5, 0.5), base=1.0000001, k=1e308)

    def test_uniform_maximizes(self):
        rng = random.Random(99)
        for n in range(2, 7):
            uniform = shannon_entropy([Fraction(1, n)] * n)
            for _ in range(200):
                raw = [rng.randint(1, 50) for _ in range(n)]
                total = sum(raw)
                dist = [Fraction(x, total) for x in raw]
                assert shannon_entropy(dist) <= uniform + TOL

    @given(distributions())
    def test_nonnegative(self, dist):
        assert shannon_entropy(dist) >= -TOL


class TestHartley:
    def test_three_bits(self):
        assert hartley_information(3, 2) == pytest.approx(3.0, abs=TOL)

    def test_log_identity(self):
        assert hartley_information(1, 7, base=7.0) == pytest.approx(1.0, abs=TOL)
        assert hartley_information(1, 7, base=Fraction(7)) == pytest.approx(1.0, abs=TOL)

    def test_decimal_alphabet(self):
        assert hartley_information(4, 10) == pytest.approx(13.287712379549449, abs=TOL)

    def test_domains(self):
        with pytest.raises(ValueError):
            hartley_information(0, 2)
        with pytest.raises(ValueError):
            hartley_information(3, 1)
        with pytest.raises(ValueError):
            hartley_information(3, 2, base=1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: hartley_information(math.nan, 3), "n and s must be integers, got n=nan, s=3"),
        (lambda: hartley_information(4, math.nan), "n and s must be integers, got n=4, s=nan"),
        (lambda: hartley_information(3.0, 2), "n and s must be integers, got n=3.0, s=2"),
        (lambda: hartley_information(True, 2), "n and s must be integers, got n=True, s=2"),
        (lambda: volume_entropy_demo((0.5, 0.5), math.nan, 1),
         "message length n must be an integer, got nan"),
        (lambda: volume_entropy_demo((0.5, 0.5), 2.0, 1),
         "message length n must be an integer, got 2.0"),
    ])
    def test_integer_parameters_must_be_ints(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("base", [math.nan, math.inf])
    def test_non_finite_base_rejected(self, base):
        with pytest.raises(ValueError, match="^log base must exceed 1, got %r$" % base):
            hartley_information(3, 2, base=base)

    def test_equals_uniform_entropy_over_words(self):
        # entropy of the uniform distribution over all length-n words
        for n, s in [(1, 2), (2, 3), (3, 2), (2, 5)]:
            outcomes = s**n
            uniform = [Fraction(1, outcomes)] * outcomes
            assert shannon_entropy(uniform) == pytest.approx(
                hartley_information(n, s), abs=TOL
            )


@pytest.mark.parametrize("call, error, message", [
    (lambda: hartley_information(4, 10, base="2"), ValueError, "log base must exceed 1, got '2'"),
    (lambda: hartley_information(4, 10, base=True), ValueError, "log base must exceed 1, got True"),
    (lambda: shannon_entropy((0.5, 0.5), base=None), ValueError,
     "log base must exceed 1, got None"),
    (lambda: shannon_entropy((0.5, 0.5), k="1"), ValueError, "scale k must be positive, got '1'"),
    (lambda: shannon_entropy((0.5, 0.5), k=True), ValueError, "scale k must be positive, got True"),
    (lambda: shannon_entropy(("0.5", "0.5")), DistributionError,
     "probabilities must be finite numbers: ('0.5', '0.5')"),
    (lambda: shannon_entropy((True, False)), DistributionError,
     "probabilities must be finite numbers: (True, False)"),
])
def test_number_parameters_of_another_type_are_refused(call, error, message):
    """Only an int, float or ``Fraction`` is a number parameter or a probability."""
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


class TestCodingDemo:
    def test_binary_alphabet(self):
        demo = volume_entropy_demo((0.5, 0.5), 8, seed=1)
        assert demo.volume == 8
        assert demo.hartley == pytest.approx(8.0, abs=TOL)
        assert demo.entropy_bound == pytest.approx(8.0, abs=TOL)

    def test_four_symbol_alphabet(self):
        demo = volume_entropy_demo((0.25,) * 4, 4, seed=2)
        assert demo.volume == 8
        assert demo.hartley == pytest.approx(8.0, abs=TOL)
        assert demo.entropy_bound == pytest.approx(8.0, abs=TOL)

    def test_skewed_alphabet(self):
        demo = volume_entropy_demo((0.9, 0.1), 10, seed=3)
        assert demo.volume == 10
        assert demo.entropy_bound == pytest.approx(4.690, abs=1e-3)

    def test_volume_exceeds_hartley_only_when_rounded(self):
        power_of_two = volume_entropy_demo((0.25,) * 4, 3, seed=4)
        assert power_of_two.volume == pytest.approx(power_of_two.hartley, abs=TOL)
        rounded = volume_entropy_demo((Fraction(1, 3),) * 3, 3, seed=4)
        assert rounded.volume > rounded.hartley

    def test_a_sum_within_tolerance_gives_a_report(self):
        """``Distribution`` accepts a sum a little above 1, whose entropy bound
        may then exceed the volume; the demo reports it as it is."""
        demo = volume_entropy_demo((0.2500000002,) * 4, 4, seed=0)
        assert demo.volume == 8
        assert demo.entropy_bound == pytest.approx(8.000000001783375, abs=TOL)
        assert demo.entropy_bound > demo.volume

    def test_deterministic_for_seed(self):
        a = volume_entropy_demo((0.7, 0.3), 6, seed=5)
        b = volume_entropy_demo((0.7, 0.3), 6, seed=5)
        assert a.message == b.message
        assert a.info == b.info

    def test_degenerate_alphabet_rejected(self):
        with pytest.raises(DistributionError, match="alphabet"):
            volume_entropy_demo((1.0,), 4, seed=0)

    def test_instance_is_valid_and_sized(self):
        demo = volume_entropy_demo((0.5, 0.25, 0.25), 5, seed=6)
        assert len(demo.info.states) == 5
        assert len(demo.info.carrier) == 5 * 2
        assert demo.volume == 10

    @given(distributions(max_size=5), st.integers(1, 8), st.integers(0, 2**16))
    @settings(max_examples=60)
    def test_volume_dominates_entropy_bound(self, dist, n, seed):
        assume(len(dist) >= 2)
        demo = volume_entropy_demo(dist, n, seed)
        assert demo.volume >= demo.entropy_bound - TOL
        assert demo.volume >= demo.hartley - TOL

    @given(distributions(max_size=5), st.integers(1, 8), st.integers(0, 2**16))
    @settings(max_examples=60)
    def test_derived_fields_follow_their_definitions(self, dist, n, seed):
        assume(len(dist) >= 2)
        demo = volume_entropy_demo(dist, n, seed)
        assert demo.dist == Distribution(dist) and demo.seed == seed
        assert demo.alphabet_size == len(dist)
        assert demo.length == len(demo.message) == n
        assert demo.volume == volume(demo.info) == n * (len(dist) - 1).bit_length()
        assert demo.hartley == hartley_information(n, len(dist))
        assert demo.entropy_bound == n * shannon_entropy(dist)
