"""Verdicts of the obliviousness checker over the §1 adversarial family:
it accepts an oblivious algorithm and rejects a data-dependent one.

The family has 96 records at ``M = 64`` so merge_sort must merge runs
from disk — below ``M`` it sorts in memory and its view is data-free."""

import pytest

from repro.oblivious import (
    ObliviousnessViolation,
    adversarial_inputs,
    assert_adversary_view_invariant,
)


class TestCheckOblivious:
    def test_accepts_oblivious(self):
        fam = adversarial_inputs(96)
        fp = assert_adversary_view_invariant(
            "sort", fam.values(), {}, config_kwargs={"M": 64, "B": 4}
        )
        assert isinstance(fp, str) and fp

    def test_rejects_leaky(self):
        fam = adversarial_inputs(96)
        with pytest.raises(ObliviousnessViolation, match="leaked data"):
            assert_adversary_view_invariant(
                "merge_sort", fam.values(), {}, config_kwargs={"M": 64, "B": 4}
            )
