"""The tier-1 slice of the contract fuzz: ``contract_fuzz.COUNT`` seeded
configs at mild magnitudes, each run through ``cli.main`` in this process,
each giving one of the three results that ``contract_fuzz.check`` asserts."""

import pytest

import contract_fuzz


@pytest.mark.parametrize("index", range(contract_fuzz.COUNT))
def test_a_drawn_config_gives_one_of_three_results(tmp_path, index):
    contract_fuzz.check(contract_fuzz.draw(contract_fuzz.SEED, index,
                                           contract_fuzz.MILD), tmp_path)
