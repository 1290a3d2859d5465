"""Which records are frozen: the inputs stay immutable, the result reports do not."""

import dataclasses
import json
import os

import numpy as np
import pytest

from conversekit.applications import (
    ActiveConfig,
    ComparisonReport,
    CsConfig,
    DensityConfig,
    compute_bounds,
)
from conversekit.converse import BoundReport, ChannelFamily
from conversekit.divergence import BernoulliPair, DiscretePmf, GaussianShiftPair
from conversekit.oracle import HypercubeDensityFamily
from conversekit.packing import cs_random_packing, gv_greedy, verify_packing


def _golden_config(app, config_type):
    golden = os.path.join(os.path.dirname(__file__), "..", "docs", "golden", f"{app}.json")
    with open(golden, encoding="utf-8") as fh:
        return config_type(**json.load(fh)["manifest"]["config"])


def _channel_family():
    return ChannelFamily(
        (DiscretePmf(np.array([0.25, 0.75])), DiscretePmf(np.array([0.5, 0.5])))
    )


# each maker builds one input record; construction-time checks and caches
# (validated configs, the family's cached arrays, measured packings) rely on
# the record never changing afterwards
INPUT_RECORDS = {
    "density_config": lambda: _golden_config("density", DensityConfig),
    "active_config": lambda: _golden_config("active", ActiveConfig),
    "cs_config": lambda: _golden_config("cs", CsConfig),
    "channel_family": _channel_family,
    "discrete_pmf": lambda: DiscretePmf(np.array([0.3, 0.7])),
    "gaussian_shift_pair": lambda: GaussianShiftPair(shift_sq=1.0, sigma_sq=2.0),
    "bernoulli_pair": lambda: BernoulliPair(p=0.3, q=0.6),
    "hypercube_density_family": lambda: HypercubeDensityFamily(m=4, c=0.5),
    "binary_codebook": lambda: gv_greedy(8, 3),
    "packing_set": lambda: gv_greedy(8, 3).to_packing_set(),
    "sparse_packing": lambda: cs_random_packing(32, 4, 8, seed=1),
    "packing_certificate": lambda: verify_packing(gv_greedy(8, 3).to_packing_set()),
}


@pytest.mark.parametrize("make", INPUT_RECORDS.values(), ids=INPUT_RECORDS.keys())
def test_input_records_stay_frozen(make):
    record = make()
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))


def test_result_reports_hash_and_compare_by_identity():
    rep = compute_bounds(_golden_config("density", DensityConfig))
    twin = compute_bounds(_golden_config("density", DensityConfig))
    assert isinstance(rep, ComparisonReport) and isinstance(rep.strong, BoundReport)
    records = [rep, twin, rep.strong, rep.fano, twin.strong, twin.fano]
    assert len(set(records)) == len(records)
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j)
    # equal field by field, yet distinct records
    assert rep.to_json_dict() == twin.to_json_dict()
