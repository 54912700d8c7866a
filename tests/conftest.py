import contextlib
from pathlib import Path

import numpy as np
import pytest

from featnet import FeatureTable, load_dataset
from featnet.errors import FeatnetError

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
REFERENCE_ARFF = DATA_DIR / "phishing_websites.arff"


@contextlib.contextmanager
def raises_featnet_error(message: str):
    """Expect a plain FeatnetError with exactly this message; a subclass
    (ParseError, DomainError) raised in its place fails."""
    with pytest.raises(FeatnetError) as err:
        yield
    assert type(err.value) is FeatnetError
    assert str(err.value) == message


@pytest.fixture(scope="session")
def reference_table() -> FeatureTable:
    return load_dataset(REFERENCE_ARFF)


@pytest.fixture()
def toy_table() -> FeatureTable:
    """4 rows, 3 features, balanced labels."""
    return FeatureTable(
        feature_names=("alpha", "beta", "gamma"),
        rows=np.array(
            [
                [-1, 1, 0],
                [1, -1, 0],
                [-1, 1, 1],
                [1, -1, -1],
            ]
        ),
        labels=np.array([-1, 1, -1, 1]),
    )
