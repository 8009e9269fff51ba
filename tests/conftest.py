"""Shared fixtures.  Ray is initialised ONCE per pytest session."""

import pytest


def pytest_sessionstart(session):
    # Build this process's Ray Data context the way the package does
    # (state.checkpoint.data_context): Ray 2.49's DataContext() warns
    # about two deprecated defaults it sets itself.
    from json_time_series_extractor_ray.state.checkpoint import data_context

    data_context()


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield ray
    ray.shutdown()
