import pytest

from nhspectrum.field import make_context


@pytest.fixture(scope="session")
def f3():
    return make_context(3)


@pytest.fixture(scope="session")
def f5():
    return make_context(5)


@pytest.fixture(scope="session")
def f7():
    return make_context(7)


@pytest.fixture(scope="session")
def scope_cases(f3, f5, f7):
    """(ctx, us): every in-scope u at n = 3 and 5, and 20 seeded u at n = 7."""
    from sampling import sample_u0_nonf3
    from nhspectrum.spectrum import u0_nonf3_elements

    return [(f3, u0_nonf3_elements(f3)), (f5, u0_nonf3_elements(f5)),
            (f7, sample_u0_nonf3(f7, 20, seed=42))]
