import pellkit

REMOVED = ("Convergent", "convergents", "iter_convergents", "IndefiniteForm",
           "reduce_form", "reduced_forms", "rho")


def test_public_names_resolve():
    assert len(pellkit.__all__) == len(set(pellkit.__all__)) == 41
    for name in pellkit.__all__:
        assert hasattr(pellkit, name), name
    for name in REMOVED:
        assert name not in pellkit.__all__ and not hasattr(pellkit, name), name
