import fkc

# names the package exported once and deleted; none may come back by accident
REMOVED = (
    "BitMatrix",
    "LatticeElement",
    "enumerate_coset",
    "minimalize",
    "region_slice",
    "subset",
    "transpose",
)


def test_public_surface():
    assert len(fkc.__all__) == len(set(fkc.__all__))
    assert [n for n in fkc.__all__ if not hasattr(fkc, n)] == []
    namespace: dict = {}
    exec("from fkc import *", namespace)
    assert set(fkc.__all__) <= namespace.keys()
    assert [n for n in REMOVED if n in fkc.__all__ or hasattr(fkc, n)] == []
    assert not hasattr(fkc.BitVec, "support") and not hasattr(fkc.BitVec, "weight")
    assert not hasattr(fkc.FormalComplex, "graded_basis")
    assert not hasattr(fkc.FormalComplex, "support")
    assert not hasattr(fkc.Coset, "__len__")
    assert not hasattr(fkc.gf2.Span, "basis")
