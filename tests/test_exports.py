import tcsurf


def test_every_exported_name_imports():
    namespace = {}
    exec("from tcsurf import *", namespace)
    exported = sorted(n for n in namespace if n != "__builtins__")
    assert exported == sorted(tcsurf.__all__)
    assert len(set(tcsurf.__all__)) == len(tcsurf.__all__)
