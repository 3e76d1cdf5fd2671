import inspect

import stopcost


def _public_callables():
    for name in stopcost.__all__:
        obj = getattr(stopcost, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_no_public_signature_takes_tolerances():
    # every tolerance is the one constant config.DEFAULT_TOLS; none is an argument
    names = dict(_public_callables())
    assert "MarkovChain.from_transition" in names
    for name, fn in names.items():
        assert "tols" not in inspect.signature(fn).parameters, name
