import inspect

import flowquant as fq


def test_exported_functions_take_at_most_22_defaulted_parameters():
    # Every defaulted parameter is a setting that tests and benchmarks must
    # cover; 22 remain since the unset ones became fixed values.  A new one
    # needs a caller that sets it and a reason to raise this bound.
    defaulted = [f"{name}({p.name})"
                 for name, obj in vars(fq).items() if inspect.isfunction(obj)
                 for p in inspect.signature(obj).parameters.values()
                 if p.default is not inspect.Parameter.empty]
    assert len(defaulted) <= 22, defaulted
