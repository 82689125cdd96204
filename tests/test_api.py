import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pellkit

REMOVED = ("Convergent", "convergents", "iter_convergents", "IndefiniteForm",
           "reduce_form", "reduced_forms", "rho")

# modules that `import pellkit, pellkit.cli` must not load: dataclasses pulls
# in inspect, ast, dis and tokenize, and typing is as heavy
HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def test_public_names_resolve():
    assert len(pellkit.__all__) == len(set(pellkit.__all__)) == 41
    for name in pellkit.__all__:
        assert hasattr(pellkit, name), name
    for name in REMOVED:
        assert name not in pellkit.__all__ and not hasattr(pellkit, name), name


def test_import_loads_no_heavy_module():
    # -S: no site, so no .pth file can load typing first
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pellkit, pellkit.cli; "
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "\n", proc.stdout


def records():
    """One value of each public record type."""
    member = pellkit.gen_members("F4", 3, 0, allow_n0=True)[0]
    return [pellkit.factorize(360), pellkit.cf_sqrt(7), pellkit.class_number(15),
            pellkit.fundamental_unit(5), pellkit.solve_pm_N(7, -3),
            pellkit.family_spec("F1"), member, pellkit.verify_member(member),
            pellkit.reproduce_table(2)[0]]


def test_records_pickle_to_equal_values():
    values = records()
    public = (getattr(pellkit, name) for name in pellkit.__all__)
    assert {type(v) for v in values} == {
        t for t in public if isinstance(t, type) and issubclass(t, tuple)}
    for value in values:
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value), value


def test_records_are_immutable():
    for value in records():
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = None


def test_record_reprs_and_tuples():
    data = pellkit.class_number(15)
    assert repr(data) == "ClassData(m=15, D=60, h_narrow=4, h_wide=2, unit_norm=1)"
    assert data == (15, 60, 4, 2, 1) and data[3] == data.h_wide
    cert = pellkit.solve_pm_N(7, -3)
    assert repr(cert) == ("PellCertificate(m=7, target=-3, solutions=((2, 1), (5, 2)), "
                          "scan_length=5, method='lmm')")
    assert cert._asdict()["solutions"] == ((2, 1), (5, 2))


def test_replace_checks_the_new_record():
    data = pellkit.class_number(15)
    assert data._replace(m=16).m == 16
    with pytest.raises(ValueError, match="narrow/wide relation"):
        data._replace(h_wide=3)
    unit = pellkit.fundamental_unit(5)
    with pytest.raises(ValueError, match="lowest terms"):
        unit._replace(a=2, b=2)
