"""The library's records: NamedTuples with the fields, repr, equality and
hash they had as frozen dataclasses, and what importing the library loads."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import SRC
from ringcache.analysis import MemoryShare, SharePoint, TransmissionCounts
from ringcache.delivery import DecodabilityReport, Failure
from ringcache.model import InvalidParameters, PositionSets, SystemParams
from ringcache.placement import CacheLayout
from ringcache.verify import AgreementReport, ManReport, SubsetCensus, SubsetRecord

P = SystemParams(k=5, l=2, ma=1, mp=Fraction(3, 2), n=5)
P_REPR = "SystemParams(k=5, l=2, ma=Fraction(1, 1), mp=Fraction(3, 2), n=5)"
T = TransmissionCounts(subsets=68, sc1=24, sc2=12, transmissions=100, f=56)
T_REPR = "TransmissionCounts(subsets=68, sc1=24, sc2=12, transmissions=100, f=56)"
SR = SubsetRecord(union=0b1011, windows=(0b11,), case="SC1")
SR_REPR = "SubsetRecord(union=11, windows=(3,), case='SC1')"
SC = SubsetCensus(records=(SR,), subsets=5, sc1=5, sc2=0, transmissions=5)
SC_REPR = f"SubsetCensus(records=({SR_REPR},), subsets=5, sc1=5, sc2=0, transmissions=5)"
SP = SharePoint(gamma_a=1, gamma_p=2, weight=Fraction(1, 2), rate=Fraction(3, 4))
SP_REPR = "SharePoint(gamma_a=1, gamma_p=2, weight=Fraction(1, 2), rate=Fraction(3, 4))"
FA = Failure(user=1, s=0b110, t=0b1000, reason="never transmitted")
FA_REPR = "Failure(user=1, s=6, t=8, reason='never transmitted')"

# each record's fields, in order, and the repr its frozen dataclass gave them
RECORDS = [
    (PositionSets, dict(union=(2, 3, 4), p_u=2, p_s=1, p_t=4),
     "PositionSets(union=(2, 3, 4), p_u=2, p_s=1, p_t=4)"),
    (SystemParams, dict(k=5, l=2, ma=Fraction(1), mp=Fraction(3, 2), n=5), P_REPR),
    (CacheLayout, dict(params=P, access=((1, 2),), placement="ring", s_of=(1, 2), t_of=(4, 8)),
     f"CacheLayout(params={P_REPR}, access=((1, 2),), placement='ring', s_of=(1, 2), t_of=(4, 8))"),
    (TransmissionCounts, dict(subsets=68, sc1=24, sc2=12, transmissions=100, f=56), T_REPR),
    (SharePoint, dict(gamma_a=1, gamma_p=2, weight=Fraction(1, 2), rate=Fraction(3, 4)), SP_REPR),
    (MemoryShare, dict(points=(SP,), rate=Fraction(3, 4)),
     f"MemoryShare(points=({SP_REPR},), rate=Fraction(3, 4))"),
    (Failure, dict(user=1, s=0b110, t=0b1000, reason="never transmitted"), FA_REPR),
    (DecodabilityReport, dict(ok=False, checked=30, failures=(FA,)),
     f"DecodabilityReport(ok=False, checked=30, failures=({FA_REPR},))"),
    (SubsetRecord, dict(union=0b1011, windows=(0b11,), case="SC1"), SR_REPR),
    (SubsetCensus, dict(records=(SR,), subsets=5, sc1=5, sc2=0, transmissions=5), SC_REPR),
    (AgreementReport,
     dict(params=P, table=T, census=SC, rate=Fraction(5, 4), passed=True, divergence=None),
     f"AgreementReport(params={P_REPR}, table={T_REPR}, census={SC_REPR},"
     " rate=Fraction(5, 4), passed=True, divergence=None)"),
    (ManReport,
     dict(k=4, t=2, f=6, expected_f=6, rate=Fraction(2, 3), expected_rate=Fraction(2, 3), passed=True),
     "ManReport(k=4, t=2, f=6, expected_f=6, rate=Fraction(2, 3),"
     " expected_rate=Fraction(2, 3), passed=True)"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_a_record_keeps_its_repr_field_order_equality_and_hash(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    assert cls._fields == tuple(fields)
    assert [getattr(record, name) for name in cls._fields] == list(fields.values())
    twin = cls(*fields.values())
    assert record == twin and not record != twin
    # the frozen dataclass hashed the tuple of its fields, as a tuple does
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    assert record != record._replace(**{cls._fields[-1]: 7})


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_a_record_refuses_assignment_and_replaces_a_field(cls, fields, text):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, 7)
        assert getattr(record, name) is value
    last = cls._fields[-1]
    changed = record._replace(**{last: fields[last]})
    assert type(changed) is cls and changed == record and changed is not record


def test_a_record_replaces_a_field_with_a_new_value():
    assert SR._replace(case="GENERAL") == SubsetRecord(0b1011, (0b11,), "GENERAL")
    assert T._replace(sc1=26).sc1 == 26 and T._replace(sc1=26).general == 68 - 26 - 12
    assert P._replace(l=1) == SystemParams(5, 1, 1, Fraction(3, 2), 5)


def test_system_params_coerce_sizes_to_fractions():
    params = SystemParams(8, 2, 1, "3/2", 8)
    assert params.ma == 1 and type(params.ma) is Fraction
    assert params.mp == Fraction(3, 2) and type(params.mp) is Fraction
    given = Fraction(5, 2)
    assert SystemParams(8, 2, given, 0, 8).ma is given  # a Fraction is kept as given
    replaced = params._replace(mp=2)
    assert type(replaced) is SystemParams and replaced.mp == 2 and type(replaced.mp) is Fraction


@pytest.mark.parametrize(
    "fields,message",
    [
        ((0, 1, 0, 0, 4), "need at least one user, got K=0"),
        ((65, 2, 0, 0, 65), "K=65 exceeds the 64-user bitmask cap"),
        ((5, 0, 0, 0, 5), "access degree L=0 outside [1, K=5]"),
        ((5, 6, 0, 0, 5), "access degree L=6 outside [1, K=5]"),
        ((5, 2, 0, 0, 4), "library must cover distinct demands: N=4 < K=5"),
        ((5, 2, 6, 0, 5), "shared-cache size ma=6 outside [0, N=5]"),
        ((5, 2, -1, 0, 5), "shared-cache size ma=-1 outside [0, N=5]"),
        ((5, 2, 0, Fraction(11, 2), 5), "private-cache size mp=11/2 outside [0, N=5]"),
        ((5, 2, 0, -1, 5), "private-cache size mp=-1 outside [0, N=5]"),
    ],
)
def test_system_params_refuse_a_bad_network(fields, message):
    with pytest.raises(InvalidParameters) as refused:
        SystemParams(*fields)
    assert str(refused.value) == message
    # _replace checks as the constructor does
    good = SystemParams(5, 2, 1, 1, 5)
    with pytest.raises(InvalidParameters) as refused:
        good._replace(**dict(zip(SystemParams._fields, fields)))
    assert str(refused.value) == message


def test_system_params_compute_each_gamma_once():
    params = SystemParams(6, 2, Fraction(3, 2), 2, 8)
    assert params.gamma_a is params.gamma_a and params.gamma_a == Fraction(9, 8)
    assert params.gamma_p is params.gamma_p and params.gamma_p == Fraction(3, 2)
    # cached beside the fields, which alone make equality, hash and repr
    assert params == SystemParams(6, 2, Fraction(3, 2), 2, 8)
    assert hash(params) == hash((6, 2, Fraction(3, 2), Fraction(2), 8))
    assert repr(params) == "SystemParams(k=6, l=2, ma=Fraction(3, 2), mp=Fraction(2, 1), n=8)"


@pytest.mark.parametrize("module", ["ringcache", "ringcache.cli"])
def test_importing_the_library_loads_no_dataclass_machinery(module):
    probe = (
        f"import sys, {module}; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out == "[]\n"
