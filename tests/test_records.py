"""The ten result and input records: construction, immutability, equality and input checks."""
import math

import numpy as np
import pytest

from bellpair.bell import AnalyzerDirections, BellReport, horodecki_max
from bellpair.linalg import Spectrum, eig_hermitian
from bellpair.protocol import AngleSettings, ChshDatum, CountTable, FitResult, NonpositiveError
from bellpair.simulate import SimConfig, SimConfigError
from bellpair.states import DensityMatrix, PauliDecomposition, singlet

nan, inf = math.nan, math.inf
E = (1.0, 0.0, 0.0)
Z3 = ((0.0,) * 3,) * 3
SETTINGS = AngleSettings(0.0, 45.0, 22.5, 67.5)


def valid_fields():
    """Valid keyword arguments of each record, in field order."""
    rho = singlet()
    report = horodecki_max(rho)
    spectrum = eig_hermitian(rho.mat)
    return {
        Spectrum: dict(eigenvalues=spectrum.eigenvalues, eigenvectors=spectrum.eigenvectors),
        DensityMatrix: dict(mat=rho.mat, factor=rho.factor),
        PauliDecomposition: dict(A=(0.1, 0.0, 0.0), P=(0.0, 0.2, 0.0), D=((-0.5, 0.0, 0.0),) * 3),
        AngleSettings: dict(phi1=0.0, phi1p=45.0, phi2=22.5, phi2p=67.5),
        CountTable: dict(phi1=0.0, phi2=22.5, n_pp=1, n_pm=2, n_mp=3, n_mm=4),
        ChshDatum: dict(settings=SETTINGS, r_exp=2.5, dr_exp=0.1),
        FitResult: dict(gamma_hat=0.9, chi2_at_min=1.0, chi2_case1=2.0, chi2_case2=1.5,
                        residuals=(0.1, -0.2), singlet_values=(2.8, 2.7)),
        AnalyzerDirections: dict(a=E, a_prime=(0.0, 1.0, 0.0), b=(0.0, 0.0, 1.0), b_prime=E),
        BellReport: dict(tangle=report.tangle, M=report.M, max_violation=report.max_violation,
                         purity=report.purity, optimal=report.optimal),
        SimConfig: dict(state=rho, settings=((0.0, 22.5),), events_per_setting=10, seed=1),
    }


RECORDS = list(valid_fields())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction_agree(cls):
    fields = valid_fields()[cls]
    by_name, by_position = cls(**fields), cls(*fields.values())
    assert type(by_name) is cls and type(by_position) is cls
    assert by_name == by_position
    assert cls._fields == tuple(fields)
    for name, value in fields.items():
        assert getattr(by_name, name) == value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_read_only(cls):
    record = cls(**valid_fields()[cls])
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either
    assert record == cls(**valid_fields()[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records_with_equal_hashes(cls):
    first, second = cls(**valid_fields()[cls]), cls(**valid_fields()[cls])
    assert first is not second
    assert first == second and hash(first) == hash(second)
    changed = first._replace(**{cls._fields[0]: None})
    assert changed != first


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_named_tuples(cls):
    # documented: a record iterates, indexes and compares like the plain tuple of its fields
    record = cls(**valid_fields()[cls])
    assert isinstance(record, tuple) and len(record) == len(cls._fields)
    assert tuple(record) == tuple(getattr(record, name) for name in cls._fields)
    assert record == tuple(record) and record[0] == getattr(record, cls._fields[0])


def test_replace_and_make_skip_the_checks():
    # documented: the namedtuple helpers build a record without the constructor's checks
    assert math.isnan(SETTINGS._replace(phi1=nan).phi1)
    assert CountTable._make((0.0, 0.0, -1, 0, 0, 0)).n_pp == -1


def test_checked_records_store_their_coerced_fields():
    pd = PauliDecomposition(A=np.array([0, 1, 0]), P=[0, 0, 1], D=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (pd.A, pd.P, pd.D) == ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                                  ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    assert all(type(x) is float for x in (*pd.A, *pd.P, *(x for row in pd.D for x in row)))
    table = CountTable(0.0, 0.0, 2.0, np.int64(3), 2**70, 0)
    counts = (table.n_pp, table.n_pm, table.n_mp, table.n_mm)
    assert [type(n) for n in counts] == [int] * 4 and table.total == 5 + 2**70
    cfg = SimConfig(state=singlet(), settings=[[0, np.float64(22.5)]], events_per_setting=np.int64(10), seed=True)
    assert cfg.settings == ((0.0, 22.5),) and type(cfg.settings[0][0]) is float
    assert type(cfg.events_per_setting) is int and cfg.seed == 1


def test_sim_config_reads_angles_by_the_state_file_number_rule():
    # float(), as for every state-file number: numeric strings and booleans are numbers
    assert SimConfig(None, [("1.5", " 2 ")], 1, 0).settings == ((1.5, 2.0),)
    assert SimConfig(None, [(True, 1)], 1, 0).settings == ((1.0, 1.0),)


# Each invalid input with the exception and message of the check that rejects it.
INVALID = [
    (PauliDecomposition, dict(A=(0.1, 0.2), P=(0, 0, 0), D=Z3),
     ValueError, "a Pauli decomposition needs A and P of length 3 and a 3x3 D"),
    (PauliDecomposition, dict(A=(0, 0, 0), P=(0, 0, 0, 0), D=Z3),
     ValueError, "a Pauli decomposition needs A and P of length 3 and a 3x3 D"),
    (PauliDecomposition, dict(A=(0, 0, 0), P=(0, 0, 0), D=Z3[:2]),
     ValueError, "a Pauli decomposition needs A and P of length 3 and a 3x3 D"),
    (PauliDecomposition, dict(A=(0, 0, 0), P=(0, 0, 0), D=((0, 0, 0), (0, 0), (0, 0, 0))),
     ValueError, "a Pauli decomposition needs A and P of length 3 and a 3x3 D"),
    (PauliDecomposition, dict(A=("x", 0, 0), P=(0, 0, 0), D=Z3), ValueError, "could not convert string to float: 'x'"),
    (PauliDecomposition, dict(A=None, P=(0, 0, 0), D=Z3), TypeError, "'NoneType' object is not iterable"),
    (PauliDecomposition, dict(A=(0, 0), P=("y", 0, 0), D=Z3), ValueError, "could not convert string to float: 'y'"),
    (AngleSettings, dict(phi1=0.0, phi1p=nan, phi2=0.0, phi2p=0.0), ValueError, "phi1p must be finite"),
    (AngleSettings, dict(phi1=0.0, phi1p=0.0, phi2=-inf, phi2p=nan), ValueError, "phi2 must be finite"),
    (AngleSettings, dict(phi1="a", phi1p=0.0, phi2=0.0, phi2p=0.0), TypeError, "must be real number, not str"),
    (CountTable, dict(phi1=0.0, phi2=0.0, n_pp=1, n_pm=-1, n_mp=0, n_mm=0),
     ValueError, "counts must be nonnegative integers, got n_pm=-1"),
    (CountTable, dict(phi1=0.0, phi2=0.0, n_pp=1, n_pm=1, n_mp=1.5, n_mm=0),
     ValueError, "counts must be nonnegative integers, got n_mp=1.5"),
    (CountTable, dict(phi1=0.0, phi2=0.0, n_pp=1, n_pm=1, n_mp=1, n_mm=inf),
     ValueError, "counts must be nonnegative integers, got n_mm=inf"),
    (CountTable, dict(phi1=0.0, phi2=0.0, n_pp=nan, n_pm=-1, n_mp=1, n_mm=1),
     ValueError, "counts must be nonnegative integers, got n_pp=nan"),
    (ChshDatum, dict(settings=SETTINGS, r_exp=nan, dr_exp=0.0), ValueError, "r_exp must be finite"),
    (ChshDatum, dict(settings=SETTINGS, r_exp=1.0, dr_exp=inf), ValueError, "dr_exp must be finite"),
    (ChshDatum, dict(settings=SETTINGS, r_exp=1.0, dr_exp=0.0), NonpositiveError, "dr_exp must be positive, got 0.0"),
    (ChshDatum, dict(settings=SETTINGS, r_exp=1.0, dr_exp=-1), NonpositiveError, "dr_exp must be positive, got -1"),
    (ChshDatum, dict(settings=SETTINGS, r_exp=-inf, dr_exp=1.0), ValueError, "r_exp must be finite"),
    (ChshDatum, dict(settings=SETTINGS, r_exp=1.0, dr_exp=nan), ValueError, "dr_exp must be finite"),
    (ChshDatum, dict(settings=SETTINGS, r_exp=inf, dr_exp=-1.0), ValueError, "r_exp must be finite"),
    (ChshDatum, dict(settings=SETTINGS, r_exp=1.0, dr_exp=-0.0), NonpositiveError, "dr_exp must be positive, got -0.0"),
    (SimConfig, dict(state=None, settings=((0.0, 1.0),), events_per_setting=0, seed=1),
     SimConfigError, "events_per_setting must be >= 1"),
    (SimConfig, dict(state=None, settings=((0.0, 1.0),), events_per_setting=1.5, seed=-1),
     SimConfigError, "events_per_setting must be an integer, got 1.5"),
    (SimConfig, dict(state=None, settings=((0.0, 1.0),), events_per_setting=10, seed="3"),
     SimConfigError, "seed must be an integer, got '3'"),
    (SimConfig, dict(state=None, settings=((0.0, 1.0),), events_per_setting=10, seed=-1),
     SimConfigError, "seed must be a 64-bit unsigned integer"),
    (SimConfig, dict(state=None, settings=((0.0, 1.0),), events_per_setting=10, seed=2**64),
     SimConfigError, "seed must be a 64-bit unsigned integer"),
    (SimConfig, dict(state=None, settings=((0.0, inf),), events_per_setting=10, seed=1),
     SimConfigError, "settings angles must be finite"),
    (SimConfig, dict(state=None, settings=((0.0,),), events_per_setting=10, seed=1),
     SimConfigError, "settings must be (phi1, phi2) pairs of numbers"),
    (SimConfig, dict(state=None, settings=(("x", 0.0),), events_per_setting=0, seed=1),
     SimConfigError, "events_per_setting must be >= 1"),
    (SimConfig, dict(state=None, settings=(("a", 1.0),), events_per_setting=10, seed=1),
     SimConfigError, "settings must be (phi1, phi2) pairs of numbers"),
    (SimConfig, dict(state=None, settings=((0.0, 1.0, 2.0),), events_per_setting=10, seed=1),
     SimConfigError, "settings must be (phi1, phi2) pairs of numbers"),
    (SimConfig, dict(state=None, settings=(None,), events_per_setting=10, seed=1),
     SimConfigError, "settings must be (phi1, phi2) pairs of numbers"),
    (SimConfig, dict(state=None, settings=((1.0, None),), events_per_setting=10, seed=1),
     SimConfigError, "settings must be (phi1, phi2) pairs of numbers"),
    (SimConfig, dict(state=None, settings=None, events_per_setting=10, seed=1),
     SimConfigError, "settings must be (phi1, phi2) pairs of numbers"),
    (SimConfig, dict(state=None, settings=((0.0, 10**400),), events_per_setting=10, seed=1),
     SimConfigError, "settings angles must be finite"),
    (SimConfig, dict(state=None, settings=(None,), events_per_setting=10, seed=2**64),
     SimConfigError, "seed must be a 64-bit unsigned integer"),
]


@pytest.mark.parametrize("cls, fields, error, message", INVALID,
                         ids=[f"{case[0].__name__}-{k}" for k, case in enumerate(INVALID)])
def test_invalid_inputs_raise_the_check_and_message_of_their_rule(cls, fields, error, message):
    with pytest.raises(error) as caught:
        cls(**fields)
    assert type(caught.value) is error and str(caught.value) == message
    with pytest.raises(error) as caught:  # the same rule, whichever way the fields are passed
        cls(*fields.values())
    assert str(caught.value) == message
