"""Records: the JSON-ready dict of an object holds its kind under "record",
then its fields; dataclass_record writes each field under its own name, in
declaration order.  Every reader passes check_record, the one rule: a record of
another kind, or a key its reader does not read, is refused by name."""

from dataclasses import MISSING, fields


def _same(value):
    return value


def check_record(rec: dict, kind: str, keys) -> dict:
    """`rec` if it is a record of `kind` whose every key is "record", a written
    artifact's stamp "_meta" or one of `keys`; else ValueError naming the key."""
    if rec.get("record") != kind:
        raise ValueError(f"not a {kind} record")
    unknown = [key for key in rec if key not in ("record", "_meta", *keys)]
    if unknown:
        raise ValueError(f"{kind} record has no field {unknown[0]!r}")
    return rec


def check_derived(obj, rec: dict, kind: str, names=("n",)):
    """`obj`, read from `rec`, if each of `names` that `rec` holds equals the
    attribute of that name of `obj`; else ValueError naming it."""
    for name in names:
        if name in rec and rec[name] != getattr(obj, name):
            raise ValueError(f"{kind} record has {name} {rec[name]!r}, but its fields "
                             f"give {name} = {getattr(obj, name)!r}")
    return obj


def dataclass_record(obj, kind: str, **encode) -> dict:
    """{"record": kind}, then every field of the dataclass `obj` in declaration
    order: its value, or encode[name](value) for a field named in `encode`."""
    return {"record": kind, **{f.name: encode.get(f.name, _same)(getattr(obj, f.name))
                               for f in fields(obj)}}


def dataclass_from_record(cls, rec: dict, kind: str, derived=(), **decode):
    """The dataclass `cls` from a record of `kind`: each field read under its
    name, through decode[name] if named there.  A field with a default may be
    absent, a missing one without raises KeyError naming it; a key in `derived`
    is an attribute the object derives from its fields, checked against it."""
    check_record(rec, kind, [f.name for f in fields(cls)] + list(derived))
    obj = cls(**{f.name: decode.get(f.name, _same)(rec[f.name]) for f in fields(cls)
                 if f.name in rec or (f.default is MISSING
                                      and f.default_factory is MISSING)})
    return check_derived(obj, rec, kind, derived)
