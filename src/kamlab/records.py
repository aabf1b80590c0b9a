"""Records of dataclasses: the JSON-ready dict of an object holds its record
kind under "record", then each dataclass field under its own name, in
declaration order.  A class states only the fields whose encoding is not the
field value itself."""

from dataclasses import MISSING, fields


def _same(value):
    return value


def dataclass_record(obj, kind: str, **encode) -> dict:
    """{"record": kind}, then every field of the dataclass `obj` in declaration
    order: its value, or encode[name](value) for a field named in `encode`."""
    return {"record": kind, **{f.name: encode.get(f.name, _same)(getattr(obj, f.name))
                               for f in fields(obj)}}


def dataclass_from_record(cls, rec: dict, kind: str, **decode):
    """The dataclass `cls` from a record of `kind`: each field read under its
    name in declaration order, through decode[name] for a field named in
    `decode`.  A field with a default may be absent; a missing field without
    one raises KeyError naming it, and a record of another kind, or a key
    that is neither "record" nor a field, ValueError."""
    if rec.get("record") != kind:
        raise ValueError(f"not a {kind} record")
    names = {f.name for f in fields(cls)} | {"record"}
    unknown = [key for key in rec if key not in names]
    if unknown:
        raise ValueError(f"{kind} record has no field {unknown[0]!r}")
    return cls(**{f.name: decode.get(f.name, _same)(rec[f.name]) for f in fields(cls)
                  if f.name in rec or (f.default is MISSING
                                       and f.default_factory is MISSING)})
