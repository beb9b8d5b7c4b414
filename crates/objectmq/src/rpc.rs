//! RPC envelopes: the request/response schema travelling through queues.

use wire::{Codec, TokenReader, TokenWriter, Value, WireError, WireResult};

/// A remote invocation request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique invocation id (also the AMQP correlation id for sync calls).
    pub id: String,
    /// Method name on the remote object.
    pub method: String,
    /// Positional arguments.
    pub args: Vec<Value>,
}

impl Request {
    /// Lowers the request into the wire data model. The envelope owns what
    /// it carries, so the arguments move into the value and are not copied.
    pub fn into_value(self) -> Value {
        Value::Map(vec![
            ("id".into(), Value::Str(self.id)),
            ("method".into(), Value::Str(self.method)),
            ("args".into(), Value::List(self.args)),
        ])
    }

    /// Parses a request from the wire data model, moving the arguments out
    /// of it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when required fields are missing or mistyped.
    pub fn from_value(mut value: Value) -> WireResult<Self> {
        Ok(Request {
            id: value.take_field("id")?.into_string()?,
            method: value.take_field("method")?.into_string()?,
            args: value.take_field("args")?.into_list()?,
        })
    }
}

/// Generates a process-unique invocation id.
pub(crate) fn fresh_id() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Combine a counter with the process-wide address-independent epoch so
    // ids stay unique across Broker instances in one process.
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("inv-{n}")
}

/// Validation helper: ensures a decoded value is a request.
pub(crate) fn decode_request(codec: &dyn wire::Codec, bytes: &[u8]) -> WireResult<Request> {
    Request::from_value(codec.decode(bytes)?)
}

/// Writes the response to invocation `id` through `codec`'s writer,
/// appending to `out`: `{"id", "ok": true, "value"}` with `write` writing
/// the value in place, or, when `write` fails, `{"id", "ok": false,
/// "error"}` with its message and nothing of what it wrote.
pub(crate) fn write_response(
    codec: &dyn Codec,
    id: &str,
    out: &mut Vec<u8>,
    write: impl FnOnce(&mut dyn TokenWriter) -> Result<(), String>,
) {
    let start = out.len();
    let failed = {
        let mut w = codec.writer(out);
        response_head(&mut *w, id, true);
        write(&mut *w).err()
    };
    if let Some(message) = failed {
        out.truncate(start);
        let mut w = codec.writer(out);
        response_head(&mut *w, id, false);
        w.str(&message);
    }
}

/// A response's three entries up to the key of the last, `value` or
/// `error`.
fn response_head(w: &mut dyn TokenWriter, id: &str, ok: bool) {
    w.map(3);
    w.key("id");
    w.str(id);
    w.key("ok");
    w.bool(ok);
    w.key(if ok { "value" } else { "error" });
}

fn missing(key: &str) -> WireError {
    WireError::Invalid(format!("response missing `{key}`"))
}

/// The invocation id a response names, read without the entries after it.
pub(crate) fn response_id(codec: &dyn Codec, bytes: &[u8]) -> WireResult<String> {
    let mut r = codec.reader(bytes)?;
    for _ in 0..r.next(0)?.map_len()? {
        if r.key()? == "id" {
            return Ok(r.next(1)?.into_str()?.into_owned());
        }
        r.skip(1)?;
    }
    Err(missing("id"))
}

/// Reads a response: `Ok` with what `read` makes of its value, which one
/// map encloses (depth 1), or `Err` with the remote object's message. The
/// envelope is read as its tree was: entries in any order, the first of
/// each key counts, keys it does not know are checked and skipped.
///
/// # Errors
///
/// The reader's error, `read`'s, or an [`WireError::Invalid`] naming a
/// missing entry.
pub(crate) fn read_response<T>(
    codec: &dyn Codec,
    bytes: &[u8],
    read: impl FnOnce(&mut dyn TokenReader<'_>) -> WireResult<T>,
) -> WireResult<Result<T, String>> {
    /// Where the value went: read, when the response was known to be a
    /// success by then, or else checked and left at this range for later.
    enum Held<T> {
        Read(T),
        At(std::ops::Range<usize>),
    }
    let mut read = Some(read);
    let mut r = codec.reader(bytes)?;
    let (mut ok, mut value, mut error) = (None, None, None);
    for _ in 0..r.next(0)?.map_len()? {
        match &*r.key()? {
            "ok" if ok.is_none() => ok = Some(r.next(1)?.as_bool()?),
            "value" if value.is_none() && ok == Some(true) => {
                let read = read.take().expect("one value is read");
                value = Some(Held::Read(read(&mut *r)?));
            }
            "value" if value.is_none() => {
                let start = r.position();
                r.skip(1)?;
                value = Some(Held::At(start..r.position()));
            }
            "error" if error.is_none() => error = Some(r.skip(1)?),
            _ => {
                r.skip(1)?;
            }
        }
    }
    r.finish()?;
    if !ok.ok_or_else(|| missing("ok"))? {
        let error = error.ok_or_else(|| missing("error"))?;
        return Ok(Err(error.into_str()?.into_owned()));
    }
    Ok(Ok(match value.ok_or_else(|| missing("value"))? {
        Held::Read(value) => value,
        Held::At(range) => {
            let mut r = codec.reader(&bytes[range])?;
            let read = read.take().expect("one value is read");
            let value = read(&mut *r)?;
            r.finish()?;
            value
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wire::{BinaryCodec, Codec, JsonCodec};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// What `to_value(&self)`, the cloning lowering `into_value` replaced,
    /// built for a request.
    fn request_reference(r: &Request) -> Value {
        Value::Map(vec![
            ("id".into(), Value::Str(r.id.clone())),
            ("method".into(), Value::Str(r.method.clone())),
            ("args".into(), Value::List(r.args.clone())),
        ])
    }

    /// The tree of a response, as the skeleton built it before it wrote
    /// responses through the codec's writer.
    fn response_reference(id: &str, outcome: &Result<Value, String>) -> Value {
        let (ok, key, payload) = match outcome {
            Ok(v) => (true, "value", v.clone()),
            Err(m) => (false, "error", Value::Str(m.clone())),
        };
        Value::Map(vec![
            ("id".into(), Value::from(id)),
            ("ok".into(), Value::Bool(ok)),
            (key.into(), payload),
        ])
    }

    /// The response to `id` saying `outcome`, as the skeleton writes it.
    fn written(codec: &dyn Codec, id: &str, outcome: &Result<Value, String>) -> Vec<u8> {
        let mut out = Vec::new();
        write_response(codec, id, &mut out, |w| match outcome {
            Ok(v) => {
                w.value(v);
                Ok(())
            }
            Err(m) => Err(m.clone()),
        });
        out
    }

    /// What a proxy's `call_sync` reads from a response.
    fn read(codec: &dyn Codec, bytes: &[u8]) -> WireResult<Result<Value, String>> {
        read_response(codec, bytes, |r| r.value(1))
    }

    #[test]
    fn request_roundtrip() {
        let r = Request {
            id: "inv-9".into(),
            method: "commit".into(),
            args: vec![Value::from(1i64), Value::from("ws")],
        };
        assert_eq!(Request::from_value(r.clone().into_value()).unwrap(), r);
    }

    #[test]
    fn response_roundtrip_ok_and_err() {
        for codec in [&BinaryCodec as &dyn Codec, &JsonCodec] {
            for (id, outcome) in [("a", Ok(Value::from(5i64))), ("b", Err("boom".into()))] {
                let bytes = written(codec, id, &outcome);
                assert_eq!(response_id(codec, &bytes).as_deref(), Ok(id));
                assert_eq!(read(codec, &bytes), Ok(outcome));
            }
        }
    }

    #[test]
    fn a_failed_write_leaves_nothing_of_what_it_wrote() {
        for codec in [&BinaryCodec as &dyn Codec, &JsonCodec] {
            let mut out = b"kept".to_vec();
            write_response(codec, "c", &mut out, |w| {
                w.list(2);
                w.str("half a list");
                Err("gave up".into())
            });
            let clean = written(codec, "c", &Err("gave up".into()));
            assert_eq!(out, [&b"kept"[..], &clean].concat(), "{}", codec.name());
        }
    }

    #[test]
    fn a_response_is_read_in_any_order_and_its_id_alone_on_the_way() {
        for codec in [&BinaryCodec as &dyn Codec, &JsonCodec] {
            let value = Value::List(vec![Value::from("x"), Value::I64(2)]);
            // The value before `ok`, then an entry nobody reads: the value
            // is left where it is and read when `ok` says it is one.
            let reordered = codec.encode(&Value::Map(vec![
                ("value".into(), value.clone()),
                ("ok".into(), Value::Bool(true)),
                ("id".into(), Value::from("d")),
                ("hop".into(), Value::Map(vec![])),
            ]));
            assert_eq!(read(codec, &reordered), Ok(Ok(value.clone())));
            assert_eq!(response_id(codec, &reordered).as_deref(), Ok("d"));
            // Only the id is read on the way to the caller: what follows
            // it may not even decode.
            let mut bytes = written(codec, "e", &Ok(value));
            let cut = bytes.len() - 3;
            bytes.truncate(cut);
            assert_eq!(response_id(codec, &bytes).as_deref(), Ok("e"));
            assert!(read(codec, &bytes).is_err());
        }
    }

    #[test]
    fn envelopes_are_the_bytes_they_were() {
        // Encodings taken from `to_value` at the commit before it went.
        let request = Request {
            id: "inv-9".into(),
            method: "commit_request".into(),
            args: vec![
                Value::from("ws-1"),
                Value::U64(3),
                Value::List(vec![Value::Bytes(vec![1, 2, 3])]),
            ],
        };
        let bare = Request {
            id: "inv-1".into(),
            method: "ping".into(),
            args: vec![],
        };
        let ok: Result<Value, String> = Ok(Value::List(vec![
            Value::Map(vec![("item".into(), Value::U64(42))]),
            Value::Null,
        ]));
        let err: Result<Value, String> = Err("boom".into());
        assert_eq!(
            hex(&BinaryCodec.encode(&request.clone().into_value())),
            "09030269640605696e762d39066d6574686f64060e636f6d6d69745f72657175657374\
             04617267730803060477732d31040308010703010203"
        );
        assert_eq!(
            hex(&BinaryCodec.encode(&bare.into_value())),
            "09030269640605696e762d31066d6574686f64060470696e6704617267730800"
        );
        assert_eq!(
            hex(&written(&BinaryCodec, "inv-9", &ok)),
            "09030269640605696e762d39026f6b020576616c756508020901046974656d042a00"
        );
        assert_eq!(
            hex(&written(&BinaryCodec, "b", &err)),
            "0903026964060162026f6b01056572726f720604626f6f6d"
        );
        assert_eq!(
            JsonCodec.encode(&request.into_value()),
            br#"{"id":"inv-9","method":"commit_request","args":["ws-1",3,[{"$bytes":"010203"}]]}"#
        );
        assert_eq!(
            written(&JsonCodec, "inv-9", &ok),
            br#"{"id":"inv-9","ok":true,"value":[{"item":42},null]}"#
        );
        assert_eq!(
            written(&JsonCodec, "b", &err),
            br#"{"id":"b","ok":false,"error":"boom"}"#
        );
    }

    #[test]
    fn parsing_names_what_is_missing_and_ignores_what_is_extra() {
        let mut value = Request {
            id: "a".into(),
            method: "m".into(),
            args: vec![Value::Null],
        }
        .into_value();
        if let Value::Map(entries) = &mut value {
            entries.insert(0, ("hop".into(), Value::U64(1)));
        }
        assert_eq!(Request::from_value(value).unwrap().args, vec![Value::Null]);

        let no_args = Value::Map(vec![
            ("id".into(), Value::from("a")),
            ("method".into(), Value::from("m")),
        ]);
        assert_eq!(
            Request::from_value(no_args),
            Err(WireError::MissingField("args".into()))
        );
        let no_value = BinaryCodec.encode(&Value::Map(vec![
            ("id".into(), Value::from("a")),
            ("ok".into(), Value::Bool(true)),
        ]));
        assert_eq!(
            read(&BinaryCodec, &no_value),
            Err(WireError::Invalid("response missing `value`".into()))
        );
        assert!(matches!(
            read(&BinaryCodec, &BinaryCodec.encode(&Value::U64(3))),
            Err(WireError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn decode_helpers_reject_garbage() {
        assert!(decode_request(&BinaryCodec, b"junk").is_err());
        let not_a_request = BinaryCodec.encode(&Value::I64(3));
        assert!(decode_request(&BinaryCodec, &not_a_request).is_err());
        let missing = BinaryCodec.encode(&Value::Map(vec![("id".into(), Value::from("x"))]));
        assert!(read(&BinaryCodec, &missing).is_err());
        for codec in [&BinaryCodec as &dyn Codec, &JsonCodec] {
            assert!(response_id(codec, b"junk").is_err());
            assert!(response_id(codec, &codec.encode(&Value::Map(vec![]))).is_err());
        }
    }

    #[test]
    fn fresh_ids_are_unique() {
        let a = fresh_id();
        let b = fresh_id();
        assert_ne!(a, b);
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            any::<u64>().prop_map(Value::U64),
            ".{0,12}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
        ];
        leaf.prop_recursive(3, 24, 5, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::List),
                proptest::collection::vec((".{0,6}", inner), 0..5).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_request_survives_the_envelope_and_keeps_its_bytes(
            id in ".{0,10}",
            method in "[a-z_]{0,16}",
            args in proptest::collection::vec(arb_value(), 0..4),
        ) {
            let request = Request { id, method, args };
            let lowered = request.clone().into_value();
            prop_assert_eq!(
                BinaryCodec.encode(&lowered),
                BinaryCodec.encode(&request_reference(&request))
            );
            prop_assert_eq!(Request::from_value(lowered).unwrap(), request);
        }

        #[test]
        fn prop_response_survives_the_envelope_and_keeps_its_bytes(
            id in ".{0,10}",
            outcome in prop_oneof![
                arb_value().prop_map(Ok),
                ".{0,20}".prop_map(Err),
            ],
        ) {
            for codec in [&BinaryCodec as &dyn Codec, &JsonCodec] {
                let bytes = written(codec, &id, &outcome);
                let tree = response_reference(&id, &outcome);
                prop_assert_eq!(&bytes, &codec.encode(&tree));
                let decoded = codec.decode(&bytes).unwrap();
                let expected = match &outcome {
                    Ok(_) => Ok(decoded.field("value").unwrap().clone()),
                    Err(m) => Err(m.clone()),
                };
                prop_assert_eq!(response_id(codec, &bytes), Ok(id.clone()));
                prop_assert_eq!(read(codec, &bytes), Ok(expected));
            }
        }
    }
}
