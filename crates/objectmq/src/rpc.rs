//! RPC envelopes: the request/response schema travelling through queues.

use wire::{Value, WireError, WireResult};

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

/// A remote invocation response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Correlates with [`Request::id`].
    pub id: String,
    /// `Ok(value)` on success, `Err(message)` when the remote object failed.
    pub outcome: Result<Value, String>,
}

impl Response {
    /// Lowers the response into the wire data model; the result moves into
    /// the value (a `get_changes` reply is thousands of items).
    pub fn into_value(self) -> Value {
        let mut entries = vec![("id".into(), Value::Str(self.id))];
        match self.outcome {
            Ok(v) => {
                entries.push(("ok".into(), Value::Bool(true)));
                entries.push(("value".into(), v));
            }
            Err(m) => {
                entries.push(("ok".into(), Value::Bool(false)));
                entries.push(("error".into(), Value::Str(m)));
            }
        }
        Value::Map(entries)
    }

    /// Parses a response from the wire data model, moving the result out of
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when required fields are missing or mistyped.
    pub fn from_value(mut value: Value) -> WireResult<Self> {
        let id = value.take_field("id")?.into_string()?;
        let ok = value.field("ok")?.as_bool()?;
        let outcome = if ok {
            Ok(value.take_field("value")?)
        } else {
            Err(value.take_field("error")?.into_string()?)
        };
        Ok(Response { id, outcome })
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

/// Validation helper: ensures a decoded value is a response.
pub(crate) fn decode_response(codec: &dyn wire::Codec, bytes: &[u8]) -> WireResult<Response> {
    Response::from_value(codec.decode(bytes)?).map_err(|e| match e {
        WireError::MissingField(f) => WireError::Invalid(format!("response missing `{f}`")),
        other => other,
    })
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

    /// The same for a response.
    fn response_reference(r: &Response) -> Value {
        let (ok, key, payload) = match &r.outcome {
            Ok(v) => (true, "value", v.clone()),
            Err(m) => (false, "error", Value::Str(m.clone())),
        };
        Value::Map(vec![
            ("id".into(), Value::Str(r.id.clone())),
            ("ok".into(), Value::Bool(ok)),
            (key.into(), payload),
        ])
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
        let ok = Response {
            id: "a".into(),
            outcome: Ok(Value::from(5i64)),
        };
        let err = Response {
            id: "b".into(),
            outcome: Err("boom".into()),
        };
        assert_eq!(Response::from_value(ok.clone().into_value()).unwrap(), ok);
        assert_eq!(Response::from_value(err.clone().into_value()).unwrap(), err);
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
        let ok = Response {
            id: "inv-9".into(),
            outcome: Ok(Value::List(vec![
                Value::Map(vec![("item".into(), Value::U64(42))]),
                Value::Null,
            ])),
        };
        let err = Response {
            id: "b".into(),
            outcome: Err("boom".into()),
        };
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
            hex(&BinaryCodec.encode(&ok.clone().into_value())),
            "09030269640605696e762d39026f6b020576616c756508020901046974656d042a00"
        );
        assert_eq!(
            hex(&BinaryCodec.encode(&err.clone().into_value())),
            "0903026964060162026f6b01056572726f720604626f6f6d"
        );
        assert_eq!(
            JsonCodec.encode(&request.into_value()),
            br#"{"id":"inv-9","method":"commit_request","args":["ws-1",3,[{"$bytes":"010203"}]]}"#
        );
        assert_eq!(
            JsonCodec.encode(&ok.into_value()),
            br#"{"id":"inv-9","ok":true,"value":[{"item":42},null]}"#
        );
        assert_eq!(
            JsonCodec.encode(&err.into_value()),
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
        let no_value = Value::Map(vec![
            ("id".into(), Value::from("a")),
            ("ok".into(), Value::Bool(true)),
        ]);
        assert_eq!(
            Response::from_value(no_value),
            Err(WireError::MissingField("value".into()))
        );
        assert!(matches!(
            Response::from_value(Value::U64(3)),
            Err(WireError::MissingField(_))
        ));
    }

    #[test]
    fn decode_helpers_reject_garbage() {
        assert!(decode_request(&BinaryCodec, b"junk").is_err());
        let not_a_request = BinaryCodec.encode(&Value::I64(3));
        assert!(decode_request(&BinaryCodec, &not_a_request).is_err());
        let missing = BinaryCodec.encode(&Value::Map(vec![("id".into(), Value::from("x"))]));
        assert!(decode_response(&BinaryCodec, &missing).is_err());
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
            let response = Response { id, outcome };
            let lowered = response.clone().into_value();
            prop_assert_eq!(
                BinaryCodec.encode(&lowered),
                BinaryCodec.encode(&response_reference(&response))
            );
            prop_assert_eq!(Response::from_value(lowered).unwrap(), response);
        }
    }
}
