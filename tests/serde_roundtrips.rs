//! Serde coverage for the data-structure types (C-SERDE): device
//! descriptions, metric snapshots and scan specs serialize through the
//! serde data model with the expected field names and stable output.
//!
//! No serialization-format crate is in the sanctioned dependency set, so
//! these tests drive the `Serialize` impls directly into a small
//! loosely-typed value tree implemented below.

use gpu_sim::{DeviceSpec, MetricsSnapshot};
use sam_core::ScanSpec;
use serde::Serialize;

/// A minimal owned serde target: structs become string-keyed maps,
/// sequences become vectors — enough to inspect what the derives emit.
mod tree {
    use serde::ser::{self, Serialize};
    use std::collections::BTreeMap;

    /// An owned, loosely-typed serde tree.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Unit,
        Bool(bool),
        I64(i64),
        U64(u64),
        F64(f64),
        Str(String),
        Seq(Vec<Value>),
        Map(BTreeMap<String, Value>),
    }

    #[derive(Debug)]
    pub struct Error(String);
    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
    impl std::error::Error for Error {}
    impl ser::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    /// Serializes any `Serialize` into the tree.
    pub fn to_value<T: Serialize>(v: &T) -> Result<Value, Error> {
        v.serialize(Serializer)
    }

    struct Serializer;
    struct SeqSer(Vec<Value>);
    struct MapSer(BTreeMap<String, Value>, Option<String>);

    impl ser::Serializer for Serializer {
        type Ok = Value;
        type Error = Error;
        type SerializeSeq = SeqSer;
        type SerializeTuple = SeqSer;
        type SerializeTupleStruct = SeqSer;
        type SerializeTupleVariant = SeqSer;
        type SerializeMap = MapSer;
        type SerializeStruct = MapSer;
        type SerializeStructVariant = MapSer;

        fn serialize_bool(self, v: bool) -> Result<Value, Error> {
            Ok(Value::Bool(v))
        }
        fn serialize_i8(self, v: i8) -> Result<Value, Error> {
            Ok(Value::I64(v.into()))
        }
        fn serialize_i16(self, v: i16) -> Result<Value, Error> {
            Ok(Value::I64(v.into()))
        }
        fn serialize_i32(self, v: i32) -> Result<Value, Error> {
            Ok(Value::I64(v.into()))
        }
        fn serialize_i64(self, v: i64) -> Result<Value, Error> {
            Ok(Value::I64(v))
        }
        fn serialize_u8(self, v: u8) -> Result<Value, Error> {
            Ok(Value::U64(v.into()))
        }
        fn serialize_u16(self, v: u16) -> Result<Value, Error> {
            Ok(Value::U64(v.into()))
        }
        fn serialize_u32(self, v: u32) -> Result<Value, Error> {
            Ok(Value::U64(v.into()))
        }
        fn serialize_u64(self, v: u64) -> Result<Value, Error> {
            Ok(Value::U64(v))
        }
        fn serialize_f32(self, v: f32) -> Result<Value, Error> {
            Ok(Value::F64(v.into()))
        }
        fn serialize_f64(self, v: f64) -> Result<Value, Error> {
            Ok(Value::F64(v))
        }
        fn serialize_char(self, v: char) -> Result<Value, Error> {
            Ok(Value::Str(v.to_string()))
        }
        fn serialize_str(self, v: &str) -> Result<Value, Error> {
            Ok(Value::Str(v.to_string()))
        }
        fn serialize_bytes(self, v: &[u8]) -> Result<Value, Error> {
            Ok(Value::Seq(
                v.iter().map(|&b| Value::U64(b.into())).collect(),
            ))
        }
        fn serialize_none(self) -> Result<Value, Error> {
            Ok(Value::Unit)
        }
        fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<Value, Error> {
            v.serialize(Serializer)
        }
        fn serialize_unit(self) -> Result<Value, Error> {
            Ok(Value::Unit)
        }
        fn serialize_unit_struct(self, _: &'static str) -> Result<Value, Error> {
            Ok(Value::Unit)
        }
        fn serialize_unit_variant(
            self,
            _: &'static str,
            _: u32,
            variant: &'static str,
        ) -> Result<Value, Error> {
            Ok(Value::Str(variant.to_string()))
        }
        fn serialize_newtype_struct<T: Serialize + ?Sized>(
            self,
            _: &'static str,
            v: &T,
        ) -> Result<Value, Error> {
            v.serialize(Serializer)
        }
        fn serialize_newtype_variant<T: Serialize + ?Sized>(
            self,
            _: &'static str,
            _: u32,
            variant: &'static str,
            v: &T,
        ) -> Result<Value, Error> {
            let mut m = BTreeMap::new();
            m.insert(variant.to_string(), v.serialize(Serializer)?);
            Ok(Value::Map(m))
        }
        fn serialize_seq(self, _: Option<usize>) -> Result<SeqSer, Error> {
            Ok(SeqSer(Vec::new()))
        }
        fn serialize_tuple(self, _: usize) -> Result<SeqSer, Error> {
            Ok(SeqSer(Vec::new()))
        }
        fn serialize_tuple_struct(self, _: &'static str, _: usize) -> Result<SeqSer, Error> {
            Ok(SeqSer(Vec::new()))
        }
        fn serialize_tuple_variant(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
            _: usize,
        ) -> Result<SeqSer, Error> {
            Ok(SeqSer(Vec::new()))
        }
        fn serialize_map(self, _: Option<usize>) -> Result<MapSer, Error> {
            Ok(MapSer(BTreeMap::new(), None))
        }
        fn serialize_struct(self, _: &'static str, _: usize) -> Result<MapSer, Error> {
            Ok(MapSer(BTreeMap::new(), None))
        }
        fn serialize_struct_variant(
            self,
            _: &'static str,
            _: u32,
            _: &'static str,
            _: usize,
        ) -> Result<MapSer, Error> {
            Ok(MapSer(BTreeMap::new(), None))
        }
    }

    impl ser::SerializeSeq for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Error> {
            self.0.push(v.serialize(Serializer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Seq(self.0))
        }
    }
    impl ser::SerializeTuple for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, v)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }
    impl ser::SerializeTupleStruct for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, v)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }
    impl ser::SerializeTupleVariant for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, v)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }
    impl ser::SerializeMap for MapSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_key<T: Serialize + ?Sized>(&mut self, k: &T) -> Result<(), Error> {
            match k.serialize(Serializer)? {
                Value::Str(s) => {
                    self.1 = Some(s);
                    Ok(())
                }
                other => {
                    self.1 = Some(format!("{other:?}"));
                    Ok(())
                }
            }
        }
        fn serialize_value<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Error> {
            let key = self.1.take().expect("key before value");
            self.0.insert(key, v.serialize(Serializer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Map(self.0))
        }
    }
    impl ser::SerializeStruct for MapSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            k: &'static str,
            v: &T,
        ) -> Result<(), Error> {
            self.0.insert(k.to_string(), v.serialize(Serializer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Map(self.0))
        }
    }
    impl ser::SerializeStructVariant for MapSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            k: &'static str,
            v: &T,
        ) -> Result<(), Error> {
            ser::SerializeStruct::serialize_field(self, k, v)
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Map(self.0))
        }
    }
}

/// Serializing twice yields the identical tree (serialization is a pure
/// function of the value), and key fields land where expected.
fn assert_stable<T: Serialize>(value: &T) {
    let a = tree::to_value(value).expect("serializes");
    let b = tree::to_value(value).expect("serializes again");
    assert_eq!(a, b);
}

#[test]
fn device_spec_serializes_stably_with_expected_fields() {
    let spec = DeviceSpec::titan_x();
    assert_stable(&spec);
    let tree::Value::Map(m) = tree::to_value(&spec).expect("serializes") else {
        panic!("device spec should serialize as a map");
    };
    assert_eq!(m.get("sms"), Some(&tree::Value::U64(24)));
    assert_eq!(
        m.get("generation"),
        Some(&tree::Value::Str("Maxwell".into()))
    );
    assert!(m.contains_key("peak_bandwidth_gbs"));
}

#[test]
fn metrics_snapshot_serializes_all_counters() {
    let snap = MetricsSnapshot {
        elem_read_words: 7,
        kernel_launches: 3,
        ..Default::default()
    };
    assert_stable(&snap);
    let tree::Value::Map(m) = tree::to_value(&snap).expect("serializes") else {
        panic!("snapshot should serialize as a map");
    };
    assert_eq!(m.get("elem_read_words"), Some(&tree::Value::U64(7)));
    assert_eq!(m.get("kernel_launches"), Some(&tree::Value::U64(3)));
    assert_eq!(m.len(), 14, "every counter is serialized");
}

#[test]
fn carry_state_serializes_checkpoint_fields() {
    use sam_core::op::Sum;
    use sam_core::plan::{PlanHint, ScanPlan};
    use sam_core::Engine;

    let spec = ScanSpec::inclusive()
        .with_order(2)
        .unwrap()
        .with_tuple(2)
        .unwrap();
    let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());
    let mut session = plan.session::<i64, _>(Sum);
    session.feed(&[1, 2, 3, 4, 5]);
    let checkpoint = session.carry_state();
    assert_stable(&checkpoint);
    let tree::Value::Map(m) = tree::to_value(&checkpoint).expect("serializes") else {
        panic!("carry state should serialize as a map");
    };
    assert_eq!(m.get("kind"), Some(&tree::Value::Str("Inclusive".into())));
    assert_eq!(m.get("order"), Some(&tree::Value::U64(2)));
    assert_eq!(m.get("tuple"), Some(&tree::Value::U64(2)));
    assert_eq!(m.get("elements_seen"), Some(&tree::Value::U64(5)));
    match m.get("state") {
        Some(tree::Value::Seq(lanes)) => {
            assert_eq!(lanes.len(), 4, "order * tuple lane sums");
        }
        other => panic!("state should serialize as a sequence, got {other:?}"),
    }
}

#[test]
fn scan_spec_serializes_kind_order_tuple() {
    let spec = ScanSpec::exclusive()
        .with_order(3)
        .unwrap()
        .with_tuple(5)
        .unwrap();
    assert_stable(&spec);
    let tree::Value::Map(m) = tree::to_value(&spec).expect("serializes") else {
        panic!("scan spec should serialize as a map");
    };
    assert_eq!(m.get("order"), Some(&tree::Value::U64(3)));
    assert_eq!(m.get("tuple"), Some(&tree::Value::U64(5)));
    assert_eq!(m.get("kind"), Some(&tree::Value::Str("Exclusive".into())));
}
