//! Field-by-field JSON codecs ([`JsonCodec`]) for every record the
//! workspace writes and reads back: a [`RunResult`] in a cache entry,
//! a ledger row or a serve reply, and the [`DtmConfig`] and
//! [`FaultConfig`] a `simulate` request carries. The workspace serde is
//! a marker-trait stub (see `vendor/README.md`).
//!
//! [`struct_codec!`] writes every struct field under its Rust name, in
//! the order it lists them, and leaves an `Option` field out when it is
//! `None`. Reading back requires every other field, reads an absent
//! `Option` field as `None`, and rejects an unknown or repeated field,
//! so a foreign cache entry reads as a miss. Floats use
//! shortest-round-trip formatting, so decode(encode(r)) is
//! bit-identical to `r` — the property the result cache and the wire
//! rely on.
//!
//! Every codec decodes two ways with one strictness: `from_json` from a
//! parsed [`Json`] tree (the serve protocol dispatches on one), and
//! `read` straight from a [`Reader`] with no tree (a warm cache hit).
//! [`struct_codec!`] generates both from one field list; `from_json`
//! is the reference `read` is tested against.

use crate::json::{Fields, Json, JsonError, Reader};
use dtm_core::{
    DtmConfig, FallbackKind, FaultConfig, FaultEvent, FaultKind, FaultScenario, FaultTarget,
    GainScheduleConfig, GainStats, PhaseNs, PhaseProfile, Robustness, RunResult, SteadyTempSummary,
    ThreadStats, WatchdogConfig,
};

/// Encodes a run result as a JSON object.
pub fn result_to_json(r: &RunResult) -> Json {
    r.to_json()
}

/// Decodes a run result from [`result_to_json`]'s layout.
///
/// # Errors
///
/// Fails on a missing, unknown or repeated field or a type mismatch
/// (e.g. a corrupt or foreign cache file).
pub fn result_from_json(v: &Json) -> Result<RunResult, JsonError> {
    RunResult::from_json(v)
}

/// A type with a field-by-field JSON encoding: every struct field
/// under its Rust name, every enum an object whose `type` names the
/// variant beside that variant's fields. The decoders require every
/// field but an absent `Option` one and reject any other.
pub trait JsonCodec: Sized {
    /// Encodes the value.
    fn to_json(&self) -> Json;

    /// Decodes [`JsonCodec::to_json`]'s layout.
    ///
    /// # Errors
    ///
    /// Fails on a missing, unknown or repeated field, an unknown
    /// variant, or a type mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Decodes the next value of `r`. A value's text decodes exactly
    /// when [`Json::parse`] and then [`JsonCodec::from_json`] accept
    /// it, to the same value. The default reads the value as a [`Json`]
    /// tree and calls `from_json`; [`struct_codec!`], `Vec` and the leaf
    /// types read it with no tree.
    ///
    /// # Errors
    ///
    /// Fails where `from_json` would, and on malformed text.
    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        Self::from_json(&Json::read(r)?)
    }
}

/// How [`struct_codec!`] writes and reads one field: always present,
/// except that an `Option` field is left out when `None` and reads as
/// `None` when absent. A bad value's error starts ``bad `name`: ``, so
/// an error deep in a record spells the path to its field.
pub trait JsonField: Sized {
    /// Appends the field `name`, or nothing for a `None`.
    fn put_field(&self, name: &str, pairs: &mut Vec<(String, Json)>);

    /// Reads the field `name`.
    ///
    /// # Errors
    ///
    /// Fails on a missing required field or a bad value.
    fn take_field(o: &mut Fields<'_>, name: &str) -> Result<Self, JsonError>;

    /// Reads the value of the field `name`, met for the first time in
    /// its object.
    ///
    /// # Errors
    ///
    /// Fails on a bad value.
    fn read_field(r: &mut Reader<'_>, name: &str) -> Result<Self, JsonError>;

    /// The field `name` once its object is closed, from the value
    /// [`JsonField::read_field`] read, if the field was there.
    ///
    /// # Errors
    ///
    /// Fails on a missing required field.
    fn end_field(read: Option<Self>, name: &str) -> Result<Self, JsonError>;
}

/// Prefixes an error in the value of the field `name` with that name.
fn in_field(name: &str) -> impl FnOnce(JsonError) -> JsonError + '_ {
    move |e| JsonError(format!("bad `{name}`: {}", e.0))
}

impl<T: JsonCodec> JsonField for T {
    fn put_field(&self, name: &str, pairs: &mut Vec<(String, Json)>) {
        pairs.push((name.into(), self.to_json()));
    }
    fn take_field(o: &mut Fields<'_>, name: &str) -> Result<Self, JsonError> {
        T::from_json(o.req(name)?).map_err(in_field(name))
    }
    fn read_field(r: &mut Reader<'_>, name: &str) -> Result<Self, JsonError> {
        T::read(r).map_err(in_field(name))
    }
    fn end_field(read: Option<Self>, name: &str) -> Result<Self, JsonError> {
        read.ok_or_else(|| JsonError(format!("missing field `{name}`")))
    }
}

impl<T: JsonCodec> JsonField for Option<T> {
    fn put_field(&self, name: &str, pairs: &mut Vec<(String, Json)>) {
        if let Some(v) = self {
            v.put_field(name, pairs);
        }
    }
    fn take_field(o: &mut Fields<'_>, name: &str) -> Result<Self, JsonError> {
        o.opt(name)
            .map(|v| T::from_json(v).map_err(in_field(name)))
            .transpose()
    }
    fn read_field(r: &mut Reader<'_>, name: &str) -> Result<Self, JsonError> {
        T::read_field(r, name).map(Some)
    }
    fn end_field(read: Option<Self>, _: &str) -> Result<Self, JsonError> {
        Ok(read.flatten())
    }
}

/// Implements [`JsonCodec`] for a leaf type from its [`Json`]
/// constructor and accessor and its [`Reader`] read.
macro_rules! leaf_codec {
    ($($ty:ty: $enc:path, $dec:ident, $read:ident;)*) => {$(
        impl JsonCodec for $ty {
            fn to_json(&self) -> Json {
                $enc(self.to_owned())
            }
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                v.$dec().map(Into::into)
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
                r.$read().map(Into::into)
            }
        }
    )*};
}

leaf_codec! {
    f64: Json::f64, as_f64, f64;
    u64: Json::u64, as_u64, u64;
    bool: Json::Bool, as_bool, bool;
    String: Json::str, as_str, str;
}

impl JsonCodec for usize {
    fn to_json(&self) -> Json {
        Json::usize(*self)
    }
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_usize()
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        Ok(r.u64()? as usize)
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.array()?;
        let mut items = Vec::new();
        while r.elem()? {
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

/// Implements [`JsonCodec`] for a struct from its field list, which is
/// also the order the fields are written in; each field goes through
/// [`JsonField`]. Every direction names every field without `..`, so a
/// field missing from the list is a compile error.
///
/// `read` gives each field a slot that its first spelling in the
/// object fills; a second spelling, an unknown key or a required
/// field's empty slot at the `}` is an error, which is what
/// `from_json`'s read mask rejects. A struct has at most 64 fields, so
/// an object of more has an unknown or repeated key.
#[macro_export]
macro_rules! struct_codec {
    ($ty:ident; $($field:ident),* $(,)?) => {
        const _: () = assert!(
            [$(stringify!($field)),*].len() <= 64,
            "a read mask holds 64 fields"
        );

        impl $crate::codec::JsonCodec for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let $ty { $($field),* } = self;
                let mut pairs = Vec::with_capacity([$(stringify!($field)),*].len());
                $($crate::codec::JsonField::put_field($field, stringify!($field), &mut pairs);)*
                $crate::json::Json::Obj(pairs)
            }
            fn from_json(
                v: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                let mut o = v.fields()?;
                let decoded = $ty {
                    $($field: $crate::codec::JsonField::take_field(&mut o, stringify!($field))?),*
                };
                o.end()?;
                Ok(decoded)
            }
            fn read(
                r: &mut $crate::json::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                $(let mut $field = None;)*
                r.object()?;
                while let Some(name) = r.key()? {
                    match &*name {
                        $(stringify!($field) if $field.is_none() => {
                            $field = Some($crate::codec::JsonField::read_field(
                                r,
                                stringify!($field),
                            )?);
                        })*
                        other => {
                            return Err($crate::json::JsonError(format!(
                                "unknown or repeated field `{other}`"
                            )))
                        }
                    }
                }
                Ok($ty {
                    $($field: $crate::codec::JsonField::end_field($field, stringify!($field))?),*
                })
            }
        }
    };
}

pub use struct_codec;

/// Implements [`JsonCodec`] for an enum from its variant list; the
/// encoder's `match` makes a variant missing from the list a compile
/// error.
macro_rules! enum_codec {
    ($ty:ident; $($variant:ident $({ $($field:ident),* })?),* $(,)?) => {
        impl JsonCodec for $ty {
            fn to_json(&self) -> Json {
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        #[allow(unused_mut)]
                        let mut pairs = vec![("type".to_string(), Json::str(stringify!($variant)))];
                        $($(pairs.push((stringify!($field).into(), $field.to_json()));)*)?
                        Json::Obj(pairs)
                    })*
                }
            }
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let mut o = v.fields()?;
                let decoded = match o.req("type")?.as_str()? {
                    $(stringify!($variant) => $ty::$variant $({
                        $($field: JsonField::take_field(&mut o, stringify!($field))?),*
                    })?,)*
                    other => {
                        return Err(JsonError(format!("unknown {} `{other}`", stringify!($ty))))
                    }
                };
                o.end()?;
                Ok(decoded)
            }
        }
    };
}

struct_codec!(RunResult; duration, cores, instructions, duty_cycle, max_temp, emergency_time,
    migrations, dvfs_transitions, stalls, energy, robustness, threads, steady, phases, gain_stats);
struct_codec!(Robustness; violation_time, peak_overshoot, false_throttle_time, fallback_time,
    fallback_entries, fallback_exits, watchdog_flags);
struct_codec!(ThreadStats; instructions, scaled_work, migrations);
struct_codec!(SteadyTempSummary; mean, min, max);
struct_codec!(PhaseProfile; steps, phases);
struct_codec!(PhaseNs; name, ns);
struct_codec!(GainStats; kp_min, kp_max, ki_min, ki_max, adaptations);
struct_codec!(DtmConfig; threshold, stopgo_trip_margin, stopgo_stall, dvfs_setpoint_margin,
    dvfs_min_scale, dvfs_min_transition, dvfs_transition_penalty, migration_penalty, os_tick,
    migration_interval, pi_kp, pi_ki, gain_schedule);
enum_codec!(GainScheduleConfig; Fixed, Rao { alpha, tau_s }, SelfTuning { rate, window_s });
struct_codec!(FaultConfig; scenario, watchdog);
struct_codec!(FaultScenario; name, events);
struct_codec!(FaultEvent; start, end, target, kind);
enum_codec!(FaultTarget; Sensor { core, index }, Core { core }, Chip);
enum_codec!(FaultKind; SensorStuck { value }, SensorDrift { rate }, SensorDropout,
    SensorSpike { amplitude }, SensorStale { delay }, DvfsStuck, GateIgnored);
struct_codec!(WatchdogConfig; enabled, max_step, max_deviation, fallback, min_hold);
enum_codec!(FallbackKind; FreqFloor, StopGoLastGood);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            duration: 0.5,
            cores: 4,
            instructions: 5.678e9 + 1.0 / 3.0,
            duty_cycle: 0.815_372_910_4,
            max_temp: 84.199_999_999_9,
            emergency_time: 0.0,
            migrations: 17,
            dvfs_transitions: 12_345,
            stalls: 3,
            energy: 22.25,
            robustness: Robustness {
                violation_time: 0.012_5,
                peak_overshoot: 1.375 + 1.0 / 9.0,
                false_throttle_time: 0.031,
                fallback_time: 0.25,
                fallback_entries: 2,
                fallback_exits: 1,
                watchdog_flags: 4_321,
            },
            steady: Some(SteadyTempSummary {
                mean: 83.337_5 + 1.0 / 7.0,
                min: 82.9,
                max: 84.125,
            }),
            phases: Some(PhaseProfile {
                steps: 18_000,
                phases: vec![
                    PhaseNs {
                        name: "microarch".into(),
                        ns: 123_456_789,
                    },
                    PhaseNs {
                        name: "thermal".into(),
                        ns: 987_654_321,
                    },
                ],
            }),
            gain_stats: Some(GainStats {
                kp_min: 0.0107 * 0.75,
                kp_max: 0.0107 * (1.0 + 1.0 / 3.0),
                ki_min: 248.5 * 0.75,
                ki_max: 248.5 * (1.0 + 1.0 / 3.0),
                adaptations: 7_654,
            }),
            threads: vec![
                ThreadStats {
                    instructions: 1.5e9,
                    scaled_work: 0.41,
                    migrations: 5,
                },
                ThreadStats::default(),
            ],
        }
    }

    /// `text` decoded both ways: `from_json` over a parsed tree, and
    /// `read` straight from the text.
    fn decodings(text: &str) -> [Result<RunResult, JsonError>; 2] {
        let mut r = Reader::new(text);
        [
            Json::parse(text).and_then(|v| result_from_json(&v)),
            RunResult::read(&mut r).and_then(|v| r.finish().map(|()| v)),
        ]
    }

    #[test]
    fn round_trip_is_equal() {
        let r = sample();
        for back in decodings(&result_to_json(&r).emit()) {
            assert_eq!(r, back.unwrap());
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let r = sample();
        for back in decodings(&result_to_json(&r).emit()) {
            assert_bits_equal(&r, &back.unwrap());
        }
    }

    /// Fails unless `back` is `r` with every float `sample` spells with
    /// many digits at the same bits.
    fn assert_bits_equal(r: &RunResult, back: &RunResult) {
        for (a, b) in [
            (r.instructions, back.instructions),
            (r.duty_cycle, back.duty_cycle),
            (r.max_temp, back.max_temp),
            (r.energy, back.energy),
            (r.threads[0].scaled_work, back.threads[0].scaled_work),
            (r.robustness.peak_overshoot, back.robustness.peak_overshoot),
            (r.robustness.violation_time, back.robustness.violation_time),
            (r.steady.unwrap().mean, back.steady.unwrap().mean),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.robustness, back.robustness);
        assert_eq!(r.steady, back.steady);
        assert_eq!(r.phases, back.phases);
        assert_eq!(r.gain_stats, back.gain_stats);
        let (g, bg) = (r.gain_stats.unwrap(), back.gain_stats.unwrap());
        assert_eq!(g.kp_max.to_bits(), bg.kp_max.to_bits());
        assert_eq!(g.ki_max.to_bits(), bg.ki_max.to_bits());
    }

    #[test]
    fn pre_observability_entries_decode_without_steady_or_phases() {
        // An entry written before the observability subsystem existed:
        // strip both new objects and check the decode yields `None`s.
        let mut encoded = result_to_json(&sample());
        if let Json::Obj(fields) = &mut encoded {
            fields.retain(|(k, _)| k != "steady" && k != "phases");
        }
        for back in decodings(&encoded.emit()) {
            let back = back.unwrap();
            assert_eq!(back.steady, None);
            assert_eq!(back.phases, None);
            assert_eq!(back.robustness, sample().robustness);
        }
    }

    #[test]
    fn unprofiled_results_encode_without_optional_objects() {
        let r = RunResult {
            steady: None,
            phases: None,
            gain_stats: None,
            ..sample()
        };
        let text = result_to_json(&r).emit();
        assert!(!text.contains("\"steady\""));
        assert!(!text.contains("\"phases\""));
        assert!(!text.contains("\"gain_stats\""));
        for back in decodings(&text) {
            assert_eq!(back.unwrap(), r);
        }
    }

    #[test]
    fn pre_adaptive_entries_decode_without_gain_stats() {
        // A fixed-gain result has no gain_stats object: strip it and
        // check the decode yields `None`.
        let mut encoded = result_to_json(&sample());
        if let Json::Obj(fields) = &mut encoded {
            fields.retain(|(k, _)| k != "gain_stats");
        }
        for back in decodings(&encoded.emit()) {
            let back = back.unwrap();
            assert_eq!(back.gain_stats, None);
            assert_eq!(back.robustness, sample().robustness);
            assert_eq!(back.steady, sample().steady);
        }
    }

    #[test]
    fn bad_values_name_their_field_path() {
        let text = result_to_json(&sample()).emit().replacen(
            r#""violation_time":0.0125"#,
            r#""violation_time":"x""#,
            1,
        );
        for decoded in decodings(&text) {
            let err = decoded.unwrap_err();
            let path = "bad `robustness`: bad `violation_time`: ";
            assert!(err.0.starts_with(path), "{err}");
        }
    }

    #[test]
    fn corrupt_layouts_are_errors() {
        for text in ["{}", "{\"duration\":\"x\"}"] {
            assert!(decodings(text).iter().all(Result::is_err), "{text}");
        }
        // Decoding is strict: an unknown or repeated field at any
        // level (an optional one included) and an object too wide for
        // the read mask are errors.
        let with = |path: &[&str], pair: (&str, Json)| {
            let mut v = result_to_json(&sample());
            let mut obj = &mut v;
            for key in path {
                let Json::Obj(pairs) = obj else {
                    unreachable!()
                };
                obj = &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1;
            }
            let Json::Obj(pairs) = obj else {
                unreachable!()
            };
            pairs.push((pair.0.into(), pair.1));
            decodings(&v.emit())
        };
        for (path, pair) in [
            (&[][..], ("quantum_lanes", Json::u64(64))),
            (&[], ("stalls", Json::u64(3))),
            (&[], ("steady", Json::Null)),
            (&["robustness"], ("fallback_exits", Json::u64(1))),
            (&["gain_stats"], ("kd_max", Json::f64(0.5))),
        ] {
            for decoded in with(path, pair.clone()) {
                let err = decoded.unwrap_err();
                assert!(err.0.contains("field"), "{path:?} + {pair:?}: {err}");
            }
        }
        let bare = RunResult {
            steady: None,
            ..sample()
        };
        let mut wide = result_to_json(&bare);
        if let Json::Obj(pairs) = &mut wide {
            pairs.extend((0..52).map(|i| (format!("pad{i}"), Json::Null)));
        }
        let err = result_from_json(&wide).unwrap_err();
        assert!(err.0.contains("exceeds 64"), "{err}");
        let [tree, read] = decodings(&wide.emit());
        assert_eq!(tree, Err(err));
        assert!(read
            .unwrap_err()
            .0
            .contains("unknown or repeated field `pad0`"));
    }

    #[test]
    fn result_bytes_are_pinned() {
        // The bytes every cache entry, ledger row and `result` frame
        // holds; a change here orphans every stored result.
        let full = concat!(
            r#"{"duration":0.5,"cores":4,"instructions":5678000000.333333,"#,
            r#""duty_cycle":0.8153729104,"max_temp":84.1999999999,"emergency_time":0.0,"#,
            r#""migrations":17,"dvfs_transitions":12345,"stalls":3,"energy":22.25,"#,
            r#""robustness":{"violation_time":0.0125,"peak_overshoot":1.4861111111111112,"#,
            r#""false_throttle_time":0.031,"fallback_time":0.25,"fallback_entries":2,"#,
            r#""fallback_exits":1,"watchdog_flags":4321},"#,
            r#""threads":[{"instructions":1500000000.0,"scaled_work":0.41,"migrations":5},"#,
            r#"{"instructions":0.0,"scaled_work":0.0,"migrations":0}],"#,
            r#""steady":{"mean":83.48035714285714,"min":82.9,"max":84.125},"#,
            r#""phases":{"steps":18000,"phases":[{"name":"microarch","ns":123456789},"#,
            r#"{"name":"thermal","ns":987654321}]},"#,
            r#""gain_stats":{"kp_min":0.008025,"kp_max":0.014266666666666665,"#,
            r#""ki_min":186.375,"ki_max":331.3333333333333,"adaptations":7654}}"#,
        );
        assert_eq!(result_to_json(&sample()).emit(), full);
        for back in decodings(full) {
            assert_bits_equal(&sample(), &back.unwrap());
        }
        let bare = RunResult {
            steady: None,
            phases: None,
            gain_stats: None,
            ..sample()
        };
        let bare_bytes = concat!(
            r#"{"duration":0.5,"cores":4,"instructions":5678000000.333333,"#,
            r#""duty_cycle":0.8153729104,"max_temp":84.1999999999,"emergency_time":0.0,"#,
            r#""migrations":17,"dvfs_transitions":12345,"stalls":3,"energy":22.25,"#,
            r#""robustness":{"violation_time":0.0125,"peak_overshoot":1.4861111111111112,"#,
            r#""false_throttle_time":0.031,"fallback_time":0.25,"fallback_entries":2,"#,
            r#""fallback_exits":1,"watchdog_flags":4321},"#,
            r#""threads":[{"instructions":1500000000.0,"scaled_work":0.41,"migrations":5},"#,
            r#"{"instructions":0.0,"scaled_work":0.0,"migrations":0}]}"#,
        );
        assert_eq!(result_to_json(&bare).emit(), bare_bytes);
        for back in decodings(bare_bytes) {
            assert_eq!(back.unwrap(), bare);
        }
    }
}
