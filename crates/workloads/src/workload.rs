//! The study's 12 four-process workloads (Table 4).

use crate::profiles::{benchmark, lookup, Benchmark, Suite};
use serde::{Deserialize, Serialize};

/// A multiprogrammed workload: one benchmark per initial core.
///
/// The study's grids use four-process mixes (Table 4); single-process
/// workloads (e.g. the Table 1 thermal characterization, one benchmark
/// on one core) use [`Workload::solo`]. The `Debug` representation of
/// a `Vec<String>` is identical to the `[String; 4]` it replaced, so
/// content-addressed cache keys for four-process cells are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    /// Identifier, e.g. `workload7`.
    pub id: String,
    /// Benchmark names, in initial core order.
    pub benchmarks: Vec<String>,
}

impl Workload {
    /// Creates a workload from four benchmark names.
    ///
    /// # Panics
    ///
    /// Panics if any name is not in the catalog.
    pub fn new(id: impl Into<String>, names: [&str; 4]) -> Self {
        Self::from_names(id, &names)
    }

    /// Creates a workload from any number of benchmark names.
    ///
    /// # Panics
    ///
    /// Panics if any name is not in the catalog, or if `names` is
    /// empty.
    pub fn from_names(id: impl Into<String>, names: &[&str]) -> Self {
        assert!(!names.is_empty(), "workload needs at least one benchmark");
        for n in names {
            assert!(lookup(n).is_some(), "unknown benchmark `{n}`");
        }
        Workload {
            id: id.into(),
            benchmarks: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// A single-process workload named after its benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the name is not in the catalog.
    pub fn solo(name: &str) -> Self {
        Self::from_names(name, &[name])
    }

    /// Non-panicking [`Workload::from_names`] for untrusted input (a
    /// network request naming benchmarks): unknown names and empty
    /// lists are `Err`s describing the problem.
    ///
    /// # Errors
    ///
    /// Names the first benchmark missing from the catalog.
    pub fn try_from_names(id: impl Into<String>, names: &[String]) -> Result<Self, String> {
        if names.is_empty() {
            return Err("workload needs at least one benchmark".into());
        }
        if let Some(n) = names.iter().find(|n| lookup(n).is_none()) {
            return Err(format!("unknown benchmark `{n}`"));
        }
        Ok(Workload {
            id: id.into(),
            benchmarks: names.to_vec(),
        })
    }

    /// Looks up one of the study's 12 standard workloads by id
    /// (`workload1` … `workload12`) or by hyphenated display name.
    pub fn standard(name: &str) -> Option<Self> {
        standard_workloads()
            .into_iter()
            .find(|w| w.id == name || w.display_name() == name)
    }

    /// The resolved benchmark descriptions.
    pub fn resolve(&self) -> Vec<Benchmark> {
        self.benchmarks.iter().map(|n| benchmark(n)).collect()
    }

    /// Mix label in the paper's style, e.g. `IIFF`.
    pub fn mix_label(&self) -> String {
        self.resolve().iter().map(|b| b.suite.tag()).collect()
    }

    /// Hyphenated display name, e.g. `gzip-twolf-ammp-lucas`.
    pub fn display_name(&self) -> String {
        self.benchmarks.join("-")
    }

    /// Number of integer benchmarks in the mix.
    pub fn int_count(&self) -> usize {
        self.resolve()
            .iter()
            .filter(|b| b.suite == Suite::Int)
            .count()
    }
}

/// The 12 workloads of Table 4, in order.
pub fn standard_workloads() -> Vec<Workload> {
    vec![
        Workload::new("workload1", ["gcc", "gzip", "mcf", "vpr"]),
        Workload::new("workload2", ["crafty", "eon", "parser", "perlbmk"]),
        Workload::new("workload3", ["bzip2", "gzip", "twolf", "swim"]),
        Workload::new("workload4", ["crafty", "perlbmk", "vpr", "mgrid"]),
        Workload::new("workload5", ["gcc", "parser", "applu", "mesa"]),
        Workload::new("workload6", ["bzip2", "eon", "art", "facerec"]),
        Workload::new("workload7", ["gzip", "twolf", "ammp", "lucas"]),
        Workload::new("workload8", ["parser", "vpr", "fma3d", "sixtrack"]),
        Workload::new("workload9", ["gcc", "applu", "mgrid", "swim"]),
        Workload::new("workload10", ["mcf", "ammp", "art", "mesa"]),
        Workload::new("workload11", ["ammp", "facerec", "fma3d", "swim"]),
        Workload::new("workload12", ["art", "lucas", "mgrid", "sixtrack"]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_twelve_workloads() {
        assert_eq!(standard_workloads().len(), 12);
    }

    #[test]
    fn mix_labels_match_table4() {
        let expected = [
            "IIII", "IIII", "IIIF", "IIIF", "IIFF", "IIFF", "IIFF", "IIFF", "IFFF", "IFFF", "FFFF",
            "FFFF",
        ];
        for (w, e) in standard_workloads().iter().zip(expected) {
            assert_eq!(w.mix_label(), e, "{}", w.id);
        }
    }

    #[test]
    fn try_from_names_rejects_unknown_benchmarks() {
        let ok = Workload::try_from_names("w", &["gzip".to_string(), "mcf".to_string()]).unwrap();
        assert_eq!(ok.resolve().len(), 2);
        assert!(Workload::try_from_names("w", &[]).is_err());
        let err = Workload::try_from_names("w", &["quake3".to_string()]).unwrap_err();
        assert!(err.contains("quake3"), "{err}");
    }

    #[test]
    fn standard_lookup_by_id_and_display_name() {
        let by_id = Workload::standard("workload7").unwrap();
        assert_eq!(by_id.display_name(), "gzip-twolf-ammp-lucas");
        let by_name = Workload::standard("gzip-twolf-ammp-lucas").unwrap();
        assert_eq!(by_id, by_name);
        assert!(Workload::standard("workload13").is_none());
    }

    #[test]
    fn workload7_is_the_migration_case_study() {
        let w = &standard_workloads()[6];
        assert_eq!(w.display_name(), "gzip-twolf-ammp-lucas");
    }

    #[test]
    fn int_count_decreases_down_the_table() {
        let counts: Vec<usize> = standard_workloads().iter().map(|w| w.int_count()).collect();
        assert_eq!(counts, vec![4, 4, 3, 3, 2, 2, 2, 2, 1, 1, 0, 0]);
    }

    #[test]
    fn ids_are_unique() {
        let ws = standard_workloads();
        for (i, a) in ws.iter().enumerate() {
            for b in &ws[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn bad_name_rejected() {
        Workload::new("x", ["gzip", "gzip", "gzip", "quake3"]);
    }

    #[test]
    fn solo_workload_resolves_one_benchmark() {
        let w = Workload::solo("sixtrack");
        assert_eq!(w.id, "sixtrack");
        assert_eq!(w.resolve().len(), 1);
        assert_eq!(w.mix_label(), "F");
        assert_eq!(w.display_name(), "sixtrack");
        assert_eq!(w.int_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_workload_rejected() {
        Workload::from_names("x", &[]);
    }

    #[test]
    fn vec_debug_matches_the_old_array_debug() {
        // The result-cache canonical representation embeds
        // `{:?}` of `benchmarks`; Vec and [String; 4] must print
        // identically or every four-process cache key changes.
        let v: Vec<String> = vec!["gcc".into(), "gzip".into(), "mcf".into(), "vpr".into()];
        let a: [String; 4] = ["gcc".into(), "gzip".into(), "mcf".into(), "vpr".into()];
        assert_eq!(format!("{v:?}"), format!("{a:?}"));
    }
}
