//! Name→scheduler registry.
//!
//! Before this module, three places kept their own algorithm tables: the
//! cli's `parse_algorithm` match, the sweep harness's factory calls and
//! the cross-validation tests' lineup loops. The registry is now the one
//! table mapping canonical labels (and their cli aliases) to
//! [`AlgorithmKind`]s and factory calls; [`make_scheduler`] remains the
//! low-level constructor behind it.

use crate::scheduler::{make_scheduler, AlgorithmKind, OneShotScheduler};

/// One registry row: the canonical label, its cli aliases and a short
/// description.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerEntry {
    /// The algorithm this row names.
    pub kind: AlgorithmKind,
    /// Canonical label — identical to [`AlgorithmKind::label`].
    pub label: &'static str,
    /// Accepted aliases (cli spellings).
    pub aliases: &'static [&'static str],
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
}

static ENTRIES: [SchedulerEntry; 6] = [
    SchedulerEntry {
        kind: AlgorithmKind::Ptas,
        label: "alg1-ptas",
        aliases: &["alg1", "ptas"],
        summary: "Algorithm 1 — shifting-strips PTAS (needs locations)",
    },
    SchedulerEntry {
        kind: AlgorithmKind::LocalGreedy,
        label: "alg2-central",
        aliases: &["alg2", "central"],
        summary: "Algorithm 2 — centralized local greedy",
    },
    SchedulerEntry {
        kind: AlgorithmKind::Distributed,
        label: "alg3-distributed",
        aliases: &["alg3", "distributed"],
        summary: "Algorithm 3 — distributed via message passing",
    },
    SchedulerEntry {
        kind: AlgorithmKind::Colorwave,
        label: "ca-colorwave",
        aliases: &["ca", "colorwave"],
        summary: "Colorwave baseline (graph coloring)",
    },
    SchedulerEntry {
        kind: AlgorithmKind::HillClimbing,
        label: "ghc",
        aliases: &["hill-climbing"],
        summary: "Greedy hill-climbing baseline",
    },
    SchedulerEntry {
        kind: AlgorithmKind::Exact,
        label: "exact",
        aliases: &["branch-and-bound"],
        summary: "Exact branch-and-bound (small instances only)",
    },
];

/// The single name↔algorithm table shared by cli, harnesses and tests.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerRegistry {
    entries: &'static [SchedulerEntry],
}

impl SchedulerRegistry {
    /// The built-in registry covering every [`AlgorithmKind`].
    pub fn global() -> Self {
        SchedulerRegistry { entries: &ENTRIES }
    }

    /// All rows, in paper lineup order followed by `exact`.
    pub fn entries(&self) -> &'static [SchedulerEntry] {
        self.entries
    }

    /// The registry row for `kind`.
    pub fn entry(&self, kind: AlgorithmKind) -> &'static SchedulerEntry {
        self.entries
            .iter()
            .find(|e| e.kind == kind)
            .expect("every AlgorithmKind has a registry row")
    }

    /// Case-insensitive lookup by canonical label or alias.
    pub fn resolve(&self, name: &str) -> Option<AlgorithmKind> {
        let needle = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|e| e.label == needle || e.aliases.contains(&needle.as_str()))
            .map(|e| e.kind)
    }

    /// Like [`resolve`](Self::resolve) but with an error message listing
    /// every accepted spelling.
    pub fn parse(&self, name: &str) -> Result<AlgorithmKind, String> {
        self.resolve(name).ok_or_else(|| {
            let known: Vec<&str> = self
                .entries
                .iter()
                .flat_map(|e| std::iter::once(e.label).chain(e.aliases.iter().copied()))
                .collect();
            format!("unknown algorithm {name:?}; known: {}", known.join(", "))
        })
    }

    /// Instantiates the named scheduler (label or alias) with its default
    /// parameters; `seed` feeds the randomised algorithms.
    pub fn build(&self, name: &str, seed: u64) -> Result<Box<dyn OneShotScheduler>, String> {
        self.parse(name).map(|kind| make_scheduler(kind, seed))
    }

    /// Instantiates a scheduler for an already-resolved kind.
    pub fn instantiate(&self, kind: AlgorithmKind, seed: u64) -> Box<dyn OneShotScheduler> {
        make_scheduler(kind, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_algorithm_kind() {
        for e in SchedulerRegistry::global().entries() {
            assert_eq!(e.label, e.kind.label());
        }
    }

    #[test]
    fn every_kind_has_exactly_one_row() {
        let reg = SchedulerRegistry::global();
        for kind in AlgorithmKind::paper_lineup()
            .into_iter()
            .chain(std::iter::once(AlgorithmKind::Exact))
        {
            assert_eq!(reg.entry(kind).kind, kind);
        }
        assert_eq!(reg.entries().len(), 6);
    }

    #[test]
    fn aliases_resolve_case_insensitively() {
        let reg = SchedulerRegistry::global();
        assert_eq!(reg.resolve("ALG2"), Some(AlgorithmKind::LocalGreedy));
        assert_eq!(reg.resolve("ghc"), Some(AlgorithmKind::HillClimbing));
        assert_eq!(reg.resolve("Colorwave"), Some(AlgorithmKind::Colorwave));
        assert!(reg.resolve("nope").is_none());
        let err = reg.parse("nope").unwrap_err();
        assert!(err.contains("alg2-central"), "{err}");
    }

    #[test]
    fn build_errors_are_structured_not_panics() {
        let reg = SchedulerRegistry::global();
        let err = reg
            .build("definitely-not-an-algorithm", 0)
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
        // The error must teach: every accepted spelling is listed.
        for e in reg.entries() {
            assert!(
                err.contains(e.label),
                "error omits label {}: {err}",
                e.label
            );
            for a in e.aliases {
                assert!(err.contains(a), "error omits alias {a}: {err}");
            }
        }
        assert!(reg.parse("").is_err());
        assert!(reg.parse(" alg2").is_err(), "no whitespace trimming");
    }

    #[test]
    fn every_spelling_builds_a_scheduler() {
        let reg = SchedulerRegistry::global();
        for e in reg.entries() {
            let built = reg.build(e.label, 7).expect(e.label).name();
            for a in e.aliases {
                assert_eq!(reg.build(a, 7).expect(a).name(), built, "{a}");
            }
        }
    }

    #[test]
    fn no_label_or_alias_collides() {
        let mut names: Vec<&str> = SchedulerRegistry::global()
            .entries()
            .iter()
            .flat_map(|e| std::iter::once(e.label).chain(e.aliases.iter().copied()))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate registry spelling");
    }
}
