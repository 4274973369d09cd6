//! Name→scheduler registry.
//!
//! Before this module, three places kept their own algorithm tables: the
//! cli's `parse_algorithm` match, the sweep harness's factory calls and
//! the cross-validation tests' lineup loops. The registry is now the one
//! table mapping cli aliases to [`AlgorithmKind`]s and factory calls; the
//! canonical label of every row is [`AlgorithmKind::label`], and
//! [`make_scheduler`] remains the low-level constructor behind it.

use crate::scheduler::{make_scheduler, AlgorithmKind, OneShotScheduler};

/// One registry row: an algorithm and its cli aliases. Its canonical
/// label is [`AlgorithmKind::label`].
#[derive(Debug, Clone, Copy)]
pub struct SchedulerEntry {
    /// The algorithm this row names.
    pub kind: AlgorithmKind,
    /// Accepted aliases (cli spellings).
    pub aliases: &'static [&'static str],
}

static ENTRIES: [SchedulerEntry; 6] = [
    SchedulerEntry {
        kind: AlgorithmKind::Ptas,
        aliases: &["alg1", "ptas"],
    },
    SchedulerEntry {
        kind: AlgorithmKind::LocalGreedy,
        aliases: &["alg2", "central"],
    },
    SchedulerEntry {
        kind: AlgorithmKind::Distributed,
        aliases: &["alg3", "distributed"],
    },
    SchedulerEntry {
        kind: AlgorithmKind::Colorwave,
        aliases: &["ca", "colorwave"],
    },
    SchedulerEntry {
        kind: AlgorithmKind::HillClimbing,
        aliases: &["hill-climbing"],
    },
    SchedulerEntry {
        kind: AlgorithmKind::Exact,
        aliases: &["branch-and-bound"],
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

    /// Case-insensitive lookup by canonical label or alias.
    pub fn resolve(&self, name: &str) -> Option<AlgorithmKind> {
        let needle = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|e| e.kind.label() == needle || e.aliases.contains(&needle.as_str()))
            .map(|e| e.kind)
    }

    /// Like [`resolve`](Self::resolve) but with an error message listing
    /// every accepted spelling.
    pub fn parse(&self, name: &str) -> Result<AlgorithmKind, String> {
        self.resolve(name).ok_or_else(|| {
            let known: Vec<&str> = self
                .entries
                .iter()
                .flat_map(|e| std::iter::once(e.kind.label()).chain(e.aliases.iter().copied()))
                .collect();
            format!("unknown algorithm {name:?}; known: {}", known.join(", "))
        })
    }

    /// Instantiates a scheduler for an already-resolved kind with its
    /// default parameters; `seed` feeds the randomised algorithms.
    pub fn instantiate(&self, kind: AlgorithmKind, seed: u64) -> Box<dyn OneShotScheduler> {
        make_scheduler(kind, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_exactly_one_row() {
        let reg = SchedulerRegistry::global();
        for kind in AlgorithmKind::paper_lineup()
            .into_iter()
            .chain(std::iter::once(AlgorithmKind::Exact))
        {
            assert_eq!(reg.entries().iter().filter(|e| e.kind == kind).count(), 1);
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
        let err = reg.parse("definitely-not-an-algorithm").unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
        // The error must teach: every accepted spelling is listed.
        for e in reg.entries() {
            let label = e.kind.label();
            assert!(err.contains(label), "error omits label {label}: {err}");
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
            assert_eq!(reg.parse(e.kind.label()), Ok(e.kind));
            for a in e.aliases {
                assert_eq!(reg.parse(a), Ok(e.kind), "{a}");
            }
        }
    }

    #[test]
    fn no_label_or_alias_collides() {
        let mut names: Vec<&str> = SchedulerRegistry::global()
            .entries()
            .iter()
            .flat_map(|e| std::iter::once(e.kind.label()).chain(e.aliases.iter().copied()))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate registry spelling");
    }
}
