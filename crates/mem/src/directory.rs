//! Global sub-page holder map.
//!
//! The real ALLCACHE is *directoryless*: a request circulates the ring and
//! whichever cell holds a valid copy answers in passing. The simulator
//! keeps this map purely as an efficiency device — it answers "who holds
//! sub-page S, in what state?" in O(holders) instead of by walking every
//! cache — while all *timing* still flows through the ring model. It is
//! the single source of truth for sub-page coherence state.

use ksr_core::FxHashMap;

use crate::state::SubpageState;

/// Per-sub-page holder list. Cells are few (≤ 1088) and holder lists are
/// short in practice, so a flat vector beats any fancier structure.
#[derive(Debug, Clone, Default)]
pub struct Holders {
    entries: Vec<(usize, SubpageState)>,
}

impl Holders {
    /// State of `cell`'s copy, or `Missing`.
    #[must_use]
    pub fn state_of(&self, cell: usize) -> SubpageState {
        self.entries
            .iter()
            .find(|(c, _)| *c == cell)
            .map_or(SubpageState::Missing, |&(_, s)| s)
    }

    /// Set `cell`'s state; `Missing` removes the entry.
    pub fn set(&mut self, cell: usize, st: SubpageState) {
        match self.entries.iter_mut().find(|(c, _)| *c == cell) {
            Some(e) => {
                if st == SubpageState::Missing {
                    self.entries.retain(|(c, _)| *c != cell);
                } else {
                    e.1 = st;
                }
            }
            None => {
                if st != SubpageState::Missing {
                    self.entries.push((cell, st));
                }
            }
        }
    }

    /// All `(cell, state)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, SubpageState)> + '_ {
        self.entries.iter().copied()
    }

    /// Cells holding a readable copy.
    pub fn readable_cells(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries
            .iter()
            .filter(|(_, s)| s.readable())
            .map(|&(c, _)| c)
    }

    /// The cell holding the sub-page in `Atomic` state, if any.
    #[must_use]
    pub fn atomic_holder(&self) -> Option<usize> {
        self.entries
            .iter()
            .find(|(_, s)| *s == SubpageState::Atomic)
            .map(|&(c, _)| c)
    }

    /// Whether any valid copy exists anywhere.
    #[must_use]
    pub fn any_valid(&self) -> bool {
        self.entries.iter().any(|(_, s)| s.readable())
    }

    /// Whether the list is completely empty (no copies, no place holders).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The global sub-page → holders map.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    map: FxHashMap<u64, Holders>,
}

impl Directory {
    /// Empty directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Holder list for a sub-page (empty list if never seen).
    #[must_use]
    pub fn holders(&self, subpage: u64) -> Option<&Holders> {
        self.map.get(&subpage)
    }

    /// State of `cell`'s copy of `subpage`.
    #[must_use]
    pub fn state_of(&self, subpage: u64, cell: usize) -> SubpageState {
        self.map
            .get(&subpage)
            .map_or(SubpageState::Missing, |h| h.state_of(cell))
    }

    /// Set `cell`'s state for `subpage`.
    pub fn set(&mut self, subpage: u64, cell: usize, st: SubpageState) {
        let h = self.map.entry(subpage).or_default();
        h.set(cell, st);
        if h.is_empty() {
            self.map.remove(&subpage);
        }
    }

    /// Coherence invariant check: at most one writable copy per sub-page,
    /// and no readable copy coexisting with a writable one elsewhere.
    /// Returns the violating sub-page, if any. Used by tests and debug
    /// assertions.
    #[must_use]
    pub fn find_violation(&self) -> Option<u64> {
        for (&sp, h) in &self.map {
            let writers = h.iter().filter(|(_, s)| s.writable()).count();
            let readers = h.iter().filter(|(_, s)| s.readable()).count();
            if writers > 1 || (writers == 1 && readers > 1) {
                return Some(sp);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_roundtrip() {
        let mut d = Directory::new();
        assert_eq!(d.state_of(5, 0), SubpageState::Missing);
        d.set(5, 0, SubpageState::Exclusive);
        assert_eq!(d.state_of(5, 0), SubpageState::Exclusive);
        assert_eq!(d.state_of(5, 1), SubpageState::Missing);
    }

    #[test]
    fn setting_missing_removes() {
        let mut d = Directory::new();
        d.set(5, 0, SubpageState::Shared);
        d.set(5, 0, SubpageState::Missing);
        assert!(d.holders(5).is_none(), "empty holder lists are dropped");
    }

    #[test]
    fn atomic_holder_found() {
        let mut d = Directory::new();
        d.set(9, 2, SubpageState::Shared);
        assert_eq!(d.holders(9).unwrap().atomic_holder(), None);
        d.set(9, 2, SubpageState::Missing);
        d.set(9, 3, SubpageState::Atomic);
        assert_eq!(d.holders(9).unwrap().atomic_holder(), Some(3));
    }

    #[test]
    fn readable_cells_excludes_placeholders() {
        let mut d = Directory::new();
        d.set(1, 0, SubpageState::Shared);
        d.set(1, 1, SubpageState::Invalid);
        let cells: Vec<_> = d.holders(1).unwrap().readable_cells().collect();
        assert_eq!(cells, vec![0]);
        assert!(d.holders(1).unwrap().any_valid());
    }

    #[test]
    fn violation_detection() {
        let mut d = Directory::new();
        d.set(1, 0, SubpageState::Shared);
        d.set(1, 1, SubpageState::Shared);
        assert_eq!(d.find_violation(), None);
        d.set(1, 2, SubpageState::Exclusive);
        assert_eq!(d.find_violation(), Some(1));
        d.set(1, 0, SubpageState::Missing);
        d.set(1, 1, SubpageState::Invalid);
        assert_eq!(
            d.find_violation(),
            None,
            "placeholders may coexist with a writer"
        );
    }

    #[test]
    fn two_writable_is_a_violation() {
        let mut d = Directory::new();
        d.set(7, 0, SubpageState::Exclusive);
        d.set(7, 1, SubpageState::Atomic);
        assert_eq!(d.find_violation(), Some(7));
    }
}
