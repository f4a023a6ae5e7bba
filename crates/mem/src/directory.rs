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

/// `Holders::atomic` value meaning "no cell holds the sub-page atomic".
const NO_ATOMIC: u32 = u32::MAX;

/// Per-sub-page holder list, in insertion order.
///
/// The order is part of the protocol's semantics: the first readable
/// remote holder routes a fetch, the first off-leaf place holder routes
/// a poststore, and fan-out sweeps emit their trace events in this
/// order. Entries are therefore never sorted, swapped or re-inserted.
///
/// Cells are few (≤ 1088), but a lock storm keeps one entry per spinner
/// on the lock's sub-page: 512 or 1024 entries. So entries are packed
/// `(u32, SubpageState)` pairs (8 bytes; a 512-entry list is 4 KB),
/// multi-holder transitions go through [`Holders::update_each`] (one pass
/// per transaction), and the atomic holder is cached so
/// [`Holders::atomic_holder`] is O(1).
#[derive(Debug, Clone)]
pub struct Holders {
    entries: Vec<(u32, SubpageState)>,
    /// The first entry in `Atomic` state, or [`NO_ATOMIC`].
    atomic: u32,
}

impl Default for Holders {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            atomic: NO_ATOMIC,
        }
    }
}

/// `cell` as a packed entry id.
///
/// # Panics
/// Panics if `cell` does not fit below the [`NO_ATOMIC`] sentinel.
fn cell_id(cell: usize) -> u32 {
    u32::try_from(cell)
        .ok()
        .filter(|&id| id != NO_ATOMIC)
        .unwrap_or_else(|| panic!("cell index {cell} does not fit a directory entry"))
}

impl Holders {
    /// State of `cell`'s copy, or `Missing`.
    #[must_use]
    pub fn state_of(&self, cell: usize) -> SubpageState {
        self.entries
            .iter()
            .find(|&&(c, _)| c as usize == cell)
            .map_or(SubpageState::Missing, |&(_, s)| s)
    }

    /// Set `cell`'s state and return its previous one; `Missing` removes
    /// the entry, and a new entry goes to the end of the list.
    pub fn set(&mut self, cell: usize, st: SubpageState) -> SubpageState {
        let id = cell_id(cell);
        let from = match self.entries.iter().position(|&(c, _)| c == id) {
            Some(i) => {
                let from = self.entries[i].1;
                if st == SubpageState::Missing {
                    self.entries.remove(i);
                } else {
                    self.entries[i].1 = st;
                }
                from
            }
            None => {
                if st != SubpageState::Missing {
                    self.entries.push((id, st));
                }
                SubpageState::Missing
            }
        };
        if (from == SubpageState::Atomic) != (st == SubpageState::Atomic) {
            self.atomic = if st == SubpageState::Atomic && self.atomic == NO_ATOMIC {
                id
            } else {
                self.first_atomic()
            };
        }
        from
    }

    /// Visit every entry once, in insertion order, replacing its state
    /// with `f(cell, state)`. Entries stay in place; the caller does the
    /// per-holder side effects (events, counters, sub-cache purges)
    /// inside `f`, in the order it is called.
    ///
    /// # Panics
    /// Panics if `f` returns `Missing`: removing entries mid-sweep would
    /// reorder the list, so removal goes through [`Holders::set`].
    pub fn update_each(&mut self, mut f: impl FnMut(usize, SubpageState) -> SubpageState) {
        let mut atomic = NO_ATOMIC;
        for (c, s) in &mut self.entries {
            let to = f(*c as usize, *s);
            assert!(
                to != SubpageState::Missing,
                "directory sweep invariant (a sweep never removes an entry) broken: cell {c}"
            );
            *s = to;
            if to == SubpageState::Atomic && atomic == NO_ATOMIC {
                atomic = *c;
            }
        }
        self.atomic = atomic;
    }

    fn first_atomic(&self) -> u32 {
        self.entries
            .iter()
            .find(|&&(_, s)| s == SubpageState::Atomic)
            .map_or(NO_ATOMIC, |&(c, _)| c)
    }

    /// All `(cell, state)` entries, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, SubpageState)> + '_ {
        self.entries.iter().map(|&(c, s)| (c as usize, s))
    }

    /// Cells holding a readable copy.
    pub fn readable_cells(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter().filter(|(_, s)| s.readable()).map(|(c, _)| c)
    }

    /// The cell holding the sub-page in `Atomic` state, if any (the
    /// first in insertion order, should a faulty protocol leave two).
    #[must_use]
    pub fn atomic_holder(&self) -> Option<usize> {
        (self.atomic != NO_ATOMIC).then_some(self.atomic as usize)
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

    /// Set `cell`'s state for `subpage` and return its previous one.
    pub fn set(&mut self, subpage: u64, cell: usize, st: SubpageState) -> SubpageState {
        if st != SubpageState::Missing {
            return self.map.entry(subpage).or_default().set(cell, st);
        }
        let Some(h) = self.map.get_mut(&subpage) else {
            return SubpageState::Missing;
        };
        let from = h.set(cell, st);
        if h.is_empty() {
            self.map.remove(&subpage);
        }
        from
    }

    /// [`Holders::update_each`] on `subpage`'s holders (a no-op if it has
    /// none).
    pub fn update_each(
        &mut self,
        subpage: u64,
        f: impl FnMut(usize, SubpageState) -> SubpageState,
    ) {
        if let Some(h) = self.map.get_mut(&subpage) {
            h.update_each(f);
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

    /// Drive random `set`s and sweeps against a naive reference list:
    /// states, the cached atomic holder, validity and insertion order
    /// must agree after every operation.
    #[test]
    fn holders_match_a_naive_reference_model() {
        use ksr_core::XorShift64;
        use SubpageState::{Atomic, Exclusive, Invalid, Missing, Shared};

        const ALL: [SubpageState; 5] = [Missing, Invalid, Shared, Exclusive, Atomic];

        fn model_set(
            model: &mut Vec<(usize, SubpageState)>,
            cell: usize,
            st: SubpageState,
        ) -> SubpageState {
            let prev = model.iter().position(|&(c, _)| c == cell);
            let from = prev.map_or(Missing, |i| model[i].1);
            match (prev, st) {
                (Some(i), Missing) => {
                    model.remove(i);
                }
                (Some(i), _) => model[i].1 = st,
                (None, Missing) => {}
                (None, _) => model.push((cell, st)),
            }
            from
        }

        fn check(h: &Holders, model: &[(usize, SubpageState)], probes: &[usize], op: usize) {
            let atomic = model.iter().find(|&&(_, s)| s == Atomic).map(|&(c, _)| c);
            assert_eq!(h.atomic_holder(), atomic, "op {op}: atomic holder");
            assert_eq!(h.iter().collect::<Vec<_>>(), model, "op {op}: entries");
            let valid = model.iter().any(|&(_, s)| s.readable());
            assert_eq!(h.any_valid(), valid, "op {op}: any_valid");
            for &cell in probes {
                let want = model
                    .iter()
                    .find(|&&(c, _)| c == cell)
                    .map_or(Missing, |&(_, s)| s);
                assert_eq!(h.state_of(cell), want, "op {op}: state of cell {cell}");
            }
        }

        let mut rng = XorShift64::new(0x5eed);
        let mut model: Vec<(usize, SubpageState)> = Vec::new();
        let mut h = Holders::default();
        let mut returns = 0;
        for op in 0..4_000 {
            let probes: Vec<usize> = (0..8).map(|_| rng.next_index(1025)).collect();
            if op % 25 == 24 {
                // The atomic holder goes to Missing, other traffic passes,
                // and the same cell comes back Atomic.
                let Some(cell) = h.atomic_holder() else {
                    let cell = rng.next_index(1025);
                    assert_eq!(h.set(cell, Atomic), model_set(&mut model, cell, Atomic));
                    check(&h, &model, &[cell], op);
                    continue;
                };
                assert_eq!(h.set(cell, Missing), Atomic);
                model_set(&mut model, cell, Missing);
                check(&h, &model, &[cell], op);
                let other = rng.next_index(1025);
                assert_eq!(h.set(other, Shared), model_set(&mut model, other, Shared));
                check(&h, &model, &[other], op);
                assert_eq!(h.set(cell, Atomic), model_set(&mut model, cell, Atomic));
                check(&h, &model, &[cell], op);
                returns += 1;
            } else if rng.next_below(4) == 0 {
                // One sweep with a random non-Missing state per
                // (cell, state) pair.
                let salt = rng.next_u64();
                let pick = |c: usize, s: SubpageState| {
                    let k = (salt ^ (c as u64 * 31 + s as u64)).wrapping_mul(0x9E37_79B9);
                    ALL[1 + (k >> 40) as usize % 4]
                };
                let mut visited = Vec::new();
                h.update_each(|c, s| {
                    visited.push(c);
                    pick(c, s)
                });
                let order: Vec<usize> = model.iter().map(|&(c, _)| c).collect();
                assert_eq!(visited, order, "op {op}: sweep order");
                for e in &mut model {
                    e.1 = pick(e.0, e.1);
                }
                check(&h, &model, &probes, op);
            } else {
                // Reuse a present cell half the time so updates and
                // removals happen, not just inserts.
                let cell = if !model.is_empty() && rng.next_bool(0.5) {
                    model[rng.next_index(model.len())].0
                } else {
                    rng.next_index(1025)
                };
                let st = ALL[rng.next_index(ALL.len())];
                assert_eq!(h.set(cell, st), model_set(&mut model, cell, st), "op {op}");
                check(&h, &model, &[cell], op);
            }
            check(&h, &model, &probes, op);
        }
        assert!(returns > 100, "atomic holder returned only {returns} times");
        let all: Vec<usize> = model.iter().map(|&(c, _)| c).collect();
        check(&h, &model, &all, 4_000);
    }

    #[test]
    fn two_writable_is_a_violation() {
        let mut d = Directory::new();
        d.set(7, 0, SubpageState::Exclusive);
        d.set(7, 1, SubpageState::Atomic);
        assert_eq!(d.find_violation(), Some(7));
    }
}
