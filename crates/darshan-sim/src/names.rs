//! Name records: record id → path, shared by a runtime and its snapshots.
//!
//! Darshan's core owns the name records and the modules register their
//! files with it. Here one table per runtime maps each record id to its
//! name and to its slot in each module, so registering a new file is one
//! probe of one index. Darshan never forgets a name, so the table only
//! grows: a runtime and every snapshot it hands out share it, and a
//! snapshot's [`Names`] is a *view* of the table's first `len` names,
//! which later registrations cannot change. Taking a snapshot therefore
//! costs one `Arc` clone, and registering a name after it costs one
//! append — never a copy of the names already held. Paths are the probe
//! interner's `Arc<str>`s, so a name the event fold registers is not
//! copied either.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::idmap::IdMap;

/// Module indices into [`Ids::slots`].
pub(crate) const POSIX: usize = 0;
pub(crate) const STDIO: usize = 1;
pub(crate) const MPIIO: usize = 2;
const NO_SLOT: u32 = u32::MAX;

/// Where a record id's data lives.
#[derive(Clone, Copy)]
struct Ids {
    /// Position of the name in [`Table::entries`].
    name: u32,
    /// Slot of the id's record in each module ([`NO_SLOT`] if none).
    slots: [u32; 3],
}

/// A runtime's record-id registry.
#[derive(Default)]
pub(crate) struct Table {
    index: IdMap<u64, Ids>,
    /// Names in registration order.
    entries: Vec<(u64, Arc<str>)>,
}

impl Table {
    /// The slot of `rec_id`'s record in module `m`.
    pub(crate) fn slot(&self, rec_id: u64, m: usize) -> Option<u32> {
        let s = self.index.get(&rec_id)?.slots[m];
        (s != NO_SLOT).then_some(s)
    }

    /// The slot of `rec_id`'s record in module `m`, or the slot
    /// `new_slot` creates (registering the name on the id's first sight).
    /// `None` when there is no record and `new_slot` declines. The second
    /// value is true for a new slot.
    pub(crate) fn slot_or_insert(
        &mut self,
        rec_id: u64,
        m: usize,
        name: impl FnOnce() -> Arc<str>,
        new_slot: impl FnOnce() -> Option<u32>,
    ) -> Option<(u32, bool)> {
        let Table { index, entries } = self;
        match index.entry(rec_id) {
            Entry::Occupied(mut e) => {
                let slot = &mut e.get_mut().slots[m];
                if *slot == NO_SLOT {
                    *slot = new_slot()?;
                    return Some((*slot, true));
                }
                Some((*slot, false))
            }
            Entry::Vacant(v) => {
                let slot = new_slot()?;
                let mut slots = [NO_SLOT; 3];
                slots[m] = slot;
                let name_pos = u32::try_from(entries.len()).expect("name table overflow");
                entries.push((rec_id, name()));
                v.insert(Ids {
                    name: name_pos,
                    slots,
                });
                Some((slot, true))
            }
        }
    }

    /// Register `rec_id`'s name unless it has one (the first name wins).
    pub(crate) fn register(&mut self, rec_id: u64, name: impl FnOnce() -> Arc<str>) {
        if let Entry::Vacant(v) = self.index.entry(rec_id) {
            let pos = u32::try_from(self.entries.len()).expect("name table overflow");
            self.entries.push((rec_id, name()));
            v.insert(Ids {
                name: pos,
                slots: [NO_SLOT; 3],
            });
        }
    }

    /// The name of `rec_id` if it is among the first `len` registered.
    fn name(&self, rec_id: u64, len: usize) -> Option<&Arc<str>> {
        let pos = self.index.get(&rec_id)?.name as usize;
        (pos < len).then(|| &self.entries[pos].1)
    }
}

/// A runtime's registry, shared with the views its snapshots hold.
pub(crate) type SharedTable = Arc<RwLock<Table>>;

/// A view of the record-id → path name records: every name registered
/// before the view was taken.
#[derive(Clone, Default)]
pub struct Names {
    table: SharedTable,
    len: usize,
}

impl Names {
    /// The names registered in `table` so far.
    pub(crate) fn view(table: &SharedTable) -> Self {
        Names {
            len: table.read().entries.len(),
            table: table.clone(),
        }
    }

    /// Number of names in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when this view holds no name.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The path of `rec_id`, if this view holds it.
    pub fn get(&self, rec_id: u64) -> Option<Arc<str>> {
        self.table.read().name(rec_id, self.len).cloned()
    }

    /// The `(record id, path)` pairs of this view, in registration order
    /// (a copy, so the table is not locked while they are used).
    pub fn iter(&self) -> std::vec::IntoIter<(u64, Arc<str>)> {
        let pairs = self.table.read().entries[..self.len].to_vec();
        pairs.into_iter()
    }

    /// An owned copy (what a [`crate::DarshanLog`] stores).
    pub fn to_map(&self) -> HashMap<u64, String> {
        self.iter().map(|(id, p)| (id, p.to_string())).collect()
    }
}

/// Collect `(record id, path)` pairs; for a repeated id the first path
/// wins.
impl<S: Into<Arc<str>>> FromIterator<(u64, S)> for Names {
    fn from_iter<I: IntoIterator<Item = (u64, S)>>(iter: I) -> Self {
        let mut table = Table::default();
        for (id, path) in iter {
            table.register(id, || path.into());
        }
        let len = table.entries.len();
        Names {
            table: Arc::new(RwLock::new(table)),
            len,
        }
    }
}

/// Two views are equal when they hold the same names, whatever their
/// registration order.
impl PartialEq for Names {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        Arc::ptr_eq(&self.table, &other.table)
            || self
                .iter()
                .all(|(id, p)| other.get(id).is_some_and(|q| q == p))
    }
}

/// Debug-prints as a map sorted by record id, so output is stable.
impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut v: Vec<(u64, Arc<str>)> = self.iter().collect();
        v.sort_unstable_by_key(|e| e.0);
        f.debug_map()
            .entries(v.iter().map(|(k, p)| (k, p)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_are_stable_under_later_registrations() {
        let shared = SharedTable::default();
        shared.write().register(1, || "/a".into());
        let early = Names::view(&shared);
        shared.write().register(2, || "/b".into());
        shared.write().register(1, || "/other".into());
        let live = Names::view(&shared);
        assert_eq!((early.len(), live.len()), (1, 2));
        assert_eq!(early.get(2), None);
        assert_eq!(live.get(2).as_deref(), Some("/b"));
        assert_eq!(live.get(1).as_deref(), Some("/a"), "the first name wins");
        assert_eq!(early.iter().collect::<Vec<_>>(), vec![(1, "/a".into())]);
        assert_ne!(early, live);
        let rebuilt: Names = [(2, "/b"), (1, "/a")].into_iter().collect();
        assert_eq!(rebuilt, live, "equality ignores registration order");
        assert_eq!(format!("{rebuilt:?}"), r#"{1: "/a", 2: "/b"}"#);
        assert_eq!(live.to_map()[&2], "/b");
    }

    #[test]
    fn one_probe_places_a_name_and_each_module_slot() {
        let mut t = Table::default();
        let mut next = 0;
        let mut new_slot = || {
            next += 1;
            Some(next - 1)
        };
        let at = |id, m, t: &mut Table, f: &mut dyn FnMut() -> Option<u32>| {
            t.slot_or_insert(id, m, || "/f".into(), f)
        };
        assert_eq!(at(7, POSIX, &mut t, &mut new_slot), Some((0, true)));
        assert_eq!(at(7, POSIX, &mut t, &mut new_slot), Some((0, false)));
        // The STDIO record of the same file gets its own slot, one name.
        assert_eq!(at(7, STDIO, &mut t, &mut new_slot), Some((1, true)));
        assert_eq!((t.slot(7, POSIX), t.slot(7, STDIO)), (Some(0), Some(1)));
        assert_eq!(t.entries.len(), 1);
        // A declined slot registers nothing.
        assert_eq!(at(8, POSIX, &mut t, &mut || None), None);
        assert_eq!((t.slot(8, POSIX), t.entries.len()), (None, 1));
        // A name without a record has no slot until one is made.
        t.register(9, || "/n".into());
        assert_eq!(t.slot(9, POSIX), None);
        assert_eq!(at(9, POSIX, &mut t, &mut || Some(5)), Some((5, true)));
        assert_eq!(t.name(9, 3).map(|p| &**p), Some("/n"));
    }

    #[test]
    fn an_index_entry_holds_every_module_slot_in_24_bytes() {
        assert_eq!(std::mem::size_of::<(u64, Ids)>(), 24);
    }
}
