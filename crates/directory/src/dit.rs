//! The Directory Information Tree with search.

use std::collections::BTreeMap;

use crate::dn::Dn;
use crate::entry::Entry;
use crate::error::DirectoryError;
use crate::filter::Filter;
use crate::objectclass::{standard_classes, ObjectClassRegistry};

/// Search scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The base entry only.
    Base,
    /// Direct children of the base.
    OneLevel,
    /// The base and its whole subtree.
    Subtree,
}

/// An in-memory LDAP-style directory server.
///
/// Entries are stored in DN order (a `BTreeMap` keyed by the reversed
/// RDN chain), which makes subtree scans a contiguous range — the same
/// property real servers get from their substring-indexed DN tables.
#[derive(Debug, Clone)]
pub struct Directory {
    /// Ordered by hierarchical key (ancestors before descendants).
    entries: BTreeMap<Vec<(String, String)>, Entry>,
    registry: ObjectClassRegistry,
}

fn key(dn: &Dn) -> Vec<(String, String)> {
    dn.rdns.iter().rev().cloned().collect()
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// An empty directory with the standard object classes.
    pub fn new() -> Self {
        Directory { entries: BTreeMap::new(), registry: standard_classes() }
    }

    /// Adds an entry. The parent must exist (except for depth-1 entries),
    /// the entry must validate, and the DN must be free.
    pub fn add(&mut self, entry: Entry) -> Result<(), DirectoryError> {
        entry.validate(&self.registry)?;
        let k = key(&entry.dn);
        if self.entries.contains_key(&k) {
            return Err(DirectoryError::EntryExists(entry.dn));
        }
        if let Some(parent) = entry.dn.parent() {
            if parent.depth() > 0 && !self.entries.contains_key(&key(&parent)) {
                return Err(DirectoryError::NoSuchParent(entry.dn));
            }
        }
        self.entries.insert(k, entry);
        Ok(())
    }

    /// Reads an entry by DN.
    pub fn get(&self, dn: &Dn) -> Result<&Entry, DirectoryError> {
        self.entries.get(&key(dn)).ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))
    }

    /// Applies a closure to an entry, revalidating afterwards.
    pub fn modify(
        &mut self,
        dn: &Dn,
        f: impl FnOnce(&mut Entry),
    ) -> Result<(), DirectoryError> {
        let entry = self
            .entries
            .get_mut(&key(dn))
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))?;
        let mut copy = entry.clone();
        f(&mut copy);
        copy.validate(&self.registry)?;
        *entry = copy;
        Ok(())
    }

    /// Deletes a leaf entry.
    pub fn delete(&mut self, dn: &Dn) -> Result<Entry, DirectoryError> {
        let k = key(dn);
        if !self.entries.contains_key(&k) {
            return Err(DirectoryError::NoSuchEntry(dn.clone()));
        }
        let has_children = self
            .entries
            .range(next_range(&k))
            .next()
            .is_some_and(|(ck, _)| ck.starts_with(&k));
        if has_children {
            return Err(DirectoryError::NotLeaf(dn.clone()));
        }
        Ok(self.entries.remove(&k).expect("checked"))
    }

    /// Searches from `base` with the given scope and filter: copies of
    /// the matching entries, in DN order.
    pub fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<Entry> {
        let mut hits = Vec::new();
        let bk = key(base);
        let candidates: Vec<&Entry> = match scope {
            Scope::Base => self.entries.get(&bk).into_iter().collect(),
            Scope::OneLevel => self
                .entries
                .range(next_range(&bk))
                .take_while(|(k, _)| k.starts_with(&bk))
                .filter(|(k, _)| k.len() == bk.len() + 1)
                .map(|(_, e)| e)
                .collect(),
            Scope::Subtree => {
                let mut v: Vec<&Entry> = self.entries.get(&bk).into_iter().collect();
                v.extend(
                    self.entries
                        .range(next_range(&bk))
                        .take_while(|(k, _)| k.starts_with(&bk))
                        .map(|(_, e)| e),
                );
                v
            }
        };
        for e in candidates {
            if filter.eval(e, &self.registry) {
                hits.push(e.clone());
            }
        }
        hits
    }
}

/// Range that starts strictly after `k` itself but includes all keys
/// prefixed by `k` (BTreeMap range trick: append a minimal extension).
fn next_range(
    k: &[(String, String)],
) -> std::ops::RangeFrom<Vec<(String, String)>> {
    let mut start = k.to_vec();
    start.push((String::new(), String::new()));
    start..
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Directory {
        let mut d = Directory::new();
        d.add(Entry::new(Dn::parse("o=lucent").unwrap(), &["organization"]).with("o", "lucent"))
            .unwrap();
        d.add(
            Entry::new(Dn::parse("ou=people,o=lucent").unwrap(), &["organizationalUnit"])
                .with("ou", "people"),
        )
        .unwrap();
        for (cn, phone) in [("alice", "908-582-1111"), ("bob", "908-582-2222"), ("carol", "973-111-3333")] {
            d.add(
                Entry::new(
                    Dn::parse(&format!("cn={cn},ou=people,o=lucent")).unwrap(),
                    &["inetOrgPerson"],
                )
                .with("cn", cn)
                .with("sn", format!("{cn}son"))
                .with("telephoneNumber", phone),
            )
            .unwrap();
        }
        d
    }

    fn f(s: &str) -> Filter {
        Filter::parse(s).unwrap()
    }

    #[test]
    fn add_get_roundtrip() {
        let d = populated();
        let e = d.get(&Dn::parse("cn=alice,ou=people,o=lucent").unwrap()).unwrap();
        assert_eq!(e.first("telephoneNumber"), Some("908-582-1111"));
        assert_eq!(d.entries.len(), 5);
    }

    #[test]
    fn duplicate_add_rejected() {
        let mut d = populated();
        let dup = Entry::new(Dn::parse("cn=alice,ou=people,o=lucent").unwrap(), &["person"])
            .with("cn", "alice")
            .with("sn", "x");
        assert!(matches!(d.add(dup), Err(DirectoryError::EntryExists(_))));
    }

    #[test]
    fn orphan_add_rejected() {
        let mut d = populated();
        let orphan = Entry::new(Dn::parse("cn=x,ou=ghost,o=lucent").unwrap(), &["person"])
            .with("cn", "x")
            .with("sn", "y");
        assert!(matches!(d.add(orphan), Err(DirectoryError::NoSuchParent(_))));
    }

    #[test]
    fn scopes() {
        let d = populated();
        let base = Dn::parse("ou=people,o=lucent").unwrap();
        assert_eq!(d.search(&base, Scope::Base, &f("(ou=*)")).len(), 1);
        assert_eq!(d.search(&base, Scope::OneLevel, &f("(cn=*)")).len(), 3);
        assert_eq!(d.search(&base, Scope::Subtree, &f("(cn=*)")).len(), 3);
        assert_eq!(
            d.search(&Dn::parse("o=lucent").unwrap(), Scope::OneLevel, &f("(cn=*)")).len(),
            0
        );
        assert_eq!(d.search(&Dn::root(), Scope::Subtree, &f("(objectClass=*)")).len(), 5);
    }

    #[test]
    fn search_with_phone_syntax() {
        let d = populated();
        let hits =
            d.search(&Dn::root(), Scope::Subtree, &f("(telephoneNumber=908.582.1111)"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].first("cn"), Some("alice"));
    }

    #[test]
    fn modify_revalidates() {
        let mut d = populated();
        let dn = Dn::parse("cn=alice,ou=people,o=lucent").unwrap();
        d.modify(&dn, |e| e.add("mail", "alice@lucent.com")).unwrap();
        assert_eq!(d.get(&dn).unwrap().first("mail"), Some("alice@lucent.com"));
        // Removing a required attribute is rejected and rolls back.
        let err = d.modify(&dn, |e| {
            e.attrs.remove("sn");
        });
        assert!(err.is_err());
        assert_eq!(d.get(&dn).unwrap().first("sn"), Some("aliceson"));
    }

    #[test]
    fn delete_leaf_only() {
        let mut d = populated();
        let people = Dn::parse("ou=people,o=lucent").unwrap();
        assert!(matches!(d.delete(&people), Err(DirectoryError::NotLeaf(_))));
        let alice = Dn::parse("cn=alice,ou=people,o=lucent").unwrap();
        d.delete(&alice).unwrap();
        assert!(d.get(&alice).is_err());
        assert!(matches!(d.delete(&alice), Err(DirectoryError::NoSuchEntry(_))));
    }
}
