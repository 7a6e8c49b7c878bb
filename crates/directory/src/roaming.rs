//! Netscape roaming profiles: nested data as opaque LDAP blobs.
//!
//! §6 of the paper: "The workaround used by Netscape is to create new
//! LDAP objectclasses that store the information as binary objects. …
//! these opaque objects can only be accessed (retrieved or updated) as a
//! whole", and "it is not possible to combine information from two
//! separate objects". [`RoamingStore`] implements exactly that contract:
//! experiment E8 measures its whole-blob costs against GUPster's
//! fine-grained XML access.

use crate::dit::Directory;
use crate::dn::Dn;
use crate::entry::Entry;
use crate::error::DirectoryError;

/// The blob slots a roaming profile offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlobKind {
    /// The serialized address book.
    AddressBook,
    /// The serialized bookmarks.
    Bookmarks,
    /// Serialized preferences.
    Prefs,
    /// "I can store my MP3 play list in my roaming profile" (§6).
    Mp3Playlist,
}

impl BlobKind {
    fn attr(self) -> &'static str {
        match self {
            BlobKind::AddressBook => "nsAddressBookBlob",
            BlobKind::Bookmarks => "nsBookmarksBlob",
            BlobKind::Prefs => "nsPrefsBlob",
            BlobKind::Mp3Playlist => "nsMp3PlaylistBlob",
        }
    }
}

/// A roaming-profile server backed by a [`Directory`].
#[derive(Debug, Clone)]
pub struct RoamingStore {
    dir: Directory,
    base: Dn,
    /// Bytes read from / written to blob attributes (whole-blob traffic),
    /// recorded so experiments can compare against GUPster's partial
    /// access.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl RoamingStore {
    /// Creates a roaming store with base `ou=profiles,o=<org>`.
    pub fn new(org: &str) -> Self {
        let mut dir = Directory::new();
        let base_o = Dn::parse(&format!("o={org}")).expect("static dn");
        dir.add(Entry::new(base_o.clone(), &["organization"]).with("o", org)).expect("fresh");
        let base = base_o.child("ou", "profiles");
        dir.add(Entry::new(base.clone(), &["organizationalUnit"]).with("ou", "profiles"))
            .expect("fresh");
        RoamingStore { dir, base, bytes_read: 0, bytes_written: 0 }
    }

    fn user_dn(&self, uid: &str) -> Dn {
        self.base.child("uid", uid)
    }

    /// Creates the profile entry for a user.
    pub fn create_user(&mut self, uid: &str) -> Result<(), DirectoryError> {
        self.dir
            .add(Entry::new(self.user_dn(uid), &["nsRoamingProfile"]).with("uid", uid))
    }

    /// Stores a blob — the *whole* serialized object, every time.
    pub fn put_blob(
        &mut self,
        uid: &str,
        kind: BlobKind,
        blob: &str,
    ) -> Result<(), DirectoryError> {
        self.bytes_written += blob.len() as u64;
        self.dir.modify(&self.user_dn(uid), |e| e.replace(kind.attr(), vec![blob.to_string()]))
    }

    /// Fetches a blob — again, only as a whole.
    pub fn get_blob(&mut self, uid: &str, kind: BlobKind) -> Result<String, DirectoryError> {
        let e = self.dir.get(&self.user_dn(uid))?;
        let blob = e
            .first(kind.attr())
            .ok_or_else(|| DirectoryError::NoSuchEntry(self.user_dn(uid)))?
            .to_string();
        self.bytes_read += blob.len() as u64;
        Ok(blob)
    }

    /// Updating one entry inside the blob requires read-modify-write of
    /// the entire object; this helper performs it and returns the total
    /// bytes moved, making the E8 cost model explicit.
    pub fn update_within_blob(
        &mut self,
        uid: &str,
        kind: BlobKind,
        edit: impl FnOnce(&str) -> String,
    ) -> Result<u64, DirectoryError> {
        let before_r = self.bytes_read;
        let before_w = self.bytes_written;
        let blob = self.get_blob(uid, kind)?;
        let new = edit(&blob);
        self.put_blob(uid, kind, &new)?;
        Ok((self.bytes_read - before_r) + (self.bytes_written - before_w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_blob_roundtrip() {
        let mut s = RoamingStore::new("netscape");
        s.create_user("arnaud").unwrap();
        s.put_blob("arnaud", BlobKind::AddressBook, "<book>…</book>").unwrap();
        assert_eq!(s.get_blob("arnaud", BlobKind::AddressBook).unwrap(), "<book>…</book>");
    }

    #[test]
    fn missing_blob_errors() {
        let mut s = RoamingStore::new("netscape");
        s.create_user("arnaud").unwrap();
        assert!(s.get_blob("arnaud", BlobKind::Bookmarks).is_err());
        assert!(s.get_blob("ghost", BlobKind::AddressBook).is_err());
    }

    #[test]
    fn mp3_playlist_is_supported_opaquely() {
        // The §6 anecdote: any binary format fits, LDAP knows nothing.
        let mut s = RoamingStore::new("netscape");
        s.create_user("arnaud").unwrap();
        s.put_blob("arnaud", BlobKind::Mp3Playlist, "RIFF\u{1}\u{2}...").unwrap();
        assert!(s.get_blob("arnaud", BlobKind::Mp3Playlist).unwrap().starts_with("RIFF"));
    }

    #[test]
    fn update_costs_whole_object_both_ways() {
        let mut s = RoamingStore::new("netscape");
        s.create_user("arnaud").unwrap();
        let big: String = "x".repeat(10_000);
        s.put_blob("arnaud", BlobKind::AddressBook, &big).unwrap();
        let (r0, w0) = (s.bytes_read, s.bytes_written);
        // A one-character logical change…
        let moved = s
            .update_within_blob("arnaud", BlobKind::AddressBook, |b| {
                let mut b = b.to_string();
                b.replace_range(0..1, "y");
                b
            })
            .unwrap();
        // …moves the whole blob twice.
        assert_eq!(moved, 20_000);
        assert_eq!(s.bytes_read - r0, 10_000);
        assert_eq!(s.bytes_written - w0, 10_000);
    }
}
