//! A miniature main-memory relational substrate plus a GUP adapter.
//!
//! §3.1.2: "A typical HLR stores information for millions of users in
//! main memory relational databases. Most read-only queries performed by
//! HLR are simple lookup queries". This module provides exactly that
//! class of store — typed tables with primary keys and index lookups —
//! and [`RelationalAdapter`], the wrapper that publishes it through the
//! GUP-compliant [`DataStore`] interface as XML (the "adapter on top of
//! any data store" of §5.3).

use std::collections::{BTreeMap, HashMap};

use gupster_xml::Element;
use gupster_xpath::{Path, Predicate};

use crate::error::StoreError;
use crate::store_trait::{
    owner_of, Capabilities, ChangeEvent, DataStore, Fragment, StoreId, UpdateOp,
};

/// A column value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// NULL.
    Null,
    /// Text.
    Text(String),
    /// Integer.
    Int(i64),
}

impl Value {
    /// Renders the value for XML output (`Null` renders empty).
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Text(s) => s.clone(),
            Value::Int(i) => i.to_string(),
        }
    }

    /// Text constructor convenience.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }
}

/// A table: named columns, rows indexed by primary key (first column).
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column names; column 0 is the primary key.
    pub columns: Vec<String>,
    rows: BTreeMap<Value, Vec<Value>>,
    /// Secondary hash index: column → value → primary keys.
    indexes: HashMap<usize, HashMap<Value, Vec<Value>>>,
}

impl Table {
    /// Creates a table with the given columns (first is the PK).
    pub fn new(columns: &[&str]) -> Self {
        Table {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: BTreeMap::new(),
            indexes: HashMap::new(),
        }
    }

    /// Declares a secondary index on a column.
    pub fn index_on(&mut self, column: &str) {
        if let Some(i) = self.col(column) {
            let mut ix: HashMap<Value, Vec<Value>> = HashMap::new();
            for (pk, row) in &self.rows {
                ix.entry(row[i].clone()).or_default().push(pk.clone());
            }
            self.indexes.insert(i, ix);
        }
    }

    fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Inserts (or replaces) a row. Row length must match the columns.
    pub fn upsert(&mut self, row: Vec<Value>) -> Result<(), StoreError> {
        if row.len() != self.columns.len() {
            return Err(StoreError::Backend(format!(
                "row arity {} != {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        let pk = row[0].clone();
        if let Some(old) = self.rows.get(&pk) {
            for (i, ix) in self.indexes.iter_mut() {
                if let Some(list) = ix.get_mut(&old[*i]) {
                    list.retain(|k| k != &pk);
                }
            }
        }
        for (i, ix) in self.indexes.iter_mut() {
            ix.entry(row[*i].clone()).or_default().push(pk.clone());
        }
        self.rows.insert(pk, row);
        Ok(())
    }

    /// Deletes a row by primary key.
    pub fn delete(&mut self, pk: &Value) -> Option<Vec<Value>> {
        let row = self.rows.remove(pk)?;
        for (i, ix) in self.indexes.iter_mut() {
            if let Some(list) = ix.get_mut(&row[*i]) {
                list.retain(|k| k != pk);
            }
        }
        Some(row)
    }

    /// Point lookup by primary key.
    pub fn get(&self, pk: &Value) -> Option<&Vec<Value>> {
        self.rows.get(pk)
    }

    /// Lookup by any column; uses the secondary index if one exists,
    /// otherwise scans.
    pub fn lookup(&self, column: &str, value: &Value) -> Vec<&Vec<Value>> {
        let Some(i) = self.col(column) else { return Vec::new() };
        if let Some(ix) = self.indexes.get(&i) {
            ix.get(value)
                .map(|pks| pks.iter().filter_map(|pk| self.rows.get(pk)).collect())
                .unwrap_or_default()
        } else {
            self.rows.values().filter(|r| &r[i] == value).collect()
        }
    }

    /// Updates one column of the row with the given primary key.
    pub(crate) fn update_column(
        &mut self,
        pk: &Value,
        column: &str,
        value: Value,
    ) -> Result<(), StoreError> {
        let i = self
            .col(column)
            .ok_or_else(|| StoreError::Backend(format!("no column '{column}'")))?;
        let row = self
            .rows
            .get_mut(pk)
            .ok_or_else(|| StoreError::Backend(format!("no row with pk {pk:?}")))?;
        if let Some(ix) = self.indexes.get_mut(&i) {
            if let Some(list) = ix.get_mut(&row[i]) {
                list.retain(|k| k != pk);
            }
            ix.entry(value.clone()).or_default().push(pk.clone());
        }
        row[i] = value;
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates all rows.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.rows.values()
    }
}

/// A named collection of tables.
#[derive(Debug, Clone, Default)]
pub struct RelationalDb {
    tables: BTreeMap<String, Table>,
}

impl RelationalDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, columns: &[&str]) {
        self.tables.insert(name.to_string(), Table::new(columns));
    }

    /// Table accessor.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Mutable table accessor.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }
}

/// GUP adapter over a subscriber-shaped relational schema.
///
/// Expected tables:
///
/// * `subscriber(id, name, msisdn, presence, forward_to)`
/// * `contact(cid, user_id, kind, name, phone)` — indexed on `user_id`
///
/// The adapter publishes, per user, the GUP components `identity`
/// (virtual view over `subscriber`), `presence`, `devices` (msisdn as
/// the phone device) and `address-book` (view over `contact`). Updates
/// to `presence` and address-book items are translated back to
/// relational operations; anything else is rejected as untranslatable —
/// exactly the partial-capability situation adapters have in practice.
#[derive(Debug, Clone)]
pub struct RelationalAdapter {
    id: StoreId,
    /// The wrapped database.
    pub db: RelationalDb,
    generation: u64,
    events: Vec<ChangeEvent>,
    next_cid: i64,
}

impl RelationalAdapter {
    /// Creates the adapter with the expected empty schema.
    pub fn new(id: impl Into<String>) -> Self {
        let mut db = RelationalDb::new();
        db.create_table("subscriber", &["id", "name", "msisdn", "presence", "forward_to"]);
        db.create_table("contact", &["cid", "user_id", "kind", "name", "phone"]);
        db.table_mut("contact").expect("created").index_on("user_id");
        RelationalAdapter {
            id: StoreId::new(id),
            db,
            generation: 0,
            events: Vec::new(),
            next_cid: 1,
        }
    }

    /// Provisions a subscriber row.
    pub fn add_subscriber(&mut self, id: &str, name: &str, msisdn: &str) {
        self.db
            .table_mut("subscriber")
            .expect("schema")
            .upsert(vec![
                Value::text(id),
                Value::text(name),
                Value::text(msisdn),
                Value::text("unknown"),
                Value::Null,
            ])
            .expect("arity");
        self.generation += 1;
    }

    /// Adds a contact row for a user; returns the contact id.
    pub fn add_contact(&mut self, user: &str, kind: &str, name: &str, phone: &str) -> i64 {
        let cid = self.next_cid;
        self.next_cid += 1;
        self.db
            .table_mut("contact")
            .expect("schema")
            .upsert(vec![
                Value::Int(cid),
                Value::text(user),
                Value::text(kind),
                Value::text(name),
                Value::text(phone),
            ])
            .expect("arity");
        self.generation += 1;
        cid
    }

    /// Builds the virtual GUP view of one user (the paper's "virtual"
    /// transformation — nothing is materialized in the store).
    pub fn gup_view(&self, user: &str) -> Option<Element> {
        let sub = self.db.table("subscriber")?.get(&Value::text(user))?.clone();
        let mut doc = Element::new("user").with_attr("id", user);
        // identity
        doc.push_child(
            Element::new("identity")
                .with_child(Element::new("name").with_text(sub[1].render())),
        );
        // presence
        doc.push_child(Element::new("presence").with_text(sub[3].render()));
        // devices (the MSISDN is the wireless phone)
        doc.push_child(
            Element::new("devices").with_child(
                Element::new("device")
                    .with_attr("id", "msisdn")
                    .with_attr("kind", "phone")
                    .with_child(Element::new("number").with_text(sub[2].render())),
            ),
        );
        // address-book from the contact table
        let mut book = Element::new("address-book");
        for row in self.db.table("contact")?.lookup("user_id", &Value::text(user)) {
            book.push_child(
                Element::new("item")
                    .with_attr("id", row[0].render())
                    .with_attr("type", row[2].render())
                    .with_child(Element::new("name").with_text(row[3].render()))
                    .with_child(Element::new("phone").with_text(row[4].render())),
            );
        }
        doc.push_child(book);
        Some(doc)
    }
}

impl DataStore for RelationalAdapter {
    fn id(&self) -> &StoreId {
        &self.id
    }

    fn fragments<'a>(&'a self, path: &Path, out: &mut Vec<Fragment<'a>>) -> Result<(), StoreError> {
        let mut answer = |user: &str| {
            if let Some(view) = self.gup_view(user) {
                Fragment::select_built(path, &view, out);
            }
        };
        match owner_of(path) {
            Some(user) => answer(user),
            None => self.users().iter().for_each(|user| answer(user)),
        }
        Ok(())
    }

    fn update(&mut self, user: &str, op: &UpdateOp) -> Result<(), StoreError> {
        let path_str = op.path().to_string();
        let names: Vec<&str> = op
            .path()
            .steps
            .iter()
            .filter_map(|s| match &s.test {
                gupster_xpath::NameTest::Name(n) => Some(n.as_ref()),
                gupster_xpath::NameTest::Any => None,
            })
            .collect();
        match (op, names.as_slice()) {
            (UpdateOp::SetText(_, text), ["user", "presence"]) => {
                self.db
                    .table_mut("subscriber")
                    .expect("schema")
                    .update_column(&Value::text(user), "presence", Value::text(text.clone()))
                    .map_err(|_| StoreError::UnknownUser(user.to_string()))?;
            }
            (UpdateOp::InsertChild(_, item), ["user", "address-book"]) => {
                let kind = item.attr("type").unwrap_or("personal").to_string();
                let name =
                    item.child("name").map(|n| n.text()).unwrap_or_default();
                let phone =
                    item.child("phone").map(|n| n.text()).unwrap_or_default();
                self.add_contact(user, &kind, &name, &phone);
                // add_contact bumped the generation; don't double-bump.
                self.generation -= 1;
            }
            (UpdateOp::Delete(p), ["user", "address-book", "item"]) => {
                // Find the item id predicate.
                let cid = p.steps.last().and_then(|s| {
                    s.predicates.iter().find_map(|pr| match pr {
                        Predicate::AttrEq(a, v) if a == "id" => v.parse::<i64>().ok(),
                        _ => None,
                    })
                });
                let cid = cid.ok_or_else(|| {
                    StoreError::Untranslatable(format!(
                        "delete needs an item id predicate: {path_str}"
                    ))
                })?;
                self.db
                    .table_mut("contact")
                    .expect("schema")
                    .delete(&Value::Int(cid))
                    .ok_or_else(|| StoreError::NoSuchTarget(path_str.clone()))?;
            }
            _ => {
                return Err(StoreError::Untranslatable(format!(
                    "no relational translation for {op:?}"
                )))
            }
        }
        self.generation += 1;
        self.events.push(ChangeEvent {
            user: user.to_string(),
            path: op.path().clone(),
            generation: self.generation,
        });
        Ok(())
    }

    fn users(&self) -> Vec<String> {
        self.db
            .table("subscriber")
            .map(|t| t.rows().map(|r| r[0].render()).collect())
            .unwrap_or_default()
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { can_update: true, can_subscribe: true, can_chain: false }
    }

    fn drain_events(&mut self) -> Vec<ChangeEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_oracle::select_strings;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn adapter() -> RelationalAdapter {
        let mut a = RelationalAdapter::new("gup.spcs.com");
        a.add_subscriber("arnaud", "Arnaud Sahuguet", "908-555-0199");
        a.add_contact("arnaud", "personal", "Mom", "908-555-0101");
        a.add_contact("arnaud", "corporate", "Rick", "908-582-4393");
        a.add_subscriber("rick", "Rick Hull", "908-555-0200");
        a
    }

    #[test]
    fn table_pk_and_index() {
        let mut t = Table::new(&["id", "city"]);
        t.index_on("city");
        t.upsert(vec![Value::Int(1), Value::text("NYC")]).unwrap();
        t.upsert(vec![Value::Int(2), Value::text("NYC")]).unwrap();
        t.upsert(vec![Value::Int(3), Value::text("SF")]).unwrap();
        assert_eq!(t.lookup("city", &Value::text("NYC")).len(), 2);
        // Upsert moves index entries.
        t.upsert(vec![Value::Int(2), Value::text("SF")]).unwrap();
        assert_eq!(t.lookup("city", &Value::text("NYC")).len(), 1);
        assert_eq!(t.lookup("city", &Value::text("SF")).len(), 2);
        // Delete cleans indexes.
        t.delete(&Value::Int(3));
        assert_eq!(t.lookup("city", &Value::text("SF")).len(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(&["id", "x"]);
        assert!(t.upsert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn virtual_view_has_gup_shape() {
        let a = adapter();
        let v = a.gup_view("arnaud").unwrap();
        assert_eq!(v.attr("id"), Some("arnaud"));
        assert_eq!(v.child("address-book").unwrap().children_named("item").count(), 2);
        assert_eq!(
            select_strings(&p("/user/devices/device/number"), &v),
            vec!["908-555-0199"]
        );
    }

    #[test]
    fn query_through_adapter() {
        let a = adapter();
        let r = a.query(&p("/user[@id='arnaud']/address-book/item[@type='corporate']/name"))
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].text(), "Rick");
        // Cross-user query without predicate.
        assert_eq!(a.query(&p("/user/presence")).unwrap().len(), 2);
    }

    #[test]
    fn presence_update_translates() {
        let mut a = adapter();
        a.update("arnaud", &UpdateOp::SetText(p("/user/presence"), "busy".into())).unwrap();
        assert_eq!(
            a.query(&p("/user[@id='arnaud']/presence")).unwrap()[0].text(),
            "busy"
        );
        let ev = a.drain_events();
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn contact_insert_and_delete_translate() {
        let mut a = adapter();
        let item = Element::new("item")
            .with_attr("type", "personal")
            .with_child(Element::new("name").with_text("Bob"))
            .with_child(Element::new("phone").with_text("908-111-2222"));
        a.update("arnaud", &UpdateOp::InsertChild(p("/user/address-book"), item)).unwrap();
        assert_eq!(
            a.query(&p("/user[@id='arnaud']/address-book/item")).unwrap().len(),
            3
        );
        a.update("arnaud", &UpdateOp::Delete(p("/user/address-book/item[@id='1']"))).unwrap();
        assert_eq!(
            a.query(&p("/user[@id='arnaud']/address-book/item")).unwrap().len(),
            2
        );
    }

    #[test]
    fn untranslatable_rejected() {
        let mut a = adapter();
        let err = a.update("arnaud", &UpdateOp::SetText(p("/user/calendar"), "x".into()));
        assert!(matches!(err, Err(StoreError::Untranslatable(_))));
        let err = a.update("arnaud", &UpdateOp::Delete(p("/user/address-book/item")));
        assert!(matches!(err, Err(StoreError::Untranslatable(_))));
    }

    #[test]
    fn unknown_user_presence_update_fails() {
        let mut a = adapter();
        let err = a.update("ghost", &UpdateOp::SetText(p("/user/presence"), "x".into()));
        assert!(matches!(err, Err(StoreError::UnknownUser(_))));
    }
}
