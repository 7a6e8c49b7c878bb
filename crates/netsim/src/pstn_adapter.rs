//! GUP-enabling the PSTN switch.
//!
//! §3.1.1: "User profile information is stored inside the switch itself,
//! which makes it hard to access and extend … Technology is now emerging
//! for providing a web-based interface for self-provisioning of this
//! data." This adapter *is* that technology: it publishes each of a
//! user's lines as a GUP `device` (kind `landline`, with `forwarding`,
//! `barred` and `caller-id` children) and translates GUP updates back
//! into switch provisioning — replacing both the operator path and the
//! keypad path.

use std::collections::BTreeMap;

use gupster_store::{
    Capabilities, ChangeEvent, DataStore, Fragment, StoreError, StoreId, UpdateOp,
};
use gupster_xml::Element;
use gupster_xpath::{NameTest, Path, Predicate};

use crate::pstn::Class5Switch;

/// A GUP adapter over a [`Class5Switch`].
#[derive(Debug)]
pub struct PstnAdapter {
    id: StoreId,
    /// The wrapped switch.
    pub switch: Class5Switch,
    /// user → the line numbers they own on this switch.
    lines_of: BTreeMap<String, Vec<String>>,
    generation: u64,
    events: Vec<ChangeEvent>,
}

impl PstnAdapter {
    /// Wraps a switch.
    pub fn new(id: impl Into<String>, switch: Class5Switch) -> Self {
        PstnAdapter {
            id: StoreId::new(id),
            switch,
            lines_of: BTreeMap::new(),
            generation: 0,
            events: Vec::new(),
        }
    }

    /// Associates a provisioned line with a user (the subscription
    /// record linking identity to line, which billing systems hold).
    pub fn assign_line(&mut self, user: &str, number: &str) {
        let lines = self.lines_of.entry(user.to_string()).or_default();
        if !lines.iter().any(|l| l == number) {
            lines.push(number.to_string());
        }
        self.generation += 1;
    }

    /// Builds the virtual GUP view of a user's lines.
    pub fn gup_view(&self, user: &str) -> Option<Element> {
        let lines = self.lines_of.get(user)?;
        let mut doc = Element::new("user").with_attr("id", user);
        let mut devices = Element::new("devices");
        for number in lines {
            let Some(rec) = self.switch.line(number) else { continue };
            let mut d = Element::new("device")
                .with_attr("id", format!("line-{number}"))
                .with_attr("kind", "landline")
                .with_child(Element::new("number").with_text(number.clone()));
            if let Some(fw) = &rec.forward_to {
                d.push_child(Element::new("forwarding").with_text(fw.clone()));
            }
            for b in &rec.barred {
                d.push_child(Element::new("barred").with_text(b.clone()));
            }
            d.push_child(
                Element::new("caller-id").with_text(if rec.caller_id { "true" } else { "false" }),
            );
            devices.push_child(d);
        }
        doc.push_child(devices);
        Some(doc)
    }

    fn path_user(path: &Path) -> Option<String> {
        path.steps.first().and_then(|s| {
            s.predicates.iter().find_map(|p| match p {
                Predicate::AttrEq(a, v) if a == "id" => Some(v.clone()),
                _ => None,
            })
        })
    }

    /// The line number addressed by a `device[@id='line-…']` step.
    fn target_line(path: &Path) -> Option<String> {
        path.steps.iter().find_map(|s| {
            s.predicates.iter().find_map(|p| match p {
                Predicate::AttrEq(a, v) if a == "id" => {
                    v.strip_prefix("line-").map(str::to_string)
                }
                _ => None,
            })
        })
    }
}

impl DataStore for PstnAdapter {
    fn id(&self) -> &StoreId {
        &self.id
    }

    fn fragments(&self, path: &Path) -> Result<Vec<Fragment<'_>>, StoreError> {
        let users = match Self::path_user(path) {
            Some(u) => vec![u],
            None => self.users(),
        };
        let mut out = Vec::new();
        for u in users {
            if let Some(view) = self.gup_view(&u) {
                out.extend(Fragment::select_built(path, &view));
            }
        }
        Ok(out)
    }

    fn update(&mut self, user: &str, op: &UpdateOp) -> Result<(), StoreError> {
        let owned = self
            .lines_of
            .get(user)
            .ok_or_else(|| StoreError::UnknownUser(user.to_string()))?
            .clone();
        let line = Self::target_line(op.path())
            .filter(|l| owned.iter().any(|o| o == l))
            .ok_or_else(|| {
                StoreError::Untranslatable(format!(
                    "update must address one of the user's lines: {}",
                    op.path()
                ))
            })?;
        let last = op.path().steps.last().map(|s| match &s.test {
            NameTest::Name(n) => n.as_str(),
            NameTest::Any => "*",
        });
        match (op, last) {
            (UpdateOp::SetText(_, target), Some("forwarding")) => {
                let target = if target.trim().is_empty() { None } else { Some(target.as_str()) };
                if !self.switch.keypad_set_forwarding(&line, target) {
                    return Err(StoreError::NoSuchTarget(line));
                }
            }
            (UpdateOp::Delete(_), Some("forwarding")) => {
                if !self.switch.keypad_set_forwarding(&line, None) {
                    return Err(StoreError::NoSuchTarget(line));
                }
            }
            (UpdateOp::InsertChild(_, barred), Some("device")) if barred.name == "barred" => {
                let number = barred.text().into_owned();
                let mut rec = self
                    .switch
                    .line(&line)
                    .ok_or_else(|| StoreError::NoSuchTarget(line.clone()))?
                    .clone();
                if !rec.barred.iter().any(|b| b == &number) {
                    rec.barred.push(number);
                }
                self.switch.provision_line(&line, rec);
            }
            (UpdateOp::SetText(_, v), Some("caller-id")) => {
                let mut rec = self
                    .switch
                    .line(&line)
                    .ok_or_else(|| StoreError::NoSuchTarget(line.clone()))?
                    .clone();
                rec.caller_id = v == "true" || v == "1";
                self.switch.provision_line(&line, rec);
            }
            _ => {
                return Err(StoreError::Untranslatable(format!(
                    "no switch translation for {op:?}"
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
        self.lines_of.keys().cloned().collect()
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
    use crate::link::Domain;
    use crate::network::Network;
    use crate::pstn::LineRecord;

    fn adapter() -> PstnAdapter {
        let mut net = Network::new(1);
        let node = net.add_node("5ess.nj.pstn", Domain::Pstn);
        let mut sw = Class5Switch::new(node);
        sw.provision_line(
            "908-582-3000",
            LineRecord { caller_id: true, ..Default::default() },
        );
        sw.provision_line("973-555-8000", LineRecord::default());
        let mut a = PstnAdapter::new("gup.pstn.nj", sw);
        a.assign_line("alice", "908-582-3000");
        a.assign_line("alice", "973-555-8000");
        a
    }

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn lines_published_as_gup_devices() {
        let a = adapter();
        let v = a.gup_view("alice").unwrap();
        let devices: Vec<_> = v.child("devices").unwrap().children_named("device").collect();
        assert_eq!(devices.len(), 2);
        assert_eq!(devices[0].attr("kind"), Some("landline"));
        assert_eq!(
            p("/user/devices/device[@id='line-908-582-3000']/caller-id")
                .select_strings(&v),
            vec!["true"]
        );
        // The view validates against the GUP schema.
        let errs = gupster_schema::gup_schema().validate(&v);
        assert_eq!(errs, vec![], "{errs:?}");
    }

    #[test]
    fn forwarding_self_provisioning_via_gup() {
        let mut a = adapter();
        // The §3.1.1 emerging web interface: set forwarding through GUP
        // instead of the keypad.
        a.update(
            "alice",
            &UpdateOp::SetText(
                p("/user/devices/device[@id='line-908-582-3000']/forwarding"),
                "908-555-0199".into(),
            ),
        )
        .unwrap();
        assert_eq!(
            a.switch.line("908-582-3000").unwrap().forward_to,
            Some("908-555-0199".to_string())
        );
        // And it shows in the published view.
        let r = a
            .query(&p("/user[@id='alice']/devices/device[@id='line-908-582-3000']/forwarding"))
            .unwrap();
        assert_eq!(r[0].text(), "908-555-0199");
        // Clearing it.
        a.update(
            "alice",
            &UpdateOp::Delete(p("/user/devices/device[@id='line-908-582-3000']/forwarding")),
        )
        .unwrap();
        assert_eq!(a.switch.line("908-582-3000").unwrap().forward_to, None);
    }

    #[test]
    fn barring_and_caller_id_via_gup() {
        let mut a = adapter();
        a.update(
            "alice",
            &UpdateOp::InsertChild(
                p("/user/devices/device[@id='line-973-555-8000']"),
                Element::new("barred").with_text("201-555-9999"),
            ),
        )
        .unwrap();
        assert_eq!(a.switch.line("973-555-8000").unwrap().barred, vec!["201-555-9999"]);
        a.update(
            "alice",
            &UpdateOp::SetText(
                p("/user/devices/device[@id='line-973-555-8000']/caller-id"),
                "true".into(),
            ),
        )
        .unwrap();
        assert!(a.switch.line("973-555-8000").unwrap().caller_id);
    }

    #[test]
    fn cannot_touch_other_peoples_lines() {
        let mut a = adapter();
        a.assign_line("bob", "908-582-3000"); // shared household line is fine
        let err = a.update(
            "mallory",
            &UpdateOp::SetText(
                p("/user/devices/device[@id='line-908-582-3000']/forwarding"),
                "1-900-EVIL".into(),
            ),
        );
        assert!(matches!(err, Err(StoreError::UnknownUser(_))));
        // A user can't address a line they don't own either.
        a.assign_line("mallory", "555-000-0000");
        let err = a.update(
            "mallory",
            &UpdateOp::SetText(
                p("/user/devices/device[@id='line-908-582-3000']/forwarding"),
                "1-900-EVIL".into(),
            ),
        );
        assert!(matches!(err, Err(StoreError::Untranslatable(_))));
    }

    #[test]
    fn untranslatable_updates_rejected() {
        let mut a = adapter();
        let err = a.update(
            "alice",
            &UpdateOp::SetText(
                p("/user/devices/device[@id='line-908-582-3000']/number"),
                "000".into(),
            ),
        );
        assert!(matches!(err, Err(StoreError::Untranslatable(_))));
    }
}
