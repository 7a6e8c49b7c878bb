//! Document validation against a [`Schema`].

use std::fmt;

use gupster_xml::Element;

use crate::schema::{ContentModel, ElementDecl, Schema};

/// Why a document (fragment) failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationErrorKind {
    /// The element's tag has no declaration.
    UndeclaredElement,
    /// A child tag is not declared for this parent (and it isn't open).
    UnexpectedChild(String),
    /// A child slot's occurrence bounds were violated.
    Occurrence {
        /// The child tag.
        child: String,
        /// Observed count.
        found: u32,
        /// Allowed minimum.
        min: u32,
        /// Allowed maximum.
        max: u32,
    },
    /// A required attribute is missing.
    MissingAttr(String),
    /// An attribute is not declared (and the element isn't open).
    UnexpectedAttr(String),
    /// An attribute value failed its datatype.
    BadAttrValue {
        /// Attribute name.
        attr: String,
        /// Offending value.
        value: String,
    },
    /// Text content failed the element's datatype.
    BadText(String),
    /// Text content present where the content model forbids it.
    UnexpectedText,
    /// Element children present where the content model forbids them.
    UnexpectedElements,
    /// The document element is not the schema root.
    WrongRoot {
        /// Expected root tag.
        expected: String,
        /// Found tag.
        found: String,
    },
}

/// One validation failure, located by a slash path of tag names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Human-oriented location, e.g. `user/address-book/item`.
    pub location: String,
    /// The failure.
    pub kind: ValidationErrorKind,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: ", self.location)?;
        match &self.kind {
            ValidationErrorKind::UndeclaredElement => write!(f, "undeclared element"),
            ValidationErrorKind::UnexpectedChild(c) => write!(f, "unexpected child <{c}>"),
            ValidationErrorKind::Occurrence { child, found, min, max } => write!(
                f,
                "child <{child}> occurs {found} times (allowed {min}..{})",
                if *max == u32::MAX { "∞".to_string() } else { max.to_string() }
            ),
            ValidationErrorKind::MissingAttr(a) => write!(f, "missing required attribute '{a}'"),
            ValidationErrorKind::UnexpectedAttr(a) => write!(f, "unexpected attribute '{a}'"),
            ValidationErrorKind::BadAttrValue { attr, value } => {
                write!(f, "attribute '{attr}' has ill-typed value '{value}'")
            }
            ValidationErrorKind::BadText(t) => write!(f, "ill-typed text '{t}'"),
            ValidationErrorKind::UnexpectedText => write!(f, "text content not allowed"),
            ValidationErrorKind::UnexpectedElements => write!(f, "element content not allowed"),
            ValidationErrorKind::WrongRoot { expected, found } => {
                write!(f, "document element is <{found}>, schema expects <{expected}>")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl Schema {
    /// Validates a whole document (the root tag must match the schema
    /// root). Returns every violation found, not just the first — the
    /// paper's self-provisioning interfaces need full feedback (Req. 11).
    pub fn validate(&self, doc: &Element) -> Vec<ValidationError> {
        let mut errs = Vec::new();
        if doc.name != self.root {
            errs.push(ValidationError {
                location: doc.name.to_string(),
                kind: ValidationErrorKind::WrongRoot {
                    expected: self.root.clone(),
                    found: doc.name.to_string(),
                },
            });
            return errs;
        }
        self.validate_fragment(doc, &mut errs);
        errs
    }

    /// Validates a subtree whose root may be any declared element — used
    /// when a store returns a *component* rather than a full profile.
    pub(crate) fn validate_fragment(&self, frag: &Element, errs: &mut Vec<ValidationError>) {
        self.validate_at(frag, frag.name.to_string(), errs);
    }

    fn validate_at(&self, e: &Element, location: String, errs: &mut Vec<ValidationError>) {
        let Some(decl) = self.decl(&e.name) else {
            errs.push(ValidationError {
                location,
                kind: ValidationErrorKind::UndeclaredElement,
            });
            return;
        };
        self.check_attrs(e, decl, &location, errs);
        self.check_content(e, decl, &location, errs);
        self.check_children(e, decl, &location, errs);
        for ch in e.child_elements() {
            // Recurse into declared (or tolerated-and-declared) children.
            if self.decl(&ch.name).is_some() {
                self.validate_at(ch, format!("{location}/{}", ch.name), errs);
            }
        }
    }

    fn check_attrs(
        &self,
        e: &Element,
        decl: &ElementDecl,
        location: &str,
        errs: &mut Vec<ValidationError>,
    ) {
        for ad in &decl.attrs {
            match e.attr(&ad.name) {
                None if ad.required => errs.push(ValidationError {
                    location: location.to_string(),
                    kind: ValidationErrorKind::MissingAttr(ad.name.clone()),
                }),
                Some(v) if !ad.datatype.is_valid(v) => errs.push(ValidationError {
                    location: location.to_string(),
                    kind: ValidationErrorKind::BadAttrValue {
                        attr: ad.name.clone(),
                        value: v.to_string(),
                    },
                }),
                _ => {}
            }
        }
        if !decl.open {
            for (n, _) in &e.attrs {
                if decl.attr_decl(n).is_none() {
                    errs.push(ValidationError {
                        location: location.to_string(),
                        kind: ValidationErrorKind::UnexpectedAttr(n.to_string()),
                    });
                }
            }
        }
    }

    fn check_content(
        &self,
        e: &Element,
        decl: &ElementDecl,
        location: &str,
        errs: &mut Vec<ValidationError>,
    ) {
        let text = e.text();
        let has_text = !text.trim().is_empty();
        let has_elems = e.child_elements().next().is_some();
        match decl.content {
            ContentModel::Empty => {
                if has_text {
                    errs.push(ValidationError {
                        location: location.to_string(),
                        kind: ValidationErrorKind::UnexpectedText,
                    });
                }
                if has_elems {
                    errs.push(ValidationError {
                        location: location.to_string(),
                        kind: ValidationErrorKind::UnexpectedElements,
                    });
                }
            }
            ContentModel::Text(dt) => {
                if has_elems {
                    errs.push(ValidationError {
                        location: location.to_string(),
                        kind: ValidationErrorKind::UnexpectedElements,
                    });
                }
                if has_text && !dt.is_valid(text.trim()) {
                    errs.push(ValidationError {
                        location: location.to_string(),
                        kind: ValidationErrorKind::BadText(text.trim().to_string()),
                    });
                }
            }
            ContentModel::Elements => {
                if has_text {
                    errs.push(ValidationError {
                        location: location.to_string(),
                        kind: ValidationErrorKind::UnexpectedText,
                    });
                }
            }
            ContentModel::Mixed(dt) => {
                if has_text && !dt.is_valid(text.trim()) {
                    errs.push(ValidationError {
                        location: location.to_string(),
                        kind: ValidationErrorKind::BadText(text.trim().to_string()),
                    });
                }
            }
        }
    }

    fn check_children(
        &self,
        e: &Element,
        decl: &ElementDecl,
        location: &str,
        errs: &mut Vec<ValidationError>,
    ) {
        for cd in &decl.children {
            let n = e.children_named(&cd.name).count() as u32;
            if !cd.occurs.admits(n) {
                errs.push(ValidationError {
                    location: location.to_string(),
                    kind: ValidationErrorKind::Occurrence {
                        child: cd.name.clone(),
                        found: n,
                        min: cd.occurs.min,
                        max: cd.occurs.max,
                    },
                });
            }
        }
        if !decl.open {
            for ch in e.child_elements() {
                if decl.child_decl(&ch.name).is_none() {
                    errs.push(ValidationError {
                        location: location.to_string(),
                        kind: ValidationErrorKind::UnexpectedChild(ch.name.to_string()),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::{ElementDecl, Occurs, Schema};
    use gupster_xml::parse;

    fn schema() -> Schema {
        Schema::new("user", "t-1")
            .with(
                ElementDecl::new("user")
                    .attr("id", DataType::Text, true)
                    .child("book", Occurs::OPTIONAL),
            )
            .with(ElementDecl::new("book").child("item", Occurs::MANY))
            .with(
                ElementDecl::new("item")
                    .attr("id", DataType::Integer, true)
                    .child("name", Occurs::ONE)
                    .child("phone", Occurs::OPTIONAL),
            )
            .with(ElementDecl::new("name").content(ContentModel::Text(DataType::Text)))
            .with(ElementDecl::new("phone").content(ContentModel::Text(DataType::PhoneNumber)))
    }

    #[test]
    fn valid_document_passes() {
        let doc = parse(
            r#"<user id="a"><book><item id="1"><name>Bob</name><phone>908-582-4393</phone></item></book></user>"#,
        )
        .unwrap();
        assert_eq!(schema().validate(&doc), vec![]);
    }

    #[test]
    fn wrong_root_reported() {
        let doc = parse("<account/>").unwrap();
        let errs = schema().validate(&doc);
        assert!(matches!(errs[0].kind, ValidationErrorKind::WrongRoot { .. }));
    }

    #[test]
    fn missing_required_attr() {
        let doc = parse("<user/>").unwrap();
        let errs = schema().validate(&doc);
        assert!(errs.iter().any(|e| e.kind == ValidationErrorKind::MissingAttr("id".into())));
    }

    #[test]
    fn ill_typed_attr_and_text() {
        let doc = parse(
            r#"<user id="a"><book><item id="x"><name>Bob</name><phone>shout</phone></item></book></user>"#,
        )
        .unwrap();
        let errs = schema().validate(&doc);
        assert!(errs.iter().any(|e| matches!(&e.kind, ValidationErrorKind::BadAttrValue { attr, .. } if attr == "id")));
        assert!(errs.iter().any(|e| matches!(&e.kind, ValidationErrorKind::BadText(t) if t == "shout")));
        // Locations point into the tree.
        assert!(errs.iter().any(|e| e.location == "user/book/item/phone"));
    }

    #[test]
    fn occurrence_bounds_enforced() {
        let doc = parse(r#"<user id="a"><book><item id="1"/></book></user>"#).unwrap();
        let errs = schema().validate(&doc);
        assert!(errs.iter().any(|e| matches!(
            &e.kind,
            ValidationErrorKind::Occurrence { child, found: 0, min: 1, .. } if child == "name"
        )));
    }

    #[test]
    fn unexpected_child_and_attr() {
        let doc = parse(r#"<user id="a" extra="1"><calendar/></user>"#).unwrap();
        let errs = schema().validate(&doc);
        assert!(errs
            .iter()
            .any(|e| e.kind == ValidationErrorKind::UnexpectedAttr("extra".into())));
        assert!(errs
            .iter()
            .any(|e| e.kind == ValidationErrorKind::UnexpectedChild("calendar".into())));
    }

    #[test]
    fn all_errors_collected() {
        let doc = parse(r#"<user><book><item/></book></user>"#).unwrap();
        let errs = schema().validate(&doc);
        assert!(errs.len() >= 3, "{errs:?}");
    }

    #[test]
    fn fragment_validation() {
        let frag = parse(r#"<item id="2"><name>Rick</name></item>"#).unwrap();
        let mut errs = Vec::new();
        schema().validate_fragment(&frag, &mut errs);
        assert_eq!(errs, vec![]);
    }

    #[test]
    fn text_in_element_content_rejected() {
        let doc = parse(r#"<user id="a">loose text</user>"#).unwrap();
        let errs = schema().validate(&doc);
        assert!(errs.iter().any(|e| e.kind == ValidationErrorKind::UnexpectedText));
    }
}
