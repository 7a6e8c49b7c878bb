//! The condition language over request contexts.
//!
//! Conditions are what make the shield richer than stock XACML (§6):
//! they can test the requester, the provisioned relationship, the
//! purpose, time-of-week windows and extension attributes, combined with
//! `and` / `or` / `not` and parentheses. Example — the §4.6 policy "any
//! co-worker can access my presence information during working-hours":
//!
//! ```text
//! relationship='co-worker' and time in Mon-Fri 09:00-18:00
//! ```

use std::fmt;

use crate::context::{RequestContext, WeekTime};

/// A boolean expression over a [`RequestContext`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// Always true.
    True,
    /// `requester='x'`.
    RequesterIs(String),
    /// `relationship='x'`.
    RelationshipIs(String),
    /// `purpose='query'`.
    PurposeIs(String),
    /// `attr:name='v'` — extension attribute equality.
    AttrEq(String, String),
    /// `time in Mon-Fri 09:00-18:00` — day-set plus daily window
    /// (half-open `[from, to)`; windows may wrap midnight).
    TimeWindow {
        /// Days the window applies to (0 = Monday).
        days: Vec<u32>,
        /// Window start, minutes of day.
        from: u32,
        /// Window end, minutes of day (exclusive).
        to: u32,
    },
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
    /// Disjunction.
    Or(Box<Condition>, Box<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

impl Condition {
    /// Evaluates against a context.
    pub fn eval(&self, ctx: &RequestContext) -> bool {
        match self {
            Condition::True => true,
            Condition::RequesterIs(r) => ctx.requester == *r,
            Condition::RelationshipIs(r) => ctx.relationship == *r,
            Condition::PurposeIs(p) => ctx.purpose.to_string() == *p,
            Condition::AttrEq(k, v) => ctx.attrs.get(k).is_some_and(|x| x == v),
            Condition::TimeWindow { days, from, to } => {
                if !days.contains(&ctx.time.day()) {
                    return false;
                }
                let m = ctx.time.minute_of_day();
                if from <= to {
                    m >= *from && m < *to
                } else {
                    m >= *from || m < *to // wraps midnight
                }
            }
            Condition::And(a, b) => a.eval(ctx) && b.eval(ctx),
            Condition::Or(a, b) => a.eval(ctx) || b.eval(ctx),
            Condition::Not(c) => !c.eval(ctx),
        }
    }

    /// Parses the condition language. Grammar (informal):
    ///
    /// ```text
    /// expr   := term (('and'|'or') term)*        -- left-assoc, and binds tighter
    /// term   := 'not' term | '(' expr ')' | atom
    /// atom   := 'true'
    ///         | 'requester' '=' str | 'relationship' '=' str
    ///         | 'purpose' '=' str   | 'attr:' name '=' str
    ///         | 'time' 'in' days HH:MM '-' HH:MM
    /// days   := 'any' | Day ('-' Day | (',' Day)*)
    /// ```
    pub fn parse(input: &str) -> Result<Condition, String> {
        let tokens = lex(input)?;
        let mut p = Parser { toks: &tokens, pos: 0 };
        let c = p.parse_or()?;
        if p.pos != p.toks.len() {
            return Err(format!("trailing tokens in condition: {input}"));
        }
        Ok(c)
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::True => f.write_str("true"),
            Condition::RequesterIs(r) => write!(f, "requester='{r}'"),
            Condition::RelationshipIs(r) => write!(f, "relationship='{r}'"),
            Condition::PurposeIs(p) => write!(f, "purpose='{p}'"),
            Condition::AttrEq(k, v) => write!(f, "attr:{k}='{v}'"),
            Condition::TimeWindow { days, from, to } => {
                let names = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
                let ds: Vec<&str> = days.iter().map(|d| names[*d as usize % 7]).collect();
                write!(
                    f,
                    "time in {} {:02}:{:02}-{:02}:{:02}",
                    ds.join(","),
                    from / 60,
                    from % 60,
                    to / 60,
                    to % 60
                )
            }
            Condition::And(a, b) => write!(f, "({a} and {b})"),
            Condition::Or(a, b) => write!(f, "({a} or {b})"),
            Condition::Not(c) => write!(f, "not ({c})"),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    Str(String),
    Eq,
    LParen,
    RParen,
    Dash,
    Comma,
    Colon,
    Time(u32), // minutes of day
}

fn lex(input: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let b = input.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            b'(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            b'-' => {
                out.push(Tok::Dash);
                i += 1;
            }
            b',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            b':' => {
                out.push(Tok::Colon);
                i += 1;
            }
            b'\'' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err("unterminated string".into());
                }
                out.push(Tok::Str(input[start..j].to_string()));
                i = j + 1;
            }
            b'0'..=b'9' => {
                // HH:MM time literal.
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i] == b':' {
                    let h: u32 = input[start..i].parse().map_err(|_| "bad hour")?;
                    i += 1;
                    let mstart = i;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let m: u32 = input[mstart..i].parse().map_err(|_| "bad minute")?;
                    if h > 24 || m > 59 {
                        return Err(format!("bad time {h}:{m}"));
                    }
                    out.push(Tok::Time(h * 60 + m));
                } else {
                    return Err(format!("bare number at {start}"));
                }
            }
            c if c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Word(input[start..i].to_string()));
            }
            other => return Err(format!("unexpected character '{}'", other as char)),
        }
    }
    Ok(out)
}

struct Parser<'t> {
    toks: &'t [Tok],
    pos: usize,
}

impl<'t> Parser<'t> {
    fn peek(&self) -> Option<&'t Tok> {
        self.toks.get(self.pos)
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Word(x)) if x.eq_ignore_ascii_case(w)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<Condition, String> {
        let mut left = self.parse_and()?;
        while self.eat_word("or") {
            let right = self.parse_and()?;
            left = Condition::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Condition, String> {
        let mut left = self.parse_term()?;
        while self.eat_word("and") {
            let right = self.parse_term()?;
            left = Condition::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_term(&mut self) -> Result<Condition, String> {
        if self.eat_word("not") {
            return Ok(Condition::Not(Box::new(self.parse_term()?)));
        }
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            let c = self.parse_or()?;
            if self.peek() != Some(&Tok::RParen) {
                return Err("expected ')'".into());
            }
            self.pos += 1;
            return Ok(c);
        }
        self.parse_atom()
    }

    fn expect_eq_str(&mut self) -> Result<String, String> {
        if self.peek() != Some(&Tok::Eq) {
            return Err("expected '='".into());
        }
        self.pos += 1;
        match self.peek() {
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(s.clone())
            }
            _ => Err("expected quoted string".into()),
        }
    }

    fn parse_atom(&mut self) -> Result<Condition, String> {
        let word = match self.peek() {
            Some(Tok::Word(w)) => w.clone(),
            _ => return Err("expected a condition atom".into()),
        };
        self.pos += 1;
        match word.to_ascii_lowercase().as_str() {
            "true" => Ok(Condition::True),
            "requester" => Ok(Condition::RequesterIs(self.expect_eq_str()?)),
            "relationship" => Ok(Condition::RelationshipIs(self.expect_eq_str()?)),
            "purpose" => {
                let p = self.expect_eq_str()?;
                if crate::context::Purpose::parse(&p).is_none() {
                    return Err(format!("unknown purpose '{p}'"));
                }
                Ok(Condition::PurposeIs(p))
            }
            "attr" => {
                if self.peek() != Some(&Tok::Colon) {
                    return Err("expected ':' after attr".into());
                }
                self.pos += 1;
                let name = match self.peek() {
                    Some(Tok::Word(w)) => w.clone(),
                    _ => return Err("expected attribute name".into()),
                };
                self.pos += 1;
                Ok(Condition::AttrEq(name, self.expect_eq_str()?))
            }
            "time" => {
                if !self.eat_word("in") {
                    return Err("expected 'in' after time".into());
                }
                let days = self.parse_days()?;
                let from = match self.peek() {
                    Some(Tok::Time(t)) => *t,
                    _ => return Err("expected HH:MM".into()),
                };
                self.pos += 1;
                if self.peek() != Some(&Tok::Dash) {
                    return Err("expected '-' in time window".into());
                }
                self.pos += 1;
                let to = match self.peek() {
                    Some(Tok::Time(t)) => *t,
                    _ => return Err("expected HH:MM".into()),
                };
                self.pos += 1;
                Ok(Condition::TimeWindow { days, from, to })
            }
            other => Err(format!("unknown atom '{other}'")),
        }
    }

    fn parse_days(&mut self) -> Result<Vec<u32>, String> {
        if self.eat_word("any") {
            return Ok((0..7).collect());
        }
        let first = match self.peek() {
            Some(Tok::Word(w)) => {
                WeekTime::day_from_name(w).ok_or_else(|| format!("unknown day '{w}'"))?
            }
            _ => return Err("expected a day name".into()),
        };
        self.pos += 1;
        if self.peek() == Some(&Tok::Dash) {
            // Range Mon-Fri.
            self.pos += 1;
            let last = match self.peek() {
                Some(Tok::Word(w)) => {
                    WeekTime::day_from_name(w).ok_or_else(|| format!("unknown day '{w}'"))?
                }
                _ => return Err("expected a day name after '-'".into()),
            };
            self.pos += 1;
            let mut days = Vec::new();
            let mut d = first;
            loop {
                days.push(d);
                if d == last {
                    break;
                }
                d = (d + 1) % 7;
            }
            return Ok(days);
        }
        let mut days = vec![first];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            match self.peek() {
                Some(Tok::Word(w)) => {
                    days.push(
                        WeekTime::day_from_name(w).ok_or_else(|| format!("unknown day '{w}'"))?,
                    );
                    self.pos += 1;
                }
                _ => return Err("expected a day name after ','".into()),
            }
        }
        Ok(days)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Purpose, RequestContext};

    fn ctx(rel: &str, day: u32, hour: u32) -> RequestContext<'_> {
        RequestContext::query("rick", rel, WeekTime::at(day, hour, 0))
    }

    #[test]
    fn paper_coworker_policy() {
        // "any co-worker can access my presence information during
        // working-hours" (§4.6).
        let c = Condition::parse("relationship='co-worker' and time in Mon-Fri 09:00-18:00")
            .unwrap();
        assert!(c.eval(&ctx("co-worker", 1, 10)));
        assert!(!c.eval(&ctx("co-worker", 1, 8)));
        assert!(!c.eval(&ctx("co-worker", 5, 10))); // Saturday
        assert!(!c.eval(&ctx("third-party", 1, 10)));
    }

    #[test]
    fn paper_boss_family_policy() {
        // "my boss and my family can access my presence information at
        // any time".
        let c = Condition::parse("relationship='boss' or relationship='family'").unwrap();
        assert!(c.eval(&ctx("boss", 6, 3)));
        assert!(c.eval(&ctx("family", 0, 0)));
        assert!(!c.eval(&ctx("co-worker", 1, 10)));
    }

    #[test]
    fn precedence_and_parens() {
        // and binds tighter than or.
        let c = Condition::parse("relationship='a' or relationship='b' and purpose='cache'")
            .unwrap();
        assert!(c.eval(&ctx("a", 0, 0)));
        assert!(!c.eval(&ctx("b", 0, 0))); // purpose is query
        let c2 = Condition::parse("(relationship='a' or relationship='b') and purpose='query'")
            .unwrap();
        assert!(c2.eval(&ctx("b", 0, 0)));
    }

    #[test]
    fn negation() {
        let c = Condition::parse("not relationship='third-party'").unwrap();
        assert!(c.eval(&ctx("family", 0, 0)));
        assert!(!c.eval(&ctx("third-party", 0, 0)));
    }

    #[test]
    fn time_window_wraps_midnight() {
        let c = Condition::parse("time in any 22:00-06:00").unwrap();
        assert!(c.eval(&ctx("x", 2, 23)));
        assert!(c.eval(&ctx("x", 2, 3)));
        assert!(!c.eval(&ctx("x", 2, 12)));
    }

    #[test]
    fn day_lists_and_ranges() {
        let c = Condition::parse("time in Sat,Sun 00:00-24:00").unwrap();
        assert!(c.eval(&ctx("x", 5, 10)));
        assert!(c.eval(&ctx("x", 6, 10)));
        assert!(!c.eval(&ctx("x", 2, 10)));
        // Wrapping range Fri-Mon.
        let c = Condition::parse("time in Fri-Mon 00:00-24:00").unwrap();
        assert!(c.eval(&ctx("x", 4, 1)));
        assert!(c.eval(&ctx("x", 0, 1)));
        assert!(!c.eval(&ctx("x", 2, 1)));
    }

    #[test]
    fn purpose_and_attr_atoms() {
        let c = Condition::parse("purpose='subscribe'").unwrap();
        let mut k = ctx("x", 0, 0);
        assert!(!c.eval(&k));
        k.purpose = Purpose::Subscribe;
        assert!(c.eval(&k));
        let c = Condition::parse("attr:client='thin'").unwrap();
        assert!(!c.eval(&k));
        k.attrs.insert("client".into(), "thin".into());
        assert!(c.eval(&k));
    }

    #[test]
    fn requester_atom_and_true() {
        let c = Condition::parse("requester='rick' and true").unwrap();
        assert!(c.eval(&ctx("whatever", 0, 0)));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "relationship=",
            "relationship='x' and",
            "time in Mon",
            "time in Mon 09:00",
            "time in Noday 09:00-10:00",
            "purpose='espionage'",
            "bogus='x'",
            "relationship='x')",
            "attr='x'",
            "time in any 25:00-26:00",
        ] {
            assert!(Condition::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn display_reparses() {
        for s in [
            "relationship='co-worker' and time in Mon-Fri 09:00-18:00",
            "not (requester='x' or purpose='cache')",
            "attr:k='v'",
            "true",
        ] {
            let c = Condition::parse(s).unwrap();
            let c2 = Condition::parse(&c.to_string()).unwrap();
            // Semantically identical on a probe of contexts.
            for day in 0..7 {
                for hour in [0, 9, 12, 18, 23] {
                    let mut k = RequestContext::query("x", "co-worker", WeekTime::at(day, hour, 30));
                    k.attrs.insert("k".into(), "v".into());
                    assert_eq!(c.eval(&k), c2.eval(&k), "{s} at {day} {hour}");
                }
            }
        }
    }
}
