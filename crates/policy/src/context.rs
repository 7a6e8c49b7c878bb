//! The request context — the facet XACML was "too limited" to express.

use std::collections::BTreeMap;
use std::fmt;

/// Why the requester wants the data (the paper's "purpose of the
/// request: plain request, caching request, subscription-based request").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// A plain one-shot query.
    Query,
    /// A request whose result will be cached by an intermediary.
    Cache,
    /// Establishing a subscription (continuous disclosure).
    Subscribe,
    /// A provisioning (write) request.
    Provision,
}

impl Purpose {
    /// Parses the lowercase name.
    pub(crate) fn parse(s: &str) -> Option<Purpose> {
        match s {
            "query" => Some(Purpose::Query),
            "cache" => Some(Purpose::Cache),
            "subscribe" => Some(Purpose::Subscribe),
            "provision" => Some(Purpose::Provision),
            _ => None,
        }
    }
}

impl fmt::Display for Purpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Purpose::Query => "query",
            Purpose::Cache => "cache",
            Purpose::Subscribe => "subscribe",
            Purpose::Provision => "provision",
        })
    }
}

/// A point in the week, minute resolution — policies like "co-workers
/// can see my presence during working hours (9am–6pm)" (§4.6) are
/// periodic in the week, not absolute in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WeekTime {
    /// Minutes since Monday 00:00 (0..10080).
    pub minutes: u32,
}

impl WeekTime {
    /// Builds from day (0 = Monday … 6 = Sunday), hour and minute.
    pub fn at(day: u32, hour: u32, minute: u32) -> WeekTime {
        WeekTime { minutes: (day % 7) * 24 * 60 + (hour % 24) * 60 + (minute % 60) }
    }

    /// Day of week (0 = Monday).
    pub fn day(self) -> u32 {
        self.minutes / (24 * 60)
    }

    /// Minute within the day (0..1440).
    pub fn minute_of_day(self) -> u32 {
        self.minutes % (24 * 60)
    }

    /// Parses `Mon 09:30` style day names.
    pub(crate) fn day_from_name(name: &str) -> Option<u32> {
        match &name.to_ascii_lowercase()[..] {
            "mon" | "monday" => Some(0),
            "tue" | "tuesday" => Some(1),
            "wed" | "wednesday" => Some(2),
            "thu" | "thursday" => Some(3),
            "fri" | "friday" => Some(4),
            "sat" | "saturday" => Some(5),
            "sun" | "sunday" => Some(6),
            _ => None,
        }
    }
}

/// The full context of a profile request (§4.6: "the context provides
/// some information about … identity of the requester, purpose of the
/// request, etc."). `Hash` covers every facet, so the decision memo can
/// key on a context digest. The identity facets are borrowed: a lookup
/// reads them where the request and the registry's tables hold them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestContext<'a> {
    /// Who asks (a user id or an application id).
    pub requester: &'a str,
    /// The requester's relationship to the profile owner: `self`,
    /// `family`, `co-worker`, `boss`, `third-party`, … Relationships are
    /// provisioned by the owner (the paper's boss/family/co-worker
    /// policies) and resolved by the registry before deciding.
    pub relationship: &'a str,
    /// Why.
    pub purpose: Purpose,
    /// When (simulated week time).
    pub time: WeekTime,
    /// Extension attributes (e.g. requester's network, client class).
    pub attrs: BTreeMap<String, String>,
}

impl<'a> RequestContext<'a> {
    /// A plain query context.
    pub fn query(requester: &'a str, relationship: &'a str, time: WeekTime) -> Self {
        RequestContext {
            requester,
            relationship,
            purpose: Purpose::Query,
            time,
            attrs: BTreeMap::new(),
        }
    }

    /// Builder: sets the purpose.
    pub fn with_purpose(mut self, purpose: Purpose) -> Self {
        self.purpose = purpose;
        self
    }

    /// The owner's own context (always `self` relationship).
    pub fn owner(user: &'a str, time: WeekTime) -> Self {
        Self::query(user, "self", time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weektime_arithmetic() {
        let t = WeekTime::at(4, 9, 30); // Friday 09:30
        assert_eq!(t.day(), 4);
        assert_eq!(t.minute_of_day(), 9 * 60 + 30);
        assert!(WeekTime::at(0, 0, 0) < WeekTime::at(6, 23, 59));
        assert_eq!(WeekTime::at(7, 25, 61), WeekTime::at(0, 1, 1));
    }

    #[test]
    fn day_names() {
        assert_eq!(WeekTime::day_from_name("Mon"), Some(0));
        assert_eq!(WeekTime::day_from_name("friday"), Some(4));
        assert_eq!(WeekTime::day_from_name("SUN"), Some(6));
        assert_eq!(WeekTime::day_from_name("noday"), None);
    }

    #[test]
    fn purpose_roundtrip() {
        for p in [Purpose::Query, Purpose::Cache, Purpose::Subscribe, Purpose::Provision] {
            assert_eq!(Purpose::parse(&p.to_string()), Some(p));
        }
        assert_eq!(Purpose::parse("espionage"), None);
    }

    #[test]
    fn context_builders() {
        let c = RequestContext::query("rick", "co-worker", WeekTime::at(1, 10, 0))
            .with_purpose(Purpose::Subscribe);
        assert_eq!(c.purpose, Purpose::Subscribe);
        let o = RequestContext::owner("alice", WeekTime::at(0, 0, 0));
        assert_eq!(o.relationship, "self");
    }
}
