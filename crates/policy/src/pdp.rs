//! The policy decision point (Figure 10: "renders a decision based on a
//! rule set and a context; the decision point only returns a decision
//! and has absolutely no side-effect on the environment").

use gupster_xpath::{covers_view, may_overlap, may_overlap_view, Path, PathView};

use crate::context::RequestContext;
use crate::repository::PolicyRepository;
use crate::rule::{Effect, Rule};

/// The PDP's verdict for a (user, path, context) request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The whole requested sub-tree may be disclosed.
    Permit,
    /// Nothing may be disclosed.
    Deny,
    /// Only the listed sub-scopes of the request may be disclosed
    /// ("only a subset of the information asked for can be returned",
    /// §5.3). Each path is a narrowing of the request.
    PermitNarrowed(Vec<Path>),
}

impl Decision {
    /// True for any permit (full or narrowed).
    pub fn allows_anything(&self) -> bool {
        !matches!(self, Decision::Deny)
    }
}

/// How much work one [`Pdp::decide`] call performed: the count E16
/// and the differential suites compare between the bucketed rule index
/// and the full scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCost {
    /// Rules of the owner that were examined (condition + overlap test).
    pub rules_considered: u64,
    /// Rules whose condition held and whose scope related to the
    /// request (the ones that shaped the decision).
    pub rules_applicable: u64,
}

/// The decision point. Stateless over a repository reference — the
/// repository itself is the state, per Figure 10's role split.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pdp {
    /// When `true`, a request with no applicable rule is denied
    /// (default-closed — the shield posture). The profile owner
    /// (`relationship == "self"`) is always permitted.
    pub default_closed: bool,
}

impl Pdp {
    /// A default-closed PDP (the recommended shield posture).
    pub fn new() -> Self {
        Pdp { default_closed: true }
    }

    /// Decides a request.
    ///
    /// Semantics: rules whose condition holds and whose scope relates to
    /// the request participate. Deny rules covering any part of the
    /// request knock that part out; permit rules admit the parts they
    /// cover. The result is `Permit` when a permit covers the whole
    /// request and no deny intersects it; `PermitNarrowed` when permits
    /// cover only parts (minus denied parts); `Deny` otherwise.
    ///
    /// Normalisation: rules are stored per owner, so the `[@id]` /
    /// `[@id='…']` predicates on the request's first step are ignored —
    /// `/user[@id='alice']/presence` is decided as `/user/presence`. The
    /// request is read as given, never copied; only a narrowing that is
    /// the request itself is built, without those predicates.
    pub fn decide(
        &self,
        repo: &PolicyRepository,
        owner: &str,
        request: &Path,
        ctx: &RequestContext,
    ) -> Decision {
        self.decide_with_cost(repo, owner, request, ctx).0
    }

    /// [`Pdp::decide`] plus the amount of rule-evaluation work done.
    ///
    /// Rides the bucketed rule index (DESIGN.md §7): only the rules in
    /// the request's component bucket (plus the wildcard catch-all) are
    /// examined, in rule order, so the decision is byte-identical to
    /// [`Pdp::decide_with_cost_naive`] while `rules_considered` shrinks
    /// from *all rules* to *candidate rules*.
    pub fn decide_with_cost(
        &self,
        repo: &PolicyRepository,
        owner: &str,
        request: &Path,
        ctx: &RequestContext,
    ) -> (Decision, DecisionCost) {
        if ctx.relationship == "self" {
            // The owner always reaches their own data; deny rules do not
            // apply to self (the owner edits the shield through the PAP).
            return (Decision::Permit, DecisionCost::default());
        }
        let Some(set) = repo.rule_set(owner) else {
            return self.weigh(std::iter::empty(), 0, request, ctx);
        };
        let rules = set.rules();
        match set.candidates(request) {
            Some(candidates) => {
                let considered = candidates.len() as u64;
                self.weigh(candidates.map(|i| &rules[i].rule), considered, request, ctx)
            }
            // Unbucketable request (wildcards, bare `/user`): every rule
            // is a candidate.
            None => self.weigh(rules.iter().map(|r| &r.rule), rules.len() as u64, request, ctx),
        }
    }

    /// The retained naive decision: scans every rule of the owner. The
    /// differential-testing oracle for the indexed
    /// [`Pdp::decide_with_cost`] — the two must agree byte-for-byte on
    /// every input.
    pub fn decide_with_cost_naive(
        &self,
        repo: &PolicyRepository,
        owner: &str,
        request: &Path,
        ctx: &RequestContext,
    ) -> (Decision, DecisionCost) {
        if ctx.relationship == "self" {
            return (Decision::Permit, DecisionCost::default());
        }
        let rules = repo.rules_for(owner);
        self.weigh(rules.iter().map(|r| &r.rule), rules.len() as u64, request, ctx)
    }

    /// Weighs the `considered` candidate `rules`, in rule order, against
    /// the request as given: every containment test reads it through
    /// [`PathView::owner_free`] (see [`Pdp::decide`]'s normalisation).
    ///
    /// Rules whose condition holds and whose scope may overlap the
    /// request are *applicable*. The permit and deny verdicts come from
    /// one pass over them that keeps three priorities; only a narrowing
    /// walks them again, pairwise, and builds its parts.
    fn weigh<'r>(
        &self,
        rules: impl Iterator<Item = &'r Rule> + Clone,
        considered: u64,
        request: &Path,
        ctx: &RequestContext,
    ) -> (Decision, DecisionCost) {
        let req = PathView::owner_free(request);
        let applicable = rules.filter(|r| {
            r.condition.eval(ctx) && may_overlap_view(PathView::of(&r.scope), req)
        });
        let mut cost = DecisionCost { rules_considered: considered, rules_applicable: 0 };
        // The highest priority of any deny, of a deny covering the whole
        // request, and of a permit covering it.
        let (mut deny, mut covering_deny, mut covering_permit) = (None, None, None);
        let mut permits = false;
        for r in applicable.clone() {
            cost.rules_applicable += 1;
            let covering = covers_view(PathView::of(&r.scope), req);
            match r.effect {
                Effect::Deny => {
                    deny = deny.max(Some(r.priority));
                    if covering {
                        covering_deny = covering_deny.max(Some(r.priority));
                    }
                }
                Effect::Permit => {
                    permits = true;
                    if covering {
                        covering_permit = covering_permit.max(Some(r.priority));
                    }
                }
            }
        }

        // Deny wins at equal or higher priority than the permits that
        // would admit the same region; we implement the paper's simple
        // posture: any applicable deny covering the whole request denies
        // it outright unless a strictly higher-priority permit covers it
        // too, and denies always knock out overlapping permits unless a
        // strictly higher-priority permit exists.
        if let Some(d) = covering_deny {
            if covering_permit.is_none_or(|p| p <= d) {
                return (Decision::Deny, cost);
            }
        }

        // A full-cover permit not shadowed by a deny of ≥ priority (every
        // applicable deny overlaps the request).
        if let Some(p) = covering_permit {
            if deny.is_none_or(|d| d < p) {
                return (Decision::Permit, cost);
            }
        }

        // Partial permits: permit scopes *inside* the request that are
        // not knocked out by an overlapping deny of ≥ priority.
        let mut parts: Vec<Path> = Vec::new();
        if permits {
            for p in applicable.clone().filter(|r| r.effect == Effect::Permit) {
                let knocked = applicable.clone().any(|d| {
                    d.effect == Effect::Deny
                        && d.priority >= p.priority
                        && may_overlap(&d.scope, &p.scope)
                });
                if knocked {
                    continue;
                }
                let scope = PathView::of(&p.scope);
                let narrowed = if covers_view(req, scope) {
                    p.scope.clone()
                } else if covers_view(scope, req) {
                    req.to_path()
                } else {
                    continue;
                };
                if !parts.contains(&narrowed) {
                    parts.push(narrowed);
                }
            }
        }
        let decision = if !parts.is_empty() {
            // A permit covering the whole request would have returned
            // above; these are genuine narrowings (or the request
            // itself, if a permit scope equals it but was shadowed for
            // other parts — still correct to disclose).
            if parts.iter().any(|p| covers_view(PathView::of(p), req)) {
                Decision::Permit
            } else {
                Decision::PermitNarrowed(parts)
            }
        } else if self.default_closed || deny.is_some() {
            Decision::Deny
        } else {
            Decision::Permit
        };
        (decision, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::context::WeekTime;

    fn path(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn shield() -> PolicyRepository {
        // The §4.6 corporate user's shield.
        let mut repo = PolicyRepository::new();
        repo.put(
            "alice",
            Rule::permit(
                "coworker-presence",
                path("/user/presence"),
                Condition::parse("relationship='co-worker' and time in Mon-Fri 09:00-18:00")
                    .unwrap(),
            ),
        );
        repo.put(
            "alice",
            Rule::permit(
                "boss-family-presence",
                path("/user/presence"),
                Condition::parse("relationship='boss' or relationship='family'").unwrap(),
            ),
        );
        repo.put(
            "alice",
            Rule::permit(
                "family-personal",
                path("/user/address-book/item[@type='personal']"),
                Condition::parse("relationship='family'").unwrap(),
            ),
        );
        repo.put(
            "alice",
            Rule::permit(
                "family-calendar",
                path("/user/calendar"),
                Condition::parse("relationship='family'").unwrap(),
            ),
        );
        repo
    }

    fn ctx(rel: &str, day: u32, hour: u32) -> RequestContext<'_> {
        RequestContext::query("rick", rel, WeekTime::at(day, hour, 0))
    }

    #[test]
    fn coworker_presence_working_hours_only() {
        let pdp = Pdp::new();
        let repo = shield();
        let presence = path("/user[@id='alice']/presence");
        assert_eq!(pdp.decide(&repo, "alice", &presence, &ctx("co-worker", 2, 11)), Decision::Permit);
        assert_eq!(pdp.decide(&repo, "alice", &presence, &ctx("co-worker", 2, 20)), Decision::Deny);
        assert_eq!(pdp.decide(&repo, "alice", &presence, &ctx("co-worker", 6, 11)), Decision::Deny);
    }

    #[test]
    fn boss_and_family_any_time() {
        let pdp = Pdp::new();
        let repo = shield();
        let presence = path("/user[@id='alice']/presence");
        assert_eq!(pdp.decide(&repo, "alice", &presence, &ctx("boss", 6, 3)), Decision::Permit);
        assert_eq!(pdp.decide(&repo, "alice", &presence, &ctx("family", 6, 3)), Decision::Permit);
    }

    #[test]
    fn default_closed_for_strangers() {
        let pdp = Pdp::new();
        let repo = shield();
        assert_eq!(
            pdp.decide(&repo, "alice", &path("/user/presence"), &ctx("third-party", 2, 11)),
            Decision::Deny
        );
        assert_eq!(
            pdp.decide(&repo, "alice", &path("/user/wallet"), &ctx("family", 2, 11)),
            Decision::Deny
        );
    }

    #[test]
    fn owner_always_permitted() {
        let pdp = Pdp::new();
        let repo = shield();
        let c = RequestContext::owner("alice", WeekTime::at(6, 3, 0));
        assert_eq!(pdp.decide(&repo, "alice", &path("/user/wallet"), &c), Decision::Permit);
    }

    #[test]
    fn request_narrowed_to_permitted_subset() {
        let pdp = Pdp::new();
        let repo = shield();
        // Family asks for the *whole* address book; only the personal
        // split is permitted.
        let d = pdp.decide(
            &repo,
            "alice",
            &path("/user[@id='alice']/address-book"),
            &ctx("family", 2, 11),
        );
        match d {
            Decision::PermitNarrowed(parts) => {
                assert_eq!(parts.len(), 1);
                assert_eq!(parts[0].to_string(), "/user/address-book/item[@type='personal']");
            }
            other => panic!("expected narrowing, got {other:?}"),
        }
    }

    #[test]
    fn deeper_request_inside_permit_scope_allowed() {
        let pdp = Pdp::new();
        let repo = shield();
        let d = pdp.decide(
            &repo,
            "alice",
            &path("/user/calendar/event[@id='e1']/start"),
            &ctx("family", 2, 11),
        );
        assert_eq!(d, Decision::Permit);
    }

    #[test]
    fn deny_overrides_permit() {
        let pdp = Pdp::new();
        let mut repo = shield();
        repo.put(
            "alice",
            Rule::deny("no-rick", path("/user/presence"), Condition::parse("requester='rick'").unwrap()),
        );
        assert_eq!(
            pdp.decide(&repo, "alice", &path("/user/presence"), &ctx("boss", 2, 11)),
            Decision::Deny
        );
    }

    #[test]
    fn higher_priority_permit_beats_deny() {
        let pdp = Pdp::new();
        let mut repo = PolicyRepository::new();
        repo.put("alice", Rule::deny("d", path("/user/presence"), Condition::True));
        repo.put(
            "alice",
            Rule { priority: 10, ..Rule::permit("p", path("/user/presence"), Condition::True) },
        );
        assert_eq!(
            pdp.decide(&repo, "alice", &path("/user/presence"), &ctx("boss", 0, 0)),
            Decision::Permit
        );
    }

    #[test]
    fn open_pdp_permits_unmatched() {
        let pdp = Pdp { default_closed: false };
        let repo = PolicyRepository::new();
        assert_eq!(
            pdp.decide(&repo, "alice", &path("/user/presence"), &ctx("anyone", 0, 0)),
            Decision::Permit
        );
    }

    #[test]
    fn indexed_decide_agrees_with_naive_and_prunes() {
        let pdp = Pdp::new();
        let mut repo = shield();
        // Pad with rules on many other components so pruning is visible.
        for i in 0..40 {
            repo.put(
                "alice",
                Rule::permit(
                    &format!("pad-{i}"),
                    path(&format!("/user/devices/device[@id='{i}']")),
                    Condition::True,
                ),
            );
        }
        for (req, rel) in [
            ("/user[@id='alice']/presence", "co-worker"),
            ("/user[@id='alice']/address-book", "family"),
            ("/user/calendar/event[@id='e1']/start", "family"),
            ("/user/devices/device[@id='7']", "third-party"),
            ("/user", "boss"),
            ("//presence", "boss"),
        ] {
            let c = ctx(rel, 2, 11);
            let (d, cost) = pdp.decide_with_cost(&repo, "alice", &path(req), &c);
            let (dn, cost_n) = pdp.decide_with_cost_naive(&repo, "alice", &path(req), &c);
            assert_eq!(d, dn, "{req} as {rel}");
            assert_eq!(cost.rules_applicable, cost_n.rules_applicable, "{req}");
            assert!(cost.rules_considered <= cost_n.rules_considered, "{req}");
        }
        // The presence request must not touch the 40 device rules.
        let (_, cost) =
            pdp.decide_with_cost(&repo, "alice", &path("/user/presence"), &ctx("boss", 2, 11));
        assert!(cost.rules_considered <= 4, "got {}", cost.rules_considered);
    }

    #[test]
    fn non_overlapping_rules_not_applicable() {
        let pdp = Pdp::new();
        let repo = shield();
        // Presence rules must not leak access to devices.
        assert_eq!(
            pdp.decide(&repo, "alice", &path("/user/devices"), &ctx("boss", 2, 11)),
            Decision::Deny
        );
    }
}
