//! Randomized invariant tests local to the policy crate:
//! condition-parser robustness, time-window semantics, and PDP
//! determinism/monotonicity, and the PDP's request normalisation
//! against a strip-first oracle. Deterministic — see `gupster_rng::check`.

use gupster_policy::pep::Pep;
use gupster_policy::{
    Condition, Decision, Effect, Pdp, PolicyRepository, Purpose, RequestContext, Rule, WeekTime,
};
use gupster_rng::check::{self, cases};
use gupster_rng::Rng;
use gupster_xpath::{covers, may_overlap, Path, Predicate};

/// The condition parser never panics on arbitrary input.
#[test]
fn condition_parser_never_panics() {
    cases(512, 0x90_01, |rng| {
        let input = check::printable(rng, 0, 60);
        let _ = Condition::parse(&input);
    });
}

/// Display → parse preserves semantics on a probe grid.
#[test]
fn condition_display_semantics() {
    cases(256, 0x90_02, |rng| {
        let rel = check::lowercase(rng, 1, 8);
        let d1 = rng.gen_range(0u32..7);
        let d2 = rng.gen_range(0u32..7);
        let h1 = rng.gen_range(0u32..24);
        let h2 = rng.gen_range(0u32..24);
        let days = if d1 <= d2 { format!("{}-{}", day(d1), day(d2)) } else { "any".to_string() };
        let src = format!("relationship='{rel}' and time in {days} {h1:02}:00-{h2:02}:00");
        let c = Condition::parse(&src).unwrap();
        let c2 = Condition::parse(&c.to_string()).unwrap();
        for pd in 0..7 {
            for ph in [0u32, 6, 12, 18, 23] {
                let ctx = RequestContext::query("x", &rel, WeekTime::at(pd, ph, 30));
                assert_eq!(c.eval(&ctx), c2.eval(&ctx), "{src} probe {pd} {ph}");
            }
        }
    });
}

/// TimeWindow semantics: minute m matches [from,to) with midnight
/// wrap exactly when the arithmetic says so.
#[test]
fn time_window_semantics() {
    cases(512, 0x90_03, |rng| {
        let from = rng.gen_range(0u32..1440);
        let to = rng.gen_range(0u32..1440);
        let d = rng.gen_range(0u32..7);
        let m = rng.gen_range(0u32..1440);
        let c = Condition::TimeWindow { days: vec![d], from, to };
        let ctx = RequestContext::query("x", "r", WeekTime { minutes: d * 1440 + m });
        let expect = if from <= to { m >= from && m < to } else { m >= from || m < to };
        assert_eq!(c.eval(&ctx), expect);
        // Other days never match.
        let other = RequestContext::query("x", "r", WeekTime { minutes: ((d + 1) % 7) * 1440 + m });
        assert!(!c.eval(&other));
    });
}

/// The PDP is deterministic and the owner is always permitted.
#[test]
fn pdp_determinism_and_owner_rule() {
    cases(256, 0x90_04, |rng| {
        let rel = check::lowercase(rng, 1, 6);
        let scopes = ["/user/presence", "/user/address-book", "/user/calendar", "/user/wallet"];
        let scope = *rng.pick(&scopes);
        let day = rng.gen_range(0u32..7);
        let hour = rng.gen_range(0u32..24);
        let mut repo = PolicyRepository::new();
        repo.put(
            "alice",
            Rule::permit(
                "r",
                Path::parse(scope).unwrap(),
                Condition::parse(&format!("relationship='{rel}'")).unwrap(),
            ),
        );
        let pdp = Pdp::new();
        let req = Path::parse("/user/presence").unwrap();
        let ctx = RequestContext::query("rick", &rel, WeekTime::at(day, hour, 0));
        let a = pdp.decide(&repo, "alice", &req, &ctx);
        let b = pdp.decide(&repo, "alice", &req, &ctx);
        assert_eq!(a, b);
        let owner = RequestContext::owner("alice", WeekTime::at(day, hour, 0));
        assert!(pdp.decide(&repo, "alice", &req, &owner).allows_anything());
    });
}

/// Adding a deny rule never *grants* access that was refused before
/// (deny-overrides monotonicity).
#[test]
fn deny_rules_never_widen_access() {
    cases(256, 0x90_05, |rng| {
        let rel = check::lowercase(rng, 1, 6);
        let other = check::lowercase(rng, 1, 6);
        let pdp = Pdp::new();
        let req = Path::parse("/user/presence").unwrap();
        let ctx = RequestContext::query("rick", &rel, WeekTime::at(1, 10, 0));

        let mut repo = PolicyRepository::new();
        repo.put(
            "alice",
            Rule::permit(
                "p",
                Path::parse("/user/presence").unwrap(),
                Condition::parse(&format!("relationship='{other}'")).unwrap(),
            ),
        );
        let before = pdp.decide(&repo, "alice", &req, &ctx).allows_anything();
        repo.put(
            "alice",
            Rule::deny("d", Path::parse("/user/presence").unwrap(), Condition::True),
        );
        let after = pdp.decide(&repo, "alice", &req, &ctx).allows_anything();
        assert!(!after || before, "deny widened access");
    });
}

/// Enforcement mirrors decisions: a permit narrowed to nothing is never
/// returned.
#[test]
fn enforcement_paths_nonempty() {
    cases(256, 0x90_06, |rng| {
        let rel = check::lowercase(rng, 1, 6);
        let mut pep = Pep::new(8);
        let mut repo = PolicyRepository::new();
        repo.put(
            "alice",
            Rule::permit(
                "p",
                Path::parse("/user/presence").unwrap(),
                Condition::parse(&format!("relationship='{rel}'")).unwrap(),
            ),
        );
        let req = Path::parse("/user/presence").unwrap();
        let ctx = RequestContext::query("rick", &rel, WeekTime::at(1, 10, 0))
            .with_purpose(Purpose::Query);
        match pep.enforce(&repo, &"alice".into(), &req, &ctx).decision {
            Decision::Permit => {}
            Decision::PermitNarrowed(paths) => assert!(!paths.is_empty()),
            Decision::Deny => panic!("matching permit must proceed"),
        }
    });
}

/// The normalisation the PDP applied before it decided on the request
/// as given: a copy of the request without the `[@id]` / `[@id='…']`
/// predicates of its first step.
fn strip_user_id(p: &Path) -> Path {
    let mut p = p.clone();
    if let Some(first) = p.steps.first_mut() {
        first
            .predicates
            .retain(|pr| !matches!(pr, Predicate::AttrEq(a, _) | Predicate::AttrExists(a) if a == "id"));
    }
    p
}

/// The strip-first decision over every rule, as the PDP weighed it
/// when it collected its applicable, deny and permit rules into lists:
/// the decision and the number of applicable rules.
fn strip_first_oracle(
    default_closed: bool,
    rules: &[Rule],
    request: &Path,
    ctx: &RequestContext,
) -> (Decision, u64) {
    if ctx.relationship == "self" {
        return (Decision::Permit, 0);
    }
    let request = &strip_user_id(request);
    let applicable: Vec<&Rule> =
        rules.iter().filter(|r| r.condition.eval(ctx) && may_overlap(&r.scope, request)).collect();
    let n = applicable.len() as u64;
    let denies: Vec<&&Rule> = applicable.iter().filter(|r| r.effect == Effect::Deny).collect();
    let permits: Vec<&&Rule> = applicable.iter().filter(|r| r.effect == Effect::Permit).collect();
    let deny_whole = denies.iter().any(|d| {
        covers(&d.scope, request)
            && !permits.iter().any(|p| p.priority > d.priority && covers(&p.scope, request))
    });
    if deny_whole {
        return (Decision::Deny, n);
    }
    let full = permits.iter().find(|p| {
        covers(&p.scope, request)
            && !denies.iter().any(|d| d.priority >= p.priority && may_overlap(&d.scope, request))
    });
    if full.is_some() {
        return (Decision::Permit, n);
    }
    let mut parts: Vec<Path> = Vec::new();
    for p in &permits {
        let knocked =
            denies.iter().any(|d| d.priority >= p.priority && may_overlap(&d.scope, &p.scope));
        if knocked {
            continue;
        }
        let narrowed = if covers(request, &p.scope) {
            p.scope.clone()
        } else if covers(&p.scope, request) {
            request.clone()
        } else {
            continue;
        };
        if !parts.contains(&narrowed) {
            parts.push(narrowed);
        }
    }
    if !parts.is_empty() {
        if parts.iter().any(|p| covers(p, request)) {
            return (Decision::Permit, n);
        }
        return (Decision::PermitNarrowed(parts), n);
    }
    if default_closed || !denies.is_empty() {
        (Decision::Deny, n)
    } else {
        (Decision::Permit, n)
    }
}

/// A random profile path: an optional first-step `[@id]` form (and
/// sometimes an unrelated predicate beside it), then a component and
/// maybe a narrower step below it; now and then a wildcard or `//`.
fn random_path(rng: &mut impl Rng) -> Path {
    let first = *rng.pick(&[
        "",
        "[@id='alice']",
        "[@id='bob']",
        "[@id]",
        "[@kind='x']",
        "[@id='alice'][@kind='x']",
        "[@kind='x'][@id]",
    ]);
    let component = *rng.pick(&["presence", "address-book", "calendar", "*"]);
    let below = *rng.pick(&[
        "",
        "",
        "/item",
        "/item[@type='personal']",
        "/item[@type='corporate']",
        "/item[@id='alice']",
    ]);
    let path = match rng.gen_range(0u32..10) {
        0 => format!("//{component}{below}"),
        1 => format!("/user{first}"),
        _ => format!("/user{first}/{component}{below}"),
    };
    Path::parse(&path).unwrap()
}

/// Deciding on the request as given — first-step `[@id]` predicates
/// ignored in place — reaches the decision the strip-first PDP reached,
/// over the indexed and the naive rule scans alike, with the same
/// applicable rules; stripping the request first moves neither the
/// decision nor the candidate set.
#[test]
fn deciding_on_the_request_as_given_matches_the_strip_first_oracle() {
    cases(2000, 0x90_07, |rng| {
        let default_closed = rng.gen_range(0u32..4) != 0;
        let pdp = Pdp { default_closed };
        let mut repo = PolicyRepository::new();
        let rules: Vec<Rule> = (0..rng.gen_range(0usize..7))
            .map(|i| {
                let condition = if rng.gen_range(0u32..3) == 0 {
                    Condition::parse("relationship='boss'").unwrap()
                } else {
                    Condition::True
                };
                let scope = random_path(rng);
                let rule = if rng.gen_range(0u32..3) == 0 {
                    Rule::deny(&format!("r{i}"), scope, condition)
                } else {
                    Rule::permit(&format!("r{i}"), scope, condition)
                };
                Rule { priority: rng.gen_range(0i32..3), ..rule }
            })
            .collect();
        for rule in &rules {
            repo.put("alice", rule.clone());
        }
        let request = random_path(rng);
        let rel = *rng.pick(&["boss", "friend", "self"]);
        let ctx = RequestContext::query("rick", rel, WeekTime::at(1, 10, 0));

        let (decision, cost) = pdp.decide_with_cost(&repo, "alice", &request, &ctx);
        let (naive, naive_cost) = pdp.decide_with_cost_naive(&repo, "alice", &request, &ctx);
        let (oracle, applicable) = strip_first_oracle(default_closed, &rules, &request, &ctx);
        let shown = format!("{request} under {rules:?} as {rel}");
        assert_eq!(decision, oracle, "indexed vs strip-first: {shown}");
        assert_eq!(naive, oracle, "naive vs strip-first: {shown}");
        assert_eq!(cost.rules_applicable, applicable, "{shown}");
        assert_eq!(naive_cost.rules_applicable, applicable, "{shown}");
        if rel != "self" {
            assert_eq!(naive_cost.rules_considered, rules.len() as u64, "{shown}");
        }
        let stripped = pdp.decide_with_cost(&repo, "alice", &strip_user_id(&request), &ctx);
        assert_eq!(stripped, (decision, cost), "stripping first changes nothing: {shown}");
    });
}

fn day(d: u32) -> &'static str {
    ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][d as usize % 7]
}
