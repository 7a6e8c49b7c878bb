//! Randomized invariant tests local to the policy crate:
//! condition-parser robustness, time-window semantics, and PDP
//! determinism/monotonicity. Deterministic — see `gupster_rng::check`.

use gupster_policy::pep::{Enforcement, Pep};
use gupster_policy::{Condition, Pdp, PolicyRepository, Purpose, RequestContext, Rule, WeekTime};
use gupster_rng::check::{self, cases};
use gupster_rng::Rng;
use gupster_xpath::Path;

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

/// Enforcement mirrors decisions: Proceed paths are never empty.
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
        match pep.enforce(&repo, "alice", &req, &ctx).enforcement {
            Enforcement::Proceed(paths) => assert!(!paths.is_empty()),
            Enforcement::Refused => panic!("matching permit must proceed"),
        }
    });
}

fn day(d: u32) -> &'static str {
    ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][d as usize % 7]
}
