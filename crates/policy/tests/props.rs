//! Randomized invariant tests local to the policy crate:
//! condition-parser robustness, time-window semantics, and PDP
//! determinism/monotonicity, and the PDP's request normalisation
//! against a strip-first oracle. Deterministic — see `gupster_rng::check`.

use gupster_policy::pep::Pep;
use gupster_policy::{
    Condition, Decision, DecisionCost, Effect, Pap, Pdp, PolicyRepository, Purpose, RequestContext,
    Rule, WeekTime,
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

/// The rule texts the shared-repository property provisions from: few
/// enough that owners often hold identical rules and rule lists.
type RuleTexts = (&'static str, Effect, &'static str, &'static str, i32);

fn random_rule_texts(rng: &mut impl Rng) -> RuleTexts {
    let id = *rng.pick(&["a", "b", "c", "d"]);
    let effect = if rng.gen_range(0u32..4) == 0 { Effect::Deny } else { Effect::Permit };
    let scope = *rng.pick(&[
        "/user/presence",
        "/user/address-book",
        "/user/address-book/item[@type='personal']",
        "//item",
    ]);
    let condition = *rng.pick(&["true", "relationship='friend'", "purpose='subscribe'"]);
    (id, effect, scope, condition, rng.gen_range(0i32..2))
}

/// The rule the model holds for `texts`, parsed by the test itself.
fn model_rule((id, effect, scope, condition, priority): &RuleTexts) -> Rule {
    Rule {
        id: id.to_string(),
        scope: Path::parse(scope).unwrap(),
        condition: Condition::parse(condition).unwrap(),
        effect: effect.clone(),
        priority: *priority,
    }
}

/// A model repository: each owner's rule texts, owned, in rule order.
type Model = Vec<Vec<RuleTexts>>;

fn provision(pap: &mut Pap, model: &mut Model, owner: usize, texts: RuleTexts) {
    let (id, effect, scope, condition, priority) = texts.clone();
    pap.provision(&format!("o{owner}"), id, effect, scope, condition, priority).unwrap();
    let rules = &mut model[owner];
    match rules.iter_mut().find(|held| held.0 == id) {
        Some(held) => *held = texts,
        None => rules.push(texts),
    }
}

/// Every owner's decisions over a fixed request set, checked against
/// the model: `Pap::list` lists the model's rules, and
/// `Pdp::decide_with_cost` answers as the strip-first oracle over them
/// and, cost included, as a repository holding that owner alone.
fn answers(pap: &Pap, model: &Model) -> Vec<(Decision, DecisionCost)> {
    let requests = [
        "/user[@id='o1']/presence",
        "/user/address-book",
        "/user/address-book/item[@type='personal']",
        "/user/address-book/item[@type='corporate']",
        "//item",
        "/user",
    ]
    .map(|p| Path::parse(p).unwrap());
    let contexts = [
        RequestContext::query("rick", "friend", WeekTime::at(1, 10, 0)),
        RequestContext::query("rick", "third-party", WeekTime::at(1, 10, 0))
            .with_purpose(Purpose::Subscribe),
    ];
    let pdp = Pdp::new();
    let mut out = Vec::new();
    for (owner, texts) in model.iter().enumerate() {
        let user = format!("o{owner}");
        let rules: Vec<Rule> = texts.iter().map(model_rule).collect();
        let listed: Vec<String> = rules.iter().map(Rule::to_string).collect();
        assert_eq!(pap.list(&user), listed, "{user}'s rules");
        let mut alone = PolicyRepository::new();
        for rule in &rules {
            alone.put(&user, rule.clone());
        }
        for request in &requests {
            for ctx in &contexts {
                let got = pdp.decide_with_cost(&pap.repository, &user, request, ctx);
                let (oracle, applicable) = strip_first_oracle(true, &rules, request, ctx);
                let shown = format!("{user}: {request}");
                assert_eq!((&got.0, got.1.rules_applicable), (&oracle, applicable), "{shown}");
                assert_eq!(got, pdp.decide_with_cost(&alone, &user, request, ctx), "{shown}");
                out.push(got);
            }
        }
    }
    out
}

/// Owners share rules and rule sets, and mirrors share them with the
/// repository they were cloned from, yet every owner's rules and
/// decisions are its own: random provision / replace / remove sequences
/// over 8 owners (some copying another owner's whole list, so lists
/// coincide), with one repository cloned mid-sequence the way a
/// recovering mirror is, agree with a model holding each owner's rules
/// privately, and an edit to one owner changes no other owner's
/// answers.
#[test]
fn shared_rule_sets_answer_like_private_copies() {
    const OWNERS: usize = 8;
    cases(48, 0x90_08, |rng| {
        let mut paps = vec![Pap::new()];
        let mut models: Vec<Model> = vec![vec![Vec::new(); OWNERS]];
        let steps = rng.gen_range(10usize..40);
        for step in 0..steps {
            if step == steps / 2 {
                paps.push(Pap { repository: paps[0].repository.clone() });
                models.push(models[0].clone());
            }
            let which = rng.gen_range(0..paps.len());
            let (pap, model) = (&mut paps[which], &mut models[which]);
            let owner = rng.gen_range(0..OWNERS);
            let before = answers(pap, model);
            match rng.gen_range(0u32..8) {
                0..=4 => provision(pap, model, owner, random_rule_texts(rng)),
                5 | 6 => {
                    let id = *rng.pick(&["a", "b", "c", "d"]);
                    let held = model[owner].iter().any(|t| t.0 == id);
                    assert_eq!(pap.withdraw(&format!("o{owner}"), id), held);
                    model[owner].retain(|t| t.0 != id);
                }
                _ => {
                    // Owner takes another owner's list, rule by rule.
                    let from = rng.gen_range(0..OWNERS);
                    let copy = model[from].clone();
                    for texts in std::mem::take(&mut model[owner]) {
                        assert!(pap.withdraw(&format!("o{owner}"), texts.0));
                    }
                    for texts in copy {
                        provision(pap, model, owner, texts);
                    }
                }
            }
            let after = answers(pap, model);
            let per_owner = before.len() / OWNERS;
            for other in (0..OWNERS).filter(|&o| o != owner) {
                let range = other * per_owner..(other + 1) * per_owner;
                assert_eq!(before[range.clone()], after[range], "o{owner}'s edit moved o{other}");
            }
            for (pap, model) in paps.iter().zip(&models) {
                answers(pap, model);
            }
        }
    });
}

/// The intern tables hold only what some owner uses: provisioning and
/// then withdrawing 10 000 distinct rule texts on one owner, 100 at a
/// time, beside rules other owners keep, leaves both tables as long as
/// they were.
#[test]
fn churned_rule_texts_leave_the_intern_tables_as_they_were() {
    let mut pap = Pap::new();
    for owner in ["alice", "bob"] {
        pap.provision(owner, "base", Effect::Permit, "/user/presence", "true", 0).unwrap();
    }
    let start = pap.repository.interned();
    assert_eq!(start, (1, 1));
    for batch in 0..100 {
        for i in 0..100 {
            let condition = format!("requester='r{batch}-{i}'");
            let id = format!("churn-{i}");
            pap.provision("alice", &id, Effect::Permit, "/user/calendar", &condition, 0).unwrap();
        }
        assert_eq!(pap.repository.count_for("alice"), 101);
        for i in 0..100 {
            assert!(pap.withdraw("alice", &format!("churn-{i}")));
        }
    }
    assert_eq!(pap.repository.interned(), start);
    assert_eq!(pap.list("alice"), pap.list("bob"));
}
