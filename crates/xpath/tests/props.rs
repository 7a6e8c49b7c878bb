//! Randomized invariant tests local to the XPath crate: parser
//! robustness, AST display/parse round trips including `//` and `*`,
//! and containment partial-order sanity. Deterministic — see
//! `gupster_rng::check`.

use std::hash::{BuildHasher, RandomState};

use gupster_oracle::{render_path, select};
use gupster_rng::check::{self, cases};
use gupster_rng::{Rng, StdRng};
use gupster_xml::{ArenaDoc, Element, Name, NameInterner};
use gupster_xpath::{
    contains, covers, may_overlap, Axis, KeyDigest, LocStep, NameTest, Path, Predicate,
};

fn arb_predicate(rng: &mut StdRng) -> Predicate {
    match rng.gen_range(0u32..5) {
        0 => Predicate::AttrEq(check::lowercase(rng, 1, 4).into(), check::alnum(rng, 1, 4)),
        1 => Predicate::AttrExists(check::lowercase(rng, 1, 4).into()),
        2 => Predicate::ChildEq(check::lowercase(rng, 1, 4).into(), check::alnum(rng, 1, 4)),
        3 => Predicate::ChildExists(check::lowercase(rng, 1, 4).into()),
        _ => Predicate::Position(rng.gen_range(1usize..5)),
    }
}

fn arb_step(rng: &mut StdRng, last: bool) -> LocStep {
    let axis = if last {
        match rng.gen_range(0u32..4) {
            0 | 1 => Axis::Child,
            2 => Axis::Descendant,
            _ => Axis::Attribute,
        }
    } else if rng.gen_range(0u32..4) < 3 {
        Axis::Child
    } else {
        Axis::Descendant
    };
    let test = if rng.gen_range(0u32..4) < 3 {
        NameTest::Name(check::lowercase(rng, 1, 6).into())
    } else {
        NameTest::Any
    };
    let preds = check::vec_of(rng, 0, 2, arb_predicate);
    let predicates = if axis == Axis::Attribute { vec![] } else { preds };
    LocStep { axis, test, predicates }
}

fn arb_path(rng: &mut StdRng) -> Path {
    let mut steps = check::vec_of(rng, 1, 3, |r| arb_step(r, false));
    steps.push(arb_step(rng, true));
    Path { steps }
}

/// The parser must never panic on arbitrary input, and an error points
/// at a char boundary inside the input (or at its end). Inputs are
/// printable ASCII and strings biased towards the lexer's special
/// characters, digits and non-ASCII.
#[test]
fn parser_never_panics() {
    const BIASED: [char; 24] = [
        '/', '/', '[', ']', '@', '=', '\'', '"', '*', '0', '1', '9', 'a', 'b', '-', '.', '_', ' ',
        'é', 'ß', '→', '𝄞', '|', '(',
    ];
    cases(2048, 0xa7_01, |rng| {
        for input in [check::printable(rng, 0, 80), check::string_of(rng, &BIASED, 0, 40)] {
            if let Err(e) = Path::parse(&input) {
                assert!(e.position <= input.len(), "{input:?}: {e}");
                assert!(input.is_char_boundary(e.position), "{input:?}: {e}");
            }
        }
    });
}

/// Display → parse is the identity on generated ASTs, shallow and deep.
#[test]
fn display_parse_roundtrip() {
    cases(512, 0xa7_02, |rng| {
        let p = arb_path(rng);
        let s = p.to_string();
        let back = Path::parse(&s).unwrap_or_else(|e| panic!("reparse {s}: {e}"));
        assert_eq!(back, p);
        let deep = deep_path(rng);
        assert_eq!(Path::parse(&deep.to_string()), Ok(deep));
    });
}

/// A literal the grammar can write: any text without NUL that does not
/// hold both quote characters, biased towards quotes and the bytes that
/// delimit a path or a predicate.
fn quotable(rng: &mut StdRng) -> String {
    const BIASED: [char; 10] = ['a', 'b', ' ', '/', '[', ']', '=', '@', 'é', '\''];
    let mut v = check::string_of(rng, &BIASED, 0, 8);
    if rng.gen_range(0u32..2) == 0 {
        v = v.replace('\'', "\"");
    }
    v
}

/// Names the process name table holds, which a parse borrows, and
/// names nothing interns, which a parse copies; ASCII and not.
const INTERNED_NAMES: [&str; 4] = ["user", "address-book", "prés-ence", "名前"];
const NEVER_INTERNED_NAMES: [&str; 4] =
    ["never-interned", "ñever-interned", "nie-名-interned", "_n.i"];

fn pooled_name(rng: &mut StdRng) -> Name {
    let pool = if rng.gen_range(0u32..2) == 0 { INTERNED_NAMES } else { NEVER_INTERNED_NAMES };
    Name::Borrowed(pool[rng.gen_range(0..pool.len())])
}

/// A path over the two name pools, every name borrowed, with quotable
/// predicate values.
fn pooled_path(rng: &mut StdRng) -> Path {
    let len = rng.gen_range(1..5usize);
    let steps = (0..len)
        .map(|i| {
            let axis = match rng.gen_range(0u32..4) {
                0 => Axis::Descendant,
                1 if i + 1 == len => Axis::Attribute,
                _ => Axis::Child,
            };
            let test = match rng.gen_range(0u32..5) {
                0 => NameTest::Any,
                _ => NameTest::Name(pooled_name(rng)),
            };
            let predicates = if axis == Axis::Attribute {
                vec![]
            } else {
                check::vec_of(rng, 0, 3, |rng| match rng.gen_range(0u32..5) {
                    0 => Predicate::AttrEq(pooled_name(rng), quotable(rng)),
                    1 => Predicate::AttrExists(pooled_name(rng)),
                    2 => Predicate::ChildEq(pooled_name(rng), quotable(rng)),
                    3 => Predicate::ChildExists(pooled_name(rng)),
                    _ => Predicate::Position(rng.gen_range(1usize..4)),
                })
            };
            LocStep { axis, test, predicates }
        })
        .collect();
    Path { steps }
}

/// `p` with every name in it rewritten by `f`.
fn respelled(p: &Path, f: impl Fn(&Name) -> Name) -> Path {
    let steps = p.steps.iter().map(|s| LocStep {
        axis: s.axis,
        test: match &s.test {
            NameTest::Any => NameTest::Any,
            NameTest::Name(n) => NameTest::Name(f(n)),
        },
        predicates: s
            .predicates
            .iter()
            .map(|pr| match pr {
                Predicate::AttrEq(a, v) => Predicate::AttrEq(f(a), v.clone()),
                Predicate::AttrExists(a) => Predicate::AttrExists(f(a)),
                Predicate::ChildEq(c, v) => Predicate::ChildEq(f(c), v.clone()),
                Predicate::ChildExists(c) => Predicate::ChildExists(f(c)),
                Predicate::Position(n) => Predicate::Position(*n),
            })
            .collect(),
    });
    Path { steps: steps.collect() }
}

/// Whether a name borrows or owns its characters is invisible: a
/// borrowed and an owned spelling of the same path compare equal, hash
/// alike (so the memo digests keyed on paths agree), display alike, and
/// parse back to a path equal to both, in which exactly the names the
/// name table holds are borrowed. No parse interns a name.
#[test]
fn borrowed_and_owned_names_are_indistinguishable() {
    for name in INTERNED_NAMES {
        NameInterner::intern(name);
    }
    let hasher = RandomState::new();
    cases(1024, 0xa7_08, |rng| {
        let borrowed = pooled_path(rng);
        let owned = respelled(&borrowed, |n| Name::Owned(n.to_string()));
        assert_eq!(borrowed, owned);
        assert_eq!(hasher.hash_one(&borrowed), hasher.hash_one(&owned), "{borrowed}");
        assert_eq!(KeyDigest::new("owner", &borrowed), KeyDigest::new("owner", &owned));
        let text = borrowed.to_string();
        assert_eq!(owned.to_string(), text);
        assert_eq!(owned.display_len(), borrowed.display_len());
        let parsed = Path::parse(&text).unwrap_or_else(|e| panic!("reparse {text}: {e}"));
        assert_eq!(parsed, owned, "{text}");
        // Visits every parsed name; the respelled copy is dropped.
        respelled(&parsed, |n| {
            let held = INTERNED_NAMES.contains(&n.as_ref());
            assert_eq!(matches!(n, Name::Borrowed(_)), held, "{n} in {text}");
            n.clone()
        });
    });
    for name in NEVER_INTERNED_NAMES {
        assert_eq!(NameInterner::lookup(name), None, "a parse interned {name}");
    }
}

/// Display → parse is the identity on predicates whose values hold a
/// quote character, a bracket or a slash: a value holding `'` renders
/// in double quotes. A path whose literal holds a NUL does not parse.
#[test]
fn quoted_literals_round_trip() {
    cases(1024, 0xa7_06, |rng| {
        let mut p = arb_path(rng);
        let step = &mut p.steps[0];
        step.predicates.push(match rng.gen_range(0u32..2) {
            0 => Predicate::AttrEq(check::lowercase(rng, 1, 4).into(), quotable(rng)),
            _ => Predicate::ChildEq(check::lowercase(rng, 1, 4).into(), quotable(rng)),
        });
        let s = p.to_string();
        assert_eq!(Path::parse(&s).as_ref(), Ok(&p), "{s}");
        assert_eq!(p.display_len(), s.len());
        let Some(Predicate::AttrEq(_, v) | Predicate::ChildEq(_, v)) = p.steps[0].predicates.last_mut() else {
            unreachable!("a value predicate was pushed");
        };
        let mut at = rng.gen_range(0..=v.len());
        while !v.is_char_boundary(at) {
            at -= 1;
        }
        v.insert(at, '\0');
        let with_nul = p.to_string();
        assert!(Path::parse(&with_nul).is_err(), "{with_nul:?}");
    });
}

/// The flat `Display` writes what the nested renderer it replaced wrote,
/// and `display_len` counts it, on paths with `//`, `*`, `@`, every
/// predicate kind, multi-digit positions and values holding either
/// quote or both.
#[test]
fn display_equals_the_nested_renderer() {
    const VALUE: [char; 8] = ['\'', '"', 'a', 'b', '/', ']', ' ', 'é'];
    cases(1024, 0xa7_0d, |rng| {
        let mut p = arb_path(rng);
        for step in &mut p.steps {
            for pred in &mut step.predicates {
                match pred {
                    Predicate::AttrEq(_, v) | Predicate::ChildEq(_, v) => {
                        *v = check::string_of(rng, &VALUE, 0, 6);
                    }
                    Predicate::Position(n) => *n = rng.gen_range(1usize..=100_000),
                    _ => {}
                }
            }
        }
        let text = render_path(&p);
        assert_eq!(p.to_string(), text);
        assert_eq!(p.display_len(), text.len(), "{text}");
    });
    let root = Path { steps: vec![] };
    assert_eq!((root.to_string(), root.display_len()), (render_path(&root), 1));
}

/// Containment is reflexive, and both covers/overlap are consistent
/// with it.
#[test]
fn partial_order_sanity() {
    cases(512, 0xa7_03, |rng| {
        let p = arb_path(rng);
        let q = arb_path(rng);
        assert!(contains(&p, &p));
        assert!(covers(&p, &p));
        assert!(may_overlap(&p, &p));
        if contains(&p, &q) {
            // p ⊑ q implies q's subtree covers p's nodes.
            assert!(covers(&q, &p), "p={p} q={q}");
            assert!(may_overlap(&p, &q), "p={p} q={q}");
        }
        if covers(&q, &p) {
            assert!(may_overlap(&p, &q), "p={p} q={q}");
        }
    });
}

/// Adding a predicate never enlarges the selected set: p' ⊑ p.
#[test]
fn predicates_only_narrow() {
    cases(512, 0xa7_04, |rng| {
        let p = arb_path(rng);
        let pred = arb_predicate(rng);
        let mut narrowed = p.clone();
        if let Some(step) = narrowed.steps.first_mut() {
            if step.axis != Axis::Attribute {
                step.predicates.push(pred);
                assert!(contains(&narrowed, &p), "narrowed={narrowed} p={p}");
            }
        }
    });
}

/// Joining paths adds lengths and preserves the prefix's steps.
#[test]
fn join_is_concatenation() {
    cases(512, 0xa7_05, |rng| {
        let a = arb_path(rng);
        let b = arb_path(rng);
        // Only join when `a` doesn't end in an attribute step.
        if !a.targets_attribute() {
            let j = a.join(&b);
            assert_eq!(j.len(), a.len() + b.len());
            assert_eq!(&j.steps[..a.len()], &a.steps[..]);
        }
    });
}

// ---------------------------------------------------------------------
// Oracles: the table-based containment decisions, kept here to check the
// shipped bit-row DP and in-place prefix tests against.
// ---------------------------------------------------------------------

fn oracle_name_subsumes(a: &NameTest, b: &NameTest) -> bool {
    match (a, b) {
        (NameTest::Any, _) => true,
        (NameTest::Name(a), NameTest::Name(b)) => a == b,
        (NameTest::Name(_), NameTest::Any) => false,
    }
}

fn oracle_implied_by(a: &Predicate, b: &Predicate) -> bool {
    a == b
        || match (a, b) {
            (Predicate::AttrExists(a), Predicate::AttrEq(b, _)) => a == b,
            (Predicate::ChildExists(a), Predicate::ChildEq(b, _)) => a == b,
            _ => false,
        }
}

fn oracle_step_subsumes(q: &LocStep, p: &LocStep) -> bool {
    (q.axis == Axis::Attribute) == (p.axis == Axis::Attribute)
        && oracle_name_subsumes(&q.test, &p.test)
        && q.predicates.iter().all(|qp| p.predicates.iter().any(|pp| oracle_implied_by(qp, pp)))
}

/// `p ⊑ q` over a full `(nq+1)×(np+1)` alignment table.
fn oracle_contains(p: &Path, q: &Path) -> bool {
    if p.targets_attribute() != q.targets_attribute() {
        return false;
    }
    if q.steps.is_empty() {
        return p.steps.is_empty();
    }
    if p.steps.is_empty() {
        return false;
    }
    let (np, nq) = (p.steps.len(), q.steps.len());
    let mut hom = vec![vec![false; np + 1]; nq + 1];
    hom[0][0] = true;
    for i in 1..=nq {
        let qs = &q.steps[i - 1];
        for j in 1..=np {
            let ps = &p.steps[j - 1];
            if !oracle_step_subsumes(qs, ps) {
                continue;
            }
            hom[i][j] = match qs.axis {
                Axis::Child | Axis::Attribute => hom[i - 1][j - 1] && ps.axis != Axis::Descendant,
                Axis::Descendant => (0..j).any(|j0| hom[i - 1][j0]),
            };
        }
    }
    hom[nq][np]
}

/// Subtree coverage, testing a cloned prefix of `r`.
fn oracle_covers(c: &Path, r: &Path) -> bool {
    if oracle_contains(r, c) {
        return true;
    }
    if c.targets_attribute() || !c.is_core_fragment() {
        return false;
    }
    let cl = c.steps.len();
    if r.steps.len() < cl || r.steps[..cl].iter().any(|s| s.axis == Axis::Descendant) {
        return false;
    }
    let prefix = Path { steps: r.steps[..cl].to_vec() };
    oracle_contains(&prefix, c)
}

fn oracle_step_compatible(a: &LocStep, b: &LocStep) -> bool {
    let names = match (&a.test, &b.test) {
        (NameTest::Name(x), NameTest::Name(y)) => x == y,
        _ => true,
    };
    let predicates = a.predicates.iter().all(|pa| {
        b.predicates.iter().all(|pb| match (pa, pb) {
            (Predicate::AttrEq(x, v), Predicate::AttrEq(y, w)) => x != y || v == w,
            (Predicate::Position(m), Predicate::Position(n)) => m == n,
            _ => true,
        })
    });
    (a.axis == Axis::Attribute) == (b.axis == Axis::Attribute) && names && predicates
}

fn oracle_may_overlap(a: &Path, b: &Path) -> bool {
    if oracle_covers(a, b) || oracle_covers(b, a) {
        return true;
    }
    if !a.is_core_fragment() || !b.is_core_fragment() {
        return true;
    }
    let (short, long) = if a.steps.len() <= b.steps.len() { (a, b) } else { (b, a) };
    short.steps.iter().zip(&long.steps).all(|(s, l)| oracle_step_compatible(s, l))
}

/// A predicate over a three-letter alphabet, so that random pairs
/// collide often enough to make containment hold.
fn small_predicate(rng: &mut StdRng) -> Predicate {
    let name = |rng: &mut StdRng| ["a", "b", "c"][rng.gen_range(0usize..3)].into();
    match rng.gen_range(0u32..5) {
        0 => Predicate::AttrEq(name(rng), ["1", "2"][rng.gen_range(0usize..2)].to_string()),
        1 => Predicate::AttrExists(name(rng)),
        2 => Predicate::ChildEq(name(rng), ["x", "y"][rng.gen_range(0usize..2)].to_string()),
        3 => Predicate::ChildExists(name(rng)),
        _ => Predicate::Position(rng.gen_range(1usize..3)),
    }
}

fn small_step(rng: &mut StdRng, axis: Axis) -> LocStep {
    let test = if rng.gen_range(0u32..5) == 0 {
        NameTest::Any
    } else {
        NameTest::Name(["a", "b", "c"][rng.gen_range(0usize..3)].into())
    };
    let predicates =
        if axis == Axis::Attribute { vec![] } else { check::vec_of(rng, 0, 4, small_predicate) };
    LocStep { axis, test, predicates }
}

/// A path of `len` steps with `//`, `*`, 0–4 predicates per step and,
/// sometimes, a final `@attr` step.
fn path_of_len(rng: &mut StdRng, len: usize) -> Path {
    let mut steps: Vec<LocStep> = (0..len)
        .map(|_| {
            let axis = if rng.gen_range(0u32..5) == 0 { Axis::Descendant } else { Axis::Child };
            small_step(rng, axis)
        })
        .collect();
    if rng.gen_range(0u32..4) == 0 {
        if let Some(last) = steps.last_mut() {
            *last = small_step(rng, Axis::Attribute);
        }
    }
    Path { steps }
}

/// Depth 1–40, or now and then 129–200 so the DP row spills past one
/// `u128`.
fn deep_path(rng: &mut StdRng) -> Path {
    let len = if rng.gen_range(0u32..8) == 0 {
        rng.gen_range(129usize..=200)
    } else {
        rng.gen_range(1usize..=40)
    };
    path_of_len(rng, len)
}

/// A path that selects at least what `p` selects, more or less: some
/// predicates dropped, some names widened to `*`, some child edges
/// widened to `//`, some runs of steps collapsed into one `//` step.
fn generalize(rng: &mut StdRng, p: &Path) -> Path {
    let mut steps = Vec::new();
    let mut i = 0;
    while i < p.steps.len() {
        let mut s = p.steps[i].clone();
        if s.axis != Axis::Attribute && rng.gen_range(0u32..6) == 0 && i + 1 < p.steps.len() {
            // Skip a few steps behind a descendant edge.
            let skip = rng.gen_range(1usize..=3).min(p.steps.len() - 1 - i);
            i += skip;
            s = p.steps[i].clone();
            if s.axis != Axis::Attribute {
                s.axis = Axis::Descendant;
            }
        }
        s.predicates.retain(|_| rng.gen_range(0u32..3) != 0);
        if rng.gen_range(0u32..5) == 0 {
            s.test = NameTest::Any;
        }
        if s.axis == Axis::Child && rng.gen_range(0u32..6) == 0 {
            s.axis = Axis::Descendant;
        }
        steps.push(s);
        i += 1;
    }
    Path { steps }
}

/// `contains`, `covers` and `may_overlap` decide exactly as the table
/// oracles do, on random, generalized, prefix, suffix and extended
/// pairs, including paths long enough to spill the bit row.
#[test]
fn containment_agrees_with_table_oracle() {
    let mut spilled = 0;
    let mut held = 0;
    cases(1024, 0xa7_06, |rng| {
        let p = deep_path(rng);
        let q = match rng.gen_range(0u32..5) {
            0 => deep_path(rng),
            1 => generalize(rng, &p),
            2 => {
                let cut = rng.gen_range(0..=p.steps.len());
                Path { steps: p.steps[..cut].to_vec() }
            }
            3 => {
                // `//` and p's last few steps: one jump across the row.
                let k = rng.gen_range(1..=p.steps.len().min(3));
                let mut tail = generalize(rng, &Path { steps: p.steps[p.steps.len() - k..].to_vec() });
                if tail.steps[0].axis == Axis::Child {
                    tail.steps[0].axis = Axis::Descendant;
                }
                tail
            }
            _ => {
                let len = rng.gen_range(0usize..4);
                p.join(&path_of_len(rng, len))
            }
        };
        spilled += usize::from(p.len() > 127 || q.len() > 127);
        for (a, b) in [(&p, &q), (&q, &p)] {
            let want = oracle_contains(a, b);
            held += usize::from(want);
            assert_eq!(contains(a, b), want, "contains a={a} b={b}");
            assert_eq!(covers(a, b), oracle_covers(a, b), "covers a={a} b={b}");
            assert_eq!(may_overlap(a, b), oracle_may_overlap(a, b), "may_overlap a={a} b={b}");
        }
    });
    assert!(spilled > 50, "long paths drawn: {spilled}");
    assert!(held > 200, "containment held on too few pairs to test it: {held}");
}

/// A random element tree over a three-name alphabet, so names repeat
/// along every branch and nested matches are common. Every element
/// carries a unique `n` attribute (its creation number), which the
/// differential below compares as node identity; the generated paths
/// never test `n`.
fn arb_doc(rng: &mut StdRng, depth: usize, serial: &mut usize) -> Element {
    const NAMES: [&str; 3] = ["a", "b", "c"];
    let mut e = Element::new(NAMES[rng.gen_range(0..3usize)]).with_attr("n", serial.to_string());
    *serial += 1;
    if rng.gen_range(0u32..3) == 0 {
        e.set_attr("k", ["x", "y"][rng.gen_range(0..2usize)]);
    }
    if rng.gen_range(0u32..4) == 0 {
        e.set_attr("t", "z");
    }
    if rng.gen_range(0u32..3) == 0 {
        e.push_text(["x", "y"][rng.gen_range(0..2usize)]);
    }
    if depth > 0 {
        for _ in 0..rng.gen_range(0..4usize) {
            e.push_child(arb_doc(rng, depth - 1, serial));
        }
    }
    e
}

fn doc_predicate(rng: &mut StdRng) -> Predicate {
    let name = |rng: &mut StdRng| ["a", "b", "c"][rng.gen_range(0..3usize)].into();
    let value = |rng: &mut StdRng| ["x", "y"][rng.gen_range(0..2usize)].to_string();
    match rng.gen_range(0u32..5) {
        0 => Predicate::AttrEq("k".into(), value(rng)),
        1 => Predicate::AttrExists(["k", "t"][rng.gen_range(0..2usize)].into()),
        2 => Predicate::ChildEq(name(rng), value(rng)),
        3 => Predicate::ChildExists(name(rng)),
        _ => Predicate::Position(rng.gen_range(1usize..4)),
    }
}

/// A path of child and descendant steps over the document alphabet,
/// with up to two predicates a step, optionally ending in an attribute
/// step.
fn doc_path(rng: &mut StdRng) -> Path {
    let mut steps: Vec<LocStep> = (0..rng.gen_range(1..5usize))
        .map(|_| LocStep {
            axis: if rng.gen_range(0u32..2) == 0 { Axis::Child } else { Axis::Descendant },
            test: match rng.gen_range(0u32..4) {
                0 => NameTest::Any,
                k => NameTest::Name(["a", "b", "c"][k as usize - 1].into()),
            },
            predicates: check::vec_of(rng, 0, 2, doc_predicate),
        })
        .collect();
    if rng.gen_range(0u32..4) == 0 {
        let test = if rng.gen_range(0u32..2) == 0 { NameTest::Any } else { NameTest::Name("k".into()) };
        steps.push(LocStep { axis: Axis::Attribute, test, predicates: vec![] });
    }
    Path { steps }
}

/// How many of `e`'s proper descendants `test` accepts, each counted
/// once per context it is reached from, and how many distinct ones.
fn descendant_reach(contexts: &[&Element], test: &NameTest) -> (usize, usize) {
    fn walk<'a>(e: &'a Element, test: &NameTest, out: &mut Vec<&'a Element>) {
        for c in e.child_elements() {
            if matches!(test, NameTest::Any) || c.name == test.to_string() {
                out.push(c);
            }
            walk(c, test, out);
        }
    }
    let mut reached = Vec::new();
    for c in contexts {
        walk(c, test, &mut reached);
    }
    let total = reached.len();
    let mut distinct: Vec<*const Element> = reached.iter().map(|&e| e as *const Element).collect();
    distinct.sort_unstable();
    distinct.dedup();
    (total, distinct.len())
}

/// The arena evaluator selects exactly the owned evaluator's nodes, in
/// the same order, with duplicates removed the same way. The documents
/// nest repeated names, so descendant steps from nested contexts reach
/// some nodes more than once; the count at the end proves the
/// generator exercises that deduplication.
#[test]
fn select_arena_matches_owned_select() {
    let mut overlapping = 0;
    let mut ids = Vec::new();
    cases(1024, 0xa7_07, |rng| {
        let owned = arb_doc(rng, 4, &mut 0);
        let doc = ArenaDoc::from_element(&owned);
        for _ in 0..8 {
            let path = doc_path(rng);
            let want: Vec<&str> =
                select(&path, &owned).iter().map(|e| e.attr("n").unwrap()).collect();
            path.select_arena(&doc, &mut ids);
            let got: Vec<&str> = ids.iter().map(|&id| doc.attr(id, "n").unwrap()).collect();
            assert_eq!(got, want, "{path} over {}", owned.to_xml());
            for (i, step) in path.steps.iter().enumerate().skip(1) {
                if step.axis == Axis::Descendant {
                    let prefix = Path { steps: path.steps[..i].to_vec() };
                    let (total, distinct) = descendant_reach(&select(&prefix, &owned), &step.test);
                    if total > distinct {
                        overlapping += 1;
                    }
                }
            }
        }
    });
    assert!(overlapping > 200, "only {overlapping} descendant steps reached a node twice");
}
