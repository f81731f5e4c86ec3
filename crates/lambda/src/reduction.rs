//! The hardness reduction of Theorem 5.1: `Λ[k] ≤ #CQA(Q_k, Σ_k)`.
//!
//! For every `k ≥ 0` the paper exhibits a single conjunctive query `Q_k`
//! and key set `Σ_k` with `kw(Q_k, Σ_k) = k` such that every function in
//! `Λ[k]` reduces to `#CQA(Q_k, Σ_k)` under many-one logspace reductions:
//!
//! * `Q_k = ∃z ∃x₁y₁ … ∃x_k y_k ( Selector(z, x₁, y₁, …, x_k, y_k) ∧
//!   ⋀ᵢ Element(xᵢ, yᵢ) )`,
//! * `Σ_k = { key(Element) = {1} }`.
//!
//! Given a compactor `M` and input `x`, the reduction builds the database
//! `D_x = D_element ∪ D_selector`:
//!
//! * `D_element` contains `Element(i, s)` for every solution-domain element
//!   `s ∈ Sᵢ` that appears in some output of `M`, plus the padding fact
//!   `Element(⋆, ⋆)`;
//! * `D_selector` contains, for every valid certificate `c`, the fact
//!   `Selector(c, i₁, s₁, …, i_ℓ, s_ℓ, ⋆, …, ⋆)` listing the pinned
//!   positions of `M(x, c)` padded with `⋆` up to `k` pairs.
//!
//! Because `key(Element) = {1}`, a repair keeps exactly one `Element(i, ·)`
//! fact per domain `i` — i.e. picks one element per solution domain — and
//! it entails `Q_k` iff that choice is consistent with some certificate's
//! pins, which is exactly membership in the union of unfoldings.  The
//! reduction is therefore parsimonious; [`reduce_compactor_to_cqa`] builds
//! it and the tests check count preservation.

use cdr_core::{CountError, CountRequest, RepairEngine};
use cdr_num::BigNat;
use cdr_query::{parse_query, Query};
use cdr_repairdb::{Database, KeySet, Schema, Value};

use crate::compactor::{CompactOutput, Compactor};

/// A `#CQA` instance produced by a reduction: a database, a set of primary
/// keys, and a Boolean query.
pub struct CqaInstance {
    /// The constructed database.
    pub db: Database,
    /// The primary keys (`key(Element) = {1}` for this reduction).
    pub keys: KeySet,
    /// The fixed query `Q_k`.
    pub query: Query,
}

impl CqaInstance {
    /// Counts the repairs of the instance that entail its query, exactly.
    pub fn count(&self, budget: u64) -> Result<BigNat, CountError> {
        let engine = RepairEngine::new(self.db.clone(), self.keys.clone());
        let report = engine.run(&CountRequest::exact(self.query.clone()).with_budget(budget))?;
        Ok(report
            .answer
            .as_count()
            .expect("exact semantics report a count")
            .clone())
    }
}

/// The sentinel constant `⋆` used for the padding positions.
fn star() -> Value {
    Value::text("*")
}

/// The domain-index constant used in `Element(i, s)` facts: `-1` is
/// reserved for the padding fact `Element(⋆, ⋆)`.
fn domain_constant(domain: usize) -> Value {
    Value::int(domain as i64)
}

fn element_constant(compactor: &dyn Compactor, domain: usize, element: usize) -> Value {
    Value::text(compactor.element_label(domain, element))
}

/// Builds the fixed query `Q_k` of the reduction.
fn query_for_keywidth(k: usize) -> Query {
    let mut vars = vec!["z".to_string()];
    let mut selector_args = vec!["z".to_string()];
    let mut element_atoms = Vec::new();
    for i in 0..k {
        let x = format!("x{i}");
        let y = format!("y{i}");
        selector_args.push(x.clone());
        selector_args.push(y.clone());
        element_atoms.push(format!("Element({x}, {y})"));
        vars.push(x);
        vars.push(y);
    }
    let mut body = format!("Selector({})", selector_args.join(", "));
    for atom in element_atoms {
        body.push_str(" AND ");
        body.push_str(&atom);
    }
    let text = format!("EXISTS {} . {}", vars.join(", "), body);
    parse_query(&text).expect("the reduction query is syntactically valid")
}

/// Builds the `#CQA(Q_k, Σ_k)` instance whose answer equals
/// `unfoldM(x)` for the given compactor.
///
/// Returns an error if the compactor is unbounded (`pin_bound() == None`):
/// the reduction needs the fixed arity `1 + 2k` for `Selector`.
pub fn reduce_compactor_to_cqa(compactor: &dyn Compactor) -> Result<CqaInstance, CountError> {
    let Some(k) = compactor.pin_bound() else {
        return Err(CountError::InvalidApproxParameter(
            "the Theorem 5.1 reduction applies to k-compactors, not unbounded compactors".into(),
        ));
    };
    let sizes = compactor.domain_sizes();

    let mut schema = Schema::new();
    schema.add_relation("Element", 2)?;
    schema.add_relation("Selector", 1 + 2 * k)?;
    let keys = KeySet::builder(&schema).key("Element", 1)?.build();
    let mut db = Database::new(schema);

    // The padding fact Element(⋆, ⋆) is always present.
    db.insert_values("Element", vec![star(), star()])?;

    // Collect which (domain, element) pairs appear in some output, and the
    // selector facts, in one pass over the certificates.
    let mut appears = vec![vec![false; 0]; sizes.len()];
    for (d, &s) in sizes.iter().enumerate() {
        appears[d] = vec![false; s];
    }
    let mut selector_rows: Vec<Vec<Value>> = Vec::new();
    for c in 0..compactor.certificate_count() {
        let CompactOutput::Boxed(pins) = compactor.compact(c) else {
            continue;
        };
        // Elements appearing in the output: pinned elements appear as
        // themselves, unpinned domains are listed in full.
        for (d, &size) in sizes.iter().enumerate() {
            match pins.get(d) {
                Some(e) => appears[d][e] = true,
                None => {
                    for slot in appears[d].iter_mut().take(size) {
                        *slot = true;
                    }
                }
            }
        }
        // The Selector fact for this certificate.
        let mut row = Vec::with_capacity(1 + 2 * k);
        row.push(Value::int(c as i64));
        for (d, e) in pins.pins() {
            row.push(domain_constant(d));
            row.push(element_constant(compactor, d, e));
        }
        while row.len() < 1 + 2 * k {
            row.push(star());
        }
        selector_rows.push(row);
    }

    for (d, flags) in appears.iter().enumerate() {
        for (e, &present) in flags.iter().enumerate() {
            if present {
                db.insert_values(
                    "Element",
                    vec![domain_constant(d), element_constant(compactor, d, e)],
                )?;
            }
        }
    }
    for row in selector_rows {
        db.insert_values("Selector", row)?;
    }

    Ok(CqaInstance {
        db,
        keys,
        query: query_for_keywidth(k),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::{unfold_count, CompactOutput, ExplicitCompactor};
    use crate::cqa_compactor::CqaCompactor;
    use cdr_query::{keywidth, rewrite_to_ucq};

    fn assert_parsimonious(compactor: &dyn Compactor) {
        let expected = unfold_count(compactor, 1_000_000).unwrap();
        let instance = reduce_compactor_to_cqa(compactor).unwrap();
        let actual = instance.count(1_000_000).unwrap();
        assert_eq!(
            actual, expected,
            "the reduction must preserve the count exactly"
        );
    }

    #[test]
    fn reduction_query_has_the_right_keywidth() {
        for k in 0..4 {
            let compactor = ExplicitCompactor::new(
                vec![2; k.max(1)],
                vec![CompactOutput::pins((0..k).map(|d| (d, 0)))],
                Some(k),
            );
            let instance = reduce_compactor_to_cqa(&compactor).unwrap();
            assert_eq!(
                keywidth(&instance.query, instance.db.schema(), &instance.keys),
                k,
                "kw(Q_k, Σ_k) must equal k"
            );
        }
    }

    #[test]
    fn simple_compactors_reduce_parsimoniously() {
        // Two overlapping boxes over three domains.
        let c = ExplicitCompactor::new(
            vec![3, 2, 4],
            vec![
                CompactOutput::pins([(0, 0), (1, 1)]),
                CompactOutput::Empty,
                CompactOutput::pins([(1, 0), (2, 3)]),
                CompactOutput::pins([(0, 0), (2, 3)]),
            ],
            Some(2),
        );
        assert_parsimonious(&c);
    }

    #[test]
    fn zero_keywidth_compactor() {
        // k = 0: a compactor that either accepts everything or nothing.
        let everything = ExplicitCompactor::new(vec![3, 3], vec![CompactOutput::pins([])], Some(0));
        assert_parsimonious(&everything);
        let nothing = ExplicitCompactor::new(vec![3, 3], vec![CompactOutput::Empty], Some(0));
        assert_parsimonious(&nothing);
    }

    #[test]
    fn no_valid_certificates_counts_zero() {
        let c = ExplicitCompactor::new(
            vec![4, 4],
            vec![CompactOutput::Empty, CompactOutput::Empty],
            Some(1),
        );
        let instance = reduce_compactor_to_cqa(&c).unwrap();
        assert!(instance.count(1_000).unwrap().is_zero());
    }

    #[test]
    fn domains_with_absent_elements_still_count_correctly() {
        // Every certificate pins domain 0, so element 2 of domain 0 never
        // appears in any output; the reduction must not count repairs that
        // would pick it.
        let c = ExplicitCompactor::new(
            vec![3, 2],
            vec![CompactOutput::pins([(0, 0)]), CompactOutput::pins([(0, 1)])],
            Some(1),
        );
        assert_eq!(unfold_count(&c, 1_000).unwrap().to_u64(), Some(4));
        assert_parsimonious(&c);
    }

    #[test]
    fn composing_with_the_cqa_compactor_round_trips() {
        // Start from a #CQA instance, view it as a compactor (Algorithm 2),
        // reduce it back to #CQA via Theorem 5.1, and check all three
        // counts agree.
        let mut schema = Schema::new();
        schema.add_relation("Works", 2).unwrap();
        let keys = KeySet::builder(&schema).key("Works", 1).unwrap().build();
        let mut db = Database::new(schema);
        for k in 0..4i64 {
            for d in ["sales", "eng", "hr"] {
                db.insert_parsed(&format!("Works({k}, '{d}')")).unwrap();
            }
        }
        let q =
            parse_query("Works(0, 'sales') OR (EXISTS x . Works(1, x) AND Works(2, x))").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let compactor = CqaCompactor::new(&db, &keys, &ucq).unwrap();
        let original = CqaInstance {
            db: db.clone(),
            keys: keys.clone(),
            query: q,
        }
        .count(1_000_000)
        .unwrap();
        assert_eq!(unfold_count(&compactor, 1_000_000).unwrap(), original);
        let instance = reduce_compactor_to_cqa(&compactor).unwrap();
        assert_eq!(instance.count(1_000_000).unwrap(), original);
    }

    #[test]
    fn unbounded_compactors_are_rejected() {
        let c = ExplicitCompactor::new(
            vec![2, 2],
            vec![CompactOutput::pins([(0, 0), (1, 0)])],
            None,
        );
        assert!(reduce_compactor_to_cqa(&c).is_err());
    }
}
