//! `#3SAT` and its reduction to `#CQA(FO)` (Theorems 3.2 and 3.3).
//!
//! The lower bounds for arbitrary first-order queries go through 3SAT: the
//! paper shows a fixed first-order query `Q` and key set `Σ` such that
//! `3SAT` many-one reduces to `#CQA>0(Q, Σ)` and, because the reduction is
//! parsimonious, `#3SAT` reduces to `#CQA(Q, Σ)`.  The construction used
//! here encodes an assignment choice as a key violation:
//!
//! * `Assign(v, b)` with `key(Assign) = {1}` — each variable `v` gets the
//!   two conflicting facts `Assign(v, 0)` and `Assign(v, 1)`, so a repair
//!   picks a truth value per variable;
//! * `Clause(c, v₁, s₁, v₂, s₂, v₃, s₃)` (no key) — one fact per clause,
//!   listing its literals as (variable, satisfying-value) pairs;
//! * the fixed FO query says "every clause has a literal made true":
//!   `∀c, v₁, s₁, …, s₃ . ¬Clause(c, v₁, s₁, …) ∨ Assign(v₁, s₁) ∨
//!   Assign(v₂, s₂) ∨ Assign(v₃, s₃)`.
//!
//! Repairs are in bijection with assignments and a repair satisfies the
//! query iff its assignment satisfies the formula, so the reduction is
//! parsimonious: `#3SAT(φ) = #CQA(Q, Σ)(D_φ)`.

use cdr_core::{CountError, CountRequest, RepairEngine};
use cdr_num::BigNat;
use cdr_query::{parse_query, Query};
use cdr_repairdb::{Database, KeySet, Schema, Value};

use crate::reduction::CqaInstance;

/// A literal of a 3CNF clause: a variable index and its polarity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Literal3 {
    /// The variable index.
    pub var: usize,
    /// `true` for a positive literal, `false` for a negated one.
    pub positive: bool,
}

impl Literal3 {
    /// Convenience constructor.
    pub fn new(var: usize, positive: bool) -> Self {
        Literal3 { var, positive }
    }
}

/// A 3CNF formula: every clause has exactly three literals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cnf3 {
    num_vars: usize,
    clauses: Vec<[Literal3; 3]>,
}

impl Cnf3 {
    /// Builds a formula, validating variable indices.
    pub fn new(num_vars: usize, clauses: Vec<[Literal3; 3]>) -> Result<Self, String> {
        for (i, clause) in clauses.iter().enumerate() {
            for lit in clause {
                if lit.var >= num_vars {
                    return Err(format!("clause {i} mentions unknown variable {}", lit.var));
                }
            }
        }
        Ok(Cnf3 { num_vars, clauses })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[[Literal3; 3]] {
        &self.clauses
    }

    /// Evaluates the formula under an assignment given as a bit per
    /// variable.
    pub fn is_satisfied_by(&self, assignment: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|lit| assignment[lit.var] == lit.positive))
    }

    /// Brute-force model count (`#3SAT`), the ground truth for the
    /// reduction tests.  Exponential in the number of variables.
    pub fn count_models_brute_force(&self) -> BigNat {
        let n = self.num_vars;
        assert!(
            n <= 24,
            "brute-force model counting is capped at 24 variables"
        );
        let mut count: u64 = 0;
        for bits in 0..(1u64 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            if self.is_satisfied_by(&assignment) {
                count += 1;
            }
        }
        BigNat::from(count)
    }

    /// The total number of assignments `2^n`.
    pub fn total_assignments(&self) -> BigNat {
        BigNat::from(2u64).pow(self.num_vars as u32)
    }

    /// Builds the `#CQA(Q, Σ)` instance of Theorem 3.2/3.3 for this
    /// formula: the database `D_φ`, the primary keys, and the fixed
    /// first-order query.
    pub fn to_cqa_instance(&self) -> Result<(Database, KeySet, Query), CountError> {
        let mut schema = Schema::new();
        schema.add_relation("Assign", 2)?;
        schema.add_relation("Clause", 7)?;
        let keys = KeySet::builder(&schema).key("Assign", 1)?.build();
        let mut db = Database::new(schema);
        for v in 0..self.num_vars {
            db.insert_values("Assign", vec![Value::int(v as i64), Value::int(0)])?;
            db.insert_values("Assign", vec![Value::int(v as i64), Value::int(1)])?;
        }
        for (c, clause) in self.clauses.iter().enumerate() {
            let mut row = Vec::with_capacity(7);
            row.push(Value::int(c as i64));
            for lit in clause {
                row.push(Value::int(lit.var as i64));
                row.push(Value::int(if lit.positive { 1 } else { 0 }));
            }
            db.insert_values("Clause", row)?;
        }
        let query = parse_query(
            "FORALL c, v1, s1, v2, s2, v3, s3 . \
             NOT Clause(c, v1, s1, v2, s2, v3, s3) \
             OR Assign(v1, s1) OR Assign(v2, s2) OR Assign(v3, s3)",
        )?;
        Ok((db, keys, query))
    }

    /// `#3SAT` computed through the `#CQA(FO)` reduction: counts the
    /// repairs of `D_φ` that satisfy the fixed query.
    pub fn count_models_via_cqa(&self, budget: u64) -> Result<BigNat, CountError> {
        let (db, keys, query) = self.to_cqa_instance()?;
        CqaInstance { db, keys, query }.count(budget)
    }

    /// The decision version (`3SAT` as `#CQA>0(FO)`): is some repair a
    /// satisfying assignment?
    pub fn satisfiable_via_cqa(&self) -> Result<bool, CountError> {
        let (db, keys, query) = self.to_cqa_instance()?;
        // No budget: a formula with more assignments than the engine's
        // default budget must still get a yes/no answer.
        let report = RepairEngine::new(db, keys)
            .run(&CountRequest::decision(query).with_budget(u64::MAX))?;
        Ok(report.answer.as_bool().expect("decision reports a boolean"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(var: usize, positive: bool) -> Literal3 {
        Literal3::new(var, positive)
    }

    /// (x0 ∨ x1 ∨ x2) ∧ (¬x0 ∨ ¬x1 ∨ x2)
    fn small() -> Cnf3 {
        Cnf3::new(
            3,
            vec![
                [lit(0, true), lit(1, true), lit(2, true)],
                [lit(0, false), lit(1, false), lit(2, true)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn brute_force_counts() {
        let f = small();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.clauses().len(), 2);
        assert_eq!(f.total_assignments().to_u64(), Some(8));
        // Count by hand: of the 8 assignments, the first clause removes
        // (F,F,F); the second removes (T,T,F); total 6.
        assert_eq!(f.count_models_brute_force().to_u64(), Some(6));
        assert!(f.is_satisfied_by(&[true, false, false]));
        assert!(!f.is_satisfied_by(&[false, false, false]));
    }

    #[test]
    fn reduction_is_parsimonious() {
        let f = small();
        assert_eq!(
            f.count_models_via_cqa(10_000).unwrap(),
            f.count_models_brute_force()
        );
        assert!(f.satisfiable_via_cqa().unwrap());
    }

    #[test]
    fn unsatisfiable_formula() {
        // (x0 ∨ x0 ∨ x0) ∧ (¬x0 ∨ ¬x0 ∨ ¬x0) is unsatisfiable.
        let f = Cnf3::new(
            1,
            vec![
                [lit(0, true), lit(0, true), lit(0, true)],
                [lit(0, false), lit(0, false), lit(0, false)],
            ],
        )
        .unwrap();
        assert!(f.count_models_brute_force().is_zero());
        assert!(f.count_models_via_cqa(1_000).unwrap().is_zero());
        assert!(!f.satisfiable_via_cqa().unwrap());
    }

    #[test]
    fn empty_formula_counts_all_assignments() {
        let f = Cnf3::new(2, vec![]).unwrap();
        assert_eq!(f.count_models_brute_force().to_u64(), Some(4));
        assert_eq!(f.count_models_via_cqa(1_000).unwrap().to_u64(), Some(4));
    }

    #[test]
    fn several_random_style_formulas_agree() {
        // A few handcrafted formulas with 4 variables exercise different
        // clause structures.
        let formulas = [
            Cnf3::new(
                4,
                vec![
                    [lit(0, true), lit(1, false), lit(2, true)],
                    [lit(1, true), lit(2, false), lit(3, true)],
                    [lit(0, false), lit(2, true), lit(3, false)],
                ],
            )
            .unwrap(),
            Cnf3::new(
                4,
                vec![
                    [lit(0, true), lit(0, true), lit(1, true)],
                    [lit(2, false), lit(3, false), lit(0, false)],
                ],
            )
            .unwrap(),
            Cnf3::new(
                4,
                vec![
                    [lit(0, true), lit(1, true), lit(2, true)],
                    [lit(0, false), lit(1, false), lit(2, false)],
                    [lit(1, true), lit(2, false), lit(3, true)],
                    [lit(3, false), lit(0, true), lit(2, true)],
                ],
            )
            .unwrap(),
        ];
        for (i, f) in formulas.iter().enumerate() {
            assert_eq!(
                f.count_models_via_cqa(100_000).unwrap(),
                f.count_models_brute_force(),
                "formula {i}"
            );
        }
    }

    #[test]
    fn validation_rejects_unknown_variables() {
        assert!(Cnf3::new(1, vec![[lit(0, true), lit(1, true), lit(0, true)]]).is_err());
    }
}
