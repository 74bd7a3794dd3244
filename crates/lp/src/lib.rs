//! A dense two-phase simplex solver for small linear programs.
//!
//! The multichannel secret sharing model (Pohly & McDaniel, DSN 2016)
//! computes optimal share schedules by linear programming: minimize the
//! schedule privacy risk `Z(p)`, loss `L(p)`, or delay `D(p)` over the
//! probability mass values `p(k, M)`, subject to linear constraints fixing
//! the mean threshold `κ`, mean multiplicity `μ`, and (for the §IV-D
//! program) per-channel utilization. Those programs have at most a few
//! hundred variables for realistic channel counts, so a dense tableau
//! simplex with Bland's anti-cycling rule is exact enough and fast enough.
//!
//! Variables are implicitly nonnegative (`x ≥ 0`), which matches
//! probability mass values; general bounds can be encoded with extra rows.
//!
//! # Examples
//!
//! ```
//! use mcss_lp::{Problem, Relation};
//!
//! # fn main() -> Result<(), mcss_lp::LpError> {
//! // maximize 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18
//! let mut p = Problem::maximize(&[3.0, 5.0]);
//! p.constraint(&[1.0, 0.0], Relation::Le, 4.0)?;
//! p.constraint(&[0.0, 2.0], Relation::Le, 12.0)?;
//! p.constraint(&[3.0, 2.0], Relation::Le, 18.0)?;
//! let s = p.solve()?;
//! assert!((s.objective() - 36.0).abs() < 1e-9);
//! assert!((s.value(0) - 2.0).abs() < 1e-9);
//! assert!((s.value(1) - 6.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod simplex;

pub use simplex::EPSILON;

/// Direction of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// Optimization sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Error from building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// A coefficient vector's length disagrees with the variable count.
    DimensionMismatch {
        /// Number of variables declared in the objective.
        expected: usize,
        /// Length of the offending coefficient vector.
        found: usize,
    },
    /// An objective or constraint coefficient is NaN or infinite.
    NotFinite,
    /// The iteration cap was hit (should not happen with Bland's rule;
    /// indicates severe numerical trouble).
    IterationLimit,
}

impl core::fmt::Display for LpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::DimensionMismatch { expected, found } => write!(
                f,
                "coefficient vector has length {found}, expected {expected}"
            ),
            LpError::NotFinite => write!(f, "coefficient is NaN or infinite"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

#[derive(Debug, Clone)]
struct Row {
    coeffs: Vec<f64>,
    relation: Relation,
    rhs: f64,
}

/// A linear program over nonnegative variables.
///
/// Build with [`Problem::minimize`] or [`Problem::maximize`], add rows with
/// [`constraint`](Problem::constraint), then call [`solve`](Problem::solve).
#[derive(Debug, Clone)]
pub struct Problem {
    objective: Vec<f64>,
    sense: Sense,
    rows: Vec<Row>,
}

impl Problem {
    /// Creates a minimization problem with the given objective
    /// coefficients (one per variable).
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_lp::Problem;
    /// let p = Problem::minimize(&[1.0, 2.0]);
    /// assert_eq!(p.num_vars(), 2);
    /// ```
    #[must_use]
    pub fn minimize(objective: &[f64]) -> Self {
        Problem {
            objective: objective.to_vec(),
            sense: Sense::Minimize,
            rows: Vec::new(),
        }
    }

    /// Creates a maximization problem with the given objective
    /// coefficients.
    #[must_use]
    pub fn maximize(objective: &[f64]) -> Self {
        Problem {
            objective: objective.to_vec(),
            sense: Sense::Maximize,
            rows: Vec::new(),
        }
    }

    /// Number of decision variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds the constraint `coeffs · x  rel  rhs`.
    ///
    /// # Errors
    ///
    /// [`LpError::DimensionMismatch`] if `coeffs.len() != num_vars()`,
    /// [`LpError::NotFinite`] if any coefficient or the rhs is NaN/∞.
    pub fn constraint(
        &mut self,
        coeffs: &[f64],
        relation: Relation,
        rhs: f64,
    ) -> Result<(), LpError> {
        if coeffs.len() != self.objective.len() {
            return Err(LpError::DimensionMismatch {
                expected: self.objective.len(),
                found: coeffs.len(),
            });
        }
        if !rhs.is_finite() || coeffs.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NotFinite);
        }
        self.rows.push(Row {
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        });
        Ok(())
    }

    /// Solves the program with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// - [`LpError::Infeasible`] when no assignment satisfies all rows.
    /// - [`LpError::Unbounded`] when the objective can improve forever.
    /// - [`LpError::NotFinite`] if the objective contains NaN/∞.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_lp::{Problem, Relation};
    /// # fn main() -> Result<(), mcss_lp::LpError> {
    /// let mut p = Problem::minimize(&[1.0, 1.0]);
    /// p.constraint(&[1.0, 1.0], Relation::Eq, 1.0)?;
    /// let s = p.solve()?;
    /// assert!((s.objective() - 1.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve(&self) -> Result<Solution, LpError> {
        if self.objective.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NotFinite);
        }
        let obj: Vec<f64> = match self.sense {
            Sense::Minimize => self.objective.clone(),
            Sense::Maximize => self.objective.iter().map(|c| -c).collect(),
        };
        let values = simplex::solve(&obj, &self.rows)?;
        let objective = self.objective.iter().zip(&values).map(|(c, x)| c * x).sum();
        Ok(Solution { values, objective })
    }
}

pub(crate) use Row as ConstraintRow;

/// An optimal solution to a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
}

impl Solution {
    /// The optimal objective value, in the problem's original sense.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The value of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// All variable values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-7
    }

    #[test]
    fn textbook_maximization() {
        // Dantzig's classic: max 3x+5y, x≤4, 2y≤12, 3x+2y≤18 ⇒ 36 at (2,6).
        let mut p = Problem::maximize(&[3.0, 5.0]);
        p.constraint(&[1.0, 0.0], Relation::Le, 4.0).unwrap();
        p.constraint(&[0.0, 2.0], Relation::Le, 12.0).unwrap();
        p.constraint(&[3.0, 2.0], Relation::Le, 18.0).unwrap();
        let s = p.solve().unwrap();
        assert!(approx(s.objective(), 36.0));
        assert!(approx(s.value(0), 2.0));
        assert!(approx(s.value(1), 6.0));
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x+3y s.t. x+y ≥ 10, x ≥ 2 ⇒ x=10 y=0? cost 20; or x=2,y=8
        // cost 28. Optimum is x=10.
        let mut p = Problem::minimize(&[2.0, 3.0]);
        p.constraint(&[1.0, 1.0], Relation::Ge, 10.0).unwrap();
        p.constraint(&[1.0, 0.0], Relation::Ge, 2.0).unwrap();
        let s = p.solve().unwrap();
        assert!(approx(s.objective(), 20.0));
        assert!(approx(s.value(0), 10.0));
    }

    #[test]
    fn equality_constraints() {
        // min x+2y+3z s.t. x+y+z = 1, y+z = 0.5 ⇒ x=0.5, y=0.5, z=0: 1.5.
        let mut p = Problem::minimize(&[1.0, 2.0, 3.0]);
        p.constraint(&[1.0, 1.0, 1.0], Relation::Eq, 1.0).unwrap();
        p.constraint(&[0.0, 1.0, 1.0], Relation::Eq, 0.5).unwrap();
        let s = p.solve().unwrap();
        assert!(approx(s.objective(), 1.5), "obj={}", s.objective());
        assert!(approx(s.value(0), 0.5));
        assert!(approx(s.value(1), 0.5));
        assert!(approx(s.value(2), 0.0));
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::minimize(&[1.0]);
        p.constraint(&[1.0], Relation::Le, 1.0).unwrap();
        p.constraint(&[1.0], Relation::Ge, 2.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn infeasible_equalities() {
        let mut p = Problem::minimize(&[0.0, 0.0]);
        p.constraint(&[1.0, 1.0], Relation::Eq, 1.0).unwrap();
        p.constraint(&[1.0, 1.0], Relation::Eq, 2.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize(&[1.0, 0.0]);
        p.constraint(&[0.0, 1.0], Relation::Le, 5.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn unbounded_minimization() {
        // min -x with only x ≥ 3: unbounded below.
        let mut p = Problem::minimize(&[-1.0]);
        p.constraint(&[1.0], Relation::Ge, 3.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_handled() {
        // x - y ≤ -2 with min x ⇒ x=0, y≥2 feasible; objective 0.
        let mut p = Problem::minimize(&[1.0, 0.0]);
        p.constraint(&[1.0, -1.0], Relation::Le, -2.0).unwrap();
        let s = p.solve().unwrap();
        assert!(approx(s.objective(), 0.0));
        assert!(s.value(1) >= 2.0 - 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic cycling-prone example (Beale); Bland's rule must
        // terminate. min -0.75x4 + 150x5 - 0.02x6 + 6x7 (renumbered).
        let mut p = Problem::minimize(&[-0.75, 150.0, -0.02, 6.0]);
        p.constraint(&[0.25, -60.0, -1.0 / 25.0, 9.0], Relation::Le, 0.0)
            .unwrap();
        p.constraint(&[0.5, -90.0, -1.0 / 50.0, 3.0], Relation::Le, 0.0)
            .unwrap();
        p.constraint(&[0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0)
            .unwrap();
        let s = p.solve().unwrap();
        assert!(approx(s.objective(), -0.05), "obj={}", s.objective());
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut p = Problem::minimize(&[0.0, 0.0]);
        p.constraint(&[1.0, 1.0], Relation::Eq, 1.0).unwrap();
        let s = p.solve().unwrap();
        assert!(approx(s.objective(), 0.0));
        assert!(approx(s.value(0) + s.value(1), 1.0));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut p = Problem::minimize(&[1.0, 2.0]);
        assert_eq!(
            p.constraint(&[1.0], Relation::Le, 1.0).unwrap_err(),
            LpError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn non_finite_rejected() {
        let mut p = Problem::minimize(&[1.0]);
        assert_eq!(
            p.constraint(&[f64::NAN], Relation::Le, 1.0).unwrap_err(),
            LpError::NotFinite
        );
        assert_eq!(
            p.constraint(&[1.0], Relation::Le, f64::INFINITY)
                .unwrap_err(),
            LpError::NotFinite
        );
        let bad = Problem::minimize(&[f64::INFINITY]);
        assert_eq!(bad.solve().unwrap_err(), LpError::NotFinite);
    }

    #[test]
    fn redundant_rows_tolerated() {
        let mut p = Problem::minimize(&[1.0, 1.0]);
        p.constraint(&[1.0, 1.0], Relation::Eq, 2.0).unwrap();
        p.constraint(&[2.0, 2.0], Relation::Eq, 4.0).unwrap(); // redundant
        let s = p.solve().unwrap();
        assert!(approx(s.objective(), 2.0));
    }

    #[test]
    fn probability_simplex_program() {
        // The shape the model generates: min c·p, p ≥ 0, Σp = 1, Σ a·p = t.
        let c = [0.9, 0.5, 0.2, 0.7];
        let kvals = [1.0, 2.0, 3.0, 4.0];
        let mut p = Problem::minimize(&c);
        p.constraint(&[1.0; 4], Relation::Eq, 1.0).unwrap();
        p.constraint(&kvals, Relation::Eq, 2.5).unwrap();
        let s = p.solve().unwrap();
        // Optimum mixes k=3 (cost .2) and k=2 (cost .5)? Check: choose
        // weights on (2,3): w2+w3=1, 2w2+3w3=2.5 ⇒ w2=w3=0.5 ⇒ cost 0.35.
        // Mixing (1,3): w1=0.25,w3=0.75 ⇒ 0.375. Mixing (2,4): 0.6.
        // Mixing (3,1)... best is 0.35? Also (3,4): 3w3+4w4=2.5 impossible
        // with w3+w4=1 (min 3). (1,4): w1=.5,w4=.5 ⇒ .8. So 0.35.
        assert!(approx(s.objective(), 0.35), "obj={}", s.objective());
        let total: f64 = s.values().iter().sum();
        assert!(approx(total, 1.0));
        assert!(s.values().iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn solution_accessors() {
        let mut p = Problem::maximize(&[1.0]);
        p.constraint(&[1.0], Relation::Le, 3.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.values().len(), 1);
        assert!(approx(s.value(0), 3.0));
    }

    #[test]
    fn error_display() {
        for e in [
            LpError::Infeasible,
            LpError::Unbounded,
            LpError::DimensionMismatch {
                expected: 1,
                found: 2,
            },
            LpError::NotFinite,
            LpError::IterationLimit,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
