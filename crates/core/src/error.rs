use std::error::Error;
use std::fmt;

use busnet_markov::MarkovError;
use busnet_queueing::QueueingError;

/// Errors from the busnet core models and simulators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A system parameter violates its documented constraint.
    InvalidParameter {
        /// Parameter name (`"n"`, `"m"`, `"r"`, `"p"`, …).
        name: &'static str,
        /// The offending value, as text.
        value: String,
        /// The violated constraint, as text.
        constraint: &'static str,
    },
    /// An analytic model's Markov machinery failed.
    Markov(MarkovError),
    /// The product-form model failed.
    Queueing(QueueingError),
    /// An evaluator was asked for a scenario outside its domain (e.g.
    /// the §3.1.1 exact chain under processor priority).
    UnsupportedScenario {
        /// The evaluator that refused.
        evaluator: &'static str,
        /// Which scenario aspect is out of domain.
        reason: String,
    },
    /// A work unit panicked; the supervisor caught it and converted the
    /// payload into a typed failure.
    Panicked {
        /// The panic message (or a placeholder for non-string payloads).
        message: String,
    },
    /// A work unit exceeded its event or wall-clock budget.
    BudgetExceeded {
        /// Which budget tripped (`"events"` or `"millis"`).
        what: &'static str,
        /// How much was consumed when the watchdog fired.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// An evaluator returned an EBW that is NaN, infinite or negative
    /// (a model pushed past its numeric range); the sweep supervisor
    /// turns such a result into this failure.
    InvalidResult {
        /// The evaluator that returned it.
        evaluator: &'static str,
        /// The offending EBW, as text.
        ebw: String,
    },
    /// A work unit was cancelled because a sibling failed hard under
    /// `--on-failure abort`.
    Aborted {
        /// The failure that triggered the abort.
        cause: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { name, value, constraint } => {
                write!(f, "invalid parameter {name} = {value}: must satisfy {constraint}")
            }
            CoreError::Markov(e) => write!(f, "markov model failure: {e}"),
            CoreError::Queueing(e) => write!(f, "queueing model failure: {e}"),
            CoreError::UnsupportedScenario { evaluator, reason } => {
                write!(f, "evaluator `{evaluator}` does not support this scenario: {reason}")
            }
            CoreError::Panicked { message } => write!(f, "work unit panicked: {message}"),
            CoreError::BudgetExceeded { what, used, limit } => {
                write!(f, "unit budget exceeded: {used} {what} > limit {limit}")
            }
            CoreError::InvalidResult { evaluator, ebw } => write!(
                f,
                "evaluator `{evaluator}` returned EBW {ebw}, which is not a finite \
                 non-negative number"
            ),
            CoreError::Aborted { cause } => write!(f, "sweep aborted: {cause}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Markov(e) => Some(e),
            CoreError::Queueing(e) => Some(e),
            CoreError::InvalidParameter { .. }
            | CoreError::UnsupportedScenario { .. }
            | CoreError::Panicked { .. }
            | CoreError::BudgetExceeded { .. }
            | CoreError::InvalidResult { .. }
            | CoreError::Aborted { .. } => None,
        }
    }
}

impl From<MarkovError> for CoreError {
    fn from(e: MarkovError) -> Self {
        CoreError::Markov(e)
    }
}

impl From<QueueingError> for CoreError {
    fn from(e: QueueingError) -> Self {
        CoreError::Queueing(e)
    }
}
