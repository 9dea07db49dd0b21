use std::fmt;
use uvpu_math::MathError;

/// Errors produced by the CKKS scheme.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CkksError {
    /// Parameter validation failed.
    InvalidParameters(String),
    /// Operands live at different levels and must be aligned first.
    LevelMismatch {
        /// Left operand level.
        left: usize,
        /// Right operand level.
        right: usize,
    },
    /// The ciphertext has no levels left to rescale or multiply into.
    OutOfLevels,
    /// Operand scales differ too much for addition.
    ScaleMismatch {
        /// Left operand scale.
        left: f64,
        /// Right operand scale.
        right: f64,
    },
    /// Too many slot values for the ring degree.
    TooManySlots {
        /// Provided count.
        provided: usize,
        /// Capacity (`N/2`).
        capacity: usize,
    },
    /// A slot value to encode is NaN or infinite.
    NonFiniteSlot {
        /// Index of the first such slot.
        slot: usize,
    },
    /// A scaled message coefficient does not fit in `i64`: the slot
    /// values are too large for the encoding scale.
    CoefficientOverflow {
        /// Coefficient index.
        index: usize,
        /// The rounded scaled value.
        value: f64,
    },
    /// A rotation key for this step was not generated.
    MissingGaloisKey {
        /// The requested rotation step.
        step: i64,
    },
    /// A level or prime index beyond the context's modulus chain.
    IndexOutOfRange {
        /// The requested index.
        index: usize,
        /// Number of entries available.
        len: usize,
    },
    /// An error bubbled up from the mathematical substrate.
    Math(MathError),
}

impl fmt::Display for CkksError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameters(s) => write!(f, "invalid parameters: {s}"),
            Self::LevelMismatch { left, right } => {
                write!(f, "level mismatch: {left} vs {right}")
            }
            Self::OutOfLevels => write!(f, "no levels remain in the modulus chain"),
            Self::ScaleMismatch { left, right } => {
                write!(f, "scale mismatch: {left} vs {right}")
            }
            Self::TooManySlots { provided, capacity } => {
                write!(f, "{provided} slot values exceed capacity {capacity}")
            }
            Self::NonFiniteSlot { slot } => write!(f, "slot {slot} is not a finite number"),
            Self::CoefficientOverflow { index, value } => {
                write!(
                    f,
                    "scaled coefficient {index} ({value:e}) does not fit in i64"
                )
            }
            Self::MissingGaloisKey { step } => {
                write!(f, "no galois key generated for rotation step {step}")
            }
            Self::IndexOutOfRange { index, len } => {
                write!(f, "index {index} beyond the {len}-entry modulus chain")
            }
            Self::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for CkksError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MathError> for CkksError {
    fn from(e: MathError) -> Self {
        Self::Math(e)
    }
}
