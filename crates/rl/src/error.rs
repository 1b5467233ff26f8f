use frlfi_nn::NnError;
use frlfi_tensor::TensorError;

/// Typed error for the reinforcement-learning hot path.
///
/// Training and action selection are fallible: a malformed scenario can
/// feed a learner an observation whose shape does not match its policy
/// network, and the federated/campaign layers need that to surface as a
/// quarantinable per-trial error instead of a worker-killing panic.
#[derive(Debug)]
pub enum RlError {
    /// The policy network rejected an observation, gradient or
    /// activation shape.
    Nn(NnError),
    /// Lock-step batched evaluation drained its batch without every
    /// episode reaching a terminal outcome (an environment contract
    /// violation).
    EpisodeNotTerminated,
    /// A transition names an action the policy network has no output
    /// for.
    ActionOutOfRange {
        /// The action the transition carries.
        action: usize,
        /// How many actions (Q-values or logits) the network outputs.
        n_actions: usize,
    },
}

impl std::fmt::Display for RlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RlError::Nn(e) => write!(f, "policy network error: {e}"),
            RlError::EpisodeNotTerminated => {
                write!(f, "batched evaluation finished with a non-terminated episode")
            }
            RlError::ActionOutOfRange { action, n_actions } => {
                write!(f, "action {action} is out of range for a policy with {n_actions} actions")
            }
        }
    }
}

impl std::error::Error for RlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RlError::Nn(e) => Some(e),
            RlError::EpisodeNotTerminated | RlError::ActionOutOfRange { .. } => None,
        }
    }
}

impl From<NnError> for RlError {
    fn from(e: NnError) -> Self {
        RlError::Nn(e)
    }
}

impl From<TensorError> for RlError {
    fn from(e: TensorError) -> Self {
        RlError::Nn(NnError::Tensor(e))
    }
}
