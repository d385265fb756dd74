use std::error::Error;
use std::fmt;

use litmus_core::CoreError;
use litmus_platform::PlatformError;
use litmus_sim::SimError;

/// Errors produced by the cluster serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A platform-layer operation (harness boot, stepping) failed.
    Platform(PlatformError),
    /// A pricing-core operation failed.
    Core(CoreError),
    /// A simulation operation failed.
    Sim(SimError),
    /// The cluster was configured with zero machines.
    NoMachines,
    /// Stepping a hand-off's shard panicked, on a pool worker or on the
    /// driver stepping its own shard (the panic message is preserved
    /// when it was a string).
    WorkerPanic(String),
    /// A function the serving context was never warmed with (it holds
    /// no scaled profile and no solo oracle for it). Launching it fails,
    /// and the arrival stays queued on its machine.
    UnknownFunction(&'static str),
    /// An autoscaler configuration had incoherent water marks or
    /// machine bounds.
    InvalidAutoscale(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Platform(e) => write!(f, "platform error: {e}"),
            ClusterError::Core(e) => write!(f, "pricing error: {e}"),
            ClusterError::Sim(e) => write!(f, "simulation error: {e}"),
            ClusterError::NoMachines => {
                write!(f, "cluster configured with zero machines")
            }
            ClusterError::WorkerPanic(msg) => {
                write!(f, "cluster stepping thread panicked: {msg}")
            }
            ClusterError::UnknownFunction(name) => {
                write!(f, "function {name} was never warmed in the serving context")
            }
            ClusterError::InvalidAutoscale(why) => {
                write!(f, "invalid autoscaler configuration: {why}")
            }
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Platform(e) => Some(e),
            ClusterError::Core(e) => Some(e),
            ClusterError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for ClusterError {
    fn from(e: PlatformError) -> Self {
        ClusterError::Platform(e)
    }
}

impl From<CoreError> for ClusterError {
    fn from(e: CoreError) -> Self {
        ClusterError::Core(e)
    }
}

impl From<SimError> for ClusterError {
    fn from(e: SimError) -> Self {
        ClusterError::Sim(e)
    }
}

impl From<litmus_forecast::ForecastError> for ClusterError {
    fn from(e: litmus_forecast::ForecastError) -> Self {
        let litmus_forecast::ForecastError::InvalidConfig(why) = e;
        ClusterError::InvalidAutoscale(why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources() {
        let e: ClusterError = SimError::EmptyProfile.into();
        assert!(e.source().is_some());
        let e: ClusterError = PlatformError::EmptyMix.into();
        assert!(e.to_string().contains("platform"));
        let e: ClusterError = CoreError::NoStartup.into();
        assert!(e.to_string().contains("startup"));
    }

    #[test]
    fn messages_are_informative() {
        assert!(ClusterError::NoMachines.to_string().contains("zero"));
        let e = ClusterError::InvalidAutoscale("low above high");
        assert!(e.to_string().contains("low above high"));
        let e = ClusterError::UnknownFunction("auth-py");
        assert!(e.to_string().contains("auth-py"));
        let e = ClusterError::WorkerPanic("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
