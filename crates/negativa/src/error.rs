use std::fmt;

/// Errors surfaced by the debloat pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NegativaError {
    /// A detection run (which also measures the baseline) failed before
    /// any compaction happened — the input bundle itself is broken.
    Workload(simml::SimmlError),
    /// The verification run hit a zeroed function or unresolvable kernel:
    /// compaction removed code the workload needs. The debloated bundle
    /// must be discarded.
    OverCompaction {
        /// The integrity fault the runtime reported.
        source: simcuda::CudaError,
    },
    /// The verification run completed but produced different output than
    /// the original bundle — semantically broken despite not faulting.
    ChecksumMismatch {
        /// Workload label.
        workload: String,
        /// Checksum of the original bundle's run.
        expected: u64,
        /// Checksum of the debloated bundle's run.
        actual: u64,
    },
    /// A library image failed to parse during location/compaction.
    Elf(simelf::ElfError),
    /// A fatbin failed to parse during location/compaction.
    Fatbin(fatbin::FatbinError),
    /// A workload named no devices. The debloater pins every rank to its
    /// target GPU and refuses to guess a world size for an empty device
    /// list (it used to silently assume one GPU).
    EmptyDevices {
        /// Workload label.
        workload: String,
    },
    /// A `debloat_many` workload set is unusable as a whole: empty, or
    /// mixing frameworks that do not share a bundle.
    InvalidWorkloadSet {
        /// What is wrong with the set.
        reason: String,
    },
    /// A [`crate::service::DebloatService`] could not serve the request:
    /// the bounded queue shed it under load, or the service shut down
    /// before answering. See [`crate::service::ServiceError`].
    Service(crate::service::ServiceError),
    /// The on-disk artifact registry refused or failed an operation:
    /// missing or corrupt entries, content-hash mismatches, or torn
    /// writes. See
    /// [`crate::store::StoreError`].
    Store(crate::store::StoreError),
    /// The wire transport failed: a malformed or wrong-version frame,
    /// a timeout or connection failure that outlived the retry budget,
    /// or a remote-reported fault. See [`crate::net::NetError`].
    Net(crate::net::NetError),
}

impl fmt::Display for NegativaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegativaError::Workload(e) => write!(f, "workload execution failed: {e}"),
            NegativaError::OverCompaction { source } => {
                write!(f, "over-compaction detected during verification: {source}")
            }
            NegativaError::ChecksumMismatch { workload, expected, actual } => write!(
                f,
                "verification checksum mismatch for {workload}: \
                 expected {expected:#018x}, got {actual:#018x}"
            ),
            NegativaError::Elf(e) => write!(f, "elf error: {e}"),
            NegativaError::Fatbin(e) => write!(f, "fatbin error: {e}"),
            NegativaError::EmptyDevices { workload } => {
                write!(f, "workload {workload} names no devices; nothing to pin to the target GPU")
            }
            NegativaError::InvalidWorkloadSet { reason } => {
                write!(f, "invalid workload set: {reason}")
            }
            NegativaError::Service(e) => write!(f, "{e}"),
            NegativaError::Store(e) => write!(f, "{e}"),
            NegativaError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NegativaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NegativaError::Workload(e) => Some(e),
            NegativaError::OverCompaction { source } => Some(source),
            NegativaError::Elf(e) => Some(e),
            NegativaError::Fatbin(e) => Some(e),
            _ => None,
        }
    }
}

impl From<simml::SimmlError> for NegativaError {
    fn from(e: simml::SimmlError) -> Self {
        NegativaError::Workload(e)
    }
}

impl From<simelf::ElfError> for NegativaError {
    fn from(e: simelf::ElfError) -> Self {
        NegativaError::Elf(e)
    }
}

impl From<fatbin::FatbinError> for NegativaError {
    fn from(e: fatbin::FatbinError) -> Self {
        NegativaError::Fatbin(e)
    }
}

impl From<crate::service::ServiceError> for NegativaError {
    fn from(e: crate::service::ServiceError) -> Self {
        NegativaError::Service(e)
    }
}

impl From<crate::store::StoreError> for NegativaError {
    fn from(e: crate::store::StoreError) -> Self {
        NegativaError::Store(e)
    }
}

impl From<crate::net::NetError> for NegativaError {
    fn from(e: crate::net::NetError) -> Self {
        NegativaError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NegativaError>();
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = NegativaError::OverCompaction {
            source: simcuda::CudaError::KernelNotFound {
                kernel: "gemm".into(),
                library: "libx.so".into(),
            },
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("over-compaction"));
    }

    #[test]
    fn empty_devices_names_the_workload() {
        use std::error::Error;
        let e = NegativaError::EmptyDevices { workload: "PyTorch/Train/MobileNetV2".into() };
        assert!(e.to_string().contains("no devices"));
        assert!(e.to_string().contains("MobileNetV2"));
        assert!(e.source().is_none());
        let s = NegativaError::InvalidWorkloadSet { reason: "mixed frameworks".into() };
        assert!(s.to_string().contains("mixed frameworks"));
    }

    #[test]
    fn checksum_mismatch_reports_hex() {
        let e = NegativaError::ChecksumMismatch {
            workload: "PyTorch/Train/MobileNetV2".into(),
            expected: 0xab,
            actual: 0xcd,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x00000000000000ab"));
        assert!(msg.contains("MobileNetV2"));
    }
}
