//! Error types for kernel operations.

use crate::ids::{MhId, MssId};
use std::error::Error;
use std::fmt;

/// Error returned by fallible kernel operations.
///
/// # Examples
///
/// ```
/// use mobidist_net::error::NetError;
/// use mobidist_net::ids::{MhId, MssId};
/// let e = NetError::NotLocal { mss: MssId(0), mh: MhId(3) };
/// assert!(e.to_string().contains("mh3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A wireless downlink send was attempted to an MH that is not local to
    /// the sending MSS.
    NotLocal {
        /// The MSS that attempted the send.
        mss: MssId,
        /// The intended recipient.
        mh: MhId,
    },
    /// An operation referenced an MH that is currently disconnected.
    Disconnected {
        /// The disconnected MH.
        mh: MhId,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NotLocal { mss, mh } => {
                write!(f, "{mh} is not local to {mss}")
            }
            NetError::Disconnected { mh } => write!(f, "{mh} is disconnected"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NetError::NotLocal {
            mss: MssId(1),
            mh: MhId(2),
        };
        assert_eq!(e.to_string(), "mh2 is not local to mss1");
        assert_eq!(
            NetError::Disconnected { mh: MhId(5) }.to_string(),
            "mh5 is disconnected"
        );
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<NetError>();
    }
}
